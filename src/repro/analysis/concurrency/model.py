"""Shared source model for the concurrency checks.

One :class:`ModuleModel` per Python file: the parsed AST with parent
links, a line-offset table mapping ``(lineno, col)`` to character
offsets (so findings reuse the :class:`~repro.diagnostics.Span`
machinery and render caret snippets), the ``# guard:`` /
``# guard-writes:`` annotations harvested from comments, and the
``# noqa: TABxxx`` suppressions.

Annotation convention (documented in ``docs/static_analysis.md``):

- ``self.attr = ...  # guard: _lock`` — every access to ``self.attr``
  (read *and* write) must happen under ``with self._lock:``;
- ``self.attr = ...  # guard-writes: _lock`` — only mutations need the
  lock; reads are deliberately lock-free (e.g. the cube store's
  single-field introspection reads);
- ``@guarded_by("_lock")`` on a method — the body runs with the lock
  held by the caller; the analyzer treats the whole method as locked
  and the runtime sanitizer asserts it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.diagnostics import Span

#: ``# guard: _lock`` / ``# guard-writes: _lock`` trailing comments.
_GUARD_RE = re.compile(r"#\s*guard(-writes)?:\s*([A-Za-z_][A-Za-z0-9_]*)")
#: ``# noqa: TAB601`` / ``# noqa: TAB601, TAB603`` / bare ``# noqa``.
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*([A-Z0-9, ]+))?", re.IGNORECASE)

#: Method names that mutate their receiver — ``self.attr.append(x)``
#: is a *write* to the guarded attribute even though the attribute node
#: itself is only loaded.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "update",
})

#: Methods where unguarded access is allowed: the object is not yet
#: (or no longer) shared with other threads.
CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__", "__del__"})


@dataclass(frozen=True)
class GuardAnnotation:
    """One ``# guard[-writes]:`` annotation on an attribute."""

    attr: str
    lock: str
    writes_only: bool
    lineno: int


@dataclass
class ClassModel:
    """Guard-relevant facts about one class."""

    name: str
    node: ast.ClassDef
    guards: Dict[str, GuardAnnotation] = field(default_factory=dict)
    lock_attrs: Set[str] = field(default_factory=set)


class ModuleModel:
    """Parsed file + everything the checkers need to walk it."""

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tree = ast.parse(text, filename=filename)
        self.lines = text.split("\n")
        self._line_offsets = self._build_line_offsets(text)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.noqa: Dict[int, Optional[Set[str]]] = self._collect_noqa()
        self._guard_comments = self._collect_guard_comments()
        self.classes: List[ClassModel] = [
            self._model_class(node)
            for node in ast.walk(self.tree)
            if isinstance(node, ast.ClassDef)
        ]

    # -- positions -----------------------------------------------------
    @staticmethod
    def _build_line_offsets(text: str) -> List[int]:
        offsets = [0]
        for line in text.split("\n")[:-1]:
            offsets.append(offsets[-1] + len(line) + 1)
        return offsets

    def offset(self, lineno: int, col: int) -> int:
        """Character offset of 1-based ``lineno`` / 0-based ``col``."""
        if lineno < 1:
            return 0
        index = min(lineno - 1, len(self._line_offsets) - 1)
        return self._line_offsets[index] + col

    def span(self, node: ast.AST) -> Span:
        """The node's source range as a diagnostics Span."""
        start = self.offset(node.lineno, node.col_offset)
        end_lineno = getattr(node, "end_lineno", None)
        end_col = getattr(node, "end_col_offset", None)
        if end_lineno is None or end_col is None:
            return Span.point(start)
        return Span(start, self.offset(end_lineno, end_col))

    # -- comments ------------------------------------------------------
    def _collect_noqa(self) -> Dict[int, Optional[Set[str]]]:
        noqa: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _NOQA_RE.search(line)
            if not match:
                continue
            codes = match.group(1)
            if codes is None:
                noqa[lineno] = None  # blanket suppression
            else:
                noqa[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
        return noqa

    def suppressed(self, code: str, lineno: int) -> bool:
        """Whether ``# noqa`` on ``lineno`` silences ``code``."""
        if lineno not in self.noqa:
            return False
        codes = self.noqa[lineno]
        return codes is None or code in codes

    def _collect_guard_comments(self) -> Dict[int, Tuple[str, bool]]:
        """line -> (lock attr, writes_only) for every guard comment."""
        guards: Dict[int, Tuple[str, bool]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _GUARD_RE.search(line)
            if match:
                guards[lineno] = (match.group(2), match.group(1) is not None)
        return guards

    # -- classes -------------------------------------------------------
    def _model_class(self, node: ast.ClassDef) -> ClassModel:
        model = ClassModel(name=node.name, node=node)
        for stmt in ast.walk(node):
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                if _looks_like_lock(attr, stmt):
                    model.lock_attrs.add(attr)
                annotation = self._guard_for_statement(stmt, attr)
                if annotation is not None:
                    model.guards[attr] = annotation
        return model

    def _guard_for_statement(self, stmt: ast.stmt, attr: str) -> Optional[GuardAnnotation]:
        end = getattr(stmt, "end_lineno", stmt.lineno)
        for lineno in range(stmt.lineno, end + 1):
            if lineno in self._guard_comments:
                lock, writes_only = self._guard_comments[lineno]
                return GuardAnnotation(attr, lock, writes_only, lineno)
        return None

    def class_of(self, node: ast.AST) -> Optional[ClassModel]:
        """The innermost class lexically containing ``node``."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                for model in self.classes:
                    if model.node is current:
                        return model
            current = self.parents.get(current)
        return None

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)


def _self_attr(target: ast.expr) -> Optional[str]:
    """``X`` for a ``self.X`` target, else ``None``."""
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _looks_like_lock(attr: str, stmt: ast.stmt) -> bool:
    """Whether ``self.attr = <value>`` plausibly binds a lock."""
    value = getattr(stmt, "value", None)
    if isinstance(value, ast.Call):
        callee = dotted_name(value.func)
        if callee and callee.split(".")[-1] in {"Lock", "RLock", "create_lock"}:
            return True
    return "lock" in attr.lower()


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def with_item_lock(item: ast.withitem) -> Optional[str]:
    """The lock attribute name a ``with`` item acquires, if any.

    Recognizes ``with self._lock:`` (a self attribute that is lock-ish
    by name) and module-level ``with _some_lock:``.
    """
    expr = item.context_expr
    attr = _self_attr_load(expr)
    if attr is not None and "lock" in attr.lower():
        return attr
    if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
        return expr.id
    return None


def _self_attr_load(expr: ast.expr) -> Optional[str]:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def guarded_by_decorator(node: ast.AST) -> Optional[str]:
    """The lock attr of an ``@guarded_by("...")`` decorator, if present."""
    decorators = getattr(node, "decorator_list", [])
    for decorator in decorators:
        if not isinstance(decorator, ast.Call):
            continue
        name = dotted_name(decorator.func)
        if name and name.split(".")[-1] == "guarded_by" and decorator.args:
            arg = decorator.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
    return None


def held_locks_at(model: ModuleModel, node: ast.AST) -> Set[str]:
    """Lock attrs lexically held at ``node``.

    Union of every enclosing ``with self.<lock>:`` block and every
    enclosing ``@guarded_by`` function. Walks through nested function
    boundaries: a closure *defined* under a lock usually runs under it
    too, and when it does not the runtime sanitizer is the layer that
    catches the escape.
    """
    held: Set[str] = set()
    previous: ast.AST = node
    for ancestor in model.ancestors(node):
        if isinstance(ancestor, ast.With):
            # Only count the lock if we are inside the body, not inside
            # the context expression itself (``with self._lock:`` must
            # not mark the lock-attribute load as already-locked). The
            # parents chain goes node -> withitem -> With, so `previous`
            # is the withitem when we came from the item expression.
            in_items = any(
                item is previous
                or item.context_expr is previous
                or item.optional_vars is previous
                for item in ancestor.items
            )
            if not in_items:
                for item in ancestor.items:
                    lock = with_item_lock(item)
                    if lock is not None:
                        held.add(lock)
        elif isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lock = guarded_by_decorator(ancestor)
            if lock is not None:
                held.add(lock)
        previous = ancestor
    return held


def enclosing_function(
    model: ModuleModel, node: ast.AST
) -> Optional[ast.AST]:
    """The innermost FunctionDef/AsyncFunctionDef containing ``node``."""
    for ancestor in model.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None
