"""Lock-discipline checks: TAB601, TAB602, TAB603.

TAB601 is intraprocedural per class: every ``self.<attr>`` access to a
``# guard:``-annotated attribute must be lexically inside ``with
self.<lock>:`` or a ``@guarded_by`` method; ``# guard-writes:`` relaxes
that to mutations only (lock-free readers are a documented protocol in
this codebase — the cube store's introspection reads, the gateway's
snapshot pin).

TAB602 is global: every ``with B:`` nested inside ``with A:`` anywhere
in the checked files contributes an ``A -> B`` edge; a cycle in the
resulting graph is a latent deadlock. Lock identity is qualified by
class (``Gateway._stats_lock``) so unrelated same-named locks in
different classes do not alias.

TAB603 flags calls that block while a lock is held: a hard list
(``time.sleep``, ``os.fsync``, subprocess, queue put/get, ``.result``
on futures) warns; callee names that merely *look* like I/O
(``load_…``, ``verify_…``) get a NOTE so deliberate cases survive
``--strict``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.concurrency import codes
from repro.analysis.concurrency.model import (
    CONSTRUCTION_METHODS,
    MUTATOR_METHODS,
    ClassModel,
    ModuleModel,
    dotted_name,
    enclosing_function,
    guarded_by_decorator,
    held_locks_at,
    with_item_lock,
)
from repro.diagnostics import Diagnostic, Severity

#: Dotted callee names that always block.
_HARD_BLOCKING = {
    "time.sleep",
    "os.fsync",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "socket.create_connection",
}
#: Bare names covering ``from time import sleep`` style imports.
_HARD_BLOCKING_BARE = {"sleep", "fsync"}
#: Attribute calls that block when the receiver is a queue or future.
_QUEUE_METHODS = {"get", "put"}
_FUTURE_METHODS = {"result"}
#: Callee-name prefixes that *suggest* I/O — NOTE severity only.
_IOISH_PREFIXES = ("load_", "save_", "read_", "write_", "fetch_", "verify_")


def _diag(
    model: ModuleModel, code: str, node: ast.AST, message: str
) -> Optional[Diagnostic]:
    if model.suppressed(code, node.lineno):
        return None
    entry = codes.info(code)
    return Diagnostic(
        code=code,
        severity=entry.severity,
        message=message,
        span=model.span(node),
        hint=entry.hint,
        source=model.text,
        filename=model.filename,
    )


# ---------------------------------------------------------------------------
# TAB601 — guarded attribute accessed outside its lock
# ---------------------------------------------------------------------------


def _is_write(model: ModuleModel, node: ast.Attribute) -> bool:
    if isinstance(node.ctx, (ast.Store, ast.Del)):
        return True
    parent = model.parents.get(node)
    if (
        isinstance(parent, ast.Subscript)
        and parent.value is node
        and isinstance(parent.ctx, (ast.Store, ast.Del))
    ):
        return True  # self.attr[key] = value / del self.attr[key]
    if (
        isinstance(parent, ast.Attribute)
        and parent.value is node
        and parent.attr in MUTATOR_METHODS
    ):
        grandparent = model.parents.get(parent)
        if isinstance(grandparent, ast.Call) and grandparent.func is parent:
            return True  # self.attr.append(...)
    return False


def check_guarded_access(model: ModuleModel) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for node in ast.walk(model.tree):
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            continue
        cls = model.class_of(node)
        if cls is None or node.attr not in cls.guards:
            continue
        function = enclosing_function(model, node)
        if function is None or function.name in CONSTRUCTION_METHODS:
            continue
        annotation = cls.guards[node.attr]
        write = _is_write(model, node)
        if annotation.writes_only and not write:
            continue
        if annotation.lock in held_locks_at(model, node):
            continue
        verb = "mutated" if write else "read"
        convention = "guard-writes" if annotation.writes_only else "guard"
        diag = _diag(
            model, "TAB601", node,
            f"`self.{node.attr}` is {verb} in `{cls.name}.{function.name}` "
            f"without holding `{annotation.lock}` (annotated "
            f"`# {convention}: {annotation.lock}` at line {annotation.lineno})",
        )
        if diag is not None:
            findings.append(diag)
    return findings


# ---------------------------------------------------------------------------
# TAB602 — global lock-acquisition-order cycles
# ---------------------------------------------------------------------------


def _qualify(model: ModuleModel, node: ast.AST, lock: str) -> str:
    cls = model.class_of(node)
    if cls is not None:
        return f"{cls.name}.{lock}"
    stem = model.filename.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return f"{stem}:{lock}"


class OrderGraph:
    """The cross-file lock-acquisition-order graph."""

    def __init__(self) -> None:
        #: (held, acquired) -> (model, with-node) of the first sighting
        self.edges: Dict[Tuple[str, str], Tuple[ModuleModel, ast.AST]] = {}

    def collect(self, model: ModuleModel) -> None:
        for node in ast.walk(model.tree):
            if not isinstance(node, ast.With):
                continue
            acquired = [
                (item, with_item_lock(item))
                for item in node.items
                if with_item_lock(item) is not None
            ]
            if not acquired:
                continue
            held = held_locks_at(model, node)
            func = enclosing_function(model, node)
            if func is not None:
                deco = guarded_by_decorator(func)
                if deco is not None:
                    held.add(deco)
            for item, lock in acquired:
                assert lock is not None
                for outer in held:
                    if outer == lock:
                        continue  # reentrant re-acquire, not an ordering edge
                    edge = (
                        _qualify(model, node, outer),
                        _qualify(model, node, lock),
                    )
                    self.edges.setdefault(edge, (model, item.context_expr))

    def cycles(self) -> List[List[str]]:
        graph: Dict[str, Set[str]] = {}
        for held, acquired in self.edges:
            graph.setdefault(held, set()).add(acquired)
        seen_cycles: Set[frozenset] = set()
        cycles: List[List[str]] = []

        def dfs(start: str, current: str, path: List[str]) -> None:
            for neighbor in sorted(graph.get(current, ())):
                if neighbor == start and len(path) > 1:
                    key = frozenset(path)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        cycles.append(list(path))
                elif neighbor not in path:
                    dfs(start, neighbor, path + [neighbor])

        for node in sorted(graph):
            dfs(node, node, [node])
        return cycles

    def diagnostics(self) -> List[Diagnostic]:
        findings: List[Diagnostic] = []
        for cycle in self.cycles():
            chain = " -> ".join(cycle + [cycle[0]])
            # Anchor the report at the first recorded edge of the cycle.
            for i in range(len(cycle)):
                edge = (cycle[i], cycle[(i + 1) % len(cycle)])
                if edge in self.edges:
                    model, node = self.edges[edge]
                    diag = _diag(
                        model, "TAB602", node,
                        f"lock-order cycle: {chain} (these locks are "
                        "acquired in both orders somewhere in the codebase)",
                    )
                    if diag is not None:
                        findings.append(diag)
                    break
        return findings


# ---------------------------------------------------------------------------
# TAB603 — blocking call while holding a lock
# ---------------------------------------------------------------------------


def _blocking_class(model: ModuleModel, call: ast.Call) -> Optional[Tuple[str, str]]:
    """``(kind, label)`` if the call is blocking; kind is warn|note."""
    name = dotted_name(call.func)
    if name is not None:
        if name in _HARD_BLOCKING:
            return ("warn", name)
        if name in _HARD_BLOCKING_BARE:
            return ("warn", name)
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        receiver = dotted_name(call.func.value) or ""
        if attr in _QUEUE_METHODS and "queue" in receiver.lower():
            return ("warn", f"{receiver}.{attr}")
        if attr in _FUTURE_METHODS and "future" in receiver.lower():
            return ("warn", f"{receiver}.{attr}")
        if attr.startswith(_IOISH_PREFIXES):
            return ("note", f"{receiver + '.' if receiver else ''}{attr}")
    elif isinstance(call.func, ast.Name) and call.func.id.startswith(_IOISH_PREFIXES):
        return ("note", call.func.id)
    return None


def check_blocking_under_lock(model: ModuleModel) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for node in ast.walk(model.tree):
        if not isinstance(node, ast.Call):
            continue
        classified = _blocking_class(model, node)
        if classified is None:
            continue
        held = held_locks_at(model, node)
        if not held:
            continue
        kind, label = classified
        message = (
            f"`{label}` is called while holding "
            f"{', '.join(f'`{h}`' for h in sorted(held))}"
        )
        if kind == "note":
            message += " (name suggests I/O; downgrade is deliberate)"
        diag = _diag(model, "TAB603", node, message)
        if diag is not None:
            if kind == "note":
                diag = Diagnostic(
                    code=diag.code,
                    severity=Severity.NOTE,
                    message=diag.message,
                    span=diag.span,
                    hint=diag.hint,
                    source=diag.source,
                    filename=diag.filename,
                )
            findings.append(diag)
    return findings
