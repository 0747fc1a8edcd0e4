"""Span recorder that wraps the program's public layer functions.

The benchmark traces the program from its own files: :func:`install`
replaces each layer function below with a wrapper that records
``(id, parent, name, start, end, request id, extra)`` and then calls
the original. Callers that bound a function by name
(``from repro.engine.groupby import group_rows``) hold their own
reference, so a function is replaced in *every* loaded ``repro``
module namespace that refers to it, not only where it is defined.

Parents follow the calling thread's stack. The gateway hands a request
to a worker thread, so a ``Tabula.query`` span with no parent on its
own thread adopts the gateway span that submitted the same WHERE
object. The HTTP wrapper reads the client's ``X-Request-Id`` header;
every span under it carries that id, which is how client latencies are
joined with server spans. Spans stay in memory until :meth:`dump`.
Only the process that installs the recorder is traced: pool workers of
a parallel build are out of scope.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name). Span names are the per-layer
#: metric prefixes they feed.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serving.http", "_GatewayHandler.do_GET", "serving.http.handler"),
    ("repro.serving.http", "_GatewayHandler.do_POST", "serving.http.handler"),
    ("repro.serving.http", "response_to_json", "serving.http.encode"),
    ("repro.serving.gateway", "ServingGateway.query", "serving.gateway"),
    ("repro.serving.gateway", "ServingGateway.query_many", "serving.gateway"),
    ("repro.core.tabula", "Tabula.query", "core.tabula.query"),
    ("repro.core.tabula", "Tabula.query_many", "core.tabula.query"),
    ("repro.core.tabula", "Tabula.initialize", "core.tabula.initialize"),
    ("repro.core.cube_store", "SamplingCubeStore.resolve_many", "core.cube_store.resolve_many"),
    (
        "repro.core.cube_store",
        "SamplingCubeStore.build_spatial_indexes",
        "core.cube_store.build_spatial_indexes",
    ),
    # resolve_many filters local samples through filter_table directly,
    # so the spatial layer is wrapped at the function every path uses.
    ("repro.core.spatial", "filter_table", "core.spatial.filter"),
    ("repro.ingest.stream", "StreamIngestor.submit", "ingest.submit"),
    ("repro.core.maintenance", "append_rows", "maintenance.append_rows"),
    ("repro.core.dryrun", "dry_run", "core.dryrun.dry_run"),
    ("repro.core.realrun", "real_run", "core.realrun.real_run"),
    ("repro.engine.groupby", "group_rows", "engine.groupby.group_rows"),
    ("repro.core.sampling", "sample_with_pool", "core.sampling.sample"),
    ("repro.core.samgraph", "build_samgraph", "core.samgraph.build_samgraph"),
    ("repro.core.selection", "select_representatives", "core.selection.select_representatives"),
    ("repro.core.parallel", "parallel_dry_run", "core.parallel.parallel_dry_run"),
    ("repro.core.parallel", "parallel_real_run", "core.parallel.parallel_real_run"),
)

Span = Tuple[int, Optional[int], str, float, float, str, Dict[str, Any]]


def _extra(name: str, result: Any) -> Dict[str, Any]:
    """Counts read from a layer's own return value."""
    if name == "core.sampling.sample":
        return {"evaluations": int(result.evaluations), "size": int(result.size)}
    if name == "core.samgraph.build_samgraph":
        return {"exact_checks": int(result.exact_checks), "edges": int(result.num_edges)}
    return {}


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # id(first WHERE object) -> (gateway span id, request id), for
        # adopting the parent across the gateway's worker hand-off.
        self._inflight: Dict[int, Tuple[int, str]] = {}

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent, rid = stack[-1] if stack else (None, "")
            extra: Dict[str, Any] = {}
            handoff = None
            if name == "serving.http.handler":
                handler = args[0]
                rid = handler.headers.get("X-Request-Id", "") or ""
                extra["route"] = handler.path.split("?", 1)[0]
            elif name in ("serving.gateway", "core.tabula.query") and len(args) > 1:
                handoff = _handoff_key(args[1])
                if name == "core.tabula.query" and parent is None and handoff is not None:
                    parent, rid = recorder._inflight.get(handoff, (None, ""))
            sid = next(recorder._ids)
            if name == "serving.gateway" and handoff is not None:
                recorder._inflight[handoff] = (sid, rid)
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == "serving.gateway" and handoff is not None:
                    recorder._inflight.pop(handoff, None)
            extra.update(_extra(name, result))
            recorder.spans.append((sid, parent, name, start, end, rid, extra))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _handoff_key(where: Any) -> Optional[int]:
    """The object the gateway passes unchanged to its worker thread."""
    if isinstance(where, dict):
        return id(where)
    if isinstance(where, list) and where and isinstance(where[0], dict):
        return id(where[0])
    return None


#: Modules that bind a target by name; they must be loaded before
#: :func:`install` looks for the bindings.
_BINDERS = (
    "repro.cli",
    "repro.ingest.stream",
    "repro.ingest.drift",
    "repro.core.parallel",
    "repro.core.persistence",
    "repro.serving.http",
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every target in every ``repro`` namespace that binds it."""
    for name in _BINDERS:
        importlib.import_module(name)
    for module_name, attr_path, span_name in TARGETS:
        module = importlib.import_module(module_name)
        owner: Any = module
        parts = attr_path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = owner.__dict__[parts[-1]]
        wrapped = recorder.wrap(span_name, original)
        if owner is not module:
            setattr(owner, parts[-1], wrapped)
            continue
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.startswith("repro") and loaded is not None:
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
