"""Per-layer metrics from recorded spans (``--trace 1``).

A layer's *self time* is its span minus the children it waits on. Every
per-layer metric is reported on every workload; a layer the workload
does not reach reads 0, which is the prediction the README's table
makes for it ("predicted unchanged on").
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from measure import median, percentile

#: Per-layer metric names and units, in report order.
PER_LAYER: Dict[str, str] = {
    "serving.http.handler_ms.p50": "ms",
    "serving.http.handler_ms.p99": "ms",
    "serving.http.transport_ms.p50": "ms",
    "serving.http.transport_ms.p99": "ms",
    "serving.http.encode_ms.p50": "ms",
    "serving.gateway.self_ms.p50": "ms",
    "serving.gateway.self_ms.p99": "ms",
    "serving.gateway.shed": "count",
    "core.tabula.query_ms.p50": "ms",
    "core.cube_store.resolve_many_ms.p50": "ms",
    "core.spatial.filter_ms.p50": "ms",
    "ingest.submit_ms.p50": "ms",
    "ingest.submit_ms.p90": "ms",
    "ingest.batches_per_fsync": "ratio",
    "maintenance.append_rows_ms.p50": "ms",
    "maintenance.append_rows_ms.p90": "ms",
    "ingest.backpressured": "count",
    "core.dryrun.dry_run_s": "s",
    "core.realrun.real_run_s": "s",
    "engine.groupby.group_rows_s": "s",
    "engine.groupby.group_rows_calls": "count",
    "core.sampling.sample_s": "s",
    "core.sampling.evaluations_per_tuple": "ratio",
    "core.samgraph.build_samgraph_s": "s",
    "core.samgraph.exact_checks": "count",
    "core.samgraph.edges_per_exact_check": "ratio",
    "core.selection.select_representatives_s": "s",
    "core.cube_store.build_spatial_indexes_s": "s",
    "core.parallel.parallel_dry_run_s": "s",
    "core.parallel.parallel_real_run_s": "s",
    "core.parallel.pool_stages": "count",
    "client.cpu_frac": "ratio",
    "trace.overhead.op_p50_ms": "ms",
    "trace.overhead.op_tail_ms": "ms",
    "trace.overhead.ops_per_s": "1/s",
    "trace.overhead.setup_s": "s",
    "trace.overhead.peak_rss_mb": "MiB",
}

#: Build-stage spans summed inside one ``Tabula.initialize`` span.
_BUILD_STAGES = {
    "core.dryrun.dry_run": "core.dryrun.dry_run_s",
    "core.realrun.real_run": "core.realrun.real_run_s",
    "engine.groupby.group_rows": "engine.groupby.group_rows_s",
    "core.sampling.sample": "core.sampling.sample_s",
    "core.samgraph.build_samgraph": "core.samgraph.build_samgraph_s",
    "core.selection.select_representatives": "core.selection.select_representatives_s",
    "core.cube_store.build_spatial_indexes": "core.cube_store.build_spatial_indexes_s",
    "core.parallel.parallel_dry_run": "core.parallel.parallel_dry_run_s",
    "core.parallel.parallel_real_run": "core.parallel.parallel_real_run_s",
}


def zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def _ms(values: Iterable[float]) -> List[float]:
    return [v * 1000.0 for v in values]


def build_layers(spans: Sequence[Sequence[Any]]) -> Dict[str, float]:
    """Build-stage metrics, the median over the recorded initializations.

    Serial-stage metrics come from serial builds, the ``core.parallel``
    ones from builds that went through the parallel engine.
    """
    by_id = {s[0]: s for s in spans}

    def root(span) -> Optional[int]:
        parent = span[1]
        while parent is not None:
            node = by_id.get(parent)
            if node is None:
                return None
            if node[2] == "core.tabula.initialize":
                return node[0]
            parent = node[1]
        return None

    per_build: Dict[int, Dict[str, float]] = {
        s[0]: {} for s in spans if s[2] == "core.tabula.initialize"
    }
    for span in spans:
        metric = _BUILD_STAGES.get(span[2])
        owner = root(span) if metric else None
        if owner is None:
            continue
        totals = per_build[owner]
        totals[metric] = totals.get(metric, 0.0) + (span[4] - span[3])
        if span[2] == "engine.groupby.group_rows":
            totals["engine.groupby.group_rows_calls"] = totals.get("engine.groupby.group_rows_calls", 0) + 1
        elif span[2] == "core.sampling.sample":
            totals["_evaluations"] = totals.get("_evaluations", 0) + span[6]["evaluations"]
            totals["_tuples"] = totals.get("_tuples", 0) + span[6]["size"]
        elif span[2] == "core.samgraph.build_samgraph":
            totals["core.samgraph.exact_checks"] = span[6]["exact_checks"]
            totals["_edges"] = span[6]["edges"]
    out: Dict[str, float] = {}
    serial = [t for t in per_build.values() if "core.parallel.parallel_real_run_s" not in t]
    parallel = [t for t in per_build.values() if "core.parallel.parallel_real_run_s" in t]
    for totals in serial:
        if totals.get("_tuples"):
            totals["core.sampling.evaluations_per_tuple"] = totals["_evaluations"] / totals["_tuples"]
        if totals.get("core.samgraph.exact_checks"):
            totals["core.samgraph.edges_per_exact_check"] = (
                totals["_edges"] / totals["core.samgraph.exact_checks"]
            )
    serial_names = [
        m for m in PER_LAYER if m.startswith(("core.dryrun", "core.realrun", "engine.", "core.sampling",
                                             "core.samgraph", "core.selection", "core.cube_store.build"))
    ]
    for name in serial_names:
        if serial:
            out[name] = median([t.get(name, 0.0) for t in serial])
    for name in ("core.parallel.parallel_dry_run_s", "core.parallel.parallel_real_run_s"):
        if parallel:
            out[name] = median([t.get(name, 0.0) for t in parallel])
    return out


def serving_layers(
    spans: Sequence[Sequence[Any]], client_latency: Mapping[str, float]
) -> Dict[str, float]:
    """Query- and ingest-path metrics of one server process.

    ``client_latency`` maps request id to the client-observed seconds;
    transport is that minus the handler span of the same request.
    """
    handler: Dict[str, float] = {}
    encode: Dict[str, float] = {}
    gateway: Dict[int, Any] = {}
    child_time: Dict[int, float] = {}
    resolve: List[float] = []
    spatial: List[float] = []
    submit: List[float] = []
    append: List[float] = []
    for sid, parent, name, start, end, rid, extra in spans:
        took = end - start
        if name == "serving.http.handler" and extra.get("route") == "/query" and rid:
            handler[rid] = took
        elif name == "serving.http.encode" and rid:
            encode[rid] = encode.get(rid, 0.0) + took
        elif name == "serving.gateway" and rid:
            gateway[sid] = took
        elif name == "core.tabula.query" and rid and parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + took
        elif name == "core.cube_store.resolve_many" and rid:
            resolve.append(took)
        elif name == "core.spatial.filter" and rid:
            spatial.append(took)
        elif name == "ingest.submit":
            submit.append(took)
        elif name == "maintenance.append_rows":
            append.append(took)
    # Only top-level Tabula spans are the gateway's children.
    tabula_top = [child_time[sid] for sid in gateway if sid in child_time]
    gateway_self = _ms(gateway[sid] - child_time.get(sid, 0.0) for sid in gateway)
    transport = _ms(client_latency[rid] - took for rid, took in handler.items() if rid in client_latency)
    out: Dict[str, float] = {}
    if handler:
        out["serving.http.handler_ms.p50"] = percentile(_ms(handler.values()), 0.5)
        out["serving.http.handler_ms.p99"] = percentile(_ms(handler.values()), 0.99)
    if transport:
        out["serving.http.transport_ms.p50"] = percentile(transport, 0.5)
        out["serving.http.transport_ms.p99"] = percentile(transport, 0.99)
    if encode:
        out["serving.http.encode_ms.p50"] = percentile(_ms(encode.values()), 0.5)
    if gateway_self:
        out["serving.gateway.self_ms.p50"] = percentile(gateway_self, 0.5)
        out["serving.gateway.self_ms.p99"] = percentile(gateway_self, 0.99)
    if tabula_top:
        out["core.tabula.query_ms.p50"] = percentile(_ms(tabula_top), 0.5)
    if resolve:
        out["core.cube_store.resolve_many_ms.p50"] = percentile(_ms(resolve), 0.5)
    if spatial:
        out["core.spatial.filter_ms.p50"] = percentile(_ms(spatial), 0.5)
    if submit:
        out["ingest.submit_ms.p50"] = percentile(_ms(submit), 0.5)
        out["ingest.submit_ms.p90"] = percentile(_ms(submit), 0.9)
    if append:
        out["maintenance.append_rows_ms.p50"] = percentile(_ms(append), 0.5)
        out["maintenance.append_rows_ms.p90"] = percentile(_ms(append), 0.9)
    return out
