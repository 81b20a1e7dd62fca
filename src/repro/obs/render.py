"""EXPLAIN ANALYZE rendering: the plan tree annotated with actuals.

The collector's registered node list is already a pre-order walk of the
plan, so rendering needs no access to the physical operator objects —
each line mirrors :meth:`repro.physical.plan.Plan.explain` and appends
the measured counters in parentheses:

.. code-block:: text

    GatherMotion [gathered] rows≈470 (actual rows=497; moved 497 rows, 13.1 KB)
      HashAgg (...) rows≈470 (actual rows=497)
        DynamicScan (1, orders AS orders) rows≈500 (actual rows=497; partitions: 3/24)
        ...
    PartitionSelector 1: static, selected 3/24 partitions
    Slice 0 (root): 1.84 ms
"""

from __future__ import annotations

from .metrics import MetricsCollector, NodeMetrics


def render_explain_analyze(metrics: MetricsCollector) -> str:
    """The annotated plan plus selector and slice summaries."""
    lines = [_render_node(node, metrics) for node in metrics.nodes]
    for scan_id in sorted(metrics.selectors):
        summary = metrics.selector_summary(scan_id)
        assert summary is not None
        mode = summary["mode"] or "unknown"
        total = summary["partitions_total"]
        lines.append(
            f"PartitionSelector {scan_id}: {mode}, selected "
            f"{summary['partitions_selected']}/{total if total is not None else '?'}"
            " partitions"
        )
    for entry in metrics.slices:
        lines.append(
            f"Slice {entry['id']} ({entry['label']}): "
            f"{entry['seconds'] * 1000:.2f} ms, segments_dispatched = "
            f"{entry['segments_dispatched']}/{metrics.num_segments}"
        )
    if metrics.cache_summary is not None:
        cache = metrics.cache_summary
        line = f"Cache: mode={cache['mode']}"
        if cache["result"] is not None:
            line += f", result {cache['result']}"
        if cache["stored"]:
            line += ", stored"
        lines.append(line)
    if metrics.retry_count or metrics.failover_count:
        mirrored = sorted(
            {entry["segment"] for entry in metrics.failovers}
        )
        line = (
            f"Resilience: {metrics.retry_count} slice "
            f"retr{'y' if metrics.retry_count == 1 else 'ies'}, "
            f"{metrics.failover_count} failover"
            f"{'' if metrics.failover_count == 1 else 's'}"
        )
        if mirrored:
            line += (
                " (mirror serving segment"
                f"{'' if len(mirrored) == 1 else 's'} "
                + ", ".join(str(s) for s in mirrored)
                + ")"
            )
        lines.append(line)
    if metrics.elapsed_seconds:
        lines.append(f"Total: {metrics.elapsed_seconds * 1000:.2f} ms")
    return "\n".join(lines)


def _render_node(node: NodeMetrics, metrics: MetricsCollector) -> str:
    line = "  " * node.depth + node.op
    if node.detail:
        line += f" ({node.detail})"
    if node.distribution is not None:
        line += f" [{node.distribution}]"
    if node.estimated_rows is not None:
        line += f" rows≈{node.estimated_rows:.0f}"
    annotations = [f"actual rows={node.actual_rows}"]
    if node.total_loops != 1:
        annotations.append(f"loops={node.total_loops}")
    if metrics.timing:
        annotations.append(f"time={node.total_time_s * 1000:.2f} ms")
    if node.is_scan and node.partitions_total is not None:
        tag = f"partitions: {node.partitions_scanned}/{node.partitions_total}"
        if node.part_scan_id is not None:
            summary = metrics.selector_summary(node.part_scan_id)
            if summary is not None and summary["mode"] is not None:
                tag += f", {summary['mode']}"
        annotations.append(tag)
    if node.is_scan and node.total_rows_scanned:
        annotations.append(f"rows scanned={node.total_rows_scanned}")
    if node.is_motion:
        annotations.append(
            f"moved {node.rows_moved} rows, {_human_bytes(node.bytes_moved)}"
        )
    return line + " (" + "; ".join(annotations) + ")"


def render_explain_trace(plan_text: str, tracer) -> str:
    """``EXPLAIN (TRACE)``: the physical plan followed by the lifecycle
    span tree and the optimizer search summary.

    ``plan_text`` is :meth:`repro.physical.plan.Plan.explain` output;
    ``tracer`` is the :class:`~repro.obs.trace.Tracer` that was active
    while the plan was produced.
    """
    sections = [plan_text, "", "Optimization trace:"]
    span_tree = tracer.render()
    if span_tree:
        sections.extend("  " + line for line in span_tree.splitlines())
    else:
        sections.append("  (no spans recorded)")
    sections.append(tracer.optimizer.render())
    return "\n".join(sections)


def _human_bytes(count: int) -> str:
    if count >= 1024 * 1024:
        return f"{count / (1024 * 1024):.1f} MB"
    if count >= 1024:
        return f"{count / 1024:.1f} KB"
    return f"{count} B"
