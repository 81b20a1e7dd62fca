"""The shared Prometheus exporter: text-format correctness for every
family the engine exports (label escaping, HELP/TYPE lines, histogram
bucket monotonicity, deterministic ordering)."""

from __future__ import annotations

import re

import pytest

from repro.obs.prom import (
    MetricFamily,
    escape_help,
    escape_label_value,
    export_prometheus,
    format_labels,
    format_value,
    histogram_family,
    render,
)

# -- escaping ----------------------------------------------------------------


@pytest.mark.parametrize(
    ("raw", "escaped"),
    [
        ("plain", "plain"),
        ('say "hi"', 'say \\"hi\\"'),
        ("back\\slash", "back\\\\slash"),
        ("two\nlines", "two\\nlines"),
        ('all \\ " \n three', 'all \\\\ \\" \\n three'),
    ],
)
def test_label_value_escaping(raw, escaped):
    assert escape_label_value(raw) == escaped


def test_help_escaping_leaves_quotes_alone():
    # per the exposition format spec, HELP escapes only backslash+newline
    assert escape_help('a "quoted" \\ line\n') == 'a "quoted" \\\\ line\\n'


def test_format_labels_sorted_and_escaped():
    rendered = format_labels({"zeta": 'v"1"', "alpha": "x"})
    assert rendered == '{alpha="x",zeta="v\\"1\\""}'
    assert format_labels(None) == ""
    assert format_labels({}) == ""


def test_format_value_types():
    assert format_value(3) == "3"
    assert format_value(True) == "1"
    assert format_value(0.5) == "0.5"
    assert format_value(float("inf")) == "+Inf"
    assert format_value(float("-inf")) == "-Inf"


# -- families ----------------------------------------------------------------


def test_family_renders_help_type_then_samples():
    family = MetricFamily("demo_total", "counter", "A demo")
    family.add(1).add(2, shard="a")
    lines = family.render_lines()
    assert lines[0] == "# HELP demo_total A demo"
    assert lines[1] == "# TYPE demo_total counter"
    assert lines[2] == "demo_total 1"
    assert lines[3] == 'demo_total{shard="a"} 2'


def test_family_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown metric kind"):
        MetricFamily("x", "celsius", "nope")


def test_render_is_deterministic_and_newline_terminated():
    def build():
        one = MetricFamily("a_total", "counter", "a").add(1, z="1", a="2")
        two = MetricFamily("b", "gauge", "b").add(2)
        return render([one, two])

    first, second = build(), build()
    assert first == second
    assert first.endswith("\n")
    assert not first.endswith("\n\n")


def test_histogram_family_buckets_are_cumulative_and_monotonic():
    family = histogram_family(
        "lat_seconds",
        "latency",
        bounds=[0.1, 0.5, 1.0],
        bucket_counts=[3, 2, 0, 1],  # non-cumulative, overflow last
        total_sum=2.5,
        count=6,
    )
    text = render([family])
    bucket_values = [
        int(m.group(1))
        for m in re.finditer(r'lat_seconds_bucket\{le="[^"]+"\} (\d+)', text)
    ]
    assert bucket_values == [3, 5, 5, 6]
    assert bucket_values == sorted(bucket_values)  # monotone non-decreasing
    assert text.index('le="0.1"') < text.index('le="+Inf"')
    assert "lat_seconds_sum 2.5" in text
    assert "lat_seconds_count 6" in text


def test_histogram_family_checks_bucket_arity():
    with pytest.raises(ValueError, match="bucket counts"):
        histogram_family("h", "x", [1.0], [1], 0.0, 1)


def test_histogram_family_labels_merge_with_le():
    family = histogram_family(
        "h", "x", [1.0], [1, 0], 1.0, 1, labels={"shard": "a"}
    )
    text = render([family])
    assert 'h_bucket{le="1.0",shard="a"} 1' in text
    assert 'h_sum{shard="a"} 1.0' in text


# -- the consolidated scrape body --------------------------------------------


def _parse_families(text: str) -> dict[str, str]:
    """name -> kind for every # TYPE line."""
    return dict(re.findall(r"# TYPE (\S+) (\S+)", text))


def test_export_prometheus_consolidates_every_subsystem(orders_db):
    orders_db.sql("SELECT count(*) FROM orders")
    body = export_prometheus(orders_db)
    families = _parse_families(body)
    # one exporter, all prefixes (serving only while a server runs)
    assert "repro_query_calls_total" in families
    assert "repro_cache_hits_total" in families
    assert "repro_live_queries" in families
    assert families["repro_live_query_seconds"] == "histogram"
    assert not any(name.startswith("repro_serving_") for name in families)
    # every family has exactly one HELP and one TYPE, HELP first
    for name in families:
        assert body.count(f"# TYPE {name} ") == 1
        assert body.count(f"# HELP {name} ") == 1
        assert body.index(f"# HELP {name} ") < body.index(f"# TYPE {name} ")
    # two scrapes of an idle instance are byte-identical
    assert export_prometheus(orders_db) == export_prometheus(orders_db)


def test_export_prometheus_includes_serving_when_server_open(orders_db):
    session = orders_db.session(name="scrape")
    try:
        session.sql("SELECT count(*) FROM orders")
        body = export_prometheus(orders_db)
        assert "# TYPE repro_serving_admitted_total counter" in body
        assert 'repro_serving_session_inflight{session="scrape"} 0' in body
    finally:
        orders_db.serve().close()


def test_subsystem_to_prometheus_uses_shared_renderer(orders_db):
    # each source's rows render byte for byte as in the consolidated body
    body = export_prometheus(orders_db)
    assert export_prometheus(orders_db, "query") in body
    assert export_prometheus(orders_db, "cache") in body
    assert export_prometheus(orders_db, "live") in body
