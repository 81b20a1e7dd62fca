"""The cumulative query-stats store: fingerprinting, aggregation, exports."""

from __future__ import annotations

import json
import re

from repro.cache import statement_key
from repro.obs import QueryStatsStore, fingerprint

# one sample line: name{query="..."} value
_SAMPLE_RE = re.compile(r'^[a-z_:][a-z0-9_:]*\{query="(?:[^"\\]|\\.)*"\} -?[0-9.e+-]+$')


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------


def test_fingerprint_replaces_literals():
    assert (
        fingerprint("SELECT * FROM t WHERE a = 42")
        == fingerprint("select *   from T where A=99")
    )
    assert "?" in fingerprint("SELECT * FROM t WHERE a = 42")
    assert "42" not in fingerprint("SELECT * FROM t WHERE a = 42")


def test_fingerprint_replaces_string_and_date_literals():
    a = fingerprint("SELECT 1 FROM orders WHERE date = '05-15-2013'")
    b = fingerprint("SELECT 2 FROM orders WHERE date = '01-01-2012'")
    assert a == b


def test_fingerprint_keeps_parameters_distinct():
    fp = fingerprint("SELECT * FROM t WHERE a = $1 AND b = $2")
    assert "$1" in fp and "$2" in fp


def test_fingerprint_survives_unlexable_input():
    # must never raise — falls back to whitespace-collapsed lowercase
    assert fingerprint("NOT \x00 SQL  AT\tALL") == "not \x00 sql at all"


# ---------------------------------------------------------------------------
# fingerprint vs cache key: aggregation identity is NOT cache identity
# ---------------------------------------------------------------------------
#
# The fingerprint's literal erasure is correct for \stats aggregation and
# would be a seed bug if reused as a cache key: two statements sharing a
# fingerprint can select entirely different partition OID sets.  The cache
# keys on fingerprint + normalized literal/parameter vectors instead
# (src/repro/cache/keys.py); these regressions pin the boundary.


def test_date_in_lists_share_fingerprint_but_not_cache_key():
    # the PR 2 seed-bug shape: same IN-list shape, different date literals,
    # different partition OID sets
    a = "SELECT count(*) FROM orders WHERE date IN ('05-15-2013', '06-15-2013')"
    b = "SELECT count(*) FROM orders WHERE date IN ('01-01-2012', '02-01-2012')"
    assert fingerprint(a) == fingerprint(b)
    assert statement_key(a) != statement_key(b)


def test_param_values_share_fingerprint_but_not_cache_key():
    q = "SELECT count(*) FROM orders WHERE date = $1"
    assert fingerprint(q) == fingerprint(q)
    assert statement_key(q, params=["05-15-2013"]) != statement_key(
        q, params=["01-01-2012"]
    )


def test_cache_key_still_aggregates_under_the_fingerprint(orders_db):
    """Different literal values = one \\stats entry, two cache entries."""
    store = orders_db.stats()
    store.reset()
    orders_db.cache.clear()
    a = "SELECT count(*) FROM orders WHERE date = '05-15-2013'"
    b = "SELECT count(*) FROM orders WHERE date = '07-04-2012'"
    orders_db.sql(a, cache="results")
    orders_db.sql(b, cache="results")
    assert len(store) == 1  # \stats aggregates the shape
    assert len(orders_db.cache.results) == 2  # the cache does not
    # and the two entries were read from different partitions — reusing
    # one for the other would answer from the wrong month
    entries = [entry for _, entry in orders_db.cache.results.items()]
    assert entries[0].footprint != entries[1].footprint


# ---------------------------------------------------------------------------
# aggregation through the engine
# ---------------------------------------------------------------------------


def test_store_aggregates_same_shape_queries(orders_db):
    store = orders_db.stats()
    store.reset()
    orders_db.sql("SELECT count(*) FROM orders WHERE date = '05-15-2013'")
    orders_db.sql("SELECT count(*) FROM orders WHERE date = '07-04-2012'")
    orders_db.sql("SELECT count(*) FROM date_dim")
    assert len(store) == 2
    entry = store.get("SELECT count(*) FROM orders WHERE date = '11-11-2013'")
    assert entry is not None
    assert entry.calls == 2
    assert entry.rows == 2  # one count(*) row per call
    assert entry.total_seconds > 0.0
    assert entry.max_seconds <= entry.total_seconds
    assert entry.mean_seconds == entry.total_seconds / 2
    # one partition per call was opened; all 24 were eligible each time
    assert entry.partitions_scanned == 2
    assert entry.partitions_eligible == 48
    assert entry.retries == 0 and entry.failovers == 0


def test_observers_lex_a_statement_once(orders_db, monkeypatch):
    """The stats store takes the live activity's fingerprint, so with the
    cache off a SELECT is lexed once for observation (the parser imports
    ``tokenize`` itself, so its own lex is not counted here)."""
    from repro.sql import lexer

    lexed: list[str] = []
    real = lexer.tokenize

    def counting(text):
        lexed.append(text)
        return real(text)

    monkeypatch.setattr(lexer, "tokenize", counting)
    sql = "SELECT count(*) FROM orders WHERE date = '03-03-2013'"
    orders_db.sql(sql, cache="off")
    assert lexed == [sql]
    assert orders_db.stats().get(fingerprint(sql)).calls >= 1


def test_store_records_every_statement_kind(orders_db):
    store = orders_db.stats()
    store.reset()
    orders_db.sql("SELECT count(*) FROM date_dim")
    assert len(store) == 1
    snapshot = store.to_dict()
    assert snapshot["queries"][0]["calls"] == 1


def test_store_reset(orders_db):
    store = orders_db.stats()
    orders_db.sql("SELECT count(*) FROM date_dim")
    assert len(store) > 0
    store.reset()
    assert len(store) == 0
    assert store.render() == "query statistics: empty (no statements recorded)"


def test_db_stats_returns_the_store(orders_db):
    assert orders_db.stats() is orders_db.query_stats
    assert isinstance(orders_db.stats(), QueryStatsStore)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_json_export_is_fingerprint_sorted(orders_db):
    store = orders_db.stats()
    store.reset()
    orders_db.sql("SELECT count(*) FROM orders WHERE date = '05-15-2013'")
    orders_db.sql("SELECT count(*) FROM date_dim")
    data = json.loads(store.to_json())
    fingerprints = [entry["fingerprint"] for entry in data["queries"]]
    assert fingerprints == sorted(fingerprints)
    for entry in data["queries"]:
        assert set(entry) == {
            "fingerprint",
            "calls",
            "total_seconds",
            "mean_seconds",
            "max_seconds",
            "rows",
            "rows_scanned",
            "partitions_scanned",
            "partitions_eligible",
            "retries",
            "failovers",
        }


def test_prometheus_export_parses(orders_db):
    store = orders_db.stats()
    store.reset()
    orders_db.sql("SELECT count(*) FROM orders WHERE date = '05-15-2013'")
    orders_db.sql("SELECT count(*) FROM date_dim")
    text = store.to_prometheus()
    assert text.endswith("\n")
    typed: set[str] = set()
    sampled: set[str] = set()
    for line in text.splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            name, kind = line.split()[2:4]
            typed.add(name)
            assert kind in ("counter", "gauge")
            continue
        # every non-comment line is exactly one sample
        assert _SAMPLE_RE.match(line), line
        sampled.add(line.split("{")[0])
    # every sampled metric family was declared, and all nine exist
    assert sampled == typed
    assert len(typed) == 9
    assert "repro_query_calls_total" in typed
    assert "repro_query_partitions_eligible_total" in typed


def test_prometheus_label_escaping():
    store = QueryStatsStore()

    class _Result:
        rows = []
        elapsed_seconds = 0.001

        class metrics:
            total_rows_scanned = 0
            partitions_eligible = 0
            retry_count = 0
            failover_count = 0

            @staticmethod
            def partitions_scanned():
                return 0

    store.record('SELECT "weird\\name" FROM t', _Result())
    text = store.to_prometheus()
    assert '\\\\' in text  # backslash escaped
    assert '\\"' in text  # quote escaped


def test_render_table(orders_db):
    store = orders_db.stats()
    store.reset()
    orders_db.sql("SELECT count(*) FROM orders WHERE date = '05-15-2013'")
    text = store.render()
    assert text.startswith("query statistics (1 fingerprints):")
    assert "calls" in text and "parts k/N" in text
    assert "1/24" in text
