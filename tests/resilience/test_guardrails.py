"""Query guardrails: timeout, buffered-row budget, cooperative cancel.

Each violation must surface as its own typed error (all subclasses of
ExecutionError under ReproError), so callers can tell a cancelled query
from a timed-out or over-budget one.
"""

import pytest

from repro.errors import (
    ExecutionError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
    ResourceLimitExceeded,
)
from repro.resilience import CancelToken, QueryLimits, RetryPolicy

JOIN_SQL = (
    "SELECT o.order_id, d.year FROM orders_fk o, date_dim d "
    "WHERE o.date_id = d.date_id AND d.year = 2012"
)


# -- unit level -------------------------------------------------------------


def test_limits_inactive_by_default():
    limits = QueryLimits()
    assert not limits.active
    limits.start()
    limits.check()
    for _ in range(10):
        limits.tick_rows(1)
    limits.charge_rows(10**9)  # no budget, no error


def test_timeout_raises_query_timeout():
    limits = QueryLimits(timeout_seconds=0.0)
    limits.start()
    with pytest.raises(QueryTimeout):
        limits.check()


def test_max_rows_raises_resource_limit():
    limits = QueryLimits(max_rows=10)
    limits.charge_rows(10)
    with pytest.raises(ResourceLimitExceeded):
        limits.charge_rows(1)
    assert limits.buffered_rows == 11


def test_cancel_token_raises_query_cancelled():
    token = CancelToken()
    limits = QueryLimits(cancel=token)
    limits.tick_rows(1)
    token.cancel()
    with pytest.raises(QueryCancelled):
        limits.tick_rows(1)


def test_cancel_after_checks_auto_fires():
    limits = QueryLimits(cancel=CancelToken(cancel_after_checks=3))
    limits.tick_rows(1)
    limits.tick_rows(1)
    with pytest.raises(QueryCancelled):
        limits.tick_rows(1)


def test_invalid_limits_rejected():
    with pytest.raises(ValueError):
        QueryLimits(timeout_seconds=-1)
    with pytest.raises(ValueError):
        QueryLimits(max_rows=-1)


def test_guardrail_errors_are_typed():
    for cls in (QueryCancelled, QueryTimeout, ResourceLimitExceeded):
        assert issubclass(cls, ExecutionError)
        assert issubclass(cls, ReproError)
        assert cls("x").stage == "execution"


def test_retry_policy_backoff_is_exponential_and_capped():
    policy = RetryPolicy(
        max_retries=5, base_delay_seconds=0.01, max_delay_seconds=0.05
    )
    assert policy.delay_for(1) == pytest.approx(0.01)
    assert policy.delay_for(2) == pytest.approx(0.02)
    assert policy.delay_for(3) == pytest.approx(0.04)
    assert policy.delay_for(4) == pytest.approx(0.05)  # capped
    assert RetryPolicy(base_delay_seconds=0).delay_for(3) == 0.0
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)


# -- engine level ------------------------------------------------------------


def test_sql_timeout(orders_db):
    with pytest.raises(QueryTimeout):
        orders_db.sql(JOIN_SQL, timeout=0.0)


def test_sql_max_rows(orders_db):
    with pytest.raises(ResourceLimitExceeded):
        orders_db.sql(JOIN_SQL, max_rows=5)


def test_sql_cancel(orders_db):
    with pytest.raises(QueryCancelled):
        orders_db.sql(
            JOIN_SQL, cancel=CancelToken(cancel_after_checks=10)
        )


def test_generous_limits_do_not_interfere(orders_db):
    unrestricted = orders_db.sql(JOIN_SQL).rows
    guarded = orders_db.sql(
        JOIN_SQL, timeout=60.0, max_rows=10**7, cancel=CancelToken()
    ).rows
    assert sorted(guarded) == sorted(unrestricted)


def test_max_rows_counts_motion_buffers(orders_db):
    # Even a plain scan buffers its rows at the GatherMotion, so the
    # budget bounds what the coordinator materializes: 2400 rows pass a
    # 2400-row budget and fail a 2399-row one.
    result = orders_db.sql("SELECT order_id FROM orders", max_rows=2400)
    assert len(result.rows) == 2400
    with pytest.raises(ResourceLimitExceeded):
        orders_db.sql("SELECT order_id FROM orders", max_rows=2399)


def test_jittered_delay_stays_inside_the_envelope():
    """Decorrelated jitter: every draw is within [base, min(cap, 3*prev)]
    and never exceeds the policy's max delay."""
    policy = RetryPolicy(
        max_retries=5,
        base_delay_seconds=0.01,
        max_delay_seconds=0.08,
        seed=42,
    )
    previous = None
    for attempt in range(1, 50):
        delay = policy.jittered_delay(attempt, previous=previous)
        assert 0.01 <= delay <= 0.08
        anchor = previous if previous else 0.01
        assert delay <= max(0.01, min(0.08, 3.0 * anchor)) + 1e-12
        previous = delay


def test_jittered_delays_actually_vary():
    policy = RetryPolicy(base_delay_seconds=0.01, max_delay_seconds=1.0, seed=7)
    draws = {policy.jittered_delay(1, previous=0.3) for _ in range(20)}
    assert len(draws) > 1, "jitter produced a constant sequence"


def test_jitter_off_restores_deterministic_exponential():
    policy = RetryPolicy(
        base_delay_seconds=0.01, max_delay_seconds=0.08, jitter=False
    )
    for attempt in range(1, 6):
        assert policy.jittered_delay(attempt) == policy.delay_for(attempt)
        assert policy.jittered_delay(
            attempt, previous=0.5
        ) == policy.delay_for(attempt)


def test_jitter_seed_reproducibility():
    draws_a = [
        RetryPolicy(seed=123).jittered_delay(1, previous=None)
        for _ in range(1)
    ]
    draws_b = [
        RetryPolicy(seed=123).jittered_delay(1, previous=None)
        for _ in range(1)
    ]
    assert draws_a == draws_b


def test_zero_base_delay_never_sleeps():
    policy = RetryPolicy(base_delay_seconds=0.0)
    assert policy.jittered_delay(1) == 0.0
    assert policy.backoff(1) == 0.0
