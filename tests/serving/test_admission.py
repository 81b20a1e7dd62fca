"""Unit tests for the admission controller: slots, queue, shedding,
and fair share — no database involved."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServerOverloaded
from repro.serving import AdmissionController, ServingConfig


def controller(**overrides) -> AdmissionController:
    defaults = dict(
        max_concurrent=2,
        max_queued=4,
        queue_timeout_s=2.0,
        session_max_inflight=1,
    )
    defaults.update(overrides)
    return AdmissionController(ServingConfig(**defaults))


def test_immediate_admission_under_caps():
    admission = controller()
    slot = admission.acquire(1)
    assert slot.queued_seconds == 0.0
    assert admission.stats()["inflight"] == 1
    admission.release(slot)
    assert admission.stats()["inflight"] == 0
    assert admission.stats()["admitted"] == 1


def test_queue_full_sheds_with_typed_error():
    admission = controller(max_concurrent=1, max_queued=0)
    slot = admission.acquire(1)
    with pytest.raises(ServerOverloaded) as excinfo:
        admission.acquire(2)
    assert excinfo.value.reason == "queue_full"
    assert excinfo.value.stage == "serving"
    assert admission.stats()["rejected"]["queue_full"] == 1
    admission.release(slot)


def test_queue_timeout_sheds_with_typed_error():
    admission = controller(max_concurrent=1, queue_timeout_s=0.05)
    slot = admission.acquire(1)
    started = time.monotonic()
    with pytest.raises(ServerOverloaded) as excinfo:
        admission.acquire(2)
    assert excinfo.value.reason == "queue_timeout"
    assert time.monotonic() - started < 1.0
    assert admission.stats()["rejected"]["queue_timeout"] == 1
    assert admission.stats()["queue_depth"] == 0  # ticket removed
    admission.release(slot)


def test_release_dispatches_queued_ticket():
    admission = controller(max_concurrent=1)
    first = admission.acquire(1)
    granted = []

    def waiter():
        slot = admission.acquire(2)
        granted.append(slot)
        admission.release(slot)

    thread = threading.Thread(target=waiter)
    thread.start()
    deadline = time.monotonic() + 2.0
    while admission.queue_depth == 0 and time.monotonic() < deadline:
        time.sleep(0.002)
    assert admission.queue_depth == 1
    admission.release(first)
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert len(granted) == 1
    assert granted[0].queued_seconds > 0.0
    stats = admission.stats()
    assert stats["queued_grants"] == 1
    assert stats["queued_seconds_total"] > 0.0


def test_session_inflight_cap_queues_even_with_free_slots():
    admission = controller(max_concurrent=4, session_max_inflight=1)
    slot = admission.acquire(1)
    # same session, free global slots — must queue, not run
    result = []
    thread = threading.Thread(
        target=lambda: result.append(admission.acquire(1))
    )
    thread.start()
    deadline = time.monotonic() + 2.0
    while admission.queue_depth == 0 and time.monotonic() < deadline:
        time.sleep(0.002)
    assert admission.queue_depth == 1
    assert not result
    # a different session sails through
    other = admission.acquire(2)
    admission.release(other)
    admission.release(slot)
    thread.join(timeout=2.0)
    assert len(result) == 1
    admission.release(result[0])


def test_round_robin_fair_share_across_sessions():
    """Session A queues three queries, session B one: grants alternate
    A, B, A, A — B is not starved behind A's backlog."""
    admission = controller(max_concurrent=1, max_queued=8)
    holder = admission.acquire(99)
    order: list[int] = []
    order_lock = threading.Lock()

    def worker(session_id: int):
        slot = admission.acquire(session_id)
        with order_lock:
            order.append(session_id)
        admission.release(slot)

    threads = []
    # enqueue deterministically: A's three first, then B's one
    for session_id in (1, 1, 1):
        thread = threading.Thread(target=worker, args=(session_id,))
        thread.start()
        threads.append(thread)
        deadline = time.monotonic() + 2.0
        while (
            admission.queue_depth < len(threads)
            and time.monotonic() < deadline
        ):
            time.sleep(0.002)
    thread = threading.Thread(target=worker, args=(2,))
    thread.start()
    threads.append(thread)
    deadline = time.monotonic() + 2.0
    while admission.queue_depth < 4 and time.monotonic() < deadline:
        time.sleep(0.002)
    assert admission.queue_depth == 4
    admission.release(holder)
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    assert order == [1, 2, 1, 1]


def test_close_sheds_queued_and_new_waiters():
    admission = controller(max_concurrent=1, queue_timeout_s=5.0)
    slot = admission.acquire(1)
    errors = []

    def waiter():
        try:
            admission.acquire(2)
        except ServerOverloaded as exc:
            errors.append(exc.reason)

    thread = threading.Thread(target=waiter)
    thread.start()
    deadline = time.monotonic() + 2.0
    while admission.queue_depth == 0 and time.monotonic() < deadline:
        time.sleep(0.002)
    admission.close()
    thread.join(timeout=2.0)
    assert errors == ["shutdown"]
    with pytest.raises(ServerOverloaded) as excinfo:
        admission.acquire(3)
    assert excinfo.value.reason == "shutdown"
    admission.release(slot)


def test_config_validation():
    with pytest.raises(ValueError):
        ServingConfig(max_concurrent=0)
    with pytest.raises(ValueError):
        ServingConfig(session_max_inflight=0)
    with pytest.raises(ValueError):
        ServingConfig(pool_workers=0)
    config = ServingConfig(max_concurrent=3, pool_workers=2)
    assert config.to_dict() == {
        "max_concurrent": 3,
        "max_queued": 16,
        "queue_timeout_s": 5.0,
        "session_max_inflight": 2,
    }
