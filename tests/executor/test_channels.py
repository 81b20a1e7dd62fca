"""Partition channel protocol: producer-before-consumer enforcement.  A
channel carries a leaf mask (bit *i* = leaf ordinal *i*)."""

import pytest

from repro.errors import ChannelError
from repro.executor.channels import ChannelRegistry, OidChannel


def test_push_consume_roundtrip():
    channel = OidChannel(1, 0)
    channel.push(1 << 3)
    channel.push(1 << 1)
    channel.push(1 << 3)  # duplicates collapse
    channel.close()
    assert channel.consume() == 0b1010


def test_consume_before_close_raises():
    channel = OidChannel(1, 0)
    channel.push(1 << 1)
    with pytest.raises(ChannelError, match="before its PartitionSelector"):
        channel.consume()


def test_push_after_close_raises():
    channel = OidChannel(1, 0)
    channel.close()
    with pytest.raises(ChannelError, match="closed"):
        channel.push(1 << 1)


def test_empty_selection_is_valid():
    channel = OidChannel(1, 0)
    channel.close()
    assert channel.consume() == 0


def test_registry_keys_by_scan_and_segment():
    registry = ChannelRegistry()
    a = registry.channel(1, 0)
    b = registry.channel(1, 1)
    c = registry.channel(2, 0)
    assert a is registry.channel(1, 0)
    assert a is not b and a is not c
    assert len(registry.channels()) == 3


# ---------------------------------------------------------------------------
# Misuse hardening: the protocol rejects double transitions loudly
# ---------------------------------------------------------------------------


def test_double_close_raises():
    channel = OidChannel(1, 0)
    channel.push(1 << 1)
    channel.close()
    with pytest.raises(ChannelError, match="double close"):
        channel.close()


def test_double_consume_raises():
    channel = OidChannel(1, 0)
    channel.push(1 << 1)
    channel.close()
    assert channel.consume() == 1 << 1
    with pytest.raises(ChannelError, match="consumed twice"):
        channel.consume()


def test_peek_is_non_destructive():
    channel = OidChannel(1, 0)
    channel.push(1 << 1)
    channel.push(1 << 2)
    channel.close()
    assert channel.peek() == 0b110
    assert channel.peek() == 0b110  # repeatable, unlike consume()
    assert channel.consume() == 0b110


def test_peek_before_close_raises():
    channel = OidChannel(1, 0)
    channel.push(1 << 1)
    with pytest.raises(ChannelError, match="before its producer"):
        channel.peek()


def test_registry_discard_drops_all_segments():
    """Discarding a scan id on every segment in turn leaves only the other
    scan's channels."""
    registry = ChannelRegistry()
    registry.channel(1, 0)
    registry.channel(1, 1)
    registry.channel(2, 0)
    removed = sum(registry.discard([1], segment=s) for s in (0, 1))
    assert removed == 2
    assert len(registry.channels()) == 1
    # A fresh channel replaces the discarded one (retry path).
    fresh = registry.channel(1, 0)
    fresh.push(1 << 5)
    fresh.close()
    assert fresh.consume() == 1 << 5


def test_registry_discard_scoped_to_one_segment():
    """Instance retry discards only the failed segment's channels: the
    healthy segments' filled-and-closed channels must survive."""
    registry = ChannelRegistry()
    survivor = registry.channel(1, 0)
    survivor.push(1 << 7)
    survivor.close()
    registry.channel(1, 2)
    registry.channel(2, 2)
    removed = registry.discard([1, 2], segment=2)
    assert removed == 2
    assert registry.channels() == [survivor]
    # The untouched channel is still drainable by its consumer.
    assert survivor.consume() == 1 << 7
