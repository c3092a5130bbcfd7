"""Hypothesis property tests for the DistanceCounter ledger algebra.

The parallel engine folds per-worker counters into the parent with
:meth:`DistanceCounter.merge` / ``+=``, and the result cache and
checkpoints rebuild a counter from a saved ledger via
:meth:`restore_ledger`.  Both promise the same invariants regardless of
how the work was sliced:

* merging is associative and commutative — any shard order, any
  grouping, same totals;
* ``restore_ledger`` then merging the remaining shards equals merging
  everything from scratch (the checkpoint-resume identity);
* ``true_calls`` is ``calls``: every visited pair reaches a kernel.

These are exercised here with Hypothesis over arbitrary operation
counts, merge orders, and interleaved reconstructions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.distance import DistanceCounter


def make_counter(counts):
    """Build a counter from a list of batched call counts."""
    counter = DistanceCounter()
    for count in counts:
        counter.batch(count)
    return counter


op_list = st.lists(st.integers(min_value=0, max_value=10_000), max_size=30)
counter_strategy = op_list.map(make_counter)


def ledgers_equal(a: DistanceCounter, b: DistanceCounter) -> bool:
    return a.ledger() == b.ledger()


@given(op_list)
def test_recording_preserves_split_invariant(counts):
    """The ledger is one number, ``calls``; ``true_calls`` reads it back."""
    counter = make_counter(counts)
    assert counter.ledger() == {"calls": sum(counts)}
    assert counter.true_calls == counter.calls


@given(counter_strategy, counter_strategy)
def test_merge_preserves_split_invariant(a, b):
    expected = a.calls + b.calls
    a.merge(b)
    assert a.ledger() == {"calls": expected}
    assert a.true_calls == a.calls


@given(st.lists(op_list, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_merge_order_is_irrelevant(shards_ops, rnd):
    """Commutativity: any permutation of worker shards merges to the same."""
    in_order = DistanceCounter()
    for ops in shards_ops:
        in_order += make_counter(ops)

    shuffled_ops = list(shards_ops)
    rnd.shuffle(shuffled_ops)
    shuffled = DistanceCounter()
    for ops in shuffled_ops:
        shuffled += make_counter(ops)

    assert ledgers_equal(in_order, shuffled)


@given(counter_strategy, counter_strategy, counter_strategy)
def test_merge_is_associative(a, b, c):
    ab = make_counter([])
    ab.restore_ledger(a.ledger())
    ab.merge(b)

    # (a + b) + c
    grouped_left = make_counter([])
    grouped_left.restore_ledger(ab.ledger())
    grouped_left.merge(c)

    # a + (b + c)
    bc = make_counter([])
    bc.restore_ledger(b.ledger())
    bc.merge(c)
    grouped_right = make_counter([])
    grouped_right.restore_ledger(a.ledger())
    grouped_right.merge(bc)

    assert ledgers_equal(grouped_left, grouped_right)


@given(op_list, st.integers(min_value=0, max_value=30))
def test_prefix_ledger_reconstruction(ops, split_at):
    """Checkpoint-resume identity: restore a prefix ledger, replay the rest.

    A resumed search restores the ledger saved at the checkpoint
    boundary and keeps recording; the final ledger must equal the
    uninterrupted run's, wherever the boundary fell.
    """
    split_at = min(split_at, len(ops))
    full = make_counter(ops)

    prefix = make_counter(ops[:split_at])
    resumed = DistanceCounter()
    resumed.restore_ledger(prefix.ledger())
    for count in ops[split_at:]:
        resumed.batch(count)

    assert ledgers_equal(full, resumed)


@given(st.lists(op_list, min_size=2, max_size=5), st.data())
@settings(max_examples=50)
def test_interleaved_restore_and_merge(shards_ops, data):
    """Mixing restore_ledger-rebuilt shards with live shards changes nothing."""
    direct = DistanceCounter()
    for ops in shards_ops:
        direct += make_counter(ops)

    mixed = DistanceCounter()
    for ops in shards_ops:
        live = make_counter(ops)
        if data.draw(st.booleans()):
            rebuilt = DistanceCounter()
            rebuilt.restore_ledger(live.ledger())
            mixed += rebuilt
        else:
            mixed += live

    assert ledgers_equal(direct, mixed)


@given(counter_strategy)
def test_ledger_roundtrip_is_lossless(counter):
    clone = DistanceCounter()
    clone.restore_ledger(counter.ledger())
    assert ledgers_equal(counter, clone)


@given(op_list)
def test_legacy_ledger_defaults(ops):
    """A ledger carrying only ``calls`` restores in full."""
    counter = make_counter(ops)
    restored = DistanceCounter()
    restored.restore_ledger({"calls": counter.calls})
    assert restored.calls == counter.calls
    assert restored.true_calls == counter.calls


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
)
def test_restore_reads_four_key_ledger(true_calls, pruned, lb_calls):
    """Older checkpoints and cache entries stored a four-key ledger
    (``calls == true_calls + pruned`` plus a diagnostic ``lb_calls``);
    restoring one keeps its ``calls`` and ignores the rest."""
    calls = true_calls + pruned
    restored = DistanceCounter()
    restored.restore_ledger(
        {
            "calls": calls,
            "true_calls": true_calls,
            "lb_calls": lb_calls,
            "pruned": pruned,
        }
    )
    assert restored.ledger() == {"calls": calls}
    assert restored.true_calls == calls
