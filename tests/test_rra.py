"""Tests for repro.core.rra — the Rare Rule Anomaly algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rra import (
    RRAResult,
    _CandidateSet,
    _InnerOrdering,
    _is_non_self_match,
    find_discord,
    find_discords,
    nearest_neighbor_distances,
)
from repro.exceptions import DiscordSearchError
from repro.grammar.intervals import RuleInterval
from repro.timeseries import kernels
from repro.timeseries.distance import DistanceCounter, variable_length_distance


def _blip_series(length=800, period=50, blip_at=400, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.02, length)
    series[blip_at : blip_at + 60] += 2.5
    return series


def _candidates_for(series, window=40, paa=4, alpha=4):
    from repro.grammar.intervals import rule_intervals, uncovered_intervals
    from repro.grammar.sequitur import induce_grammar
    from repro.sax.discretize import discretize

    disc = discretize(series, window, paa, alpha)
    grammar = induce_grammar(disc.tokens())
    return rule_intervals(grammar, disc) + uncovered_intervals(grammar, disc)


class TestNonSelfMatch:
    def test_overlap_excluded(self):
        p = RuleInterval(1, 100, 150, usage=1)
        q = RuleInterval(2, 120, 170, usage=1)
        assert not _is_non_self_match(p, q)

    def test_far_apart_allowed(self):
        p = RuleInterval(1, 100, 150, usage=1)
        q = RuleInterval(2, 200, 260, usage=1)
        assert _is_non_self_match(p, q)

    def test_paper_boundary(self):
        # |p0 - q0| must be STRICTLY greater than Length(p)
        p = RuleInterval(1, 100, 150, usage=1)  # length 50
        assert not _is_non_self_match(p, RuleInterval(2, 150, 190, usage=1))
        assert _is_non_self_match(p, RuleInterval(2, 151, 190, usage=1))


class TestInnerOrdering:
    @pytest.mark.parametrize("kind", ["gap", "rule"])
    def test_lazy_order_matches_eager_list(self, kind):
        """``order`` yields the candidate ids of the eager
        ``same_rule + [rest[j] for j in perm]`` list, in the same order,
        and draws its one permutation before the first id is read."""
        series = _blip_series()
        candidates = [iv for iv in _candidates_for(series) if iv.length >= 2]
        cids = _CandidateSet(series).ids(candidates)
        ordering = _InnerOrdering(candidates, cids)
        index = next(
            c for c, iv in enumerate(candidates)
            if (iv.rule_id < 0) == (kind == "gap")
        )
        p = candidates[index]
        if kind == "gap":
            same_rule, rest = [], list(range(len(candidates)))
        else:
            same_rule = [c for c, iv in enumerate(candidates) if iv.rule_id == p.rule_id]
            rest = [c for c, iv in enumerate(candidates) if iv.rule_id != p.rule_id]
        assert len(rest) > _InnerOrdering._HEAD  # both tail chunks are read
        assert ordering.rest_size(index) == len(rest)
        lazy_rng = np.random.default_rng(11)
        eager_rng = np.random.default_rng(11)
        lazy = ordering.order(index, lazy_rng)
        expected = same_rule + [rest[j] for j in eager_rng.permutation(len(rest))]
        assert lazy_rng.bit_generator.state == eager_rng.bit_generator.state
        got = list(lazy)
        assert got == [cids[c] for c in expected]
        assert lazy_rng.bit_generator.state == eager_rng.bit_generator.state

    def test_mixed_list_matches_list_comprehension(self):
        """Interleaved rules and gaps (gap ids -1 and -2): for every
        candidate, in turn on one generator, ``order`` and ``rest_size``
        equal the list-comprehension complement form, draw for draw."""
        rng = np.random.default_rng(5)
        rule_ids = rng.choice([-2, -1, 0, 1, 2, 3, 7], size=60)
        candidates = [
            RuleInterval(int(r), 10 * i, 10 * i + 8, usage=1)
            for i, r in enumerate(rule_ids)
        ]
        cids = _CandidateSet(np.arange(700, dtype=float)).ids(candidates)
        ordering = _InnerOrdering(candidates, cids)
        got_rng = np.random.default_rng(3)
        want_rng = np.random.default_rng(3)
        indices = list(range(len(candidates)))
        for index in indices + indices[::-1]:
            p = candidates[index]
            if p.rule_id < 0:
                same_rule, rest = [], indices
            else:
                same_rule = [c for c in indices if candidates[c].rule_id == p.rule_id]
                rest = [c for c in indices if candidates[c].rule_id != p.rule_id]
            assert ordering.rest_size(index) == len(rest)
            got = list(ordering.order(index, got_rng))
            expected = same_rule + [
                rest[j] for j in want_rng.permutation(len(rest))
            ]
            assert got == [cids[c] for c in expected]
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_same_position_twins_share_one_id(self):
        """Candidates at one position (a rule and a gap, say) get one id,
        and each still appears in the order under that id."""
        candidates = [
            RuleInterval(1, 0, 8, usage=2),
            RuleInterval(-1, 0, 8, usage=0),
            RuleInterval(1, 20, 28, usage=2),
        ]
        cids = _CandidateSet(np.arange(40, dtype=float)).ids(candidates)
        assert cids == [0, 0, 1]
        ordering = _InnerOrdering(candidates, cids)
        got = list(ordering.order(0, np.random.default_rng(0)))
        assert got[:2] == [0, 1] and sorted(got[2:]) == [0]


class TestFindDiscord:
    def test_finds_planted_blip(self):
        series = _blip_series()
        discord, counter = find_discord(series, _candidates_for(series))
        assert discord is not None
        assert discord.start < 470 and discord.end > 390
        assert counter.calls > 0

    def test_no_candidates(self):
        discord, _ = find_discord(np.zeros(100), [])
        assert discord is None

    def test_single_candidate_has_no_match(self):
        discord, _ = find_discord(
            np.random.default_rng(0).normal(size=100),
            [RuleInterval(1, 10, 40, usage=1)],
        )
        assert discord is None

    def test_exclusion_removes_winner(self):
        series = _blip_series()
        candidates = _candidates_for(series)
        first, _ = find_discord(series, candidates)
        second, _ = find_discord(
            series, candidates, exclude=[(first.start, first.end)]
        )
        assert second is not None
        assert (second.start, second.end) != (first.start, first.end)

    def test_rejects_2d_series(self):
        with pytest.raises(DiscordSearchError):
            find_discord(np.zeros((5, 5)), [])

    def test_counter_accumulates(self):
        series = _blip_series()
        counter = DistanceCounter()
        find_discord(series, _candidates_for(series), counter=counter)
        before = counter.calls
        find_discord(series, _candidates_for(series), counter=counter)
        assert counter.calls > before

    def test_deterministic_given_seed(self):
        series = _blip_series()
        candidates = _candidates_for(series)
        d1, _ = find_discord(series, candidates, rng=np.random.default_rng(3))
        d2, _ = find_discord(series, candidates, rng=np.random.default_rng(3))
        assert (d1.start, d1.end, d1.nn_distance) == (d2.start, d2.end, d2.nn_distance)

    def test_discord_metadata(self):
        series = _blip_series()
        discord, _ = find_discord(series, _candidates_for(series))
        assert discord.source == "rra"
        assert discord.score == discord.nn_distance > 0

    def test_result_is_true_max_nn_distance(self):
        """The reported discord maximizes NN distance over candidates."""
        series = _blip_series(length=500)
        candidates = _candidates_for(series)
        discord, _ = find_discord(series, candidates)
        profile = nearest_neighbor_distances(series, candidates)
        finite = [(iv, d) for iv, d in profile if np.isfinite(d)]
        best_iv, best_d = max(finite, key=lambda x: x[1])
        assert discord.nn_distance == pytest.approx(best_d)
        assert (discord.start, discord.end) == (best_iv.start, best_iv.end)


class TestFindDiscords:
    def test_requested_count(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=3)
        assert isinstance(result, RRAResult)
        assert 1 <= len(result.discords) <= 3
        assert result.distance_calls > 0

    def test_ranks_sequential(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=3)
        assert [d.rank for d in result.discords] == list(range(len(result.discords)))

    def test_discords_do_not_repeat(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=3)
        spans = [(d.start, d.end) for d in result.discords]
        assert len(set(spans)) == len(spans)

    def test_invalid_count(self):
        with pytest.raises(DiscordSearchError):
            find_discords(np.zeros(10), [], num_discords=0)

    def test_best_property(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=2)
        assert result.best is result.discords[0]
        assert RRAResult().best is None

    def test_scores_non_increasing(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=3)
        scores = [d.nn_distance for d in result.discords]
        # Later discords exclude earlier ones, so scores should not grow
        # (modulo candidates whose NN was inside an excluded region).
        assert all(a >= b - 0.25 for a, b in zip(scores, scores[1:]))


class TestNearestNeighborDistances:
    def test_profile_covers_candidates(self):
        series = _blip_series(length=400)
        candidates = _candidates_for(series)
        profile = nearest_neighbor_distances(series, candidates)
        valid = [iv for iv in candidates if iv.end <= series.size and iv.length >= 2]
        assert len(profile) == len(valid)

    def test_same_rule_occurrences_have_small_nn(self):
        series = _blip_series(length=600)
        candidates = _candidates_for(series)
        profile = nearest_neighbor_distances(series, candidates)
        frequent = [
            d for iv, d in profile
            if iv.usage >= 4 and np.isfinite(d)
        ]
        if frequent:
            assert min(frequent) < 0.5


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


class TestPairKernel:
    """``_CandidateSet.distance`` is the one RRA pair kernel; it must be
    the unfused formula's exact float for every pair, from either end,
    memoized or not."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        spans=st.lists(
            st.tuples(st.integers(0, 230), st.sampled_from([2, 5, 9, 14, 30, 70])),
            min_size=2,
            max_size=12,
        ),
        flat=st.booleans(),
    )
    def test_bit_identical_to_profile_oracle(self, seed, spans, flat):
        series = np.cumsum(np.random.default_rng(seed).normal(size=300))
        if flat:
            series[100:200] = 3.0  # flat candidates: z-normalized to zeros
        candidates = [
            RuleInterval(i, start, start + length, usage=1)
            for i, (start, length) in enumerate(spans)
        ]
        cache = _CandidateSet(series)
        cids = cache.ids(candidates)
        for i in cids:
            for j in cids:
                a, b = cache.values[i], cache.values[j]
                if a.size == b.size:
                    # One alignment: the dot-product identity over the
                    # cached norms (np.correlate is not np.dot bit for
                    # bit, so the profile form is not the oracle here).
                    sq = cache.sqnorms[i] + cache.sqnorms[j] - 2.0 * float(np.dot(a, b))
                    expected = float(np.sqrt(max(sq, 0.0) / a.size))
                else:
                    short, long_ = (a, b) if a.size < b.size else (b, a)
                    profile = kernels.sliding_alignment_sq_profile(
                        short,
                        long_,
                        short_sqnorm=float(np.dot(short, short)),
                        long_sq_cumsum=kernels.sq_cumsum(long_),
                    )
                    expected = float(np.sqrt(max(profile.min(), 0.0) / short.size))
                first = cache.distance(i, j)
                assert _bits(first) == _bits(expected)
                assert _bits(cache.distance(j, i)) == _bits(first)
                assert _bits(cache.distance(i, j)) == _bits(first)  # memo hit
                assert _bits(cache.pair_distance(j, i)) == _bits(first)
                # The per-offset scalar loop sums squared differences; the
                # kernel's norm identity cancels to ~1e-16 in the squared
                # distance, so near-identical pairs agree there, not in
                # the square root.
                reference = variable_length_distance(a, b, normalize_inputs=False)
                assert first**2 == pytest.approx(reference**2, abs=1e-12)


def _profile_oracle(series, candidates):
    """Per-candidate nearest neighbours, each pair visited from both ends.

    Same-length rows go through one matrix-vector product per query and
    unequal-length pairs through the memoized pair kernel, as the kernel
    backend's accounting describes: one logical call per valid pair.
    """
    cache = _CandidateSet(series)
    cids = cache.ids(candidates)
    calls, profile = 0, []
    for p, pid in zip(candidates, cids):
        nearest = float("inf")
        same = [
            qid for q, qid in zip(candidates, cids)
            if q.length == p.length and _is_non_self_match(p, q)
        ]
        if same:
            rows = np.stack([cache.values[qid] for qid in same])
            sq = kernels.one_vs_all_sq_euclidean(
                cache.values[pid],
                rows,
                query_sqnorm=cache.sqnorms[pid],
                sqnorms=kernels.row_sqnorms(rows),
            )
            nearest = float(np.sqrt(sq.min() / p.length))
        for q, qid in zip(candidates, cids):
            if q.length != p.length and _is_non_self_match(p, q):
                nearest = min(nearest, cache.distance(pid, qid))
        calls += sum(q is not p and _is_non_self_match(p, q) for q in candidates)
        profile.append((p, nearest))
    return calls, profile


class TestNearestNeighborProfileExact:
    """The kernel profile computes each unequal-length pair once and
    offers it to both ends; |p0 - q0| > Length(p) is asymmetric, so a
    pair may count for only one of them."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        spans=st.lists(
            st.tuples(st.integers(0, 260), st.sampled_from([6, 9, 14, 21, 30])),
            min_size=1,
            max_size=40,
        ),
    )
    def test_bit_identical_to_oracle(self, seed, spans):
        series = np.cumsum(np.random.default_rng(seed).normal(size=300))
        candidates = [
            RuleInterval(i, start, start + length, usage=1)
            for i, (start, length) in enumerate(spans)
        ]
        counter = DistanceCounter()
        profile = nearest_neighbor_distances(series, candidates, counter=counter)
        calls, expected = _profile_oracle(series, candidates)
        assert counter.calls == calls
        assert [iv for iv, _ in profile] == [iv for iv, _ in expected]
        got = np.array([d for _, d in profile])
        want = np.array([d for _, d in expected])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_asymmetric_pair_counts_for_one_end(self):
        series = np.sin(np.arange(200) / 3.0) + np.linspace(0, 1, 200)
        short = RuleInterval(0, 0, 10, usage=1)
        long_ = RuleInterval(1, 20, 50, usage=1)  # 20 > 10 but not > 30
        profile = dict(nearest_neighbor_distances(series, [short, long_]))
        assert np.isfinite(profile[short])
        assert np.isinf(profile[long_])


# TEK draws whose RRA call counts once drifted between distance paths:
# an equal-length pair's last ulp flipped abandon decisions.  Sharded
# search must reproduce the serial ledger and discord bits on them.
_TEK_REPRODUCERS = [("TEK17", 100020), ("TEK16", 200022)]


def _run_tek(variant, seed, *, n_workers=1):
    from repro.core.pipeline import GrammarAnomalyDetector
    from repro.datasets import tek_like

    detector = GrammarAnomalyDetector(128, 4, 4, seed=0, n_workers=n_workers)
    detector.fit(tek_like(variant, seed=seed).series)
    result = detector.discords(num_discords=3)
    return result.distance_calls, [
        (d.start, d.end, d.nn_distance.hex()) for d in result.discords
    ]


@pytest.mark.parametrize("variant,seed", _TEK_REPRODUCERS)
def test_parallel_rra_on_tek_reproducers_matches_serial(variant, seed):
    import multiprocessing

    serial = _run_tek(variant, seed)
    assert _run_tek(variant, seed, n_workers=2) == serial
    assert multiprocessing.active_children() == []
