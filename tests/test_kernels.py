"""Equivalence tests for the vectorized distance-kernel layer.

Two families of guarantees:

* **Numeric equivalence** — every kernel in ``repro.timeseries.kernels``
  matches its scalar reference to 1e-9 on random inputs (property-style
  sweeps over shapes, offsets, and flat segments).
* **Accounting equivalence** — the ``backend="kernel"`` search paths
  report *bit-identical* ``DistanceCounter.calls`` (and the same
  discords) as ``backend="scalar"`` for RRA, HOTSAX, Haar, and brute
  force on the seed fixtures.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rra import find_discord, find_discords, nearest_neighbor_distances
from repro.discord.brute_force import brute_force_discord
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.exceptions import ParameterError
from repro.timeseries import kernels
from repro.timeseries.distance import (
    DistanceCounter,
    euclidean,
    euclidean_early_abandon,
    variable_length_distance,
)
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import znorm, znorm_rows


def _random_series(rng, length, *, offset=0.0, flat_span=None):
    series = rng.normal(0.0, 1.0, length) + offset
    if flat_span is not None:
        lo, hi = flat_span
        series[lo:hi] = series[lo]  # exactly constant stretch
    return series


class TestBackendValidation:
    def test_known_backends(self):
        kernels.validate_backend("kernel")
        kernels.validate_backend("scalar")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            kernels.validate_backend("cuda")

    @pytest.mark.parametrize(
        "entry",
        [
            "validate_backend",
            "GrammarAnomalyDetector",
            "EnsembleDetector",
            "find_discords",
            "hotsax_discords",
            "brute_force_discords",
        ],
    )
    def test_removed_batch_backend_rejected(self, entry):
        """``backend='batch'`` is gone: every public entry point refuses
        it and names the two backends that remain."""
        from repro import EnsembleDetector, GrammarAnomalyDetector
        from repro.discord.brute_force import brute_force_discords

        assert kernels.BACKENDS == ("kernel", "scalar")
        series = _blip_series(length=300)
        calls = {
            "validate_backend": lambda: kernels.validate_backend("batch"),
            "GrammarAnomalyDetector": lambda: GrammarAnomalyDetector(
                40, 4, 4, backend="batch"
            ),
            "EnsembleDetector": lambda: EnsembleDetector(backend="batch"),
            "find_discords": lambda: find_discords(
                series, _candidates_for(series), backend="batch"
            ),
            "hotsax_discords": lambda: hotsax_discords(
                series, 40, backend="batch"
            ),
            "brute_force_discords": lambda: brute_force_discords(
                series, 40, backend="batch"
            ),
        }
        with pytest.raises(ParameterError, match=r"\('kernel', 'scalar'\)"):
            calls[entry]()


class TestWindowStats:
    @pytest.mark.parametrize("window", [2, 5, 31, 100])
    def test_matches_per_window_mean_std(self, rng, window):
        series = _random_series(rng, 300, offset=50.0)
        means, stds = kernels.sliding_window_stats(series, window)
        view = sliding_windows(series, window)
        assert np.allclose(means, view.mean(axis=1), atol=1e-9)
        assert np.allclose(stds, view.std(axis=1), atol=1e-9)

    def test_short_series_empty(self):
        means, stds = kernels.sliding_window_stats(np.zeros(3), 10)
        assert means.size == 0 and stds.size == 0

    @pytest.mark.parametrize("window", [3, 20, 64])
    def test_znorm_windows_match_znorm_rows(self, rng, window):
        series = _random_series(rng, 400, flat_span=(100, 100 + 2 * window))
        batch = kernels.znorm_sliding_windows(series, window)
        reference = znorm_rows(sliding_windows(series, window))
        assert np.allclose(batch, reference, atol=1e-9)


class TestSeriesStats:
    def test_interval_stats_match_numpy(self, rng):
        series = _random_series(rng, 500, offset=100.0)
        stats = kernels.SeriesStats(series)
        for start, end in [(0, 10), (3, 500), (250, 252), (100, 400)]:
            segment = series[start:end]
            assert stats.mean(start, end) == pytest.approx(segment.mean(), abs=1e-9)
            assert stats.std(start, end) == pytest.approx(segment.std(), abs=1e-9)

    def test_znorm_matches_scalar_znorm(self, rng):
        series = _random_series(rng, 300, flat_span=(50, 120))
        stats = kernels.SeriesStats(series)
        for start, end in [(0, 30), (55, 110), (40, 140), (298, 300)]:
            expected = znorm(series[start:end])
            assert np.allclose(stats.znorm(start, end), expected, atol=1e-9)

    def test_bounds_checked(self):
        stats = kernels.SeriesStats(np.arange(10.0))
        with pytest.raises(ParameterError):
            stats.mean(5, 11)
        with pytest.raises(ParameterError):
            stats.znorm(4, 4)

    def test_rejects_2d(self):
        with pytest.raises(ParameterError):
            kernels.SeriesStats(np.zeros((3, 3)))


class TestOneVsAll:
    def test_matches_pairwise_euclidean(self, rng):
        matrix = rng.normal(size=(40, 25))
        query = rng.normal(size=25)
        sq = kernels.one_vs_all_sq_euclidean(query, matrix)
        expected = np.array([euclidean(query, row) ** 2 for row in matrix])
        assert np.allclose(sq, expected, atol=1e-9)

    def test_precomputed_norms_identical(self, rng):
        matrix = rng.normal(size=(10, 8))
        query = rng.normal(size=8)
        plain = kernels.one_vs_all_sq_euclidean(query, matrix)
        primed = kernels.one_vs_all_sq_euclidean(
            query,
            matrix,
            query_sqnorm=float(np.dot(query, query)),
            sqnorms=kernels.row_sqnorms(matrix),
        )
        assert np.array_equal(plain, primed)

    def test_self_distance_clipped_to_zero(self, rng):
        row = rng.normal(size=30)
        sq = kernels.one_vs_all_sq_euclidean(row, np.stack([row, row]))
        assert (sq >= 0.0).all()
        assert np.allclose(sq, 0.0, atol=1e-9)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ParameterError):
            kernels.one_vs_all_sq_euclidean(np.zeros(3), np.zeros((2, 4)))

    def test_cutoff_matches_scalar_early_abandon(self, rng):
        matrix = rng.normal(size=(50, 16))
        query = rng.normal(size=16)
        cutoff = 4.0
        batch = kernels.one_vs_all_euclidean(query, matrix, cutoff=cutoff)
        for row, got in zip(matrix, batch):
            expected = euclidean_early_abandon(query, row, cutoff)
            if np.isinf(expected):
                assert np.isinf(got)
            else:
                assert got == pytest.approx(expected, abs=1e-9)


class TestEarlyAbandonFilter:
    def test_above_cutoff_becomes_inf(self):
        dists = np.array([0.5, 2.0, 3.5])
        out = kernels.early_abandon_filter(dists, 2.0)
        assert out[0] == 0.5 and out[1] == 2.0 and np.isinf(out[2])

    def test_infinite_cutoff_is_identity(self):
        dists = np.array([1.0, 9.0])
        assert np.array_equal(kernels.early_abandon_filter(dists, np.inf), dists)

    def test_first_below(self):
        assert kernels.first_below(np.array([3.0, 2.0, 0.5, 0.1]), 1.0) == 2
        assert kernels.first_below(np.array([3.0, 2.0]), 1.0) == -1
        assert kernels.first_below(np.array([]), 1.0) == -1


class TestSlidingAlignment:
    @pytest.mark.parametrize("short_len,long_len", [(2, 9), (5, 6), (7, 7), (10, 50)])
    def test_profile_matches_offset_loop(self, rng, short_len, long_len):
        short = rng.normal(size=short_len)
        long_ = rng.normal(size=long_len)
        profile = kernels.sliding_alignment_sq_profile(short, long_)
        expected = np.array(
            [
                np.sum((short - long_[o : o + short_len]) ** 2)
                for o in range(long_len - short_len + 1)
            ]
        )
        assert np.allclose(profile, expected, atol=1e-9)

    def test_min_distance_matches_scalar_reference(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(n, 40))
            p = rng.normal(size=n)
            q = rng.normal(size=m)
            expected = variable_length_distance(p, q, normalize_inputs=False)
            got = kernels.variable_length_kernel(p, q)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ParameterError):
            kernels.variable_length_kernel(np.array([]), np.ones(3))
        with pytest.raises(ParameterError):
            kernels.sliding_alignment_sq_profile(np.ones(5), np.ones(3))
        with pytest.raises(ParameterError):
            kernels.sliding_min_normalized_distance(
                np.ones(5), np.ones(3), short_sqnorm=5.0,
                long_sq_cumsum=kernels.sq_cumsum(np.ones(3)),
            )


def _unfused_min_distance(short, long_, short_sqnorm, long_sq_cumsum):
    """Oracle: the whole clipped profile first, then ``sqrt(min / n)``."""
    n = short.size
    window_energy = long_sq_cumsum[n:] - long_sq_cumsum[:-n]
    cross = np.correlate(long_, short, mode="valid")
    profile = np.clip(short_sqnorm + window_energy - 2.0 * cross, 0.0, None)
    return float(np.sqrt(profile.min() / n))


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=2, max_value=400),
    st.sampled_from(["random", "embedded", "flat_a", "flat_b", "flat_both"]),
)
def test_fused_min_distance_is_bit_identical(seed, len_a, len_b, kind):
    """The fused kernel and its unchecked core (RRA's pair kernel)
    return the unfused formula's exact bits for either argument order,
    including alignments whose squared distance rounds to zero or below
    (an embedded copy) and flat intervals, whose z-normalized values are
    all zero."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=len_a)
    b = rng.normal(size=len_b)
    if kind == "embedded":
        short, long_ = (a, b) if len_a <= len_b else (b, a)
        at = int(rng.integers(0, long_.size - short.size + 1))
        long_[at : at + short.size] = short
    if kind in ("flat_a", "flat_both"):
        a[:] = 0.0
    if kind in ("flat_b", "flat_both"):
        b[:] = 0.0
    for p, q in ((a, b), (b, a)):
        short, long_ = (p, q) if p.size <= q.size else (q, p)
        short_sqnorm = float(np.dot(short, short))
        long_sq_cumsum = kernels.sq_cumsum(long_)
        expected = _unfused_min_distance(short, long_, short_sqnorm, long_sq_cumsum)
        fused = kernels.sliding_min_normalized_distance(
            short, long_, short_sqnorm=short_sqnorm, long_sq_cumsum=long_sq_cumsum
        )
        assert _bits(fused) == _bits(expected)
        n = short.size
        energy = long_sq_cumsum[n:] - long_sq_cumsum[:-n]
        core = kernels.min_alignment_distance(short, long_, short_sqnorm, energy)
        assert _bits(core) == _bits(expected)
        # The window energies are read, never written (RRA memoizes them).
        assert np.array_equal(energy, long_sq_cumsum[n:] - long_sq_cumsum[:-n])
        assert _bits(kernels.variable_length_kernel(p, q)) == _bits(expected)


def test_sliding_window_stats_reuses_prebuilt_stats():
    rng = np.random.default_rng(5)
    series = rng.normal(size=300)
    stats = kernels.SeriesStats(series)
    fresh = kernels.sliding_window_stats(series, 24)
    reused = kernels.sliding_window_stats(series, 24, stats=stats)
    np.testing.assert_array_equal(fresh[0], reused[0])
    np.testing.assert_array_equal(fresh[1], reused[1])
    np.testing.assert_array_equal(
        kernels.znorm_sliding_windows(series, 24),
        kernels.znorm_sliding_windows(series, 24, stats=stats),
    )


def test_sliding_window_stats_rejects_mismatched_stats():
    series = np.arange(100, dtype=float)
    stats = kernels.SeriesStats(np.arange(50, dtype=float))
    with pytest.raises(ParameterError, match="length"):
        kernels.sliding_window_stats(series, 10, stats=stats)


def test_window_matrix_caches_all_artifacts():
    rng = np.random.default_rng(6)
    series = rng.normal(size=200)
    wm = kernels.WindowMatrix(series, 16)
    np.testing.assert_array_equal(wm.view, sliding_windows(series, 16))
    np.testing.assert_array_equal(
        wm.normalized, znorm_rows(sliding_windows(series, 16))
    )
    np.testing.assert_array_equal(
        wm.sqnorms, kernels.row_sqnorms(wm.normalized)
    )
    assert wm.normalized is wm.normalized  # computed once
    assert wm.sqnorms is wm.sqnorms
    means, stds = wm.window_stats()
    ref_means, ref_stds = kernels.sliding_window_stats(series, 16)
    np.testing.assert_array_equal(means, ref_means)
    np.testing.assert_array_equal(stds, ref_stds)


def test_window_matrix_rejects_degenerate_input():
    with pytest.raises(ParameterError):
        kernels.WindowMatrix(np.arange(4, dtype=float), 10)
    with pytest.raises(ParameterError):
        kernels.WindowMatrix(np.zeros((3, 3)), 2)


def _masked_row_brute_force(series, window, exclude):
    """Oracle: the non-abandoning kernel scan as it read before the row
    minimum was taken in place — ``sqrt`` of a boolean-masked copy of
    every candidate's squared-distance row, then the row minimum."""
    wm = kernels.WindowMatrix(series, window)
    k = wm.normalized.shape[0]
    best_dist, best_pos, calls = -1.0, None, 0
    for p in range(k):
        if any(s <= p < e for s, e in exclude):
            continue
        sq_row = kernels.one_vs_all_sq_euclidean(
            wm.normalized[p], wm.normalized,
            query_sqnorm=wm.sqnorms[p], sqnorms=wm.sqnorms,
        )
        valid = np.ones(k, dtype=bool)
        valid[max(0, p - window) : p + window + 1] = False
        dists = np.sqrt(sq_row[valid])
        calls += dists.size
        if dists.size and float(dists.min()) > best_dist:
            best_dist, best_pos = float(dists.min()), p
    return best_pos, best_dist, calls


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=8, max_value=160),
    st.floats(min_value=0.02, max_value=0.95),
    st.sampled_from(["all", "head", "tail", "both_ends"]),
)
@example(seed=1, length=40, frac=0.25, ends="head")
@example(seed=1, length=40, frac=0.25, ends="tail")
@example(seed=2, length=40, frac=0.6, ends="all")
@example(seed=10475865, length=8, frac=0.25, ends="all")
def test_brute_force_row_minimum_is_bit_identical(seed, length, frac, ends):
    """Without early abandoning, the kernel brute force takes the root of
    each row's minimum squared distance.  Its discord carries the exact
    bits and position of the masked-copy form, and its calls equal the
    scalar reference's.  ``ends`` restricts the candidates to the first
    and/or last window (an empty left or right part of the row); a
    window wider than half the series leaves no non-self match at all:
    no discord and 0 calls."""
    series = np.random.default_rng(seed).normal(size=length)
    window = max(2, min(length - 1, int(length * frac)))
    k = length - window + 1
    exclude = {
        "all": (),
        "head": ((1, k),),
        "tail": ((0, k - 1),),
        "both_ends": ((1, k - 1),),
    }[ends]
    results = {}
    for backend in kernels.BACKENDS:
        counter = DistanceCounter()
        found, _ = brute_force_discord(
            series, window, counter=counter, exclude=exclude, backend=backend
        )
        results[backend] = (found, counter.calls)
    (kernel_found, kernel_calls), (scalar_found, scalar_calls) = (
        results["kernel"], results["scalar"]
    )
    oracle_pos, oracle_dist, oracle_calls = _masked_row_brute_force(
        series, window, exclude
    )
    assert kernel_calls == scalar_calls == oracle_calls
    if k - 1 <= window:
        assert kernel_found is None and scalar_found is None
        assert kernel_calls == 0
        return
    assert kernel_found.start == oracle_pos
    assert _bits(kernel_found.nn_distance) == _bits(oracle_dist)
    assert _bits(kernel_found.score) == _bits(oracle_dist)
    # The scalar path sums squared differences instead of using the
    # dot-product identity, so it agrees to roundoff, not to the bit;
    # on exact ties (window 2 z-normalizes to ±1) its position may differ.
    # The roundoff is in the squared distance: a twin at distance 0
    # leaves a residual near 4e-16 whose root is 2e-8, so the roots are
    # compared squared, to just above that roundoff.
    assert kernel_found.nn_distance ** 2 == pytest.approx(
        scalar_found.nn_distance ** 2, abs=1e-12
    )


class TestCounterBatch:
    def test_batch_accumulates(self):
        counter = DistanceCounter()
        counter.batch(7)
        counter.batch(0)
        counter.batch(3)
        assert counter.calls == 10

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            DistanceCounter().batch(-1)


def _candidates_for(series, window=40, paa=4, alpha=4):
    from repro.grammar.intervals import rule_intervals, uncovered_intervals
    from repro.grammar.sequitur import induce_grammar
    from repro.sax.discretize import discretize

    disc = discretize(series, window, paa, alpha)
    grammar = induce_grammar(disc.tokens())
    return rule_intervals(grammar, disc) + uncovered_intervals(grammar, disc)


def _blip_series(length=800, period=50, blip_at=400, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.02, length)
    series[blip_at : blip_at + 60] += 2.5
    return series


class TestBackendCallCountIdentity:
    """`DistanceCounter.calls` must be identical across backends."""

    def test_rra_find_discord(self):
        series = _blip_series()
        candidates = _candidates_for(series)
        results = {}
        for backend in kernels.BACKENDS:
            counter = DistanceCounter()
            discord, _ = find_discord(
                series,
                candidates,
                counter=counter,
                rng=np.random.default_rng(11),
                backend=backend,
            )
            results[backend] = (counter.calls, discord.start, discord.end)
        assert results["kernel"] == results["scalar"]
        assert results["kernel"][0] > 0

    def test_rra_find_discords_multi_rank(self):
        series = _blip_series()
        candidates = _candidates_for(series)
        outcomes = {}
        for backend in kernels.BACKENDS:
            result = find_discords(
                series,
                candidates,
                num_discords=3,
                rng=np.random.default_rng(5),
                backend=backend,
            )
            outcomes[backend] = (
                result.distance_calls,
                [(d.start, d.end, d.rank) for d in result.discords],
            )
        assert outcomes["kernel"] == outcomes["scalar"]

    def test_rra_scores_match_across_backends(self):
        series = _blip_series(length=600)
        candidates = _candidates_for(series)
        scores = {}
        for backend in kernels.BACKENDS:
            result = find_discords(
                series,
                candidates,
                num_discords=2,
                rng=np.random.default_rng(2),
                backend=backend,
            )
            scores[backend] = [d.nn_distance for d in result.discords]
        assert scores["kernel"] == pytest.approx(scores["scalar"], abs=1e-9)

    def test_hotsax(self, sine_bump):
        outcomes = {}
        for backend in kernels.BACKENDS:
            result = hotsax_discords(
                sine_bump.series,
                100,
                num_discords=2,
                rng=np.random.default_rng(0),
                backend=backend,
            )
            outcomes[backend] = (
                result.distance_calls,
                [(d.start, d.end) for d in result.discords],
            )
        assert outcomes["kernel"] == outcomes["scalar"]

    def test_haar(self, short_series):
        outcomes = {}
        for backend in kernels.BACKENDS:
            result = haar_discords(
                short_series,
                40,
                num_discords=1,
                rng=np.random.default_rng(0),
                backend=backend,
            )
            outcomes[backend] = (
                result.distance_calls,
                [(d.start, d.end) for d in result.discords],
            )
        assert outcomes["kernel"] == outcomes["scalar"]

    @pytest.mark.parametrize("early_abandon", [False, True])
    def test_brute_force(self, short_series, early_abandon):
        outcomes = {}
        for backend in kernels.BACKENDS:
            counter = DistanceCounter()
            discord, _ = brute_force_discord(
                short_series,
                40,
                counter=counter,
                early_abandon=early_abandon,
                backend=backend,
            )
            outcomes[backend] = (counter.calls, discord.start, discord.end)
        assert outcomes["kernel"] == outcomes["scalar"]

    def test_nearest_neighbor_distances(self):
        series = _blip_series(length=500)
        candidates = _candidates_for(series)
        profiles = {}
        for backend in kernels.BACKENDS:
            counter = DistanceCounter()
            profile = nearest_neighbor_distances(
                series, candidates, counter=counter, backend=backend
            )
            profiles[backend] = (counter.calls, profile)
        assert profiles["kernel"][0] == profiles["scalar"][0]
        kernel_profile = profiles["kernel"][1]
        scalar_profile = profiles["scalar"][1]
        assert len(kernel_profile) == len(scalar_profile)
        for (iv_k, d_k), (iv_s, d_s) in zip(kernel_profile, scalar_profile):
            assert iv_k == iv_s
            if np.isinf(d_s):
                assert np.isinf(d_k)
            else:
                assert d_k == pytest.approx(d_s, abs=1e-9)

    def test_unknown_backend_rejected_everywhere(self, short_series):
        with pytest.raises(ParameterError):
            brute_force_discord(short_series, 40, backend="gpu")
        with pytest.raises(ParameterError):
            find_discord(short_series, [], backend="gpu")
        with pytest.raises(ParameterError):
            nearest_neighbor_distances(short_series, [], backend="gpu")
