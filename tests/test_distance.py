"""Tests for repro.timeseries.distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ParameterError
from repro.timeseries.distance import (
    DistanceCounter,
    euclidean,
    euclidean_early_abandon,
    normalized_euclidean,
    variable_length_distance,
)
from repro.timeseries.znorm import znorm

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestEuclidean:
    def test_known_value(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_zero_for_identical(self):
        values = np.array([1.0, -2.0, 3.0])
        assert euclidean(values, values) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            euclidean(np.zeros(3), np.zeros(4))

    @given(
        arrays(np.float64, st.integers(2, 32), elements=finite),
        arrays(np.float64, st.integers(2, 32), elements=finite),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_symmetry(self, a, b):
        n = min(a.size, b.size)
        a, b = a[:n], b[:n]
        assert euclidean(a, b) == pytest.approx(euclidean(b, a))

    @given(arrays(np.float64, st.integers(2, 32), elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_property_non_negative(self, a):
        b = a[::-1].copy()
        assert euclidean(a, b) >= 0.0


class TestEarlyAbandon:
    def test_matches_exact_when_under_cutoff(self, rng):
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        exact = euclidean(a, b)
        assert euclidean_early_abandon(a, b, exact + 1.0) == pytest.approx(exact)

    def test_abandons_above_cutoff(self, rng):
        a = rng.normal(size=200)
        b = a + 10.0 + rng.normal(size=200)
        assert euclidean_early_abandon(a, b, 1.0) == float("inf")

    def test_infinite_cutoff_is_exact(self, rng):
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        assert euclidean_early_abandon(a, b, float("inf")) == pytest.approx(
            euclidean(a, b)
        )

    @given(
        arrays(np.float64, st.integers(4, 128), elements=finite),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_abandon_only_above_cutoff(self, a, cutoff):
        b = np.roll(a, 1)
        result = euclidean_early_abandon(a, b, cutoff)
        exact = euclidean(a, b)
        if np.isfinite(result):
            assert result == pytest.approx(exact)
            assert exact <= cutoff + 1e-9 or result == pytest.approx(exact)
        else:
            assert exact > cutoff - 1e-9


class TestNormalizedEuclidean:
    def test_scales_with_sqrt_length(self):
        a = np.zeros(16)
        b = np.ones(16)
        # euclidean = 4; normalized = 4 / sqrt(16) = 1
        assert normalized_euclidean(a, b) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            normalized_euclidean(np.array([]), np.array([]))

    def test_length_invariance_for_repeated_pattern(self):
        """Eq. 1 rationale: repeating the same mismatch keeps the score."""
        a1, b1 = np.array([0.0, 1.0] * 4), np.array([1.0, 0.0] * 4)
        a2, b2 = np.array([0.0, 1.0] * 16), np.array([1.0, 0.0] * 16)
        assert normalized_euclidean(a1, b1) == pytest.approx(
            normalized_euclidean(a2, b2)
        )


class TestVariableLengthDistance:
    def test_equal_lengths_is_normalized_euclidean(self, rng):
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        expected = normalized_euclidean(znorm(a), znorm(b))
        assert variable_length_distance(a, b) == pytest.approx(expected)

    def test_finds_embedded_match(self, rng):
        """A short shape embedded in a longer one gives ~zero distance."""
        long_seq = rng.normal(size=100)
        short = long_seq[30:60]
        dist = variable_length_distance(short, long_seq, normalize_inputs=False)
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_in_argument_order(self, rng):
        a = rng.normal(size=20)
        b = rng.normal(size=35)
        assert variable_length_distance(a, b) == pytest.approx(
            variable_length_distance(b, a)
        )

    def test_normalize_inputs_flag(self):
        a = np.array([0.0, 10.0, 0.0, 10.0])
        b = np.array([0.0, 1.0, 0.0, 1.0])
        # z-normalized, the two are identical shapes
        assert variable_length_distance(a, b) == pytest.approx(0.0, abs=1e-9)
        # raw, they are far apart
        assert variable_length_distance(a, b, normalize_inputs=False) > 1.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            variable_length_distance(np.array([]), np.array([1.0]))

    @given(
        arrays(np.float64, st.integers(8, 24), elements=finite),
        arrays(np.float64, st.integers(8, 24), elements=finite),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_non_negative_and_symmetric(self, a, b):
        d1 = variable_length_distance(a, b)
        d2 = variable_length_distance(b, a)
        assert d1 >= 0.0
        assert d1 == pytest.approx(d2, abs=1e-9)


class TestDistanceCounter:
    def test_counts_euclidean(self, rng):
        counter = DistanceCounter()
        a, b = rng.normal(size=8), rng.normal(size=8)
        counter.euclidean(a, b)
        counter.euclidean(a, b)
        assert counter.calls == 2

    def test_counts_variable_length(self, rng):
        counter = DistanceCounter()
        counter.variable_length(rng.normal(size=8), rng.normal(size=12))
        assert counter.calls == 1

    def test_abandoned_calls_count(self, rng):
        counter = DistanceCounter()
        a = rng.normal(size=100)
        counter.euclidean(a, a + 100.0, cutoff=0.1)
        assert counter.calls == 1

    def test_reset(self):
        counter = DistanceCounter()
        counter.euclidean(np.zeros(4), np.ones(4))
        counter.reset()
        assert counter.calls == 0

    def test_result_matches_plain_function(self, rng):
        counter = DistanceCounter()
        a, b = rng.normal(size=16), rng.normal(size=16)
        assert counter.euclidean(a, b) == pytest.approx(euclidean(a, b))

    def test_batch_is_the_whole_ledger(self):
        counter = DistanceCounter()
        counter.batch(5)
        counter.batch(3)
        assert counter.ledger() == {"calls": 8}
        assert counter.true_calls == 8
        assert repr(counter) == "DistanceCounter(calls=8)"
        with pytest.raises(ParameterError):
            counter.batch(-1)


class TestVariableLengthAlignmentEdgeCases:
    """Unequal-length alignment against a naive reference implementation."""

    @staticmethod
    def _naive_reference(p, q, *, normalize_inputs=True):
        """Direct transcription of DESIGN.md §5: slide, score, minimize."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if normalize_inputs:
            p, q = znorm(p), znorm(q)
        short, long_ = (p, q) if p.size <= q.size else (q, p)
        best = float("inf")
        for offset in range(long_.size - short.size + 1):
            segment = long_[offset : offset + short.size]
            best = min(
                best,
                float(np.sqrt(np.sum((short - segment) ** 2) / short.size)),
            )
        return best

    def test_shortest_possible_shorter(self, rng):
        """shorter == 2 — the smallest length RRA ever compares."""
        for _ in range(10):
            short = rng.normal(size=2)
            long_ = rng.normal(size=int(rng.integers(2, 30)))
            expected = self._naive_reference(short, long_)
            assert variable_length_distance(short, long_) == pytest.approx(
                expected, abs=1e-9
            )

    def test_lengths_differing_by_one(self, rng):
        """Off-by-one lengths exercise the two-offset alignment."""
        for n in (2, 3, 7, 16):
            p = rng.normal(size=n)
            q = rng.normal(size=n + 1)
            expected = self._naive_reference(p, q)
            assert variable_length_distance(p, q) == pytest.approx(
                expected, abs=1e-9
            )
            assert variable_length_distance(q, p) == pytest.approx(
                expected, abs=1e-9
            )

    def test_constant_short_against_noisy_long(self, rng):
        """A flat segment is mean-centered (not scaled) before comparing."""
        short = np.full(5, 3.25)
        long_ = rng.normal(size=20)
        expected = self._naive_reference(short, long_)
        assert variable_length_distance(short, long_) == pytest.approx(
            expected, abs=1e-9
        )

    def test_both_constant(self):
        """Two flat segments z-normalize to zeros: distance is exactly 0."""
        p = np.full(4, 7.0)
        q = np.full(9, -2.0)
        assert variable_length_distance(p, q) == pytest.approx(0.0, abs=1e-12)

    def test_flat_stretch_inside_long(self, rng):
        """Plateaus inside the longer sequence must not derail alignment."""
        long_ = rng.normal(size=40)
        long_[10:25] = 0.5
        short = rng.normal(size=8)
        expected = self._naive_reference(short, long_)
        assert variable_length_distance(short, long_) == pytest.approx(
            expected, abs=1e-9
        )

    def test_unnormalized_inputs_edge_lengths(self, rng):
        for n, m in [(2, 3), (2, 2), (3, 4), (5, 40)]:
            p = rng.normal(size=n)
            q = rng.normal(size=m)
            expected = self._naive_reference(p, q, normalize_inputs=False)
            got = variable_length_distance(p, q, normalize_inputs=False)
            assert got == pytest.approx(expected, abs=1e-9)
