"""Tests for repro.sax.discretize (sliding-window SAX + numerosity reduction)."""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DiscretizationError, ParameterError
from repro.sax.discretize import (
    Discretization,
    NumerosityReduction,
    SAXWord,
    discretize,
    windowed_paa,
)
from repro.sax.sax import sax_word
from repro.timeseries.paa import paa_batch
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import DEFAULT_FLATNESS_THRESHOLD, znorm_rows

# ``repro.sax`` re-exports a *function* named ``discretize``, which
# shadows the submodule on attribute access.
discretize_mod = importlib.import_module("repro.sax.discretize")


def _sine(length=600, period=60, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return np.sin(2 * np.pi * t / period) + rng.normal(0.0, noise, length)


class TestDiscretize:
    def test_word_count_matches_windows_without_reduction(self):
        series = _sine(300)
        disc = discretize(series, 50, 4, 4, strategy=NumerosityReduction.NONE)
        assert len(disc) == 300 - 50 + 1
        assert disc.raw_word_count == len(disc)

    def test_offsets_strictly_increasing(self):
        disc = discretize(_sine(), 60, 5, 4)
        offsets = disc.offsets
        assert (np.diff(offsets) > 0).all()

    def test_words_match_direct_sax(self):
        series = _sine(200, noise=0.05)
        disc = discretize(series, 40, 4, 3, strategy=NumerosityReduction.NONE)
        for sax in disc.words[:20]:
            direct = sax_word(series[sax.offset : sax.offset + 40], 4, 3)
            assert sax.word == direct

    def test_exact_reduction_removes_consecutive_duplicates(self):
        disc = discretize(_sine(), 60, 4, 4, strategy=NumerosityReduction.EXACT)
        for a, b in zip(disc.words, disc.words[1:]):
            assert a.word != b.word

    def test_exact_reduction_keeps_first_occurrence(self):
        series = _sine(300)
        none = discretize(series, 50, 4, 4, strategy=NumerosityReduction.NONE)
        exact = discretize(series, 50, 4, 4, strategy=NumerosityReduction.EXACT)
        raw_words = [w.word for w in none.words]
        for sax in exact.words:
            assert raw_words[sax.offset] == sax.word
            if sax.offset > 0:
                assert raw_words[sax.offset - 1] != sax.word

    def test_mindist_reduction_at_least_as_aggressive(self):
        series = _sine(noise=0.05, seed=3)
        exact = discretize(series, 60, 5, 6, strategy=NumerosityReduction.EXACT)
        mind = discretize(series, 60, 5, 6, strategy=NumerosityReduction.MINDIST)
        assert len(mind) <= len(exact)

    def test_reduction_ratio(self):
        series = _sine()
        disc = discretize(series, 60, 4, 4)
        assert 0.0 < disc.reduction_ratio() < 1.0
        none = discretize(series, 60, 4, 4, strategy=NumerosityReduction.NONE)
        assert none.reduction_ratio() == 0.0

    def test_series_too_short(self):
        with pytest.raises(DiscretizationError):
            discretize(np.arange(10.0), 20, 4, 4)

    def test_bad_paa(self):
        for paa_size in (60, 0, -1):
            with pytest.raises(ParameterError):
                discretize(_sine(), 50, paa_size, 4)

    def test_bad_window(self):
        with pytest.raises(ParameterError):
            discretize(_sine(), 1, 1, 4)

    @pytest.mark.parametrize(
        "window, paa_size", [(50, 60), (50, 0), (50, -1), (1, 1), (0, 1)]
    )
    def test_windowed_paa_rejects_bad_parameters_before_any_pass(
        self, monkeypatch, window, paa_size
    ):
        def no_pass(*args, **kwargs):
            raise AssertionError("the sliding-window pass ran")

        monkeypatch.setattr(discretize_mod, "sliding_windows", no_pass)
        with pytest.raises(ParameterError):
            windowed_paa(_sine(), window, paa_size)

    def test_bad_alphabet(self):
        with pytest.raises(ParameterError):
            discretize(_sine(), 50, 4, 1)

    def test_2d_rejected(self):
        with pytest.raises(ParameterError):
            discretize(np.zeros((10, 10)), 4, 2, 3)

    def test_constant_series_single_word(self):
        disc = discretize(np.full(100, 5.0), 20, 4, 4)
        assert len(disc) == 1
        assert disc.words[0].offset == 0

    @given(
        st.integers(0, 10_000),
        st.integers(10, 40),
        st.integers(2, 6),
        st.integers(3, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_tokens_cover_series(self, seed, window, paa, alpha):
        """First word starts at 0; every offset is a valid window start."""
        series = _sine(200, period=37, noise=0.1, seed=seed)
        disc = discretize(series, window, paa, alpha)
        assert disc.words[0].offset == 0
        assert all(0 <= w.offset <= 200 - window for w in disc.words)


class TestSpanToInterval:
    def test_single_token(self):
        disc = discretize(_sine(300), 50, 4, 4)
        start, end = disc.span_to_interval(0, 0)
        assert start == 0
        assert end == 50

    def test_full_span_clipped_to_series(self):
        disc = discretize(_sine(300), 50, 4, 4)
        last = len(disc) - 1
        start, end = disc.span_to_interval(0, last)
        assert start == 0
        assert end <= 300

    def test_interval_contains_all_spanned_windows(self):
        disc = discretize(_sine(300), 50, 4, 4)
        if len(disc) >= 3:
            start, end = disc.span_to_interval(1, 2)
            assert start == disc.words[1].offset
            assert end >= disc.words[2].offset + 1

    def test_out_of_range(self):
        disc = discretize(_sine(300), 50, 4, 4)
        with pytest.raises(ParameterError):
            disc.span_to_interval(0, len(disc))
        with pytest.raises(ParameterError):
            disc.span_to_interval(-1, 0)
        with pytest.raises(ParameterError):
            disc.span_to_interval(2, 1)


class TestSAXWordType:
    def test_frozen(self):
        word = SAXWord("abc", 3)
        with pytest.raises(AttributeError):
            word.word = "xyz"

    def test_tokens_helper(self):
        disc = discretize(_sine(300), 50, 4, 4)
        assert disc.tokens() == [w.word for w in disc.words]


def _full_matrix_windowed_paa(series, window, paa_size):
    """The full-matrix composition :func:`windowed_paa` must reproduce."""
    windows = sliding_windows(series, window)
    normalized = znorm_rows(windows, DEFAULT_FLATNESS_THRESHOLD)
    flat_rows = windows.std(axis=1) < DEFAULT_FLATNESS_THRESHOLD
    if flat_rows.any():
        normalized = np.where(flat_rows[:, None], 0.0, normalized)
    return paa_batch(normalized, paa_size)


def _shaped_series(seed, length, kind):
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.normal(size=length))
    if kind == "plateaus":
        series[length // 5 : length // 2] = 3.0
        series[2 * length // 3 :] = -1.0
        series += np.where(rng.random(length) < 0.3, 1e-4, 0.0)
    elif kind == "all_flat":
        series *= 1e-6
    elif kind == "offset":
        series += 1e4
    return series


class TestWindowedPaaStreaming:
    """The row-block stream is bit-identical to the full-matrix composition."""

    @given(
        seed=st.integers(0, 10_000),
        window=st.integers(2, 300),
        paa_size=st.integers(1, 16),
        blocks=st.floats(0.0, 4.0),
        kind=st.sampled_from(["walk", "plateaus", "all_flat", "offset"]),
        block_bytes=st.sampled_from([discretize_mod.BLOCK_BYTES, 8 * 300 * 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_full_matrix(
        self, seed, window, paa_size, blocks, kind, block_bytes
    ):
        paa_size = min(paa_size, window)
        # Lengths run from a single window to several blocks; the small
        # block size also puts a 1-row tail block within reach.
        rows = max(1, block_bytes // (8 * window))
        length = window - 1 + max(1, int(blocks * rows))
        series = _shaped_series(seed, length, kind)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(discretize_mod, "BLOCK_BYTES", block_bytes)
            got = windowed_paa(series, window, paa_size)
        want = _full_matrix_windowed_paa(series, window, paa_size)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "window, paa_size",
        [(400, 4), (400, 400), (333, 7), (250, 3), (97, 5)],
    )
    @pytest.mark.parametrize("kind", ["walk", "plateaus", "all_flat", "offset"])
    def test_long_series_span_many_blocks(self, window, paa_size, kind):
        series = _shaped_series(window * paa_size, 6_000, kind)
        rows = discretize_mod.BLOCK_BYTES // (8 * window)
        assert series.size - window + 1 > 3 * rows
        got = windowed_paa(series, window, paa_size)
        want = _full_matrix_windowed_paa(series, window, paa_size)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_peak_memory_stays_far_below_the_window_matrix(self):
        # 60k points at W=400: the full window matrix alone is 192 MB.
        series = _shaped_series(11, 60_000, "walk")
        tracemalloc.start()
        try:
            values = windowed_paa(series, 400, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (60_000 - 400 + 1, 4)
        assert peak < 16 * 2**20
