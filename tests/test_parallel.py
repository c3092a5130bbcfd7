"""Tests for the process-pool execution layer (:mod:`repro.parallel`).

The headline property: for every search engine and any worker count,
the parallel search returns *bit-identical* results to the serial one —
same discords, same ranks, same scores, same aggregated distance-call
counts.  The scan-record/replay scheme (see :mod:`repro.parallel.scan`)
makes this exact, not approximate, so these tests assert equality, not
tolerance.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.core.parameter_grid import ParameterGridStudy
from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rra import find_discords
from repro.datasets.ecg import synthetic_ecg
from repro.datasets.power import dutch_power_demand_like
from repro.discord.brute_force import brute_force_discords
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.exceptions import ParameterError
from repro.parallel import effective_workers, shard_slices, strided_wave_plan
from repro.parallel.pool import budget_from_spec, budget_to_spec, run_tasks
from repro.resilience.budget import CancellationToken, SearchBudget, SearchStatus
from repro.timeseries.distance import DistanceCounter


def _tuples(discords):
    """Comparable fingerprint of a discord list."""
    return [(d.start, d.end, d.rank, round(d.score, 12)) for d in discords]


def _no_orphans():
    assert multiprocessing.active_children() == []


# -- pool plumbing unit tests ------------------------------------------


def test_effective_workers():
    assert effective_workers(None) == 1
    assert effective_workers(1) == 1
    assert effective_workers(4) == 4
    with pytest.raises(ParameterError):
        effective_workers(0)


def test_shard_slices_cover_range_contiguously():
    for total in (0, 1, 7, 8, 23):
        for chunks in (1, 2, 4, 9):
            slices = shard_slices(total, chunks)
            covered = [i for lo, hi in slices for i in range(lo, hi)]
            assert covered == list(range(total))
            sizes = [hi - lo for lo, hi in slices]
            assert all(s > 0 for s in sizes)
            if sizes:
                assert max(sizes) - min(sizes) <= 1


def test_strided_wave_plan_covers_range():
    for total in (0, 1, 7, 12, 100, 727):
        for workers in (1, 2, 4):
            plan = strided_wave_plan(total, workers)
            prev_hi = 0
            for lo, hi, n_chunks in plan:
                assert lo == prev_hi and hi > lo
                assert 1 <= n_chunks <= hi - lo
                # The round-robin deal covers the wave exactly once.
                dealt = sorted(
                    i
                    for c in range(n_chunks)
                    for i in range(lo + c, hi, n_chunks)
                )
                assert dealt == list(range(lo, hi))
                prev_hi = hi
            assert prev_hi == total
    assert strided_wave_plan(0, 4) == []
    with pytest.raises(ParameterError):
        strided_wave_plan(10, 0)


def test_budget_spec_round_trip():
    assert budget_to_spec(None) is None
    assert budget_to_spec(SearchBudget.unlimited()) is None
    spec = budget_to_spec(SearchBudget(deadline=2.5, max_calls=100))
    rebuilt = budget_from_spec(spec)
    assert rebuilt.deadline == 2.5
    assert rebuilt.max_calls == 100


def test_budget_split_fair_share():
    budget = SearchBudget(max_calls=100)
    shares = budget.split(3, calls_spent=10)
    assert [b.max_calls for b in shares] == [30, 30, 30]
    assert all(b.deadline is None for b in shares)
    # Exhausted parent -> zero-call shards.
    assert [b.max_calls for b in budget.split(2, calls_spent=100)] == [0, 0]
    # Unlimited parent -> unlimited shards.
    assert all(b.max_calls is None for b in SearchBudget.unlimited().split(4))
    with pytest.raises(ParameterError):
        budget.split(0)


def test_run_tasks_wakes_on_completion():
    """The collector wakes when a task finishes, not at the next poll:
    with a 5 s poll period, every wave still returns at once."""
    started = time.monotonic()
    results = run_tasks(
        abs, [-1, -2, -3, -4], n_workers=2, poll_seconds=5.0, wave_size=2
    )
    assert results == [1, 2, 3, 4]
    assert time.monotonic() - started < 4.0
    _no_orphans()


def test_distance_counter_merge():
    a, b = DistanceCounter(), DistanceCounter()
    a.batch(5)
    b.batch(7)
    assert a.merge(b) is a
    assert a.calls == 12
    assert b.calls == 7  # merge does not mutate the source
    a += b
    assert a.calls == 19
    with pytest.raises(ParameterError):
        a.merge(object())
    with pytest.raises(TypeError):
        a += 3


# -- determinism: parallel == serial, bit for bit ----------------------


@pytest.fixture(scope="module")
def ecg():
    return synthetic_ecg(seed=5)


@pytest.fixture(scope="module")
def power():
    return dutch_power_demand_like(weeks=4, holiday_weeks=((2, 2),), seed=3)


@pytest.fixture(scope="module")
def ecg_candidates(ecg):
    detector = GrammarAnomalyDetector(
        ecg.window, ecg.paa_size, ecg.alphabet_size
    )
    fitted = detector.fit(ecg.series)
    return fitted.series, fitted.candidates


ENGINES = {
    "hotsax": hotsax_discords,
    "haar": haar_discords,
    "brute": brute_force_discords,
}


@pytest.mark.slow
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("n_workers", [2, 4])
def test_fixed_engines_parallel_identical_ecg(ecg, engine, n_workers):
    run = ENGINES[engine]
    kwargs = dict(num_discords=2, backend="kernel")
    serial = run(ecg.series, ecg.window, n_workers=1, **kwargs)
    parallel = run(ecg.series, ecg.window, n_workers=n_workers, **kwargs)
    assert _tuples(parallel.discords) == _tuples(serial.discords)
    assert parallel.distance_calls == serial.distance_calls
    assert parallel.status is SearchStatus.COMPLETE
    _no_orphans()


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_rra_parallel_identical_ecg(ecg_candidates, n_workers):
    series, candidates = ecg_candidates
    serial = find_discords(
        series, candidates, num_discords=2, rng=np.random.default_rng(0)
    )
    parallel = find_discords(
        series,
        candidates,
        num_discords=2,
        rng=np.random.default_rng(0),
        n_workers=n_workers,
    )
    assert _tuples(parallel.discords) == _tuples(serial.discords)
    assert parallel.distance_calls == serial.distance_calls
    assert parallel.complete
    _no_orphans()


@pytest.mark.slow
def test_hotsax_parallel_identical_power(power):
    serial = hotsax_discords(power.series, power.window, num_discords=1)
    parallel = hotsax_discords(
        power.series, power.window, num_discords=1, n_workers=2
    )
    assert _tuples(parallel.discords) == _tuples(serial.discords)
    assert parallel.distance_calls == serial.distance_calls
    _no_orphans()


def test_rra_parallel_identical_power(power):
    detector = GrammarAnomalyDetector(
        power.window, power.paa_size, power.alphabet_size
    )
    fitted = detector.fit(power.series)
    serial = find_discords(
        fitted.series, fitted.candidates, rng=np.random.default_rng(0)
    )
    parallel = find_discords(
        fitted.series,
        fitted.candidates,
        rng=np.random.default_rng(0),
        n_workers=2,
    )
    assert _tuples(parallel.discords) == _tuples(serial.discords)
    assert parallel.distance_calls == serial.distance_calls
    _no_orphans()


@pytest.mark.parametrize("engine", ["hotsax", "brute"])
def test_scalar_backend_parallel_identical(short_series, engine):
    run = ENGINES[engine]
    serial = run(short_series, 40, num_discords=1, backend="scalar")
    parallel = run(
        short_series, 40, num_discords=1, backend="scalar", n_workers=2
    )
    assert _tuples(parallel.discords) == _tuples(serial.discords)
    assert parallel.distance_calls == serial.distance_calls
    _no_orphans()


def test_rra_scalar_backend_parallel_identical(ecg_candidates):
    series, candidates = ecg_candidates
    serial = find_discords(
        series, candidates, rng=np.random.default_rng(0), backend="scalar"
    )
    parallel = find_discords(
        series,
        candidates,
        rng=np.random.default_rng(0),
        backend="scalar",
        n_workers=2,
    )
    assert _tuples(parallel.discords) == _tuples(serial.discords)
    assert parallel.distance_calls == serial.distance_calls
    _no_orphans()


def test_detector_n_workers_end_to_end(ecg):
    serial = GrammarAnomalyDetector(ecg.window, ecg.paa_size, ecg.alphabet_size)
    serial.fit(ecg.series)
    ref = serial.discords(num_discords=2)
    threaded = GrammarAnomalyDetector(
        ecg.window, ecg.paa_size, ecg.alphabet_size, n_workers=2
    )
    threaded.fit(ecg.series)
    via_ctor = threaded.discords(num_discords=2)
    via_override = serial.discords(num_discords=2, n_workers=2)
    for result in (via_ctor, via_override):
        assert _tuples(result.discords) == _tuples(ref.discords)
        assert result.distance_calls == ref.distance_calls
    _no_orphans()


# -- budgets and cancellation under the pool ---------------------------


def test_parallel_max_calls_is_anytime(ecg_candidates):
    series, candidates = ecg_candidates
    full = find_discords(series, candidates, rng=np.random.default_rng(0))
    assert full.complete
    starved = find_discords(
        series,
        candidates,
        rng=np.random.default_rng(0),
        budget=SearchBudget(max_calls=full.distance_calls // 3),
        n_workers=2,
    )
    assert starved.status is SearchStatus.BUDGET_EXHAUSTED
    assert not starved.complete
    assert starved.distance_calls <= full.distance_calls
    _no_orphans()


def test_parallel_pre_cancelled_token(ecg_candidates):
    series, candidates = ecg_candidates
    token = CancellationToken()
    token.cancel()
    result = find_discords(
        series,
        candidates,
        rng=np.random.default_rng(0),
        budget=SearchBudget(token=token),
        n_workers=2,
    )
    assert result.status is SearchStatus.CANCELLED
    assert result.distance_calls == 0
    _no_orphans()


def test_parallel_fixed_engine_budget(ecg):
    full = hotsax_discords(ecg.series, ecg.window, num_discords=1)
    starved = hotsax_discords(
        ecg.series,
        ecg.window,
        num_discords=1,
        budget=SearchBudget(max_calls=full.distance_calls // 4),
        n_workers=2,
    )
    assert starved.status is SearchStatus.BUDGET_EXHAUSTED
    _no_orphans()


def test_parallel_checkpoint_resumes_serially_and_parallel(
    ecg_candidates, tmp_path
):
    series, candidates = ecg_candidates
    reference = find_discords(
        series, candidates, num_discords=2, rng=np.random.default_rng(0)
    )
    assert reference.complete

    path = str(tmp_path / "parallel.ckpt.json")
    starved = find_discords(
        series,
        candidates,
        num_discords=2,
        rng=np.random.default_rng(0),
        budget=SearchBudget(max_calls=reference.distance_calls // 3),
        checkpoint_path=path,
        checkpoint_every=1,
        n_workers=2,
    )
    assert not starved.complete

    for workers in (1, 2):
        resumed = find_discords(
            series,
            candidates,
            num_discords=2,
            resume_from=path,
            n_workers=workers,
        )
        assert resumed.complete
        assert _tuples(resumed.discords) == _tuples(reference.discords)
        assert resumed.distance_calls == reference.distance_calls
    _no_orphans()


# -- parameter-grid sweep ----------------------------------------------


def test_grid_sweep_parallel_matches_serial(sine_bump):
    study = ParameterGridStudy(sine_bump.series[:1200], (1000, 1080))
    grid = ([40, 60], [3, 4], [3, 4])
    serial = study.sweep(*grid)
    parallel = study.sweep(*grid, n_workers=2)
    assert parallel == serial
    assert serial  # the grid is not degenerate
    _no_orphans()


def test_grid_pair_hoisting_matches_per_point(sine_bump):
    study = ParameterGridStudy(sine_bump.series[:1200], (1000, 1080))
    legacy = [
        point
        for a in (3, 4, 5)
        if (point := study.evaluate_point(60, 4, a)) is not None
    ]
    assert study._evaluate_pair(60, 4, (3, 4, 5)) == legacy
