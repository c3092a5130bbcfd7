"""Scalar-vs-kernel wall-time benchmark for the distance-kernel layer.

Runs the same discord workloads through ``backend="scalar"`` (the
per-pair reference path) and ``backend="kernel"`` (the vectorized
kernels of :mod:`repro.timeseries.kernels`), verifies that the distance
call counts are bit-identical, and records wall times + speedups in
``BENCH_kernels.json``:

* ``nearest_neighbor_distances`` on the ECG dataset (one-vs-all kernel;
  target ≥ 5x),
* end-to-end RRA multi-discord extraction on the ECG dataset (target
  ≥ 2x),
* HOTSAX on the power-demand dataset (block-scanned inner loop).

Invocations::

    PYTHONPATH=src python benchmarks/bench_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick   # CI smoke

Running under pytest (``pytest benchmarks/bench_kernels.py``) executes
the quick configuration and asserts the accounting invariants.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rra import find_discords, nearest_neighbor_distances
from repro.datasets.ecg import synthetic_ecg
from repro.datasets.power import dutch_power_demand_like
from repro.discord.hotsax import hotsax_discords
from repro.timeseries.distance import DistanceCounter

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernels.json"

#: Acceptance thresholds (speedup of kernel over scalar, same run).
NN_TARGET = 5.0
RRA_TARGET = 2.0


def _timed(fn):
    """Run *fn* once, returning ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _compare(name, runner, *, target=None):
    """Run *runner(backend)* for both backends and package the numbers.

    ``runner`` must return the distance-call count of the run; counts
    must match exactly across backends or the benchmark aborts.
    """
    scalar_calls, scalar_seconds = _timed(lambda: runner("scalar"))
    kernel_calls, kernel_seconds = _timed(lambda: runner("kernel"))
    if scalar_calls != kernel_calls:
        raise AssertionError(
            f"{name}: call counts diverged "
            f"(scalar={scalar_calls}, kernel={kernel_calls})"
        )
    speedup = scalar_seconds / kernel_seconds if kernel_seconds > 0 else float("inf")
    entry = {
        "scalar_seconds": round(scalar_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(speedup, 2),
        "distance_calls": scalar_calls,
    }
    if target is not None:
        entry["target_speedup"] = target
        entry["meets_target"] = speedup >= target
    print(
        f"{name:28s} scalar {scalar_seconds:8.3f}s   kernel "
        f"{kernel_seconds:8.3f}s   speedup {speedup:6.2f}x   "
        f"calls {scalar_calls}"
    )
    return entry


def run(quick: bool = False) -> dict:
    """Execute the benchmark matrix; returns the report dict."""
    if quick:
        ecg = synthetic_ecg(num_beats=20, anomaly_beats=(12,))
        power = dutch_power_demand_like(weeks=3, holiday_weeks=((1, 2),), window=150)
        num_discords = 2
    else:
        ecg = synthetic_ecg(num_beats=40, anomaly_beats=(12, 25))
        power = dutch_power_demand_like(weeks=6, holiday_weeks=((3, 2),), window=300)
        num_discords = 3

    detector = GrammarAnomalyDetector(ecg.window, ecg.paa_size, ecg.alphabet_size)
    fitted = detector.fit(ecg.series)
    candidates = fitted.candidates

    def run_nn(backend):
        counter = DistanceCounter()
        nearest_neighbor_distances(
            ecg.series, candidates, counter=counter, backend=backend
        )
        return counter.calls

    def run_rra(backend):
        result = find_discords(
            ecg.series,
            candidates,
            num_discords=num_discords,
            rng=np.random.default_rng(0),
            backend=backend,
        )
        return result.distance_calls

    def run_hotsax(backend):
        result = hotsax_discords(
            power.series,
            power.window,
            num_discords=1,
            rng=np.random.default_rng(0),
            backend=backend,
        )
        return result.distance_calls

    report = {
        "mode": "quick" if quick else "full",
        "datasets": {
            "ecg": {
                "length": int(ecg.length),
                "window": int(ecg.window),
                "candidates": len(candidates),
            },
            "power": {"length": int(power.length), "window": int(power.window)},
        },
        "benchmarks": {
            "nearest_neighbor_distances": _compare(
                "nearest_neighbor_distances", run_nn, target=NN_TARGET
            ),
            "rra_end_to_end": _compare(
                "rra_end_to_end", run_rra, target=RRA_TARGET
            ),
            "hotsax": _compare("hotsax", run_hotsax),
        },
    }
    report["all_targets_met"] = all(
        entry.get("meets_target", True)
        for entry in report["benchmarks"].values()
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small datasets, suitable as a CI smoke test",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[report saved to {args.output}]")
    if not report["all_targets_met"]:
        print("SPEEDUP TARGETS NOT MET")
        return 1
    return 0


def test_kernels_quick_smoke(tmp_path):
    """Pytest entry: quick run, identical counts, report written."""
    report = run(quick=True)
    path = tmp_path / "BENCH_kernels.json"
    path.write_text(json.dumps(report, indent=2))
    for entry in report["benchmarks"].values():
        assert entry["distance_calls"] > 0
        assert entry["kernel_seconds"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
