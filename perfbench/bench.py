"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` (which sets the environment); prints one JSON
object as its last stdout line.  Modes:

* default: the untraced end-to-end run — set up, closed loop for
  ``--seconds``, then the output checks and the checker self-test;
* ``--setup-only``: set up and report ``setup_s`` only;
* ``--trace``: the traced per-layer run (see ``tracing.py``);
* ``--ccore-off-pass``: one timed ``table1`` pass for the C-core
  ablation, run by the traced run in a child with the core disabled.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import HostSpeed, probe  # noqa: E402
from workloads import WORKLOADS, PushSamples  # noqa: E402

# Capacity of the stream workload's per-push latency buffer (~31 passes).
PUSH_CAPACITY = 2_500_000
# Probes discarded before the ones that normalise a set-up time (the
# first probes after set-up read slow even on an idle host).
SETUP_PROBES_DISCARDED = 3


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float) -> dict:
    """The untraced closed loop, its checks and its end-to-end metrics.

    Every time is normalised to the reference host speed with probes
    taken after each measured stretch (see ``hostspeed.py``); raw
    figures go to the detail record."""
    records: list = []
    host = HostSpeed(local=workload.local_speed)
    samples = PushSamples(PUSH_CAPACITY) if workload.name == "stream" else None
    kwargs = {"samples": samples} if samples is not None else {}
    points = sum(case.points for case in workload.cases)
    passes = 0
    clock = time.perf_counter
    start = clock()
    while True:
        workload.run_pass(records, host=host, **kwargs)
        passes += 1
        if not workload.another_pass(start, passes, seconds):
            break
        if samples is not None and samples.free < points:
            break
    wall = clock() - start

    outcome = workload.check(records)
    self_test_ok = workload.self_test(records)
    failed = sum(outcome.failed)
    hits = [
        rec.error is None and workload.is_hit(workload.cases[rec.case], rec.answer)
        for rec in records
    ]
    factors = [host.factor(*rec.groups) for rec in records]
    if samples is not None:
        raw_ms = np.frombuffer(samples.ns, dtype=np.int64)[: samples.count] / 1e6
        ends = [end for end, _ in samples.chunks]
        sizes = np.diff([0] + ends)
        samples_ms = raw_ms * np.repeat([host.factor(g) for _, g in samples.chunks], sizes)
    else:
        raw_ms = np.asarray([rec.seconds for rec in records]) * 1e3
        samples_ms = raw_ms * np.asarray(factors)
    # Throughput at each input's median request time, so a burst of
    # contention on a shared host moves it less than a wall-clock mean.
    raw_case: dict = {}
    norm_case: dict = {}
    for rec, factor in zip(records, factors):
        raw_case.setdefault(rec.case, []).append(rec.seconds)
        norm_case.setdefault(rec.case, []).append(rec.seconds * factor)
    raw_pass_s = sum(statistics.median(times) for times in raw_case.values())
    norm_pass_s = sum(statistics.median(times) for times in norm_case.values())
    tail = workload.tail_percentile
    detail = {
        "passes": passes,
        "wall_s": wall,
        "requests": len(records),
        "latency_samples": int(samples_ms.size),
        "tail_percentile": tail,
        "samples_beyond_tail": int(np.sum(samples_ms > np.percentile(samples_ms, tail))),
        "raw_points_per_s": points / raw_pass_s,
        "raw_request_ms_p50": float(np.percentile(raw_ms, 50)),
        "raw_request_ms_tail": float(np.percentile(raw_ms, tail)),
        "host_speed": host.summary(),
        "self_test_caught_corruption": self_test_ok,
        "problems": outcome.problems[:10],
        "distance_calls_per_pass": workload.distance_calls(workload.first_answers(records)),
    }
    return {
        "correct": failed == 0 and self_test_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            "points_per_s": metric(points / norm_pass_s, "points/s"),
            "request_ms_p50": metric(float(np.percentile(samples_ms, 50)), "ms"),
            "request_ms_tail": metric(float(np.percentile(samples_ms, tail)), "ms"),
            "hit_rate": metric(sum(hits) / len(hits), "fraction"),
            "ok_share": metric(1.0 - failed / len(records), "fraction"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        "detail": detail,
    }


def normalised_setup_s(raw_s: float) -> float:
    """*raw_s* at the reference host speed, from probes right after it."""
    for _ in range(SETUP_PROBES_DISCARDED):
        probe()
    host = HostSpeed()
    return raw_s * host.factor(host.cover(raw_s))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ccore-off-pass", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    raw_setup_s = time.perf_counter() - _START
    setup = {"setup_s": None, "raw_setup_s": raw_setup_s}
    if not (args.trace or args.ccore_off_pass):
        setup["setup_s"] = normalised_setup_s(raw_setup_s)

    if args.setup_only:
        result = setup
    elif args.ccore_off_pass:
        from tracing import ccore_off_pass

        result = ccore_off_pass(workload)
    elif args.trace:
        from tracing import traced_run

        result = traced_run(workload, args.seconds)
    else:
        result = dict(end_to_end(workload, args.seconds), **setup)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
