#!/usr/bin/env python3
"""Benchmark launcher: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

Runs every workload in fresh processes so ``setup_s`` and
``peak_rss_mb`` belong to that workload alone:

1. an untimed build (or lookup) of the optional Sequitur C core in
   ``.bench_build/seqcore``;
2. with ``--trace 0``, two set-up-only processes, then the measuring
   process; ``setup_s`` is the median of the three set-ups;
   every ``--trace 0`` time is normalised to a reference host speed
   (see ``hostspeed.py``);
   with ``--trace 1``, the traced per-layer run only.

BLAS thread pools are pinned to one thread, so the two ensemble workers
do not oversubscribe a 2-CPU host.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the run's detail goes to ``.bench_build/perfbench/``.
"""

import argparse
import importlib.util
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1", "density_long", "ensemble", "stream")
SETUP_SAMPLES = 3
# Wall-clock limit of the whole launcher, below the 180 s a run may take.
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["REPRO_SEQUITUR_BUILD_DIR"] = str(ROOT / ".bench_build" / "seqcore")
    env.pop("REPRO_SEQUITUR_CORE", None)
    return env


def run_child(args: list, env: dict, deadline: float) -> dict:
    """Run one child to completion; return its last stdout line as JSON.

    The child gets its own process group, so on a timeout its worker
    processes are killed with it."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the next benchmark process")
    proc = subprocess.Popen(
        args, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(out[-4000:] + err[-4000:])
        raise RuntimeError(f"benchmark process failed: {' '.join(args[1:])}")
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def build_c_core(env: dict) -> None:
    """Build (or find) the optional Sequitur C core before any set-up is
    timed.  ccore.py needs only the standard library, so it is loaded by
    path without importing the package."""
    source = ROOT / "src" / "repro" / "grammar" / "ccore.py"
    if not source.is_file():
        return
    os.environ["REPRO_SEQUITUR_BUILD_DIR"] = env["REPRO_SEQUITUR_BUILD_DIR"]
    spec = importlib.util.spec_from_file_location("_perfbench_ccore", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.load()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro package next to perfbench/", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    py = sys.executable
    try:
        build_c_core(env)
        bench = [py, str(HERE / "bench.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace:
            result = run_child(bench + ["--trace"], env, deadline)
        else:
            setups = [
                run_child(bench + ["--setup-only"], env, deadline)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            result = run_child(bench, env, deadline)
            setups.append({k: result.pop(k) for k in ("setup_s", "raw_setup_s")})
            normalised = [setup["setup_s"] for setup in setups]
            result["metrics"]["setup_s"] = {"value": statistics.median(normalised), "unit": "s"}
            result["detail"]["setup_samples_s"] = normalised
            result["detail"]["raw_setup_samples_s"] = [setup["raw_setup_s"] for setup in setups]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    detail = result.pop("detail")
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(dict(result, detail=detail), indent=1))
    print(f"detail: {json.dumps(detail)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
