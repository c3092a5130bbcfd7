"""The traced run: spans around each layer's public calls, per-layer
metrics, tracing overhead and the layer ablation.

Spans are recorded from this benchmark's own code only, around calls
into each layer's public functions.  The ``table1`` and
``density_long`` requests are split into the calls
``GrammarAnomalyDetector`` makes, and that split is first asserted to
return exactly what the detector returns.  Spans are kept in memory and
written to ``.bench_build/perfbench/`` when the run ends.

Every ``*_ms`` metric is milliseconds of layer self time per pass over
the workload's inputs (median over traced passes); counts are per pass.
A metric of a layer the workload does not load reads 0.
"""

from __future__ import annotations

import contextlib
import copy
import inspect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro import GrammarAnomalyDetector, MetricsRegistry, ResultCache, SearchContext
from repro.core.rra import find_discords
from repro.core.rule_density import find_density_anomalies, rule_density_curve
from repro.exceptions import ParameterError
from repro.grammar.intervals import rule_intervals, uncovered_intervals
from repro.grammar.sequitur import induce_grammar_interned
from repro.sax.discretize import NumerosityReduction, discretize
from repro.streaming.online_sax import OnlineDiscretizer
from repro.streaming.online_sequitur import IncrementalSequitur
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.preprocess import quality_gate

import inputs
from workloads import NUM_DISCORDS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# Span name -> the per-layer self-time metric it feeds.
SELF_TIME_METRIC = {
    "preprocess.gate": "preprocess.gate_ms",
    "sax.discretize": "sax.discretize_ms",
    "grammar.induce": "grammar.induce_ms",
    "intervals.project": "intervals.project_ms",
    "rule_density.curve": "rule_density.curve_ms",
    "rra.search": "rra.search_ms",
    "ensemble.fit": "ensemble.fit_ms",
}


class Tracer:
    """In-memory spans: name, start, end, parent and request id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "request": request,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def self_ns_by_pass(self) -> dict:
        """{span name: [self ns of each pass]}; a request id is
        ``"<pass>/<case>"``.  Self time is a span's duration minus the
        durations of its (sequential) children."""
        covered: dict = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end_ns"] - s["start_ns"]
        table: dict = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            pass_id = s["request"].split("/", 1)[0]
            table[s["name"]][pass_id] += s["end_ns"] - s["start_ns"] - covered[s["id"]]
        return {name: list(by_pass.values()) for name, by_pass in table.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


# -- the split request ----------------------------------------------------


def split_request(case, seed: int, tracer, rid: str, *, with_rra: bool) -> dict:
    """``GrammarAnomalyDetector`` fit + density_anomalies (+ discords),
    made of the same public calls in the same order, one span each."""
    span = tracer.span
    W, P, A = case.window, case.paa_size, case.alphabet_size
    counter = registry = rra = None
    with span("request", rid):
        with span("preprocess.gate", rid):
            series = quality_gate(np.asarray(case.series, dtype=float), policy="raise").series
        with span("sax.discretize", rid):
            disc = discretize(series, W, P, A, strategy=NumerosityReduction.EXACT)
        with span("grammar.induce", rid):
            grammar = induce_grammar_interned(
                disc.token_ids, disc.vocabulary, tokens=disc.tokens()
            )
        with span("intervals.project", rid):
            intervals = rule_intervals(grammar, disc)
            gaps = uncovered_intervals(grammar, disc)
        with span("rule_density.curve", rid):
            density = rule_density_curve(intervals, series.size)
            anomalies = find_density_anomalies(density, edge_exclusion=W)
        if with_rra:
            counter, registry = DistanceCounter(), MetricsRegistry()
            with span("rra.search", rid):
                rra = find_discords(
                    series,
                    intervals + gaps,
                    num_discords=NUM_DISCORDS,
                    rng=np.random.default_rng(seed),
                    counter=counter,
                    metrics=registry,
                )
    return {
        "density": density,
        "anomalies": tuple((a.start, a.end) for a in anomalies),
        "discords": None if rra is None else tuple(
            (d.start, d.end, d.nn_distance) for d in rra.discords
        ),
        "calls": None if rra is None else int(rra.distance_calls),
        "counts": {
            "sax.windows": disc.raw_word_count,
            "sax.tokens": len(disc),
            "grammar.rules": len(grammar),
            "grammar.size": grammar.grammar_size(),
            "intervals.count": len(intervals),
            "intervals.gaps": len(gaps),
            "rra.candidates": 0 if rra is None else rra.candidate_count,
            "rra.distance_calls": 0 if rra is None else rra.distance_calls,
            "rra.true_calls": 0 if counter is None else counter.true_calls,
            "rra.visited": 0 if registry is None
            else registry.counter("search.candidates_visited").value,
            "rra.abandoned": 0 if registry is None
            else registry.counter("search.candidates_abandoned").value,
        },
    }


def assert_split_matches(workload, first_answers: dict, split_outs: list) -> None:
    """The split request must return exactly what the detector returned
    on the first untraced pass; otherwise its spans would time a
    different program."""
    with_rra = workload.name == "table1"
    for index, (case, split) in enumerate(zip(workload.cases, split_outs)):
        answer = first_answers[index]
        same = (
            np.array_equal(split["density"], answer["curve"])
            and split["anomalies"] == answer["anomalies"]
        )
        if with_rra:
            same = same and (split["discords"], split["calls"]) == (
                answer["discords"],
                answer["calls"],
            )
        if not same:
            raise AssertionError(f"split request differs from the detector on {case.key}")


# -- per-workload traced loops --------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _per_case_median_s(records) -> dict:
    """{case index: median request seconds} of untraced records."""
    by_case: dict = defaultdict(list)
    for rec in records:
        by_case[rec.case].append(rec.seconds)
    return {case: _median(times) for case, times in by_case.items()}


def _overhead(tracer: Tracer, records) -> float:
    """Traced over untraced wall time, minus 1, at each input's median
    request time (robust to bursts of contention on a shared host)."""
    traced: dict = defaultdict(list)
    for s in tracer.spans:
        if s["name"] == "request":
            case = int(s["request"].split("/", 1)[1])
            traced[case].append((s["end_ns"] - s["start_ns"]) / 1e9)
    plain = _per_case_median_s(records)
    return sum(_median(traced[c]) for c in plain) / sum(plain.values()) - 1.0


def _run_loop(workload, seconds: float, untraced, traced) -> None:
    """Alternate untraced and traced passes by the workload's run-length
    rule; at least one pair."""
    start = time.perf_counter()
    pass_no = 0
    while True:
        untraced()
        traced(pass_no)
        pass_no += 1
        if not workload.another_pass(start, pass_no, seconds):
            return


def _split_workload(workload, seconds: float, tracer: Tracer, metrics: dict) -> None:
    """table1 / density_long: detector passes against split passes.

    The first split pass records into a trial tracer whose spans are
    adopted only once its answers match the detector's first pass."""
    with_rra = workload.name == "table1"
    records: list = []
    counts: list[dict] = []

    def traced(pass_no):
        target = Tracer() if pass_no == 0 else tracer
        totals: dict = defaultdict(int)
        outs = []
        for index, case in enumerate(workload.cases):
            out = split_request(
                case, workload.seed, target, f"{pass_no}/{index}", with_rra=with_rra
            )
            outs.append(out)
            for key, value in out["counts"].items():
                totals[key] += value
        if pass_no == 0:
            assert_split_matches(workload, workload.first_answers(records), outs)
            tracer.spans = target.spans
        counts.append(totals)

    _run_loop(workload, seconds, lambda: workload.run_pass(records), traced)
    c = counts[0]  # counts repeat exactly on every pass
    metrics.update(
        {
            "sax.windows": c["sax.windows"],
            "sax.tokens": c["sax.tokens"],
            "sax.tokens_per_window": c["sax.tokens"] / c["sax.windows"],
            "grammar.rules": c["grammar.rules"],
            "grammar.size_per_token": c["grammar.size"] / c["sax.tokens"],
            "intervals.count": c["intervals.count"],
            "intervals.gaps": c["intervals.gaps"],
            "trace.overhead": _overhead(tracer, records),
        }
    )
    if with_rra:
        search_ms = _median(
            [ns / 1e6 for ns in tracer.self_ns_by_pass().get("rra.search", [])]
        )
        metrics.update(
            {
                "rra.candidates": c["rra.candidates"],
                "rra.distance_calls": c["rra.distance_calls"],
                "rra.true_calls": c["rra.true_calls"],
                "rra.calls_per_candidate": c["rra.distance_calls"] / c["rra.candidates"],
                "rra.us_per_true_call": search_ms * 1e3 / max(c["rra.true_calls"], 1),
                "rra.abandon_share": c["rra.abandoned"] / max(c["rra.visited"], 1),
            }
        )
        metrics.update(ablation(workload, records))


def _ensemble_workload(workload, seconds: float, tracer: Tracer, metrics: dict) -> None:
    """2-worker fits, untraced and traced; serial fits with a bound
    context over the first draw's rows, for the worker speedup and the
    context hit share."""
    records: list = []
    serial_rows = range(len(inputs.ENSEMBLE_ROWS))
    speedups: list = []
    small_overhead_ms: list = []
    hit_shares: list = []
    small = min(serial_rows, key=lambda i: workload.cases[i].points)
    members = contributing = 0

    def traced(pass_no):
        nonlocal members, contributing
        clock = time.perf_counter
        parallel_s, serial_s = {}, {}
        hits = misses = 0
        for index, case in enumerate(workload.cases):
            rid = f"{pass_no}/{index}"
            t = clock()
            with tracer.span("request", rid), tracer.span("ensemble.fit", rid):
                result = workload.request(case)
            parallel_s[index] = clock() - t
            if pass_no == 0:
                members += len(result.members)
                contributing += result.contributing
            if index not in serial_rows:
                continue
            context = SearchContext()
            t = clock()
            with tracer.span("ensemble.fit_serial", f"{pass_no}/serial{index}"):
                serial = workload.request(case, n_workers=1, context=context)
            serial_s[index] = clock() - t
            hits, misses = hits + context.hits, misses + context.misses
            if workload.answer_of(case, result)["digest"] != workload.answer_of(
                case, serial
            )["digest"]:
                raise AssertionError(f"serial and 2-worker ensembles differ on {case.key}")
        speedups.append(sum(serial_s.values()) / sum(parallel_s[i] for i in serial_s))
        small_overhead_ms.append((parallel_s[small] - serial_s[small]) * 1e3)
        hit_shares.append(hits / max(hits + misses, 1))

    _run_loop(workload, seconds, lambda: workload.run_pass(records), traced)
    metrics.update(
        {
            "ensemble.members": members,
            "ensemble.members_contributing": contributing,
            "rra.distance_calls": workload.distance_calls(workload.first_answers(records)),
            "parallel.speedup": _median(speedups),
            "parallel.small_fit_overhead_ms": _median(small_overhead_ms),
            "cache.context_hit_share": _median(hit_shares),
            "trace.overhead": _overhead(tracer, records),
        }
    )


def _stream_workload(workload, seconds: float, tracer: Tracer, metrics: dict) -> None:
    """Detector passes, plus each streaming layer alone on the same input:
    ``OnlineDiscretizer.push`` over the points, then
    ``IncrementalSequitur.push`` over the words it emitted."""
    records: list = []
    sax_ns: list = []
    grammar_ns: list = []
    totals = {"points": 0, "tokens": 0, "alarms": 0}

    def traced(pass_no):
        clock = time.perf_counter_ns
        sax_total = grammar_total = 0
        for index, case in enumerate(workload.cases):
            rid = f"{pass_no}/{index}"
            with tracer.span("request", rid), tracer.span("streaming.detector", rid):
                alarms, tokens = workload.request(case)
            push = OnlineDiscretizer(case.window, case.paa_size, case.alphabet_size).push
            t = clock()
            with tracer.span("streaming.sax_only", f"{pass_no}/layers{index}"):
                emitted = [push(value) for value in case.series.tolist()]
            sax_total += clock() - t
            words = [w.word for w in emitted if w is not None]
            push = IncrementalSequitur().push
            t = clock()
            with tracer.span("streaming.grammar_only", f"{pass_no}/layers{index}"):
                for word in words:
                    push(word)
            grammar_total += clock() - t
            if pass_no == 0:
                totals["points"] += case.points
                totals["tokens"] += tokens
                totals["alarms"] += len(alarms)
        sax_ns.append(sax_total)
        grammar_ns.append(grammar_total)

    _run_loop(workload, seconds, lambda: workload.run_pass(records), traced)
    metrics.update(
        {
            "streaming.sax_us_per_point": _median(sax_ns) / 1e3 / totals["points"],
            "streaming.grammar_us_per_token": _median(grammar_ns) / 1e3 / totals["tokens"],
            "streaming.tokens": totals["tokens"],
            "streaming.alarms": totals["alarms"],
            "trace.overhead": _overhead(tracer, records),
        }
    )


# -- layer ablation -------------------------------------------------------


def _accepts(func, name: str) -> bool:
    return name in inspect.signature(func).parameters


def _comparable(workload, records) -> list:
    """Per-case answers (discords, logical calls, completeness, density
    anomalies) of the first pass, JSON-normalised so a child process's
    answers compare equal."""
    first = {}
    for rec in records:
        if rec.error is not None:
            raise AssertionError(f"ablation request failed: {rec.error}")
        first.setdefault(rec.case, workload.comparable(rec.answer))
    return json.loads(json.dumps([first[i] for i in sorted(first)]))


def first_draw(workload):
    """The workload restricted to the first draw: the 14 Table-1 rows."""
    rows = copy.copy(workload)
    rows.cases = workload.cases[: len(workload.cases) // workload.draws]
    return rows


def _timed_pass(workload, **kwargs) -> tuple[float, list]:
    records: list = []
    start = time.perf_counter()
    workload.run_pass(records, **kwargs)
    return time.perf_counter() - start, _comparable(workload, records)


def ccore_off_pass(workload) -> dict:
    """One timed table1 pass in this process (run with the core off)."""
    from repro.grammar import ccore

    if ccore.load() is not None:
        raise AssertionError("the C core loaded although REPRO_SEQUITUR_CORE=off")
    seconds, answers = _timed_pass(first_draw(workload))
    return {"seconds": seconds, "answers": answers}


def ablation(workload, records) -> dict:
    """Wall time of a pass over the 14 Table-1 rows with each opt-in
    layer on, divided by the same pass with it off: the default request,
    at each row's median untraced time.  Each ratio follows an assertion
    of identical answers: discords, logical calls, completeness and
    density anomalies.

    A knob the API no longer accepts reads 0 and is listed as
    ``absent``.  A layer whose answers differ gets no ratio: it reads 0,
    is listed as ``differs`` with the first differing row, and counts as
    a failed operation of the run."""
    workload = first_draw(workload)
    rows = range(len(workload.cases))
    expected = _comparable(workload, [rec for rec in records if rec.case in rows])
    baseline_s = sum(
        t for case, t in _per_case_median_s(records).items() if case in rows
    )
    init, discords = GrammarAnomalyDetector.__init__, GrammarAnomalyDetector.discords
    status: dict = {}
    ratios: dict = {}

    def run(name, present, on_pass):
        if not present:
            status[name] = "absent"
            ratios[f"ablation.{name}"] = 0.0
            return
        on_s, off_s, answers = on_pass()
        if answers != expected:
            row = next(i for i, (a, b) in enumerate(zip(answers, expected)) if a != b)
            status[name] = (
                f"differs on {workload.cases[row].key}: "
                f"{answers[row]} != {expected[row]}"
            )
            ratios[f"ablation.{name}"] = 0.0
            return
        status[name] = "identical"
        ratios[f"ablation.{name}"] = on_s / off_s

    def layer_on(**kwargs):
        def on_pass():
            seconds, answers = _timed_pass(workload, **kwargs)
            return seconds, baseline_s, answers

        return on_pass

    run("prune", _accepts(discords, "prune"),
        layer_on(discords_kwargs={"prune": True}))
    run("workers2", _accepts(init, "n_workers"),
        layer_on(detector_kwargs={"n_workers": 2}))
    run("batch", _backend_accepted("batch"),
        layer_on(detector_kwargs={"backend": "batch"}))
    run("context", _accepts(init, "context"),
        layer_on(detector_kwargs=lambda: {"context": SearchContext()}))
    run("cache_warm", _accepts(init, "cache"),
        lambda: _warm_cache_pass(workload, baseline_s))
    run("ccore_off", _ccore_present(),
        lambda: _ccore_off_child(workload, baseline_s))
    ratios["_status"] = status
    return ratios


def _backend_accepted(backend: str) -> bool:
    try:
        GrammarAnomalyDetector(8, 2, 3, backend=backend)
    except (ParameterError, TypeError):
        return False
    return True


def _warm_cache_pass(workload, baseline_s: float):
    directory = OUT_DIR / f"result-cache-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        kwargs = {"detector_kwargs": {"cache": ResultCache(str(directory))}}
        _timed_pass(workload, **kwargs)  # fills the cache
        seconds, answers = _timed_pass(workload, **kwargs)
        return seconds, baseline_s, answers
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _ccore_present() -> bool:
    try:
        from repro.grammar import ccore
    except ImportError:
        return False
    return ccore.load() is not None


def _ccore_off_child(workload, baseline_s: float):
    """The same pass in a child process with the C core disabled: the
    layer is on here and off in the child."""
    env = dict(os.environ, REPRO_SEQUITUR_CORE="off")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("bench.py")),
         "--workload", workload.name, "--seed", str(workload.seed), "--ccore-off-pass"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return baseline_s, child["seconds"], child["answers"]


# -- entry point -------------------------------------------------------------


def traced_run(workload, seconds: float) -> dict:
    """Every per-layer metric that BENCHMARK.json declares, for this
    workload, plus the self-time table and the ablation states."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    tracer = Tracer()
    metrics = dict.fromkeys(units, 0)
    if workload.name in ("table1", "density_long"):
        _split_workload(workload, seconds, tracer, metrics)
    elif workload.name == "ensemble":
        _ensemble_workload(workload, seconds, tracer, metrics)
    else:
        _stream_workload(workload, seconds, tracer, metrics)
    status = metrics.pop("_status", {})
    if set(metrics) != set(units):
        raise AssertionError(f"undeclared per-layer metrics: {set(metrics) - set(units)}")
    differing = sum(state.startswith("differs") for state in status.values())
    self_ms = {
        name: _median([ns / 1e6 for ns in per_pass])
        for name, per_pass in tracer.self_ns_by_pass().items()
    }
    for span_name, metric_name in SELF_TIME_METRIC.items():
        if span_name in self_ms:
            metrics[metric_name] = self_ms[span_name]
    tracer.write(OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json")
    print(f"self time per pass, ms (median over passes), workload {workload.name}:")
    for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {ms:10.2f}")
    for name, state in status.items():
        print(f"  ablation.{name:19s} {state}")
    return {
        "correct": True,
        "attempted": sum(s["name"] == "request" for s in tracer.spans) + len(status),
        "failed": differing,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
        "detail": {"self_ms": self_ms, "ablation": status},
    }
