"""The four benchmark workloads: inputs, the unit request, output checks.

Every workload is a closed loop with one client: the next request starts
when the previous one returns.  A workload object owns its seeded
inputs and knows how to

* make one untimed warm-up request (part of set-up);
* run one request and reduce its output to a comparable *answer*;
* check every recorded answer against independent references and
  against the first pass (repetitions must agree exactly);
* corrupt one answer, so the checker can be shown to catch it.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

import numpy as np

import inputs
from repro import EnsembleDetector, GrammarAnomalyDetector, StreamingAnomalyDetector
from repro.core.ensemble import aggregate_score_digest
from repro.core.rra import nearest_neighbor_distances
from repro.exceptions import ReproError

# Discords the unit request asks for: the CLI's default ``-k``.
NUM_DISCORDS = 3
# Worker processes for the ensemble workload (the host's CPU count).
ENSEMBLE_WORKERS = 2
# Pushes between two host-speed probes on ``stream`` (~50 ms of pushes).
PROBE_EVERY = 2000


class PushSamples:
    """Per-push latencies of a ``stream`` run, in a buffer allocated and
    touched up front, so peak memory does not depend on how many passes
    a run makes.  ``chunks`` holds (end, probe group) of each stretch of
    pushes."""

    def __init__(self, capacity: int) -> None:
        self.ns = array("q", [0]) * capacity
        self.count = 0
        self.chunks: list = []

    @property
    def free(self) -> int:
        return len(self.ns) - self.count


@dataclass
class Record:
    """What one request left behind: its answer and its timing."""

    case: int
    seconds: float
    answer: object = None
    error: str | None = None
    #: First and last host-speed probe group after the request's work.
    groups: tuple | None = None


@dataclass
class Outcome:
    """The checked result of a run: a verdict per record, and problems."""

    failed: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _discord_key(discords) -> tuple:
    return tuple((d.start, d.end, d.nn_distance) for d in discords)


class Workload:
    """Shared run loop and checking logic; subclasses define the request."""

    name = ""
    #: Percentile reported as ``request_ms_tail``: the highest one with at
    #: least ten samples beyond it at the benchmark's run length.
    tail_percentile = 90.0
    #: Whether requests take the host-speed probe themselves (``stream``
    #: probes between chunks of pushes, inside one long request).
    probes_inside = False
    #: Whether a request is normalised by the host-speed probes next to
    #: it (else by the run's mean probe; see ``hostspeed.py``).
    local_speed = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cases = self.make_cases(seed)

    # -- to override ---------------------------------------------------

    def make_cases(self, seed: int) -> list:
        raise NotImplementedError

    def request(self, case):
        """Run one request and return its raw output."""
        raise NotImplementedError

    def answer_of(self, case, output):
        """Reduce a request's output to a comparable answer (untimed)."""
        raise NotImplementedError

    def is_hit(self, case, answer) -> bool:
        raise NotImplementedError

    def references(self, first_answers: dict) -> dict:
        """Independent reference per case index (may be a subset)."""
        raise NotImplementedError

    def agrees(self, case, answer, first, reference) -> list[str]:
        """Problems with *answer*, given the first pass and a reference."""
        raise NotImplementedError

    def corrupt(self, answer):
        raise NotImplementedError

    def light(self, answer):
        """*answer* without the fields only the first pass needs (the
        reference checks read those), so long runs stay small."""
        return answer

    def distance_calls(self, first_answers: dict) -> int:
        """Logical distance calls of one pass, the paper's Table-1 cost
        (0 for workloads without a discord search)."""
        return 0

    def warm_up(self) -> None:
        """One untimed request on the smallest input (part of set-up)."""
        self.request(min(self.cases, key=lambda case: case.points))

    # -- run loop and checks --------------------------------------------

    @staticmethod
    def another_pass(start: float, passes: int, seconds: float) -> bool:
        """Closed-loop run length: whole passes, so every input has the
        same number of samples; another one only if it is expected to
        overrun *seconds* since *start* by at most half a pass."""
        elapsed = time.perf_counter() - start
        return elapsed + 0.5 * elapsed / passes <= seconds

    def run_pass(self, records: list, host=None, **request_kwargs) -> None:
        """One pass over the inputs, timing each request.

        With a ``hostspeed.HostSpeed`` *host*, host-speed probes run
        after each request, outside its timed region."""
        clock = time.perf_counter
        first_pass = not records
        if host is not None and self.probes_inside:
            request_kwargs["host"] = host
        for index, case in enumerate(self.cases):
            if host is not None:
                probing, first_group = host.spent_s, len(host.groups)
            start = clock()
            try:
                output = self.request(case, **request_kwargs)
            except (ReproError, ValueError, ArithmeticError) as exc:
                seconds = clock() - start
                answer, error = None, f"{type(exc).__name__}: {exc}"
            else:
                seconds = clock() - start
                answer = self.answer_of(case, output)
                answer, error = (answer if first_pass else self.light(answer)), None
            groups = None
            if host is not None:
                # Probes a request had to run inside are not its time.
                seconds -= host.spent_s - probing
                if not self.probes_inside:
                    host.cover(seconds)
                groups = (first_group, len(host.groups) - 1)
            records.append(Record(index, seconds, answer, error, groups))

    @staticmethod
    def first_answers(records: list) -> dict:
        first: dict = {}
        for rec in records:
            if rec.error is None and rec.case not in first:
                first[rec.case] = rec.answer
        return first

    def check(self, records: list, refs: dict | None = None) -> Outcome:
        """Verdict for every record; runs outside the timed region.

        *refs* reuses references computed by an earlier call."""
        first = self.first_answers(records)
        if refs is None:
            refs = self.references(first)
        self.refs = refs
        out = Outcome()
        for rec in records:
            if rec.error is not None:
                problems = [rec.error]
            else:
                case = self.cases[rec.case]
                problems = self.agrees(
                    case, rec.answer, first[rec.case], refs.get(rec.case)
                )
            out.failed.append(bool(problems))
            out.problems.extend(f"{self.cases[rec.case].key}: {p}" for p in problems)
        return out

    def self_test(self, records: list) -> bool:
        """Re-check the run with one answer corrupted: the failed count
        must rise.  The corrupted record is a repetition of a checked
        case when there is one, so both the repeat check and the
        reference check see it."""
        baseline = sum(self.check(records, self.refs).failed)
        checked = [
            i for i, rec in enumerate(records)
            if rec.error is None and rec.case in self.refs
        ]
        if not checked:
            return False
        target = checked[-1]
        rec = records[target]
        tampered = list(records)
        tampered[target] = Record(rec.case, rec.seconds, self.corrupt(rec.answer))
        return sum(self.check(tampered, self.refs).failed) > baseline


class Table1(Workload):
    """The unit request on each of the 14 Table-1 stand-ins, four draws.

    RRA's cost depends on the draw, so a run spends its time on distinct
    inputs (usually one pass) rather than on repetitions; the checker
    repeats the nearest-neighbour-checked rows instead."""

    name = "table1"
    tail_percentile = 80.0
    draws = 4

    def make_cases(self, seed):
        return inputs.table1_cases(seed, draws=self.draws)

    def detector(self, case, **kwargs) -> GrammarAnomalyDetector:
        return GrammarAnomalyDetector(
            case.window, case.paa_size, case.alphabet_size, seed=self.seed, **kwargs
        )

    def request(self, case, *, detector_kwargs=None, discords_kwargs=None):
        """The unit request.  *detector_kwargs* may be a callable, so a
        layer object (a context, say) can be made fresh per request."""
        if callable(detector_kwargs):
            detector_kwargs = detector_kwargs()
        detector = self.detector(case, **(detector_kwargs or {}))
        fitted = detector.fit(case.series)
        density = detector.density_anomalies()
        rra = detector.discords(num_discords=NUM_DISCORDS, **(discords_kwargs or {}))
        return fitted, density, rra

    def answer_of(self, case, output):
        fitted, density, rra = output
        return {
            "discords": _discord_key(rra.discords),
            "calls": int(rra.distance_calls),
            "complete": bool(rra.complete) and not rra.degraded,
            "anomalies": tuple((a.start, a.end) for a in density),
            # First pass only: the nearest-neighbour reference and the
            # traced run's split-request check read these.
            "candidates": fitted.candidates,
            "series": fitted.series,
            "curve": fitted.density,
        }

    def light(self, answer):
        return {
            k: v for k, v in answer.items() if k not in ("candidates", "series", "curve")
        }

    @staticmethod
    def comparable(answer) -> tuple:
        return (
            answer["discords"],
            answer["calls"],
            answer["complete"],
            answer["anomalies"],
        )

    def is_hit(self, case, answer):
        if not answer["discords"]:
            return False
        start, end, _ = answer["discords"][0]
        return case.dataset.contains_hit(start, end)

    def distance_calls(self, first_answers):
        return sum(answer["calls"] for answer in first_answers.values())

    def checked_cases(self) -> list[int]:
        """Rows whose rank-0 discord is re-derived from the full nearest-
        neighbour profile this run.  The profile is O(k^2) distance calls
        (~27 s for the 14 rows), so each seed checks two rows of the
        first draw, i and i+7; ten seeds cover all 14."""
        i = self.seed % 7
        return [i, i + 7]

    def references(self, first):
        """For each checked row: the argmax of the full nearest-neighbour
        profile, and the answer of one more repetition of the request."""
        refs = {}
        for index in self.checked_cases():
            if index not in first:
                continue
            answer = first[index]
            profile = nearest_neighbor_distances(answer["series"], answer["candidates"])
            best = int(np.argmax([dist for _, dist in profile]))
            interval, dist = profile[best]
            case = self.cases[index]
            refs[index] = {
                "argmax": (interval.start, interval.end, dist),
                "repeat": self.comparable(self.answer_of(case, self.request(case))),
            }
        return refs

    def agrees(self, case, answer, first, reference):
        problems = []
        if not answer["complete"]:
            problems.append("degraded or incomplete search")
        if self.comparable(answer) != self.comparable(first):
            problems.append("discords, calls or density differ from the first pass")
        if reference is not None:
            if self.comparable(answer) != reference["repeat"]:
                problems.append("discords, calls or density differ on a repetition")
            top = answer["discords"][0] if answer["discords"] else None
            argmax = reference["argmax"]
            # A tie in nn distance may legitimately pick another interval.
            if top is None or (top[:2] != argmax[:2] and top[2] != argmax[2]):
                problems.append(
                    f"rank-0 discord {top} is not the nearest-neighbour argmax {argmax}"
                )
        return problems

    def corrupt(self, answer):
        bad = dict(answer)
        start, end, dist = answer["discords"][0]
        bad["discords"] = ((start + 1, end + 1, dist * 0.5),) + answer["discords"][1:]
        return bad


class DensityLong(Workload):
    """Linear-time rule density (fit + density anomalies) on long series."""

    name = "density_long"
    local_speed = False
    # ~21 requests in a 20 s run: no percentile above the median keeps
    # ten samples beyond it, so the tail is the median here.
    tail_percentile = 50.0

    def make_cases(self, seed):
        return inputs.density_long_cases(seed)

    def warm_up(self) -> None:
        # Same code path on a 10k-point prefix, to keep set-up short.
        case = self.cases[0]
        detector = GrammarAnomalyDetector(case.window, case.paa_size, case.alphabet_size)
        detector.fit(case.series[:10_000])
        detector.density_anomalies()

    def request(self, case):
        detector = GrammarAnomalyDetector(
            case.window, case.paa_size, case.alphabet_size, seed=self.seed
        )
        fitted = detector.fit(case.series)
        return fitted, detector.density_anomalies()

    def answer_of(self, case, output):
        fitted, density = output
        return {
            "curve": fitted.density,
            "anomalies": tuple((a.start, a.end) for a in density),
            "intervals": fitted.intervals,
        }

    def light(self, answer):
        return {k: v for k, v in answer.items() if k != "intervals"}

    def is_hit(self, case, answer):
        if not answer["anomalies"]:
            return False
        start, end = answer["anomalies"][0]
        return case.dataset.contains_hit(start, end)

    def references(self, first):
        refs = {}
        for index, answer in first.items():
            n = self.cases[index].points
            count = np.zeros(n, dtype=np.int64)
            for iv in answer["intervals"]:
                if iv.start < n:
                    count[iv.start : min(iv.end, n)] += 1
            refs[index] = count
        return refs

    def agrees(self, case, answer, first, reference):
        problems = []
        if reference is not None and not np.array_equal(answer["curve"], reference):
            problems.append("density curve differs from a direct coverage count")
        if answer["anomalies"] != first["anomalies"] or not np.array_equal(
            answer["curve"], first["curve"]
        ):
            problems.append("density answer differs from the first pass")
        return problems

    def corrupt(self, answer):
        curve = np.array(answer["curve"], copy=True)
        curve[curve.size // 2] += 1
        return dict(answer, curve=curve)


class Ensemble(Workload):
    """The default parameter-free ensemble at two workers (a fixed subset
    of the Table-1 rows, two draws)."""

    name = "ensemble"
    local_speed = False
    tail_percentile = 55.0
    draws = 2

    def make_cases(self, seed):
        return inputs.table1_cases(seed, inputs.ENSEMBLE_ROWS, draws=self.draws)

    def request(self, case, *, n_workers=ENSEMBLE_WORKERS, **kwargs):
        return EnsembleDetector(n_workers=n_workers, seed=self.seed, **kwargs).fit(
            case.series
        )

    def answer_of(self, case, result):
        best = result.best
        return {
            "digest": aggregate_score_digest(result.scores),
            "best": None if best is None else (best.start, best.end),
            "ledger": tuple(
                (o.status, int(o.distance_calls)) for o in result.members
            ),
            "degraded": bool(result.degraded),
            "contributing": int(result.contributing),
        }

    def is_hit(self, case, answer):
        return answer["best"] is not None and case.dataset.contains_hit(*answer["best"])

    def distance_calls(self, first_answers):
        return sum(
            calls for answer in first_answers.values() for _, calls in answer["ledger"]
        )

    def references(self, first):
        # Serial fits of the first draw (each costs a full ensemble fit).
        return {
            index: self.answer_of(
                self.cases[index], self.request(self.cases[index], n_workers=1)
            )["digest"]
            for index in first
            if index < len(inputs.ENSEMBLE_ROWS)
        }

    def agrees(self, case, answer, first, reference):
        problems = []
        if answer["degraded"] or any(s != "ok" for s, _ in answer["ledger"]):
            problems.append("degraded ensemble or a member that did not finish")
        if answer != first:
            problems.append("ensemble answer differs from the first pass")
        if reference is not None and answer["digest"] != reference:
            problems.append("2-worker score digest differs from the serial digest")
        return problems

    def corrupt(self, answer):
        return dict(answer, digest=answer["digest"][::-1])


class Stream(Workload):
    """Point-by-point streaming over the Table-1 stand-ins, then flush.

    A latency sample is one ``push``; a request, for failure accounting
    and the hit rate, is one whole series streamed.
    """

    name = "stream"
    tail_percentile = 99.0
    probes_inside = True

    def make_cases(self, seed):
        return inputs.table1_cases(seed)

    def request(self, case, samples=None, host=None):
        detector = StreamingAnomalyDetector(case.window, case.paa_size, case.alphabet_size)
        alarms = []
        push = detector.push
        values = case.series.tolist()
        if samples is None:
            for value in values:
                alarms.extend(push(value))
        else:
            clock = time.perf_counter_ns
            buf, pos = samples.ns, samples.count
            for lo in range(0, len(values), PROBE_EVERY):
                chunk_start = time.perf_counter()
                for value in values[lo : lo + PROBE_EVERY]:
                    start = clock()
                    emitted = push(value)
                    buf[pos] = clock() - start
                    pos += 1
                    alarms.extend(emitted)
                if host is not None:
                    group = host.cover(time.perf_counter() - chunk_start)
                    samples.chunks.append((pos, group))
            samples.count = pos
        alarms.extend(detector.flush())
        return alarms, detector.tokens_emitted

    def answer_of(self, case, output):
        alarms, _ = output
        return tuple(
            (a.start, a.end, a.first_token, a.last_token, a.detected_at) for a in alarms
        )

    def is_hit(self, case, answer):
        return any(case.dataset.contains_hit(a[0], a[1]) for a in answer)

    def references(self, first):
        # Streaming has no offline oracle: the first pass of this run is
        # the reference, and every repetition must match it.
        return dict(first)

    def agrees(self, case, answer, first, reference):
        if answer == first and (reference is None or answer == reference):
            return []
        return ["alarms differ from the first pass"]

    def corrupt(self, answer):
        if not answer:
            return ((0, 1, 0, 0, 0),)
        head = answer[0]
        return ((head[0], head[1], head[2], head[3], head[4] + 1),) + answer[1:]


WORKLOADS = {cls.name: cls for cls in (Table1, DensityLong, Ensemble, Stream)}
