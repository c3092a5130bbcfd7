"""End-to-end streaming anomaly detector.

Values flow through the online discretizer into a live Sequitur
grammar.  Periodically (every ``check_every`` emitted tokens) the
detector inspects the live start rule for *matured* uncovered token
runs: terminals that are still part of no rule even though at least
``confirmation_tokens`` further tokens have been processed since.  By
the paper's argument such tokens are algorithmically anomalous — the
compressor had ample opportunity to fold them into a rule and could
not.  Each newly matured run is reported once, as a
:class:`StreamAlarm` carrying the corresponding raw-series interval.

The confirmation lag is the streaming trade-off: a *small* lag reports
anomalies quickly but may flag fresh tokens that simply have not
repeated yet; a *large* lag approaches the offline result.  The
detection-delay benchmark (bench_streaming.py) quantifies this.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.exceptions import CheckpointError, DataQualityError, ParameterError
from repro.sax.discretize import NumerosityReduction, SAXWord
from repro.streaming.online_sax import OnlineDiscretizer
from repro.streaming.online_sequitur import IncrementalSequitur

logger = logging.getLogger(__name__)

#: Format tag of :meth:`StreamingAnomalyDetector.snapshot` documents.
SNAPSHOT_FORMAT = "repro-streaming-snapshot/1"

#: Valid values for the *nonfinite_policy* argument.
NONFINITE_POLICIES = ("raise", "skip")


@dataclass(frozen=True)
class StreamAlarm:
    """One reported anomaly in the stream.

    Attributes
    ----------
    start, end:
        Half-open raw-series interval covered by the anomalous tokens'
        windows.
    first_token, last_token:
        Inclusive indices of the uncovered token run.
    detected_at:
        Stream position (number of points consumed) when the alarm
        fired; ``detected_at - start`` is the detection delay.
    """

    start: int
    end: int
    first_token: int
    last_token: int
    detected_at: int

    @property
    def delay(self) -> int:
        """Points between the anomaly's start and its detection."""
        return self.detected_at - self.start


class StreamingAnomalyDetector:
    """Online grammar-based anomaly detection (paper §7 future work).

    Parameters
    ----------
    window, paa_size, alphabet_size:
        Discretization parameters (as in the offline detector).
    confirmation_tokens:
        An uncovered token run is only reported once this many tokens
        have been emitted *after* it (maturity lag).
    check_every:
        Inspect the grammar every this-many emitted tokens.
    min_run_tokens:
        Ignore uncovered runs shorter than this many tokens.  The
        default of 2 filters the single-token gaps that measurement
        noise produces (one odd word that never repeats) while real
        anomalies — which disrupt several consecutive windows — span
        many tokens.
    numerosity_reduction:
        Token-stream compaction strategy.
    nonfinite_policy:
        What :meth:`push` does with a NaN/Inf value: ``"raise"``
        (default) raises :class:`~repro.exceptions.DataQualityError`;
        ``"skip"`` drops the point, logs a warning, and counts it in
        :attr:`dropped_points` — the stream continues as if the point
        never arrived.

    Examples
    --------
    >>> import numpy as np
    >>> detector = StreamingAnomalyDetector(50, 4, 4,
    ...                                     confirmation_tokens=20)
    >>> t = np.arange(4000)
    >>> series = np.sin(2 * np.pi * t / 100)
    >>> series[2000:2100] += 2.0
    >>> alarms = []
    >>> for value in series:
    ...     alarms.extend(detector.push(value))
    >>> alarms = alarms or detector.flush()
    >>> any(a.start < 2150 and 1950 < a.end for a in alarms)
    True
    """

    def __init__(
        self,
        window: int,
        paa_size: int,
        alphabet_size: int,
        *,
        confirmation_tokens: int = 25,
        check_every: int = 10,
        min_run_tokens: int = 2,
        numerosity_reduction: NumerosityReduction = NumerosityReduction.EXACT,
        nonfinite_policy: str = "raise",
    ) -> None:
        if confirmation_tokens < 1:
            raise ParameterError(
                f"confirmation_tokens must be >= 1, got {confirmation_tokens}"
            )
        if check_every < 1:
            raise ParameterError(f"check_every must be >= 1, got {check_every}")
        if min_run_tokens < 1:
            raise ParameterError(f"min_run_tokens must be >= 1, got {min_run_tokens}")
        if nonfinite_policy not in NONFINITE_POLICIES:
            raise ParameterError(
                f"nonfinite_policy must be one of {NONFINITE_POLICIES}, "
                f"got {nonfinite_policy!r}"
            )
        self.nonfinite_policy = nonfinite_policy
        self.dropped_points = 0
        self.window = window
        self.confirmation_tokens = confirmation_tokens
        self.check_every = check_every
        self.min_run_tokens = min_run_tokens
        self._discretizer = OnlineDiscretizer(
            window, paa_size, alphabet_size, strategy=numerosity_reduction
        )
        self._sequitur = IncrementalSequitur()
        self._words: list[SAXWord] = []
        self._reported: set[tuple[int, int]] = set()
        self._since_check = 0

    # -- feeding ---------------------------------------------------------

    def push(self, value: float) -> list[StreamAlarm]:
        """Consume one point; return any alarms that matured.

        Non-finite values follow the *nonfinite_policy*: raised as
        :class:`~repro.exceptions.DataQualityError`, or skipped (logged
        and counted, the stream position does not advance).
        """
        value = float(value)
        if not math.isfinite(value):
            if self.nonfinite_policy == "raise":
                raise DataQualityError(
                    f"non-finite value {value!r} pushed at stream position "
                    f"{self.points_consumed}; construct the detector with "
                    f"nonfinite_policy='skip' to drop such points"
                )
            self.dropped_points += 1
            logger.warning(
                "dropping non-finite value %r at stream position %d "
                "(%d dropped so far)",
                value,
                self.points_consumed,
                self.dropped_points,
            )
            return []
        word = self._discretizer.push(value)
        if word is None:
            return []
        self._words.append(word)
        self._sequitur.push(word.word)
        self._since_check += 1
        if self._since_check >= self.check_every:
            self._since_check = 0
            return self._collect_alarms(require_maturity=True)
        return []

    def push_many(self, values: Iterable[float]) -> list[StreamAlarm]:
        """Consume several points in order; return all alarms raised."""
        alarms: list[StreamAlarm] = []
        for value in values:
            alarms.extend(self.push(value))
        return alarms

    def flush(self) -> list[StreamAlarm]:
        """End-of-stream: report remaining uncovered runs regardless of
        maturity (there will be no further chance to compress them)."""
        return self._collect_alarms(require_maturity=False)

    # -- state -----------------------------------------------------------

    @property
    def points_consumed(self) -> int:
        return self._discretizer.position

    @property
    def tokens_emitted(self) -> int:
        return len(self._words)

    def grammar_snapshot(self):
        """Full offline-style grammar of everything consumed so far."""
        return self._sequitur.snapshot()

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state for :meth:`restore`.

        Captures the discretizer (buffer, rolling sums, numerosity
        state), the emitted words, the reported-alarm set, and the check
        cadence.  The live grammar is *not* serialized — it is rebuilt
        deterministically by replaying the token stream, which Sequitur
        guarantees reproduces the identical grammar.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "params": {
                "window": self.window,
                "paa_size": self._discretizer.paa_size,
                "alphabet_size": self._discretizer.alphabet_size,
                "confirmation_tokens": self.confirmation_tokens,
                "check_every": self.check_every,
                "min_run_tokens": self.min_run_tokens,
                "numerosity_reduction": self._discretizer.strategy.value,
                "nonfinite_policy": self.nonfinite_policy,
            },
            "discretizer": self._discretizer.state_dict(),
            "words": [[w.word, w.offset] for w in self._words],
            "reported": sorted([f, l] for f, l in self._reported),
            "since_check": self._since_check,
            "dropped_points": self.dropped_points,
        }

    @classmethod
    def restore(cls, state: dict) -> "StreamingAnomalyDetector":
        """Rebuild a detector from a :meth:`snapshot` document.

        The restored detector continues the stream exactly where the
        snapshot left off: same pending window buffer, same grammar,
        same already-reported alarms.
        """
        if not isinstance(state, dict) or state.get("format") != SNAPSHOT_FORMAT:
            raise CheckpointError(
                f"not a {SNAPSHOT_FORMAT} snapshot (format="
                f"{state.get('format') if isinstance(state, dict) else None!r})"
            )
        try:
            params = state["params"]
            detector = cls(
                int(params["window"]),
                int(params["paa_size"]),
                int(params["alphabet_size"]),
                confirmation_tokens=int(params["confirmation_tokens"]),
                check_every=int(params["check_every"]),
                min_run_tokens=int(params["min_run_tokens"]),
                numerosity_reduction=NumerosityReduction(
                    params["numerosity_reduction"]
                ),
                nonfinite_policy=str(params["nonfinite_policy"]),
            )
            detector._discretizer.load_state(state["discretizer"])
            detector._words = [
                SAXWord(str(word), int(offset)) for word, offset in state["words"]
            ]
            detector._reported = {
                (int(first), int(last)) for first, last in state["reported"]
            }
            detector._since_check = int(state["since_check"])
            detector.dropped_points = int(state.get("dropped_points", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed streaming snapshot: {exc}") from exc
        for word in detector._words:
            detector._sequitur.push(word.word)
        return detector

    # -- the detection rule -----------------------------------------------

    def _collect_alarms(self, *, require_maturity: bool) -> list[StreamAlarm]:
        alarms: list[StreamAlarm] = []
        total_tokens = len(self._words)
        for first, last in self._sequitur.uncovered_token_runs():
            if last - first + 1 < self.min_run_tokens:
                continue
            if require_maturity and total_tokens - 1 - last < self.confirmation_tokens:
                continue
            key = (first, last)
            if key in self._reported or self._is_extension_of_reported(first, last):
                continue
            self._reported.add(key)
            start = self._words[first].offset
            end = self._words[last].offset + self.window
            alarms.append(
                StreamAlarm(
                    start=start,
                    end=end,
                    first_token=first,
                    last_token=last,
                    detected_at=self.points_consumed,
                )
            )
        return alarms

    def _is_extension_of_reported(self, first: int, last: int) -> bool:
        """Suppress re-reports when a run grows or shifts slightly.

        The live R0 evolves; a previously reported run may reappear with
        a boundary moved by a token or two.  Any overlap with an
        already-reported run suppresses the new one.
        """
        for r_first, r_last in self._reported:
            if first <= r_last and r_first <= last:
                return True
        return False
