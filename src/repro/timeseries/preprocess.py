"""Series preprocessing utilities: missing values, detrending, resampling.

Real-world inputs (the CLI's CSV files, sensor exports) carry NaNs,
slow drifts, and oversampled resolutions.  These helpers normalize such
series *before* the discretization pipeline; they are deliberately
simple, deterministic, and side-effect-free (every function returns a
new array).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataQualityError, ParameterError


def fill_missing(series: np.ndarray, *, method: str = "linear") -> np.ndarray:
    """Replace NaN/inf values.

    Parameters
    ----------
    series:
        One-dimensional array, possibly containing non-finite entries.
    method:
        ``"linear"`` interpolates between the nearest finite neighbours
        (edges are extended flat); ``"ffill"`` carries the last finite
        value forward (the first finite value is used for a leading
        gap); ``"zero"`` replaces non-finite entries with 0.

    Raises
    ------
    ParameterError
        If the series contains no finite value at all.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ParameterError(f"series must be 1-d, got shape {series.shape}")
    finite = np.isfinite(series)
    if finite.all():
        return series.copy()
    if not finite.any():
        raise ParameterError("series contains no finite values")

    if method == "zero":
        out = series.copy()
        out[~finite] = 0.0
        return out
    if method == "ffill":
        out = series.copy()
        last = series[np.argmax(finite)]  # first finite value
        for i in range(out.size):
            if np.isfinite(out[i]):
                last = out[i]
            else:
                out[i] = last
        return out
    if method == "linear":
        indices = np.arange(series.size)
        return np.interp(indices, indices[finite], series[finite])
    raise ParameterError(f"unknown fill method {method!r}")


def detrend(series: np.ndarray, *, kind: str = "linear") -> np.ndarray:
    """Remove a global trend.

    ``"linear"`` subtracts the least-squares line, ``"mean"`` subtracts
    the mean.  (Per-window z-normalization already handles local drift;
    global detrending helps when the drift dwarfs the signal and would
    dominate the SAX breakpoints.)
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ParameterError(f"series must be 1-d, got shape {series.shape}")
    if series.size == 0:
        return series.copy()
    if kind == "mean":
        return series - series.mean()
    if kind == "linear":
        x = np.arange(series.size, dtype=float)
        slope, intercept = np.polyfit(x, series, 1)
        return series - (slope * x + intercept)
    raise ParameterError(f"unknown detrend kind {kind!r}")


def downsample(series: np.ndarray, factor: int) -> np.ndarray:
    """Reduce resolution by averaging blocks of *factor* points.

    A trailing partial block is averaged too.  This is PAA applied to
    the whole series — the right way to reduce an oversampled input
    before discretization (plain striding would alias).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ParameterError(f"series must be 1-d, got shape {series.shape}")
    if factor < 1:
        raise ParameterError(f"factor must be >= 1, got {factor}")
    if factor == 1 or series.size == 0:
        return series.copy()
    full = (series.size // factor) * factor
    blocks = series[:full].reshape(-1, factor).mean(axis=1)
    if full < series.size:
        blocks = np.append(blocks, series[full:].mean())
    return blocks


def clip_outliers(
    series: np.ndarray, *, z_limit: float = 6.0
) -> np.ndarray:
    """Clamp extreme point outliers to ±*z_limit* robust deviations.

    The grammar pipeline targets *structural* anomalies; a single
    corrupt sample (sensor glitch, parse error) would otherwise stretch
    the z-normalization of every window containing it.  Clipping keeps
    the point (its position still deviates) while bounding its leverage.

    Scale is measured with the median absolute deviation (scaled to be
    consistent with the standard deviation for Gaussian data) — unlike
    mean/std, the MAD is not inflated by the very outliers being
    clipped.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ParameterError(f"series must be 1-d, got shape {series.shape}")
    if z_limit <= 0:
        raise ParameterError(f"z_limit must be positive, got {z_limit}")
    if series.size == 0:
        return series.copy()
    center = float(np.median(series))
    mad = float(np.median(np.abs(series - center)))
    scale = 1.4826 * mad  # Gaussian-consistent
    if scale < 1e-12:
        return series.copy()
    lo = center - z_limit * scale
    hi = center + z_limit * scale
    return np.clip(series, lo, hi)


#: Valid values for the quality-gate *policy* argument.
QUALITY_POLICIES = ("raise", "interpolate", "mask")


def nonfinite_spans(series: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Half-open ``(start, end)`` spans of consecutive non-finite values."""
    series = np.asarray(series, dtype=float)
    bad = ~np.isfinite(series)
    if not bad.any():
        return ()
    edges = np.flatnonzero(np.diff(bad.astype(np.int8)))
    starts = [0] if bad[0] else []
    starts += [int(e) + 1 for e in edges if not bad[e]]
    ends = [int(e) + 1 for e in edges if bad[e]]
    if bad[-1]:
        ends.append(series.size)
    return tuple(zip(starts, ends))


@dataclass(frozen=True)
class QualityReport:
    """Outcome of :func:`quality_gate`.

    Attributes
    ----------
    series:
        The series to hand to the pipeline (repaired under
        ``interpolate``/``mask``; a copy of the input when it was clean).
    mask:
        Boolean array, True where the *original* data was non-finite.
        All-False under the ``interpolate`` policy (the repair is
        trusted); under ``mask`` the flagged regions must be excluded
        from candidate windows by the caller.
    bad_spans:
        The non-finite runs of the original input, half-open.
    policy:
        The policy that was applied.
    """

    series: np.ndarray
    mask: np.ndarray
    bad_spans: tuple[tuple[int, int], ...]
    policy: str

    @property
    def clean(self) -> bool:
        """True when the original input had no non-finite values."""
        return not self.bad_spans


def _check_squares_finite(series: np.ndarray) -> None:
    """Raise when the series' sum of squares overflows float64."""
    with np.errstate(over="ignore"):
        total = np.dot(series, series)
    if not np.isfinite(total):
        peak = float(np.max(np.abs(series)))
        raise DataQualityError(
            f"series values reach magnitude {peak:.6g}; their sum of "
            f"squares overflows float64, so every window statistic would "
            f"be infinite — rescale the series (e.g. divide by {peak:.6g}) "
            f"before searching"
        )


def quality_gate(
    series: np.ndarray, *, policy: str = "raise"
) -> QualityReport:
    """Screen a series for NaN/Inf gaps before the pipeline touches it.

    Policies
    --------
    ``"raise"``
        Any non-finite value raises
        :class:`~repro.exceptions.DataQualityError` naming the offending
        spans (the default: corrupt data never silently becomes SAX
        words).
    ``"interpolate"``
        Non-finite runs are linearly interpolated from their finite
        neighbours and the repaired series is treated as trustworthy
        (all-False mask).
    ``"mask"``
        Non-finite runs are interpolated so distances stay computable,
        but the returned mask flags them; callers must exclude candidate
        windows overlapping flagged regions so no anomaly is ever
        reported from invented data.

    Under every policy, a series whose sum of squares overflows float64
    raises :class:`~repro.exceptions.DataQualityError` naming its
    largest magnitude: the window statistics would overflow to ``inf``
    and the search would silently find nothing.
    """
    if policy not in QUALITY_POLICIES:
        raise ParameterError(
            f"quality policy must be one of {QUALITY_POLICIES}, got {policy!r}"
        )
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ParameterError(f"series must be 1-d, got shape {series.shape}")
    spans = nonfinite_spans(series)
    mask = np.zeros(series.size, dtype=bool)
    if not spans:
        _check_squares_finite(series)
        return QualityReport(series.copy(), mask, (), policy)
    if policy == "raise":
        shown = ", ".join(f"[{s}, {e})" for s, e in spans[:5])
        more = f" (+{len(spans) - 5} more)" if len(spans) > 5 else ""
        raise DataQualityError(
            f"series contains {int((~np.isfinite(series)).sum())} non-finite "
            f"values in spans {shown}{more}; pass policy='interpolate' or "
            f"'mask' to proceed"
        )
    repaired = fill_missing(series, method="linear")
    _check_squares_finite(repaired)
    if policy == "mask":
        for start, end in spans:
            mask[start:end] = True
    return QualityReport(repaired, mask, spans, policy)


def prepare(
    series: np.ndarray,
    *,
    fill: str = "linear",
    detrend_kind: str | None = None,
    downsample_factor: int = 1,
    clip_z: float | None = None,
) -> np.ndarray:
    """One-call preprocessing pipeline: fill -> clip -> detrend -> downsample."""
    out = fill_missing(series, method=fill)
    if clip_z is not None:
        out = clip_outliers(out, z_limit=clip_z)
    if detrend_kind is not None:
        out = detrend(out, kind=detrend_kind)
    if downsample_factor != 1:
        out = downsample(out, downsample_factor)
    return out
