"""SAX alphabet: Gaussian equiprobable breakpoints and symbol lookup.

Since z-normalized subsequences are approximately Gaussian, SAX divides
the real line into ``alpha`` regions of equal probability under N(0, 1)
and assigns one letter per region ('a' for the lowest region).  The
breakpoints are the N(0,1) quantiles at i/alpha, i = 1..alpha-1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.stats import norm

from repro.exceptions import ParameterError

MIN_ALPHABET_SIZE = 2
MAX_ALPHABET_SIZE = 26  # one Latin letter per symbol

#: First symbol of the alphabet; region i maps to chr(ord('a') + i).
_FIRST_SYMBOL = "a"


def _validate_alphabet_size(alpha: int) -> None:
    if not MIN_ALPHABET_SIZE <= alpha <= MAX_ALPHABET_SIZE:
        raise ParameterError(
            f"alphabet size must be in [{MIN_ALPHABET_SIZE}, {MAX_ALPHABET_SIZE}], "
            f"got {alpha}"
        )


@lru_cache(maxsize=None)
def breakpoints(alpha: int) -> tuple[float, ...]:
    """The ``alpha - 1`` N(0,1) equiprobable breakpoints.

    ``breakpoints(4) == (-0.674..., 0.0, 0.674...)``.
    """
    _validate_alphabet_size(alpha)
    qs = np.arange(1, alpha) / alpha
    return tuple(float(x) for x in norm.ppf(qs))


@lru_cache(maxsize=None)
def breakpoints_array(alpha: int) -> np.ndarray:
    """:func:`breakpoints` as a cached read-only numpy array.

    Hot paths (window-by-window SAX conversion, parameter-grid sweeps)
    call ``np.searchsorted`` against the breakpoints thousands of times;
    caching the array form avoids rebuilding it on every call.
    """
    cuts = np.asarray(breakpoints(alpha), dtype=float)
    cuts.flags.writeable = False
    return cuts


@lru_cache(maxsize=None)
def alphabet_letters(alpha: int) -> tuple[str, ...]:
    """The *alpha* SAX letters, cached (``('a', 'b', ...)``)."""
    _validate_alphabet_size(alpha)
    return tuple(chr(ord(_FIRST_SYMBOL) + i) for i in range(alpha))


def symbol_for_value(value: float, alpha: int) -> str:
    """Map a single z-normalized value to its SAX letter."""
    cuts = breakpoints(alpha)
    idx = int(np.searchsorted(cuts, value, side="right"))
    return chr(ord(_FIRST_SYMBOL) + idx)


def symbols_for_values(values: np.ndarray, alpha: int) -> str:
    """Map an array of values (e.g. PAA means) to a SAX word string."""
    cuts = breakpoints_array(alpha)
    idxs = np.searchsorted(cuts, np.asarray(values, dtype=float), side="right")
    letters = alphabet_letters(alpha)
    return "".join(letters[int(i)] for i in idxs)


def letter_indices(paa_values: np.ndarray, alpha: int) -> np.ndarray:
    """SAX region index of every PAA value (vectorized, any shape).

    The array form of :func:`symbols_for_values`: region ``r`` holds
    values in ``[cut_{r-1}, cut_r)`` via ``searchsorted(..., side="right")``.
    """
    cuts = breakpoints_array(alpha)
    return np.searchsorted(cuts, np.asarray(paa_values, dtype=float), side="right")


def symbol_index(symbol: str) -> int:
    """Inverse of the letter mapping: 'a' -> 0, 'b' -> 1, ..."""
    if len(symbol) != 1 or not symbol.islower() or not symbol.isalpha():
        raise ParameterError(f"not a SAX symbol: {symbol!r}")
    return ord(symbol) - ord(_FIRST_SYMBOL)
