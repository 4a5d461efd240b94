"""Seeded randomized search for restricted-MDS matrices with full verification.

Entries are drawn from a counter-based SHA-256 stream keyed per entry by
(seed, attempt, row, column), so a (seed, parameters) pair reproduces the
same matrices on every platform.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

import numpy as np

from .matrix import AlphabetSpec, IntMatrix
from .verify import _check_cap, _theorem3_bound, is_rmds

_WORD_MAX = 1 << 64
# A span 2W+1 past one word would reject every word, so W stays below 2^63.
_WEIGHT_LIMIT = 1 << 63


def _entry_value(seed: int, attempt: int, row: int, col: int, span: int) -> int:
    """Unbiased value in [0, span) from the per-entry hash stream."""
    rejection_bound = _WORD_MAX - (_WORD_MAX % span)
    ctr = 0
    while True:
        digest = hashlib.sha256(
            f"{seed}/{attempt}/{row}/{col}/{ctr}".encode()
        ).digest()
        for off in range(0, 32, 8):
            word = int.from_bytes(digest[off : off + 8], "big")
            if word < rejection_bound:
                return word % span
        ctr += 1


def _check_weight(weight: int) -> None:
    if weight < 0:
        raise ValueError("weight bound must be >= 0")
    if weight >= _WEIGHT_LIMIT:
        raise ValueError("weight bound must be below 2^63")


def sample_matrix(rows: int, n: int, weight: int, seed: int, attempt: int) -> IntMatrix:
    """rows x n matrix with entries i.i.d. uniform on {-weight,..,weight}.

    Entry (i, j) is _entry_value(seed, attempt, i, j, 2*weight+1) - weight.
    The first word of each entry's first digest is read here; only a
    rejected one goes back to _entry_value for the rest of the stream.
    """
    if rows < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    _check_weight(weight)
    span = 2 * weight + 1
    rejection_bound = _WORD_MAX - (_WORD_MAX % span)
    sha256, from_bytes = hashlib.sha256, int.from_bytes
    suffixes = [f"{j}/0".encode() for j in range(n)]
    values: list[int] = []
    for i in range(rows):
        prefix = f"{seed}/{attempt}/{i}/".encode()
        words = [from_bytes(sha256(prefix + s).digest()[:8], "big") for s in suffixes]
        if max(words) >= rejection_bound:
            # A value in [0, span) stands in for a rejected word: % span keeps it.
            words = [
                w if w < rejection_bound else _entry_value(seed, attempt, i, j, span)
                for j, w in enumerate(words)
            ]
        values += [w % span - weight for w in words]
    return IntMatrix(np.array(values, dtype=np.int64).reshape(rows, n))  # |draws| < 2^63


def theorem3_rate_cap(weight: int) -> int:
    """Largest MDS rate the alphabet {-weight,..,weight} can support: k^(k+1), k = 2W+1."""
    k = 2 * weight + 1
    return k ** (k + 1)


def _exceeds_rate_cap(r: int, weight: int) -> bool:
    """r > theorem3_rate_cap(weight), without building a cap much longer than r."""
    return _theorem3_bound(2 * weight + 1, r - 1) is not None


def search_rmds(
    n: int,
    m: int,
    r: int,
    q: int,
    weight: int,
    seed: int,
    max_attempts: int,
    cap: Optional[int] = None,
) -> tuple[Optional[IntMatrix], int]:
    """First sampled rm x n matrix whose every m-row block is EQ_q.

    Returns (matrix, attempts) on success and (None, max_attempts) when the
    budget is exhausted.  Parameter sets whose rate exceeds the alphabet-size
    bound are refused outright, since no such matrix exists.  The cap is
    charged once, as is_rmds charges each candidate, before any is sampled.
    """
    if n < 1 or m < 1 or r < 1:
        raise ValueError("n, m and r must be positive")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    _check_weight(weight)
    if _exceeds_rate_cap(r, weight):
        rate_cap = theorem3_rate_cap(weight)
        raise ValueError(
            f"MDS rate {r} exceeds the alphabet-size bound {rate_cap} "
            f"for weight {weight}; no such matrix exists"
        )
    AlphabetSpec(q)  # rejects q < 2 before the cap, as is_rmds does
    _check_cap(math.comb(r * m, m) * q**n, cap)
    for attempt in range(max_attempts):
        candidate = sample_matrix(r * m, n, weight, seed, attempt)
        if is_rmds(candidate, m, q, cap=cap) is None:
            return candidate, attempt + 1
    return None, max_attempts


def suggest_params(n: int, r: int, q: int, multiplier: int = 4) -> tuple[int, int]:
    """Default (m, weight) for a search: m = ceil(n / log2 n), weight = max(c*r, 2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if r < 1:
        raise ValueError("r must be >= 1")
    if q < 2:
        raise ValueError("arity q must be at least 2")
    m = math.ceil(n / math.log2(n))
    return m, max(multiplier * r, 2)
