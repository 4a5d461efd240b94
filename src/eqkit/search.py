"""Seeded randomized search for restricted-MDS matrices with full verification.

Entries are drawn from a counter-based SHA-256 stream keyed per entry by
(seed, attempt, row, column), so a (seed, parameters) pair reproduces the
same matrices on every platform.

search_rmds samples and decides candidates in stacks of 1, 2, 4, ...
consecutive attempts: one (B, rm, n) array per stack (_sample_stack), and
one zero-pattern product that gives every candidate's verdict at once.
Doubling stops where one stack's product would pass _CHUNK_BYTES.  The
first passing attempt of the first stack that has one is returned, so the
hits and attempt counts are those of deciding one candidate at a time.
Where the block loop pays (see verify._zero_pattern_pays), a stack's
candidates are decided in that order by the block loop instead.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

import numpy as np

from .matrix import AlphabetSpec, IntMatrix
from .verify import (  # is_rmds stays a module attribute here for perfbench's tracer
    _check_cap,
    _failing_block,
    _rmds_passes,
    _stack_limit,
    _theorem3_bound,
    _zero_pattern_pays,
    is_rmds,
)

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

    Entry (i, j) is _entry_value(seed, attempt, i, j, 2*weight+1) - weight:
    the matrix _sample_stack draws for this one attempt.
    """
    if rows < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    _check_weight(weight)
    return IntMatrix(_sample_stack(rows, n, weight, seed, attempt, attempt + 1)[0])


def _sample_stack(rows: int, n: int, weight: int, seed: int, first: int, stop: int) -> np.ndarray:
    """(stop - first, rows, n) int64 stack of the matrices of attempts first..stop-1.

    One SHA-256 digest per entry: the first word of each is read at once
    from the joined digests, and only a rejected one goes back to
    _entry_value for the rest of the stream.  The value w % span - weight is
    taken modulo 2^64 and read as int64, which is exact for weight < 2^63.
    """
    span = 2 * weight + 1
    sha256 = hashlib.sha256
    cells = [f"{i}/{j}/0".encode() for i in range(rows) for j in range(n)]
    digests = b"".join([
        sha256(prefix + cell).digest()
        for prefix in [f"{seed}/{attempt}/".encode() for attempt in range(first, stop)]
        for cell in cells
    ])
    words = np.frombuffer(digests, ">u8")[::4].astype(np.uint64)
    # The largest accepted word, _WORD_MAX - 1 at span 1, fits in uint64.
    for k in np.flatnonzero(words > _WORD_MAX - _WORD_MAX % span - 1).tolist():
        attempt, cell = divmod(k, rows * n)
        # A value in [0, span) stands in for a rejected word: % span keeps it.
        words[k] = _entry_value(seed, first + attempt, *divmod(cell, n), span)
    values = words % np.uint64(span) - np.uint64(weight)
    return values.view(np.int64).reshape(stop - first, rows, n)


def _first_rmds(stack: np.ndarray, weight: int, m: int, q: int) -> Optional[int]:
    """Index of the first matrix of ``stack`` whose every m-row block is EQ_q, or None.

    One zero-pattern product decides the whole stack where it pays, as in
    is_rmds; elsewhere the matrices are decided in order by the block loop.
    """
    _, rows, n = stack.shape
    if _zero_pattern_pays(rows, m, n, q):
        passing = np.flatnonzero(_rmds_passes(stack, weight, m, q))
        return int(passing[0]) if passing.size else None
    blocks = (_failing_block(IntMatrix(a), m, q) for a in stack)
    return next((k for k, block in enumerate(blocks) if block is None), None)


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
    Candidates are sampled and decided in stacks of doubling size.
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
    limit = _stack_limit(r * m, n, q, weight)
    first, size = 0, 1
    while first < max_attempts:
        stop = min(first + size, max_attempts)
        stack = _sample_stack(r * m, n, weight, seed, first, stop)
        k = _first_rmds(stack, weight, m, q)
        if k is not None:
            return IntMatrix(stack[k]), first + k + 1
        first = stop
        if 2 * size <= limit:
            size *= 2
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
