"""Exhaustive and algebraic oracles for the matrix properties, plus the bound formulas.

The enumeration-based checks (is_eq_q, is_rmds) are budgeted by an explicit
step cap and return deterministic witnesses regardless of chunking or thread
count.  Vectors are enumerated with coordinate 0 varying fastest, so the
highest coordinate (the most significant one under the power-of-two weight
convention) is compared first and the order agrees with ascending integer
value; component values are ordered -(q-1) < ... < q-1.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .matrix import (
    _INT64_SAFE,
    AlphabetSpec,
    Counterexample,
    IntMatrix,
    checked,
    matvec,
)

DEFAULT_STEP_CAP = 10**8

_CHUNK = 1 << 15


class CapExceededError(RuntimeError):
    """The requested enumeration needs more elementary steps than allowed."""

    def __init__(self, required: int, allowed: int):
        super().__init__(
            f"enumeration needs {required} elementary steps, cap allows {allowed}"
        )
        self.required = required
        self.allowed = allowed


@dataclass(frozen=True)
class RmdsWitness:
    """Row block (0-based indices) whose submatrix admits a kernel vector."""

    rows: tuple[int, ...]
    kernel: Counterexample


@dataclass(frozen=True)
class BoundsReport:
    n: int
    m: Optional[int]
    weight: Optional[int]
    siegel_norm_bound: Optional[float]
    lemma2_rate_bound: float
    theorem3_mds_bound: Optional[int]
    r_constr: Optional[Fraction]
    r_upper: Optional[float]
    ratio: Optional[float]


def _check_cap(required: int, cap: Optional[int]) -> None:
    allowed = DEFAULT_STEP_CAP if cap is None else cap
    if required > allowed:
        raise CapExceededError(required, allowed)


@lru_cache(maxsize=64)
def _digit_block(start: int, stop: int, n: int, base: int) -> np.ndarray:
    """Base-``base`` digit rows for counter values [start, stop), coordinate j = digit j."""
    vals = np.arange(start, stop, dtype=np.int64)
    divisors = base ** np.arange(n, dtype=np.int64)
    digits = (vals[:, None] // divisors[None, :]) % base
    digits.flags.writeable = False
    return digits


def _digits_of(value: int, n: int, base: int) -> tuple[int, ...]:
    return tuple((value // base**j) % base for j in range(n))


def _chunks(total: int) -> list[tuple[int, int]]:
    return [(s, min(s + _CHUNK, total)) for s in range(0, total, _CHUNK)]


def _scan_ordered(spans, scan, threads: int):
    """First non-None scan(span) result in span order, optionally threaded."""
    if threads <= 1:
        for span in spans:
            hit = scan(span)
            if hit is not None:
                return hit
        return None
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for hit in pool.map(scan, spans):
            if hit is not None:
                return hit
    return None


def is_eq_q(
    a: IntMatrix,
    q: int,
    mode: str = "kernel",
    cap: Optional[int] = None,
    threads: int = 1,
) -> Optional[Counterexample]:
    """Exhaustive EQ_q oracle; None means the property holds.

    kernel mode enumerates {-(q-1),..,q-1}^n \\ {0} and returns the first
    kernel vector; injectivity mode enumerates the encodings {0,..,q-1}^n
    and returns the difference of the first colliding pair (earlier member
    minus later member).
    """
    alphabet = AlphabetSpec(q)
    if mode == "kernel":
        _check_cap(alphabet.kernel_size**a.n, cap)
        return _kernel_search(a, q, threads)
    if mode == "injectivity":
        _check_cap(q**a.n, cap)
        return _injectivity_search(a, q, threads)
    raise ValueError(f"unknown mode {mode!r}")


def _vector_bound(a: IntMatrix, q: int) -> int:
    return max(sum(abs(v) for v in row) for row in a.entries) * (q - 1)


def _kernel_search(a: IntMatrix, q: int, threads: int) -> Optional[Counterexample]:
    n = a.n
    base = 2 * q - 1
    total = base**n
    shift = q - 1
    zero_index = shift * (total - 1) // (base - 1)
    if _vector_bound(a, q) >= _INT64_SAFE or a.weight_bound >= _INT64_SAFE:
        return _kernel_search_py(a, q)
    amat = np.array(a.entries, dtype=np.int64)

    def scan(span):
        start, stop = span
        x = _digit_block(start, stop, n, base) - shift
        hits = np.flatnonzero(~(x @ amat.T).any(axis=1))
        for i in hits:
            value = start + int(i)
            if value != zero_index:
                return value
        return None

    hit = _scan_ordered(_chunks(total), scan, threads)
    if hit is None:
        return None
    return Counterexample(tuple(d - shift for d in _digits_of(hit, n, base)))


def _kernel_search_py(a: IntMatrix, q: int) -> Optional[Counterexample]:
    for rev in itertools.product(range(-(q - 1), q), repeat=a.n):
        x = rev[::-1]  # coordinate 0 varies fastest
        if any(x) and not any(matvec(a, x)):
            return Counterexample(x)
    return None


def _injectivity_search(a: IntMatrix, q: int, threads: int) -> Optional[Counterexample]:
    n, m = a.n, a.m
    total = q**n
    bound = _vector_bound(a, q)
    keybase = 2 * bound + 1
    if keybase**m >= _INT64_SAFE:
        return _injectivity_search_py(a, q)
    amat = np.array(a.entries, dtype=np.int64)
    keys = np.empty(total, dtype=np.int64)

    def fill(span):
        start, stop = span
        z = _digit_block(start, stop, n, q) @ amat.T
        acc = z[:, 0] + bound
        for col in range(1, m):
            acc = acc * keybase + (z[:, col] + bound)
        keys[start:stop] = acc
        return None

    _scan_ordered(_chunks(total), fill, threads)
    _, first_of_unique, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    first = first_of_unique[inverse]
    duplicates = np.flatnonzero(first != np.arange(total))
    if duplicates.size == 0:
        return None
    later = int(duplicates[0])
    earlier = int(first[later])
    xe = _digits_of(earlier, n, q)
    xl = _digits_of(later, n, q)
    return Counterexample(tuple(b - c for b, c in zip(xe, xl)))


def _injectivity_search_py(a: IntMatrix, q: int) -> Optional[Counterexample]:
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for rev in itertools.product(range(q), repeat=a.n):
        x = rev[::-1]
        z = matvec(a, x)
        prior = seen.get(z)
        if prior is not None:
            return Counterexample(tuple(b - c for b, c in zip(prior, x)))
        seen[z] = x
    return None


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (division-exact) elimination."""
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("determinant needs a square matrix")
    m = [[checked(int(v)) for v in row] for row in rows]
    sign = 1
    prev = 1
    for i in range(size - 1):
        if m[i][i] == 0:
            for r in range(i + 1, size):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, size):
            for c in range(i + 1, size):
                m[r][c] = checked(
                    (checked(m[r][c] * m[i][i]) - checked(m[r][i] * m[i][c])) // prev
                )
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[size - 1][size - 1]


def is_mds(a: IntMatrix, cap: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """None if every maximal square column-submatrix is nonsingular.

    Otherwise the lexicographically first 0-based column set whose square
    submatrix has determinant 0.
    """
    m, n = a.m, a.n
    if m > n:
        raise ValueError("is_mds requires m <= n")
    _check_cap(math.comb(n, m) * m**3, cap)
    for cols in itertools.combinations(range(n), m):
        square = [[a.entries[i][j] for j in cols] for i in range(m)]
        if det_bareiss(square) == 0:
            return cols
    return None


def is_rmds(
    a: IntMatrix,
    m: int,
    q: int,
    cap: Optional[int] = None,
    threads: int = 1,
) -> Optional[RmdsWitness]:
    """None if every m-row submatrix is an EQ_q matrix.

    Blocks are checked through the encoding-collision route, which decides
    the same property (a collision difference is a kernel vector and every
    kernel vector splits into a colliding pair).  On failure returns the
    lexicographically first failing row set with its kernel witness.  The
    MDS rate rows/m may be rational (the 5-row residue fixture has rate
    5/4), so any m <= rows is accepted.
    """
    if m < 1:
        raise ValueError("block row count m must be >= 1")
    if m > a.m:
        raise ValueError(f"block row count m={m} exceeds row count {a.m}")
    alphabet = AlphabetSpec(q)
    _check_cap(math.comb(a.m, m) * alphabet.kernel_size**a.n, cap)
    for rows in itertools.combinations(range(a.m), m):
        block = IntMatrix.from_rows([a.entries[i] for i in rows])
        witness = _injectivity_search(block, q, threads)
        if witness is not None:
            return RmdsWitness(rows, witness)
    return None


def bounds_report(
    n: int,
    m: Optional[int] = None,
    weight: Optional[int] = None,
    alphabet_size: Optional[int] = None,
    k_iter: Optional[int] = None,
) -> BoundsReport:
    """Closed-form bound and rate figures for the given parameters.

    The norm bound (sqrt(n)*W)^(m/(n-m)) is reported only when n > m >= 1
    and a weight is supplied; otherwise it is flagged absent (None).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    siegel = None
    if m is not None and weight is not None and n > m >= 1:
        siegel = (math.sqrt(n) * weight) ** (m / (n - m))
    mds_bound = None
    if alphabet_size is not None:
        if alphabet_size < 1:
            raise ValueError("alphabet size must be >= 1")
        mds_bound = alphabet_size ** (alphabet_size + 1)
    r_constr = r_upper = ratio = None
    if k_iter is not None:
        if k_iter < 0:
            raise ValueError("construction iteration count must be >= 0")
        r_constr = Fraction(k_iter, 2) + 1
        r_upper = (k_iter + 1 + math.log2(k_iter + 2)) / 2
        ratio = r_upper / float(r_constr)
    return BoundsReport(
        n=n,
        m=m,
        weight=weight,
        siegel_norm_bound=siegel,
        lemma2_rate_bound=0.5 * math.log2(n) + 1,
        theorem3_mds_bound=mds_bound,
        r_constr=r_constr,
        r_upper=r_upper,
        ratio=ratio,
    )


def crt_residue_check(
    primes: Sequence[int], a: IntMatrix, x: Sequence[int]
) -> Optional[int]:
    """Check that prime i divides (A*x)_i for every row; None on success.

    Requires sum(2**i * x_i) = 0 (x is a kernel vector of the power-of-two
    weights); returns the 0-based index of the first failing row otherwise.
    """
    if len(primes) != a.m:
        raise ValueError("one prime per matrix row is required")
    if len(x) != a.n:
        raise ValueError("vector length does not match the matrix")
    if sum(int(v) << i for i, v in enumerate(x)) != 0:
        raise ValueError("x is not a kernel vector of the power-of-two weights")
    image = matvec(a, x)
    for i, (p, z) in enumerate(zip(primes, image)):
        if z % p:
            return i
    return None
