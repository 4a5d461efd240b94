"""Exhaustive and algebraic oracles for the matrix properties, plus the bound formulas.

The enumeration-based checks (is_eq_q, is_rmds) are budgeted by an explicit
step cap and return deterministic witnesses.  Vectors are enumerated with
coordinate 0 varying fastest, so the highest coordinate (the most
significant one under the power-of-two weight convention) is compared first
and the order agrees with ascending integer value; component values are
ordered -(q-1) < ... < q-1.

is_eq_q decides both modes by meet in the middle (Horowitz-Sahni): an exact
key table over the low ceil(n/2) coordinates and a chunked scan of the high
ones, about 2*(2q-1)^ceil(n/2) work; the cap is still charged (2q-1)^n or
q^n.  Injectivity mode enumerates the q^n encodings only on failure, to
report the first colliding pair.

is_rmds decides all m-row blocks at once from the zero pattern of A x over
one vector of each +-x pair, unless checking the blocks one by one costs
fewer element operations; the cap is charged C(rows, m) q^n either way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .matrix import (
    _CHUNK_BYTES,
    _INT64_SAFE,
    AlphabetSpec,
    Counterexample,
    IntMatrix,
    checked,
    matvec,
)

DEFAULT_STEP_CAP = 10**8

_CHUNK = 1 << 15
_TABLE_ROWS = 1 << 20
_GRID_ROWS = 1 << 12


class CapExceededError(RuntimeError):
    """The requested enumeration needs more elementary steps than allowed."""

    def __init__(self, required: int, allowed: int):
        super().__init__(
            f"enumeration needs {_count(required)} elementary steps, "
            f"cap allows {_count(allowed)}"
        )
        self.required = required
        self.allowed = allowed


def _count(value: int) -> str:
    """value in decimal, or by its bit length when too long to print."""
    try:
        return str(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"at least 2^{value.bit_length() - 1}"


@dataclass(frozen=True)
class RmdsWitness:
    """Row block (0-based indices) whose submatrix admits a kernel vector.

    The kernel witness, the first encoding-collision difference of the
    block, is searched for on first use: a caller that needs only the
    verdict or the rows never pays for it.
    """

    rows: tuple[int, ...]
    block: IntMatrix = field(repr=False)
    q: int = field(repr=False)

    @cached_property
    def kernel(self) -> Counterexample:
        return _injectivity_search(self.block, self.q)


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


def _digits_of(value: int, n: int, base: int) -> tuple[int, ...]:
    return tuple((value // base**j) % base for j in range(n))


def is_eq_q(
    a: IntMatrix,
    q: int,
    mode: str = "kernel",
    cap: Optional[int] = None,
) -> Optional[Counterexample]:
    """Exhaustive EQ_q oracle; None means the property holds.

    kernel mode returns the first vector of {-(q-1),..,q-1}^n \\ {0} in
    enumeration order with A x = 0; injectivity mode returns the difference
    of the first colliding pair of encodings in {0,..,q-1}^n (earlier member
    minus later member).
    """
    alphabet = AlphabetSpec(q)
    if mode == "kernel":
        _check_cap(alphabet.kernel_size**a.n, cap)
        return _kernel_search(a, q)
    if mode == "injectivity":
        _check_cap(q**a.n, cap)
        if _kernel_search(a, q) is None:
            return None
        return _injectivity_search(a, q)
    raise ValueError(f"unknown mode {mode!r}")


def _packed_row(a: IntMatrix, q: int) -> np.ndarray:
    """One row c with c.x = 0 exactly when A x = 0, for x in {-(q-1),..,q-1}^n.

    Row i of A x lies in [-B_i, B_i] with B_i = (q-1) * sum_j |a_ij|, so the
    balanced mixed-radix weights W_i = prod_{k<i} (2 B_k + 1) pack A x into
    one integer without collisions: c = W A.  int64 when prod (2 B_i + 1) is
    below _INT64_SAFE (every partial sum of c.x then fits), else an object
    array of exact Python ints.
    """
    coef = [0] * a.n
    weight = 1
    for row in a.entries:
        coef = [c + weight * v for c, v in zip(coef, row)]
        weight *= 2 * (q - 1) * sum(abs(v) for v in row) + 1
    return np.array(coef, dtype=np.int64 if weight < _INT64_SAFE else object)


@lru_cache(maxsize=32)
def _digit_grid(n: int, values: range) -> np.ndarray:
    """Row v is the vector of values^n with counter v (coordinate 0 fastest)."""
    base = len(values)
    grid = np.arange(base**n)[:, None] // base ** np.arange(n) % base + values.start
    grid.flags.writeable = False
    return grid


def _keys(coef: np.ndarray, values: range) -> np.ndarray:
    """c.x for every x in values^len(c), in counter order (first coordinate fastest).

    A cached grid of at most _GRID_ROWS rows covers the first coordinates
    (all of them for is_rmds blocks); each further one is a broadcast add.
    """
    head = 0
    while head < coef.size and len(values) ** (head + 1) <= _GRID_ROWS:
        head += 1
    keys = _digit_grid(head, values) @ coef[:head]
    for c in coef[head:]:
        digits = np.arange(values.start, values.stop).astype(coef.dtype)
        keys = (digits[:, None] * c + keys).ravel()
    return keys


def _kernel_search(a: IntMatrix, q: int) -> Optional[Counterexample]:
    """First nonzero kernel vector in enumeration order, by meet in the middle.

    The counter splits as v = v_low + base**low * v_high.  The low table maps
    each key c_L.x_L to its smallest low counter; the high counters are
    scanned in ascending order, looking up -c_H.x_H in chunks of at most
    _CHUNK: the negated keys of the first high coordinates, built once, minus
    one scalar per chunk for the rest.  The first hit therefore has the
    smallest v_high and, for it, the smallest v_low.  x_high = 0 instead
    needs the smallest nonzero x_low with key 0.
    """
    n, base, values = a.n, 2 * q - 1, range(1 - q, q)
    coef = _packed_row(a, q)
    low = (n + 1) // 2
    while base**low > _TABLE_ROWS:
        low -= 1
    keys = _keys(coef[:low], values)
    table, first = np.unique(keys, return_index=True)
    zero_low = (q - 1) * (base**low - 1) // (base - 1)
    zero_alt = next((int(v) for v in np.flatnonzero(keys == 0) if v != zero_low), None)
    high = n - low
    zero_high = (q - 1) * (base**high - 1) // (base - 1)
    span = 0
    while span < high and base ** (span + 1) <= _CHUNK:
        span += 1
    head = -_keys(coef[low : low + span], values)
    target = np.empty_like(head)
    for rest in range(base ** (high - span)):
        digits = zip(_digits_of(rest, high - span, base), coef[low + span :])
        np.subtract(head, sum((d + 1 - q) * int(c) for d, c in digits), out=target)
        start = rest * head.size
        idx = np.minimum(np.searchsorted(table, target), table.size - 1)
        hit = table[idx] == target
        if start <= zero_high < start + hit.size:
            hit[zero_high - start] = zero_alt is not None
        pos = np.flatnonzero(hit)
        if pos.size:
            v_high = start + int(pos[0])
            v_low = zero_alt if v_high == zero_high else int(first[idx[pos[0]]])
            value = v_low + base**low * v_high
            return Counterexample(tuple(d + 1 - q for d in _digits_of(value, n, base)))
    return None


def _injectivity_search(a: IntMatrix, q: int) -> Optional[Counterexample]:
    keys = _keys(_packed_row(a, q), range(q))
    _, first_of_unique, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    first = first_of_unique[inverse]
    duplicates = np.flatnonzero(first != np.arange(keys.size))
    if duplicates.size == 0:
        return None
    later = int(duplicates[0])
    earlier = int(first[later])
    xe = _digits_of(earlier, a.n, q)
    xl = _digits_of(later, a.n, q)
    return Counterexample(tuple(b - c for b, c in zip(xe, xl)))


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
) -> Optional[RmdsWitness]:
    """None if every m-row submatrix is an EQ_q matrix.

    On failure returns the lexicographically first failing row set; its
    kernel witness comes from the block's encoding-collision search (a
    collision difference is a kernel vector and every kernel vector splits
    into a colliding pair).  The row set comes from one zero-pattern product
    (_zero_pattern_block) unless checking the blocks in order by that
    search costs fewer element operations.  The MDS rate rows/m may be
    rational (the 5-row residue fixture has rate 5/4), so any m <= rows is
    accepted.  The cap is charged q^n encodings per block on both routes.
    """
    if m < 1:
        raise ValueError("block row count m must be >= 1")
    if m > a.m:
        raise ValueError(f"block row count m={m} exceeds row count {a.m}")
    AlphabetSpec(q)  # rejects q < 2
    _check_cap(math.comb(a.m, m) * q**a.n, cap)
    if _zero_pattern_pays(a.m, m, a.n, q):
        rows = _zero_pattern_block(a, m, q)
        if rows is None:
            return None
        return RmdsWitness(rows, IntMatrix.from_rows(a.entries[i] for i in rows), q)
    for rows in itertools.combinations(range(a.m), m):
        block = IntMatrix.from_rows(a.entries[i] for i in rows)
        if _injectivity_search(block, q) is not None:
            return RmdsWitness(rows, block, q)
    return None


def _zero_pattern_pays(rows: int, m: int, n: int, q: int) -> bool:
    """Whether one zero-pattern product costs no more than the block loop.

    Counted in element operations: the product costs one add per row for
    each of the ((2q-1)^n - 1)/2 half-box vectors, and the loop sorts q^n
    keys for each of the C(rows, m) blocks.
    """
    keys = q**n
    half_box = ((2 * q - 1) ** n - 1) // 2
    return rows * half_box <= math.comb(rows, m) * keys * keys.bit_length()


def _zero_pattern_block(a: IntMatrix, m: int, q: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first m-row set sharing a nonzero kernel vector, or None.

    Row set S fails exactly when some nonzero x in {-(q-1),..,q-1}^n has
    a_i.x = 0 for every i in S.  Every failing S contains the first m zero
    rows of some such x, and those rows fail too, so the first failing set
    is the smallest such "first m zero rows".
    """
    sets = [_first_set(zeros, m) for zeros in _half_box_zeros(a, q)]
    return min((rows for rows in sets if rows is not None), default=None)


def _first_set(zeros: np.ndarray, m: int) -> Optional[tuple[int, ...]]:
    """Smallest "first m zero rows" over the columns of ``zeros`` with m or more."""
    hits = np.flatnonzero(zeros.sum(axis=0) >= m)
    if not hits.size:
        return None
    # A stable sort of each hit column puts its zero rows first, in order.
    sets = np.argsort(~zeros[:, hits], axis=0, kind="stable")[:m]
    return tuple(sets[:, np.lexsort(sets[::-1])[0]].tolist())


def _half_box_zeros(a: IntMatrix, q: int):
    """[A x = 0] for one x of each pair +-x != 0 in {-(q-1),..,q-1}^n, in column chunks.

    A x splits as A_L x_L + A_H x_H over the low ceil(n/2) coordinates (fewer
    if their grid would pass _GRID_ROWS or a chunk) and the rest: the low
    part is one product with a cached grid, and each chunk of high counters
    adds its A_H x_H to it, one add per row and vector.  The high counters
    run from x_H = 0 up, which meets one x of each pair +-x with x_H != 0;
    at x_H = 0 the low counters up to the zero vector's are masked out.  int64
    when every |a_i.x| is below _INT64_SAFE, else exact object arrays.  A
    chunk stays under _CHUNK_BYTES unless a single low block passes it.
    """
    n, base, values = a.n, 2 * q - 1, range(1 - q, q)
    fits = a.weight_bound * (q - 1) * n < _INT64_SAFE
    coef = np.array(a.entries, dtype=np.int64 if fits else object)
    # Per vector: its zero count, hit index and sort key; per row and vector:
    # the sum or a sort index (8 bytes), this chunk's and the last chunk's
    # zero flags and a negated copy, and on the object path a Python int of
    # up to 128 bits per sum.
    vector_bytes = 24 + a.m * (11 if fits else 11 + 44)
    low = (n + 1) // 2
    while low and base**low > min(_GRID_ROWS, _CHUNK_BYTES // vector_bytes):
        low -= 1
    keys = coef[:, :low] @ _digit_grid(low, values).T
    high = n - low
    step = max(1, _CHUNK_BYTES // (base**low * vector_bytes))
    for start in range((base**high - 1) // 2, base**high, step):
        counters = np.arange(start, min(start + step, base**high))
        x_high = counters[:, None] // base ** np.arange(high) % base + values.start
        offsets = coef[:, low:] @ x_high.T
        zeros = (keys[:, None, :] + offsets[:, :, None]).reshape(a.m, -1) == 0
        if start == (base**high - 1) // 2:
            zeros[:, : (base**low + 1) // 2] = False
        yield zeros


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
