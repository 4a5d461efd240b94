"""Exhaustive and algebraic oracles for the matrix properties, plus the bound formulas.

The enumeration-based checks (is_eq_q, is_rmds) are budgeted by an explicit
step cap and return deterministic witnesses.  Vectors are enumerated with
coordinate 0 varying fastest, so the highest coordinate (the most
significant one under the power-of-two weight convention) is compared first
and the order agrees with ascending integer value; component values are
ordered -(q-1) < ... < q-1.

One meet-in-the-middle engine, _kernel_search, names every EQ witness: the
kernel vector of smallest rank in the counter order (the first kernel
vector) or the collision order (the first colliding pair of encodings).  Its
low table and one chunk of its high scan share the _CHUNK_BYTES ceiling that
also bounds is_rmds's product and circuit checks, so memory stays bounded at
any cap, which is still charged (2q-1)^n (kernel) or q^n (injectivity).

is_rmds decides all m-row blocks at once from the zero pattern of A x over
one vector of each +-x pair, unless checking the blocks one by one with the
engine costs fewer element operations; the cap is charged C(rows, m) q^n.
The same product decides a whole stack of matrices (_rmds_passes), as the
search draws them; is_rmds runs it on a stack of one.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .matrix import (
    _CHUNK_BYTES,
    _EXACT_INT_BYTES,
    _INT64_SAFE,
    AlphabetSpec,
    Counterexample,
    IntMatrix,
    checked,
    matvec,
)

DEFAULT_STEP_CAP = 10**8

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

    The kernel witness, the block's first encoding-collision difference, is
    found on first use by the engine in the collision order, in memory
    bounded by its ceiling: a caller that needs only the rows never pays.
    """

    rows: tuple[int, ...]
    block: IntMatrix = field(repr=False)
    q: int = field(repr=False)

    @cached_property
    def kernel(self) -> Counterexample:
        return _kernel_search(self.block, self.q, collision=True)


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


def is_eq_q(
    a: IntMatrix, q: int, mode: str = "kernel", cap: Optional[int] = None
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
        return _kernel_search(a, q, collision=True)
    raise ValueError(f"unknown mode {mode!r}")


def _packed_row(a: IntMatrix, q: int) -> np.ndarray:
    """One row c with c.x = 0 exactly when A x = 0, for x in {-(q-1),..,q-1}^n.

    Row i of A x lies in [-B_i, B_i] with B_i = (q-1) * sum_j |a_ij|, so the
    balanced mixed-radix weights W_i = prod_{k<i} (2 B_k + 1) pack A x into
    one integer without collisions: c = W A.  int64 when prod (2 B_i + 1) is
    below _INT64_SAFE (every partial sum of c.x then fits), else an object
    array of exact Python ints.
    """
    factors = (2 * (q - 1) * sum(map(abs, row)) + 1 for row in a.array.tolist())
    weights = [*itertools.accumulate(factors, operator.mul, initial=1)]
    dtype = np.int64 if weights[-1] < _INT64_SAFE else object
    return np.array(weights[:-1], dtype=dtype) @ a.array  # exact ints stay exact times int64


@lru_cache(maxsize=32)
def _digit_grid(n: int, values: range) -> np.ndarray:
    """Row v is the vector of values^n with counter v (coordinate 0 fastest)."""
    base = len(values)
    grid = np.arange(base**n)[:, None] // base ** np.arange(n) % base + values.start
    grid.flags.writeable = False
    return grid


def _keys(coef: np.ndarray, values: range) -> np.ndarray:
    """c.x for every x in values^len(c), in counter order (first coordinate fastest).

    A cached grid of at most _GRID_ROWS rows covers the first coordinates;
    each further one is a broadcast add.  Exact object coefficients take
    only the broadcast adds: a grid product would copy the grid to objects.
    """
    head = 0
    while coef.dtype != object and head < coef.size and len(values) ** (head + 1) <= _GRID_ROWS:
        head += 1
    keys = _digit_grid(head, values) @ coef[:head]
    for c in coef[head:]:
        digits = np.arange(values.start, values.stop).astype(coef.dtype)
        keys = (digits[:, None] * c + keys).ravel()
    return keys


def _kernel_search(a: IntMatrix, q: int, collision: bool = False) -> Optional[Counterexample]:
    """The nonzero kernel vector with a negative top coordinate of smallest rank.

    That is the first kernel vector in the counter order, and in the
    collision order the difference d of the first colliding pair of
    encodings (earlier, later) = (d+, d-).  Meet in the middle
    (Horowitz-Sahni) on the counter v = v_low + base**low * v_high: the low
    table sorts the keys c_L.x_L; the high counters below the zero vector's
    (x_high with a negative top) are scanned in chunks for -c_H.x_H, the
    negated keys of the first high coordinates minus one scalar per chunk;
    x_high = 0 needs a nonzero low part with key 0 and a negative top.  The
    table takes up to ceil(n/2) coordinates and a chunk the rows it leaves,
    so that both stay under _CHUNK_BYTES (unless a single row passes it),
    and a chunk never holds more high counters than the scan covers.  Ranks
    are built at the first hit: each key then takes its low part of smallest
    rank, and chunks that cannot beat the best are skipped.
    """
    n, base, values = a.n, 2 * q - 1, range(1 - q, q)
    coef = _packed_row(a, q)
    # rank(x) = pos.x+ + neg.x-, x+ = max(x, 0), x- = max(-x, 0): the counter
    # minus the zero vector's, or counter(x+) + q^n counter(x-) in base q.
    pos = [(q if collision else base) ** i for i in range(n)]
    neg = [q**n * p if collision else -p for p in pos]
    dtype = np.int64 if (q - 1) * sum(map(abs, neg)) < _INT64_SAFE else object
    # Bytes per table row: its key, sorted key, rank and sort index; per chunk
    # row: its head key, target, search index, found key and head rank, and a
    # hit flag.  A key or rank past int64 adds a 128-bit Python int.
    key_int, rank_int = (_EXACT_INT_BYTES * (t == object) for t in (coef.dtype, dtype))
    table_row, chunk_row = 32 + key_int + rank_int, 41 + 2 * key_int + rank_int
    low = (n + 1) // 2
    while low and base**low * table_row + chunk_row > _CHUNK_BYTES:
        low -= 1
    keys = _keys(coef[:low], values)
    table = np.sort(keys)
    high, span = n - low, 0
    zero_high, best = (base**high - 1) // 2, (math.inf, 0)  # (rank, counter)
    # A chunk takes the rows the table leaves, but no more than the scan covers.
    rows = min(zero_high, (_CHUNK_BYTES - base**low * table_row) // chunk_row)
    while base ** (span + 1) <= rows:
        span += 1
    head, top = -_keys(coef[low : low + span], values), low + span

    @lru_cache(maxsize=None)
    def ranked():
        sums = [np.zeros(1, dtype), np.zeros(1, dtype)]  # the low part, the head part
        for i, p, g in zip(range(top), pos, neg):
            term = np.array([p * max(v, 0) + g * max(-v, 0) for v in values], dtype)
            sums[i >= low] = (term[:, None] + sums[i >= low]).ravel()
        ranks, head_ranks = sums
        # Sorted by key, then by rank: each run of a key in table starts at
        # its low part of smallest rank.
        return ranks, np.lexsort((ranks, keys)), head_ranks, ranks.min() + head_ranks.min()

    zeros = np.flatnonzero(keys[: (base**low - 1) // 2] == 0)
    if zeros.size:
        v_low = int(zeros[np.argmin(ranked()[0][zeros])])
        best = (ranked()[0][v_low], v_low + base**low * zero_high)
    target = np.empty_like(head)
    for chunk in range(-(-zero_high // head.size)):
        x_top = [chunk // base**j % base + 1 - q for j in range(high - span)]
        terms = zip(x_top, pos[top:], neg[top:])
        top_rank = sum(p * max(x, 0) + g * max(-x, 0) for x, p, g in terms)
        if best[0] < math.inf and ranked()[3] + top_rank >= best[0]:
            continue
        np.subtract(head, sum(x * int(c) for x, c in zip(x_top, coef[top:])), out=target)
        start = chunk * head.size
        idx = np.minimum(np.searchsorted(table, target), table.size - 1)
        hit = table[idx] == target
        hit[zero_high - start :] = False
        found = np.flatnonzero(hit)
        if found.size:
            ranks, best_low, head_ranks, _ = ranked()
            lows = best_low[idx[found]]
            totals = ranks[lows] + head_ranks[found] + top_rank
            j = int(np.argmin(totals))
            best = min(best, (totals[j], int(lows[j]) + base**low * (start + int(found[j]))))
    if best[0] == math.inf:
        return None
    return Counterexample(tuple(best[1] // base**j % base + 1 - q for j in range(n)))


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
        if det_bareiss(a.array[:, cols].tolist()) == 0:
            return cols
    return None


def is_rmds(
    a: IntMatrix, m: int, q: int, cap: Optional[int] = None
) -> Optional[RmdsWitness]:
    """None if every m-row submatrix is an EQ_q matrix.

    On failure returns the lexicographically first failing row set, with
    the first encoding-collision difference of its block as the kernel
    witness.  The row set comes from one zero-pattern product
    (_zero_pattern_block) unless deciding the blocks in order by the kernel
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
    else:
        rows = _failing_block(a, m, q)
    return None if rows is None else RmdsWitness(rows, IntMatrix(a.array.take(rows, 0)), q)


def _failing_block(a: IntMatrix, m: int, q: int) -> Optional[tuple[int, ...]]:
    """First m-row set in lexicographic order whose block the kernel search fails, or None."""
    sets = itertools.combinations(range(a.m), m)
    return next((s for s in sets if _kernel_search(IntMatrix(a.array.take(s, 0)), q)), None)


def _zero_pattern_pays(rows: int, m: int, n: int, q: int) -> bool:
    """Whether one zero-pattern product costs no more than the block loop.

    Counted in element operations: the product costs one add per row for
    each of the ((2q-1)^n - 1)/2 half-box vectors, and the loop is charged
    a sort of q^n keys for each of the C(rows, m) blocks, more than its
    meet-in-the-middle search does.
    """
    keys = q**n
    half_box = ((2 * q - 1) ** n - 1) // 2
    return rows * half_box <= math.comb(rows, m) * keys * keys.bit_length()


def _stack_limit(rows: int, n: int, q: int, weight: int) -> int:
    """Most matrices (at least 1) whose zero-pattern product fits in _CHUNK_BYTES.

    The product is taken over the half box, with entries up to weight.
    """
    fits = weight * (q - 1) * n < _INT64_SAFE
    half_box = ((2 * q - 1) ** n - 1) // 2
    return max(1, _CHUNK_BYTES // (half_box * _vector_bytes(rows, fits)))


def _vector_bytes(rows: int, fits: bool) -> int:
    """Bytes a zero-pattern chunk spends per matrix and vector, int64 (fits) or exact.

    Per vector: its zero count, hit index and sort key; per row and vector:
    the sum or a sort index (8 bytes), this chunk's and the last chunk's
    zero flags and a negated copy, and on the object path a Python int of
    up to 128 bits per sum.
    """
    return 24 + rows * (11 if fits else 11 + _EXACT_INT_BYTES)


def _zero_pattern_block(a: IntMatrix, m: int, q: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first m-row set sharing a nonzero kernel vector, or None.

    Row set S fails exactly when some nonzero x in {-(q-1),..,q-1}^n has
    a_i.x = 0 for every i in S.  Every failing S contains the first m zero
    rows of some such x, and those rows fail too, so the first failing set
    is the smallest such "first m zero rows".
    """
    chunks = _half_box_zeros(a.array[None], a.weight_bound, q)
    sets = [_first_set(zeros[0], m) for zeros in chunks]
    return min((rows for rows in sets if rows is not None), default=None)


def _first_set(zeros: np.ndarray, m: int) -> Optional[tuple[int, ...]]:
    """Smallest "first m zero rows" over the columns of ``zeros`` with m or more."""
    hits = np.flatnonzero(zeros.sum(axis=0) >= m)
    if not hits.size:
        return None
    # A stable sort of each hit column puts its zero rows first, in order.
    sets = np.argsort(~zeros[:, hits], axis=0, kind="stable")[:m]
    return tuple(sets[:, np.lexsort(sets[::-1])[0]].tolist())


def _rmds_passes(stack: np.ndarray, weight: int, m: int, q: int) -> np.ndarray:
    """[every m-row block of A is EQ_q] for each A of the (B, rows, n) stack.

    One zero-pattern product over the whole stack, whose entries lie in
    [-weight, weight]: A fails when some x has m or more zero rows.
    """
    failed = np.zeros(len(stack), dtype=bool)
    for zeros in _half_box_zeros(stack, weight, q):
        failed |= (zeros.sum(axis=1) >= m).any(axis=1)
        if failed.all():
            break
    return ~failed


def _half_box_zeros(stack: np.ndarray, weight: int, q: int):
    """[A x = 0] for each A of stack and one x of each pair +-x != 0, in column chunks.

    stack is (B, rows, n) and each chunk (B, rows, vectors).  A x splits as
    A_L x_L + A_H x_H over the low ceil(n/2) coordinates (fewer if their
    grid would pass _GRID_ROWS or a chunk) and the rest: the low part is one
    product with a cached grid, and each chunk of high counters adds its
    A_H x_H to it, one add per row and vector.  The high counters run from
    x_H = 0 up, which meets one x of each pair +-x with x_H != 0; at x_H = 0
    the low counters up to the zero vector's are masked out.  int64 when
    every |a_i.x| is below _INT64_SAFE for entries up to weight, else exact
    object arrays.  A chunk stays under _CHUNK_BYTES unless a single low
    block of the stack passes it.
    """
    count, rows, n = stack.shape
    base, values = 2 * q - 1, range(1 - q, q)
    fits = weight * (q - 1) * n < _INT64_SAFE
    coef = stack if fits else stack.astype(object)
    vector_bytes = count * _vector_bytes(rows, fits)
    low = (n + 1) // 2
    while low and base**low > min(_GRID_ROWS, _CHUNK_BYTES // vector_bytes):
        low -= 1
    keys = coef[:, :, :low] @ _digit_grid(low, values).T
    high = n - low
    step = max(1, _CHUNK_BYTES // (base**low * vector_bytes))
    for start in range((base**high - 1) // 2, base**high, step):
        counters = np.arange(start, min(start + step, base**high))
        x_high = counters[:, None] // base ** np.arange(high) % base + values.start
        offsets = coef[:, :, low:] @ x_high.T
        zeros = (keys[:, :, None, :] + offsets[..., None]).reshape(count, rows, -1) == 0
        if start == (base**high - 1) // 2:
            zeros[:, :, : (base**low + 1) // 2] = False
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
    and a weight is supplied; otherwise it is flagged absent (None).  A float
    figure past the float range, or a Theorem 3 bound too long to print, is
    refused with ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if weight is not None and weight < 0:
        raise ValueError("weight bound must be >= 0")
    siegel = None
    if m is not None and weight is not None and n > m >= 1:
        try:
            siegel = (math.sqrt(n) * weight) ** (m / (n - m))
        except OverflowError:
            raise ValueError("siegel_norm_bound does not fit a float") from None
    mds_bound = None
    if alphabet_size is not None:
        if alphabet_size < 1:
            raise ValueError("alphabet size must be >= 1")
        # A bound too long to print is refused before it is built.
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        s = alphabet_size
        mds_bound = _theorem3_bound(s, 10**digits - 1) if digits else s ** (s + 1)
        if mds_bound is None:
            raise ValueError(f"theorem3_mds_bound has more than {digits} digits")
    r_constr = r_upper = ratio = None
    if k_iter is not None:
        if k_iter < 0:
            raise ValueError("construction iteration count must be >= 0")
        r_constr = Fraction(k_iter, 2) + 1
        try:
            r_upper = (k_iter + 1 + math.log2(k_iter + 2)) / 2
        except OverflowError:
            raise ValueError("r_upper does not fit a float") from None
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


def _theorem3_bound(k: int, limit: int) -> Optional[int]:
    """k^(k+1), Theorem 3's bound for an alphabet of size k, or None above limit.

    k^(k+1) >= 2^((k+1)(bits(k)-1)), so a bound with that many bits is
    refused unbuilt; any other, for k >= 2, has fewer than 2 bits(limit) bits.
    """
    if (k + 1) * (k.bit_length() - 1) >= limit.bit_length():
        return None
    bound = k ** (k + 1)
    return bound if bound <= limit else None


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
    if min(primes) < 2:
        raise ValueError("primes must be >= 2")
    image = matvec(a, x)
    for i, (p, z) in enumerate(zip(primes, image)):
        if z % p:
            return i
    return None
