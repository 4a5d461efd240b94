"""Builders for the explicit matrix families.

construct_eq / construct_eq_q grow a {-1,0,1} base matrix by the block
recursion

    [ A  A ... A  I ]      (first row block: q copies of A, then identity)
    [ A -A ... 0  0 ]
    [ 0  A -A. 0  0 ]      (telescoping +A/-A pairs, one per later block)
    [ ...          0 ]

build_crt fills row i with the residues of ascending powers of two modulo
the i-th prime.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .matrix import ConstructionTrace, IntMatrix

_DEFAULT_BASE = IntMatrix.from_rows([[1]])


def construct_eq(k: int, base: Optional[IntMatrix] = None) -> tuple[IntMatrix, ConstructionTrace]:
    """Binary (q=2) instance of construct_eq_q."""
    return construct_eq_q(k, 2, base)


def construct_eq_q(
    k: int, q: int, base: Optional[IntMatrix] = None
) -> tuple[IntMatrix, ConstructionTrace]:
    """Iterate the q-ary block recursion k times starting from ``base``.

    The base defaults to the 1x1 matrix [1].  Base entries must lie in
    {-1,0,1}; the EQ_q property of a non-default base is the caller's
    responsibility (the verification module offers the oracle).
    """
    trace = construction_trace(k, q, base)
    rows = (_DEFAULT_BASE if base is None else base).array
    for _ in range(k):
        rows = _expand(rows, q)
    rows.flags.writeable = False  # IntMatrix keeps a read-only array, not a copy
    current = IntMatrix(rows)
    if (current.m, current.n) != (trace.rows, trace.cols):
        raise AssertionError("construction does not match the dimension law")
    return current, trace


def construction_trace(
    k: int, q: int, base: Optional[IntMatrix] = None
) -> ConstructionTrace:
    """The trace of construct_eq_q(k, q, base), validated, without building it."""
    if q < 2:
        raise ValueError("arity q must be at least 2")
    if k < 0:
        raise ValueError("iteration count k must be >= 0")
    if base is None:
        base = _DEFAULT_BASE
    if base.weight_bound > 1:
        raise ValueError("base entries must lie in {-1,0,1}")
    return ConstructionTrace(base.m, base.n, k, q)


def _expand(a: np.ndarray, q: int) -> np.ndarray:
    """One step of the block recursion, as one np.block."""
    zero, corner = np.broadcast_to(np.zeros(1, a.dtype), a.shape), np.zeros((len(a),) * 2, a.dtype)
    first = [a] * q + [np.eye(len(a), dtype=a.dtype)]
    rest = [[zero] * (t - 1) + [a, -a] + [zero] * (q - t - 1) + [corner] for t in range(1, q)]
    return np.block([first, *rest])


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality test for small ranges."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def build_crt(n: int, primes: Iterable[int]) -> IntMatrix:
    """Residue matrix: entry (i, j) = 2**j mod primes[i], columns j = 0..n-1.

    Refuses prime lists whose product does not exceed 2**n, since the
    resulting matrix could not separate all n-bit values.
    """
    if n < 1:
        raise ValueError("bit width n must be >= 1")
    plist = [int(p) for p in primes]
    if not plist:
        raise ValueError("at least one prime is required")
    if any(p < 2 for p in plist):
        raise ValueError("primes must be >= 2")
    if any(b <= a for a, b in zip(plist, plist[1:])):
        raise ValueError("primes must be strictly ascending")
    for p in plist:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    product = 1
    for p in plist:
        product *= p
    if product <= 2**n:
        raise ValueError(
            f"prime product {product} does not exceed 2^{n} = {2**n}; "
            "the residue matrix would not separate all values"
        )
    return IntMatrix.from_rows([[pow(2, j, p) for j in range(n)] for p in plist])


def choose_primes(n: int, count: Optional[int] = None) -> tuple[int, ...]:
    """Smallest consecutive primes from 3 whose product exceeds 2**n.

    With ``count`` given, returns the first ``count`` primes from 3 and
    raises if their product is still too small.
    """
    if n < 1:
        raise ValueError("bit width n must be >= 1")
    if count is not None and count < 1:
        raise ValueError("count must be >= 1")
    target = 2**n
    primes: list[int] = []
    product = 1
    candidate = 3
    while True:
        if is_prime(candidate):
            primes.append(candidate)
            product *= candidate
            if count is None:
                if product > target:
                    return tuple(primes)
            elif len(primes) == count:
                if product > target:
                    return tuple(primes)
                raise ValueError(
                    f"product {product} of the first {count} primes from 3 "
                    f"does not exceed 2^{n}"
                )
        candidate += 2


def truncate_columns(a: IntMatrix, keep: Iterable[int]) -> IntMatrix:
    """Column submatrix on the 0-based indices in ``keep`` (original order)."""
    cols = sorted(set(int(j) for j in keep))
    if not cols:
        raise ValueError("column selection must be nonempty")
    if cols[0] < 0 or cols[-1] >= a.n:
        raise ValueError(f"column index out of range for {a.m}x{a.n} matrix")
    return IntMatrix(a.array.take(cols, axis=1))
