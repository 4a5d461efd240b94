"""The benchmark's own reference code: seeded inputs and independent expectations.

Nothing here imports eqkit.  Every expected exit code and output the
benchmark checks comes from these functions: the CRT prime-product argument,
planted kernel vectors, the brute-force RMDS block check, plain integer dot
products, and a small gate-by-gate circuit evaluator.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

Matrix = list[list[int]]

PRIME_POOL = tuple(p for p in range(3, 98) if all(p % d for d in range(2, p)))


# ---------------------------------------------------------------- matrices


def crt_matrix(n: int, primes: Sequence[int]) -> Matrix:
    """Row i holds 2**j mod primes[i] for j = 0..n-1."""
    return [[pow(2, j, p) for j in range(n)] for p in primes]


def seeded_primes(rng: random.Random, n: int, count: int) -> tuple[int, ...]:
    """``count`` ascending primes from the pool whose product exceeds 2**n.

    By the Chinese remainder theorem the residue matrix then maps distinct
    n-bit values to distinct residue vectors, so the EQ property holds.
    """
    while True:
        primes = tuple(sorted(rng.sample(PRIME_POOL, count)))
        if math.prod(primes) > 2**n:
            return primes


def eq_matrix(k: int) -> Matrix:
    """Binary block recursion from [1]: A' -> [[A', A', I], [A', -A', 0]], k times."""
    a = [[1]]
    for _ in range(k):
        m = len(a)
        top = [row + row + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
        bottom = [row + [-v for v in row] + [0] * m for row in a]
        a = top + bottom
    return a


def planted_kernel_matrix(
    rng: random.Random, rows: int, n: int, q: int, rank: int, hi: int
) -> tuple[Matrix, list[int]]:
    """Random rows x n matrix with A*x0 = 0 for the vector x0 of enumeration rank ``rank``.

    Vectors are ranked as the oracle enumerates them: base 2q-1 digits,
    coordinate 0 least significant, digit d standing for d-(q-1).  ``rank``
    must lie below the zero vector's rank, so that x0 precedes -x0.  Each
    row is random in [0, hi) except one coordinate, solved so the row is
    orthogonal to x0; other short kernel vectors are then very unlikely.
    """
    x0 = vector_of_rank(rank, n, q)
    base = 2 * q - 1
    if not any(x0) or rank >= (base**n - 1) // 2:
        raise ValueError("planted rank must lie strictly below the zero vector")
    pivots = [j for j, v in enumerate(x0) if abs(v) == 1]
    if not pivots:
        raise ValueError("planted vector needs a coordinate of magnitude 1")
    pivot = rng.choice(pivots)
    a = []
    for _ in range(rows):
        row = [rng.randrange(hi) for _ in range(n)]
        row[pivot] = 0
        row[pivot] = -dot(row, x0) * x0[pivot]
        a.append(row)
    return a, x0


def vector_of_rank(rank: int, n: int, q: int) -> list[int]:
    base = 2 * q - 1
    return [(rank // base**j) % base - (q - 1) for j in range(n)]


def rank_of_vector(x: Sequence[int], q: int) -> int:
    base = 2 * q - 1
    return sum((v + q - 1) * base**j for j, v in enumerate(x))


def dot(row: Sequence[int], x: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(row, x))


def matvec(a: Matrix, x: Sequence[int]) -> list[int]:
    return [dot(row, x) for row in a]


def is_kernel_witness(a: Matrix, x: Sequence[int], q: int) -> bool:
    """x is a nonzero vector over {-(q-1)..q-1} of the right length with A*x = 0."""
    return (
        len(x) == len(a[0])
        and any(x)
        and all(-(q - 1) <= v <= q - 1 for v in x)
        and not any(matvec(a, x))
    )


# ------------------------------------------------------------- file formats


def matrix_text(a: Matrix, k: Optional[int] = None) -> str:
    """The matrix file format; ``k`` adds the binary-recursion trace comment."""
    lines = [f"# trace m0=1 n0=1 k={k} q=2"] if k is not None else []
    lines.append(f"{len(a)} {len(a[0])}")
    lines.extend(" ".join(map(str, row)) for row in a)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> tuple[list[str], Matrix]:
    """(comment lines, entries) of a matrix file."""
    lines = text.splitlines()
    comments = []
    while lines and lines[0].lstrip().startswith("#"):
        comments.append(lines.pop(0).strip())
    m, n = (int(t) for t in lines[0].split())
    rows = [[int(t) for t in line.split()] for line in lines[1:]]
    if len(rows) != m or any(len(r) != n for r in rows):
        raise ValueError("matrix body does not match its header")
    return comments, rows


class Circuit:
    """Parsed circuit file, evaluated gate by gate with Python integers."""

    def __init__(self, text: str):
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        if lines[0][0] != "inputs" or lines[1][0] != "output":
            raise ValueError("missing circuit headers")
        self.inputs = [int(t) for t in lines[0][1:]]
        self.output = int(lines[1][1])
        self.gates = {}
        for tokens in lines[2:]:
            fan = [tuple(int(v) for v in t.split(":")) for t in tokens[3:]]
            self.gates[int(tokens[0])] = (tokens[1], int(tokens[2]), fan)

    def __call__(self, bits: Sequence[int]) -> int:
        values = dict(zip(self.inputs, bits))
        return self._value(self.output, values)

    def _value(self, gid: int, values: dict) -> int:
        if gid not in values:
            kind, bias, fan = self.gates[gid]
            acc = sum(w * self._value(src, values) for src, w in fan)
            if kind == "LT":
                values[gid] = int(acc >= bias)
            elif kind == "EXACT":
                values[gid] = int(acc == bias)
            elif kind == "SUM":
                values[gid] = acc + bias
            else:
                raise ValueError(f"gate {gid} of kind {kind} has no value")
        return values[gid]


def bits_of(value: int, n: int) -> list[int]:
    """n bits of ``value``, bit i weighing 2**i first."""
    return [(value >> i) & 1 for i in range(n)]


def eq_samples(rng: random.Random, n: int, count: int) -> list[tuple[list[int], int]]:
    """(x bits + y bits, [x == y]) pairs; every other one has x == y, the
    rest differ from x in one random bit, the hardest unequal case."""
    out = []
    for i in range(count):
        x = rng.getrandbits(n)
        y = x if i % 2 == 0 else x ^ (1 << rng.randrange(n))
        out.append((bits_of(x, n) + bits_of(y, n), int(x == y)))
    return out


# ------------------------------------------------------------ RMDS search


_WORD = 1 << 64


def sampled_entry(seed: int, attempt: int, row: int, col: int, span: int) -> int:
    """Entry stream of the seeded search: SHA-256 of 'seed/attempt/row/col/ctr',
    read as big-endian 64-bit words, rejection-sampled to [0, span)."""
    limit = _WORD - _WORD % span
    for ctr in itertools.count():
        digest = hashlib.sha256(f"{seed}/{attempt}/{row}/{col}/{ctr}".encode()).digest()
        for off in (0, 8, 16, 24):
            word = int.from_bytes(digest[off : off + 8], "big")
            if word < limit:
                return word % span


def sampled_matrix(rows: int, n: int, weight: int, seed: int, attempt: int) -> Matrix:
    span = 2 * weight + 1
    return [
        [sampled_entry(seed, attempt, i, j, span) - weight for j in range(n)]
        for i in range(rows)
    ]


@lru_cache(maxsize=None)
def _nonzero_vectors(n: int, q: int) -> np.ndarray:
    vecs = np.array(list(itertools.product(range(-(q - 1), q), repeat=n)), dtype=np.int64)
    return vecs[vecs.any(axis=1)]


def first_dependent_block(a: Matrix, m: int, q: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first m-row block with a nonzero kernel vector in
    {-(q-1)..q-1}^n, by brute force over all such vectors; None if none."""
    vecs = _nonzero_vectors(len(a[0]), q)
    zero = (vecs @ np.array(a, dtype=np.int64).T) == 0
    masks = set((zero.astype(np.int64) @ (1 << np.arange(len(a), dtype=np.int64))).tolist())
    masks.discard(0)
    for block in itertools.combinations(range(len(a)), m):
        want = sum(1 << i for i in block)
        if any(mask & want == want for mask in masks):
            return block
    return None


def search_outcome(
    n: int, m: int, r: int, q: int, weight: int, seed: int, max_attempts: int
) -> tuple[Optional[Matrix], int]:
    """(first sampled matrix with no dependent block, attempts) or (None, max_attempts)."""
    for attempt in range(max_attempts):
        cand = sampled_matrix(r * m, n, weight, seed, attempt)
        if first_dependent_block(cand, m, q) is None:
            return cand, attempt + 1
    return None, max_attempts
