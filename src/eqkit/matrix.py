"""Exact integer matrices, alphabets, and the shared text serialization.

Everything here is plain Python integer arithmetic guarded by a fixed
127-bit signed magnitude budget: a value that leaves the budget raises
MagnitudeError instead of growing silently.  Matrices are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

MAGNITUDE_BITS = 127
_LIMIT = 1 << MAGNITUDE_BITS
# Magnitude bound under which the vectorized paths may sum in int64.
_INT64_SAFE = 1 << 62
# Byte ceiling for the temporaries of one chunk of a vectorized path.
_CHUNK_BYTES = 32 << 20


class MagnitudeError(ArithmeticError):
    """A value left the 127-bit signed magnitude budget."""


class MatrixFormatError(ValueError):
    """Matrix text does not conform to the file format."""


def checked(value: int) -> int:
    """Return ``value`` unchanged, or raise if |value| >= 2**127."""
    if value >= _LIMIT or value <= -_LIMIT:
        raise MagnitudeError(f"|{value}| exceeds the 2^{MAGNITUDE_BITS} budget")
    return value


def _checked_sum(terms: Iterable[int], bound: int) -> int:
    """sum(terms) given bound >= sum(|t|); past the budget, every step is checked."""
    if bound < _LIMIT:
        return sum(terms)
    acc = 0
    for t in terms:
        acc = checked(acc + checked(t))
    return acc


@dataclass(frozen=True)
class IntMatrix:
    """Immutable row-major signed-integer matrix with a cached weight bound."""

    entries: tuple[tuple[int, ...], ...]
    weight_bound: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        rows = []
        bound = 0
        for row in self.entries:
            # Rows that are already tuples of exact ints are kept, not copied.
            if type(row) is not tuple or set(map(type, row)) != {int}:
                row = tuple(map(int, row))
            if rows and len(row) != len(rows[0]):
                raise ValueError("ragged rows")
            if not row:
                break  # an empty first row
            high, low = max(row), min(row)
            if high >= _LIMIT or low <= -_LIMIT:
                for v in row:  # name the first entry out of budget
                    checked(v)
            bound = max(bound, high, -low)
            rows.append(row)
        if not rows:
            raise ValueError("matrix needs at least one row and one column")
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "weight_bound", bound)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def __str__(self) -> str:
        return write_matrix(self)


@dataclass(frozen=True)
class AlphabetSpec:
    """Arity q >= 2; kernel alphabet {-(q-1),..,q-1}, encoding alphabet {0,..,q-1}."""

    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("arity q must be at least 2")

    def kernel_values(self) -> range:
        return range(-(self.q - 1), self.q)

    def encoding_values(self) -> range:
        return range(self.q)

    @property
    def kernel_size(self) -> int:
        return 2 * self.q - 1


@dataclass(frozen=True)
class Counterexample:
    """A nonzero kernel vector witnessing failure of the EQ_q property."""

    x: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        if not any(self.x):
            raise ValueError("counterexample vector must be nonzero")


@dataclass(frozen=True)
class ConstructionTrace:
    """Recursion metadata (base dims, iterations, arity) for constructed matrices."""

    m0: int
    n0: int
    k: int
    q: int

    def __post_init__(self) -> None:
        if self.m0 < 1 or self.n0 < 1:
            raise ValueError("base dimensions must be positive")
        if self.k < 0:
            raise ValueError("iteration count must be >= 0")
        if self.q < 2:
            raise ValueError("arity q must be at least 2")

    @property
    def rows(self) -> int:
        return self.q**self.k * self.m0

    @property
    def cols(self) -> int:
        # The law q^k n0 (k/q m0/n0 + 1) is q^k n0 + k q^(k-1) m0, an integer.
        if self.k == 0:
            return self.n0
        return self.q ** (self.k - 1) * (self.q * self.n0 + self.k * self.m0)


def matvec(a: IntMatrix, x: Sequence[int]) -> tuple[int, ...]:
    """Exact product A*x with overflow-checked accumulation."""
    if len(x) != a.n:
        raise ValueError(f"vector length {len(x)} does not match {a.m}x{a.n} matrix")
    x = tuple(map(int, x))
    bound = a.weight_bound * sum(map(abs, x))
    return tuple(_checked_sum(map(operator.mul, row, x), bound) for row in a.entries)


_TRACE_RE = re.compile(
    r"#\s*trace\s+m0=(-?\d+)\s+n0=(-?\d+)\s+k=(-?\d+)\s+q=(-?\d+)\s*$"
)


def write_matrix(a: IntMatrix, trace: Optional[ConstructionTrace] = None) -> str:
    """Canonical text form: optional trace comment, `m n` header, one row per line."""
    lines = []
    if trace is not None:
        lines.append(f"# trace m0={trace.m0} n0={trace.n0} k={trace.k} q={trace.q}")
    lines.append(f"{a.m} {a.n}")
    lines.extend(" ".join(str(v) for v in row) for row in a.entries)
    lines.append("")  # a final newline without copying the joined text
    return "\n".join(lines)


def read_matrix(text: str) -> tuple[IntMatrix, Optional[ConstructionTrace]]:
    """Parse the matrix file format; inverse of write_matrix on canonical text.

    Comment lines before the header are tolerated; a `# trace ...` comment is
    parsed into a ConstructionTrace, any other comment is ignored.
    """
    lines = text.splitlines()
    trace = None
    pos = 0
    while pos < len(lines) and lines[pos].lstrip().startswith("#"):
        match = _TRACE_RE.match(lines[pos].strip())
        if match:
            trace = ConstructionTrace(*(int(g) for g in match.groups()))
        pos += 1
    if pos >= len(lines):
        raise MatrixFormatError("missing header line")
    header = lines[pos].split()
    if len(header) != 2:
        raise MatrixFormatError(f"malformed header {lines[pos]!r}")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError(f"malformed header {lines[pos]!r}") from None
    if m < 1 or n < 1:
        raise MatrixFormatError(f"malformed header {lines[pos]!r}")
    body = lines[pos + 1 :]
    if len(body) != m:
        raise MatrixFormatError(f"expected {m} rows, found {len(body)}")
    rows = []
    for line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixFormatError(
                f"expected {n} entries per row, found {len(tokens)}"
            )
        try:
            rows.append(tuple(map(int, tokens)))
        except ValueError:
            raise MatrixFormatError(f"non-integer token in row {line!r}") from None
    return IntMatrix.from_rows(rows), trace
