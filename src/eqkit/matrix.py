"""Exact integer matrices, alphabets, and the shared text serialization.

A matrix is one read-only 2-D numpy array under the rule that also stores
circuit columns (_column): int64 while every entry lies below 2^62 in
magnitude, exact Python ints past that.  Every value is guarded by a fixed
127-bit signed magnitude budget: a value that leaves it raises
MagnitudeError instead of growing silently.  Matrices are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

MAGNITUDE_BITS = 127
_LIMIT = 1 << MAGNITUDE_BITS
# Magnitude bound under which the vectorized paths may sum in int64.
_INT64_SAFE = 1 << 62
# Byte ceiling for the temporaries of one chunk of a vectorized path.
_CHUNK_BYTES = 32 << 20
# Bytes of an exact int of up to 128 bits: sys.getsizeof(1 << 127) on CPython.
_EXACT_INT_BYTES = 44


class MagnitudeError(ArithmeticError):
    """A value left the 127-bit signed magnitude budget."""


class MatrixFormatError(ValueError):
    """Matrix text does not conform to the file format."""


def checked(value: int) -> int:
    """Return ``value`` unchanged, or raise if |value| >= 2**127."""
    if value >= _LIMIT or value <= -_LIMIT:
        raise MagnitudeError(f"|{value}| exceeds the 2^{MAGNITUDE_BITS} budget")
    return value


def _check_budget(values, bound: Optional[int] = None) -> None:
    """Raise MagnitudeError at the first of values (a list, or an array in row-major
    order) out of budget; bound is max |v| if known, else values is a list or 1-D array."""
    if bound is None:
        bound = max(max(values, default=0), -min(values, default=0))
    if bound >= _LIMIT:
        for v in getattr(values, "flat", values):
            checked(v)


def _checked_sum(terms: Iterable[int], bound: int) -> int:
    """sum(terms) given bound >= sum(|t|); past the budget, every step is checked."""
    if bound < _LIMIT:
        return sum(terms)
    acc = 0
    for t in terms:
        acc = checked(acc + checked(t))
    return acc


def _column(values) -> np.ndarray:
    """values as int64 when each lies below _INT64_SAFE in magnitude, else as exact ints.

    An int64 array that already keeps the rule is returned as it is.
    """
    try:
        col = np.asarray(values, dtype=np.int64)
        if not col.size or (col.max() < _INT64_SAFE and col.min() > -_INT64_SAFE):
            return col
    except OverflowError:
        pass
    return np.frompyfunc(int, 1, 1)(np.array(values, dtype=object))


@dataclass(frozen=True, eq=False)
class IntMatrix:
    """Immutable signed-integer matrix: one read-only 2-D array and its weight bound.

    Rows of any iterables are copied into ``array`` by the _column rule; a
    read-only array that owns its memory is kept as it is.  ``entries``,
    ``row``, ``column`` and ``a[i, j]`` read Python ints.
    """

    array: np.ndarray
    weight_bound: int = field(init=False)

    def __post_init__(self) -> None:
        rows = self.array
        if not isinstance(rows, np.ndarray):
            rows = [*map(list, rows)]
            if not rows or not rows[0]:
                raise ValueError("matrix needs at least one row and one column")
            if any(len(row) != len(rows[0]) for row in rows):
                raise ValueError("ragged rows")
        array = _column(rows)
        if array is rows and (rows.flags.writeable or rows.base is not None):
            array = rows.copy()
        if array.ndim != 2 or not array.size:
            raise ValueError("matrix needs at least one row and one column")
        bound = int(max(array.max(), -array.min()))
        _check_budget(array, bound)
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "weight_bound", bound)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(np.eye(n, dtype=np.int64))

    @property
    def m(self) -> int:
        return self.array.shape[0]

    @property
    def n(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.array[i].tolist())

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.array[:, j].tolist())

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return int(self.array[ij])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return bool(np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash(self.entries)

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
    x = list(map(int, x))
    bound = a.weight_bound * sum(map(abs, x))
    if bound < 1 << 63:  # every partial sum of a row fits in int64
        return tuple((a.array @ _column(x)).tolist())
    return tuple(_checked_sum(map(operator.mul, row, x), bound) for row in a.array.tolist())


_TRACE_RE = re.compile(
    r"#\s*trace\s+m0=(-?\d+)\s+n0=(-?\d+)\s+k=(-?\d+)\s+q=(-?\d+)\s*$"
)


def write_matrix(a: IntMatrix, trace: Optional[ConstructionTrace] = None) -> str:
    """Canonical text form: optional trace comment, `m n` header, one row per line."""
    lines = []
    if trace is not None:
        lines.append(f"# trace m0={trace.m0} n0={trace.n0} k={trace.k} q={trace.q}")
    lines.append(f"{a.m} {a.n}")
    lines.extend(" ".join(str(v) for v in row) for row in a.array.tolist())
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
    try:
        m, n = map(int, lines[pos].split())
        if m < 1 or n < 1:
            raise ValueError
    except ValueError:
        raise MatrixFormatError(f"malformed header {lines[pos]!r}") from None
    body = lines[pos + 1 :]
    if len(body) != m:
        raise MatrixFormatError(f"expected {m} rows, found {len(body)}")
    array = None
    if all(line.count(" ") == n - 1 for line in body):
        array = _plain_numbers("\n".join(body).encode("ascii", "replace"), m * n)
    if array is None:
        values: list[int] = []
        for line in body:
            tokens = line.split()
            if len(tokens) != n:
                raise MatrixFormatError(
                    f"expected {n} entries per row, found {len(tokens)}"
                )
            try:
                values += map(int, tokens)
            except ValueError:
                raise MatrixFormatError(f"non-integer token in row {line!r}") from None
        array = _column(values)
    # Both readers return a fresh array: shaped in place and read-only,
    # IntMatrix keeps it without a copy.
    array.shape = (m, n)
    array.flags.writeable = False
    return IntMatrix(array), trace


def _byte_classes(separators: bytes) -> bytes:
    """A bytes.translate table: digit 3, `-` 6, separator 1, any other byte 0."""
    table = bytearray(256)
    table[48:58] = b"\3" * 10
    table[45] = 6
    for byte in separators:
        table[byte] = 1
    return bytes(table)


_ROW_CLASSES, _PAIR_CLASSES = _byte_classes(b" \n"), _byte_classes(b" :")
_COLONS_TO_SPACES = bytes.maketrans(b":", b" ")


def _plain_numbers(data: bytes, count: int, pairs: bool = False) -> Optional[np.ndarray]:
    """The count integers of data as int64, read by one np.fromstring; None unless plain.

    data is the ASCII text of matrix rows joined by newlines, or with pairs of
    fan-in texts joined by spaces.  It is plain when it is count tokens
    -?[0-9]+ below 2^62 in magnitude, apart by single newlines or spaces, or
    with pairs by colons and spaces in turn from a colon.  np.fromstring
    reads plain text as int() reads each token, but not all text: it reads
    `- 1` as -1 and `1 -` as 1 0, which int() refuses.
    """
    if not data:
        return np.zeros(0, dtype=np.int64) if not count else None
    classes = data.translate(_PAIR_CLASSES if pairs else _ROW_CLASSES)
    if b"\0" in classes or classes[0] == 1 or classes[-1] != 3:
        return None
    c = np.frombuffer(classes, dtype=np.uint8)
    if np.count_nonzero(c == 1) + 1 != count:
        return None
    # Neighbours x, y give 5x + y, with bit 4 set just where y cannot follow
    # x: a separator after a separator or a `-`, and a `-` after a digit or
    # a `-`.  With the ends above, every token is -?[0-9]+.
    step = c[:-1] * 5
    step += c[1:]
    step &= 4
    if step.any():
        return None
    del classes, c, step
    if pairs:
        if data.translate(None, b"0123456789-") != b": " * (count // 2 - 1) + b":":
            return None
        data = data.translate(_COLONS_TO_SPACES)
    nums = np.fromstring(data, dtype=np.int64, count=count, sep=" ")
    # np.fromstring saturates past int64, so a 19-digit token fails here too.
    if nums.max() >= _INT64_SAFE or nums.min() <= -_INT64_SAFE:
        return None
    return nums
