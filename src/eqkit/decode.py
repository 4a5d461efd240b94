"""Linear-time decoding of binary vectors from their matrix image, a level at a time.

For a matrix grown by the binary block recursion from the 1x1 base [1],
z = A*x splits as z = (z1, z2) and the preimage parts follow from

    x3 = (z1 + z2) mod 2        (entrywise)
    A' * x1 = (z1 + z2 - x3) / 2
    A' * x2 = (z1 - z2 - x3) / 2

with x = (x1, x2, x3).  Both divisions are exact by construction of x3, so
membership in the image is decided entirely by the base case: a leaf value
outside {0,1} proves z is not an image point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .matrix import ConstructionTrace, IntMatrix, _column, matvec


class NotInImageError(ValueError):
    """The target vector is not A*x for any binary x."""


@dataclass
class OpCounter:
    """Counts the arithmetic operations a decode performs."""

    ops: int = 0


def encode(a: IntMatrix, x: Sequence[int]) -> tuple[int, ...]:
    """A*x restricted to binary input vectors."""
    if any(v not in (0, 1) for v in x):
        raise ValueError("encode requires a binary vector")
    return matvec(a, x)


def decode(
    trace: ConstructionTrace, z: Sequence[int], counter: Optional[OpCounter] = None
) -> tuple[int, ...]:
    """Unique binary preimage of z under the traced construction.

    Only binary (q=2) traces over the 1x1 base are decodable; raises
    NotInImageError when no binary preimage exists.
    """
    if trace.q != 2 or (trace.m0, trace.n0) != (1, 1):
        raise ValueError("decoding requires a q=2 trace over the 1x1 base [1]")
    if len(z) != trace.rows:
        raise ValueError(
            f"target length {len(z)} does not match trace rows {trace.rows}"
        )
    # Each level splits every block into two blocks (left, right) and its bits x3.
    blocks, parities = _column(list(map(int, z)))[None, :], []
    for _ in range(trace.k):
        z1, z2 = np.hsplit(blocks, 2)
        bits = (z1 + z2) % 2
        parities.append(bits)
        blocks = np.hstack(((z1 + z2 - bits) // 2, (z1 - z2 - bits) // 2)).reshape(-1, z1.shape[1])
    if counter is not None:
        counter.ops += 7 * trace.k * trace.rows // 2
    if ((blocks != 0) & (blocks != 1)).any():
        raise NotInImageError("z not in image")
    for bits in reversed(parities):  # each block's x = (x1, x2, x3), from the leaves up
        blocks = np.hstack((blocks.reshape(len(bits), -1), bits))
    return tuple(blocks.ravel().tolist())
