"""Threshold-circuit IR, matrix-to-circuit compilers, and exhaustive equivalence checks.

Gate semantics over the integer values v of the fan-in sources:

    LT     outputs 1 iff sum(w_i * v_i) >= bias
    EXACT  outputs 1 iff sum(w_i * v_i) == bias
    SUM    outputs the integer sum(w_i * v_i) + bias
    INPUT  carries one assignment bit, empty fan-in

Biases are gate fields, never dedicated input wires.  Depth counts LT and
EXACT gates on the longest input-to-output path; SUM gates are wiring.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .matrix import _CHUNK_BYTES, _INT64_SAFE, _LIMIT, IntMatrix, _checked_sum, checked
from .verify import _check_cap, _keys, is_eq_q, is_rmds

INPUT = "INPUT"
LT = "LT"
EXACT = "EXACT"
SUM = "SUM"
_KINDS = (INPUT, LT, EXACT, SUM)

# exhaustive_check streams chunks of at most 2**_MAX_CHUNK_BITS assignments,
# fewer when a chunk's tables and gate arrays would pass _CHUNK_BYTES.
_MAX_CHUNK_BITS = 16


class CircuitFormatError(ValueError):
    """Circuit text does not conform to the file format."""


@dataclass(frozen=True)
class Gate:
    gid: int
    kind: str
    fan_in: tuple[tuple[int, int], ...] = ()
    bias: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == INPUT and self.fan_in:
            raise ValueError("INPUT gates take no fan-in")
        fan = tuple(self.fan_in)
        sources, weights = zip(*fan, strict=True) if fan else ((), ())
        # Pairs that are already tuples of exact ints are kept, not copied.
        if set(map(type, fan + sources + weights)) != {tuple, int}:
            weights = tuple(map(int, weights))
            fan = tuple(zip(map(int, sources), weights))
        if weights and (max(weights) >= _LIMIT or min(weights) <= -_LIMIT):
            for w in weights:  # name the first weight out of budget
                checked(w)
        object.__setattr__(self, "fan_in", fan)
        object.__setattr__(self, "bias", checked(int(self.bias)))


class ThresholdCircuit:
    """Immutable DAG of gates with one designated output."""

    def __init__(self, gates: Iterable[Gate], inputs: Sequence[int], output: int):
        gate_map: dict[int, Gate] = {}
        for g in gates:
            if g.gid in gate_map:
                raise ValueError(f"duplicate gate id {g.gid}")
            gate_map[g.gid] = g
        inputs = tuple(inputs)
        listed = set(inputs)
        for gid in inputs:
            if gid not in gate_map or gate_map[gid].kind != INPUT:
                raise ValueError(f"input id {gid} is not an INPUT gate")
        if len(listed) != len(inputs):
            raise ValueError("input ids must not repeat")
        for g in gate_map.values():
            if g.kind == INPUT and g.gid not in listed:
                raise ValueError(f"INPUT gate {g.gid} is missing from the input list")
        if output not in gate_map:
            raise ValueError(f"output id {output} does not exist")
        self._gates = gate_map
        self._inputs = inputs
        self._output = output
        self._order = self._topological_order()
        self._ordered = tuple(
            gate_map[gid] for gid in self._order if gate_map[gid].kind != INPUT
        )

    def _topological_order(self) -> tuple[int, ...]:
        indegree = {gid: len(g.fan_in) for gid, g in self._gates.items()}
        consumers: dict[int, list[int]] = {gid: [] for gid in self._gates}
        try:
            for gid, g in self._gates.items():
                for src, _ in g.fan_in:
                    consumers[src].append(gid)
        except KeyError:
            raise ValueError(f"gate {gid} references missing source {src}") from None
        # The order is also the queue: the loop visits the gids extended onto it.
        order = sorted(gid for gid, d in indegree.items() if d == 0)
        for gid in order:
            inserted = []
            for nxt in consumers[gid]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    inserted.append(nxt)
            order.extend(sorted(inserted))
        if len(order) != len(self._gates):
            raise ValueError("circuit contains a cycle")
        return tuple(order)

    @property
    def gates(self) -> dict[int, Gate]:
        return dict(self._gates)

    @property
    def inputs(self) -> tuple[int, ...]:
        return self._inputs

    @property
    def output(self) -> int:
        return self._output

    @property
    def topo_order(self) -> tuple[int, ...]:
        return self._order

    @property
    def ordered_gates(self) -> tuple[Gate, ...]:
        """The non-input gates in topological order."""
        return self._ordered

    @cached_property
    def depth(self) -> int:
        depth = dict.fromkeys(self._inputs, 0)
        for g in self._ordered:
            below = max((depth[src] for src, _ in g.fan_in), default=0)
            depth[g.gid] = below + (1 if g.kind in (LT, EXACT) else 0)
        return depth[self._output]

    @property
    def gate_count(self) -> int:
        """Number of non-input gates."""
        return len(self._ordered)


def eval_circuit(
    c: ThresholdCircuit, assignment: Sequence[int], want_trace: bool = False
) -> Union[int, tuple[int, dict[int, int]]]:
    """Topological evaluation on one bit assignment; optionally the per-gate trace."""
    if len(assignment) != len(c.inputs):
        raise ValueError(
            f"assignment length {len(assignment)} != input count {len(c.inputs)}"
        )
    if any(b not in (0, 1) for b in assignment):
        raise ValueError("assignment entries must be bits")
    values: dict[int, int] = dict(zip(c.inputs, (int(b) for b in assignment)))
    for g in c.ordered_gates:
        terms = [w * values[src] for src, w in g.fan_in]
        acc = _checked_sum(terms, sum(map(abs, terms)))
        if g.kind == LT:
            values[g.gid] = 1 if acc >= g.bias else 0
        elif g.kind == EXACT:
            values[g.gid] = 1 if acc == g.bias else 0
        else:
            values[g.gid] = checked(acc + g.bias)
    result = values[c.output]
    return (result, values) if want_trace else result


def _reference_form(reference, n_inputs, n, weights, values):
    """The named reference as a linear form: 1 iff test(sum(coef[t] * x_t)).

    Validates the reference arguments.  test takes an int64 or object array.
    """
    if reference in ("eq", "comp"):
        if n is None or n_inputs != 2 * n:
            raise ValueError(f"{reference} reference needs 2n inputs")
        # x_i and y_i weigh 2**i, so the form is X - Y.
        coef = [1 << i for i in range(n)] + [-(1 << i) for i in range(n)]
        if reference == "eq":
            return coef, lambda s: s == 0
        return coef, lambda s: s >= 0
    if reference == "parity":
        if n is not None and n != n_inputs:
            raise ValueError("parity reference needs n inputs")
        return [1] * n_inputs, lambda s: s % 2 == 1
    if reference == "valueset":
        if weights is None or values is None:
            raise ValueError("valueset reference needs weights and values")
        if len(weights) != n_inputs:
            raise ValueError("valueset weights must match the input count")
        exact = np.array(sorted(set(int(v) for v in values)), dtype=object)
        # Sums on the int64 route stay below _INT64_SAFE, so larger values never match.
        small = exact[abs(exact) < _INT64_SAFE].astype(np.int64)
        return [int(w) for w in weights], lambda s: np.isin(
            s, exact if s.dtype == object else small
        )
    raise ValueError(f"unknown reference {reference!r}")


def exhaustive_check(
    c: ThresholdCircuit,
    reference: str,
    n: Optional[int] = None,
    weights: Optional[Sequence[int]] = None,
    values: Optional[Iterable[int]] = None,
    cap: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """Compare the circuit to a named reference on every assignment.

    reference is one of "eq", "comp" (2n inputs, x then y, bit i weighing
    2**i), "parity" (n inputs), or "valueset" (weights/values).  Returns
    None on agreement, else the first mismatching assignment, input 0 being
    the most significant bit of the enumeration counter.  Every circuit is
    streamed in bounded chunks, on exact object arrays past int64; a value
    leaving the 2**127 budget raises MagnitudeError at the same assignment
    as a row-by-row eval_circuit scan.
    """
    n_inputs = len(c.inputs)
    coef, test = _reference_form(reference, n_inputs, n, weights, values)
    _check_cap(1 << n_inputs, cap)
    return _stream_check(c, coef, test)


def _assignment(row: int, k: int) -> tuple[int, ...]:
    """Bits of row, input 0 first."""
    return tuple((row >> (k - 1 - t)) & 1 for t in range(k))


def _stream_check(c: ThresholdCircuit, coef: Sequence[int], test):
    """exhaustive_check in aligned chunks of 2**L assignments.

    In chunk h the first k - L inputs are the bits of h, and the last L
    inputs run through the same 2**L columns in every chunk.  So each gate's
    input fan-in, and the reference form, splits into a table over the low
    inputs, built once, plus one scalar per chunk from the high inputs.
    Rows where a gate with reach past 2**127 may overflow are replayed by
    eval_circuit up to the chunk's first mismatch, to raise where it would.
    """
    source = c
    if c.output in c.inputs:
        # An input wired straight to the output gets a SUM gate to carry it.
        top = max(c.gates) + 1
        wire = Gate(top, SUM, ((c.output, 1),))
        c = ThresholdCircuit([*c.gates.values(), wire], c.inputs, top)
    k = len(c.inputs)
    gates = c.ordered_gates
    # Per gate, a bound on sum(|w_i * v_i|) + |bias| over every assignment.
    reach, bounds = dict.fromkeys(c.inputs, 1), []
    for g in gates:
        bounds.append(sum(abs(w) * reach[src] for src, w in g.fan_in) + abs(g.bias))
        reach[g.gid] = bounds[-1] if g.kind == SUM else 1
    fits = max(bounds) < _INT64_SAFE and sum(map(abs, coef)) < _INT64_SAFE
    dtype = np.int64 if fits else object
    risky = [t for t, bound in enumerate(bounds) if bound >= _LIMIT]
    position = {gid: t for t, gid in enumerate(c.inputs)}
    # One row of input coefficients per gate, the reference, then |w| rows
    # that bound the partial sums of the risky gates.
    fans = [g.fan_in for g in gates] + [list(zip(c.inputs, coef))]
    fans += [[(s, abs(w)) for s, w in gates[t].fan_in] for t in risky]
    forms = np.zeros((len(fans), k), dtype=dtype)
    for row, fan in enumerate(fans):
        for src, w in fan:
            if src in position:
                forms[row, position[src]] += w
    feeds = [[(s, w) for s, w in g.fan_in if s not in position] for g in gates]
    ref = len(gates)  # the row of the reference form
    # Per row: a table and a value array per form, and the reference test;
    # an object entry is a pointer plus an int of up to 128 bits.
    row_bytes = (8 if fits else 8 + sys.getsizeof(_LIMIT)) * (2 * len(forms) + 1)
    bits = min(k, _MAX_CHUNK_BITS)
    while bits and row_bytes << bits > _CHUNK_BYTES:
        bits -= 1
    low = k - bits
    # Input 0 is the top counter bit, so the low inputs run last to first.
    # The copies free the 2-D arrays _keys builds; measured, the per-chunk
    # temporaries then reuse heap pages (960, not 4,300, page faults at k=20).
    # A form without low inputs gets a single zero, which broadcasts.
    tables = [
        _keys(f[low:][::-1], range(2)).copy() if f[low:].any() else np.zeros(1, dtype)
        for f in forms
    ]
    high = forms[:, :low]
    shifts = np.arange(low - 1, -1, -1, dtype=np.int64)
    for h in range(1 << low):
        offsets = (high @ ((h >> shifts) & 1)).tolist()
        values: dict = {}
        for g, feed, table, offset in zip(gates, feeds, tables, offsets):
            acc = table
            for src, w in feed:
                # dtype keeps a bit array times a weight past int64 exact.
                acc = acc + np.multiply(w, values[src], dtype=dtype)
            if g.kind == LT:
                values[g.gid] = acc >= g.bias - offset
            elif g.kind == EXACT:
                values[g.gid] = acc == g.bias - offset
            else:
                values[g.gid] = acc + (g.bias + offset)
        bad = np.flatnonzero(values[c.output] != test(tables[ref] + offsets[ref]))
        over = np.zeros(1 << bits if risky else 0, dtype=bool)
        for t, table, offset in zip(risky, tables[ref + 1 :], offsets[ref + 1 :]):
            mag = table + (offset + abs(gates[t].bias))
            for src, w in feeds[t]:
                mag = mag + np.abs(np.multiply(w, values[src], dtype=dtype))
            over |= mag >= _LIMIT
        for row in np.flatnonzero(over[: bad[0] + 1 if bad.size else None]).tolist():
            eval_circuit(source, _assignment(h << bits | row, k))  # may raise
        if bad.size:
            return _assignment(h << bits | int(bad[0]), k)
    return None


def compile_eq_circuit(
    a: IntMatrix, verify: bool = True, cap: Optional[int] = None
) -> ThresholdCircuit:
    """Depth-2 equality circuit over 2n inputs (x_1..x_n, y_1..y_n).

    Layer 1 holds one EXACT gate per matrix row with weights (row, -row) and
    bias 0; the top EXACT gate ANDs the layer together (all-ones weights,
    bias m).  Total m + 1 gates beyond the inputs.
    """
    if verify:
        witness = is_eq_q(a, 2, mode="injectivity", cap=cap)
        if witness is not None:
            raise ValueError(
                f"matrix failed the EQ check (kernel vector {witness.x}); "
                "pass verify=False to compile anyway"
            )
    layer = [(_difference_fan(a, i, 0), 0) for i in range(a.m)]
    return _depth_two(2 * a.n, layer, EXACT, 1, a.m)


def _difference_fan(a: IntMatrix, i: int, start: int) -> list[tuple[int, int]]:
    """Fan-in of row i of A, restricted to columns start.., on x minus y."""
    fan = [(j + 1, a[i, j]) for j in range(start, a.n) if a[i, j]]
    return fan + [(a.n + j + 1, -a[i, j]) for j in range(start, a.n) if a[i, j]]


def _depth_two(
    k: int,
    layer: Sequence[tuple[Sequence[tuple[int, int]], int]],
    top_kind: str,
    top_weight: int,
    top_bias: int,
) -> ThresholdCircuit:
    """Inputs 1..k, one EXACT gate per (fan-in, bias) in layer, then the top gate."""
    gates = [Gate(i + 1, INPUT) for i in range(k)]
    gates += [Gate(k + 1 + t, EXACT, tuple(fan), b) for t, (fan, b) in enumerate(layer)]
    top = k + len(layer) + 1
    fan = tuple((gid, top_weight) for gid in range(k + 1, top))
    gates.append(Gate(top, top_kind, fan, top_bias))
    return ThresholdCircuit(gates, tuple(range(1, k + 1)), top)


def compile_value_set(
    weights: Sequence[int], values: Iterable[int]
) -> ThresholdCircuit:
    """Depth-2 circuit for 1{weights . x in values}: one EXACT gate per value, OR on top."""
    weights = [int(w) for w in weights]
    accepted = sorted(set(int(s) for s in values))
    n = len(weights)
    if n < 1:
        raise ValueError("at least one weight is required")
    if not accepted:
        warnings.warn("empty accepted set; emitting a constant-0 circuit")
    fan = [(j + 1, w) for j, w in enumerate(weights) if w]
    return _depth_two(n, [(fan, s) for s in accepted], LT, 1, 1)


def compile_comp_circuit(
    a: IntMatrix,
    n: int,
    m: int,
    r: int,
    verify: bool = True,
    cap: Optional[int] = None,
) -> ThresholdCircuit:
    """Depth-2 comparison circuit (output 1 iff X >= Y) from an rm x n RMDS_3 matrix.

    Coordinate j (weight 2**(j-1)) is matched to column j.  Level l of the
    first layer restricts the matrix to columns l+1..n and tests, row-wise,
    whether the difference window equals minus the column matched to
    coordinate l+1 - i.e. whether the leading difference bit at level l is
    -1.  The top gate fires unless some level lights up a full row block:
    all weights -1, bias -n(m-1)+1.
    """
    if a.m != r * m or a.n != n:
        raise ValueError(f"matrix must be {r * m}x{n} for these parameters")
    if r * m <= n * (m - 1):
        raise ValueError(
            f"separation requires r*m > n*(m-1); got {r * m} <= {n * (m - 1)}"
        )
    if verify:
        witness = is_rmds(a, m, 3, cap=cap)
        if witness is not None:
            raise ValueError(
                f"matrix failed the RMDS_3 check (rows {witness.rows}, kernel "
                f"{witness.kernel.x}); pass verify=False to compile anyway"
            )
    # Fan-in pairs: r*m*n layer gates of at most 2n each, and the top gate's.
    _check_cap(r * m * n * (2 * n + 1), cap)
    layer = [
        (_difference_fan(a, i, level), -a[i, level])
        for level in range(n)
        for i in range(r * m)
    ]
    return _depth_two(2 * n, layer, LT, -1, -n * (m - 1) + 1)


def exactify_to_lt(c: ThresholdCircuit) -> ThresholdCircuit:
    """Rewrite every EXACT gate into a complementary LT pair.

    1{F = b} = 1{F >= b} + 1{-F >= -b} - 1: consumers take both halves with
    the original weight and absorb the constant -1 into their bias (raising
    an LT/EXACT threshold by the weight, lowering a SUM offset by it).  An
    EXACT output gate gains one SUM gate to realize the -1.
    """
    source = c.gates
    next_id = max(source) + 1
    split: dict[int, tuple[int, int]] = {}
    gates: list[Gate] = []
    for gid in c.topo_order:
        g = source[gid]
        if g.kind == INPUT:
            gates.append(g)
            continue
        fan: list[tuple[int, int]] = []
        bias = g.bias
        for src, w in g.fan_in:
            if src in split:
                plus, minus = split[src]
                fan += [(plus, w), (minus, w)]
                bias = bias - w if g.kind == SUM else bias + w
            else:
                fan.append((src, w))
        if g.kind == EXACT:
            gates.append(Gate(gid, LT, tuple(fan), bias))
            gates.append(Gate(next_id, LT, tuple((s, -w) for s, w in fan), -bias))
            split[gid] = (gid, next_id)
            next_id += 1
        else:
            gates.append(Gate(gid, g.kind, tuple(fan), bias))
    output = c.output
    if output in split:
        plus, minus = split[output]
        gates.append(Gate(next_id, SUM, ((plus, 1), (minus, 1)), -1))
        output = next_id
    return ThresholdCircuit(gates, c.inputs, output)


def write_circuit(c: ThresholdCircuit) -> str:
    """Line-based text form: inputs/output headers, then one gate per line."""
    lines = [
        "inputs " + " ".join(str(i) for i in c.inputs),
        f"output {c.output}",
    ]
    gates = c.gates
    for gid in sorted(gates):
        g = gates[gid]
        parts = [str(gid), g.kind, str(g.bias)]
        parts.extend(f"{src}:{w}" for src, w in g.fan_in)
        lines.append(" ".join(parts))
    lines.append("")  # a final newline without copying the joined text
    return "\n".join(lines)


def read_circuit(text: str) -> ThresholdCircuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("inputs ") or not lines[1].startswith(
        "output "
    ):
        raise CircuitFormatError("expected 'inputs ...' and 'output ...' headers")
    try:
        inputs = tuple(int(t) for t in lines[0].split()[1:])
        output = int(lines[1].split()[1])
    except (ValueError, IndexError):
        raise CircuitFormatError("malformed header") from None
    gates = []
    for line in lines[2:]:
        try:
            gid, kind, bias, *tokens = line.split()
            # Every fan-in token is src:weight with exactly one colon.
            if set(map(str.count, tokens, repeat(":"))) - {1}:
                raise ValueError
            nums = map(int, ":".join(tokens).split(":") if tokens else ())
            # zip over one iterator pairs each source with the weight after it.
            gid, bias, fan = int(gid), int(bias), tuple(zip(nums, nums))
        except ValueError:
            raise CircuitFormatError(f"malformed gate line {line!r}") from None
        gates.append(Gate(gid, kind, fan, bias))
    return ThresholdCircuit(gates, inputs, output)


def format_trace(values: dict[int, int]) -> str:
    return "\n".join(f"gate {gid} = {values[gid]}" for gid in sorted(values)) + "\n"
