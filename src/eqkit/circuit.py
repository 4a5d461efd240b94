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

import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .matrix import _CHUNK_BYTES, _EXACT_INT_BYTES, _INT64_SAFE, _LIMIT, IntMatrix, MagnitudeError
from .matrix import _check_budget, _checked_sum, _column, _plain_numbers, checked
from .verify import _check_cap, _keys, is_eq_q, is_rmds

INPUT = "INPUT"
LT = "LT"
EXACT = "EXACT"
SUM = "SUM"
_KINDS = (INPUT, LT, EXACT, SUM)
_CODE = {kind: code for code, kind in enumerate(_KINDS)}
# The code of each kind by whether its gate line has fan-in text: an INPUT
# gate has none.
_FANNED_CODE = {(kind, False): code for kind, code in _CODE.items()}
_FANNED_CODE.update({(kind, True): code for kind, code in _CODE.items() if kind != INPUT})

# exhaustive_check streams chunks of at most 2**_MAX_CHUNK_BITS assignments,
# fewer when a chunk's tables and gate arrays would pass _CHUNK_BYTES.
_MAX_CHUNK_BITS = 16

# Building a circuit maps sources to rows, and frees each level's consumers, in
# runs of this many edges, so the temporaries stay small next to the columns.
_RUN_EDGES = 1 << 14

class CircuitFormatError(ValueError):
    """Circuit text does not conform to the file format."""


def _check_kind(kind: str, fanned: bool) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    if kind == INPUT and fanned:
        raise ValueError("INPUT gates take no fan-in")


@dataclass(frozen=True)
class Gate:
    gid: int
    kind: str
    fan_in: tuple[tuple[int, int], ...] = ()
    bias: int = 0

    def __post_init__(self) -> None:
        gid = _integer("id", self.gid)
        fan = tuple((_integer("source", src), _integer("weight", w)) for src, w in self.fan_in)
        _check_kind(self.kind, bool(fan))
        _check_budget([w for _, w in fan])
        object.__setattr__(self, "gid", gid)
        object.__setattr__(self, "fan_in", fan)
        object.__setattr__(self, "bias", checked(_integer("bias", self.bias)))


def _integer(field: str, value) -> int:
    """value as a Python int, if it is an integer (numpy's too); else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"gate {field} {value!r} is not an integer") from None


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenation of range(starts[i], stops[i]) over i."""
    lengths = stops - starts
    out = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(out.size)
    return out


def _kahn(indptr: np.ndarray, src: np.ndarray, keys: np.ndarray) -> list[np.ndarray]:
    """The rows in Kahn order as batches, one per longest-path level.

    Kahn's queue starts with the rows without fan-in by gid (keys); each
    dequeued row frees the consumers whose last source it was, by gid.  So
    a freed row sorts by (position of its last source, gid), and a whole
    level is ordered in one step, with no Python step per edge.  Each level
    scans, in runs, only the edges still waiting, and drops the ones it
    consumes; a depth-2 circuit scans its edges once.  A deep circuit still
    takes a round of numpy calls per level.
    """
    size = indptr.size - 1
    waiting = indptr[1:] - indptr[:-1]  # then -1 once placed
    # The source and consumer rows of the edges still waiting, compacted in
    # place after each level.
    src, dst = src.copy(), np.arange(size, dtype=src.dtype).repeat(waiting)
    batch = (waiting == 0).nonzero()[0]
    batch = batch[keys[batch].argsort()]
    pos = np.full(size, -1)  # -1 until placed
    last = np.zeros(size, dtype=np.int64)  # the position of a row's last source
    levels, done = [], 0
    while batch.size:
        levels.append(batch)
        start, done = done, done + batch.size
        pos[batch], waiting[batch] = np.arange(start, done), -1
        if done == size:
            break
        kept = 0  # each run's waiting edges move down to src[kept:], dst[kept:]
        for lo in range(0, src.size, _RUN_EDGES):
            run_src, run_dst = src[lo : lo + _RUN_EDGES], dst[lo : lo + _RUN_EDGES]
            at = pos.take(run_src)
            placed = at >= 0  # the run's edges out of this batch: earlier ones were dropped
            freeing = run_dst[placed]
            waiting -= np.bincount(freeing, minlength=size)
            np.maximum.at(last, freeing, at[placed])
            keep = ~placed
            run_src, run_dst = run_src[keep], run_dst[keep]
            src[kept : kept + run_src.size], dst[kept : kept + run_dst.size] = run_src, run_dst
            kept += run_src.size
        src, dst = src[:kept], dst[:kept]
        batch = (waiting == 0).nonzero()[0]
        if batch.size > 1:
            batch = batch[np.lexsort((keys[batch], last[batch]))]
    if done < size:
        raise ValueError("circuit contains a cycle")
    return levels


def _apply(code: np.ndarray, acc: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Gate values from fan-in sums: LT and EXACT give 0 or 1, SUM adds its bias."""
    fired = np.where(code == _CODE[LT], acc >= bias, acc == bias).astype(np.int64)
    return np.where(code == _CODE[SUM], acc + bias, fired)


def _id_table(ordered: np.ndarray, by_gid: np.ndarray, limit: int) -> Optional[np.ndarray]:
    """The rows by id - min + 1 between two slots of -1, which an id below or
    above every gate id clips to; None unless the sorted ids are int64 and
    span at most limit values."""
    if ordered.dtype == object:
        return None
    span = int(ordered[-1]) - int(ordered[0]) + 1
    if span > limit:
        return None
    table = np.full(span + 2, -1, dtype=by_gid.dtype)
    table[ordered - (ordered[0] - 1)] = by_gid
    return table


def _id_rows(gids, code, counts, sources, inputs, output):
    """Check the ids of gates whose own fields are checked, and look them up.

    Raises the first fault, in this order: a repeated id (at the first row
    that repeats an earlier one), an input that is no INPUT gate, repeated
    inputs, an INPUT gate missing from the input list, a missing output, a
    missing source (at the first edge).  One stable argsort of the ids
    finds repeats and serves every lookup.  Sources are looked up in runs:
    through a table of rows indexed by id - min when the ids are int64 and
    dense (their span at most the gates plus edges, so the table is no
    larger than the columns), else by searchsorted on the sorted ids.
    Returns the id column (exact ints when the sources are), then the
    source rows, the input rows and the output row.
    """
    keys = _column(gids)
    if keys.dtype != sources.dtype:
        keys, sources = keys.astype(object), sources.astype(object)
    by_gid = keys.argsort(kind="stable")
    ordered, by_gid = keys[by_gid], by_gid.astype(np.min_scalar_type(-keys.size))
    again = ordered[1:] == ordered[:-1]
    if again.any():
        raise ValueError(f"duplicate gate id {keys[by_gid[1:][again].min()]}")
    # The header ids as rows: -1, past the last row, stands for an id that is no gate.
    head = _column([*inputs, output])
    wide = ordered if head.dtype == ordered.dtype else ordered.astype(object)
    at = wide.searchsorted(head)
    rows = np.append(by_gid, -1)[np.where(wide.searchsorted(head, side="right") > at, at, -1)]
    ins, out = rows[:-1], int(rows[-1])
    unlisted = np.append(np.equal(code, _CODE[INPUT]), False)
    if not unlisted[ins].all():
        raise ValueError(f"input id {head[(~unlisted[ins]).argmax()]} is not an INPUT gate")
    if np.bincount(ins, minlength=1).max() > 1:
        raise ValueError("input ids must not repeat")
    unlisted[ins] = False
    if unlisted.any():
        raise ValueError(f"INPUT gate {keys[unlisted.argmax()]} is missing from the input list")
    if out < 0:
        raise ValueError(f"output id {output} does not exist")
    table = _id_table(ordered, by_gid, keys.size + sources.size)
    runs = [by_gid[:0]]
    for lo in range(0, sources.size, _RUN_EDGES):
        run = sources[lo : lo + _RUN_EDGES]
        if table is None:
            at = ordered.searchsorted(run)
            rows, missing = by_gid.take(at, mode="clip"), ordered.take(at, mode="clip") != run
        else:
            rows = table.take(run - (ordered[0] - 1), mode="clip")
            missing = rows < 0
        if missing.any():
            edge = lo + int(missing.argmax())
            gid = keys[np.cumsum(counts).searchsorted(edge, side="right")]
            raise ValueError(f"gate {gid} references missing source {sources[edge]}")
        runs.append(rows)
    return keys, np.concatenate(runs), ins, out


class ThresholdCircuit:
    """Immutable DAG of gates with one designated output, stored by columns.

    Row r is a gate: its id, kind code and bias in the _keys, _code and
    _bias columns, and its fan-in in CSR form, the edges indptr[r]:indptr[r+1]
    of the source-row and weight columns.  The columns are the only copy of
    a gate's fields.  Rows keep the order the gates came in; ids are looked
    up once, where they come in (here and in read_circuit).  Ids, biases and
    weights follow the _column rule: int64, or exact ints when one of them
    (for weights in a file, any fan-in integer) reaches 2**62.  Gate objects
    are a view, built on first use.
    """

    def __init__(self, gates: Iterable[Gate], inputs: Sequence[int], output: int):
        gates = list(gates)
        edges = list(chain.from_iterable(g.fan_in for g in gates))
        sources, weights = _column([s for s, _ in edges]), _column([w for _, w in edges])
        code, counts = np.int8([_CODE[g.kind] for g in gates]), [len(g.fan_in) for g in gates]
        rows = _id_rows([g.gid for g in gates], code, counts, sources, inputs, output)
        self._build(code, [g.bias for g in gates], counts, weights, *rows)
        self._batches  # a cycle raises here

    def _build(self, codes, biases, counts, weights, keys, src, ins, out) -> None:
        """Store checked columns; the sources, inputs and output come as rows."""
        self._indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.asarray(counts, dtype=np.int64).cumsum(out=self._indptr[1:])
        self._keys, self._code, self._bias = keys, np.asarray(codes, dtype=np.int8), _column(biases)
        # Rows fit the smallest signed int type: a small source column.
        self._src = src.astype(np.min_scalar_type(-keys.size), copy=False)
        self._weights, self._in, self._out = weights, ins, out

    @cached_property
    def _by_gid(self) -> np.ndarray:
        """The rows sorted by gid."""
        return self._keys.argsort()

    @cached_property
    def _gate_map(self) -> dict[int, Gate]:
        sources = self._keys[self._src].tolist()
        weights = self._weights.tolist()
        bounds = self._indptr.tolist()
        return {
            gid: Gate(gid, _KINDS[code], tuple(zip(sources[a:b], weights[a:b])), bias)
            for gid, code, bias, a, b in zip(
                self._keys.tolist(), self._code.tolist(), self._bias.tolist(), bounds, bounds[1:]
            )
        }

    @cached_property
    def _batches(self) -> list[np.ndarray]:
        """The rows in Kahn order, one batch per level; built at construction
        unless the circuit is acyclic by construction."""
        return _kahn(self._indptr, self._src, self._keys)

    @cached_property
    def _order(self) -> np.ndarray:
        return np.concatenate(self._batches)

    @cached_property
    def _ordered_rows(self) -> np.ndarray:
        return self._order[self._code[self._order] != _CODE[INPUT]]

    @cached_property
    def _levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per level after the first: rows, then their fan-in as sources, weights
        and segment starts, in the layout np.add.reduceat takes."""
        fan = np.diff(self._indptr)
        levels = []
        for rows in self._batches[1:]:
            edges = _ranges(self._indptr[rows], self._indptr[rows + 1])
            starts = np.cumsum(fan[rows]) - fan[rows]
            levels.append((rows, self._src[edges], self._weights[edges], starts))
        return levels

    @cached_property
    def _bounds(self) -> np.ndarray:
        """Per row, a bound on sum(|w_i * v_i|) + |bias| over every assignment.

        A source's |v| is at most 1, or its own bound for a SUM gate.  A
        float64 pass, capped so it cannot overflow, decides whether int64
        holds every bound exactly; else they are exact ints.
        """

        def bounds(dtype, cap=None):
            bound = np.abs(self._bias.astype(dtype))
            reach = np.where(self._code == _CODE[SUM], bound, 1).astype(dtype)
            for rows, src, w, starts in self._levels:
                terms = np.abs(w.astype(dtype))
                terms *= reach[src]
                b = np.add.reduceat(terms, starts)
                b = b + bound[rows] if cap is None else np.minimum(b + bound[rows], cap)
                bound[rows] = b
                reach[rows] = np.where(self._code[rows] == _CODE[SUM], b, 1)
            return bound

        small = bounds(float, 2.0**64).max() < 2.0**61
        return bounds(np.int64 if small and self._weights.dtype != object else object)

    @property
    def gates(self) -> dict[int, Gate]:
        return dict(self._gate_map)

    @property
    def inputs(self) -> tuple[int, ...]:
        return tuple(self._keys[self._in].tolist())

    @property
    def output(self) -> int:
        return int(self._keys[self._out])

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        return tuple(self._keys[self._order].tolist())

    @cached_property
    def depth(self) -> int:
        depth = np.isin(self._code, (_CODE[LT], _CODE[EXACT])).astype(np.int64)
        for rows, src, _, starts in self._levels:
            depth[rows] += np.maximum.reduceat(depth[src], starts)
        return int(depth[self._out])

    @property
    def gate_count(self) -> int:
        """Number of non-input gates."""
        return len(self._ordered_rows)


def eval_circuit(
    c: ThresholdCircuit, assignment: Sequence[int], want_trace: bool = False
) -> Union[int, tuple[int, dict[int, int]]]:
    """Topological evaluation on one bit assignment; optionally the per-gate trace.

    A level of gates takes one product and one np.add.reduceat, in int64
    when every gate's bound lies below 2**62, else in exact ints.  A gate
    whose bound reaches 2**127 then sums its terms once more through the
    budget check, in topological order, so the first value out of budget
    raises MagnitudeError as a gate-by-gate walk would.
    """
    if len(assignment) != c._in.size:
        raise ValueError(f"assignment length {len(assignment)} != input count {c._in.size}")
    if any(b not in (0, 1) for b in assignment):
        raise ValueError("assignment entries must be bits")
    bits = [int(b) for b in assignment]
    bounds, code, bias = c._bounds, c._code, c._bias
    exact = bounds.max() >= _INT64_SAFE or c._weights.dtype == object
    values = _apply(code, np.zeros(len(code), dtype=object if exact else np.int64), bias)
    values[c._in] = bits
    for rows, src, w, starts in c._levels:
        terms = values[src]
        terms *= w
        values[rows] = _apply(code[rows], np.add.reduceat(terms, starts), bias[rows])
        if not exact:
            continue
        ends = [*starts[1:].tolist(), len(src)]
        for t in np.flatnonzero(bounds[rows] >= _LIMIT).tolist():
            a, b, row = int(starts[t]), ends[t], int(rows[t])
            terms = [x * v for x, v in zip(w[a:b].tolist(), values[src[a:b]].tolist())]
            acc = _checked_sum(terms, sum(map(abs, terms)))
            if code[row] == _CODE[SUM]:
                checked(acc + int(bias[row]))
    value = int(values[c._out])
    if not want_trace:
        return value
    rows = np.concatenate([c._in, c._ordered_rows])
    return value, dict(zip(c._keys[rows].tolist(), values[rows].tolist()))


def _reference_form(reference, n_inputs, n, weights, values):
    """The named reference as a linear form: 1 iff test(sum(coef[t] * x_t)).

    Validates the reference arguments.  test takes a signed integer or an
    object array.
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

        def test(s):
            if s.dtype == object:
                return np.isin(s, exact)
            # Sums on an integer route fit its type, so values outside it never match.
            span = np.iinfo(s.dtype)
            return np.isin(s, exact[(exact >= span.min) & (exact <= span.max)].astype(s.dtype))

        return [int(w) for w in weights], test
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
    n_inputs = c._in.size
    coef, test = _reference_form(reference, n_inputs, n, weights, values)
    _check_cap(1 << n_inputs, cap)
    return _stream_check(c, coef, test)


def _assignment(row: int, k: int) -> tuple[int, ...]:
    """Bits of row, input 0 first."""
    return tuple((row >> (k - 1 - t)) & 1 for t in range(k))


def _stream_check(c: ThresholdCircuit, coef: Sequence[int], test):
    """exhaustive_check in aligned chunks of 2**L assignments.

    Form rows run over the inputs, and over the earlier gates as edges: one
    per gate, one of |w| summed per edge (never per source, which could hide
    a partial sum) per gate whose reach passes 2**127, the reference, and a
    unit row for an input that is the output.  In chunk h the first k - L
    inputs are the bits of h, and the last L run through the same 2**L
    columns in every chunk.  So a row's input part splits into a table over
    the low inputs, built once, plus one scalar per chunk from the high
    inputs; its edges take the earlier gates' values (|values| for a bound
    row).  Rows where a bound reaches 2**127 are replayed by eval_circuit up
    to the chunk's first mismatch, to raise where it would.
    """
    k, gates = c._in.size, c._ordered_rows
    g = gates.size
    bounds = c._bounds[gates]
    risky = gates[bounds >= _LIMIT]
    # Each circuit row's form column: the inputs in order, then the gates.
    col = np.concatenate([c._in, gates]).argsort()
    out, ref = int(col[c._out]) - k, g + risky.size  # out < 0 for an input
    # Gates keep their rule; a bound row is a SUM with |bias|, the reference
    # and unit rows are SUMs with bias 0.
    rules = list(zip(c._code[gates].tolist(), c._bias[gates].tolist()))
    rules += [(_CODE[SUM], b) for b in np.abs(c._bias[risky]).tolist()]
    rules += [(_CODE[SUM], 0)] * (1 + (out < 0))
    owners = np.concatenate([gates, risky])  # the circuit row of each gate or bound row
    counts = np.diff(c._indptr)[owners]
    edges = _ranges(c._indptr[owners], c._indptr[owners + 1])
    rows, cols = np.arange(owners.size).repeat(counts), col[c._src[edges]]
    weights, split = c._weights[edges], counts[:g].sum()
    weights[split:] = np.abs(weights[split:])
    # Every table entry, gate value, feed term and reference sum lies within
    # +-top.  A weight counts on its own: on a source that is always 0 it
    # leaves the gate's bound small.  The forms are int64 (or exact) for
    # _keys; the stream runs in the narrowest type that holds -top - 1, so
    # +top too, and in exact ints from 2**62 on.
    top = max(bounds.max(initial=0), np.abs(weights).max(initial=0), sum(map(abs, coef)))
    fits = top < _INT64_SAFE and weights.dtype != object
    wide = np.int64 if fits else object
    dtype = np.min_scalar_type(-int(top) - 1) if fits else object
    # Input columns are dense; an edge from a gate stays a (gate, weight) pair.
    fed = cols >= k
    forms = np.zeros((len(rules), k), dtype=wide)
    np.add.at(forms, (rows[~fed], cols[~fed]), weights[~fed])
    forms[ref] = coef
    if out < 0:
        forms[-1, out + k] = 1
        out = len(forms) - 1
    pairs = list(zip((cols[fed] - k).tolist(), weights[fed].tolist()))
    cuts = np.searchsorted(rows[fed], np.arange(len(forms) + 1)).tolist()
    feeds = [pairs[a:b] for a, b in zip(cuts, cuts[1:])]
    # Per row: a table and a value array per form, and the reference test;
    # an object entry is a pointer plus an int of up to 128 bits.
    row_bytes = (dtype.itemsize if fits else 8 + _EXACT_INT_BYTES) * (2 * len(forms) + 1)
    bits = min(k, _MAX_CHUNK_BITS)
    while bits and row_bytes << bits > _CHUNK_BYTES:
        bits -= 1
    low = k - bits
    # Input 0 is the top counter bit, so the low inputs run last to first.
    # The casts free the int64 arrays _keys builds.  Fresh per-chunk arrays
    # still fault their pages in: measured per call on the n=10 CRT EQ check,
    # 256-320 minor faults with int16 tables against 864-928 with int64 ones.
    # A form without low inputs gets a single zero, which broadcasts.
    tables = [
        _keys(f[low:][::-1], range(2)).astype(dtype) if f[low:].any() else np.zeros(1, dtype)
        for f in forms
    ]
    high = forms[:, :low]
    shifts = np.arange(low - 1, -1, -1, dtype=np.int64)
    for h in range(1 << low):
        offsets = (high @ ((h >> shifts) & 1)).tolist()
        values = []
        for t, (acc, (kind, bias), offset, feed) in enumerate(zip(tables, rules, offsets, feeds)):
            for j, w in feed:
                # The product takes the stream's type, exact past int64.
                acc = acc + np.multiply(w, values[j] if t < g else abs(values[j]), dtype=dtype)
            if kind == _CODE[LT]:
                values.append(acc >= bias - offset)
            elif kind == _CODE[EXACT]:
                values.append(acc == bias - offset)
            else:
                values.append(acc + (bias + offset))
        bad = np.flatnonzero(values[out] != test(values[ref]))
        over = np.zeros(1 << bits if risky.size else 0, dtype=bool)
        for mag in values[g:ref]:
            over |= mag >= _LIMIT
        for row in np.flatnonzero(over[: bad[0] + 1 if bad.size else None]).tolist():
            eval_circuit(c, _assignment(h << bits | row, k))  # may raise
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
                "pass verify=False (--unchecked) to compile anyway"
            )
    layer = _difference_layer(a, np.arange(a.m), 0)
    return _depth_two(2 * a.n, *layer, [0] * a.m, EXACT, 1, a.m)


def _difference_layer(
    a: IntMatrix, rows: np.ndarray, start: Union[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fan-in columns of one gate per entry of rows: row rows[g] of A, restricted
    to columns start[g].. (start broadcasts against the columns), on x minus y.

    Returns the sources by row (x_j and y_j are rows j and n + j), the
    weights and the per-gate counts.  The gates' masks side by side, x then
    y, list each gate's x pairs, then its y pairs, by column.
    """
    mask = np.tile((a.array != 0)[rows] & (np.arange(a.n) >= start), 2)
    col, counts = np.flatnonzero(mask) % (2 * a.n), mask.sum(axis=1)
    weights = np.concatenate([a.array, -a.array], axis=1)[rows.repeat(counts), col]
    return col, weights, counts


def _depth_two(
    k: int, sources: np.ndarray, weights: np.ndarray, counts: np.ndarray, biases: list[int],
    top_kind: str, top_weight: int, top_bias: int,
) -> ThresholdCircuit:
    """Inputs 1..k, one EXACT gate per bias in biases, then the top gate.

    Gate id r + 1 is row r.  The layer's fan-in comes as CSR columns:
    sources by row, weights and per-gate counts, each weight and bias
    already inside the budget.  The circuit is acyclic by construction, so
    its order is built on first use.
    """
    g = len(biases)
    top = k + g  # the top gate's row
    c = ThresholdCircuit.__new__(ThresholdCircuit)
    c._build(
        np.repeat(np.int8([_CODE[INPUT], _CODE[EXACT], _CODE[top_kind]]), [k, g, 1]),
        [0] * k + biases + [top_bias],
        np.concatenate([np.zeros(k, dtype=np.int64), counts, [g]]),
        np.concatenate([weights, np.full(g, top_weight)]),
        np.arange(1, top + 2),
        np.concatenate([sources, np.arange(k, top)]),
        np.arange(k),
        top,
    )
    return c


def compile_value_set(weights: Sequence[int], values: Iterable[int]) -> ThresholdCircuit:
    """Depth-2 circuit for 1{weights . x in values}: one EXACT gate per value, OR on top."""
    weights = [int(w) for w in weights]
    accepted = sorted(set(int(s) for s in values))
    n = len(weights)
    if n < 1:
        raise ValueError("at least one weight is required")
    _check_budget(weights)
    if not accepted:
        warnings.warn("empty accepted set; emitting a constant-0 circuit")
    _check_budget(accepted)
    column = _column(weights)
    fan, g = np.flatnonzero(column), len(accepted)
    layer = np.tile(fan, g), np.tile(column[fan], g), np.full(g, fan.size)
    return _depth_two(n, *layer, accepted, LT, 1, 1)


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
    if n < 1 or m < 1 or r < 1:
        raise ValueError("n, m and r must be positive")
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
                f"{witness.kernel.x}); pass verify=False (--unchecked) to compile anyway"
            )
    # Fan-in pairs: r*m*n layer gates of at most 2n each, and the top gate's.
    _check_cap(r * m * n * (2 * n + 1), cap)
    # Layer gate (level, i) is row i from column level on; levels run outermost.
    rows, levels = np.tile(np.arange(r * m), n), np.arange(n).repeat(r * m)
    layer = _difference_layer(a, rows, levels[:, None])
    return _depth_two(2 * n, *layer, (-a.array.T).ravel().tolist(), LT, -1, -n * (m - 1) + 1)


def exactify_to_lt(c: ThresholdCircuit) -> ThresholdCircuit:
    """Rewrite every EXACT gate into a complementary LT pair.

    1{F = b} = 1{F >= b} + 1{-F >= -b} - 1: consumers take both halves with
    the original weight and absorb the constant -1 into their bias (raising
    an LT/EXACT threshold by the weight, lowering a SUM offset by it).  An
    EXACT output gate gains one SUM gate to realize the -1.  The second
    halves take the ids after the largest, in topological order; gates come
    out in topological order, each second half right after its first.

    On the columns: each edge from an EXACT gate is repeated, the copy
    reading that gate's second half; each EXACT row is repeated with negated
    weights; each bias moves by one segment sum of its doubled edges' weights.
    """
    order, code, ptr = c._order, c._code, c._indptr
    exact = code == _CODE[EXACT]
    doubled = np.flatnonzero(exact[c._src])  # the edges from an EXACT gate
    cuts = doubled.searchsorted(ptr)  # per row boundary, the doubled edges before it
    # A row's shift is a difference of running sums over the doubled edges'
    # weights, in int64 while the sum of their magnitudes stays below 2**61.
    shift, bias = c._weights[doubled], c._bias
    if bias.dtype == object or shift.dtype == object or np.abs(shift).sum(dtype=float) >= 2.0**61:
        shift, bias = shift.astype(object), bias.astype(object)
    shift = np.diff(np.concatenate([[0], shift]).cumsum()[cuts])
    bias = bias + np.where(code == _CODE[SUM], -shift, shift)
    if bias.dtype == object:  # the first bias out of budget in topological order raises
        _check_budget(bias[order])
    # The rows in topological order, each EXACT row followed by its twin.
    rows = order.repeat(exact[order] + 1)
    twin = np.zeros(rows.size, dtype=bool)
    twin[1:] = rows[1:] == rows[:-1]
    at = np.empty_like(order)  # each row's place among the new rows
    at[order] = np.flatnonzero(~twin)
    first, twins = int(c._keys.max()) + 1, rows.size - order.size
    keys = c._keys[rows]
    keys[twin] = first + np.arange(twins, dtype=keys.dtype)
    biases, counts = bias[rows], np.diff(ptr + cuts)[rows]
    biases[twin] = -biases[twin]
    # Each row's edges, each edge from an EXACT gate followed by its copy.
    edges = _ranges(ptr[rows], ptr[rows + 1])
    again = exact[c._src[edges]]
    copies = np.flatnonzero(again)
    edges = edges.repeat(again + np.int8(1))
    weights = c._weights[edges]
    weights[twin.repeat(counts)] *= -1
    sources = at[c._src[edges]]
    sources[copies + np.arange(1, copies.size + 1)] += 1  # a copy reads the second half
    codes, out = np.where(exact, _CODE[LT], code)[rows], int(at[c._out])
    if exact[c._out]:
        sources = np.concatenate([sources, [out, out + 1]])
        keys, codes = np.concatenate([keys, [first + twins]]), np.concatenate([codes, [_CODE[SUM]]])
        biases, counts = np.concatenate([biases, [-1]]), np.concatenate([counts, [2]])
        weights, out = np.concatenate([weights, [1, 1]]), rows.size
    lt = ThresholdCircuit.__new__(ThresholdCircuit)  # acyclic, as c is; ids may reach 2**62
    lt._build(codes, biases, counts, weights, _column(keys), sources, at[c._in], out)
    return lt


def write_circuit(c: ThresholdCircuit) -> str:
    """Line-based text form: inputs/output headers, then one gate per line by id."""
    size, ptr = c._code.size, c._indptr.tolist()
    gids, kinds, biases = c._keys.tolist(), c._code.tolist(), c._bias.tolist()
    texts = []
    # Gates are written in runs of about _RUN_EDGES fan-in pairs, in line order.
    step = max(1, _RUN_EDGES * size // max(ptr[-1], 1))
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        sources = c._keys[c._src[ptr[lo] : ptr[hi]]].tolist()
        weights = c._weights[ptr[lo] : ptr[hi]].tolist()
        for r in range(lo, hi):
            a, b = ptr[r] - ptr[lo], ptr[r + 1] - ptr[lo]
            pairs = (f"{s}:{w}" for s, w in zip(sources[a:b], weights[a:b]))
            texts.append(" ".join([f"{gids[r]} {_KINDS[kinds[r]]} {biases[r]}", *pairs]))
    lines = ["inputs " + " ".join(str(i) for i in c.inputs), f"output {c.output}"]
    lines += map(texts.__getitem__, c._by_gid.tolist())
    lines.append("")  # a final newline without copying the joined text
    return "\n".join(lines)


def read_circuit(text: str) -> ThresholdCircuit:
    """Parse the circuit file format; inverse of write_circuit on canonical text.

    Each gate line is split once into gid, kind, bias and its fan-in text.
    When every line passes its checks and the fan-in texts joined are plain
    (see matrix._plain_numbers), one np.fromstring reads all of them;
    otherwise every line goes through int() token by token, which raises the
    first fault in line order.
    """
    lines = _gate_lines(text)
    try:
        inputs = tuple(map(int, lines[0].split()[1:]))
        _, output = lines[1].split()
        output = int(output)
    except ValueError:
        raise CircuitFormatError("malformed header") from None
    fields = [line.split(None, 3) for line in lines[2:]]
    del lines  # the plain route needs no line text
    try:
        gids = [int(f[0]) for f in fields]
        codes = [_FANNED_CODE[f[1], len(f) > 3] for f in fields]
        biases = [int(f[2]) for f in fields]
        _check_budget(biases)
        counts = [f[3].count(":") if len(f) > 3 else 0 for f in fields]
        fans = " ".join([f[3] for f in fields if len(f) > 3]).encode("ascii", "replace")
    # The int() route names the first fault, in line order.
    except (ValueError, MagnitudeError, KeyError, IndexError):
        fans = None
    del fields
    nums = None if fans is None else _plain_numbers(fans, 2 * sum(counts), pairs=True)
    del fans
    if nums is None:
        gids, codes, biases, counts, nums = _read_gates(_gate_lines(text)[2:])
    sources, weights = nums[0::2].copy(), nums[1::2].copy()
    del nums
    rows = _id_rows(gids, codes, counts, sources, inputs, output)
    c = ThresholdCircuit.__new__(ThresholdCircuit)
    c._build(codes, biases, counts, weights, *rows)
    c._batches  # a cycle raises here
    return c


def _gate_lines(text: str) -> list[str]:
    """The non-blank lines of a circuit file, after checking its two headers."""
    lines = [ln for ln in text.splitlines() if ln and not ln.isspace()]
    if len(lines) < 3 or not lines[0].startswith("inputs ") or not lines[1].startswith(
        "output "
    ):
        raise CircuitFormatError("expected 'inputs ...' and 'output ...' headers")
    return lines


def _read_gates(lines: list[str]) -> tuple[list, list, list, list, np.ndarray]:
    """gids, kind codes, biases, fan-in counts and the fan-in numbers of gate lines, by int()."""
    gids, codes, biases, counts, values = [], [], [], [], []
    for line in lines:
        try:
            gid, kind, bias, *rest = line.split(None, 3)
            gid, bias, tokens = int(gid), int(bias), "".join(rest).split()
            # Every fan-in token is src:weight with exactly one colon.
            if set(map(str.count, tokens, repeat(":"))) - {1}:
                raise ValueError
            nums = list(map(int, ":".join(tokens).split(":"))) if tokens else []
        except ValueError:
            raise CircuitFormatError(f"malformed gate line {line!r}") from None
        _check_kind(kind, bool(tokens))
        _check_budget(nums[1::2])
        gids.append(gid)
        codes.append(_CODE[kind])
        biases.append(checked(bias))
        counts.append(len(tokens))
        values += nums
    return gids, codes, biases, counts, _column(values)


def format_trace(values: dict[int, int]) -> str:
    return "\n".join(f"gate {gid} = {values[gid]}" for gid in sorted(values)) + "\n"
