"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: plain loops over itertools.product,
cofactor expansion and one gate at a time, sharing no code with the
implementations under test.
"""

from __future__ import annotations

import itertools


def dot(row, x):
    return sum(a * b for a, b in zip(row, x))


def apply_rows(rows, x):
    return tuple(dot(row, x) for row in rows)


def brute_kernel(rows, q):
    """First nonzero kernel vector, enumerating with coordinate 0 fastest."""
    n = len(rows[0])
    for rev in itertools.product(range(-(q - 1), q), repeat=n):
        x = rev[::-1]
        if any(x) and not any(apply_rows(rows, x)):
            return x
    return None


def brute_collision(rows, q):
    """Earlier-minus-later difference of the first colliding encoding pair."""
    n = len(rows[0])
    seen = {}
    for rev in itertools.product(range(q), repeat=n):
        x = rev[::-1]
        z = apply_rows(rows, x)
        if z in seen:
            return tuple(a - b for a, b in zip(seen[z], x))
        seen[z] = x
    return None


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = 0
    for j in range(size):
        minor = [
            [rows[i][c] for c in range(size) if c != j] for i in range(1, size)
        ]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def binary_image(rows):
    """Map image tuple -> binary preimage over all of {0,1}^n."""
    n = len(rows[0])
    out = {}
    for x in itertools.product((0, 1), repeat=n):
        out[apply_rows(rows, x)] = x
    return out


def comp_window_value(diff, level):
    """Value of the difference window at a level: sum of 2^(j-level-1) * diff_j."""
    return sum(d << (j - level) for j, d in enumerate(diff[level:], start=0))


def recursion_entry(prev, q, r, c):
    """Entry (r, c) of one block-recursion step applied to the rows ``prev``.

    Row block 0 is q copies of A followed by the identity; row block t >= 1
    holds +A in column block t-1, -A in column block t, and zeros elsewhere.
    """
    m, n = len(prev), len(prev[0])
    t, i = divmod(r, m)
    if c >= q * n:
        return 1 if t == 0 and c - q * n == i else 0
    s, j = divmod(c, n)
    if t == 0 or s == t - 1:
        return prev[i][j]
    if s == t:
        return -prev[i][j]
    return 0


def block_recursion(base, q, k):
    """Rows after k block-recursion steps from ``base``, one entry at a time."""
    rows = [list(row) for row in base]
    for _ in range(k):
        m, n = len(rows), len(rows[0])
        rows = [
            [recursion_entry(rows, q, r, c) for c in range(q * n + m)]
            for r in range(q * m)
        ]
    return rows


class BudgetError(ArithmeticError):
    """A product, partial sum or SUM value reached 2**127 in magnitude."""


def _in_budget(v):
    if abs(v) >= 1 << 127:
        raise BudgetError(f"|{v}| exceeds the 2^127 budget")
    return v


def kahn_order(gates):
    """Gate ids in Kahn order; gates maps gid -> (kind, fan_in, bias).

    Gates without fan-in come first by id; then, for each gate in turn, the
    consumers whose last source it was, by id.  A cycle leaves gates out.
    """
    waiting = {gid: len(fan) for gid, (_, fan, _) in gates.items()}
    order = sorted(gid for gid, count in waiting.items() if count == 0)
    for gid in order:
        freed = []
        for other, (_, fan, _) in gates.items():
            for src, _ in fan:
                if src == gid:
                    waiting[other] -= 1
                    if waiting[other] == 0:
                        freed.append(other)
        order.extend(sorted(freed))
    return order


def eval_gates(gates, inputs, bits):
    """Every gate's value on one assignment; gates maps gid -> (kind, fan_in, bias).

    Gates run in Kahn order.  Every product and partial sum is checked in
    fan-in order, and a SUM gate's value after its bias is added.
    """
    values = dict(zip(inputs, bits))
    for gid in kahn_order(gates):
        kind, fan, bias = gates[gid]
        if kind == "INPUT":
            continue
        acc = 0
        for src, w in fan:
            acc = _in_budget(acc + _in_budget(w * values[src]))
        if kind == "LT":
            values[gid] = int(acc >= bias)
        elif kind == "EXACT":
            values[gid] = int(acc == bias)
        else:
            values[gid] = _in_budget(acc + bias)
    return values


class CircuitTextError(ValueError):
    """The reference reader rejects a circuit text."""


def read_gates(text):
    """(gates, inputs, output) of a circuit file, read one line at a time.

    gates maps gid -> (kind, fan_in, bias).  Every field is read with int().
    A fault raises CircuitTextError with the message the format's rules
    give, the first fault first: the headers; then line by line the fields,
    the kind, an INPUT gate's fan-in, each weight and the bias against the
    2^127 budget; then repeated ids, the input list, the output, missing
    sources and cycles.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 3 or not lines[0].startswith("inputs ") or not lines[1].startswith(
        "output "
    ):
        raise CircuitTextError("expected 'inputs ...' and 'output ...' headers")
    try:
        inputs = [int(token) for token in lines[0].split()[1:]]
        head = lines[1].split()
        if len(head) != 2:
            raise ValueError
        output = int(head[1])
    except ValueError:
        raise CircuitTextError("malformed header") from None
    listed = []
    for line in lines[2:]:
        fields = line.split()
        try:
            if len(fields) < 3:
                raise ValueError
            gid, kind, bias = int(fields[0]), fields[1], int(fields[2])
            fan = []
            for token in fields[3:]:
                if token.count(":") != 1:
                    raise ValueError
                src, weight = token.split(":")
                fan.append((int(src), int(weight)))
        except ValueError:
            raise CircuitTextError(f"malformed gate line {line!r}") from None
        if kind not in ("INPUT", "LT", "EXACT", "SUM"):
            raise CircuitTextError(f"unknown gate kind {kind!r}")
        if kind == "INPUT" and fan:
            raise CircuitTextError("INPUT gates take no fan-in")
        for value in [w for _, w in fan] + [bias]:
            if abs(value) >= 1 << 127:
                raise CircuitTextError(f"|{value}| exceeds the 2^127 budget")
        listed.append((gid, (kind, tuple(fan), bias)))
    gates = {}
    for gid, gate in listed:
        if gid in gates:
            raise CircuitTextError(f"duplicate gate id {gid}")
        gates[gid] = gate
    for gid in inputs:
        if gid not in gates or gates[gid][0] != "INPUT":
            raise CircuitTextError(f"input id {gid} is not an INPUT gate")
    if len(set(inputs)) != len(inputs):
        raise CircuitTextError("input ids must not repeat")
    for gid, (kind, _, _) in gates.items():
        if kind == "INPUT" and gid not in inputs:
            raise CircuitTextError(f"INPUT gate {gid} is missing from the input list")
    if output not in gates:
        raise CircuitTextError(f"output id {output} does not exist")
    for gid, (_, fan, _) in gates.items():
        for src, _ in fan:
            if src not in gates:
                raise CircuitTextError(f"gate {gid} references missing source {src}")
    if len(kahn_order(gates)) != len(gates):
        raise CircuitTextError("circuit contains a cycle")
    return gates, inputs, output


def gates_text(gates, inputs, output):
    """The canonical file text: headers, then one line per gate by id."""
    lines = ["inputs " + " ".join(map(str, inputs)), f"output {output}"]
    for gid in sorted(gates):
        kind, fan, bias = gates[gid]
        lines.append(" ".join([str(gid), kind, str(bias)] + [f"{s}:{w}" for s, w in fan]))
    return "\n".join(lines) + "\n"


def gates_depth(gates, output):
    """LT and EXACT gates on the longest path into the output."""
    depth = {}
    for gid in kahn_order(gates):
        kind, fan, _ = gates[gid]
        below = max((depth[src] for src, _ in fan), default=0)
        depth[gid] = below + (kind in ("LT", "EXACT"))
    return depth[output]


class MatrixTextError(ValueError):
    """The reference reader rejects a matrix text."""


def _trace_fields(line):
    """(m0, n0, k, q) of a `# trace m0=.. n0=.. k=.. q=..` line, else None."""
    words = line.strip()[1:].split()
    if len(words) != 5 or words[0] != "trace":
        return None
    fields = []
    for word, name in zip(words[1:], ("m0", "n0", "k", "q")):
        key, _, value = word.partition("=")
        digits = value[1:] if value.startswith("-") else value
        if key != name or not digits.isdecimal():
            return None
        fields.append(int(value))
    return tuple(fields)


def read_matrix_rows(text):
    """(rows, trace) of a matrix file, read one line at a time.

    trace is (m0, n0, k, q) from the last `# trace` comment before the
    header, or None.  A fault raises MatrixTextError with the message the
    format's rules give, the first fault first: each trace comment as it is
    met; then the header; the row count; each row's entry count and tokens;
    then every entry, row by row, against the 2^127 budget.
    """
    lines = text.splitlines()
    trace, pos = None, 0
    while pos < len(lines) and lines[pos].lstrip().startswith("#"):
        fields = _trace_fields(lines[pos])
        if fields is not None:
            m0, n0, k, q = fields
            if m0 < 1 or n0 < 1:
                raise MatrixTextError("base dimensions must be positive")
            if k < 0:
                raise MatrixTextError("iteration count must be >= 0")
            if q < 2:
                raise MatrixTextError("arity q must be at least 2")
            trace = fields
        pos += 1
    if pos == len(lines):
        raise MatrixTextError("missing header line")
    header = lines[pos]
    try:
        m, n = (int(token) for token in header.split())
        if m < 1 or n < 1:
            raise ValueError
    except ValueError:
        raise MatrixTextError(f"malformed header {header!r}") from None
    body = lines[pos + 1 :]
    if len(body) != m:
        raise MatrixTextError(f"expected {m} rows, found {len(body)}")
    rows = []
    for line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixTextError(f"expected {n} entries per row, found {len(tokens)}")
        try:
            rows.append([int(token) for token in tokens])
        except ValueError:
            raise MatrixTextError(f"non-integer token in row {line!r}") from None
    for row in rows:
        for value in row:
            if abs(value) >= 1 << 127:
                raise MatrixTextError(f"|{value}| exceeds the 2^127 budget")
    return rows, trace


def matrix_text(rows, trace):
    """The canonical file text: the trace comment if any, the header, the rows."""
    lines = [] if trace is None else ["# trace m0={} n0={} k={} q={}".format(*trace)]
    lines.append(f"{len(rows)} {len(rows[0])}")
    lines += [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"
