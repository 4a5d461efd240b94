import collections
import contextlib
import itertools
import random
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import COMP_SEARCH, FIXTURES
from eqkit import (
    CapExceededError,
    Gate,
    IntMatrix,
    MagnitudeError,
    ThresholdCircuit,
    build_crt,
    choose_primes,
    compile_comp_circuit,
    compile_eq_circuit,
    compile_value_set,
    eval_circuit,
    exactify_to_lt,
    exhaustive_check,
    read_circuit,
    read_matrix,
    sample_matrix,
    search_rmds,
    write_circuit,
)
from eqkit import circuit as circuit_module
from eqkit import matrix as matrix_module
from eqkit import verify
from oracles import (
    BudgetError,
    CircuitTextError,
    eval_gates,
    exactify_gates,
    gates_depth,
    gates_text,
    kahn_order,
    read_gates,
)


def naive_eval(c, assignment):
    """Independent reference evaluator: memoized recursion from the output."""
    vals = dict(zip(c.inputs, assignment))

    def value(gid):
        if gid in vals:
            return vals[gid]
        g = c.gates[gid]
        s = sum(w * value(src) for src, w in g.fan_in)
        if g.kind == "LT":
            v = 1 if s >= g.bias else 0
        elif g.kind == "EXACT":
            v = 1 if s == g.bias else 0
        else:
            v = s + g.bias
        vals[gid] = v
        return v

    return value(c.output)


def truth_table(c):
    n = len(c.inputs)
    return [
        eval_circuit(c, bits) for bits in itertools.product((0, 1), repeat=n)
    ]


def reference_value(reference, bits, n=None, weights=None, values=None):
    """Plain integer semantics of a named reference on one assignment."""
    if reference in ("eq", "comp"):
        x = sum(b << i for i, b in enumerate(bits[:n]))
        y = sum(b << i for i, b in enumerate(bits[n:]))
        return int(x == y) if reference == "eq" else int(x >= y)
    if reference == "parity":
        return sum(bits) % 2
    return int(sum(w * b for w, b in zip(weights, bits)) in set(values))


def first_mismatch_by_rows(c, reference, **kw):
    """Row-by-row exhaustive check: eval_circuit against reference_value."""
    for bits in itertools.product((0, 1), repeat=len(c.inputs)):
        if eval_circuit(c, bits) != reference_value(reference, bits, **kw):
            return bits
    return None


def outcome(check, c, reference, **kw):
    """The check's first mismatch, or the text of the MagnitudeError it raises."""
    try:
        return check(c, reference, **kw)
    except MagnitudeError as exc:
        return f"MagnitudeError: {exc}"


B = 1 << 126
OVERFLOW = f"MagnitudeError: |{1 << 127}| exceeds the 2^127 budget"


def overflow_circuit(out_bias=-B - 1, gate=f"4 SUM 0 1:{B} 2:{B} 3:{-B}"):
    """Three inputs, a SUM gate whose fan-in prefix can pass 2**127, an LT output.

    With the default gate, eval_circuit first raises at (1, 1, 0), where
    B + B leaves the budget; the output is 1 on every earlier row unless
    out_bias is raised above -B.
    """
    return read_circuit(
        "inputs 1 2 3\noutput 5\n1 INPUT 0\n2 INPUT 0\n3 INPUT 0\n"
        f"{gate}\n5 LT {out_bias} 4:1\n"
    )


def perturb(c, rng):
    """Copy of c with one to three weights or biases moved by one."""
    gates = c.gates
    for _ in range(rng.randint(1, 3)):
        g = gates[rng.choice([gid for gid in c.topo_order if gates[gid].kind != "INPUT"])]
        fan = list(g.fan_in)
        bias = g.bias
        if fan and rng.random() < 0.6:
            j = rng.randrange(len(fan))
            fan[j] = (fan[j][0], fan[j][1] + rng.choice((-1, 1)))
        else:
            bias += rng.choice((-1, 1))
        gates[g.gid] = Gate(g.gid, g.kind, tuple(fan), bias)
    return ThresholdCircuit(gates.values(), c.inputs, c.output)


def comp_matrix(n):
    params = COMP_SEARCH[n]
    found, _ = search_rmds(
        params["n"],
        params["m"],
        params["r"],
        params["q"],
        params["weight"],
        params["seed"],
        max_attempts=10**5,
    )
    assert found is not None
    return found, params


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(1, "NAND")
    with pytest.raises(ValueError):
        Gate(1, "INPUT", ((2, 1),))


def test_circuit_validation():
    inp = Gate(1, "INPUT")
    with pytest.raises(ValueError):
        ThresholdCircuit([inp, Gate(1, "LT")], (1,), 1)  # duplicate id
    with pytest.raises(ValueError):
        ThresholdCircuit([inp, Gate(2, "LT", ((3, 1),))], (1,), 2)  # missing source
    with pytest.raises(ValueError):
        ThresholdCircuit([inp], (1,), 9)  # missing output
    with pytest.raises(ValueError):
        ThresholdCircuit([inp, Gate(2, "LT", ((1, 1),))], (2,), 2)  # bad input id
    with pytest.raises(ValueError):
        ThresholdCircuit([inp, Gate(2, "INPUT"), Gate(3, "LT")], (1,), 3)  # unlisted
    with pytest.raises(ValueError):
        ThresholdCircuit([inp, Gate(2, "LT", ((1, 1),))], (1, 1), 2)  # repeated
    cyc_a = Gate(2, "LT", ((3, 1),))
    cyc_b = Gate(3, "LT", ((2, 1),))
    with pytest.raises(ValueError):
        ThresholdCircuit([inp, cyc_a, cyc_b], (1,), 2)


def test_eval_three_bit_comparison_gate():
    # weights 1,2,4 on x and the negation on y, threshold 0
    gates = [Gate(i, "INPUT") for i in range(1, 7)]
    gates.append(
        Gate(7, "LT", ((1, 1), (2, 2), (3, 4), (4, -1), (5, -2), (6, -4)), 0)
    )
    c = ThresholdCircuit(gates, tuple(range(1, 7)), 7)
    assert eval_circuit(c, (1, 0, 0, 0, 0, 0)) == 1
    assert eval_circuit(c, (0, 0, 0, 1, 0, 0)) == 0
    assert exhaustive_check(c, "comp", n=3) is None


def test_eval_validation(eq_4x8):
    c = compile_eq_circuit(eq_4x8)
    with pytest.raises(ValueError):
        eval_circuit(c, (0,) * 15)
    with pytest.raises(ValueError):
        eval_circuit(c, (2,) + (0,) * 15)


def test_eval_matches_reference_evaluator(eq_4x8):
    circuits = [
        compile_eq_circuit(eq_4x8),
        exactify_to_lt(compile_eq_circuit(eq_4x8)),
        compile_value_set((1, 2, 4), {1, 2, 4, 7}),
    ]
    rng = random.Random(8)
    for c in circuits:
        n = len(c.inputs)
        for _ in range(700):
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            assert eval_circuit(c, bits) == naive_eval(c, bits)


def test_compile_eq_shape_and_equivalence(eq_4x8):
    c = compile_eq_circuit(eq_4x8)
    assert c.gate_count == 5
    assert c.depth == 2
    assert len(c.inputs) == 16
    assert eval_circuit(c, (0,) * 16) == 1
    assert exhaustive_check(c, "eq", n=8) is None


def test_compile_eq_on_residue_matrix(crt_4x8):
    c = compile_eq_circuit(crt_4x8)
    assert c.gate_count == 5
    assert exhaustive_check(c, "eq", n=8) is None


def test_compile_eq_unit_matrix():
    c = compile_eq_circuit(IntMatrix.from_rows([[1]]))
    assert c.gate_count == 2
    assert truth_table(c) == [1, 0, 0, 1]


def test_compile_eq_refuses_bad_matrix():
    bad = IntMatrix.from_rows([[1, 1]])
    with pytest.raises(ValueError):
        compile_eq_circuit(bad)
    c = compile_eq_circuit(bad, verify=False)
    assert exhaustive_check(c, "eq", n=2) is not None


def test_value_set_parity_binary_weights():
    c = compile_value_set((1, 2, 4), {1, 2, 4, 7})
    assert c.gate_count == 5
    assert exhaustive_check(c, "parity") is None


def test_value_set_parity_unit_weights():
    c = compile_value_set((1, 1, 1), {1, 3})
    assert c.gate_count == 3
    assert exhaustive_check(c, "parity") is None


def test_value_set_full_range_is_constant_one():
    c = compile_value_set((1, 1), {0, 1, 2})
    assert truth_table(c) == [1, 1, 1, 1]


def test_value_set_empty_warns_and_is_constant_zero():
    with pytest.warns(UserWarning):
        c = compile_value_set((1, 1), ())
    assert truth_table(c) == [0, 0, 0, 0]


@pytest.mark.parametrize("values", [(), (0,), (3, 1 << 127)])
def test_value_set_refuses_a_weight_out_of_budget(values):
    # The weights are checked before the empty-set warning, so an empty
    # accepted set does not hide them, and before the values.
    first = rf"^\|{-(1 << 127)}\| exceeds the 2\^127 budget$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MagnitudeError, match=first):
            compile_value_set((0, 1, -(1 << 127), 1 << 128), values)


def test_compile_comp_pipeline():
    a, params = comp_matrix(3)
    n, m, r = params["n"], params["m"], params["r"]
    c = compile_comp_circuit(a, n, m, r)
    assert c.gate_count == r * m * n + 1
    assert c.depth == 2
    assert exhaustive_check(c, "comp", n=n) is None
    # equal operands compare as X >= Y
    for x in range(2**n):
        bits = tuple((x >> i) & 1 for i in range(n))
        assert eval_circuit(c, bits + bits) == 1


def test_compile_comp_count_separation():
    a, params = comp_matrix(3)
    n, m, r = params["n"], params["m"], params["r"]
    c = compile_comp_circuit(a, n, m, r)
    layer = sorted(g.gid for g in c.gates.values() if g.kind == "EXACT")
    for xv in range(2**n):
        for yv in range(2**n):
            bits = tuple((xv >> i) & 1 for i in range(n)) + tuple(
                (yv >> i) & 1 for i in range(n)
            )
            _, trace = eval_circuit(c, bits, want_trace=True)
            ones = sum(trace[g] for g in layer)
            if xv < yv:
                assert ones >= r * m
            else:
                assert ones < n * (m - 1)


def test_compile_comp_validation():
    a, params = comp_matrix(3)
    with pytest.raises(ValueError):
        compile_comp_circuit(a, 4, 2, 3)  # wrong shape for n=4
    ones = IntMatrix.from_rows([[1] * 3] * 6)
    with pytest.raises(ValueError):
        compile_comp_circuit(ones, 3, 2, 3)  # fails the RMDS_3 check
    thin = IntMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
    with pytest.raises(ValueError):
        compile_comp_circuit(thin, 3, 2, 1)  # separation 2 <= 3*(2-1)


@pytest.mark.parametrize("m, r", [(-1, -4), (-2, -2), (-4, -1), (0, 4)])
def test_compile_comp_refuses_nonpositive_m_or_r(m, r):
    # On the 4x8 CRT matrix r*m = 4 matches the rows for the negative pairs,
    # and r*m > n*(m-1) holds for m < 1, so only the sign check refuses them;
    # it also comes before the shape check.
    a = build_crt(8, choose_primes(8))
    with pytest.raises(ValueError, match=r"^n, m and r must be positive$"):
        compile_comp_circuit(a, 8, m, r, verify=False)


def _difference_gate(gid, row, start, n, kind, bias):
    """The gate testing row[start:] . (x - y) against bias, built pair by pair."""
    fan = [(j + 1, row[j]) for j in range(start, n) if row[j]]
    fan += [(n + j + 1, -row[j]) for j in range(start, n) if row[j]]
    return Gate(gid, kind, tuple(fan), bias)


def _depth_two_by_gates(k, layer, top_kind, top_weight, top_bias):
    """Inputs 1..k, the layer gates (gids k+1..), then the top gate over them."""
    top = k + len(layer) + 1
    gates = [Gate(j, "INPUT") for j in range(1, k + 1)] + layer
    gates.append(Gate(top, top_kind, tuple((g.gid, top_weight) for g in layer), top_bias))
    return ThresholdCircuit(gates, range(1, k + 1), top)


def eq_circuit_by_gates(rows):
    m, n = len(rows), len(rows[0])
    layer = [_difference_gate(2 * n + 1 + i, row, 0, n, "EXACT", 0) for i, row in enumerate(rows)]
    return _depth_two_by_gates(2 * n, layer, "EXACT", 1, m)


def comp_circuit_by_gates(rows, n, m):
    # Level l tests columns l.. of every row against minus column l.
    layer = [
        _difference_gate(2 * n + 1 + len(rows) * level + i, row, level, n, "EXACT", -row[level])
        for level in range(n)
        for i, row in enumerate(rows)
    ]
    return _depth_two_by_gates(2 * n, layer, "LT", -1, -n * (m - 1) + 1)


def value_set_by_gates(weights, values):
    n = len(weights)
    fan = tuple((j + 1, w) for j, w in enumerate(weights) if w)
    layer = [Gate(n + 1 + t, "EXACT", fan, s) for t, s in enumerate(sorted(set(values)))]
    return _depth_two_by_gates(n, layer, "LT", 1, 1)


def test_compilers_match_a_gate_by_gate_definition():
    rng = random.Random(20)
    # Zeros, small entries, and entries at int64's edge and past it.
    special = [1 << 61, -(1 << 61), 1 << 62, -(1 << 62), 1 << 100, -(1 << 100)]

    def entry():
        pick = rng.random()
        return 0 if pick < 0.3 else rng.choice(special) if pick < 0.4 else rng.randint(-5, 5)

    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        got = compile_eq_circuit(IntMatrix.from_rows(rows), verify=False)
        assert write_circuit(got) == write_circuit(eq_circuit_by_gates(rows))
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 3)
        r = n * (m - 1) // m + 1 + rng.randint(0, 1)
        rows = [[entry() for _ in range(n)] for _ in range(r * m)]
        got = compile_comp_circuit(IntMatrix.from_rows(rows), n, m, r, verify=False)
        assert write_circuit(got) == write_circuit(comp_circuit_by_gates(rows, n, m))
    for _ in range(150):
        weights = [entry() for _ in range(rng.randint(1, 5))]
        # Repeated values, values the weights reach, and empty sets.
        values = [rng.choice([*weights, entry()]) for _ in range(rng.choice([0, 1, 3, 6]))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty set warns
            got = compile_value_set(weights, values)
        assert write_circuit(got) == write_circuit(value_set_by_gates(weights, values))


def test_compile_comp_peak_memory():
    # 10,000 layer gates with about 1,000,000 fan-in pairs; per-gate pair
    # lists took over 100 MB here.
    n = r = 100
    a = sample_matrix(n, n, 50, 0, 0)
    tracemalloc.start()
    try:
        c = compile_comp_circuit(a, n, 1, r, verify=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.gate_count == r * n + 1
    assert peak < 64 << 20, peak


def test_exactify_preserves_truth_tables(eq_4x8):
    circuits = [
        compile_value_set((1, 2, 4), {1, 2, 4, 7}),
        compile_value_set((1, 1, 1), {1, 3}),
        compile_eq_circuit(IntMatrix.from_rows([[1, 2], [1, -1]]), verify=False),
    ]
    for c in circuits:
        assert truth_table(exactify_to_lt(c)) == truth_table(c)


def test_exactify_single_equality_gate():
    gates = [Gate(1, "INPUT"), Gate(2, "INPUT"), Gate(3, "EXACT", ((1, 1), (2, -1)), 0)]
    c = ThresholdCircuit(gates, (1, 2), 3)
    lt = exactify_to_lt(c)
    assert truth_table(lt) == [1, 0, 0, 1]
    kinds = sorted(g.kind for g in lt.gates.values() if g.kind != "INPUT")
    assert kinds == ["LT", "LT", "SUM"]


def test_exactify_without_exact_gates_is_identity():
    gates = [Gate(1, "INPUT"), Gate(2, "LT", ((1, 1),), 1)]
    c = ThresholdCircuit(gates, (1,), 2)
    lt = exactify_to_lt(c)
    assert lt.gates == c.gates
    assert lt.output == c.output


def test_exactify_gate_count_and_depth(eq_4x8):
    c = compile_eq_circuit(eq_4x8)
    lt = exactify_to_lt(c)
    assert lt.gate_count <= 2 * c.gate_count + 1
    assert lt.gate_count == 11
    assert lt.depth == 2
    assert exhaustive_check(lt, "eq", n=8) is None


def _exactify_case(rng):
    """A random DAG as (gates, listed order, inputs, output), gates mapping
    gid -> (kind, fan_in, bias).  Ids have gaps and, in some DAGs, lie just
    below 2**62 (so the second halves' ids may pass it), around it, or past
    2**63.  Large weights lie just below 2**62 (so that some int64 columns
    sum past int64), at it, or at 2**63.  In 40% of the DAGs most weights
    and biases lie within 3 of +-2**126, in two of three of them all of one
    sign, so that the rewrite moves biases out of budget."""
    k, near, sign = rng.randint(1, 3), rng.random() < 0.4, rng.choice((-1, 1, None))
    big = rng.choice(((1 << 62) - 1, 1 << 62, 1 << 63))  # the first keeps int64 columns
    base = rng.choice((0, 0, 0, (1 << 62) - 30, (1 << 62) - 5, 1 << 63))
    ids = [base + gid for gid in rng.sample(range(-3, 30), k + rng.randint(1, 12 if near else 8))]

    def number():
        pick = rng.random()
        if pick < 0.15:
            return rng.randint(-3, 3)
        if pick < 0.3:
            return rng.choice((-1, 1)) * (big - rng.randint(0, 2))
        if not near:
            return rng.randint(-9, 9)
        return (sign or rng.choice((-1, 1))) * (B + rng.randint(-3, 3))

    gates = {gid: ("INPUT", (), 0) for gid in ids[:k]}
    for t, gid in enumerate(ids[k:], k):
        fan = tuple((rng.choice(ids[:t]), number()) for _ in range(rng.randint(0, 4)))
        gates[gid] = (rng.choice(("LT", "EXACT", "EXACT", "SUM")), fan, number())
    listed = list(gates)
    rng.shuffle(listed)
    return gates, listed, ids[:k], rng.choice(ids[k:] if rng.random() < 0.8 else ids)


def _moved_out_of_budget(gates):
    """The gates whose bias leaves the budget once it takes up the -1 of
    each fan-in edge from an EXACT gate."""
    exact = {gid for gid, (kind, _, _) in gates.items() if kind == "EXACT"}
    over = []
    for gid, (kind, fan, bias) in gates.items():
        shift = sum(w for src, w in fan if src in exact)
        if abs(bias - shift if kind == "SUM" else bias + shift) >= 1 << 127:
            over.append(gid)
    return over


def test_exactify_matches_the_gate_by_gate_rewrite():
    # The column rewrite against the gate-by-gate one, on circuits built from
    # Gate objects and, for about a third, read from text in the same order.
    rng = random.Random(23)
    seen = collections.Counter()
    for _ in range(2000):
        gates, listed, inputs, output = _exactify_case(rng)
        c = ThresholdCircuit([Gate(gid, *gates[gid]) for gid in listed], inputs, output)
        if rng.random() < 0.35:
            lines = [" ".join([str(gid), gates[gid][0], str(gates[gid][2])]
                              + [f"{s}:{w}" for s, w in gates[gid][1]]) for gid in listed]
            c = read_circuit("\n".join([f"inputs {' '.join(map(str, inputs))}",
                                        f"output {output}", *lines, ""]))
        exact = {gid for gid in gates if gates[gid][0] == "EXACT"}
        consumers = [kind for kind, fan, _ in gates.values() if exact & {s for s, _ in fan}]
        seen["exact output"] += output in exact
        seen["exact chain"] += "EXACT" in consumers
        seen["sum consumer"] += "SUM" in consumers
        seen["big ids"] += max(map(abs, gates)) >= 1 << 62
        weights = [w for _, fan, _ in gates.values() for _, w in fan]
        seen["big weights"] += max(map(abs, weights), default=0) >= 1 << 62
        values = weights + [bias for _, _, bias in gates.values()]
        seen["int64 columns near 2**62"] += 1 << 61 <= max(map(abs, values)) < 1 << 62
        try:
            want = gates_text(*exactify_gates(gates, inputs, output))
        except BudgetError as exc:
            with pytest.raises(MagnitudeError) as info:
                exactify_to_lt(c)
            assert str(info.value) == str(exc)
            over, topo = _moved_out_of_budget(gates), kahn_order(gates)
            seen["raised"] += 1
            seen["orders differ"] += min(over, key=listed.index) != min(over, key=topo.index)
        else:
            assert write_circuit(exactify_to_lt(c)) == want
    assert min(seen.values()) >= 50, seen


def test_circuit_serialization_round_trip(eq_4x8):
    for c in (
        compile_eq_circuit(eq_4x8),
        exactify_to_lt(compile_eq_circuit(eq_4x8)),
        compile_value_set((1, 1, 1), {1, 3}),
    ):
        text = write_circuit(c)
        back = read_circuit(text)
        assert back.gates == c.gates
        assert back.inputs == c.inputs
        assert back.output == c.output
        assert write_circuit(back) == text


_BUDGET = st.integers(-(1 << 127) + 1, (1 << 127) - 1) | st.integers(-3, 3)


@st.composite
def _circuits(draw, weights=_BUDGET):
    """A random DAG of LT, EXACT and SUM gates; ids, gate order and output vary."""
    k = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(1, k + draw(st.integers(1, 6)) + 1)))
    gates = [Gate(gid, "INPUT") for gid in ids[:k]]
    for t, gid in enumerate(ids[k:], k):
        fan = draw(st.lists(st.tuples(st.sampled_from(ids[:t]), weights), max_size=4))
        kind = draw(st.sampled_from(["LT", "EXACT", "SUM"]))
        gates.append(Gate(gid, kind, tuple(fan), draw(_BUDGET)))
    output = draw(st.sampled_from(ids))
    return ThresholdCircuit(draw(st.permutations(gates)), ids[:k], output)


def _evaluated(c, bits):
    try:
        return eval_circuit(c, bits)
    except MagnitudeError as exc:
        return str(exc)


@given(_circuits(), st.data())
def test_circuit_text_round_trip(c, data):
    text = write_circuit(c)
    back = read_circuit(text)
    assert (back.gates, back.inputs, back.output) == (c.gates, c.inputs, c.output)
    assert write_circuit(back) == text
    # Extra spaces and blank lines read back to the same canonical text.
    spaced = "\n\n".join("  ".join(line.split(" ")) for line in text.splitlines())
    assert write_circuit(read_circuit(spaced + "\n")) == text
    bits = st.lists(st.integers(0, 1), min_size=len(c.inputs), max_size=len(c.inputs))
    for _ in range(4):
        assignment = data.draw(bits)
        got = _evaluated(back, assignment)
        assert got == _evaluated(c, assignment)
        if isinstance(got, int):
            assert got == naive_eval(c, assignment)


def _near_budget(rng):
    """A small weight or bias, or one within 3 of +-2**126, +-2**125 or +-2**70."""
    if rng.random() < 0.35:
        return rng.randint(-3, 3)
    base = rng.choice((B, B, B >> 1, 1 << 70))
    return rng.choice((-1, 1)) * base + rng.randint(-3, 3)


def test_eval_circuit_matches_the_checked_oracle():
    # The circuit checks replay eval_circuit as their row-by-row reference,
    # so its budget-checked sum is held here against an evaluator of its own.
    rng = random.Random(127)
    raised = 0
    for _ in range(3000):
        k = rng.randint(1, 4)
        ids = rng.sample(range(1, 40), k + rng.randint(1, 6))
        gates = {gid: ("INPUT", (), 0) for gid in ids[:k]}
        for t, gid in enumerate(ids[k:], k):
            count = rng.randint(0, 5)
            fan = tuple((rng.choice(ids[:t]), _near_budget(rng)) for _ in range(count))
            gates[gid] = (rng.choice(("LT", "EXACT", "SUM")), fan, _near_budget(rng))
        listed = [Gate(gid, *gate) for gid, gate in gates.items()]
        rng.shuffle(listed)
        c = ThresholdCircuit(listed, ids[:k], rng.choice(ids))
        bits = [rng.randint(0, 1) for _ in range(k)]
        try:
            want = eval_gates(gates, ids[:k], bits)
        except BudgetError as exc:
            raised += 1
            with pytest.raises(MagnitudeError) as info:
                eval_circuit(c, bits)
            assert str(info.value) == str(exc)
        else:
            assert eval_circuit(c, bits, want_trace=True) == (want[c.output], want)
    assert 500 < raised < 2500


def _random_circuit_text(rng):
    """A random circuit file: gate lines in any order, repeated edges, weights
    up to 2**126, and in about a third of the files one fault."""
    k = rng.randint(1, 4)
    ids = rng.sample(range(-3, 40), k + rng.randint(0, 8))
    lines = [f"{gid} INPUT 0" for gid in ids[:k]]
    for t, gid in enumerate(ids[k:], k):
        fan = [(rng.choice(ids[:t]), rng.randint(-4, 4)) for _ in range(rng.randint(0, 5))]
        fan += fan[: rng.randint(0, 2)]
        for j in range(len(fan)):
            if rng.random() < 0.08:
                fan[j] = (fan[j][0], rng.choice((-1, 1)) * (1 << rng.choice((61, 62, 63, 126))))
        kind = rng.choice(("LT", "EXACT", "SUM"))
        line = " ".join([str(gid), kind, str(rng.randint(-3, 3))] + [f"{s}:{w}" for s, w in fan])
        lines.append(line)
    inputs, output = ids[:k], rng.choice(ids)
    fault = rng.randrange(24)
    if fault == 0:
        lines.append(f"{max(ids) + 1} LT 0 {max(ids) + 2}:1")
    elif fault == 1 and len(ids) > k + 1:
        a, b = ids[k], ids[-1]  # b may read a; now a reads b too
        lines.append(f"{max(ids) + 1} SUM 0 {a}:1")
        lines = [line + f" {b}:1" if line.split()[0] == str(a) else line for line in lines]
    elif fault == 2:
        lines.append(rng.choice(lines))
    elif fault == 3:
        lines.append(f"{max(ids) + 1} NAND 0")
    elif fault == 4:
        lines.append(f"{max(ids) + 1} INPUT 0 {ids[0]}:1")
    elif fault == 5:
        lines.append(f"{max(ids) + 1} LT 0 {ids[0]}:1:2")
    elif fault == 6:
        lines.append(f"{max(ids) + 1} LT 0 {ids[0]}:{-(1 << 127)}")
    elif fault == 7:
        output = max(ids) + 5
    elif fault == 8:
        inputs = inputs[1:]
    rng.shuffle(lines)
    head = ["inputs " + " ".join(map(str, inputs)), f"output {output}"]
    return "\n".join(head + lines) + "\n"


def _unplain(text, rng):
    """text with some gate lines in int() forms that np.fromstring does not read."""
    forms = (
        lambda digits: "+" + digits,
        lambda digits: "0_" + digits,
        lambda digits: digits.zfill(19),
        lambda digits: "".join(chr(0x660 + int(d)) for d in digits),
    )

    def number(match):
        sign, digits = match.group(1), match.group(2)
        form = rng.choice(forms[1:] if sign else forms)
        return sign + form(digits)

    lines = text.split("\n")
    for i in range(2, len(lines)):
        if rng.random() < 0.4:
            lines[i] = re.sub(r"(-?)([0-9]+)", number, lines[i])
        elif rng.random() < 0.2:
            lines[i] = lines[i].replace(" ", "\xa0")
    return "\n".join(lines)


def _against_reader(text, seed):
    """read_circuit against the reference reader, and one seeded evaluation."""
    try:
        gates, inputs, output = read_gates(text)
    except CircuitTextError as exc:
        with pytest.raises((ValueError, MagnitudeError)) as info:
            read_circuit(text)
        assert str(info.value) == str(exc)
        return "rejected"
    c = read_circuit(text)
    assert list(c.topo_order) == kahn_order(gates)
    assert c.depth == gates_depth(gates, output)
    assert write_circuit(c) == gates_text(gates, inputs, output)
    bits = [random.Random(seed).randint(0, 1) for _ in inputs]
    try:
        want = eval_gates(gates, inputs, bits)
    except BudgetError as exc:
        with pytest.raises(MagnitudeError) as info:
            eval_circuit(c, bits)
        assert str(info.value) == str(exc)
        return "raised"
    assert eval_circuit(c, bits, want_trace=True) == (want[output], want)
    return "evaluated"


def test_read_circuit_matches_the_reference_reader():
    # Both tokenizing routes against a reader of its own: plain files go
    # through np.fromstring, and the same files with some lines in +3, 0_1,
    # 19-digit or Arabic-Indic forms, or NBSP-separated, through int().
    rng = random.Random(14)
    outcomes = {"rejected": 0, "raised": 0, "evaluated": 0}
    for seed in range(3000):
        plain = _random_circuit_text(rng)
        unplain = _unplain(plain, rng)
        outcome = _against_reader(plain, seed)
        assert _against_reader(unplain, seed) == outcome
        if outcome != "rejected":
            assert write_circuit(read_circuit(unplain)) == write_circuit(read_circuit(plain))
        outcomes[outcome] += 1
    assert outcomes["evaluated"] > 1500
    assert outcomes["rejected"] > 800
    assert outcomes["raised"] > 50


def _id_faults(text, rng):
    """text with two more faults among its ids, of one kind or two: one or two
    repeated gate ids, an input left out, an input named twice or naming a
    gate that is no INPUT gate or no gate, a missing output, a gate with a
    missing source.  A missing id is 99, or a header id or source of 2**63
    or more."""
    lines = text.splitlines()
    inputs, output, gates = lines[0].split()[1:], lines[1].split()[1], lines[2:]
    ids = [line.split()[0] for line in gates]
    big = str(rng.choice((1, -1)) * ((1 << rng.choice((63, 64, 127))) + rng.randrange(3)))

    def insert(into, item):
        into.insert(rng.randrange(len(into) + 1), item)

    for fault in rng.choices(range(5), k=2):
        if fault == 0:
            for _ in range(rng.randint(1, 2)):
                insert(gates, rng.choice(gates))
        elif fault == 1 and inputs:
            del inputs[rng.randrange(len(inputs))]
        elif fault == 2:
            insert(inputs, rng.choice(inputs + ids + [big, "99"]))
        elif fault == 3:
            output = rng.choice((big, "99"))
        else:
            insert(gates, f"{90 + len(gates)} LT 0 {rng.choice((big, '99'))}:1")
    return "\n".join(["inputs " + " ".join(inputs), f"output {output}", *gates]) + "\n"


def test_read_circuit_names_the_first_of_several_id_faults():
    # Files with two or three faults among the ids, header ids past int64 on
    # an int64 id column among them, name the fault the reference reader
    # names first, by both tokenizing routes.
    rng = random.Random(24)
    named = collections.Counter()
    for seed in range(1500):
        text = _id_faults(_random_circuit_text(rng), rng)
        outcome = _against_reader(text, seed)
        assert _against_reader(_unplain(text, rng), seed) == outcome
        try:
            read_gates(text)
        except CircuitTextError as exc:
            named[re.sub(r"-?[0-9]+", "N", str(exc))] += 1
    for message in [
        "duplicate gate id N",
        "input id N is not an INPUT gate",
        "input ids must not repeat",
        "INPUT gate N is missing from the input list",
        "output id N does not exist",
        "gate N references missing source N",
    ]:
        assert named[message] > 40, named


def test_compilers_and_exactify_hand_rows_to_the_columns(monkeypatch):
    # Ids are looked up only where they come in: built in eqkit, the
    # circuits and their LT rewrites never pass through the id lookup.
    def refuse(*args):
        raise AssertionError("gate ids were looked up")

    monkeypatch.setattr(circuit_module, "_id_rows", refuse)
    eq_k2 = read_matrix((FIXTURES / "eq_k2.txt").read_text())[0]
    rmds_n3 = read_matrix((FIXTURES / "rmds_n3.txt").read_text())[0]
    compiled = {
        "eq_k2": compile_eq_circuit(eq_k2),
        "comp_n3": compile_comp_circuit(rmds_n3, 3, 2, 3),
        "valueset": compile_value_set([3, -1, 2, 0], [0, 2]),
    }
    for name, c in compiled.items():
        assert write_circuit(c) == (FIXTURES / f"{name}.circ").read_text()
        assert write_circuit(exactify_to_lt(c)) == (FIXTURES / f"{name}_lt.circ").read_text()


_TRAP_HEAD = "inputs 1 2\noutput 3\n1 INPUT 0\n2 INPUT 0\n"


@pytest.mark.parametrize(
    "gates, rejected",
    [
        # np.fromstring reads a blank text as [0]: no gate may gain a phantom edge.
        ("3 LT 0\n", False),
        ("3 SUM 2   \n", False),
        # It stops at a bad token, with an error or only a warning.
        ("3 LT 0 1:1 x:2 2:1\n", True),
        ("3 LT 0 1:1 2:1-3\n", True),
        ("3 LT 0 1:- 2:1\n", True),
        ("3 LT 0 - 1:1\n", True),
        # It does not read digits and spaces that int() and str.split take.
        ("3 LT 0 1:\u0661 2:\u0662\n", False),
        ("3 LT 0 1:1\xa02:1\n", False),
        # Past 18 digits it saturates at int64, where int() stays exact.
        (f"3 LT 0 1:{10**17 + 1} 2:{-(10**18 - 1)}\n", False),
        (f"3 LT 0 1:{10**18} 2:{-(10**19 - 1)}\n", False),
        (f"3 SUM 0 1:{2**63 - 1} 2:{-(2**63 - 1)}\n", False),
        (f"3 SUM 0 1:{2**63} 2:{-(2**63)}\n", False),
        (f"3 SUM 0 1:{2**126} 2:{-(2**126)}\n", False),
        (f"3 SUM {2**126} 1:{2**126} 2:-1\n", False),
    ],
)
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_read_circuit_plain_route_traps(gates, rejected, action):
    # Under CI's -W error and without it alike, read_circuit gives what the
    # reference reader gives, and for a valid file the same fan-in.
    text = _TRAP_HEAD + gates
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        outcome = _against_reader(text, 3)
        assert (outcome == "rejected") == rejected
        if not rejected:
            assert read_circuit(text).gates[3].fan_in == read_gates(text)[0][3][1]


@contextlib.contextmanager
def _reader_routes():
    """A list that gets, per whole-text check the readers make inside the
    block, True when one np.fromstring read the numbers."""
    routes, plain = [], matrix_module._plain_numbers

    def spy(*args, **kwargs):
        nums = plain(*args, **kwargs)
        routes.append(nums is not None)
        return nums

    with mock.patch.object(matrix_module, "_plain_numbers", spy):
        with mock.patch.object(circuit_module, "_plain_numbers", spy):
            yield routes


def test_canonical_k7_texts_take_the_array_route(eq7_texts):
    # A check that always fell back to int() would pass every test of values.
    matrix_text, eq_text, lt_text = eq7_texts
    with _reader_routes() as routes:
        read_matrix(matrix_text)
        read_circuit(eq_text)
        read_circuit(lt_text)
    assert routes == [True, True, True]


@given(_circuits(st.integers(-(1 << 62) + 1, (1 << 62) - 1)))
def test_canonical_circuit_text_takes_the_array_route(c):
    # Drawn circuits hold INPUT lines and other gates without fan-in.
    text = write_circuit(c)
    with _reader_routes() as routes:
        assert write_circuit(read_circuit(text)) == text
    assert routes == [True]


def test_readers_peak_memory_on_the_k7_texts(eq7_texts):
    # At most one copy of the text and a few byte masks live at once, next
    # to the numbers and their two columns.
    matrix_text, _, lt_text = eq7_texts
    for read, text, limit in [(read_matrix, matrix_text, 2), (read_circuit, lt_text, 4)]:
        read(text)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            read(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit << 20, (read.__name__, peak)

def test_read_circuit_rejects_malformed_text():
    from eqkit import CircuitFormatError

    with pytest.raises(CircuitFormatError):
        read_circuit("output 2\n1 INPUT 0\n")
    with pytest.raises(CircuitFormatError):
        read_circuit("inputs 1\noutput 2\n1 INPUT 0\n2 LT x\n")
    with pytest.raises(CircuitFormatError):
        read_circuit("inputs 1\noutput 2\n1 INPUT 0\n2 LT 0 1:z\n")


def test_corrupted_bias_reports_first_mismatch(eq_4x8):
    c = compile_eq_circuit(eq_4x8)
    gates = []
    for g in c.gates.values():
        if g.gid == c.output:
            gates.append(Gate(g.gid, g.kind, g.fan_in, g.bias + 1))
        else:
            gates.append(g)
    broken = ThresholdCircuit(gates, c.inputs, c.output)
    # the corrupted AND never fires, so the first mismatch is X = Y = 0
    assert exhaustive_check(broken, "eq", n=8) == (0,) * 16


def test_exhaustive_check_cap(eq_4x8):
    c = compile_eq_circuit(eq_4x8)
    with pytest.raises(CapExceededError):
        exhaustive_check(c, "eq", n=8, cap=100)


def test_exhaustive_check_validation(eq_4x8):
    c = compile_eq_circuit(eq_4x8)
    with pytest.raises(ValueError):
        exhaustive_check(c, "eq", n=5)
    with pytest.raises(ValueError):
        exhaustive_check(c, "sorted", n=8)


def test_leading_difference_trichotomy():
    # over every pair at n <= 6, exactly one of the three cases holds and
    # matches the sign of the weighted difference
    for n in range(1, 7):
        for xv in range(2**n):
            for yv in range(2**n):
                d = [((xv >> i) & 1) - ((yv >> i) & 1) for i in range(n)]
                windows = [
                    sum(d[j] << (j - l) for j in range(l, n)) for l in range(n)
                ]
                plus = any(w == 1 for w in windows)
                minus = any(w == -1 for w in windows)
                equal = xv == yv
                assert [plus, minus, equal].count(True) == 1
                total = xv - yv
                assert plus == (total > 0)
                assert minus == (total < 0)


BIG = 1 << 61


@pytest.mark.parametrize("chunk_bytes", [8, 1 << 12, 1 << 14])
def test_exhaustive_check_matches_row_by_row(monkeypatch, chunk_bytes):
    # A small byte ceiling shrinks the chunks, so several chunks and their
    # high-input scalars are exercised; a small key grid sends the low-input
    # tables through the broadcast adds of verify._keys.
    monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(verify, "_GRID_ROWS", 4)
    a, params = comp_matrix(3)
    comp = compile_comp_circuit(a, 3, params["m"], params["r"])
    cases = [(comp, "comp", dict(n=3)), (exactify_to_lt(comp), "comp", dict(n=3))]
    for n in (3, 4):
        eq = compile_eq_circuit(build_crt(n, choose_primes(n)), verify=False)
        cases += [(eq, "eq", dict(n=n)), (exactify_to_lt(eq), "eq", dict(n=n))]
        cases += [(eq, "comp", dict(n=n))]
    ws, vs = (1, 2, 4, 1), {1, 3, 4, 7}
    cases += [
        (compile_value_set(ws, vs), "parity", {}),
        (compile_value_set(ws, vs), "valueset", dict(weights=ws, values=vs)),
        (compile_value_set(ws, vs), "valueset", dict(weights=ws, values={1, 4})),
    ]
    wire = ThresholdCircuit([Gate(1, "INPUT")], (1,), 1)  # output is the input
    cases += [(wire, "parity", {}), (wire, "valueset", dict(weights=(1,), values={0}))]
    # A weight past int64 on a SUM gate that is always 0: the gate bounds stay small.
    silent = f"inputs 1 2\noutput 4\n1 INPUT 0\n2 INPUT 0\n3 SUM 0\n4 LT 1 3:{1 << 100} 1:1 2:1\n"
    cases += [(read_circuit(silent), "parity", {})]
    # Repeated weights on it sum past int64, each times a value that is 0.
    wrapped = silent.replace(f"3:{1 << 100}", " ".join([f"3:{1 << 61}"] * 4))
    cases += [(read_circuit(wrapped), "parity", {})]
    # Object-route cases: gate values past int64, reference sums past int64,
    # and gates that can leave the 2**127 budget (a fan-in prefix, a SUM
    # whose bias brings the final value back, an LT gate).
    big_ws, big_vs = (BIG - 1, BIG, 1, 2, BIG + 5), {BIG, 3, 2 * BIG - 1}
    big = compile_value_set(big_ws, big_vs)
    zero = dict(weights=(0, 0, 0), values={0})
    rows = dict(weights=(4, 2, 1), values=set(range(8)) - {6})
    cases += [
        (big, "valueset", dict(weights=big_ws, values=big_vs)),
        (big, "valueset", dict(weights=big_ws, values={BIG, 3})),
        (big, "parity", {}),
        (
            compile_value_set(ws, vs),
            "valueset",
            dict(weights=[w * BIG for w in ws], values={BIG * v for v in vs}),
        ),
        (overflow_circuit(), "valueset", zero),
        (overflow_circuit(), "valueset", rows),
        (overflow_circuit(-B + 1), "valueset", zero),
        (overflow_circuit(gate=f"4 SUM {-B} 1:{B} 2:{B}"), "valueset", zero),
        (overflow_circuit(gate=f"4 SUM 0 3:{B} 2:{B}"), "valueset", rows),
        (overflow_circuit(gate=f"4 LT 0 1:{B} 2:{B} 3:{B}"), "valueset", zero),
        # Input 1 nets to 0, but the prefix B + B leaves the budget where
        # x1 = x2 = 1: the bound sums |w| per edge, not per source.
        (overflow_circuit(gate=f"4 SUM 0 1:{B} 2:{B} 1:{-B}"), "valueset", zero),
        (overflow_circuit(gate=f"4 SUM 0 1:{B} 2:{B} 1:{-B}"), "valueset", rows),
    ]
    # The same through a gate source: SUM gate 4 feeds gate 5 twice.
    inputs = "1 INPUT 0\n2 INPUT 0\n3 INPUT 0\n"
    twice = read_circuit(
        f"inputs 1 2 3\noutput 6\n{inputs}4 SUM 0 1:1\n"
        f"5 SUM 0 4:{B} 2:{B} 4:{-B}\n6 LT {-B - 1} 5:1\n"
    )
    cases += [(twice, "valueset", zero), (twice, "valueset", rows)]
    # Input 1 is the output and feeds gates, one of which leaves the budget.
    fed = read_circuit(f"inputs 1 2 3\noutput 1\n{inputs}4 SUM 0 1:{B} 2:{B}\n5 LT 1 1:1 3:1\n")
    cases += [(fed, "parity", {}), (fed, "valueset", dict(weights=(1, 0, 0), values={1}))]
    rng = random.Random(chunk_bytes)
    mismatches = raised = 0
    for trial in range(150):
        c, reference, kw = cases[trial % len(cases)]
        if trial >= len(cases) and c.gate_count:
            c = perturb(c, rng)
        want = outcome(first_mismatch_by_rows, c, reference, **kw)
        assert outcome(exhaustive_check, c, reference, **kw) == want
        mismatches += isinstance(want, tuple)
        raised += isinstance(want, str)
    assert mismatches > 40
    assert raised > 10


def rung_cases(top):
    """(circuit, reference, kwargs) triples whose largest count is exactly top.

    Each of the three counts the stream type must hold sets top in turn: a
    gate bound reached by a value, a weight on a SUM gate that is always 0
    (the gate bounds stay at 2), and a reference's sum of |coefficients|.
    """
    head = "inputs 1 2\noutput 4\n1 INPUT 0\n2 INPUT 0\n"
    # Gate 3 reaches +top at (1, 1); gate 4 is 1 on every row unless it wraps.
    reach = read_circuit(f"{head}3 SUM 0 1:{top - 1} 2:1\n4 LT 0 3:1\n")
    # Gate 4 is x == y, x >= y or x xor y, plus top times gate 3, which is 0.
    silent = f"{head}3 SUM 0\n4 {{}} 1:1 2:{{}} 3:{top}\n"
    eq, comp = read_circuit(silent.format("EXACT 0", -1)), read_circuit(silent.format("LT 0", -1))
    parity = read_circuit(silent.format("EXACT 1", 1))
    first = read_circuit(f"{head}3 SUM 0\n4 LT 1 1:1\n")  # the output is input 1
    # Sums on each side of the type's ends, which an integer route never reaches.
    outside = {top + 1, -top - 1, -top - 2, 1 << 40, -(1 << 70)}
    sums = dict(weights=(top - 1, 1))
    cases = [(c, ref, dict(n=1)) for c in (eq, comp) for ref in ("eq", "comp")]
    cases += [(c, "parity", {}) for c in (reach, eq, parity)]
    cases += [
        (reach, "valueset", dict(sums, values={0, 1, top - 1, top} | outside)),
        (reach, "valueset", dict(sums, values={0, 1, top - 1} | outside)),
        (first, "valueset", dict(sums, values={top - 1, top} | outside)),
        (first, "valueset", dict(sums, values={top} | outside)),
    ]
    return cases


@pytest.mark.parametrize("chunk_bytes", [8, 40, 1 << 12])
@pytest.mark.parametrize(
    "top, rung",
    [
        (127, np.int8),
        (128, np.int16),
        (32767, np.int16),
        (32768, np.int32),
        ((1 << 31) - 1, np.int32),
        (1 << 31, np.int64),
        (1 << 61, np.int64),
        ((1 << 62) - 1, np.int64),
        (1 << 62, object),
    ],
)
def test_exhaustive_check_at_every_rung_boundary(monkeypatch, chunk_bytes, top, rung):
    # The stream runs in the narrowest type that holds -top - 1: a count of
    # +top one rung lower would wrap, and a weight past the type would raise.
    monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", chunk_bytes)
    seen = set()

    class Recorded(np.ndarray):
        def astype(self, dtype, **kw):
            seen.add(np.dtype(dtype))
            return np.asarray(self).astype(dtype, **kw)

    keys = circuit_module._keys
    monkeypatch.setattr(circuit_module, "_keys", lambda coef, v: keys(coef, v).view(Recorded))
    passed = mismatched = 0
    for c, reference, kw in rung_cases(top):
        want = first_mismatch_by_rows(c, reference, **kw)
        assert exhaustive_check(c, reference, **kw) == want
        passed += want is None
        mismatched += want is not None
    assert passed >= 5 and mismatched >= 5
    if chunk_bytes == 1 << 12:  # every input is low, so every table is cast
        assert seen == {np.dtype(rung)}


@pytest.mark.parametrize(
    "circuit_weights, circuit_values, weights, values",
    [
        # Weights near 2**61 push gate values past the int64 budget.
        ((BIG - 1, BIG, 1, 2), {BIG, 3}, (BIG - 1, BIG, 1, 2), {BIG, 3}),
        ((BIG - 1, BIG, 1, 2), {BIG, 3}, (BIG - 1, BIG, 1, 2), {BIG}),
        # The circuit fits int64, but the reference sums do not.
        ((1, 1), {2}, (2 * BIG, 2 * BIG), {4 * BIG}),
        ((1, 1), {1}, (2 * BIG, 2 * BIG), {4 * BIG}),
    ],
)
def test_exhaustive_check_exact_path(
    monkeypatch, circuit_weights, circuit_values, weights, values
):
    c = compile_value_set(circuit_weights, circuit_values)
    want = first_mismatch_by_rows(c, "valueset", weights=weights, values=values)
    dtypes, replayed = [], []
    keys = circuit_module._keys
    monkeypatch.setattr(
        circuit_module, "_keys", lambda coef, v: dtypes.append(coef.dtype) or keys(coef, v)
    )
    monkeypatch.setattr(circuit_module, "eval_circuit", lambda *a: replayed.append(a))
    assert exhaustive_check(c, "valueset", weights=weights, values=values) == want
    # The stream ran on object arrays, and no gate can reach 2**127, so no
    # row went back to eval_circuit.
    assert dtypes and all(d == object for d in dtypes)
    assert replayed == []


def test_exhaustive_check_int64_route_replays_nothing(monkeypatch, eq_4x8):
    c = compile_eq_circuit(eq_4x8)
    dtypes = []
    keys = circuit_module._keys
    monkeypatch.setattr(
        circuit_module, "_keys", lambda coef, v: dtypes.append(coef.dtype) or keys(coef, v)
    )
    monkeypatch.setattr(circuit_module, "eval_circuit", None)  # never called
    assert exhaustive_check(c, "eq", n=8) is None
    assert dtypes and all(d == "int64" for d in dtypes)


def test_exhaustive_check_overflow_row_and_text(monkeypatch):
    # Row by row, eval_circuit first raises at (1, 1, 0): gate 4's prefix
    # B + B is 2**127.  A reference mismatch one row earlier is returned;
    # one at that row is not, since the raise comes first.
    c = overflow_circuit()
    zero = dict(weights=(0, 0, 0), values={0})
    assert outcome(first_mismatch_by_rows, c, "valueset", **zero) == OVERFLOW
    replayed = []
    evaluate = circuit_module.eval_circuit
    def spy(circuit, assignment):
        replayed.append(assignment)
        return evaluate(circuit, assignment)

    monkeypatch.setattr(circuit_module, "eval_circuit", spy)
    assert outcome(exhaustive_check, c, "valueset", **zero) == OVERFLOW
    assert replayed[-1] == (1, 1, 0)
    assert replayed == sorted(replayed)
    counter = dict(weights=(4, 2, 1))  # the reference sum is the row number
    before = exhaustive_check(c, "valueset", values=set(range(8)) - {5}, **counter)
    assert before == (1, 0, 1)
    at = outcome(exhaustive_check, c, "valueset", values=set(range(8)) - {6}, **counter)
    assert at == OVERFLOW
    # The mismatch comes first: the output is 0 at (0, 0, 1), before any overflow.
    assert exhaustive_check(overflow_circuit(-B + 1), "valueset", **zero) == (0, 0, 1)


def test_exhaustive_check_memory_is_bounded():
    # 2**22 assignments; evaluating them all at once takes several hundred MB.
    n = 11
    c = compile_eq_circuit(build_crt(n, choose_primes(n)))
    # 4,000 XOR gates on 2 inputs and an AND of them: forms with a column per
    # gate would take 4,000**2 entries, 128 MB.
    g = 4000
    lines = ["inputs 1 2", f"output {g + 3}", "1 INPUT 0", "2 INPUT 0"]
    lines += [f"{t} EXACT 1 1:1 2:1" for t in range(3, g + 3)]
    lines += [f"{g + 3} LT {g} " + " ".join(f"{t}:1" for t in range(3, g + 3))]
    wide = read_circuit("\n".join(lines) + "\n")
    for circuit, reference, kw, limit in [(c, "eq", dict(n=n), 64), (wide, "parity", {}, 16)]:
        tracemalloc.start()
        try:
            assert exhaustive_check(circuit, reference, **kw) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit << 20


def test_exhaustive_check_object_route_memory_is_bounded():
    # 2**20 assignments on object arrays: parity as a value set over weights
    # 2**61, so the EXACT gates' sums pass int64.
    n = 20
    c = compile_value_set([BIG] * n, {BIG * v for v in range(1, n + 1, 2)})
    tracemalloc.start()
    try:
        assert exhaustive_check(c, "parity") is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
