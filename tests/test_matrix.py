import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES
from eqkit import (
    AlphabetSpec,
    ConstructionTrace,
    Counterexample,
    IntMatrix,
    MagnitudeError,
    MatrixFormatError,
    construct_eq_q,
    matvec,
    read_matrix,
    sample_matrix,
    write_matrix,
)
from eqkit.search import _entry_value
from oracles import apply_rows


def test_matvec_on_recursive_fixture(eq_4x8):
    x = (0, 1, 0, 0, 1, 1, 1, 0)
    assert matvec(eq_4x8, x) == (4, -2, -1, 0)


def test_matvec_zero_vector(eq_4x8, crt_4x8):
    for a in (eq_4x8, crt_4x8):
        assert matvec(a, (0,) * 8) == (0,) * 4


def test_matvec_on_residue_fixture(crt_4x8):
    assert matvec(crt_4x8, (2, 1, 1, 3, 0, 1, -1, 0)) == (12, 15, 14, 33)


def test_matvec_dimension_mismatch(eq_4x8):
    with pytest.raises(ValueError):
        matvec(eq_4x8, (1, 2, 3))


def test_matvec_is_linear():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        )
        x = [rng.randint(-9, 9) for _ in range(n)]
        y = [rng.randint(-9, 9) for _ in range(n)]
        both = matvec(a, [u + v for u, v in zip(x, y)])
        split = tuple(u + v for u, v in zip(matvec(a, x), matvec(a, y)))
        assert both == split == apply_rows(a.entries, [u + v for u, v in zip(x, y)])


def test_weight_bound_cached():
    a = IntMatrix.from_rows([[3, -7], [0, 2]])
    assert a.weight_bound == 7
    assert a.m == 2 and a.n == 2
    assert a[0, 1] == -7
    assert a.column(0) == (3, 0)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_magnitude_budget():
    big = 1 << 126
    a = IntMatrix.from_rows([[big, big]])
    with pytest.raises(MagnitudeError):
        matvec(a, (1, 1))
    with pytest.raises(MagnitudeError):
        IntMatrix.from_rows([[1 << 127]])


def test_matrices_are_immutable(eq_4x8):
    with pytest.raises(AttributeError):
        eq_4x8.entries = ()


def test_read_basic_header():
    a, trace = read_matrix("4 8\n" + "\n".join(["1 " * 7 + "0"] * 4) + "\n")
    assert (a.m, a.n) == (4, 8)
    assert trace is None


def test_roundtrip_fixture_bytes():
    text = (FIXTURES / "eq_k2.txt").read_text()
    a, trace = read_matrix(text)
    assert write_matrix(a, trace) == text
    assert (trace.m0, trace.n0, trace.k, trace.q) == (1, 1, 2, 2)


def test_roundtrip_random_matrices():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        )
        text = write_matrix(a)
        b, trace = read_matrix(text)
        assert b == a and trace is None
        assert write_matrix(b) == text


def test_read_rejects_wrong_entry_count():
    with pytest.raises(MatrixFormatError):
        read_matrix("2 3\n1 2 3\n4 5\n")
    with pytest.raises(MatrixFormatError):
        read_matrix("2 3\n1 2 3\n")


def test_read_rejects_bad_tokens():
    with pytest.raises(MatrixFormatError):
        read_matrix("1 2\n1 x\n")
    with pytest.raises(MatrixFormatError):
        read_matrix("1 two\n1 2\n")
    with pytest.raises(MatrixFormatError):
        read_matrix("")


def test_read_ignores_foreign_comments():
    a, trace = read_matrix("# search n=2 seed=5\n1 2\n3 4\n")
    assert a.entries == ((3, 4),)
    assert trace is None


def test_trace_dimension_law():
    trace = ConstructionTrace(1, 1, 3, 2)
    assert (trace.rows, trace.cols) == (8, 20)
    trace_q = ConstructionTrace(1, 1, 1, 3)
    assert (trace_q.rows, trace_q.cols) == (3, 4)


def test_trace_dimension_law_is_integral():
    # q^k n0 (k/q m0/n0 + 1), evaluated exactly, is what cols returns.
    for m0, n0, k, q in itertools.product(range(1, 5), range(1, 5), range(7), range(2, 6)):
        trace = ConstructionTrace(m0, n0, k, q)
        law = Fraction(q) ** k * n0 * (Fraction(k, q) * Fraction(m0, n0) + 1)
        assert type(trace.cols) is int and trace.cols == law
        assert trace.rows == q**k * m0
    for q in (2, 3, 4):
        for k in range(5):
            a, trace = construct_eq_q(k, q)
            assert (trace.rows, trace.cols) == (a.m, a.n)


def test_trace_validation():
    with pytest.raises(ValueError):
        ConstructionTrace(0, 1, 1, 2)
    with pytest.raises(ValueError):
        ConstructionTrace(1, 1, -1, 2)
    with pytest.raises(ValueError):
        ConstructionTrace(1, 1, 1, 1)


def test_alphabets():
    spec = AlphabetSpec(3)
    assert list(spec.kernel_values()) == [-2, -1, 0, 1, 2]
    assert list(spec.encoding_values()) == [0, 1, 2]
    assert spec.kernel_size == 5
    with pytest.raises(ValueError):
        AlphabetSpec(1)


def test_counterexample_must_be_nonzero():
    with pytest.raises(ValueError):
        Counterexample((0, 0))
    assert Counterexample((0, -1)).x == (0, -1)


TOP = 2**127 - 1


def test_budget_edges_are_exact():
    a = IntMatrix.from_rows([[TOP, -TOP], [0, 1]])
    assert a.entries == ((TOP, -TOP), (0, 1))
    assert a.weight_bound == TOP
    for bad in (2**127, -(2**127)):
        with pytest.raises(MagnitudeError, match=f"^\\|{bad}\\| exceeds"):
            IntMatrix.from_rows([[0, bad]])


def test_magnitude_error_names_first_entry_in_row_major_order():
    # The row's max (2^200) comes after its first out-of-range entry.
    with pytest.raises(MagnitudeError, match=f"^\\|{-(2**127)}\\|"):
        IntMatrix.from_rows([[1, 2, 3], [-(2**127), 5, 2**200], [2**300, 0, 0]])
    with pytest.raises(MagnitudeError, match=f"^\\|{2**128}\\|"):
        IntMatrix.from_rows([[0, 2**128, -(2**129)]])


def test_entries_become_exact_ints():
    a = IntMatrix.from_rows([[True, False], [np.int64(3), np.int64(-4)]])
    assert a.entries == ((1, 0), (3, -4))
    assert all(type(v) is int for row in a.entries for v in row)
    assert all(type(row) is tuple for row in a.entries)
    assert type(a.weight_bound) is int and a.weight_bound == 4
    b = IntMatrix((np.array([1, -2], dtype=np.int64), (v for v in (3, 4))))
    assert b.entries == ((1, -2), (3, 4))
    assert all(type(v) is int for row in b.entries for v in row)


SAFE = 2**62


def test_storage_rule_boundaries():
    # int64 below 2^62, exact ints from 2^62, accepted up to the budget.
    for top, dtype in ((SAFE - 1, np.int64), (SAFE, object), (TOP, object)):
        for v in (top, -top):
            rows = [[0, v], [1, -1]]
            for a in (IntMatrix.from_rows(rows), read_matrix(write_matrix(IntMatrix(rows)))[0]):
                assert a.array.dtype == dtype and a.array.shape == (2, 2)
                assert a.entries == ((0, v), (1, -1)) and a.weight_bound == top
                assert all(type(x) is int for x in a.array.ravel().tolist())
    for bad in (2**127, -(2**127)):
        text = f"2 2\n0 {-TOP}\n{bad} {-bad}\n"
        rows = [[0, -TOP], [bad, -bad]]
        for make in (lambda: IntMatrix.from_rows(rows), lambda: read_matrix(text)):
            with pytest.raises(MagnitudeError, match=f"^\\|{bad}\\| exceeds"):
                make()


def test_sample_matrix_keeps_the_storage_rule():
    # The sampler draws from one 64-bit word, so its spans stop below 2^64.
    for weight in (SAFE - 1, SAFE, SAFE + SAFE // 2, 2**63 - 1):
        a = sample_matrix(6, 5, weight, 3, 1)
        span = 2 * weight + 1
        want = [[_entry_value(3, 1, i, j, span) - weight for j in range(5)] for i in range(6)]
        assert a.entries == tuple(map(tuple, want))
        exact = a.weight_bound >= SAFE
        assert a.array.dtype == (object if exact else np.int64)
        # Past 2^62, each of the 30 draws reaches 2^62 with probability >= 1/3.
        assert exact == (weight > SAFE)


def test_matrix_from_tuples_int64_and_object_arrays_agree():
    for rows in ([[1, -2, 0], [3, 4, -5]], [[SAFE, 0, 1], [-1, 2, -TOP]]):
        tuples = IntMatrix(tuple(map(tuple, rows)))
        as_object = IntMatrix(np.array(rows, dtype=object))
        same = [tuples, as_object]
        if tuples.weight_bound < SAFE:
            same.append(IntMatrix(np.array(rows, dtype=np.int64)))
        for b in same:
            assert b == tuples and hash(b) == hash(tuples)
            assert b.array.dtype == tuples.array.dtype
            assert write_matrix(b) == write_matrix(tuples)
    assert IntMatrix([[1, 2]]) != IntMatrix([[1], [2]])
    assert IntMatrix([[1, 2]]) != IntMatrix([[1, 3]])


def test_stored_array_is_a_read_only_copy():
    source = np.array([[1, -1], [0, 2]])
    a = IntMatrix(source)
    source[0, 0] = 7
    assert a.entries == ((1, -1), (0, 2))
    for b in (a, IntMatrix([[SAFE, 1]])):
        with pytest.raises(ValueError, match="read-only"):
            b.array[0, 0] = 5
    # A read-only array that owns its memory is kept, not copied.
    source.flags.writeable = False
    assert IntMatrix(source).array is source
    view = source[:, :1]
    assert IntMatrix(view).array is not view


def test_matvec_on_both_sides_of_the_int64_product():
    # weight_bound * sum|x| below 2^63 takes one int64 product; at 2^63 and
    # past it, the exact sum.  (3, 3, 0) gives -3 * 2^62, which int64 wraps.
    w = 2**61
    a = IntMatrix.from_rows([[w, -w, 1], [-w, -w, 0]])
    for x in ((1, 2, 0), (1, 0, 2), (2, 2, 0), (3, 3, 0), (3, -1, 5), (2**60, 0, 0)):
        want = tuple(sum(v * xi for v, xi in zip(row, x)) for row in a.entries)
        got = matvec(a, x)
        assert got == want and all(type(v) is int for v in got)
    zero = IntMatrix.from_rows([[0, 0]])
    assert matvec(zero, (2**100, -(2**100))) == (0,)


def test_ragged_and_empty_rows_raise():
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[1, 2], []], [(1, 2), iter([3])]):
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix.from_rows(rows)
    for rows in ([], [[]], [[], [1]]):
        with pytest.raises(ValueError, match="at least one row"):
            IntMatrix.from_rows(rows)


def _checked_matvec(rows, x):
    """Row-by-row accumulation that fails as soon as a term or partial sum
    leaves the budget."""
    out = []
    for row in rows:
        acc = 0
        for coeff, xi in zip(row, x):
            term = coeff * xi
            if abs(term) >= 2**127 or abs(acc + term) >= 2**127:
                return None
            acc += term
        out.append(acc)
    return tuple(out)


def test_matvec_near_the_budget():
    big = 1 << 126
    cases = [
        ([[TOP]], (1,)),
        ([[TOP]], (-1,)),
        ([[big, -big]], (1, 1)),  # partial sums stay inside
        ([[big, big, -big]], (1, 1, 1)),  # a partial sum reaches 2^127
        ([[TOP, 1]], (1, 1)),
        ([[3, -1], [big, 0]], (2, 5)),
    ]
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.choice((-1, 1)) * rng.randint(0, big) for _ in range(n)]]
        cases.append((rows, tuple(rng.randint(-3, 3) for _ in range(n))))
    for rows, x in cases:
        want = _checked_matvec(rows, x)
        a = IntMatrix.from_rows(rows)
        if want is None:
            with pytest.raises(MagnitudeError):
                matvec(a, x)
        else:
            assert matvec(a, x) == want


def test_matvec_converts_vector_entries():
    a = IntMatrix.from_rows([[2, -3]])
    got = matvec(a, [np.int64(4), True])
    assert got == (5,) and type(got[0]) is int


_ENTRY = st.integers(min_value=-TOP, max_value=TOP)


@st.composite
def _matrices(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    row = st.lists(_ENTRY, min_size=n, max_size=n)
    return IntMatrix.from_rows(draw(st.lists(row, min_size=m, max_size=m)))


_TRACES = st.builds(
    ConstructionTrace,
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 5),
    st.integers(2, 5),
)


@given(_matrices(), st.none() | _TRACES)
def test_write_read_round_trip(a, trace):
    text = write_matrix(a, trace)
    b, got = read_matrix(text)
    assert b == a and got == trace
    assert all(type(v) is int for row in b.entries for v in row)
    assert write_matrix(b, got) == text


@given(_matrices(), st.none() | _TRACES, st.data())
def test_read_tolerates_spacing_signs_and_comments(a, trace, data):
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = ["# a comment line", "#"]
    if trace is not None:
        lines.append(write_matrix(a, trace).splitlines()[0])
    lines.append(f"{a.m}{data.draw(gap)}{a.n}")
    for row in a.entries:
        signs = data.draw(st.lists(st.booleans(), min_size=a.n, max_size=a.n))
        tokens = [f"+{v}" if v >= 0 and plus else str(v) for v, plus in zip(row, signs)]
        lines.append(data.draw(gap) + data.draw(gap).join(tokens) + data.draw(gap))
    b, got = read_matrix("\n".join(lines) + "\n")
    assert b == a and got == trace


def test_read_matrix_keeps_the_array_it_parsed(eq7_texts):
    # The reader shapes its fresh array in place and marks it read-only, so
    # IntMatrix keeps it: one copy of the entries, never two.
    text = eq7_texts[0]
    read_matrix(text)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        a, _ = read_matrix(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (a.m, a.n) == (128, 576)
    assert peak < 2 * a.array.nbytes  # 1.18 MB; a second copy takes the read to 1.35 MB
    for text in (text, "2 2\n1  2\n3 -4\n", f"1 2\n{2**70} 1\n"):  # plain, int(), exact
        a, _ = read_matrix(text)
        assert a.array.base is None and not a.array.flags.writeable
