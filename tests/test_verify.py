import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqkit import (
    CapExceededError,
    IntMatrix,
    MagnitudeError,
    bounds_report,
    build_crt,
    choose_primes,
    construct_eq,
    crt_residue_check,
    det_bareiss,
    is_eq_q,
    is_mds,
    is_rmds,
    matvec,
    sample_matrix,
    truncate_columns,
)
from eqkit import verify
from oracles import brute_collision, brute_kernel, det_cofactor


def _random_matrix(rng, m, n, lo=-1, hi=1):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    )


def test_fixtures_pass_both_modes(eq_4x8, crt_4x8):
    for a in (eq_4x8, crt_4x8):
        assert is_eq_q(a, 2, mode="kernel") is None
        assert is_eq_q(a, 2, mode="injectivity") is None


def test_repeated_column_witness():
    a = IntMatrix.from_rows([[1, 1]])
    assert is_eq_q(a, 2, mode="kernel").x == (1, -1)
    assert is_eq_q(a, 2, mode="injectivity").x == (1, -1)


def test_witnesses_match_brute_force():
    rng = random.Random(23)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        expected = brute_kernel(a.entries, 2)
        got = is_eq_q(a, 2, mode="kernel")
        assert (got.x if got else None) == expected
        expected_inj = brute_collision(a.entries, 2)
        got_inj = is_eq_q(a, 2, mode="injectivity")
        assert (got_inj.x if got_inj else None) == expected_inj


def test_modes_agree_on_random_4x8():
    rng = random.Random(99)
    for _ in range(200):
        a = _random_matrix(rng, 4, 8)
        kernel = is_eq_q(a, 2, mode="kernel")
        injective = is_eq_q(a, 2, mode="injectivity")
        assert (kernel is None) == (injective is None)


def test_mode_agreement_for_q3():
    rng = random.Random(41)
    for _ in range(40):
        a = _random_matrix(rng, 2, 4)
        kernel = is_eq_q(a, 3, mode="kernel")
        injective = is_eq_q(a, 3, mode="injectivity")
        assert (kernel is None) == (injective is None)


def _with_duplicate_or_zero_column(rng, a):
    rows = [list(r) for r in a.entries]
    j = rng.randrange(a.n)
    for r in rows:
        r[j] = r[rng.randrange(a.n)] if rng.random() < 0.5 else 0
    return IntMatrix.from_rows(rows)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", range(1, 10))
def test_meet_in_the_middle_matches_brute_force(q, n):
    rng = random.Random(1000 * q + n)
    # The brute-force oracles walk up to 5^9 vectors in pure Python.
    for trial in range(12 if (2 * q - 1) ** n <= 3**9 else 4):
        a = _random_matrix(rng, trial % 4 + 1, n, lo=-3, hi=3)
        if trial % 3 == 0:
            a = _with_duplicate_or_zero_column(rng, a)
        got = is_eq_q(a, q, mode="kernel")
        assert (got.x if got else None) == brute_kernel(a.entries, q)
        got = is_eq_q(a, q, mode="injectivity")
        assert (got.x if got else None) == brute_collision(a.entries, q)


# The low half is the first ceil(n/2) coordinates.
HALF_CASES = [
    # Every kernel vector has x_high = 0: the smallest nonzero low key-0 entry.
    ([[1, 1, 100, 1000]], 2, (1, -1, 0, 0)),
    ([[1, 2, 1, 100, 1000]], 3, (2, 0, -2, 0, 0)),
    # Every kernel vector has x_low = 0: the zero low vector is the match.
    ([[100, 1000, 1, 1]], 2, (0, 0, 1, -1)),
    ([[100, 1000, 7, 2, 1]], 3, (0, 0, 0, 1, -2)),
]


@pytest.mark.parametrize("rows, q, witness", HALF_CASES)
def test_witness_within_one_half(rows, q, witness):
    assert brute_kernel(rows, q) == witness
    assert is_eq_q(IntMatrix.from_rows(rows), q, mode="kernel").x == witness


@pytest.mark.parametrize("chunk_bytes, grid_rows", [(1, 1), (200, 3), (1000, 1), (4000, 9)])
def test_uneven_split_and_small_chunks(monkeypatch, chunk_bytes, grid_rows):
    # Under these ceilings the split runs from a one-row table and one-row
    # chunks up to a table below ceil(n/2) coordinates with chunks of a few
    # rows; keys built mostly by broadcast adds must give the same witnesses.
    monkeypatch.setattr(verify, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(verify, "_GRID_ROWS", grid_rows)
    rng = random.Random(chunk_bytes)
    cases = [IntMatrix.from_rows(rows) for rows, _, _ in HALF_CASES]
    for _ in range(25):
        cases.append(_random_matrix(rng, rng.randint(1, 3), rng.randint(1, 6)))
    for a in cases:
        for q in (2, 3):
            got = is_eq_q(a, q, mode="kernel")
            assert (got.x if got else None) == brute_kernel(a.entries, q)
            got = is_eq_q(a, q, mode="injectivity")
            assert (got.x if got else None) == brute_collision(a.entries, q)


def test_exact_path_near_2_to_61():
    big = 1 << 61
    rng = random.Random(61)
    for _ in range(10):
        rows = [[big + rng.randint(-2, 2) for _ in range(5)] for _ in range(2)]
        a = IntMatrix.from_rows(rows)
        assert verify._packed_row(a, 2).dtype == object
        got = is_eq_q(a, 2, mode="kernel")
        assert (got.x if got else None) == brute_kernel(a.entries, 2)
        got = is_eq_q(a, 2, mode="injectivity")
        assert (got.x if got else None) == brute_collision(a.entries, 2)
    # Independent large columns: the exact path must also report PASS.
    a = IntMatrix.from_rows([[big, 3 * big + 1, 9 * big + 5]])
    assert brute_kernel(a.entries, 2) is None
    assert is_eq_q(a, 2, mode="kernel") is None


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_oracle_memory_stays_small():
    a = build_crt(20, choose_primes(20))
    result, peak = _peak_bytes(lambda: is_eq_q(a, 2, mode="injectivity"))
    assert result is None
    assert peak < 32 << 20
    a = build_crt(14, choose_primes(14))
    result, peak = _peak_bytes(lambda: is_eq_q(a, 2, mode="kernel"))
    assert result is None
    assert peak < 8 << 20


@pytest.mark.parametrize("spread", [1000, 10**9])
def test_exact_search_stays_under_the_chunk_ceiling(monkeypatch, spread):
    # Entries near 2^59 put the 1x16 row on the exact path: the table and one
    # chunk of Python ints must share the ceiling.
    rng = random.Random(spread)
    a = IntMatrix.from_rows([[(1 << 59) + rng.randint(-spread, spread) for _ in range(16)]])
    assert verify._packed_row(a, 2).dtype == object
    wants = {mode: is_eq_q(a, 2, mode=mode) for mode in ("kernel", "injectivity")}
    monkeypatch.setattr(verify, "_CHUNK_BYTES", 256 << 10)
    for mode, want in wants.items():
        # The untraced call also builds this split's cached digit grids.
        assert is_eq_q(a, 2, mode=mode) == want
        got, peak = _peak_bytes(lambda: is_eq_q(a, 2, mode=mode))
        assert got == want
        assert peak < 256 << 10


def test_failing_witness_memory_stays_small(crt_7x20_repeated):
    # The first colliding pair is (e_2, e_18); naming it takes the half
    # tables, not the 2^20 encodings (61 MB when they were all built).
    a = crt_7x20_repeated
    witness = (0, 0, 1) + (0,) * 15 + (-1, 0)
    result, peak = _peak_bytes(lambda: is_eq_q(a, 2, mode="injectivity"))
    assert result.x == witness
    assert peak < 16 << 20
    result, peak = _peak_bytes(lambda: is_rmds(a, a.m, 2).kernel)
    assert result.x == witness
    assert peak < 16 << 20


def test_exact_ranks_match_brute_force(monkeypatch):
    # With no int64 room every key and rank is an exact Python int.
    monkeypatch.setattr(verify, "_INT64_SAFE", 1)
    rng = random.Random(64)
    for trial in range(30):
        q = 2 + trial % 2
        a = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 5), lo=-2, hi=2)
        if trial % 3 == 0:
            a = _with_duplicate_or_zero_column(rng, a)
        assert verify._packed_row(a, q).dtype == object
        got = is_eq_q(a, q, mode="kernel")
        assert (got.x if got else None) == brute_kernel(a.entries, q)
        got = is_eq_q(a, q, mode="injectivity")
        assert (got.x if got else None) == brute_collision(a.entries, q)


def test_unknown_mode_rejected(eq_4x8):
    with pytest.raises(ValueError):
        is_eq_q(eq_4x8, 2, mode="guess")


def test_cap_exceeded_reports_work(eq_4x8):
    with pytest.raises(CapExceededError) as info:
        is_eq_q(eq_4x8, 2, mode="kernel", cap=100)
    assert info.value.required == 3**8
    assert info.value.allowed == 100


def test_rmds_cap_charges_block_encodings(crt_5x8):
    # Each m-row block is decided from its q^n encodings.
    for m, q in ((4, 2), (2, 3)):
        with pytest.raises(CapExceededError) as info:
            is_rmds(crt_5x8, m, q, cap=100)
        assert info.value.required == math.comb(crt_5x8.m, m) * q**crt_5x8.n


def test_truncation_monotonicity(eq_4x8):
    rng = random.Random(17)
    for _ in range(25):
        keep = rng.sample(range(8), rng.randint(1, 8))
        assert is_eq_q(truncate_columns(eq_4x8, keep), 2) is None


def test_identity_is_mds():
    assert is_mds(IntMatrix.identity(4)) is None


def test_residue_5x8_is_not_mds(crt_5x8):
    assert is_mds(crt_5x8) == (0, 1, 2, 3, 4)
    square = [row[:5] for row in crt_5x8.entries]
    assert det_cofactor(square) == 0


def test_small_wide_matrix_is_mds():
    a = IntMatrix.from_rows([[1, 1, 1], [1, -1, 0]])
    # the three 2x2 minors: -2, -1, 1
    assert is_mds(a) is None


def test_is_mds_requires_wide_matrix():
    with pytest.raises(ValueError):
        is_mds(IntMatrix.from_rows([[1], [2]]))


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(31)
    for _ in range(120):
        size = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
        assert det_bareiss(rows) == det_cofactor(rows)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


# Entries up to 2^10 keep every Bareiss product of two 5x5 minors of a 6x6
# matrix below 2 * (5^2.5 * 2^50)^2 < 2^113, inside the 2^127 budget.
_ENTRY = st.one_of(st.integers(-1, 1), st.integers(-(2**10), 2**10))
_SQUARE = st.integers(1, 6).flatmap(
    lambda size: st.lists(
        st.lists(_ENTRY, min_size=size, max_size=size), min_size=size, max_size=size
    )
)


@given(rows=_SQUARE)
def test_bareiss_matches_sympy(sympy, rows):
    assert det_bareiss(rows) == sympy.Matrix(rows).det()


def test_bareiss_raises_past_the_budget():
    # The first elimination product is 2^64 * 2^64.
    with pytest.raises(MagnitudeError):
        det_bareiss([[2**64, 1], [1, 2**64]])


def test_is_mds_matches_cofactor_on_small_matrices():
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(m, m + 2)
        a = _random_matrix(rng, m, n, lo=-3, hi=3)
        witness = is_mds(a)
        import itertools

        naive = None
        for cols in itertools.combinations(range(n), m):
            if det_cofactor([[a[i, j] for j in cols] for i in range(m)]) == 0:
                naive = cols
                break
        assert witness == naive


def test_rmds_residue_fixture(crt_5x8):
    assert is_rmds(crt_5x8, 4, 2) is None


def test_rmds_degenerate_whole_matrix(eq_4x8):
    assert is_rmds(eq_4x8, 4, 2) is None


def test_rmds_witness_on_all_ones():
    a = IntMatrix.from_rows([[1, 1, 1, 1], [1, 1, 1, 1]])
    witness = is_rmds(a, 1, 2)
    assert witness.rows == (0,)
    assert witness.kernel.x == (1, -1, 0, 0)


def test_rmds_validation(eq_4x8):
    with pytest.raises(ValueError):
        is_rmds(eq_4x8, 5, 2)
    with pytest.raises(ValueError):
        is_rmds(eq_4x8, 0, 2)


def test_bounds_report_fixture_values():
    report = bounds_report(8, m=4, weight=1, alphabet_size=3, k_iter=2)
    assert report.lemma2_rate_bound == 2.5
    assert report.theorem3_mds_bound == 81
    assert report.r_constr == Fraction(2)
    assert report.r_upper == 2.5
    assert report.ratio == 1.25


def test_bounds_report_siegel_term():
    report = bounds_report(2, m=1, weight=1)
    assert report.siegel_norm_bound == pytest.approx(math.sqrt(2))
    absent = bounds_report(4, m=4, weight=1)
    assert absent.siegel_norm_bound is None


def test_bounds_report_validation():
    with pytest.raises(ValueError):
        bounds_report(0)
    with pytest.raises(ValueError):
        bounds_report(4, alphabet_size=0)
    with pytest.raises(ValueError):
        bounds_report(4, k_iter=-1)


def test_rate_bound_consistency_through_k6():
    for k in range(7):
        a, _ = construct_eq(k)
        rate = Fraction(a.n, a.m)
        assert float(rate) <= bounds_report(a.n).lemma2_rate_bound + 1e-12


def test_rate_ratio_shrinks_toward_one():
    ratios = {
        k: bounds_report(8, k_iter=k).ratio for k in range(2, 21)
    }
    assert ratios[2] <= 1.26
    for k in range(4, 20):
        assert ratios[k + 1] < ratios[k]
    assert ratios[20] < ratios[4]


def test_residue_check_worked_example(crt_4x8):
    x = (2, 1, 1, 3, 0, 1, -1, 0)
    assert matvec(crt_4x8, x) == (12, 15, 14, 33)
    assert crt_residue_check((3, 5, 7, 11), crt_4x8, x) is None


def test_residue_check_zero_vector(crt_4x8):
    assert crt_residue_check((3, 5, 7, 11), crt_4x8, (0,) * 8) is None


def test_residue_check_small_kernel_vector(crt_4x8):
    x = (-2, 1, 0, 0, 0, 0, 0, 0)
    assert crt_residue_check((3, 5, 7, 11), crt_4x8, x) is None


def test_residue_check_precondition(crt_4x8):
    with pytest.raises(ValueError):
        crt_residue_check((3, 5, 7, 11), crt_4x8, (1,) + (0,) * 7)
    with pytest.raises(ValueError):
        crt_residue_check((3, 5), crt_4x8, (0,) * 8)


def test_residue_check_reports_failing_row(crt_4x8):
    rows = [list(r) for r in crt_4x8.entries]
    rows[2][0] += 1  # breaks the congruence structure of row 2 only
    broken = IntMatrix.from_rows(rows)
    assert crt_residue_check((3, 5, 7, 11), broken, (-2, 1, 0, 0, 0, 0, 0, 0)) == 2


# is_rmds: the zero-pattern product and the block loop, each forced.
ROUTES = {"product": True, "blocks": False}


def _expected_rmds(rows, m, q):
    """First failing row set in combinations order and its collision witness."""
    for block in itertools.combinations(range(len(rows)), m):
        sub = [rows[i] for i in block]
        if brute_kernel(sub, q) is not None:
            return block, brute_collision(sub, q)
    return None


def _rmds_result(a, m, q):
    got = is_rmds(a, m, q)
    return None if got is None else (got.rows, got.kernel.x)


def _with_repeats(rng, rows):
    """Copy or zero one row, and copy or zero one column."""
    rows = [list(r) for r in rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[i] = list(rows[j]) if rng.random() < 0.5 else [0] * len(rows[0])
    c, d = rng.randrange(len(rows[0])), rng.randrange(len(rows[0]))
    for r in rows:
        r[c] = r[d] if rng.random() < 0.5 else 0
    return rows


@pytest.mark.parametrize("route", [*ROUTES, "blocks split"])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_rmds_routes_match_brute_force(monkeypatch, route, q, m):
    monkeypatch.setattr(verify, "_zero_pattern_pays", lambda *args: ROUTES.get(route, False))
    if route == "blocks split":
        # The block loop with a one-row low table, chunks and grids, so each
        # block decision and witness runs the engine's split.
        for name in ("_CHUNK_BYTES", "_GRID_ROWS"):
            monkeypatch.setattr(verify, name, 1)
    rng = random.Random(100 * q + 10 * m + len(route))
    for trial in range(24):
        n = trial % 5 + 1
        if q == 3 and n == 5 and trial % 2:
            continue  # keep the pure-Python reference quick
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(m, m + 2))]
        if trial % 3 == 0:
            rows = _with_repeats(rng, rows)
        a = IntMatrix.from_rows(rows)
        assert _rmds_result(a, m, q) == _expected_rmds(a.entries, m, q)


@pytest.mark.parametrize("route", ROUTES)
def test_rmds_object_path_near_2_to_62(monkeypatch, route):
    monkeypatch.setattr(verify, "_zero_pattern_pays", lambda *args: ROUTES[route])
    big = 1 << 62
    rng = random.Random(62)
    cases = [[[big, 3 * big + 1, 9 * big + 5]], [[big, big, big, big], [big, -big, 1, 0]]]
    for _ in range(12):
        n = rng.randint(1, 4)
        cases.append(
            [[rng.choice([big, -big, big - 1, 0, rng.randint(-2, 2)]) for _ in range(n)]
             for _ in range(rng.randint(2, 4))]
        )
    for rows in cases:
        a = IntMatrix.from_rows(rows)
        for q in (2, 3):
            # Some |a_i.x| can reach 2^62, so the product must be exact.
            assert a.weight_bound * (q - 1) * a.n >= verify._INT64_SAFE
            for m in range(1, min(a.m, 2) + 1):
                assert _rmds_result(a, m, q) == _expected_rmds(a.entries, m, q)


@pytest.mark.parametrize("chunk_bytes, grid_rows", [(1, 1), (200, 3), (1000, 30)])
def test_rmds_product_in_small_chunks(monkeypatch, chunk_bytes, grid_rows):
    # Chunks of one to a few vectors and low grids of a few rows.
    monkeypatch.setattr(verify, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(verify, "_GRID_ROWS", grid_rows)
    monkeypatch.setattr(verify, "_zero_pattern_pays", lambda *args: True)
    rng = random.Random(chunk_bytes)
    for trial in range(30):
        q, n = (2, 5) if trial % 2 else (3, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(2, 4))]
        if trial % 3 == 0:
            rows = _with_repeats(rng, rows)
        a = IntMatrix.from_rows(rows)
        for m in (1, 2):
            assert _rmds_result(a, m, q) == _expected_rmds(a.entries, m, q)


def test_rmds_routes_agree_on_sampled_candidates(monkeypatch):
    for attempt in range(150):
        a = sample_matrix(8, 4, 8, 3, attempt)
        results = []
        for product in ROUTES.values():
            monkeypatch.setattr(verify, "_zero_pattern_pays", lambda *args: product)
            results.append(_rmds_result(a, 2, 3))
        assert results[0] == results[1]


def test_rmds_route_follows_element_counts():
    # The search shape: 8 * 312 adds against 28 sorts of 81 keys.
    assert verify._zero_pattern_pays(8, 2, 4, 3)
    # m = 1 and n = 20: 3^20 / 2 vectors per row against 2^20 keys per row.
    assert not verify._zero_pattern_pays(4, 1, 20, 2)


def test_rmds_product_memory_is_chunked(monkeypatch):
    # 39,062 half-box vectors over 8 rows take about 3 MB at once; the zero
    # matrix makes every vector a hit, so its rows are sorted too.
    monkeypatch.setattr(verify, "_CHUNK_BYTES", 1 << 18)
    assert verify._zero_pattern_pays(8, 2, 7, 3)
    for a in (sample_matrix(8, 7, 8, 0, 0), IntMatrix.from_rows([[0] * 7] * 8)):
        verify._digit_grid.cache_clear()
        _, peak = _peak_bytes(lambda: verify._zero_pattern_block(a, 2, 3))
        assert peak < 1 << 19


def test_exact_keys_skip_the_digit_grid():
    # Object coefficients take the broadcast adds only: a product with the
    # int64 digit grid would first copy its 3^7 x 7 cells to objects, which
    # the engine's byte count does not see.  Both routes give the same keys.
    values = range(-1, 2)
    small = np.array([3, -1, 4, 1, -5, 9, 2])
    exact = small.astype(object)
    verify._keys(small, values)  # the cached int64 grid is not what is measured
    keys, peak = _peak_bytes(lambda: verify._keys(exact, values))
    assert keys.dtype == object
    assert keys.tolist() == verify._keys(small, values).tolist()
    assert peak < 3**7 * 7 * 8
    big = exact * (1 << 70)
    assert verify._keys(big, values).tolist() == [k << 70 for k in keys.tolist()]
