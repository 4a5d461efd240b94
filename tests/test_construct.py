import random
import tracemalloc

import pytest

from eqkit import (
    IntMatrix,
    build_crt,
    choose_primes,
    construct_eq,
    construct_eq_q,
    is_eq_q,
    truncate_columns,
)
from oracles import block_recursion, brute_kernel


def test_zero_iterations_returns_base():
    a, trace = construct_eq(0)
    assert a.entries == ((1,),)
    assert (trace.rows, trace.cols) == (1, 1)


def test_k2_reproduces_the_4x8_fixture(eq_4x8):
    assert eq_4x8.entries == (
        (1, 1, 1, 1, 1, 1, 1, 0),
        (1, -1, 0, 1, -1, 0, 0, 1),
        (1, 1, 1, -1, -1, -1, 0, 0),
        (1, -1, 0, -1, 1, 0, 0, 0),
    )


def test_small_constructions_have_trivial_kernels():
    for k in (1, 2):
        a, _ = construct_eq(k)
        assert brute_kernel(a.entries, 2) is None


def test_k3_passes_injectivity_oracle():
    a, _ = construct_eq(3)
    assert (a.m, a.n) == (8, 20)
    assert a.weight_bound == 1
    assert is_eq_q(a, 2, mode="injectivity") is None


def test_dimension_law_through_k6():
    for k in range(7):
        a, trace = construct_eq(k)
        assert a.m == 2**k
        assert a.n == 2**k * (k + 2) // 2
        assert (trace.rows, trace.cols) == (a.m, a.n)


def test_q3_zero_iterations():
    a, _ = construct_eq_q(0, 3)
    assert a.entries == ((1,),)


def test_q3_single_iteration_matches_template():
    a, trace = construct_eq_q(1, 3)
    assert a.entries == ((1, 1, 1, 1), (1, -1, 0, 0), (0, 1, -1, 0))
    assert (trace.rows, trace.cols) == (3, 4)
    assert brute_kernel(a.entries, 3) is None


def test_q3_second_iteration_shape():
    a, trace = construct_eq_q(2, 3)
    assert (a.m, a.n) == (9, 15)
    assert (trace.rows, trace.cols) == (9, 15)
    assert a.weight_bound == 1
    # nonzero kernel-alphabet vectors never vanish on a 1000-vector sample
    rng = random.Random(6)
    from eqkit import matvec

    for _ in range(1000):
        x = [rng.randint(-2, 2) for _ in range(15)]
        if any(x):
            assert any(matvec(a, x))


def test_q2_specializes_to_binary_recursion(eq_4x8):
    a, _ = construct_eq_q(2, 2)
    assert a == eq_4x8


def test_construction_memory_stays_under_twice_the_result():
    # construct_eq(9) is 512 x 2816 int64 entries (11 MB); its recursion
    # keeps one array per step and hands the last one over without a copy.
    construct_eq(1)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        a, _ = construct_eq(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (a.m, a.n) == (512, 2816)
    assert peak < 2 * a.array.nbytes, peak


def test_base_entries_are_validated():
    with pytest.raises(ValueError):
        construct_eq(1, IntMatrix.from_rows([[2]]))
    with pytest.raises(ValueError):
        construct_eq_q(1, 1)
    with pytest.raises(ValueError):
        construct_eq(-1)


def test_crt_fixture_rows(crt_4x8, crt_5x8):
    assert crt_4x8.entries == (
        (1, 2, 1, 2, 1, 2, 1, 2),
        (1, 2, 4, 3, 1, 2, 4, 3),
        (1, 2, 4, 1, 2, 4, 1, 2),
        (1, 2, 4, 8, 5, 10, 9, 7),
    )
    assert crt_5x8.row(4) == (1, 2, 4, 8, 3, 6, 12, 11)


def test_crt_refuses_insufficient_product():
    with pytest.raises(ValueError):
        build_crt(4, (3, 5))  # 15 < 16


def test_crt_input_validation():
    with pytest.raises(ValueError):
        build_crt(8, (3, 5, 9, 11))  # 9 is composite
    with pytest.raises(ValueError):
        build_crt(8, (5, 3, 7, 11))  # not ascending
    with pytest.raises(ValueError):
        build_crt(8, (3, 3, 5, 7))  # repeated
    with pytest.raises(ValueError):
        build_crt(0, (3,))


def test_crt_congruence_invariant():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 12)
        primes = choose_primes(n)
        a = build_crt(n, primes)
        for i, p in enumerate(primes):
            for j in range(n):
                entry = a[i, j]
                assert 0 <= entry < p
                assert (entry - 2**j) % p == 0


def test_choose_primes_examples():
    assert choose_primes(8) == (3, 5, 7, 11)
    assert choose_primes(1) == (3,)
    primes = choose_primes(16)
    product = 1
    for p in primes:
        product *= p
    assert product > 65536
    trimmed = 1
    for p in primes[:-1]:
        trimmed *= p
    assert trimmed <= 65536


def test_choose_primes_with_count():
    assert choose_primes(8, count=4) == (3, 5, 7, 11)
    with pytest.raises(ValueError):
        choose_primes(8, count=3)  # 3*5*7 = 105 <= 256


def test_truncate_keep_all(eq_4x8):
    assert truncate_columns(eq_4x8, range(8)) == eq_4x8


def test_truncate_first_seven_still_eq(eq_4x8):
    a = truncate_columns(eq_4x8, range(7))
    assert (a.m, a.n) == (4, 7)
    assert brute_kernel(a.entries, 2) is None


def test_truncate_single_column(eq_4x8):
    a = truncate_columns(eq_4x8, {0})
    assert a.entries == ((1,), (1,), (1,), (1,))
    assert brute_kernel(a.entries, 2) is None


def test_truncate_validation(eq_4x8):
    with pytest.raises(ValueError):
        truncate_columns(eq_4x8, set())
    with pytest.raises(ValueError):
        truncate_columns(eq_4x8, {8})
    with pytest.raises(ValueError):
        truncate_columns(eq_4x8, {-1})


def test_truncation_preserves_eq_on_random_subsets(eq_4x8):
    rng = random.Random(5)
    for _ in range(50):
        size = rng.randint(1, 8)
        keep = rng.sample(range(8), size)
        a = truncate_columns(eq_4x8, keep)
        assert is_eq_q(a, 2, mode="kernel") is None


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("base", [((1,),), ((1, -1, 0), (0, 1, 1))])
def test_recursion_matches_entrywise_reference(q, base):
    for k in range(5):
        a, trace = construct_eq_q(k, q, IntMatrix.from_rows(base))
        want = block_recursion(base, q, k)
        assert a.entries == tuple(map(tuple, want))
        assert (a.m, a.n) == (trace.rows, trace.cols)
