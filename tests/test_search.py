import hashlib
import itertools
import math
import tracemalloc

import pytest

from conftest import COMP_SEARCH, RMDS_SEARCH_ATTEMPTS
from eqkit import (
    IntMatrix,
    is_eq_q,
    is_rmds,
    sample_matrix,
    search_rmds,
    suggest_params,
    theorem3_rate_cap,
)
from eqkit import search, verify
from oracles import brute_kernel


def test_sampler_is_deterministic():
    a = sample_matrix(2, 4, 1, seed=7, attempt=0)
    b = sample_matrix(2, 4, 1, seed=7, attempt=0)
    assert a == b
    assert a.weight_bound <= 1
    assert sample_matrix(2, 4, 1, seed=7, attempt=1) != a
    assert sample_matrix(2, 4, 1, seed=8, attempt=0) != a


def test_sampler_zero_weight_is_degenerate():
    a = sample_matrix(3, 3, 0, seed=1, attempt=0)
    assert all(v == 0 for row in a.entries for v in row)


def test_sampler_histogram_is_uniform():
    # 10^5 draws at weight 2; each of the 5 values within 3 sigma of N/5
    a = sample_matrix(100, 1000, 2, seed=42, attempt=0)
    counts = {v: 0 for v in range(-2, 3)}
    for row in a.entries:
        for v in row:
            counts[v] += 1
    total = 100 * 1000
    expected = total / 5
    sigma = math.sqrt(total * 0.2 * 0.8)
    for v, count in counts.items():
        assert abs(count - expected) <= 3 * sigma, (v, count)


def test_search_finds_verified_matrix():
    params = COMP_SEARCH[4]
    found, attempts = search_rmds(
        params["n"],
        params["m"],
        params["r"],
        params["q"],
        params["weight"],
        params["seed"],
        max_attempts=10**5,
    )
    assert found is not None
    assert attempts == RMDS_SEARCH_ATTEMPTS[4]
    assert (found.m, found.n) == (8, 4)
    assert is_rmds(found, params["m"], params["q"]) is None
    assert _one_at_a_time(4, 2, 4, 3, 8, params["seed"], 10**5) == (found, attempts)


def test_search_is_reproducible():
    params = COMP_SEARCH[3]
    first = search_rmds(3, 2, 3, 3, 8, params["seed"], max_attempts=100)
    second = search_rmds(3, 2, 3, 3, 8, params["seed"], max_attempts=100)
    assert first == second
    assert first[1] == RMDS_SEARCH_ATTEMPTS[3]
    assert _one_at_a_time(3, 2, 3, 3, 8, params["seed"], 100) == first


def test_search_with_rate_one_finds_single_eq_matrix():
    found, _ = search_rmds(4, 2, 1, 3, 8, seed=0, max_attempts=10**4)
    assert found is not None
    assert found.m == 2
    assert is_eq_q(found, 3, mode="kernel") is None


def test_search_zero_weight_exhausts():
    found, attempts = search_rmds(4, 2, 1, 3, 0, seed=0, max_attempts=25)
    assert found is None
    assert attempts == 25


def test_search_refuses_impossible_rates():
    assert theorem3_rate_cap(0) == 1
    assert theorem3_rate_cap(1) == 81
    with pytest.raises(ValueError):
        search_rmds(4, 2, 4, 3, 0, seed=0, max_attempts=10)
    with pytest.raises(ValueError):
        search_rmds(4, 2, 82, 3, 1, seed=0, max_attempts=10)


def test_search_validation():
    with pytest.raises(ValueError):
        search_rmds(0, 2, 1, 3, 1, seed=0, max_attempts=10)
    with pytest.raises(ValueError):
        search_rmds(4, 2, 1, 3, 1, seed=0, max_attempts=0)


@pytest.mark.parametrize("weight", [-1, -2, -100000])
def test_search_refuses_negative_weight_before_the_rate_cap(monkeypatch, weight):
    def refuse(*args):
        raise AssertionError("the rate cap was consulted")

    monkeypatch.setattr(search, "_exceeds_rate_cap", refuse)
    with pytest.raises(ValueError, match="^weight bound must be >= 0$"):
        search_rmds(4, 2, 2, 3, weight, seed=0, max_attempts=5)


def _refuse_entry_value(*args):
    raise AssertionError("the sampler ran past the weight guard")


@pytest.mark.parametrize("weight", [2**63, 2**64, 10**30])
def test_weight_past_one_word_is_refused(monkeypatch, weight):
    # The span 2W+1 passes 2^64, so the stream would reject every word.  The
    # search refuses it before the cap is charged.  A lost guard would send
    # every word back to _entry_value and loop forever, so that fails at once.
    monkeypatch.setattr(search, "_entry_value", _refuse_entry_value)
    with pytest.raises(ValueError, match=r"^weight bound must be below 2\^63$"):
        sample_matrix(1, 1, weight, seed=0, attempt=0)
    with pytest.raises(ValueError, match=r"^weight bound must be below 2\^63$"):
        search_rmds(4, 2, 2, 3, weight, seed=0, max_attempts=5, cap=1)


def test_suggest_params_examples():
    assert suggest_params(8, 8, 3) == (3, 32)
    assert suggest_params(2, 1, 3)[0] == 2
    assert suggest_params(16, 1, 3) == (4, 4)
    with pytest.raises(ValueError):
        suggest_params(1, 1, 3)


def _documented_entry(seed, attempt, row, col, span):
    """The sampler stream as documented: SHA-256 words, first in-range one wins."""
    bound = 2**64 - 2**64 % span
    ctr = 0
    while True:
        digest = hashlib.sha256(f"{seed}/{attempt}/{row}/{col}/{ctr}".encode()).digest()
        for off in (0, 8, 16, 24):
            word = int.from_bytes(digest[off : off + 8], "big")
            if word < bound:
                return word % span, ctr
        ctr += 1


@pytest.mark.parametrize("weight", [0, 1, 8, 2**62, 2**63 - 1])
def test_sampler_matches_documented_stream(weight):
    # At 2^62 the span is 2^63 + 1, so about half of all words are rejected
    # and some entries need a second digest (ctr > 0).
    span = 2 * weight + 1
    counters = []
    for attempt in range(3):
        a = sample_matrix(6, 5, weight, seed=9, attempt=attempt)
        for i, row in enumerate(a.entries):
            for j, value in enumerate(row):
                want, ctr = _documented_entry(9, attempt, i, j, span)
                assert value == want - weight
                assert type(value) is int
                counters.append(ctr)
    if weight == 2**62:
        assert max(counters) > 0


def test_rate_cap_is_compared_by_bit_length(monkeypatch):
    # (2w+1)^(2w+2) has millions of digits at w = 4*10^5: it must not be built.
    def refuse(weight):
        raise AssertionError("the exact rate cap was built")

    monkeypatch.setattr(search, "theorem3_rate_cap", refuse)
    tracemalloc.start()
    try:
        found, attempts = search_rmds(4, 2, 4, 3, 4 * 10**5, seed=0, max_attempts=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert attempts == 1
    assert peak < 1 << 20  # the cap alone takes 2 MB


def test_rate_cap_comparison_is_exact_at_the_edge():
    for weight in range(6):
        cap = theorem3_rate_cap(weight)
        for r in {1, cap - 1, cap, cap + 1, 2 ** (cap.bit_length() - 1), 2 ** cap.bit_length()}:
            if r >= 1:
                assert search._exceeds_rate_cap(r, weight) == (r > cap), (weight, r)
    with pytest.raises(ValueError) as info:
        search_rmds(4, 2, 82, 3, 1, seed=0, max_attempts=10)
    assert str(info.value) == (
        "MDS rate 82 exceeds the alphabet-size bound 81 for weight 1; no such matrix exists"
    )


def _one_at_a_time(n, m, r, q, weight, seed, max_attempts, passes=None):
    """The search's definition: sample attempt 0, 1, ... and return the first that passes."""
    for attempt in range(max_attempts):
        a = sample_matrix(r * m, n, weight, seed, attempt)
        if (passes(a) if passes else is_rmds(a, m, q) is None):
            return a, attempt + 1
    return None, max_attempts


def _search_results(n, m, r, q, weight, seeds, max_attempts):
    return [search_rmds(n, m, r, q, weight, s, max_attempts) for s in seeds]


def test_stacked_search_matches_one_at_a_time():
    # The workload shape: n=4, m=2, r=4, q=3, W=8.
    seeds = range(16)
    want = [_one_at_a_time(4, 2, 4, 3, 8, s, 40) for s in seeds]
    assert _search_results(4, 2, 4, 3, 8, seeds, 40) == want


def test_stacked_search_matches_brute_force_blocks():
    # Each candidate's m-row blocks decided by the pure-Python kernel oracle,
    # independent of the zero-pattern product both search routes share.
    def passes(a):
        blocks = itertools.combinations(a.entries, 2)
        return all(brute_kernel(block, 3) is None for block in blocks)

    seeds = range(16)
    want = [_one_at_a_time(3, 2, 3, 3, 8, s, 12, passes) for s in seeds]
    assert _search_results(3, 2, 3, 3, 8, seeds, 12) == want
    assert len({attempts for found, attempts in want if found is not None}) > 1


# W=8 seeds of the workload shape whose first hit is at the given attempt.
# Stacks cover attempts 1, 2-3, 4-7, ..., 32-63, 64-127.
FIRST_HIT = {1: 871, 2: 1669, 3: 945, 4: 1285, 63: 1049, 64: 106, 65: 810, 66: 674}


@pytest.mark.parametrize("max_attempts", [1, 2, 3, 63, 64, 65])
def test_attempt_budget_crosses_stack_boundaries(max_attempts):
    seeds = [*FIRST_HIT.values(), 0]
    want = [_one_at_a_time(4, 2, 4, 3, 8, s, max_attempts) for s in seeds]
    assert _search_results(4, 2, 4, 3, 8, seeds, max_attempts) == want
    for (hit, seed), (found, attempts) in zip(FIRST_HIT.items(), want):
        assert (found is not None, attempts) == (
            (True, hit) if hit <= max_attempts else (False, max_attempts)
        ), seed


@pytest.mark.parametrize("weight", [2**62, 2**61])
def test_stacked_search_past_the_int64_product_bound(weight):
    # W (q-1) n passes 2^62, so the product runs on exact objects.  At 2^62
    # the span is 2^63 + 1 and about half of all words are rejected; at 2^61
    # every entry still fits int64 storage.
    assert weight * 2 * 4 >= verify._INT64_SAFE
    seeds = range(4)
    want = [_one_at_a_time(4, 2, 4, 3, weight, s, 5) for s in seeds]
    assert _search_results(4, 2, 4, 3, weight, seeds, 5) == want
    assert all(found is not None for found, _ in want)


def test_stacked_search_on_the_block_loop_route():
    # rows=6, m=2, q=2, n=13: the block loop costs fewer element operations.
    assert not verify._zero_pattern_pays(6, 2, 13, 2)
    seeds = range(8)
    want = [_one_at_a_time(13, 2, 3, 2, 500, s, 12) for s in seeds]
    assert _search_results(13, 2, 3, 2, 500, seeds, 12) == want
    assert len({attempts for found, attempts in want if found is not None}) > 1
    assert any(found is None for found, _ in want)


@pytest.mark.parametrize("chunk_bytes, grid_rows", [(1, 1), (5000, 3), (1 << 20, 30)])
def test_stack_verdicts_in_small_chunks(monkeypatch, chunk_bytes, grid_rows):
    # One verdict per matrix, as is_rmds gives it, however the chunks fall.
    monkeypatch.setattr(verify, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(verify, "_GRID_ROWS", grid_rows)
    for weight in (3, 16, 2**60):
        stack = search._sample_stack(6, 4, weight, 5, 0, 12)
        want = [is_rmds(IntMatrix(a), 2, 3) is None for a in stack]
        assert verify._rmds_passes(stack, weight, 2, 3).tolist() == want


def test_stack_size_stops_doubling_at_the_chunk_ceiling(monkeypatch):
    # One n=8 candidate's product over 195,312 half-box vectors and 8 rows is
    # counted at 22 MB, so a stack of two would pass _CHUNK_BYTES (32 MiB):
    # every stack holds one candidate, and the search stays under the ceiling.
    sizes = []
    sample_stack = search._sample_stack

    def recorded(rows, n, weight, seed, first, stop):
        sizes.append(stop - first)
        return sample_stack(rows, n, weight, seed, first, stop)

    monkeypatch.setattr(search, "_sample_stack", recorded)
    assert verify._stack_limit(8, 8, 3, 1) == 1
    verify._digit_grid.cache_clear()
    tracemalloc.start()
    try:
        found, attempts = search_rmds(8, 2, 4, 3, 1, seed=0, max_attempts=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (found, attempts, sizes) == (None, 3, [1, 1, 1])
    assert peak < verify._CHUNK_BYTES
    sizes.clear()
    assert verify._stack_limit(8, 4, 3, 8) >= 32
    search_rmds(4, 2, 4, 3, 8, seed=0, max_attempts=100)
    assert sizes == [1, 2, 4, 8, 16, 32, 37]


# Passing candidates among attempts 0..399 of the committed n=4 seed, by W.
EXISTENCE_CURVE = {8: 0, 16: 63, 32: 246, 64: 346}


def test_existence_curve_of_random_linear_weights():
    # Random matrices with entries in [-W, W] are RMDS once W is large
    # enough: the pass rate crosses 1/2 between W=16 and W=32.
    seed = COMP_SEARCH[4]["seed"]
    counts = {}
    for weight in EXISTENCE_CURVE:
        stack = search._sample_stack(8, 4, weight, seed, 0, 400)
        counts[weight] = int(verify._rmds_passes(stack, weight, 2, 3).sum())
        looped = sum(is_rmds(sample_matrix(8, 4, weight, seed, k), 2, 3) is None for k in range(400))
        assert counts[weight] == looped, weight
    assert counts == EXISTENCE_CURVE
    assert counts[16] < 200 < counts[32]
