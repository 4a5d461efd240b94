import hashlib
import math
import tracemalloc

import pytest

from conftest import COMP_SEARCH, RMDS_SEARCH_ATTEMPTS
from eqkit import (
    is_eq_q,
    is_rmds,
    sample_matrix,
    search_rmds,
    suggest_params,
    theorem3_rate_cap,
)
from eqkit import search


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


def test_search_is_reproducible():
    params = COMP_SEARCH[3]
    first = search_rmds(3, 2, 3, 3, 8, params["seed"], max_attempts=100)
    second = search_rmds(3, 2, 3, 3, 8, params["seed"], max_attempts=100)
    assert first == second
    assert first[1] == RMDS_SEARCH_ATTEMPTS[3]


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


@pytest.mark.parametrize("weight", [2**63, 2**64, 10**30])
def test_weight_past_one_word_is_refused(weight):
    # The span 2W+1 passes 2^64, so the stream would reject every word.  The
    # search refuses it before the cap is charged.
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
