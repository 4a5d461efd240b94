from __future__ import annotations

from pathlib import Path

import pytest

from eqkit import (
    IntMatrix,
    build_crt,
    choose_primes,
    compile_eq_circuit,
    construct_eq,
    exactify_to_lt,
    write_circuit,
    write_matrix,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Committed search seeds: the first matrix found from these seeds passes the
# full comparison-circuit pipeline (verification, count separation, and
# exhaustive equivalence), not just the RMDS check.
COMP_SEARCH = {
    3: dict(n=3, m=2, r=3, q=3, weight=8, seed=0),
    4: dict(n=4, m=2, r=4, q=3, weight=8, seed=0),
}
RMDS_SEARCH_ATTEMPTS = {3: 4, 4: 863}


@pytest.fixture(scope="session")
def eq_4x8() -> IntMatrix:
    return construct_eq(2)[0]


@pytest.fixture(scope="session")
def crt_4x8() -> IntMatrix:
    return build_crt(8, (3, 5, 7, 11))


@pytest.fixture(scope="session")
def crt_5x8() -> IntMatrix:
    return build_crt(8, (3, 5, 7, 11, 13))


@pytest.fixture(scope="session")
def crt_7x20_repeated() -> IntMatrix:
    """The 7x20 residue matrix with column 18 replaced by column 2."""
    rows = [list(r) for r in build_crt(20, choose_primes(20)).entries]
    for r in rows:
        r[18] = r[2]
    return IntMatrix.from_rows(rows)


@pytest.fixture(scope="session")
def eq7_texts() -> tuple[str, str, str]:
    """Canonical texts of the k=7 EQ matrix (128x576), its equality circuit and the LT rewrite."""
    a, trace = construct_eq(7)
    c = compile_eq_circuit(a, verify=False)
    return write_matrix(a, trace), write_circuit(c), write_circuit(exactify_to_lt(c))
