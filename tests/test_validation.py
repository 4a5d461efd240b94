"""Argument checks that no other test reaches, each pinned to its type and text."""

import pytest

from conftest import FIXTURES
from eqkit import (
    MatrixFormatError,
    build_crt,
    choose_primes,
    cli,
    compile_value_set,
    crt_residue_check,
    det_bareiss,
    read_matrix,
    sample_matrix,
    suggest_params,
)
from eqkit.circuit import _reference_form


def _encode(x):
    # The encode handler without main's catch, so the error propagates.
    matrix = str(FIXTURES / "eq_k2.txt")
    return cli._run_encode(cli.build_parser().parse_args(["encode", matrix, "--x", x]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: _reference_form("parity", 3, 2, None, None),
            ValueError,
            "parity reference needs n inputs",
        ),
        (
            lambda: _reference_form("valueset", 2, None, None, [1]),
            ValueError,
            "valueset reference needs weights and values",
        ),
        (
            lambda: _reference_form("valueset", 2, None, [1, 2], None),
            ValueError,
            "valueset reference needs weights and values",
        ),
        (
            lambda: _reference_form("valueset", 2, None, [1], [1]),
            ValueError,
            "valueset weights must match the input count",
        ),
        (
            lambda: compile_value_set((), (1,)),
            ValueError,
            "at least one weight is required",
        ),
        (
            lambda: _encode("1 a"),
            ValueError,
            "expected space-separated integers, got '1 a'",
        ),
        (
            lambda: det_bareiss([[1, 2]]),
            ValueError,
            "determinant needs a square matrix",
        ),
        (
            lambda: crt_residue_check((3, 5, 7, 11), build_crt(8, (3, 5, 7, 11)), (1,)),
            ValueError,
            "vector length does not match the matrix",
        ),
        (
            lambda: sample_matrix(0, 3, 1, 0, 0),
            ValueError,
            "matrix dimensions must be positive",
        ),
        (
            lambda: sample_matrix(2, 3, -1, 0, 0),
            ValueError,
            "weight bound must be >= 0",
        ),
        (
            lambda: suggest_params(4, 0, 3),
            ValueError,
            "r must be >= 1",
        ),
        (
            lambda: suggest_params(4, 1, 1),
            ValueError,
            "arity q must be at least 2",
        ),
        (
            lambda: choose_primes(0),
            ValueError,
            "bit width n must be >= 1",
        ),
        (
            lambda: choose_primes(8, count=0),
            ValueError,
            "count must be >= 1",
        ),
        (
            lambda: build_crt(8, ()),
            ValueError,
            "at least one prime is required",
        ),
        (
            lambda: build_crt(8, (1, 3)),
            ValueError,
            "primes must be >= 2",
        ),
        (
            lambda: read_matrix("0 3\n"),
            MatrixFormatError,
            "malformed header '0 3'",
        ),
    ],
)
def test_argument_checks_raise_their_own_text(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
