import random
import sys

import pytest

from conftest import FIXTURES
from eqkit import (
    IntMatrix,
    cli,
    construct_eq,
    matvec,
    read_circuit,
    read_matrix,
    write_matrix,
)
from eqkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_eq_matches_fixture(capsys):
    code, out, _ = run(capsys, "construct", "eq", "--k", "2")
    assert code == 0
    assert out == (FIXTURES / "eq_k2.txt").read_text()


def test_construct_crt_matches_fixture_bytes(capsys):
    code, out, _ = run(
        capsys, "construct", "crt", "--n", "8", "--primes", "3", "5", "7", "11"
    )
    assert code == 0
    assert out == (FIXTURES / "crt_4x8.txt").read_text()


def test_construct_crt_default_primes(capsys):
    code, out, _ = run(capsys, "construct", "crt", "--n", "8")
    assert code == 0
    assert out == (FIXTURES / "crt_4x8.txt").read_text()


def test_construct_eqq(capsys):
    code, out, _ = run(capsys, "construct", "eqq", "--q", "3", "--k", "1")
    assert code == 0
    assert "# trace m0=1 n0=1 k=1 q=3" in out
    assert "1 1 1 1" in out


def test_construct_out_file(capsys, tmp_path):
    target = tmp_path / "m.txt"
    code, out, _ = run(capsys, "construct", "eq", "--k", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == (FIXTURES / "eq_k2.txt").read_text()


def test_construct_crt_refusal_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "crt", "--n", "4", "--primes", "3", "5")
    assert code == 2
    assert "error:" in err


def test_verify_eq_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "eq", "--q", "2", str(FIXTURES / "eq_k2.txt")
    )
    assert code == 0
    assert out == "PASS\n"


def test_verify_eq_witness(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 1\n")
    code, out, _ = run(capsys, "verify", "eq", "--q", "2", str(bad))
    assert code == 1
    assert out == "FAIL kernel x=1 -1\n"


def test_verify_eq_injectivity_mode(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "eq",
        "--q",
        "2",
        "--mode",
        "injectivity",
        str(FIXTURES / "crt_4x8.txt"),
    )
    assert code == 0
    assert out == "PASS\n"


def test_verify_mds_witness(capsys):
    code, out, _ = run(capsys, "verify", "mds", str(FIXTURES / "crt_5x8.txt"))
    assert code == 1
    assert out == "FAIL minor cols=1 2 3 4 5\n"


def test_verify_rmds_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "rmds", "--m", "4", "--q", "2", str(FIXTURES / "crt_5x8.txt")
    )
    assert code == 0
    assert out == "PASS\n"


def test_verify_eq_threaded(capsys):
    code, out, _ = run(
        capsys,
        "--threads",
        "4",
        "verify",
        "eq",
        "--q",
        "2",
        str(FIXTURES / "eq_k2.txt"),
    )
    assert code == 0
    assert out == "PASS\n"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(capsys, threads):
    matrix = str(FIXTURES / "eq_k2.txt")
    code, out, err = run(capsys, "--threads", threads, "verify", "eq", "--q", "2", matrix)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_decode_rejects_mismatched_trace(capsys, tmp_path):
    lying = tmp_path / "lying.txt"
    lying.write_text("# trace m0=1 n0=1 k=1 q=2\n2 3\n1 1 1\n1 1 0\n")
    code, _, err = run(capsys, "decode", str(lying), "--z", "0 0")
    assert code == 2
    assert "does not match" in err


def test_decode_checks_trace_shape_before_rebuilding(capsys, tmp_path, monkeypatch):
    # A k=11 trace on a 1x1 matrix must be refused without building the
    # 2048x11264 matrix the trace names.
    def refuse(*args):
        raise AssertionError("construct_eq should not run")

    monkeypatch.setattr(cli, "construct_eq", refuse)
    lying = tmp_path / "lying.txt"
    lying.write_text("# trace m0=1 n0=1 k=11 q=2\n1 1\n1\n")
    code, _, err = run(capsys, "decode", str(lying), "--z", "1")
    assert code == 2
    assert "does not match" in err


def _k7_file(tmp_path, edit=None):
    a, trace = construct_eq(7)
    rows = [list(row) for row in a.entries]
    if edit:
        edit(rows)
    path = tmp_path / "eq7.txt"
    path.write_text(write_matrix(IntMatrix.from_rows(rows), trace))
    return path, a


def test_decode_rejects_one_flipped_entry(capsys, tmp_path):
    def flip(rows):
        j = next(j for j, v in enumerate(rows[-1]) if v)
        rows[-1][j] = -rows[-1][j]

    path, _ = _k7_file(tmp_path, flip)
    code, out, err = run(capsys, "decode", str(path), "--z", " ".join(["0"] * 128))
    assert (code, out) == (2, "")
    assert err == "error: matrix file does not match its trace\n"


def test_decode_accepts_non_canonical_text(capsys, tmp_path):
    path, a = _k7_file(tmp_path)
    rng = random.Random(3)
    x = [rng.randrange(2) for _ in range(a.n)]
    z = " ".join(str(v) for v in matvec(a, x))
    lines = path.read_text().splitlines()
    messy = ["# written by hand", lines[0], "#", "  128   576 "]
    for line in lines[2:]:
        messy.append("  ".join("+1" if v == "1" else v for v in line.split()) + " ")
    odd = tmp_path / "messy.txt"
    odd.write_text("\n".join(messy) + "\n")
    want = run(capsys, "decode", str(path), "--z", z)
    assert want == (0, " ".join(map(str, x)) + "\n", "")
    assert run(capsys, "decode", str(odd), "--z", z) == want


def test_verify_cap_exceeded(capsys):
    code, _, err = run(
        capsys, "--cap", "10", "verify", "eq", "--q", "2", str(FIXTURES / "eq_k2.txt")
    )
    assert code == 2
    assert "cap" in err


def test_verify_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3\n1 2 3\n4 5\n")
    code, _, err = run(capsys, "verify", "eq", "--q", "2", str(bad))
    assert code == 2
    assert "error:" in err


def test_bounds_output(capsys):
    code, out, _ = run(
        capsys,
        "bounds",
        "--n",
        "8",
        "--m",
        "4",
        "--w",
        "1",
        "--alphabet-size",
        "3",
        "--k-iter",
        "2",
    )
    assert code == 0
    lines = dict(line.split("=") for line in out.strip().splitlines())
    assert lines["lemma2_rate_bound"] == "2.5"
    assert lines["theorem3_mds_bound"] == "81"
    assert lines["r_constr"] == "2"
    assert lines["r_upper"] == "2.5"
    assert lines["ratio"] == "1.25"


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 6606,
    reason="2000^2001 is within this Python's int-to-str digit limit",
)
def test_bounds_unprintable_value_prints_nothing(capsys):
    # 2000^2001 has 6,606 digits, past the int-to-str limit: every value is
    # formatted before any is printed, so stdout stays empty.
    code, out, err = run(capsys, "bounds", "--n", "8", "--alphabet-size", "2000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_decode_worked_example(capsys):
    code, out, _ = run(
        capsys, "decode", str(FIXTURES / "eq_k2.txt"), "--z", "4 -2 -1 0"
    )
    assert code == 0
    assert out == "0 1 0 0 1 1 1 0\n"


def test_decode_out_of_image(capsys):
    code, out, _ = run(capsys, "decode", str(FIXTURES / "eq_k2.txt"), "--z", "9 0 0 0")
    assert code == 1
    assert "not in image" in out


def test_decode_requires_trace(capsys):
    code, _, err = run(
        capsys, "decode", str(FIXTURES / "crt_4x8.txt"), "--z", "0 0 0 0"
    )
    assert code == 2
    assert "trace" in err


def test_encode(capsys):
    code, out, _ = run(
        capsys, "encode", str(FIXTURES / "eq_k2.txt"), "--x", "0 1 0 0 1 1 1 0"
    )
    assert code == 0
    assert out == "4 -2 -1 0\n"


def test_search_cli_success(capsys, tmp_path):
    out_file = tmp_path / "found.txt"
    code, _, _ = run(
        capsys,
        "search",
        "rmds",
        "--n",
        "4",
        "--m",
        "2",
        "--r",
        "4",
        "--q",
        "3",
        "--w",
        "8",
        "--seed",
        "0",
        "--max-attempts",
        "100000",
        "--out",
        str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    first = text.splitlines()[0]
    assert first.startswith("# search n=4 m=2 r=4 q=3 w=8 seed=0")
    assert "attempts=863" in first
    found, trace = read_matrix(text)
    assert (found.m, found.n) == (8, 4)
    assert trace is None


def test_search_cli_exhausted(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "rmds",
        "--n",
        "4",
        "--m",
        "2",
        "--r",
        "1",
        "--q",
        "3",
        "--w",
        "0",
        "--seed",
        "0",
        "--max-attempts",
        "5",
    )
    assert code == 1
    assert out == "EXHAUSTED after 5 attempts\n"


def test_search_cli_refuses_impossible_rate(capsys):
    code, _, err = run(
        capsys,
        "search",
        "rmds",
        "--n",
        "4",
        "--m",
        "2",
        "--r",
        "4",
        "--q",
        "3",
        "--w",
        "0",
        "--seed",
        "0",
        "--max-attempts",
        "5",
    )
    assert code == 2
    assert "bound" in err


def test_residue_check_cli(capsys):
    code, out, _ = run(
        capsys,
        "residue-check",
        str(FIXTURES / "crt_4x8.txt"),
        "--primes",
        "3",
        "5",
        "7",
        "11",
        "--x",
        "2 1 1 3 0 1 -1 0",
    )
    assert code == 0
    assert out == "PASS\n"


def test_circuit_compile_eq_and_check(capsys, tmp_path):
    circuit_file = tmp_path / "eq.circ"
    code, _, _ = run(
        capsys,
        "circuit",
        "compile-eq",
        str(FIXTURES / "eq_k2.txt"),
        "--out",
        str(circuit_file),
    )
    assert code == 0
    c = read_circuit(circuit_file.read_text())
    assert c.gate_count == 5
    code, out, _ = run(
        capsys, "circuit", "check", str(circuit_file), "--ref", "eq", "--n", "8"
    )
    assert code == 0
    assert out == "PASS\n"


def test_circuit_compile_eq_refuses_bad_matrix(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 1\n")
    code, _, err = run(capsys, "circuit", "compile-eq", str(bad))
    assert code == 2
    assert "EQ check" in err
    code, _, _ = run(capsys, "circuit", "compile-eq", str(bad), "--unchecked")
    assert code == 0


def test_circuit_exactify_preserves_check(capsys, tmp_path):
    circuit_file = tmp_path / "eq.circ"
    run(capsys, "circuit", "compile-eq", str(FIXTURES / "eq_k2.txt"), "--out", str(circuit_file))
    lt_file = tmp_path / "eq_lt.circ"
    code, _, _ = run(
        capsys, "circuit", "exactify", str(circuit_file), "--out", str(lt_file)
    )
    assert code == 0
    assert "EXACT" not in lt_file.read_text()
    code, out, _ = run(
        capsys, "circuit", "check", str(lt_file), "--ref", "eq", "--n", "8"
    )
    assert code == 0
    assert out == "PASS\n"


def test_circuit_valueset_and_parity_check(capsys, tmp_path):
    circuit_file = tmp_path / "parity.circ"
    code, _, _ = run(
        capsys,
        "circuit",
        "compile-valueset",
        "--w",
        "1 2 4",
        "--s",
        "1 2 4 7",
        "--out",
        str(circuit_file),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "circuit", "check", str(circuit_file), "--ref", "parity", "--n", "3"
    )
    assert code == 0
    assert out == "PASS\n"


def test_circuit_eval_with_trace(capsys, tmp_path):
    circuit_file = tmp_path / "eq.circ"
    run(capsys, "circuit", "compile-eq", str(FIXTURES / "eq_k2.txt"), "--out", str(circuit_file))
    code, out, _ = run(
        capsys,
        "circuit",
        "eval",
        str(circuit_file),
        "--input",
        "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
        "--trace",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "1"
    assert lines[0].startswith("gate 1 = ")


def test_circuit_compile_comp_cli(capsys, tmp_path):
    matrix_file = tmp_path / "rmds.txt"
    run(
        capsys,
        "search",
        "rmds",
        "--n",
        "3",
        "--m",
        "2",
        "--r",
        "3",
        "--q",
        "3",
        "--w",
        "8",
        "--seed",
        "0",
        "--max-attempts",
        "1000",
        "--out",
        str(matrix_file),
    )
    circuit_file = tmp_path / "comp.circ"
    code, _, _ = run(
        capsys,
        "circuit",
        "compile-comp",
        str(matrix_file),
        "--n",
        "3",
        "--m",
        "2",
        "--r",
        "3",
        "--out",
        str(circuit_file),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "circuit", "check", str(circuit_file), "--ref", "comp", "--n", "3"
    )
    assert code == 0
    assert out == "PASS\n"


def test_circuit_check_reports_mismatch(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 1\n")
    circuit_file = tmp_path / "bad.circ"
    run(capsys, "circuit", "compile-eq", str(bad), "--unchecked", "--out", str(circuit_file))
    code, out, _ = run(
        capsys, "circuit", "check", str(circuit_file), "--ref", "eq", "--n", "2"
    )
    assert code == 1
    assert out.startswith("FAIL assignment=")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["compile-eq", str(FIXTURES / "eq_k2.txt")], "eq_k2.circ"),
        (
            ["compile-comp", str(FIXTURES / "rmds_n3.txt"), "--n", "3", "--m", "2", "--r", "3"],
            "comp_n3.circ",
        ),
        (["compile-valueset", "--w", "3 -1 2 0", "--s", "0 2"], "valueset.circ"),
        (["exactify", str(FIXTURES / "eq_k2.circ")], "eq_k2_lt.circ"),
        (["exactify", str(FIXTURES / "comp_n3.circ")], "comp_n3_lt.circ"),
        (["exactify", str(FIXTURES / "valueset.circ")], "valueset_lt.circ"),
    ],
)
def test_compiled_circuit_bytes(capsys, argv, golden):
    # rmds_n3.txt is the hit of `search rmds --n 3 --m 2 --r 3 --q 3 --w 8
    # --seed 0` (4 attempts).
    code, out, _ = run(capsys, "circuit", *argv)
    assert code == 0
    assert out == (FIXTURES / golden).read_text()


@pytest.mark.parametrize("inputs", ["1", "1 1", "1 2 2"])
def test_circuit_rejects_malformed_input_list(capsys, tmp_path, inputs):
    # An INPUT gate left out of the list, or an input id listed twice.
    circuit_file = tmp_path / "bad.circ"
    circuit_file.write_text(
        f"inputs {inputs}\noutput 3\n1 INPUT 0\n2 INPUT 0\n3 LT 1 1:1 2:1\n"
    )
    k = len(inputs.split())
    for argv in (
        ("circuit", "eval", str(circuit_file), "--input", " ".join("1" * k)),
        ("circuit", "check", str(circuit_file), "--ref", "parity", "--n", str(k)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["construct", "eq"])  # missing --k
    assert info.value.code == 2
