import hashlib
import random
import sys

import pytest

from conftest import FIXTURES
from eqkit import (
    ConstructionTrace,
    Gate,
    IntMatrix,
    MagnitudeError,
    ThresholdCircuit,
    cli,
    construct,
    construct_eq,
    exactify_to_lt,
    matvec,
    read_circuit,
    read_matrix,
    search,
    write_circuit,
    write_matrix,
)
from eqkit import search
from eqkit.cli import main
from oracles import (
    BudgetError,
    CircuitTextError,
    MatrixTextError,
    eval_gates,
    gates_text,
    matrix_text,
    read_gates,
    read_matrix_rows,
)


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


def _refuse_to_build(*args):
    raise AssertionError("the matrix was built")


def test_construct_charges_its_size_against_the_cap(capsys, monkeypatch):
    # k=12 has 4096 x 28672 = 117,440,512 entries, past the default cap of
    # 10**8; it is refused before any recursion step runs.
    monkeypatch.setattr(construct, "_expand", _refuse_to_build)
    code, out, err = run(capsys, "construct", "eq", "--k", "12")
    assert (code, out) == (2, "")
    assert err == (
        "error: enumeration needs 117440512 elementary steps, cap allows 100000000\n"
    )
    # q=3, k=4: 81 x 189 entries.
    code, _, err = run(capsys, "--cap", "15308", "construct", "eqq", "--q", "3", "--k", "4")
    assert code == 2
    assert err == "error: enumeration needs 15309 elementary steps, cap allows 15308\n"
    # k=11 (2048 x 13312 entries) and k=12 under a raised cap pass the check
    # and go on to build.
    for cap in ([], ["--cap", "117440512"]):
        k = "12" if cap else "11"
        with pytest.raises(AssertionError, match="was built"):
            main(cap + ["construct", "eq", "--k", k])


def test_construct_k7_bytes_are_unchanged(capsys):
    code, out, _ = run(capsys, "construct", "eq", "--k", "7")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "8ad4156ff8d43a27708a230fd0f633e73d70feaf321d90451ab186413aa0ee5f"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("eq", "--k", "-1"), "iteration count k must be >= 0"),
        (("eqq", "--q", "1", "--k", "2"), "arity q must be at least 2"),
    ],
)
def test_construct_argument_errors_come_before_the_cap(capsys, argv, message):
    code, out, err = run(capsys, "--cap", "0", "construct", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_construct_crt_refusal_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "crt", "--n", "4", "--primes", "3", "5")
    assert code == 2
    assert "error:" in err


def test_construct_crt_charges_its_size_against_the_cap(capsys, monkeypatch):
    # n=40 takes the 11 primes 3..37: 11 x 40 = 440 entries.
    code, out, err = run(capsys, "--cap", "439", "construct", "crt", "--n", "40")
    assert (code, out) == (2, "")
    assert err == "error: enumeration needs 440 elementary steps, cap allows 439\n"
    code, out, _ = run(capsys, "--cap", "440", "construct", "crt", "--n", "40")
    assert code == 0 and out.startswith("11 40\n")
    # Given primes are charged too, before the matrix is built.
    monkeypatch.setattr(cli, "build_crt", _refuse_to_build)
    argv = ("--cap", "31", "construct", "crt", "--n", "8", "--primes", "3", "5", "7", "11")
    assert run(capsys, *argv) == (
        2,
        "",
        "error: enumeration needs 32 elementary steps, cap allows 31\n",
    )


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4342,
    reason="3^9100 is within this Python's int-to-str digit limit",
)
@pytest.mark.parametrize(
    "argv, bits",
    [
        # 2^20000 x (2^19999 * 20002) entries: 12,046 digits.
        (("construct", "eq", "--k", "20000"), 40013),
        # (2q-1)^n = 3^9100 kernel vectors: 4,342 digits.
        (("verify", "eq", "--q", "2", "ONES"), 14423),
    ],
)
def test_cap_refusal_names_an_unprintable_count_by_bits(capsys, tmp_path, argv, bits):
    ones = tmp_path / "ones.txt"
    ones.write_text("1 9100\n" + " ".join(["1"] * 9100) + "\n")
    argv = [str(ones) if a == "ONES" else a for a in argv]
    assert run(capsys, *argv) == (
        2,
        "",
        f"error: enumeration needs at least 2^{bits} elementary steps, "
        "cap allows 100000000\n",
    )


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


def test_decode_checks_k_before_the_trace_shape(capsys, tmp_path, monkeypatch):
    # rows = 2^k for this base, so the 1x1 file's k is refused from m alone,
    # before 2^k (here with 3*10^8 bits) is computed.
    def refuse(self):
        raise AssertionError("the trace shape should not be computed")

    monkeypatch.setattr(ConstructionTrace, "rows", property(refuse))
    monkeypatch.setattr(ConstructionTrace, "cols", property(refuse))
    lying = tmp_path / "lying.txt"
    lying.write_text("# trace m0=1 n0=1 k=300000000 q=2\n1 1\n1\n")
    assert run(capsys, "decode", str(lying), "--z", "1") == (
        2,
        "",
        "error: matrix file does not match its trace\n",
    )


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


@pytest.mark.parametrize("weight", ["-1", "-2", "-100000"])
def test_search_cli_refuses_negative_weight(capsys, weight):
    # The weight is checked before the rate cap, whose bound is a fraction
    # for a negative weight.
    code, out, err = run(
        capsys,
        "search", "rmds", "--n", "4", "--m", "2", "--r", "2", "--q", "3",
        "--w", weight, "--seed", "0", "--max-attempts", "5",
    )
    assert (code, out) == (2, "")
    assert err == "error: weight bound must be >= 0\n"


def test_search_cli_weight_must_fit_one_word(capsys, monkeypatch):
    # A span 2W+1 past 2^64 would reject every 64-bit word of the stream, so
    # 2^63 is refused before the cap is charged; 2^63 - 1 samples as before.
    # Without the guard every word would go back to _entry_value, which
    # would loop forever: here it fails at once (at 2^63 - 1 only the word
    # 2^64 - 1 is rejected, and none of these draws is).
    def refuse(*args):
        raise AssertionError("the sampler ran past the weight guard")

    monkeypatch.setattr(search, "_entry_value", refuse)
    argv = ("search", "rmds", "--n", "2", "--m", "1", "--r", "2", "--q", "2",
            "--seed", "3", "--max-attempts", "5", "--w")
    refused = run(capsys, "--cap", "1", *argv, str(2**63))
    assert refused == (2, "", "error: weight bound must be below 2^63\n")
    assert run(capsys, *argv, str(2**63 - 1)) == (
        0,
        "# search n=2 m=1 r=2 q=2 w=9223372036854775807 seed=3 max-attempts=5 attempts=1\n"
        "2 2\n"
        "3545121604559389322 3579615541172186327\n"
        "4742679270023721693 7084267390086323652\n",
        "",
    )

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


def test_circuit_compile_eq_names_the_first_collision(capsys, tmp_path, crt_7x20_repeated):
    bad = tmp_path / "crt20.txt"
    bad.write_text(write_matrix(crt_7x20_repeated))
    kernel = ", ".join(["0", "0", "1"] + ["0"] * 15 + ["-1", "0"])
    assert run(capsys, "circuit", "compile-eq", str(bad)) == (
        2,
        "",
        f"error: matrix failed the EQ check (kernel vector ({kernel})); "
        "pass verify=False (--unchecked) to compile anyway\n",
    )


def test_circuit_compile_comp_refusal_names_unchecked(capsys):
    argv = ("circuit", "compile-comp", str(FIXTURES / "crt_4x8.txt"), "--n", "8", "--m", "1")
    code, out, err = run(capsys, *argv, "--r", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: matrix failed the RMDS_3 check (rows ")
    assert err.endswith("; pass verify=False (--unchecked) to compile anyway\n")


@pytest.mark.parametrize("m, r", [("-1", "-4"), ("-2", "-2"), ("-4", "-1")])
def test_circuit_compile_comp_refuses_nonpositive_m_or_r(capsys, tmp_path, m, r):
    # r*m matches the 4 rows and the separation test passes, so before the
    # sign check these wrote a 33-gate circuit.
    out = tmp_path / "comp.circ"
    argv = ("circuit", "compile-comp", str(FIXTURES / "crt_4x8.txt"), "--n", "8",
            "--m", m, "--r", r, "--unchecked", "--out", str(out))
    assert run(capsys, *argv) == (2, "", "error: n, m and r must be positive\n")
    assert not out.exists()


def test_circuit_check_validates_the_reference_before_the_cap(capsys, tmp_path):
    # 1,152 inputs would need 2^1152 steps, far past the default cap, but
    # --n 3 names 6 inputs: the reference is refused first.
    k = 1152
    ids = " ".join(str(i) for i in range(1, k + 1))
    gates = "".join(f"{i} INPUT 0\n" for i in range(1, k + 1))
    circuit_file = tmp_path / "wide.circ"
    circuit_file.write_text(f"inputs {ids}\noutput {k + 1}\n{gates}{k + 1} LT 0 1:1\n")
    argv = ("circuit", "check", str(circuit_file), "--ref", "eq", "--n", "3")
    assert run(capsys, *argv) == (2, "", "error: eq reference needs 2n inputs\n")


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


def test_circuit_valueset_weight_out_of_budget_is_refused(capsys, tmp_path):
    # An empty accepted set used to skip the weight check and write a
    # constant-0 circuit.
    for values in ("", "1"):
        out_file = tmp_path / "v.circ"
        code, out, err = run(
            capsys, "circuit", "compile-valueset", "--w", f"1 {1 << 127}", "--s", values,
            "--out", str(out_file),
        )
        assert (code, out, err) == (2, "", f"error: |{1 << 127}| exceeds the 2^127 budget\n")
        assert not out_file.exists()


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


def test_compile_comp_charges_its_pairs(capsys, tmp_path):
    # n = r = 40, m = 1: 1,600 layer gates of at most 80 fan-in pairs, and
    # a top gate of 1,600, so 40 * 40 * 81 = 129,600 pairs.
    matrix_file = tmp_path / "square.txt"
    matrix_file.write_text("40 40\n" + (" ".join(["1"] * 40) + "\n") * 40)
    circuit_file = tmp_path / "comp.circ"
    argv = ("circuit", "compile-comp", str(matrix_file), "--n", "40", "--m", "1",
            "--r", "40", "--unchecked", "--out", str(circuit_file))
    refused = "error: enumeration needs 129600 elementary steps, cap allows 129599\n"
    assert run(capsys, "--cap", "129599", *argv) == (2, "", refused)
    assert not circuit_file.exists()
    assert run(capsys, "--cap", "129600", *argv) == (0, "", "")
    assert read_circuit(circuit_file.read_text()).gate_count == 1601


def test_main_builds_one_parser(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert run(capsys, "bounds", "--n", "2")[0] == 0
        assert run(capsys, "bounds", "--n", "3")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


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


_B = 1 << 127
_HEAD = "inputs 1 2\noutput 3\n1 INPUT 0\n2 INPUT 0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 INPUT 0\n2 INPUT 0\n3 LT 0 1:1\n", "expected 'inputs ...' and 'output ...' headers"),
        ("inputs 1 x\noutput 3\n1 INPUT 0\n", "malformed header"),
        # Junk after the output id used to be ignored.
        ("inputs 1 2\noutput 3 junk\n1 INPUT 0\n2 INPUT 0\n3 LT 0 1:1\n", "malformed header"),
        (_HEAD + "3 LT\n", "malformed gate line '3 LT'"),
        (_HEAD + "3 LT b 1:1\n", "malformed gate line '3 LT b 1:1'"),
        (_HEAD + "3 LT 0 1:2:3 4\n", "malformed gate line '3 LT 0 1:2:3 4'"),
        (_HEAD + "3 LT 0 1:1 5\n", "malformed gate line '3 LT 0 1:1 5'"),
        (_HEAD + "3 NAND 0 1:1\n", "unknown gate kind 'NAND'"),
        (
            "inputs 1 2\noutput 3\n1 INPUT 0\n2 INPUT 0 1:1\n3 LT 0 1:1\n",
            "INPUT gates take no fan-in",
        ),
        # The first weight out of budget is named, not the largest one.
        (_HEAD + f"3 LT 0 1:{_B - 1} 2:{_B} 1:{-2 * _B}\n", f"|{_B}| exceeds the 2^127 budget"),
        (_HEAD + f"3 LT {_B} 1:1\n", f"|{_B}| exceeds the 2^127 budget"),
        (_HEAD + "2 LT 0 1:1\n3 LT 0 1:1\n", "duplicate gate id 2"),
        (_HEAD + "3 LT 0 1:1 4:1\n", "gate 3 references missing source 4"),
        (_HEAD + "4 LT 0 1:1\n", "output id 3 does not exist"),
        (_HEAD + "3 INPUT 0\n", "INPUT gate 3 is missing from the input list"),
        ("inputs 1 1\noutput 3\n1 INPUT 0\n3 LT 0 1:1\n", "input ids must not repeat"),
        (_HEAD + "3 LT 0 4:1\n4 LT 0 3:1\n", "circuit contains a cycle"),
    ],
)
def test_circuit_file_faults_are_usage_errors(capsys, tmp_path, text, message):
    circuit_file = tmp_path / "bad.circ"
    circuit_file.write_text(text)
    for argv in (
        ("circuit", "eval", str(circuit_file), "--input", "1 1"),
        ("circuit", "check", str(circuit_file), "--ref", "parity", "--n", "2"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_circuit_file_takes_python_integer_literals(capsys, tmp_path):
    # 1_0 and +2 are int() literals: 10 - 3 >= 0 on input (1, 1).
    circuit_file = tmp_path / "literals.circ"
    circuit_file.write_text(_HEAD + "3 LT 0 1:1_0 +2:-3\n")
    argv = ("circuit", "eval", str(circuit_file), "--input", "1 1")
    assert run(capsys, *argv) == (0, "1\n", "")


_BIG = "7" * 400
_CRT = str(FIXTURES / "crt_4x8.txt")
_CRT_X = ("--x", "2 1 1 3 0 1 -1 0")
_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bounds", "--n", "2", "--m", "1", "--w", _BIG), "siegel_norm_bound does not fit a float"),
        (("bounds", "--n", "1000", "--m", "999", "--w", "1000"), "siegel_norm_bound does not fit a float"),
        (("bounds", "--n", _BIG, "--m", "1", "--w", "1"), "siegel_norm_bound does not fit a float"),
        (("bounds", "--n", "3", "--k-iter", _BIG), "r_upper does not fit a float"),
        (("bounds", "--n", "5", "--m", "2", "--w", "-3"), "weight bound must be >= 0"),
        pytest.param(
            ("bounds", "--n", "8", "--alphabet-size", str(10**9)),
            f"theorem3_mds_bound has more than {_STR_DIGITS} digits",
            marks=pytest.mark.skipif(not _STR_DIGITS, reason="no int-to-str digit limit"),
        ),
        (("residue-check", _CRT, "--primes", "0", "0", "0", "0", *_CRT_X), "primes must be >= 2"),
        (("residue-check", _CRT, "--primes", "1", "5", "7", "11", *_CRT_X), "primes must be >= 2"),
        (("residue-check", _CRT, "--primes", "3", "5", "-3", "11", *_CRT_X), "primes must be >= 2"),
        (
            ("search", "rmds", "--n", "200000", "--m", "1", "--r", "1", "--q", "2", "--w", "1",
             "--seed", "0", "--max-attempts", "5"),
            "enumeration needs at least 2^200000 elementary steps, cap allows 100000000",
        ),
        (("--threads", "0", "bounds", "--n", "2"), "--threads must be at least 1, got 0"),
        (("--cap", "-1", "verify", "eq", "--q", "2", _CRT), "enumeration needs 6561 elementary steps, cap allows -1"),
        (("verify", "eq", "--q", "2", "no/such/matrix.txt"), None),
        (("decode", _CRT, "--z", "0 0 0 0"), "decode needs a matrix file with a trace comment"),
    ],
)
def test_no_argument_ends_in_a_traceback(capsys, monkeypatch, argv, message):
    # Every case is refused up front: none may sample a search candidate.
    def refuse(*args):
        raise AssertionError("a candidate was sampled")

    monkeypatch.setattr(search, "sample_matrix", refuse)
    code, out, err = run(capsys, *argv)  # an exception escaping main fails here
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert (code, err) == (2, f"error: {message}\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["construct", "eq"])  # missing --k
    assert info.value.code == 2


def test_circuit_check_reports_overflow_at_its_row(capsys, tmp_path):
    # A parity circuit whose gate 4 leaves the 2**127 budget at (1, 1, 0),
    # the first row where its fan-in prefix reaches B + B; it agrees with
    # parity on every row before that.
    b = 1 << 126
    circuit_file = tmp_path / "overflow.circ"
    circuit_file.write_text(
        "inputs 1 2 3\noutput 7\n1 INPUT 0\n2 INPUT 0\n3 INPUT 0\n"
        f"4 SUM 0 1:{b} 2:{b} 3:{-b}\n5 EXACT 1 1:1 2:1 3:1\n"
        "6 EXACT 3 1:1 2:1 3:1\n7 LT 1 5:1 6:1 4:0\n"
    )
    argv = ("circuit", "check", str(circuit_file), "--ref", "parity", "--n", "3")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: |{1 << 127}| exceeds the 2^127 budget\n"
    code, out, _ = run(capsys, "circuit", "eval", str(circuit_file), "--input", "1 0 1")
    assert (code, out) == (0, "0\n")


def _mutate(text, rng):
    """text with one or two characters inserted, deleted or replaced."""
    alphabet = "0123456789" * 3 + " -:\n#=kmnqINPUTLSXC"
    chars = list(text)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(chars) + 1)
        action = rng.choice(("insert", "delete", "replace"))
        if action == "insert" or i == len(chars):
            chars.insert(i, rng.choice(alphabet))
        elif action == "delete":
            del chars[i]
        else:
            chars[i] = rng.choice(alphabet)
    return "".join(chars)


def _reference_eval(text, bits):
    """(exit code, stdout, stderr) of `circuit eval` by the reference reader."""
    try:
        gates, inputs, output = read_gates(text)
        if len(bits) != len(inputs):
            raise ValueError(f"assignment length {len(bits)} != input count {len(inputs)}")
        return 0, f"{eval_gates(gates, inputs, bits)[output]}\n", ""
    except (ValueError, BudgetError) as exc:
        return 2, "", f"error: {exc}\n"


def _reference_check(text, ref, n, cap):
    """(exit code, stdout, stderr) of `circuit check`, scanning row by row.

    The reference arity is checked first, then the 2^k rows are charged
    against the cap; input 0 is the top bit of the row counter.
    """
    try:
        gates, inputs, output = read_gates(text)
        k = len(inputs)
        if ref == "parity" and k != n:
            raise ValueError("parity reference needs n inputs")
        if ref != "parity" and k != 2 * n:
            raise ValueError(f"{ref} reference needs 2n inputs")
        if 1 << k > cap:
            raise ValueError(f"enumeration needs {1 << k} elementary steps, cap allows {cap}")
        for row in range(1 << k):
            bits = [(row >> (k - 1 - t)) & 1 for t in range(k)]
            x = sum(b << i for i, b in enumerate(bits[:n]))
            y = sum(b << i for i, b in enumerate(bits[n:]))
            want = {"parity": sum(bits) % 2 == 1, "eq": x == y, "comp": x >= y}[ref]
            if eval_gates(gates, inputs, bits)[output] != want:
                return 1, f"FAIL assignment={' '.join(map(str, bits))}\n", ""
        return 0, "PASS\n", ""
    except (ValueError, BudgetError) as exc:
        return 2, "", f"error: {exc}\n"


def _reference_exactify(text):
    """(exit code, stdout, stderr) of `circuit exactify` on the reference reader's gates."""
    try:
        gates, inputs, output = read_gates(text)
        c = ThresholdCircuit(
            [Gate(gid, kind, fan, bias) for gid, (kind, fan, bias) in gates.items()],
            inputs,
            output,
        )
        return 0, write_circuit(exactify_to_lt(c)), ""
    except (ValueError, BudgetError, MagnitudeError) as exc:
        return 2, "", f"error: {exc}\n"


# Tokens int() takes that a plain-digit reader must not read by itself:
# signs, leading zeros, underscores, non-ASCII digits, 19 digits or more,
# and the separators str.split() and str.splitlines() know.
_ODD_MATRICES = (
    "2 2\n+3 007\n-0 1\n",
    "1 2\n1_0 -0_1\n",
    "1 3\n\u0663 -\u0661\u0660 7\n",
    "2 2\n1234567890123456789 -9223372036854775808\n-0000000000000000001 9999999999999999999\n",
    f"1 2\n{2**127 - 1} -{2**127 - 1}\n",
    f"1 2\n0{2**127} 1\n",
    "2 2\n1\x0b2\n3 4\n",
    "1 2\n1\x0c2\n",
    "1 2\n1 \x0b 2\n",
    "2 2\n1\t2\n\t3 \t4 \t \n",
    "# trace m0=1 n0=1 k=1 q=2 \n2 3\t\n1 1  1   \n1 -1 0\t\n",
    "1 2\n1__0 2\n",
    "1 2\n--1 2\n",
    "1 2\n1-2 3\n",
    # np.fromstring reads these apart from int(), or a count could shift
    # between rows or tokens.
    "1 2\n- 1\n",
    "1 2\n1 -\n",
    "1 1\n-\n",
    "2 1\n-\n1\n",
    "1 2\n1:2 3\n",
    "1 3\n1  2 3\n",
    "1 3\n1  2\n",
    "2 3\n1  2\n3 4 5 6\n",
    "2 3\n1 2\n3 4 5 6\n",
    "1 3\n1 2 \n",
    "1 3\n 1 2\n",
    "2 2\n1 2\n\n",
    "1 2\n1\t-2\n",
)

# Fan-in texts of the same kinds, on gate 3 of a two-input circuit.
_ODD_FANS = (
    "1:- 1",
    "1:1 -",
    "-",
    "2:-\n4 SUM 0 1:1",
    "1:2:3",
    "1 2:3:4",
    ":1 2:1",
    "1: 2:1",
    "1::2",
    "1:1  2:-1",
    "1:1 2:1 ",
    "1:1\t2:1",
)


def test_cli_survives_mutated_files(capsys, tmp_path):
    # Seeded mutations of valid matrix and circuit files: every run ends in
    # exit 0, 1 or 2, and main never raises.  read_matrix reads the values
    # the reference reader reads, or raises its message.  `verify eq` and
    # `decode` exit 2 with that message exactly when it rejects the matrix
    # file; otherwise they answer as on the canonical text of what it read.
    # The odd-token matrices run the same checks.  `circuit eval` exits 2,
    # with the same message, exactly when the reference reader rejects the
    # circuit, and otherwise prints the reference value; `circuit check`
    # answers as a row-by-row scan does, and `circuit exactify` prints the
    # rewrite of the reference reader's gates.
    rng = random.Random(2024)
    names = ("eq_k2.txt", "crt_4x8.txt", "rmds_n3.txt")
    matrices = [(FIXTURES / name).read_text() for name in names]
    circuits = {
        "valueset.circ": ("parity", "4"),
        "eq_k2.circ": ("eq", "8"),
        "comp_n3_lt.circ": ("comp", "3"),
    }
    target, canonical = tmp_path / "mutated", tmp_path / "canonical"
    codes = []

    def check_matrix(text):
        target.write_text(text)
        text = target.read_text()  # as the CLI reads it back
        runs = [
            ("--cap", "100000", "verify", "eq", "--q", "2", "{}"),
            ("decode", "{}", "--z", "1 0 1 1"),
        ]
        try:
            rows, trace = read_matrix_rows(text)
            canonical.write_text(matrix_text(rows, trace))
            rejected = None
            assert read_matrix(text)[0].entries == tuple(map(tuple, rows)), text
        except MatrixTextError as exc:
            rejected = (2, "", f"error: {exc}\n")
            with pytest.raises(ValueError if "budget" not in str(exc) else MagnitudeError) as got:
                read_matrix(text)
            assert str(got.value) == str(exc), text
        for argv in runs:
            got = run(capsys, *(str(target) if a == "{}" else a for a in argv))
            want = rejected or run(capsys, *(str(canonical) if a == "{}" else a for a in argv))
            assert got == want, (argv, text)
            codes.append(got[0])

    def check_circuit(text, ref, n):
        target.write_text(text)
        text = target.read_text()
        try:
            gates, inputs, output = read_gates(text)
            assert write_circuit(read_circuit(text)) == gates_text(gates, inputs, output)
        except CircuitTextError as exc:
            with pytest.raises((ValueError, MagnitudeError)) as got:
                read_circuit(text)
            assert str(got.value) == str(exc), text
        k = 2 * int(n) if ref != "parity" else int(n)
        argv = ("circuit", "eval", str(target), "--input", " ".join("1" * k))
        assert run(capsys, *argv) == _reference_eval(text, [1] * k)
        argv = ("--cap", "70000", "circuit", "check", str(target), "--ref", ref, "--n", n)
        got = run(capsys, *argv)
        assert got == _reference_check(text, ref, int(n), 70000), text
        codes.append(got[0])
        got = run(capsys, "circuit", "exactify", str(target))
        assert got == _reference_exactify(text), text
        codes.append(got[0])

    for trial in range(240):
        if trial % 2:
            check_matrix(_mutate(rng.choice(matrices), rng))
        else:
            name = rng.choice(sorted(circuits))
            check_circuit(_mutate((FIXTURES / name).read_text(), rng), *circuits[name])
    for text in _ODD_MATRICES:
        check_matrix(text)
    for fan in _ODD_FANS:
        check_circuit(f"inputs 1 2\noutput 3\n1 INPUT 0\n2 INPUT 0\n3 LT 1 {fan}\n", "parity", "2")
    assert {0, 2} <= set(codes)
