"""The four workloads: seeded inputs, the op list of one pass, and each op's expectation.

An op is one ``eqkit.cli.main`` call.  Its check returns (problem, work):
problem is None when the exit code and output agree with the benchmark's own
expectation (see reference.py), else a one-line description naming what
disagreed; work is the op's units of work for ``attempts_per_s`` (sampled
candidates for a search, 1 for any other op).

Memory guard: every op of a workload passes ``--cap`` equal to the workload's
largest enumeration, and ``build`` refuses an op whose own computed
enumeration size exceeds it.  The largest is certify's 2^20-row exhaustive
circuit check (n=10, about 370 MB RSS); the CLI's default cap would admit
2^26-row checks, about 14 GB by computation, which this benchmark never runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import reference as ref

Check = Callable[[int, str, str], tuple[Optional[str], int]]

# Largest enumeration (steps charged against --cap) each workload may run.
GUARD = {
    "certify": 2**20,
    "oracle_sweep": 3**14,
    "rmds_search": math.comb(8, 2) * 5**4,
    "point_ops": 1,
}

SEARCH = dict(n=4, m=2, r=4, q=3, w=8)
SEARCH_OPS = 64
SEARCH_MAX_ATTEMPTS = 64
POINT_K = 7
POINT_ROUNDS = 6
PLANTED_FRACTIONS = (0.02, 0.25)


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Check
    size: int = 0  # enumeration steps the op charges, computed from its inputs


@dataclass
class Plan:
    ops: list[Op]
    setup: list[list[str]] = field(default_factory=list)  # untimed cli calls


def build(workload: str, seed: int, work: Path) -> Plan:
    """Write the seeded input files for one pass into ``work`` and return its plan."""
    rng = random.Random(f"{workload}/{seed}")
    plan = _BUILDERS[workload](rng, work, ["--threads", "1", "--cap", str(GUARD[workload])])
    for op in plan.ops:
        if op.size > GUARD[workload]:
            raise ValueError(f"{op.name} enumerates {op.size} > guard {GUARD[workload]}")
    return plan


# ------------------------------------------------------------------ checks


def _stdout_is(want: str, code: int = 0) -> Check:
    def check(got_code, out, err):
        if got_code != code or out != want:
            return f"want exit {code} and {want!r}, got exit {got_code} and {out[:80]!r}", 1
        return None, 1

    return check


def _exit_is(code: int) -> Check:
    def check(got_code, out, err):
        if got_code != code:
            return f"want exit {code}, got {got_code} ({err.strip()[:80]!r})", 1
        return None, 1

    return check


def _written(path: Path, inner: Callable[[str], Optional[str]]) -> Check:
    """Exit 0, empty stdout, and a file at ``path`` that ``inner`` accepts."""

    def check(code, out, err):
        if code != 0 or out:
            return f"want exit 0 and no stdout, got exit {code} ({err.strip()[:80]!r})", 1
        if not path.exists():
            return f"{path.name} not written", 1
        return inner(path.read_text()), 1

    return check


def _matrix_is(want: ref.Matrix) -> Callable[[str], Optional[str]]:
    def inner(text):
        return None if ref.parse_matrix(text)[1] == want else "matrix entries differ"

    return inner


def _circuit_agrees(samples, n_inputs: int) -> Callable[[str], Optional[str]]:
    """The written circuit has ``n_inputs`` inputs and matches each (bits, value) sample."""

    def inner(text):
        c = ref.Circuit(text)
        if len(c.inputs) != n_inputs:
            return f"circuit has {len(c.inputs)} inputs, want {n_inputs}"
        for bits, want in samples:
            if c(bits) != want:
                return f"circuit gives {c(bits)} on {bits}, want {want}"
        return None

    return inner


def _kernel_witness(a: ref.Matrix, q: int, planted_rank: int) -> Check:
    """Exit 1 with 'FAIL kernel x=...': A*x = 0 by our own dot product, and x
    comes no later than the planted vector in enumeration order."""

    def check(code, out, err):
        prefix = "FAIL kernel x="
        if code != 1 or not out.startswith(prefix):
            return f"want exit 1 and a kernel witness, got exit {code} and {out[:80]!r}", 1
        x = [int(t) for t in out[len(prefix) :].split()]
        if not ref.is_kernel_witness(a, x, q):
            return f"witness {x} is not a kernel vector", 1
        if ref.rank_of_vector(x, q) > planted_rank:
            return f"witness {x} comes after the planted vector", 1
        return None, 1

    return check


# --------------------------------------------------------------- workloads


def _certify(rng, work, base) -> Plan:
    """CRT EQ pipeline at n = 8, 9, 10 on both the EQ circuit and its LT
    rewrite, one planted-kernel matrix, and the COMP pipeline on the n=3
    search hit."""
    ops = []
    for n in (8, 9, 10):
        primes = ref.seeded_primes(rng, n, 3)
        mat, eqc, ltc = (str(work / f"{stem}{n}") for stem in ("crt", "eq", "lt"))
        samples = ref.eq_samples(rng, n, 32)
        pass_ = _stdout_is("PASS\n")
        ops += [
            Op(
                f"construct crt n={n}",
                base + ["construct", "crt", "--n", str(n), "--primes", *map(str, primes), "--out", mat],
                _written(Path(mat), _matrix_is(ref.crt_matrix(n, primes))),
            ),
            Op(f"verify kernel n={n}", base + ["verify", "eq", "--q", "2", mat], pass_, 3**n),
            Op(
                f"verify injectivity n={n}",
                base + ["verify", "eq", "--q", "2", "--mode", "injectivity", mat],
                pass_,
                2**n,
            ),
            Op(
                f"compile-eq n={n}",
                base + ["circuit", "compile-eq", mat, "--out", eqc],
                _written(Path(eqc), _circuit_agrees(samples, 2 * n)),
                2**n,
            ),
            Op(
                f"exactify n={n}",
                base + ["circuit", "exactify", eqc, "--out", ltc],
                _written(Path(ltc), _circuit_agrees(samples, 2 * n)),
            ),
            Op(f"check eq-circuit n={n}", base + ["circuit", "check", eqc, "--ref", "eq", "--n", str(n)], pass_, 4**n),
            Op(f"check lt-circuit n={n}", base + ["circuit", "check", ltc, "--ref", "eq", "--n", str(n)], pass_, 4**n),
        ]

    n = 10
    rank = rng.randrange((3**n - 1) // 2)
    planted, _ = ref.planted_kernel_matrix(rng, 3, n, 2, rank, hi=1000)
    mat = work / "planted10"
    mat.write_text(ref.matrix_text(planted))
    ops += [
        Op("verify planted n=10", base + ["verify", "eq", "--q", "2", str(mat)], _kernel_witness(planted, 2, rank), 3**n),
        Op("compile-eq planted n=10", base + ["circuit", "compile-eq", str(mat), "--out", str(work / "planted.circ")], _exit_is(2), 2**n),
    ]

    # The committed comparison-circuit hit: search n=3 m=2 r=3 q=3 w=8 seed=0.
    hit, attempts = ref.search_outcome(3, 2, 3, 3, 8, seed=0, max_attempts=16)
    if hit is None or attempts != 4:
        raise RuntimeError("reference sampler no longer reproduces the committed n=3 hit")
    mat, comp = work / "hit3", work / "comp.circ"
    mat.write_text(ref.matrix_text(hit))
    comp_table = [
        (ref.bits_of(x, 3) + ref.bits_of(y, 3), int(x >= y)) for x in range(8) for y in range(8)
    ]
    ops += [
        Op(
            "compile-comp n=3",
            base + ["circuit", "compile-comp", str(mat), "--n", "3", "--m", "2", "--r", "3", "--out", str(comp)],
            _written(comp, _circuit_agrees(comp_table, 6)),
            math.comb(6, 2) * 5**3,
        ),
        Op("check comp-circuit n=3", base + ["circuit", "check", str(comp), "--ref", "comp", "--n", "3"], _stdout_is("PASS\n"), 2**6),
    ]
    return Plan(ops)


def _oracle_sweep(rng, work, base) -> Plan:
    """Kernel mode on planted-kernel matrices (early exit) and CRT matrices
    (full 3^n scan) at n = 12, 13, 14; injectivity mode on the k=3 EQ matrix
    and CRT matrices at n = 18 and 20."""
    ops = []
    for n in (12, 13, 14):
        total = 3**n
        primes = ref.seeded_primes(rng, n, 3)
        for slot, frac in enumerate(PLANTED_FRACTIONS):
            rank = int((frac + 0.02 * rng.random()) * total)
            planted, _ = ref.planted_kernel_matrix(rng, len(primes), n, 2, rank, hi=1000)
            mat = work / f"planted{n}_{slot}"
            mat.write_text(ref.matrix_text(planted))
            ops.append(
                Op(
                    f"verify kernel planted n={n} at {frac:.2f}",
                    base + ["verify", "eq", "--q", "2", str(mat)],
                    _kernel_witness(planted, 2, rank),
                    total,
                )
            )
        mat = work / f"crt{n}"
        mat.write_text(ref.matrix_text(ref.crt_matrix(n, primes)))
        ops.append(Op(f"verify kernel crt n={n}", base + ["verify", "eq", "--q", "2", str(mat)], _stdout_is("PASS\n"), total))

    injective = [(f"crt n={n}", ref.crt_matrix(n, ref.seeded_primes(rng, n, 4))) for n in (18, 20)]
    injective.append(("eq k=3", ref.eq_matrix(3)))
    for label, a in injective:
        mat = work / label.replace(" ", "").replace("=", "")
        mat.write_text(ref.matrix_text(a))
        ops.append(
            Op(
                f"verify injectivity {label}",
                base + ["verify", "eq", "--q", "2", "--mode", "injectivity", str(mat)],
                _stdout_is("PASS\n"),
                2 ** len(a[0]),
            )
        )
    return Plan(ops)


def _search_check(seed: int, out: Path) -> Check:
    """Expected outcome from our own sampler and brute-force block check."""
    p = SEARCH

    def check(code, text, err):
        hit, attempts = ref.search_outcome(p["n"], p["m"], p["r"], p["q"], p["w"], seed, SEARCH_MAX_ATTEMPTS)
        if hit is None:
            want = f"EXHAUSTED after {attempts} attempts\n"
            if code != 1 or text != want or out.exists():
                return f"want exit 1 and {want!r}, got exit {code} and {text[:80]!r}", attempts
            return None, attempts
        if code != 0 or text or not out.exists():
            return f"want a hit at attempt {attempts}, got exit {code} and {text[:80]!r}", attempts
        comments, got = ref.parse_matrix(out.read_text())
        if got != hit or not any(c.endswith(f" attempts={attempts}") for c in comments):
            return f"hit differs from the sampled matrix at attempt {attempts}", attempts
        return None, attempts

    return check


def _rmds_search(rng, work, base) -> Plan:
    """Searches of at most SEARCH_MAX_ATTEMPTS candidates each, over seeded
    search seeds; most exhaust, about one in eight finds a hit."""
    p = SEARCH
    ops = []
    for i in range(SEARCH_OPS):
        seed = rng.getrandbits(32)
        out = work / f"hit{i}"
        argv = ["search", "rmds"] + [f"--{k}={v}" for k, v in p.items()]
        argv += ["--seed", str(seed), "--max-attempts", str(SEARCH_MAX_ATTEMPTS), "--out", str(out)]
        steps = math.comb(p["r"] * p["m"], p["m"]) * (2 * p["q"] - 1) ** p["n"]
        ops.append(Op(f"search seed={seed}", base + argv, _search_check(seed, out), steps))
    return Plan(ops)


def _words(values) -> str:
    return " ".join(map(str, values))


def _point_ops(rng, work, base) -> Plan:
    """encode, decode, decode of a non-image vector, and eval of the EQ and
    LT circuits, all on the k=7 EQ matrix (128 x 576)."""
    a = ref.eq_matrix(POINT_K)
    n = len(a[0])
    mat, eqc, ltc = (str(work / name) for name in ("eq7", "eq7.circ", "lt7.circ"))
    Path(mat).write_text(ref.matrix_text(a, k=POINT_K))
    setup = [
        base + ["circuit", "compile-eq", mat, "--unchecked", "--out", eqc],
        base + ["circuit", "exactify", eqc, "--out", ltc],
    ]
    ops = []
    samples = ref.eq_samples(rng, n, 2 * POINT_ROUNDS)
    for i in range(POINT_ROUNDS):
        x = [rng.randrange(2) for _ in range(n)]
        z = ref.matvec(a, x)
        # A row of {-1,0,1} entries maps bits to at most its count of +1s.
        far = list(z)
        row = rng.randrange(len(a))
        far[row] = sum(v == 1 for v in a[row]) + 1 + rng.randrange(3)
        ops += [
            Op(f"encode {i}", base + ["encode", mat, "--x", _words(x)], _stdout_is(_words(z) + "\n")),
            Op(f"decode {i}", base + ["decode", mat, "--z", _words(z)], _stdout_is(_words(x) + "\n")),
            Op(f"decode non-image {i}", base + ["decode", mat, "--z", _words(far)], _exit_is(1)),
        ]
        for circ, label in ((eqc, "eq"), (ltc, "lt")):
            bits, want = samples[2 * i + (i + (label == "lt")) % 2]
            ops.append(
                Op(
                    f"eval {label}-circuit {i}",
                    base + ["circuit", "eval", circ, "--input", _words(bits)],
                    _stdout_is(f"{want}\n"),
                )
            )
    return Plan(ops, setup)


_BUILDERS = {
    "certify": _certify,
    "oracle_sweep": _oracle_sweep,
    "rmds_search": _rmds_search,
    "point_ops": _point_ops,
}
WORKLOADS = tuple(_BUILDERS)
