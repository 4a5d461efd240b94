"""Command-line interface tying the toolkit together.

Exit codes: 0 on success/PASS, 1 on a verification failure (the witness is
printed), 2 on usage, format, cap, or overflow errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

from .circuit import (
    compile_comp_circuit,
    compile_eq_circuit,
    compile_value_set,
    eval_circuit,
    exactify_to_lt,
    exhaustive_check,
    format_trace,
    read_circuit,
    write_circuit,
)
from .construct import (
    build_crt,
    choose_primes,
    construct_eq,
    construct_eq_q,
    construction_trace,
)
from .decode import NotInImageError, decode, encode
from .matrix import MagnitudeError, read_matrix, write_matrix
from .search import search_rmds
from .verify import (
    CapExceededError,
    _check_cap,
    bounds_report,
    crt_residue_check,
    is_eq_q,
    is_mds,
    is_rmds,
)


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"expected space-separated integers, got {text!r}") from None


def _load_matrix(path: str):
    return read_matrix(Path(path).read_text())


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _join(values) -> str:
    return " ".join(str(v) for v in values)


def _verdict(witness, describe) -> int:
    """Print PASS (exit 0) for no witness, else FAIL and its description (exit 1)."""
    if witness is None:
        print("PASS")
        return 0
    print("FAIL " + describe(witness))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqkit",
        description="Construct, verify, decode, search, and compile "
        "small-weight integer matrices and threshold circuits.",
    )
    parser.add_argument("--cap", type=int, default=None, help="enumeration step cap")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="kept for compatibility (>= 1); the oracles run in one thread",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    construct = commands.add_parser("construct", help="build a matrix")
    which = construct.add_subparsers(dest="family", required=True)
    eq = which.add_parser("eq", help="binary block recursion")
    eq.add_argument("--k", type=int, required=True)
    eq.add_argument("--base", help="base matrix file (default 1x1 [1])")
    eq.add_argument("--out")
    eqq = which.add_parser("eqq", help="q-ary block recursion")
    eqq.add_argument("--q", type=int, required=True)
    eqq.add_argument("--k", type=int, required=True)
    eqq.add_argument("--base")
    eqq.add_argument("--out")
    crt = which.add_parser("crt", help="prime residue matrix")
    crt.add_argument("--n", type=int, required=True)
    crt.add_argument("--primes", type=int, nargs="+")
    crt.add_argument("--out")

    verify = commands.add_parser("verify", help="run a property oracle")
    prop = verify.add_subparsers(dest="property", required=True)
    veq = prop.add_parser("eq")
    veq.add_argument("--q", type=int, required=True)
    veq.add_argument("--mode", choices=("kernel", "injectivity"), default="kernel")
    veq.add_argument("file")
    vmds = prop.add_parser("mds")
    vmds.add_argument("file")
    vrmds = prop.add_parser("rmds")
    vrmds.add_argument("--m", type=int, required=True)
    vrmds.add_argument("--q", type=int, required=True)
    vrmds.add_argument("file")

    bounds = commands.add_parser("bounds", help="closed-form bound report")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--m", type=int)
    bounds.add_argument("--w", type=int)
    bounds.add_argument("--alphabet-size", type=int)
    bounds.add_argument("--k-iter", type=int)

    dec = commands.add_parser("decode", help="invert a traced construction")
    dec.add_argument("file", help="matrix file with trace comment")
    dec.add_argument("--z", required=True, help="target vector, quoted integers")

    enc = commands.add_parser("encode", help="apply a matrix to a binary vector")
    enc.add_argument("file")
    enc.add_argument("--x", required=True, help="binary vector, quoted bits")

    search = commands.add_parser("search", help="randomized verified search")
    target = search.add_subparsers(dest="target", required=True)
    srmds = target.add_parser("rmds")
    srmds.add_argument("--n", type=int, required=True)
    srmds.add_argument("--m", type=int, required=True)
    srmds.add_argument("--r", type=int, required=True)
    srmds.add_argument("--q", type=int, required=True)
    srmds.add_argument("--w", type=int, required=True)
    srmds.add_argument("--seed", type=int, required=True)
    srmds.add_argument("--max-attempts", type=int, required=True)
    srmds.add_argument("--out")

    residue = commands.add_parser(
        "residue-check", help="divisibility of A*x by the row primes"
    )
    residue.add_argument("file")
    residue.add_argument("--primes", type=int, nargs="+", required=True)
    residue.add_argument("--x", required=True)

    circuit = commands.add_parser("circuit", help="compile, rewrite, run, check")
    action = circuit.add_subparsers(dest="action", required=True)
    ceq = action.add_parser("compile-eq")
    ceq.add_argument("matrix")
    ceq.add_argument("--unchecked", action="store_true")
    ceq.add_argument("--out")
    ccomp = action.add_parser("compile-comp")
    ccomp.add_argument("matrix")
    ccomp.add_argument("--n", type=int, required=True)
    ccomp.add_argument("--m", type=int, required=True)
    ccomp.add_argument("--r", type=int, required=True)
    ccomp.add_argument("--unchecked", action="store_true")
    ccomp.add_argument("--out")
    cval = action.add_parser("compile-valueset")
    cval.add_argument("--w", required=True, help="weights, quoted integers")
    cval.add_argument("--s", required=True, help="accepted values, quoted integers")
    cval.add_argument("--out")
    cex = action.add_parser("exactify")
    cex.add_argument("file")
    cex.add_argument("--out")
    cev = action.add_parser("eval")
    cev.add_argument("file")
    cev.add_argument("--input", required=True, help="assignment bits, quoted")
    cev.add_argument("--trace", action="store_true")
    cch = action.add_parser("check")
    cch.add_argument("file")
    cch.add_argument("--ref", choices=("eq", "comp", "parity"), required=True)
    cch.add_argument("--n", type=int, required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses: building one costs far more than a parse."""
    return build_parser()


def _run_construct(args) -> int:
    # The matrix's entries are charged against the cap before any is built.
    if args.family == "crt":
        if not args.primes:
            # The k-th odd prime lies below (k+1)^2: n bits take n / (2 log2(n+1)) or more.
            n = max(args.n, 0)
            _check_cap(n * n // (2 * (n + 1).bit_length()), args.cap)
        primes = tuple(args.primes) if args.primes else choose_primes(args.n)
        _check_cap(len(primes) * args.n, args.cap)
        _emit(write_matrix(build_crt(args.n, primes)), args.out)
        return 0
    base = _load_matrix(args.base)[0] if args.base else None
    q = 2 if args.family == "eq" else args.q
    trace = construction_trace(args.k, q, base)
    _check_cap(trace.rows * trace.cols, args.cap)
    a, trace = construct_eq_q(args.k, q, base)
    _emit(write_matrix(a, trace), args.out)
    return 0


def _run_verify(args) -> int:
    a, _ = _load_matrix(args.file)
    if args.property == "eq":
        witness = is_eq_q(a, args.q, mode=args.mode, cap=args.cap)
        return _verdict(witness, lambda w: "kernel x=" + _join(w.x))
    if args.property == "mds":
        cols = is_mds(a, cap=args.cap)
        return _verdict(cols, lambda w: "minor cols=" + _join(c + 1 for c in w))
    witness = is_rmds(a, args.m, args.q, cap=args.cap)
    return _verdict(
        witness,
        lambda w: f"rows={_join(i + 1 for i in w.rows)} kernel x={_join(w.kernel.x)}",
    )


def _run_bounds(args) -> int:
    report = bounds_report(
        args.n,
        m=args.m,
        weight=args.w,
        alphabet_size=args.alphabet_size,
        k_iter=args.k_iter,
    )
    # Every value is formatted before the first line is printed, so a value
    # too large to print leaves stdout empty.
    names = (
        "siegel_norm_bound",
        "lemma2_rate_bound",
        "theorem3_mds_bound",
        "r_constr",
        "r_upper",
        "ratio",
    )
    values = [(name, getattr(report, name)) for name in names]
    sys.stdout.write(
        "".join(f"{name}={v}\n" for name, v in values if v is not None)
    )
    return 0


def _run_decode(args) -> int:
    a, trace = _load_matrix(args.file)
    if trace is None:
        raise ValueError("decode needs a matrix file with a trace comment")
    if trace.q == 2 and (trace.m0, trace.n0) == (1, 1):
        # The shape is checked first, and k first of all (rows = 2^k): a lying
        # k would make the shape and the rebuild huge.
        if (
            trace.k != a.m.bit_length() - 1
            or (a.m, a.n) != (trace.rows, trace.cols)
            or construct_eq(trace.k)[0] != a
        ):
            raise ValueError("matrix file does not match its trace")
    z = _parse_vector(args.z)
    try:
        x = decode(trace, z)
    except NotInImageError as exc:
        print(exc)
        return 1
    print(_join(x))
    return 0


def _run_encode(args) -> int:
    a, _ = _load_matrix(args.file)
    z = encode(a, _parse_vector(args.x))
    print(_join(z))
    return 0


def _run_search(args) -> int:
    found, attempts = search_rmds(
        args.n,
        args.m,
        args.r,
        args.q,
        args.w,
        args.seed,
        args.max_attempts,
        cap=args.cap,
    )
    if found is None:
        print(f"EXHAUSTED after {attempts} attempts")
        return 1
    provenance = (
        f"# search n={args.n} m={args.m} r={args.r} q={args.q} w={args.w} "
        f"seed={args.seed} max-attempts={args.max_attempts} attempts={attempts}\n"
    )
    _emit(provenance + write_matrix(found), args.out)
    return 0


def _run_residue(args) -> int:
    a, _ = _load_matrix(args.file)
    row = crt_residue_check(tuple(args.primes), a, _parse_vector(args.x))
    return _verdict(row, lambda w: f"row={w + 1}")


def _run_circuit(args) -> int:
    if args.action == "compile-eq":
        a, _ = _load_matrix(args.matrix)
        c = compile_eq_circuit(a, verify=not args.unchecked, cap=args.cap)
    elif args.action == "compile-comp":
        a, _ = _load_matrix(args.matrix)
        c = compile_comp_circuit(
            a, args.n, args.m, args.r, verify=not args.unchecked, cap=args.cap
        )
    elif args.action == "compile-valueset":
        c = compile_value_set(_parse_vector(args.w), _parse_vector(args.s))
    else:
        c = read_circuit(Path(args.file).read_text())
        if args.action == "eval":
            value = eval_circuit(c, _parse_vector(args.input), want_trace=args.trace)
            if args.trace:
                value, values = value
                sys.stdout.write(format_trace(values))
            print(value)
            return 0
        if args.action == "check":
            mismatch = exhaustive_check(c, args.ref, n=args.n, cap=args.cap)
            return _verdict(mismatch, lambda w: "assignment=" + _join(w))
        c = exactify_to_lt(c)
    _emit(write_circuit(c), args.out)
    return 0


_HANDLERS = {
    "construct": _run_construct,
    "verify": _run_verify,
    "bounds": _run_bounds,
    "decode": _run_decode,
    "encode": _run_encode,
    "search": _run_search,
    "residue-check": _run_residue,
    "circuit": _run_circuit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return _HANDLERS[args.command](args)
    # MatrixFormatError and CircuitFormatError are ValueErrors.
    except (ValueError, CapExceededError, MagnitudeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
