"""Command-line front end: parse, minimize, count, factor, evaluate.

Exit codes: 0 success, 2 parse/format/input error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from functools import reduce
from typing import Optional

import numpy as np

from . import families
from .errors import FormatError, ParseError
from .evaluator import (
    _matrix_lines,
    complexity_bounds,
    count_n,
    count_ns,
    count_nt,
    evaluate_left,
    evaluate_right,
    load_matrix_tuple,
    random_rational_tuple,
)
from .factorizer import factor_atoms, load_factors, verify_block_factorization
from .freepoly import Alphabet, NcPolynomial, naive_evaluate, naive_mult_count, parse
from .minimizer import build_als, is_minimal, minimize, rank_of
from .realization import Als, als_mul, dump_als, format_system, load_als

OK, INPUT_ERROR, VERIFY_ERROR = 0, 2, 3


def _infer_alphabet(text: str) -> Alphabet:
    """Letters in order of first appearance; explicit --alphabet overrides.

    Multi-character identifiers are taken verbatim, so juxtaposed input
    like "xy" needs an explicit single-letter alphabet.
    """
    names: list[str] = []
    for name in re.findall(r"[A-Za-z][A-Za-z0-9_]*", text):
        if name not in names:
            names.append(name)
    if not names:
        names = ["x"]  # scalar input: any alphabet will do
    return Alphabet(names)


def _alphabet(args) -> Optional[Alphabet]:
    """The ``--alphabet`` letters, or ``None`` to infer them per input.

    Also refuses ``--format csv`` outside ``table``, before any input is read.
    """
    alphabet = None
    if args.alphabet:
        alphabet = Alphabet([x.strip() for x in args.alphabet.split(",")])
    if args.format == "csv" and args.command != "table":
        raise ValueError(f"--format csv is for table only, not {args.command}")
    return alphabet


def _parse_poly(args, text: str) -> NcPolynomial:
    return parse(text, args.alphabet or _infer_alphabet(text))


def _summary(als: Als) -> dict:
    n = als.n
    lo, hi = complexity_bounds(n) if n >= 2 else (0, 0)
    return {
        "dim": n,
        "ns": count_ns(als),
        "nt": count_nt(als),
        "n": count_n(als),
        "bounds": [lo, hi],
    }


def _print_summary(info: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(info))
    else:
        lo, hi = info["bounds"]
        print(
            f"dim={info['dim']} Ns={info['ns']} Nt={info['nt']} "
            f"N={info['n']} bounds=[{lo},{hi}]"
        )


def cmd_rank(args) -> int:
    value = rank_of(_parse_poly(args, args.polynomial))
    print(json.dumps({"rank": value}) if args.format == "json" else value)
    return OK


def cmd_compile(args) -> int:
    als = build_als(_parse_poly(args, args.polynomial))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dump_als(als))
    _print_summary(_summary(als), args.format)
    return OK


def cmd_minimize(args) -> int:
    with open(args.input) as handle:
        als = load_als(handle.read())
    reduced = minimize(als)
    info = _summary(reduced)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dump_als(reduced))
    elif args.format == "json":
        info["system"] = dump_als(reduced)
    else:
        print(format_system(reduced))
    _print_summary(info, args.format)
    return OK


def cmd_eval(args) -> int:
    with open(args.system) as handle:
        als = load_als(handle.read())
    with open(args.matrices) as handle:
        tup = load_matrix_tuple(handle.read())
    sides = ("left", "right") if args.side == "both" else (args.side,)
    reports, rows = {}, {}
    for side in sides:
        evaluate = evaluate_left if side == "left" else evaluate_right
        reports[side] = evaluate(als, tup)
        rows[side] = _matrix_lines(reports[side].result, tup.is_exact)
    if args.format == "json":
        info = {
            side: {"mults": rep.mult_count, "matrix": [r.split() for r in rows[side]]}
            for side, rep in reports.items()
        }
        print(json.dumps(info))
    else:
        for side, rep in reports.items():
            print(f"side={side} mults={rep.mult_count}")
            print("\n".join(rows[side]))
    if len(reports) == 2:
        left, right = reports["left"].result, reports["right"].result
        same = (
            bool(np.array_equal(left, right))
            if tup.is_exact
            else bool(np.allclose(left, right, rtol=1e-9, atol=1e-12))
        )
        if not same:
            print("error: left and right evaluations disagree", file=sys.stderr)
            return VERIFY_ERROR
    return OK


def cmd_factor(args) -> int:
    p = _parse_poly(args, args.polynomial)
    atoms = factor_atoms(p)
    if args.format == "json":
        print(json.dumps({"atoms": [str(a) for a in atoms]}))
    else:
        print(f"atoms: {len(atoms)}")
        for atom in atoms:
            print(f"  {atom}")
        if len(atoms) == 1:
            print("no split found (not a proof of irreducibility)")
        else:
            staircase = minimize(reduce(als_mul, (build_als(a) for a in atoms)))
            print("block system (zero blocks mark the factors):")
            print(format_system(staircase))
    return OK


def cmd_verify_block(args) -> int:
    with open(args.factors) as handle:
        bf = load_factors(handle.read())
    equal = verify_block_factorization(bf, parse(args.polynomial, bf.alphabet))
    if args.format == "json":
        print(json.dumps({"equal": equal}))
    elif equal:
        print("ok: block product equals the polynomial")
    if not equal:
        print("mismatch: block product differs from the polynomial", file=sys.stderr)
    return OK if equal else VERIFY_ERROR


def _table_rows(kmax_p: int, kmax_q: int) -> list[dict]:
    rows = []
    for family, kmax, poly_of, system_of in (
        ("p", kmax_p, families.power_polynomial, families.power_system),
        ("q", kmax_q, families.convolution_polynomial, families.convolution_system),
    ):
        for k in range(kmax + 1):
            poly = poly_of(k)
            system = minimize(system_of(k))
            if system.polynomial() != poly:
                raise RuntimeError(f"family {family} system does not match at k={k}")
            rows.append(
                {
                    "family": family,
                    "k": k,
                    "rank": system.n,
                    "terms": len(poly),
                    "naive": naive_mult_count(poly),
                    "N": count_n(system),
                }
            )
    return rows


def cmd_table(args) -> int:
    rows = _table_rows(args.kmax_p, args.kmax_q)
    columns = ["family", "k", "rank", "terms", "naive", "N"]
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(str(row[c]) for c in columns))
    else:
        widths = [
            max(len(c), max(len(str(row[c])) for row in rows)) for c in columns
        ]
        print("  ".join(c.rjust(w) for c, w in zip(columns, widths)))
        for row in rows:
            print("  ".join(str(row[c]).rjust(w) for c, w in zip(columns, widths)))
    return OK


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    checks: list[dict] = []

    def check(name: str, passed: bool) -> None:
        checks.append({"name": name, "ok": passed})

    alphabet = Alphabet(("x", "y", "z"))
    p = parse("x - x*y*x", alphabet)
    check("rank x - x*y*x == 4", rank_of(p) == 4)
    check("rank 1 + x - y*x == 3", rank_of(parse("1 + x - y*x", alphabet)) == 3)
    product = parse("(x*y + 1)*(z*x - 3)", alphabet)
    check("rank (x*y+1)(z*x-3) == 5", rank_of(product) == 5)
    anticommutator = parse("x*y + y*x", alphabet)
    system = build_als(anticommutator)
    check("anticommutator has a 4-dim minimal system", system.n == 4)
    check("minimal systems certify minimal", is_minimal(system))
    check("atoms of x*y*z", len(factor_atoms(parse("x*y*z", alphabet))) == 3)
    check("x*y + y*x has no split", len(factor_atoms(anticommutator)) == 1)
    equal = True
    for _ in range(args.rounds):
        words = [
            tuple(rng.randrange(3) for _ in range(rng.randrange(5)))
            for _ in range(rng.randrange(1, 7))
        ]
        q = NcPolynomial(
            alphabet,
            {w: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for w in words},
        )
        tup = random_rational_tuple(rng, 3, args.size)
        reference = naive_evaluate(q, tup.mats)
        als = build_als(q)
        left = evaluate_left(als, tup).result
        right = evaluate_right(als, tup).result
        if not (np.array_equal(left, reference) and np.array_equal(right, reference)):
            equal = False
            break
    check(f"oracle equivalence on {args.rounds} random polynomials", equal)
    if args.format == "json":
        print(json.dumps({"checks": checks}))
    else:
        for c in checks:
            print(f"{'ok' if c['ok'] else 'FAIL'} {c['name']}")
    return OK if all(c["ok"] for c in checks) else VERIFY_ERROR


def _count(minimum: int, maximum: Optional[int] = None):
    """An argparse type: an int that is at least ``minimum``, at most ``maximum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, not {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpoly",
        description=(
            "Represent non-commutative polynomials as linear systems, "
            "minimize and factor them, and evaluate on matrix tuples "
            "with counted matrix products."
        ),
    )
    parser.add_argument(
        "--alphabet",
        help='comma-separated letters, e.g. "x,y,z" (default: inferred)',
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized runs")
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("rank", help="rank of a polynomial (minimal system dimension)")
    s.add_argument("polynomial")
    s.set_defaults(func=cmd_rank)

    s = sub.add_parser("compile", help="build a minimal system and report its counts")
    s.add_argument("polynomial")
    s.add_argument("-o", "--output", help="write the system to this file")
    s.set_defaults(func=cmd_compile)

    s = sub.add_parser("minimize", help="minimize a system from a file")
    s.add_argument("input")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_minimize)

    s = sub.add_parser("eval", help="evaluate.als on matrices.txt")
    s.add_argument("system")
    s.add_argument("matrices")
    s.add_argument("--side", choices=("left", "right", "both"), default="left")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("factor", help="factor a polynomial into atoms")
    s.add_argument("polynomial")
    s.set_defaults(func=cmd_factor)

    s = sub.add_parser("verify-block", help="check a block factorization file")
    s.add_argument("factors")
    s.add_argument("polynomial")
    s.set_defaults(func=cmd_verify_block)

    s = sub.add_parser("table", help="multiplication counts for two families")
    # the families grow exponentially (p_k has 3^k terms): the caps keep a
    # table to seconds
    s.add_argument("--kmax-p", type=_count(0, 10), default=6)
    s.add_argument("--kmax-q", type=_count(0, 8), default=5)
    s.set_defaults(func=cmd_table)

    s = sub.add_parser("selftest", help="quick built-in verification")
    # each round builds and evaluates one random polynomial: the cap keeps a
    # selftest to seconds
    s.add_argument("--rounds", type=_count(1, 1000), default=25)
    # naive evaluation, the oracle, costs m^3 per product: the cap keeps the
    # default rounds to seconds
    s.add_argument("--size", type=_count(1, 16), default=3, help="matrix size m")
    s.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.alphabet = _alphabet(args)  # commands read an Alphabet or None
        return args.func(args)
    except (ParseError, FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
