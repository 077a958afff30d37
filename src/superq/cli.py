"""Command-line interface.

Subcommands wrap every module: normal forms, coproducts, counit, antipode,
star, weights, dual pairing, Haar functional, invariant forms, little
t-Jacobi polynomials, matrix coefficients, orthogonality Grams, spheres,
and the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import _cache, dual, hopf, qfun, repn, spheres, suites
from .algebra import Element, bigrade
from .parser import ExprError, eval_text
from .report import Report
from .scalars import Scalar

USAGE_ERROR = 2
VERIFY_FAIL = 1


def _add_common(p, numeric=False):
    p.add_argument("--ring", choices=["B", "Bsigma", "Asigma"], default="Asigma")
    p.add_argument("--json", action="store_true")
    if numeric:
        p.add_argument("--numeric", metavar="q=VALUE",
                       help="evaluate the scalar result at a rational q off the unit circle")


def _emit_scalar(value: Scalar, args) -> None:
    if getattr(args, "numeric", None):
        arg = args.numeric
        if not arg.startswith("q="):
            raise ExprError("expected --numeric q=<rational>", 0)
        print(value.eval_numeric(Fraction(arg[2:])))
    elif args.json:
        print(json.dumps(value.to_json()))
    else:
        print(value)


def _emit_element(el: Element, args) -> None:
    if args.json:
        print(json.dumps(el.to_json()))
    else:
        print(el)


def _emit_report(rep: Report, args) -> int:
    if args.json:
        print(json.dumps(rep.to_json()))
    else:
        print(rep)
    return 0 if rep.ok else VERIFY_FAIL


def _parse_word(text: str):
    letters = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch in " *":
            k += 1
            continue
        if ch == "K":
            letters.append("K")
            k += 1
        elif text[k:k + 4] == "k^-1":
            letters.append("K")
            k += 4
        elif ch in ("k", "e", "f"):
            letters.append(ch)
            k += 1
        else:
            raise ExprError(f"unknown functional letter {ch!r}", k)
    return dual.Functional.word(*letters)


def _int_at_least(low: int):
    """argparse type: an int no smaller than low."""
    def parse(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    parse.__name__ = "int"   # argparse names the type in "invalid int value"
    return parse


@functools.lru_cache(maxsize=None)
def build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="superq",
        description="Exact symbolic computation in the graded quantum group "
                    "of the quantum super 2-spheres.")
    ap.add_argument("--cache-size", type=_int_at_least(0), default=None,
                    help="cap the internal memo tables (cleared when exceeded)")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, helptext in (("nf", "normal form of an expression"),
                           ("grade", "weight (bidegree) of an expression"),
                           ("eps", "counit of an expression"),
                           ("antipode", "antipode of an expression"),
                           ("star", "star involution of an expression"),
                           ("delta", "coproduct of an expression"),
                           ("haar", "invariant functional of an expression")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("expr")
        _add_common(p, numeric=name in ("eps", "haar"))

    p = sub.add_parser("pair", help="pair a functional word with an expression")
    p.add_argument("word", help="word in k, k^-1 (or K), e, f")
    p.add_argument("expr")
    _add_common(p, numeric=True)

    p = sub.add_parser("inner", help="invariant hermitian form of two expressions")
    p.add_argument("--form", choices=["R", "L"], default="R")
    p.add_argument("x")
    p.add_argument("y")
    _add_common(p, numeric=True)

    p = sub.add_parser("jacobi", help="little t-Jacobi polynomial (base t^-2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("matcoef", help="matrix coefficients of a spin-l comodule")
    p.add_argument("--twoL", type=int, required=True)
    p.add_argument("--s", type=int, choices=[0, 1], default=0)
    p.add_argument("--closed-form", action="store_true",
                   help="use the little t-Jacobi closed forms instead of "
                        "the coproduct route")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gram", help="orthogonality Gram of corep entries")
    p.add_argument("--twoL-max", type=_int_at_least(0), default=2)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sphere", help="quantum super sphere checks")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="three comma-separated rationals")
    group.add_argument("--infinity", action="store_true")
    p.add_argument("--check", choices=["relations", "basis", "characters"],
                   required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=[*suites.SUITES, "all"])
    caps = ", ".join(f"{name} runs to {cap} at most"
                     for name, (cap, _run) in suites.SUITES.items() if cap is not None)
    p.add_argument("--degree", type=_int_at_least(1), default=None,
                   help=f"degree bound of the suites ({caps})")
    p.add_argument("--json", action="store_true")
    return ap


def _sphere_params(args):
    if args.infinity:
        return spheres.INFINITY
    parts = args.alpha.split(",")
    if len(parts) != 3:
        raise ExprError("alpha needs three comma-separated rationals", 0)
    return tuple(Scalar.from_rational(Fraction(p)) for p in parts)


def _run_verify(args) -> int:
    """One suite's report, or in `all` mode one pass/fail line per suite;
    `all` runs a suite whose cap is below --degree at its cap, with a note."""
    if args.suite != "all":
        return _emit_report(suites.run(args.suite, args.degree), args)
    deg = args.degree
    capped = {name: cap for name, (cap, _run) in suites.SUITES.items()
              if deg is not None and cap is not None and deg > cap}
    for name, cap in capped.items():
        print(f"note: suite {name} runs at its cap --degree {cap}, not {deg}",
              file=sys.stderr)
    total = Report()
    for name in suites.SUITES:
        rep = suites.run(name, capped.get(name, deg))
        if not args.json:
            print(f"{name}: {'pass' if rep.ok else 'FAIL'} ({rep.checked} checks)")
        total.merge(rep)
    return _emit_report(total, args) if args.json else (0 if total.ok else VERIFY_FAIL)


def _attach_alpha(argv: list) -> list:
    """`sphere --alpha -1,1,2` read as `sphere --alpha=-1,1,2`.

    argparse takes a separate value that starts with '-' for an option.
    Only the value of sphere's --alpha is attached, and only when it starts
    like a negative number; every other argument, expressions included, is
    left as it is.
    """
    if "sphere" not in argv:
        return argv
    out = list(argv)
    for i in range(out.index("sphere") + 1, len(out) - 1):
        if out[i] == "--alpha" and re.match(r"-\.?\d", out[i + 1]):
            out[i:i + 2] = ["--alpha=" + out[i + 1]]
            break
    return out


def main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(_attach_alpha(sys.argv[1:] if argv is None else argv))
        if args.command == "sphere" and args.check == "characters" and not args.infinity:
            ap.error("sphere --check characters is only computed for --infinity")
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    previous = _cache.LIMIT
    _cache.set_limit(args.cache_size)   # None (no cap) unless this call sets one
    try:
        return _dispatch(args)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        _cache.set_limit(previous)      # the cap is this call's alone


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "nf":
        _emit_element(eval_text(args.expr, args.ring), args)
        return 0
    if cmd == "grade":
        g = bigrade(eval_text(args.expr, args.ring))
        print(json.dumps({"bigrade": g}) if args.json else g)
        return 0
    if cmd == "eps":
        _emit_scalar(hopf.counit(eval_text(args.expr, args.ring)), args)
        return 0
    if cmd == "antipode":
        _emit_element(hopf.antipode(eval_text(args.expr, args.ring)), args)
        return 0
    if cmd == "star":
        _emit_element(hopf.star(eval_text(args.expr, args.ring)), args)
        return 0
    if cmd == "delta":
        tens = hopf.coproduct(eval_text(args.expr, args.ring))
        print(json.dumps(tens.to_json()) if args.json else tens)
        return 0
    if cmd == "haar":
        _emit_scalar(repn.haar(eval_text(args.expr, "Asigma")), args)
        return 0
    if cmd == "pair":
        phi = _parse_word(args.word)
        _emit_scalar(dual.eval_functional(phi, eval_text(args.expr, args.ring)), args)
        return 0
    if cmd == "inner":
        x = eval_text(args.x, "Asigma")
        y = eval_text(args.y, "Asigma")
        _emit_scalar(repn.inner(args.form, x, y), args)
        return 0
    if cmd == "jacobi":
        poly = qfun.little_jacobi(args.n, args.alpha, args.beta, qfun.TM2)
        print(json.dumps(poly.to_json()) if args.json else poly)
        return 0
    if cmd == "matcoef":
        if args.closed_form:
            mat = repn.closed_form_matrix(args.twoL, args.s)
        else:
            mat = repn.matrix_coefficients(args.twoL, args.s)
        if args.json:
            print(json.dumps(mat.to_json()))
        else:
            for (i, j), e in sorted(mat.entries.items()):
                print(f"m[{i},{j}] = {e}")
        return 0
    if cmd == "gram":
        return _emit_report(repn.verify_peter_weyl(args.twoL_max), args)
    if cmd == "sphere":
        p = _sphere_params(args)
        if args.check == "relations":
            return _emit_report(spheres.relations_report(p), args)
        if args.check == "basis":
            return _emit_report(spheres.sphere_basis_check(p, args.degree), args)
        chars = spheres.characters_of_S_infinity()
        if args.json:
            print(json.dumps([[str(c) for c in ch] for ch in chars]))
        else:
            for ch in chars:
                print(tuple(str(c) for c in ch))
        return 0
    if cmd == "verify":
        return _run_verify(args)
    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
