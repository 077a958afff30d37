"""Command-line interface.

Subcommands wrap every module: normal forms, coproducts, counit, antipode,
star, weights, dual pairing, Haar functional, invariant forms, little
t-Jacobi polynomials, matrix coefficients, orthogonality Grams, spheres,
and the verification suites.

Each subcommand's parser sets `run`, its handler, which prints through
`_print`.  Handlers look library functions up when they run, not when the
parser is built, so a profiler that swaps module attributes sees them.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 when
the reader closes stdout early (`superq ... | head`), quietly.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
CLOSED_PIPE = 141     # 128 + SIGPIPE, as the shell reports a tool SIGPIPE ends


def _add_common(p, ring=True, numeric=False):
    if ring:
        p.add_argument("--ring", choices=["B", "Bsigma", "Asigma"], default="Asigma")
    p.add_argument("--json", action="store_true")
    if numeric:
        p.add_argument("--numeric", metavar="q=VALUE",
                       help="evaluate the scalar result at a rational q off the unit circle")


def _print(value, args, doc=None) -> int:
    """Print one result: its value at --numeric q=..., with --json its JSON
    document (doc, or value.to_json()), else its text.  The exit code is 1
    for a failed Report."""
    if getattr(args, "numeric", None):
        arg = args.numeric
        if not arg.startswith("q="):
            raise ExprError("expected --numeric q=<rational>", 0)
        print(value.eval_numeric(Fraction(arg[2:])))
    elif args.json:
        print(json.dumps(value.to_json() if doc is None else doc))
    else:
        print(value)
    return VERIFY_FAIL if isinstance(value, Report) and not value.ok else 0


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


def _int_at_least(low: int, suite: str | None = None):
    """argparse type: an int no smaller than low and, given a suite, no
    larger than that suite's cap."""
    cap = suites.SUITES[suite][0] if suite else None

    def parse(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        if cap is not None and n > cap:
            raise argparse.ArgumentTypeError(
                f"must be at most {cap}, the cap of suite {suite}, got {n}")
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

    for name, helptext, run in (
            ("nf", "normal form of an expression", lambda a: _print(_expr(a), a)),
            ("grade", "weight (bidegree) of an expression", _run_grade),
            ("eps", "counit of an expression",
             lambda a: _print(hopf.counit(_expr(a)), a)),
            ("antipode", "antipode of an expression",
             lambda a: _print(hopf.antipode(_expr(a)), a)),
            ("star", "star involution of an expression",
             lambda a: _print(hopf.star(_expr(a)), a)),
            ("delta", "coproduct of an expression",
             lambda a: _print(hopf.coproduct(_expr(a)), a)),
            ("haar", "invariant functional of an expression",
             lambda a: _print(repn.haar(eval_text(a.expr, "Asigma")), a))):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("expr")
        _add_common(p, ring=name != "haar", numeric=name in ("eps", "haar"))
        p.set_defaults(run=run)

    p = sub.add_parser("pair", help="pair a functional word with an expression")
    p.add_argument("word", help="word in k, k^-1 (or K), e, f")
    p.add_argument("expr")
    _add_common(p, numeric=True)
    p.set_defaults(run=lambda a: _print(dual.eval_functional(_parse_word(a.word), _expr(a)), a))

    p = sub.add_parser("inner", help="invariant hermitian form of two expressions")
    p.add_argument("--form", choices=["R", "L"], default="R")
    p.add_argument("x")
    p.add_argument("y")
    _add_common(p, ring=False, numeric=True)
    p.set_defaults(run=lambda a: _print(repn.inner(a.form, eval_text(a.x, "Asigma"),
                                                   eval_text(a.y, "Asigma")), a))

    p = sub.add_parser("jacobi", help="little t-Jacobi polynomial (base t^-2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=lambda a: _print(qfun.little_jacobi(a.n, a.alpha, a.beta, qfun.TM2), a))

    p = sub.add_parser("matcoef", help="matrix coefficients of a spin-l comodule")
    p.add_argument("--twoL", type=_int_at_least(0), required=True)
    p.add_argument("--s", type=int, choices=[0, 1], default=0)
    p.add_argument("--closed-form", action="store_true",
                   help="use the little t-Jacobi closed forms instead of "
                        "the coproduct route")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=lambda a: _print(
        (repn.closed_form_matrix if a.closed_form else repn.matrix_coefficients)(a.twoL, a.s), a))

    p = sub.add_parser("gram", help="orthogonality Gram of corep entries")
    p.add_argument("--twoL-max", type=_int_at_least(0, "peterweyl"), default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=lambda a: _print(repn.verify_peter_weyl(a.twoL_max), a))

    p = sub.add_parser("sphere", help="quantum super sphere checks")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="three comma-separated rationals")
    group.add_argument("--infinity", action="store_true")
    p.add_argument("--check", choices=["relations", "basis", "characters"],
                   required=True)
    p.add_argument("--degree", type=_int_at_least(0), default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_run_sphere)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=[*suites.SUITES, "all"])
    caps = ", ".join(f"{name} {cap}" for name, (cap, _run) in suites.SUITES.items())
    p.add_argument("--degree", type=_int_at_least(1), default=None,
                   help=f"degree bound of the suites, at most: {caps}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_run_verify)
    return ap


def _expr(args) -> Element:
    return eval_text(args.expr, args.ring)


def _run_grade(args) -> int:
    g = bigrade(_expr(args))
    return _print(g, args, {"bigrade": g})


def _sphere_params(args):
    if args.infinity:
        return spheres.INFINITY
    parts = args.alpha.split(",")
    if len(parts) != 3:
        raise ExprError("alpha needs three comma-separated rationals", 0)
    return tuple(Scalar.from_rational(Fraction(p)) for p in parts)


def _run_sphere(args) -> int:
    p = _sphere_params(args)
    if args.check == "relations":
        return _print(spheres.relations_report(p), args)
    if args.check == "basis":
        return _print(spheres.sphere_basis_check(p, args.degree), args)
    chars = [tuple(str(c) for c in ch) for ch in spheres.characters_of_S_infinity()]
    return _print("\n".join(map(str, chars)), args, [list(ch) for ch in chars])


def _run_verify(args) -> int:
    """One suite's report, or in `all` mode one pass/fail line per suite;
    `all` runs a suite whose cap is below --degree at its cap, with a note."""
    if args.suite != "all":
        return _print(suites.run(args.suite, args.degree), args)
    deg = args.degree
    capped = {name: cap for name, (cap, _run) in suites.SUITES.items()
              if deg is not None and deg > cap}
    for name, cap in capped.items():
        print(f"note: suite {name} runs at its cap --degree {cap}, not {deg}",
              file=sys.stderr)
    total = Report()
    for name in suites.SUITES:
        rep = suites.run(name, capped.get(name, deg))
        if not args.json:
            print(f"{name}: {'pass' if rep.ok else 'FAIL'} ({rep.checked} checks)")
        total.merge(rep)
    return _print(total, args) if args.json else (0 if total.ok else VERIFY_FAIL)


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
        code = args.run(args)
        sys.stdout.flush()      # a closed pipe shows here, not at exit
        return code
    except (ValueError, ArithmeticError) as exc:   # ExprError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # The interpreter's last flush then writes what is left to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_PIPE
    finally:
        _cache.set_limit(previous)      # the cap is this call's alone


if __name__ == "__main__":
    sys.exit(main())
