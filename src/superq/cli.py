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
import sys
from fractions import Fraction

from . import dual, hopf, qfun, repn, spheres
from .algebra import Element, bigrade
from .parser import ExprError, eval_text
from .report import Report
from .scalars import Scalar, T_INV

USAGE_ERROR = 2
VERIFY_FAIL = 1


def _add_common(p, numeric=False):
    p.add_argument("--ring", choices=["B", "Bsigma", "Asigma"], default="Asigma")
    p.add_argument("--json", action="store_true")
    if numeric:
        p.add_argument("--numeric", metavar="q=VALUE",
                       help="evaluate the scalar result at a numeric q (e.g. q=-1/2)")


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
    p.add_argument("--suite", default="all",
                   choices=["rewrite", "hopf", "coaction", "qfun", "dual",
                            "pairing", "matcoef", "integral", "moments",
                            "peterweyl", "spheres", "completeness", "all"])
    p.add_argument("--degree", type=_int_at_least(1), default=None)
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
    deg = args.degree
    suites = {
        "rewrite": lambda: _rewrite_suite(deg or 4),
        "hopf": lambda: hopf.verify_hopf(deg or 4),
        "coaction": lambda: hopf.verify_coaction(deg or 5).merge(
            hopf.verify_coaction_morphism(3)),
        "qfun": lambda: qfun.pascal_rule_check(deg or 8).merge(
            qfun.qbinomial_theorem_check(min(deg or 6, 8))).merge(
            qfun.binomial_collapse_check(6)),
        "dual": lambda: dual.verify_uq_relations(deg or 4).merge(
            dual.verify_dual_hopf()),
        "pairing": lambda: dual.pairing_gram_rank(2, deg or 4),
        "matcoef": lambda: _matcoef_suite(deg or 4),
        "integral": lambda: repn.verify_integral(deg or 4),
        "moments": lambda: repn.moments_report(),
        "peterweyl": lambda: repn.verify_peter_weyl(min(deg or 2, 3)).merge(
            repn.verify_weight_norms(3)),
        "spheres": lambda: _spheres_suite(deg or 2),
        "completeness": lambda: repn.completeness_witness(deg or 3, deg or 3),
    }
    if args.suite == "all":
        total = Report()
        for name, fn in suites.items():
            rep = fn()
            line = "pass" if rep.ok else "FAIL"
            if not args.json:
                print(f"{name}: {line} ({rep.checked} checks)")
            total.merge(rep)
        return _emit_report(total, args) if args.json else (0 if total.ok else VERIFY_FAIL)
    return _emit_report(suites[args.suite](), args)


def _rewrite_suite(max_degree: int) -> Report:
    import random
    from .algebra import Element, random_monomial
    rep = Report()
    rng = random.Random(12345)
    for _ in range(300):
        xs = [Element.monomial(random_monomial(rng, max_degree)) for _ in range(3)]
        lhs = (xs[0] * xs[1]) * xs[2]
        rhs = xs[0] * (xs[1] * xs[2])
        rep.check("associativity", lhs == rhs, lhs, rhs)
    return rep


def _matcoef_suite(twoL_max: int) -> Report:
    rep = Report()
    for twoL in range(twoL_max + 1):
        for s in (0, 1):
            mat = repn.matrix_coefficients(twoL, s)
            cf = repn.closed_form_matrix(twoL, s)
            for key in mat.entries:
                rep.check(f"closed form twoL={twoL} s={s} {key}",
                          mat.entries[key] == cf.entries[key],
                          mat.entries[key], cf.entries[key])
    return rep


def _spheres_suite(degree: int) -> Report:
    rep = spheres.verify_M()
    rep.merge(spheres.verify_infinity_relations())
    rep.merge(spheres.verify_coideal(spheres.INFINITY))
    rep.merge(spheres.sphere_basis_check(spheres.INFINITY, degree))
    chars = spheres.characters_of_S_infinity()
    rep.check("characters of the infinity sphere", len(chars) == 2,
              len(chars), 2)
    return rep


def main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "sphere" and args.check == "characters" and not args.infinity:
            ap.error("sphere --check characters is only computed for --infinity")
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.cache_size is not None:
        from . import _cache
        _cache.set_limit(args.cache_size)
    try:
        return _dispatch(args)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


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
        poly = qfun.little_jacobi(args.n, args.alpha, args.beta, T_INV * T_INV)
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
            if p == spheres.INFINITY:
                rep = spheres.verify_infinity_relations()
            else:
                rep = Report()
                for kind in spheres.RELATION_KINDS:
                    w = spheres.find_relations(p, kind)
                    rep.note(f"kind {kind}: " + (
                        "none exists" if not w.exists else
                        str({k: str(v) for k, v in w.full_witness().items()})))
                    for vec in w.witnesses:
                        res = spheres.relation_residual(p, kind, vec)
                        rep.check(f"witness residual {kind}", res.is_zero(),
                                  res, 0)
            return _emit_report(rep, args)
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
