"""The verification suites of `superq verify`.  SUITES maps each name, in
the order `verify --suite all` runs them, to (cap, run): cap is the largest
degree the suite accepts; run(degree) returns the suite's Report, at its
default bounds (the `d or 4` below) when degree is None.  qfun keeps its
first cap and completeness 12 (1.5 s, 20 MiB); every other cap is the
largest degree at which the suite ran alone in under 10 s and 200 MiB
(CPython 3.11, 2 shared cores).  matcoef runs the corep self-check of
repn.matrix_coefficients on every matrix: 11 took 5.8-6.1 s, 12 243 MiB.
rewrite (not monotone in the degree, as each degree draws its own triples)
and spheres ran at every degree above their old caps: rewrite 71 took
3.1-3.8 s and 148 MiB, 72 213 MiB; spheres 37 7.7-9.2 s, 38 9.2-11.4 s."""

from __future__ import annotations

import random

from . import dual, hopf, qfun, repn, spheres
from .algebra import Element, random_monomial
from .report import Report


def _rewrite(max_degree: int) -> Report:
    rep = Report()
    rng = random.Random(12345)
    for _ in range(300):
        xs = [Element.monomial(random_monomial(rng, max_degree)) for _ in range(3)]
        lhs = (xs[0] * xs[1]) * xs[2]
        rhs = xs[0] * (xs[1] * xs[2])
        rep.check("associativity", lhs == rhs, lhs, rhs)
    return rep


def _matcoef(twoL_max: int) -> Report:
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


def _spheres(degree: int) -> Report:
    rep = spheres.verify_M()
    rep.merge(spheres.verify_infinity_relations())
    rep.merge(spheres.verify_coideal(spheres.INFINITY))
    rep.merge(spheres.sphere_basis_check(spheres.INFINITY, degree))
    chars = spheres.characters_of_S_infinity()
    rep.check("characters of the infinity sphere", len(chars) == 2,
              len(chars), 2)
    return rep


def _pairing(degree: int) -> Report:
    # Below degree 3 the 45 words f^a k^b e^c of bound 2 outnumber the
    # monomials, so full rank claims that they separate the monomials.  They
    # do not at degree 2: k^b is t^(bi) (-1)^(bs) on a^i sigma^s, and with
    # only b = +-1 odd no word sees (a - t/(1+t^2) (1 + a^2))(sigma - 1).
    # Bound 3 adds k^3 and k^-3, which do.
    return dual.pairing_gram_rank(2 if degree >= 3 else 3, degree)


SUITES = {
    "rewrite": (71, lambda d: _rewrite(d or 4)),
    "hopf": (8, lambda d: hopf.verify_hopf(d or 4)),
    "coaction": (11, lambda d: hopf.verify_coaction(d or 5).merge(
        hopf.verify_coaction_morphism(3))),
    "qfun": (8, lambda d: qfun.pascal_rule_check(d or 8).merge(
        qfun.qbinomial_theorem_check(d or 6)).merge(
        qfun.binomial_collapse_check(6))),
    "dual": (18, lambda d: dual.verify_uq_relations(d or 4).merge(
        dual.verify_dual_hopf())),
    "pairing": (17, lambda d: _pairing(d or 4)),
    "matcoef": (11, lambda d: _matcoef(d or 4)),
    "integral": (15, lambda d: repn.verify_integral(d or 4)),
    "moments": (15, lambda d: repn.moments_report(d or 4, d or 4)),
    "peterweyl": (6, lambda d: repn.verify_peter_weyl(d or 2).merge(
        repn.verify_weight_norms(3))),
    "spheres": (37, lambda d: _spheres(d or 2)),
    "completeness": (12, lambda d: repn.completeness_witness(d or 3, d or 3)),
}


def run(name: str, degree: int | None = None) -> Report:
    """The Report of suite `name` at `degree` (None: its defaults).
    Raises ValueError when degree is above the suite's cap."""
    cap, suite = SUITES[name]
    if degree is not None and degree > cap:
        raise ValueError(f"suite {name} runs --degree {cap} at most, got {degree}")
    return suite(degree)
