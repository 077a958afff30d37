"""Acceptance suite: one test per exit criterion, each printing a verdict
line.  Run with `pytest tests/test_acceptance.py -v -s`.

Every check is exact (canonical-form equality over Q(i)(t)).
"""

import json
import random
import time

from superq import _cache, dual, hopf, qfun, repn, spheres
from superq.algebra import (
    Element, basis_monomials, mono_bigrade, random_monomial, zeta_power,
)
from superq.report import Report
from superq.scalars import ONE, Scalar, T, T_INV, ZERO
from superq.tensor import AlgSlot, Tensor


def _verdict(num, label, ok, extra=""):
    line = f"ACCEPTANCE {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_basis_confluence():
    t0 = time.time()
    rng = random.Random(424242)
    ok = True
    for _ in range(1000):
        xs = [Element.monomial(random_monomial(rng, 4)) for _ in range(3)]
        if (xs[0] * xs[1]) * xs[2] != xs[0] * (xs[1] * xs[2]):
            ok = False
            break
    # idempotence: renormalizing a normal form is the identity
    for m in basis_monomials(4, "Asigma"):
        x = Element.monomial(m)
        if Element.one() * x != x or x * Element.one() != x:
            ok = False
            break
    took = time.time() - t0
    _verdict(1, "basis/confluence", ok and took < 60,
             f"1000 triples, {took:.1f}s < 60s")


def test_criterion_02_hopf_axioms():
    t0 = time.time()
    rep = hopf.verify_hopf(4)
    took = time.time() - t0
    _verdict(2, "Hopf + star axioms deg<=4", rep.ok and took < 120,
             f"{rep.checked} checks, {took:.1f}s < 120s")


def test_criterion_03_comodule_algebra():
    rep = hopf.verify_coaction(5)
    rep.merge(hopf.verify_coaction_morphism(3))
    # with y^2 = 0 imposed psi(y)^2 stays nonzero: that quotient plane is
    # not a comodule algebra
    psi_y = hopf.coaction("left", hopf.PlaneElement.monomial(0, 1, nilpotent=True))
    broken = psi_y * psi_y
    _verdict(3, "quantum plane comodule laws", rep.ok and not broken.is_zero(),
             f"{rep.checked} checks; y^2=0 control nonzero")


def test_criterion_04_dual_relations(monkeypatch):
    rep = dual.verify_uq_relations(5)
    _cache.clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(dual, "_E_VALUE", -dual._E_VALUE)
            bad = dual.verify_uq_relations(1)
    finally:
        _cache.clear()
    uncal_fails_at_a = any("(1, 0, 0, 0, 0)" in f["input"] for f in bad.failures)
    _verdict(4, "dual algebra relations deg<=5", rep.ok and uncal_fails_at_a,
             f"{rep.checked} checks; uncalibrated failure at a reproduced")


def test_criterion_05_pairing_rank():
    rep = dual.pairing_gram_rank(3, 6)
    _verdict(5, "pairing Gram rank (bounds 3/6)", rep.ok,
             "; ".join(rep.notes))


def test_criterion_06_spheres():
    rep = spheres.verify_M()
    rep.merge(spheres.verify_infinity_relations())
    chars = spheres.characters_of_S_infinity()
    chars_ok = sorted(str(c[1]) for c in chars) == ["-1", "1"] and \
        all(c[0].is_zero() and c[2].is_zero() for c in chars)
    no_mix = not spheres.find_relations((ONE, ZERO, ONE), "lower").exists
    _verdict(6, "sphere matrix, relations, characters",
             rep.ok and chars_ok and no_mix,
             f"{rep.checked} checks; characters (0,+-1,0); "
             "alpha0=0 lower-mixing relation: none exists")


def test_criterion_07_matrix_coefficients():
    t0 = time.time()
    ok = True
    checked = 0
    for twoL in range(6):
        for s in (0, 1):
            mat = repn.matrix_coefficients(twoL, s)
            cf = repn.closed_form_matrix(twoL, s)
            for key in mat.entries:
                checked += 1
                if mat.entries[key] != cf.entries[key]:
                    ok = False
    took = time.time() - t0
    _verdict(7, "closed forms == coproduct route, 2l<=5", ok and took < 600,
             f"{checked} entries, {took:.1f}s < 600s")


def delta_power_formula_check(max_m):
    """Delta(a^m) and Delta(c^m) against the explicit q-binomial sums."""
    rep = Report()
    slots = (AlgSlot("Asigma"), AlgSlot("Asigma"))
    for m in range(max_m + 1):
        lhs_a = hopf.coproduct(Element.generator("a") ** m)
        lhs_c = hopf.coproduct(Element.generator("c") ** m)
        rhs_a = Tensor(slots)
        rhs_c = Tensor(slots)
        for k in range(m + 1):
            coeff = qfun.gauss_binomial(m, k, qfun.TM2)
            sa = -coeff if (k // 2) % 2 else coeff
            rhs_a = rhs_a + Tensor(slots, {
                ((m - k, k, 0, 0, 0), (m - k, 0, k, 0, 0)): sa})
            rhs_c = rhs_c + Tensor(slots, {
                ((0, 0, m - k, k, 0), (m - k, 0, k, 0, 0)): coeff})
        rep.check(f"Delta(a^{m})", lhs_a == rhs_a, lhs_a, rhs_a)
        rep.check(f"Delta(c^{m})", lhs_c == rhs_c, lhs_c, rhs_c)
    return rep


def projection_formula_check(max_n):
    """(id ox P)Delta(zeta^n) as an explicit sum of Pochhammer products."""
    rep = Report()
    slots = (AlgSlot("Asigma"), AlgSlot("Asigma"))
    v = qfun.TM2
    for n in range(max_n + 1):
        dz = hopf.coproduct(zeta_power(n))
        lhs = dz.apply(1, lambda mm: {mm: ONE} if mono_bigrade(mm) == (0, 0) else {})
        rhs = Tensor(slots)
        for j in range(n + 1):
            coeff = qfun.gauss_binomial(n, j, v) ** 2 * Scalar.t_power(2 * j * (n - j))
            left = zeta_power(n - j) * repn._qpoly_to_element(qfun.pochhammer_poly(T * T, j))
            right = zeta_power(j) * repn._qpoly_to_element(
                qfun.pochhammer_poly(v, n - j, scale=v))
            rhs = rhs + Tensor.from_elements([left, right]).scale(coeff)
        rep.check(f"projection formula n={n}", lhs == rhs, lhs, rhs)
    return rep


def test_criterion_08_power_formulas():
    rep = delta_power_formula_check(6)            # coproduct powers
    ok = rep.ok
    # a^m d^m, d^m a^m and the Pochhammer forms, m <= 6
    a, d, b, c, s = (Element.generator(x) for x in "a d b c sigma".split())
    v = T_INV * T_INV
    for m in range(7):
        lhs = a ** m * d ** m
        rhs = Element.zero()
        for k in range(m + 1):
            coeff = qfun.gauss_binomial(m, k, v) * Scalar.t_power(2 * k * m - k * k)
            rhs = rhs + ((c * b) ** k) * (s ** ((m - k) % 2)) * coeff
        ok = ok and lhs == rhs
        lhs2 = d ** m * a ** m
        rhs2 = Element.zero()
        for k in range(m + 1):
            coeff = qfun.gauss_binomial(m, k, v) * Scalar.t_power(-k * k)
            rhs2 = rhs2 + ((c * b * s) ** k) * (s ** (m % 2)) * coeff
        ok = ok and lhs2 == rhs2
        up = qfun.pochhammer_poly(T * T, m)
        dn = qfun.pochhammer_poly(v, m, scale=v)
        sig = s ** (m % 2)
        ok = ok and lhs == sum(
            (zeta_power(r).scale(cf) for r, cf in up.terms.items()),
            Element.zero()) * sig
        ok = ok and lhs2 == sum(
            (zeta_power(r).scale(cf) for r, cf in dn.terms.items()),
            Element.zero()) * sig
    proj = projection_formula_check(5)
    _verdict(8, "power formulas", ok and proj.ok,
             f"coproduct powers {rep.checked}, projection {proj.checked}")


def test_criterion_09_haar_peter_weyl():
    rep = repn.verify_integral(5)
    ok = rep.ok
    two_routes = all(
        repn.haar_zeta(n) == repn.haar_via_corep_expansion(zeta_power(n))
        for n in range(9))
    moments_rep = repn.moments_report(4, 4)
    pw = repn.verify_peter_weyl(3)
    norms = repn.verify_weight_norms(3)
    _verdict(9, "Haar + orthogonality",
             ok and two_routes and moments_rep.ok and pw.ok and norms.ok,
             f"integral {rep.checked}, orthogonality {pw.checked}, "
             f"moments {moments_rep.checked}; sigma-line and printed-formula "
             "discrepancies documented")


def test_criterion_10_completeness():
    rep = repn.completeness_witness(4, 4)
    _verdict(10, "completeness of corep entries deg<=4", rep.ok,
             f"{rep.checked} checks")


def test_criterion_11_cli():
    from superq.cli import main
    from superq.parser import parse, random_ast, to_text

    rng = random.Random(20240808)
    ok = True
    for _ in range(1000):
        ast = random_ast(rng, depth=3)
        if parse(to_text(ast)) != ast:
            ok = False
            break
    # exit-code contract
    ok = ok and main(["eps", "a"]) == 0
    ok = ok and main(["nf", "a*("]) == 2
    ok = ok and main(["bogus"]) == 2
    # schema validation of a representative json output
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["nf", "d*a", "--json"])
    ok = ok and code == 0
    import jsonschema
    from pathlib import Path
    from referencing import Registry, Resource
    schema_dir = Path(__file__).resolve().parents[1] / "docs" / "schemas"
    resources = []
    for path in schema_dir.glob("*.json"):
        doc = json.loads(path.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
        resources.append((path.name, Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = json.loads((schema_dir / "element.json").read_text())
    jsonschema.validators.Draft202012Validator(
        schema, registry=registry).validate(json.loads(buf.getvalue()))
    _verdict(11, "CLI round-trip, exit codes, schemas", ok,
             "1000 ASTs; exit codes 0/2; element schema validated")
