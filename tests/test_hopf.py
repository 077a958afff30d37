import pytest

from superq import _cache, algebra, hopf
from superq.algebra import Element
from superq.hopf import (
    HopfStructureError, PlaneElement, antipode, coaction, comodule_matrix,
    coproduct, counit, star, tensor_star, verify_coaction,
    verify_coaction_morphism, verify_hopf,
)
from superq.scalars import I_UNIT, ONE, Scalar, T, T_INV
from superq.tensor import AlgSlot, PlaneSlot, Tensor


def gen(name, ring="Asigma"):
    return Element.generator(name, ring)


def tens(*elements):
    return Tensor.from_elements(list(elements))


def test_comodule_matrix_refuses_a_vector_whose_coproduct_leaves_its_span():
    # Delta(a) = a (x) a + b (x) c: the right leg c is not in span{a}
    with pytest.raises(AssertionError):
        comodule_matrix({0: gen("a")})


def test_plane_printers():
    # PlaneElement and the plane slots of a coaction Tensor print their
    # monomials alike: x^m*y^n, or 1
    p = PlaneElement({(0, 0): ONE, (1, 0): T, (2, 1): -T_INV, (0, 3): I_UNIT + T})
    assert str(p) == "1 + (t + i)*y^3 + (t)*x + ((-1)/t)*x^2*y"
    assert str(PlaneElement()) == "0"
    assert str(coaction("left", PlaneElement.monomial(1, 1))) == (
        "b*d (x) y^2 + ((-1)/t)*b*c (x) x*y + a*d (x) x*y + a*c (x) x^2")
    assert str(coaction("right", PlaneElement.monomial(2, 0)
                        + PlaneElement.monomial(0, 1).scale(T))) == (
        "t*y (x) d - y^2 (x) c^2 + t*x (x) b + ((t^2 + 1)/t^2)*x*y (x) a*c"
        " + x^2 (x) a^2")
    assert str(coaction("right", PlaneElement.one())) == "1 (x) 1"


def test_coproduct_generators():
    a, b, c, d, s = (gen(x) for x in "a b c d sigma".split())
    assert coproduct(a) == tens(a, a) + tens(b, c)
    assert coproduct(b) == tens(a, b) + tens(b, d)
    assert coproduct(c) == tens(c, a) + tens(d, c)
    assert coproduct(d) == tens(c, b) + tens(d, d)
    assert coproduct(s) == tens(s, s)
    assert coproduct(Element.one()) == tens(Element.one(), Element.one())


def test_coproduct_a_squared():
    # Delta(a^2) = a^2 ox a^2 + (1+t^-2) ab ox ac - b^2 ox c^2
    a, b, c = gen("a"), gen("b"), gen("c")
    lhs = coproduct(a * a)
    rhs = tens(a * a, a * a) \
        + tens(a * b, a * c).scale(ONE + T_INV * T_INV) \
        - tens(b * b, c * c)
    assert lhs == rhs


def test_coproduct_is_algebra_morphism():
    import random
    rng = random.Random(41)
    for _ in range(25):
        x = Element.monomial(algebra.random_monomial(rng, 4))
        y = Element.monomial(algebra.random_monomial(rng, 4))
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_counit_values():
    assert counit(gen("a")) == ONE
    assert counit(gen("b") * gen("c")).is_zero()
    assert counit(gen("sigma")) == ONE
    assert counit(gen("a") * gen("d")) == ONE


def test_antipode_generators():
    a, b, c, d, s = (gen(x) for x in "a b c d sigma".split())
    assert antipode(a) == d * s
    assert antipode(b) == -(b * s) * T_INV
    assert antipode(c) == (c * s) * T
    assert antipode(d) == a * s
    assert antipode(s) == s


def test_antipode_convolution_on_a():
    # m(S ox id)Delta(a) = S(a)a + S(b)c = d sigma a + t^-1 b c sigma = 1
    a = gen("a")
    dx = coproduct(a)
    total = Element.zero()
    for (m1, m2), coeff in dx.terms.items():
        total = total + (antipode(Element.monomial(m1)) * Element.monomial(m2)).scale(coeff)
    assert total == Element.one()


def test_antipode_requires_asigma():
    with pytest.raises(HopfStructureError):
        antipode(gen("a", "B"))
    with pytest.raises(HopfStructureError):
        star(gen("a", "Bsigma"))


def test_star_generators():
    a, b, c, d, s = (gen(x) for x in "a b c d sigma".split())
    assert star(a) == d * s
    assert star(b) == (c * s) * T
    assert star(c) == -(b * s) * T_INV
    assert star(d) == a * s
    assert star(s) == s


def test_star_involution():
    for name in ("a", "b", "c", "d", "sigma"):
        assert star(star(gen(name))) == gen(name)
    x = gen("a") * gen("b") * Scalar.from_gauss(2, 3)
    assert star(star(x)) == x


def test_star_is_antilinear():
    i = Scalar.from_gauss(0, 1)
    x = gen("a").scale(i)
    assert star(x) == star(gen("a")).scale(Scalar.from_gauss(0, -1))


def test_a_times_a_star():
    # a a* = a d sigma = 1 - t bc sigma
    a, b, c, s = gen("a"), gen("b"), gen("c"), gen("sigma")
    assert gen("a") * star(gen("a")) == Element.one() - (b * c * s) * T


def test_star_coproduct_compatibility_on_a():
    lhs = tensor_star(coproduct(gen("a")))
    rhs = coproduct(star(gen("a")))
    assert lhs == rhs


def test_verify_hopf_low_degree():
    rep = verify_hopf(1)
    assert rep.ok, str(rep)


def test_verify_hopf_degree_three():
    rep = verify_hopf(3)
    assert rep.ok, str(rep)


def test_verify_hopf_negative_control(monkeypatch):
    # Breaking sigma b = -b sigma and sigma c = -c sigma to +b sigma and
    # +c sigma must make the axioms fail.
    x = gen("b") * gen("sigma") + gen("sigma") * gen("c") + gen("d")
    before = (coproduct(x), antipode(x))
    assert verify_hopf(1).ok        # fills the memo tables the check reads
    _cache.clear()
    try:
        with monkeypatch.context() as patch:
            # _mono_mul's every term carries (-1)^((J+K)u) for b^J c^K
            # passing sigma^u; multiplying by it again cancels the sign.
            mono_mul = algebra._mono_mul

            def unsigned(m1, m2, ring):
                flip = m1[4] * (m2[1] + m2[2]) % 2
                return tuple((m, -c if flip else c) for m, c in mono_mul(m1, m2, ring))

            patch.setattr(algebra, "_mono_mul", unsigned)
            # The break flips the two sigma relations and no other.
            s = gen("sigma", "Bsigma")
            for g in ("a", "b", "c", "d"):
                y = gen(g, "Bsigma")
                assert s * y == y * s, g
            b, c, d = gen("b", "Bsigma"), gen("c", "Bsigma"), gen("d", "Bsigma")
            assert b * c == -(c * b) and b * d == -(d * b) * T
            rep = verify_hopf(1)
    finally:
        _cache.clear()
    assert not rep.ok
    assert rep.failures[0]["input"]
    # Nothing computed under the broken rule is left in the memo tables.
    assert verify_hopf(1).ok
    assert (coproduct(x), antipode(x)) == before


def test_coassociativity_degree_four():
    ring = "Asigma"
    slots = (AlgSlot(ring), AlgSlot(ring))
    for m in algebra.basis_monomials(4, ring):
        dx = coproduct(Element.monomial(m, ring))
        lhs = dx.split(0, hopf._delta_terms_fn(ring), slots)
        rhs = dx.split(1, hopf._delta_terms_fn(ring), slots)
        assert lhs == rhs, f"coassociativity fails at {m}"


# ---------------------------------------------------------------------------
# Quantum plane
# ---------------------------------------------------------------------------

def test_plane_relation():
    x = PlaneElement.monomial(1, 0)
    y = PlaneElement.monomial(0, 1)
    assert x * y == PlaneElement({(1, 1): ONE})
    assert y * x == PlaneElement({(1, 1): T_INV})


def test_coaction_generators():
    x = PlaneElement.monomial(1, 0)
    y = PlaneElement.monomial(0, 1)
    psi_x = coaction("left", x)
    assert psi_x.terms == {((1, 0, 0, 0, 0), (1, 0)): ONE,
                           ((0, 1, 0, 0, 0), (0, 1)): ONE}
    psi_y = coaction("left", y)
    assert psi_y.terms == {((0, 0, 1, 0, 0), (1, 0)): ONE,
                           ((0, 0, 0, 1, 0), (0, 1)): ONE}
    rho_x = coaction("right", x)
    assert rho_x.terms == {((1, 0), (1, 0, 0, 0, 0)): ONE,
                           ((0, 1), (0, 0, 1, 0, 0)): ONE}


def test_counit_recovers_identity():
    y = PlaneElement.monomial(0, 1)
    psi = coaction("left", y)
    ce = psi.contract(0, lambda mm: counit(Element.monomial(mm, "B")))
    assert list(ce.terms) == [((0, 1),)]
    assert ce.terms[((0, 1),)] == ONE


def test_verify_coaction_suite():
    rep = verify_coaction(5)
    assert rep.ok, str(rep)
    rep2 = verify_coaction_morphism(3)
    assert rep2.ok, str(rep2)


def test_nilpotent_plane_is_not_comodule_algebra():
    # psi(y)^2 != 0 even though y^2 = 0 in the quotient plane.
    psi = coaction("left", PlaneElement.monomial(0, 1, nilpotent=True))
    sq = psi * psi
    assert not sq.is_zero()
    # its plane part contains x^2 and xy but no y^2
    assert all(key[1][1] < 2 for key in sq.terms)


# -- memoised prefixes and one-dict sums, against builders that start from 1 --

def _generators(m):
    """The generator names of monomial m from the left, one per factor."""
    return [g for g, e in zip(hopf._GEN_ORDER, m) for _ in range(e)]


def _delta_mono_from_unit(m, ring):
    """Delta(m) as Delta(g_1) ... Delta(g_n) multiplied from the unit."""
    slots = (AlgSlot(ring), AlgSlot(ring))
    acc = Tensor.unit(slots)
    for g in _generators(m):
        acc = acc * Tensor(slots, {pair: ONE for pair in hopf.DELTA_GEN[g]})
    return acc.terms


def _coact_mono_from_unit(which, mx, my, nilpotent):
    """psi(x)^mx psi(y)^my multiplied from the unit."""
    plane = PlaneSlot(nilpotent)
    slots = (AlgSlot("B"), plane) if which == "left" else (plane, AlgSlot("B"))
    gx, gy = hopf._COACT_L if which == "left" else hopf._COACT_R
    acc = Tensor.unit(slots)
    for g, e in ((gx, mx), (gy, my)):
        for _ in range(e):
            acc = acc * Tensor(slots, {pair: ONE for pair in g})
    return acc.terms


def _same(got, want):
    return got == want and list(got.items()) == list(want.items())


def test_prefix_built_monomials_match_products_from_the_unit():
    _cache.clear()
    for ring in algebra.RINGS:
        # highest degree first: long prefix chains fill, later calls hit them
        for m in reversed(list(algebra.basis_monomials(5, ring))):
            assert _same(hopf._delta_mono(m, ring), _delta_mono_from_unit(m, ring)), (ring, m)
    monos = [(mx, my) for mx in range(8) for my in range(8 - mx)]
    for which in ("left", "right"):
        for nilpotent in (False, True):
            for mx, my in reversed(monos):
                got = hopf._coact_mono(which, mx, my, nilpotent)
                want = _coact_mono_from_unit(which, mx, my, nilpotent)
                assert _same(got, want), (which, mx, my, nilpotent)


def test_one_dict_sums_keep_the_term_by_term_order():
    # The sums term by term, each piece copied into the growing result.
    x = Element("Asigma", {(2, 1, 0, 0, 1): T, (0, 1, 1, 2, 0): ONE + T,
                           (1, 0, 2, 0, 0): -T_INV, (0, 0, 0, 0, 0): ONE})
    slots = (AlgSlot("Asigma"), AlgSlot("Asigma"))
    old = Tensor(slots)
    for m, c in x.terms.items():
        old = old + Tensor(slots, _delta_mono_from_unit(m, "Asigma")).scale(c)
    assert _same(coproduct(x).terms, old.terms)

    for op, koszul in ((antipode, True), (star, False)):
        old = Element.zero()
        for m, c in x.terms.items():
            image = Element("Asigma", hopf._anti_mono(m, koszul))
            old = old + image.scale(c if koszul else c.conj())
        assert _same(op(x).terms, old.terms)

    dx = coproduct(x)
    old = Tensor(slots)
    for (m1, m2), c in dx.terms.items():
        piece = tens(star(Element.monomial(m1)), star(Element.monomial(m2))).scale(c.conj())
        old = old + (-piece if algebra.mono_parity(m1) and algebra.mono_parity(m2) else piece)
    assert _same(tensor_star(dx).terms, old.terms)

    p = PlaneElement({(3, 1): T, (0, 2): ONE + T, (2, 0): -ONE})
    for which in ("left", "right"):
        pslots = hopf._coact_slots(which, False)
        old = Tensor(pslots)
        for (mx, my), c in p.terms.items():
            old = old + Tensor(pslots, _coact_mono_from_unit(which, mx, my, False)).scale(c)
        assert _same(coaction(which, p).terms, old.terms)


def _count_products(monkeypatch):
    calls = [0]
    mul = Tensor.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)
    monkeypatch.setattr(Tensor, "__mul__", counted)
    return calls


def test_each_coproduct_and_coaction_is_built_once(monkeypatch):
    calls = _count_products(monkeypatch)
    _cache.clear()
    assert verify_hopf(4).ok
    # one product per non-unit basis monomial (395 when every call rebuilt it)
    assert calls[0] == len(list(algebra.basis_monomials(4, "Asigma"))) - 1 == 109
    for verifier, degree, bound in ((verify_coaction, 5, 169),            # 1660 rebuilt per call
                                    (verify_coaction_morphism, 3, 254)):  # 1800 rebuilt per call
        _cache.clear()
        calls[0] = 0
        assert verifier(degree).ok
        assert calls[0] <= bound, verifier.__name__


def test_deep_coaction_fills_prefixes_without_recursion():
    _cache.clear()
    psi = coaction("left", PlaneElement.monomial(1500, 0, nilpotent=True))
    assert len(psi.terms) == 2


# -- antipode and star of a basis monomial: closed form against products --

# S and star of the generators (A(sigma) monomial, coefficient) and parities.
_S_GEN = {"a": ((0, 0, 0, 1, 1), ONE), "b": ((0, 1, 0, 0, 1), -T_INV),
          "c": ((0, 0, 1, 0, 1), T), "d": ((1, 0, 0, 0, 1), ONE),
          "sigma": ((0, 0, 0, 0, 1), ONE)}
_STAR_GEN = {**_S_GEN, "b": ((0, 0, 1, 0, 1), T), "c": ((0, 1, 0, 0, 1), -T_INV)}
_ODD = {"b", "c"}


def _anti_mono_by_products(m, koszul):
    """S(m) (koszul) or m* as the product of the generator images in
    reverse order, one Element product per generator: S(x g) = +-S(g) S(x)
    with the Koszul sign of g passing the odd generators before it."""
    images = _S_GEN if koszul else _STAR_GEN
    acc = Element.one()
    odd = 0
    for g in _generators(m):
        mono, c = images[g]
        if koszul and odd and g in _ODD:
            c = -c
        acc = Element.monomial(mono, coeff=c) * acc
        odd ^= g in _ODD
    return acc.terms


def test_antipode_and_star_monomials_match_their_products():
    _cache.clear()
    monos = list(algebra.basis_monomials(8, "Asigma"))
    assert len(monos) == 570
    for m in monos:
        x = Element.monomial(m)
        for op, koszul in ((antipode, True), (star, False)):
            want = _anti_mono_by_products(m, koszul)
            assert hopf._anti_mono(m, koszul) == want, (m, koszul)
            assert op(x).terms == want, (m, koszul)


def test_anti_mono_refuses_a_and_d_together():
    for koszul in (True, False):
        with pytest.raises(ValueError):
            hopf._anti_mono((1, 0, 0, 1, 0), koszul)


def test_antipode_and_star_multiply_no_monomials(monkeypatch):
    import random
    rng = random.Random(29)
    x = Element.zero()
    for _ in range(12):
        m = algebra.random_monomial(rng, 5)
        x = x + Element.monomial(m).scale(Scalar.from_gauss(rng.randint(1, 9), rng.randint(-3, 3)))
    dx = coproduct(x)
    calls = [0]
    mono_mul = algebra._mono_mul

    def counted(*args):
        calls[0] += 1
        return mono_mul(*args)
    monkeypatch.setattr(algebra, "_mono_mul", counted)
    _cache.clear()
    assert len(antipode(x).terms) == len(star(x).terms) == len(x.terms) > 5
    assert len(tensor_star(dx).terms) == len(dx.terms)
    assert calls[0] == 0


def _sign_mutant(koszul, term):
    """_anti_mono with one term of one sign exponent dropped: the linear
    term (j for S, k for star) or the sigma passage (u+l)(j+k)."""
    anti_mono = hopf._anti_mono

    def mutant(m, k):
        out = anti_mono(m, k)
        if k != koszul:
            return out
        _, j, kk, l, u = m
        flip = (j if koszul else kk) if term == "linear" else (u + l) * (j + kk)
        return {mono: -c for mono, c in out.items()} if flip % 2 else out
    return mutant


@pytest.mark.parametrize("koszul", [True, False], ids=["antipode", "star"])
@pytest.mark.parametrize("term", ["linear", "sigma"])
def test_each_sign_term_is_needed(monkeypatch, koszul, term):
    # No table holds an antipode or star image, so nothing needs clearing.
    monkeypatch.setattr(hopf, "_anti_mono", _sign_mutant(koszul, term))
    assert not verify_hopf(4).ok
