"""Coalgebra and Hopf structure: coproduct, counit, antipode, star.

Also the quantum plane (one even, one odd coordinate, xy = t yx) with its
left and right coactions, and exhaustive verifiers for the Hopf and star
axioms on truncated bases.

Conventions that matter:

  * the antipode S is a graded anti-automorphism,
        S(uv) = (-1)^(p(u)p(v)) S(v) S(u);
  * star is anti-multiplicative without a Koszul sign, (uv)* = v* u*,
    and anti-linear on coefficients;
  * on a tensor product, star is (u ox v)* = (-1)^(p(u)p(v)) u* ox v*,
    which is what makes it a star structure for the graded multiplication
    (and the only reading under which star commutes with the coproduct).
"""

from __future__ import annotations

import random
from typing import Dict

from . import _cache, algebra
from .algebra import Element, Monomial, basis_monomials, mono_parity
from .report import Report
from .scalars import ONE, Scalar, T, T_INV, ZERO, add_term
from .tensor import AlgSlot, PlaneSlot, Tensor


class HopfStructureError(ValueError):
    """Operation requires the antipode/star, which B and B(sigma) lack."""


# Generator coproducts: name -> [(left mono, right mono, coeff)].
_A = (1, 0, 0, 0, 0)
_B = (0, 1, 0, 0, 0)
_C = (0, 0, 1, 0, 0)
_D = (0, 0, 0, 1, 0)
_S = (0, 0, 0, 0, 1)

DELTA_GEN = {
    "a": ((_A, _A), (_B, _C)),
    "b": ((_A, _B), (_B, _D)),
    "c": ((_C, _A), (_D, _C)),
    "d": ((_C, _B), (_D, _D)),
    "sigma": ((_S, _S),),
}

# Antipode and star images of the generators (A(sigma) elements).
_S_IMG = {
    "a": ((0, 0, 0, 1, 1), ONE),        # d sigma
    "b": ((0, 1, 0, 0, 1), -T_INV),     # -t^-1 b sigma
    "c": ((0, 0, 1, 0, 1), T),          # t c sigma
    "d": ((1, 0, 0, 0, 1), ONE),        # a sigma
    "sigma": ((0, 0, 0, 0, 1), ONE),
}

_STAR_IMG = {
    "a": ((0, 0, 0, 1, 1), ONE),        # d sigma
    "b": ((0, 0, 1, 0, 1), T),          # t c sigma
    "c": ((0, 1, 0, 0, 1), -T_INV),     # -t^-1 b sigma
    "d": ((1, 0, 0, 0, 1), ONE),        # a sigma
    "sigma": ((0, 0, 0, 0, 1), ONE),
}

_GEN_ORDER = ("a", "b", "c", "d", "sigma")


def _mono_gens(m: Monomial):
    for name, e in zip(_GEN_ORDER, m):
        for _ in range(e):
            yield name


_delta_cache: Dict[tuple, dict] = {}


def _delta_mono(m: Monomial, ring: str) -> dict:
    key = (m, ring, algebra.SIGMA_COMM_SIGN)
    cached = _delta_cache.get(key)
    if cached is None:
        slots = (AlgSlot(ring), AlgSlot(ring))
        acc = Tensor.unit(slots)
        for g in _mono_gens(m):
            gt = Tensor(slots, {pair: ONE for pair in DELTA_GEN[g]})
            acc = acc * gt
        cached = acc.terms
        _cache.trim(_delta_cache)
        _delta_cache[key] = cached
    return cached


def coproduct(x: Element) -> Tensor:
    """Graded-multiplicative extension of the matrix coproduct."""
    slots = (AlgSlot(x.ring), AlgSlot(x.ring))
    out = Tensor(slots)
    for m, coeff in x.terms.items():
        out = out + Tensor(slots, _delta_mono(m, x.ring)).scale(coeff)
    return out


def counit(x: Element) -> Scalar:
    """epsilon(a) = epsilon(d) = epsilon(sigma) = 1, epsilon(b) = epsilon(c) = 0."""
    out = ZERO
    for m, coeff in x.terms.items():
        if m[1] == 0 and m[2] == 0:
            out = out + coeff
    return out


_anti_cache: Dict[tuple, Element] = {}


def _fold_anti(x: Element, images: Dict, koszul: bool, conj_coeff: bool) -> Element:
    """Shared skeleton of antipode (koszul=True) and star (koszul=False)."""
    if x.ring != "Asigma":
        raise HopfStructureError(f"ring {x.ring} has no antipode/star")
    out = Element.zero(x.ring)
    tag = id(images)
    for m, coeff in x.terms.items():
        key = (m, koszul, tag, algebra.SIGMA_COMM_SIGN)
        acc = _anti_cache.get(key)
        if acc is None:
            acc = Element.one(x.ring)
            par = 0
            for g in _mono_gens(m):
                img = Element.monomial(*_img_args(images[g]))
                if koszul and (par * _PARITY[g]) % 2:
                    img = -img
                acc = img * acc
                par = (par + _PARITY[g]) % 2
            _cache.trim(_anti_cache)
            _anti_cache[key] = acc
        out = out + acc.scale(coeff.conj() if conj_coeff else coeff)
    return out


def _img_args(entry):
    mono, c = entry
    return mono, "Asigma", c


_PARITY = {"a": 0, "b": 1, "c": 1, "d": 0, "sigma": 0}


def antipode(x: Element) -> Element:
    """Graded anti-automorphism with S(a, b; c, d) = (d, -t^-1 b; t c, a) sigma."""
    return _fold_anti(x, _S_IMG, koszul=True, conj_coeff=False)


def star(x: Element) -> Element:
    """Anti-linear anti-multiplicative involution (defined for q < 0 real)."""
    return _fold_anti(x, _STAR_IMG, koszul=False, conj_coeff=True)


def tensor_star(t: Tensor) -> Tensor:
    """(u ox v)* = (-1)^(p(u)p(v)) u* ox v*, coefficients conjugated."""
    assert len(t.slots) == 2
    out = Tensor(t.slots)
    for (m1, m2), coeff in t.terms.items():
        e1 = star(Element.monomial(m1, "Asigma"))
        e2 = star(Element.monomial(m2, "Asigma"))
        piece = Tensor.from_elements([e1, e2]).scale(coeff.conj())
        if mono_parity(m1) and mono_parity(m2):
            piece = -piece
        out = out + piece
    return out


def _delta_terms_fn(ring: str):
    def fn(m: Monomial):
        d = coproduct(Element.monomial(m, ring))
        return dict(d.terms)
    return fn


def _mono_elem_fn(op):
    def fn(m: Monomial):
        return dict(op(Element.monomial(m, "Asigma")).terms)
    return fn


def verify_hopf(max_degree: int, delta=None, rng_seed: int = 0) -> Report:
    """Hopf and star axioms on all basis monomials of degree <= max_degree.

    Checks, per monomial x: coassociativity, both counit laws, both antipode
    convolution identities, star involutivity, the star/coproduct and
    star/counit compatibilities, and the order-four antipode-star braid.
    The graded anti-automorphism law for S is checked on random pairs.
    """
    delta = delta or coproduct
    ring = "Asigma"
    rep = Report()
    slots = (AlgSlot(ring), AlgSlot(ring))
    for m in basis_monomials(max_degree, ring):
        x = Element.monomial(m, ring)
        label = algebra._mono_str(m)
        dx = delta(x)

        lhs = dx.split(0, _delta_terms_fn(ring), slots)
        rhs = dx.split(1, _delta_terms_fn(ring), slots)
        rep.check(f"coassoc {label}", lhs == rhs, lhs, rhs)

        left_counit = dx.contract(0, lambda mm: counit(Element.monomial(mm, ring))).to_element()
        right_counit = dx.contract(1, lambda mm: counit(Element.monomial(mm, ring))).to_element()
        rep.check(f"counit-left {label}", left_counit == x, left_counit, x)
        rep.check(f"counit-right {label}", right_counit == x, right_counit, x)

        target = Element.one(ring).scale(counit(x))
        conv_l = _convolve(dx, apply_left=True)
        conv_r = _convolve(dx, apply_left=False)
        rep.check(f"antipode-left {label}", conv_l == target, conv_l, target)
        rep.check(f"antipode-right {label}", conv_r == target, conv_r, target)

        sx = star(x)
        rep.check(f"star-involution {label}", star(sx) == x, star(sx), x)
        lhs_star = tensor_star(dx)
        rhs_star = delta(sx)
        rep.check(f"star-coproduct {label}", lhs_star == rhs_star, lhs_star, rhs_star)
        rep.check(f"star-counit {label}", counit(sx) == counit(x).conj(),
                  counit(sx), counit(x).conj())

        braid1 = star(antipode(star(antipode(x))))
        braid2 = antipode(star(antipode(sx)))
        rep.check(f"star-antipode-braid {label}", braid1 == x and braid2 == x,
                  braid1, x)

    rng = random.Random(rng_seed)
    for _ in range(25):
        m1 = algebra.random_monomial(rng, max(1, max_degree))
        m2 = algebra.random_monomial(rng, max(1, max_degree))
        x = Element.monomial(m1, ring)
        y = Element.monomial(m2, ring)
        lhs = antipode(x * y)
        rhs = antipode(y) * antipode(x)
        if mono_parity(m1) and mono_parity(m2):
            rhs = -rhs
        rep.check(f"S anti-automorphism {algebra._mono_str(m1)},{algebra._mono_str(m2)}",
                  lhs == rhs, lhs, rhs)
    return rep


def _convolve(dx: Tensor, apply_left: bool) -> Element:
    leg = 0 if apply_left else 1
    applied = dx.apply(leg, _mono_elem_fn(antipode))
    out = Element.zero("Asigma")
    for (m1, m2), coeff in applied.terms.items():
        out = out + (Element.monomial(m1, "Asigma") * Element.monomial(m2, "Asigma")).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# Quantum plane and coactions
# ---------------------------------------------------------------------------

class PlaneElement:
    """Linear combination of plane monomials x^m y^n (xy = t yx, p(y) = 1)."""

    __slots__ = ("terms", "nilpotent")

    def __init__(self, terms=None, nilpotent: bool = False):
        self.nilpotent = nilpotent
        src = {m: c for m, c in (terms or {}).items() if c}
        if nilpotent:
            src = {m: c for m, c in src.items() if m[1] < 2}
        self.terms = src

    @staticmethod
    def monomial(mx: int, my: int, coeff: Scalar = ONE,
                 nilpotent: bool = False) -> "PlaneElement":
        return PlaneElement({(mx, my): coeff}, nilpotent)

    @staticmethod
    def one(nilpotent: bool = False) -> "PlaneElement":
        return PlaneElement.monomial(0, 0, nilpotent=nilpotent)

    def __eq__(self, other):
        return (isinstance(other, PlaneElement) and self.terms == other.terms
                and self.nilpotent == other.nilpotent)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return PlaneElement(out, self.nilpotent)

    def __mul__(self, other):
        slot = PlaneSlot(self.nilpotent)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                for m, c in slot.mul(m1, m2).items():
                    add_term(out, m, c1 * c2 * c)
        return PlaneElement(out, self.nilpotent)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (mx, my) in sorted(self.terms):
            c = str(self.terms[(mx, my)])
            mono = "*".join(p for p in (
                ("x" if mx == 1 else f"x^{mx}" if mx else ""),
                ("y" if my == 1 else f"y^{my}" if my else "")) if p) or "1"
            bits.append(mono if c == "1" else f"({c})*{mono}")
        return " + ".join(bits)


# psi_L(x) = a ox x + b ox y;  psi_L(y) = c ox x + d ox y
_COACT_L = {"x": ((_A, (1, 0)), (_B, (0, 1))), "y": ((_C, (1, 0)), (_D, (0, 1)))}
# psi_R(x) = x ox a + y ox c;  psi_R(y) = x ox b + y ox d
_COACT_R = {"x": (((1, 0), _A), ((0, 1), _C)), "y": (((1, 0), _B), ((0, 1), _D))}


def coaction(which: str, p: PlaneElement) -> Tensor:
    """Left coaction (algebra ox plane) or right coaction (plane ox algebra),
    extended as a graded algebra morphism."""
    if which not in ("left", "right"):
        raise ValueError("which must be 'left' or 'right'")
    plane_slot = PlaneSlot(p.nilpotent)
    slots = (AlgSlot("B"), plane_slot) if which == "left" else (plane_slot, AlgSlot("B"))
    table = _COACT_L if which == "left" else _COACT_R
    out = Tensor(slots)
    for (mx, my), coeff in p.terms.items():
        acc = Tensor.unit(slots)
        for g, e in (("x", mx), ("y", my)):
            gt = Tensor(slots, {pair: ONE for pair in table[g]})
            for _ in range(e):
                acc = acc * gt
        out = out + acc.scale(coeff)
    return out


def verify_coaction(max_total_degree: int = 5) -> Report:
    """Comodule-algebra laws for both coactions on plane monomials."""
    rep = Report()
    ring_slot = AlgSlot("B")
    for which in ("left", "right"):
        for mx in range(max_total_degree + 1):
            for my in range(max_total_degree + 1 - mx):
                p = PlaneElement.monomial(mx, my)
                psi = coaction(which, p)
                label = f"{which} x^{mx} y^{my}"

                if which == "left":
                    ce = psi.contract(0, lambda mm: counit(Element.monomial(mm, "B")))
                else:
                    ce = psi.contract(1, lambda mm: counit(Element.monomial(mm, "B")))
                expect = Tensor((PlaneSlot(),), {((mx, my),): ONE})
                rep.check(f"counit law {label}", ce == expect, ce, expect)

                if which == "left":
                    lhs = psi.split(1, lambda mm: dict(coaction("left", PlaneElement.monomial(*mm)).terms),
                                    (ring_slot, PlaneSlot()))
                    rhs = psi.split(0, _delta_terms_fn("B"), (ring_slot, ring_slot))
                else:
                    lhs = psi.split(0, lambda mm: dict(coaction("right", PlaneElement.monomial(*mm)).terms),
                                    (PlaneSlot(), ring_slot))
                    rhs = psi.split(1, _delta_terms_fn("B"), (ring_slot, ring_slot))
                rep.check(f"coassociativity {label}", lhs == rhs, lhs, rhs)

        # xy = t yx must be preserved: psi(x)psi(y) = t psi(y)psi(x).  In the
        # expansion this is exactly the generator-relation bookkeeping of the
        # quantum-plane compatibility argument.
        px = coaction(which, PlaneElement.monomial(1, 0))
        py = coaction(which, PlaneElement.monomial(0, 1))
        lhs = px * py
        rhs = (py * px).scale(T)
        rep.check(f"{which} plane relation xy = t yx", lhs == rhs, lhs, rhs)
    return rep


def verify_coaction_morphism(max_degree: int = 3) -> Report:
    """psi(pq) = psi(p) psi(q) on plane monomials (graded morphism property)."""
    rep = Report()
    monos = [(mx, my) for mx in range(max_degree + 1)
             for my in range(max_degree + 1 - mx)]
    for which in ("left", "right"):
        for m1 in monos:
            for m2 in monos:
                p1, p2 = PlaneElement.monomial(*m1), PlaneElement.monomial(*m2)
                lhs = coaction(which, p1 * p2)
                rhs = coaction(which, p1) * coaction(which, p2)
                rep.check(f"{which} morphism {m1}x{m2}", lhs == rhs, lhs, rhs)
    return rep


def nilpotent_plane_breaks_coaction() -> Tensor:
    """With y^2 = 0 imposed, psi(y)^2 is nonzero although y^2 = 0: the
    quotient plane is not a comodule algebra.  Returns psi(y)^2."""
    p = PlaneElement.monomial(0, 1, nilpotent=True)
    psi = coaction("left", p)
    return psi * psi
