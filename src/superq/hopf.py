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

On generators, S(a, b; c, d) = (d, -t^-1 b; t c, a) sigma and
(a, b; c, d)* = (d, t c; -t^-1 b, a) sigma, with S(sigma) = sigma* = sigma.
Each sends the basis monomial m = a^i b^j c^k d^l sigma^u (i l = 0) to one
signed power of t times one basis monomial; with s = (u+i+j+k+l) mod 2,

    S(m) = (-1)^(jk + j + (u+l)(j+k)) t^(k-j) a^l b^j c^k d^i sigma^s,
    m*   = (-1)^(k + (j+k)(j+k-1)/2 + (u+l)(j+k)) t^(j-k) a^l b^k c^j d^i sigma^s,

the product of the generator images in reverse order.  Moving every sigma
to the right, sigma^u and the l sigmas of (a sigma)^l pass the j + k odd
generators, and the sigmas of the odd images pass (j+k)(j+k-1)/2 odd
generators among themselves.  For S that count cancels the Koszul sign of
the reversal, c^k b^j -> b^j c^k adds jk and the j factors -t^-1 add j;
star has no Koszul sign, keeps b^k c^j in order and has k factors -t^-1.
"""

from __future__ import annotations

import random
from typing import Dict

from . import _cache, algebra
from .algebra import Element, Monomial, basis_monomials, mono_parity
from .report import Report
from .scalars import ONE, Scalar, T, ZERO, _Combination, add_term, signed_t_power, sum_images
from .tensor import AlgSlot, PlaneSlot, Tensor, _distribute, _tensor


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

_GEN_ORDER = ("a", "b", "c", "d", "sigma")


def _prefix_product(table: dict, key, m: tuple, slots, gens) -> dict:
    """Terms of the product of the generators of monomial m, taken left to
    right in the order of m's exponents, built on memoised prefixes.

    gens[i] is the Tensor image of the generator whose exponent is m[i],
    and key(p) is table's key for the monomial p.  The prefix of p is p
    with the exponent of its last generator lowered by one, so
    p = prefix * gens[i] is exactly one acc * gen step of the left-to-right
    product: the result is that product's dict, in its term order, with
    equal coefficients.  Prefixes missing from table are built shortest
    first, without recursion, and stored in it; the caller's memo stores m
    itself.
    """
    chain = []
    acc = None
    p = m
    while any(p):
        i = max(j for j, e in enumerate(p) if e)
        chain.append((p, i))
        p = p[:i] + (p[i] - 1,) + p[i + 1:]
        acc = table.get(key(p))
        if acc is not None:
            break
    acc = Tensor.unit(slots) if acc is None else _tensor(slots, acc)
    for p, i in reversed(chain):
        acc = acc * gens[i]
        if p is not m:
            _cache.store(table, key(p), acc.terms)
    return acc.terms


_delta_cache: Dict[tuple, dict] = {}


@_cache.memo(_delta_cache)
def _delta_mono(m: Monomial, ring: str) -> dict:
    """Terms of Delta(m) = Delta(prefix) Delta(g), where g is the last
    generator of m in a, b, c, d, sigma order and prefix is m with that
    exponent lowered by one (a normal-form prefix stays in the basis).

    Each entry is one step of the product Delta(g_1) ... Delta(g_n) over the
    generators of m from the left, so the dict and its term order are those
    of that product.  The returned dict is shared: read it, do not mutate.
    """
    slots = (AlgSlot(ring), AlgSlot(ring))
    gens = [Tensor(slots, dict.fromkeys(DELTA_GEN[g], ONE)) for g in _GEN_ORDER]
    return _prefix_product(_delta_cache, lambda p: (p, ring), m, slots, gens)


def coproduct(x: Element) -> Tensor:
    """Graded-multiplicative extension of the matrix coproduct: the linear
    extension of the memoised monomial images _delta_mono."""
    ring = x.ring
    return _tensor((AlgSlot(ring), AlgSlot(ring)),
                   sum_images(x.terms.items(), lambda m: _delta_mono(m, ring).items()))


def counit(x: Element) -> Scalar:
    """epsilon(a) = epsilon(d) = epsilon(sigma) = 1, epsilon(b) = epsilon(c) = 0."""
    out = ZERO
    for m, coeff in x.terms.items():
        if m[1] == 0 and m[2] == 0:
            out = out + coeff
    return out


def _fold_anti(x: Element, koszul: bool) -> Element:
    """Shared skeleton of antipode (koszul=True) and star (koszul=False,
    anti-linear on coefficients): the linear extension of the monomial
    images _anti_mono, over conjugated coefficients for star."""
    if x.ring != "Asigma":
        raise HopfStructureError(f"ring {x.ring} has no antipode/star")
    pairs = x.terms.items() if koszul else ((m, c.conj()) for m, c in x.terms.items())
    return Element(x.ring, sum_images(pairs, lambda m: _anti_mono(m, koszul).items()))


def _anti_mono(m: Monomial, koszul: bool) -> dict:
    """{S(m): coeff} (koszul=True) or {m*: coeff} (koszul=False) for the
    A(sigma) basis monomial m, in the closed form of the module docstring.

    Raises ValueError when m has both a and d (not a basis monomial).
    """
    i, j, k, l, u = m
    if i and l:
        raise ValueError(f"{m} is not an A(sigma) basis monomial (need i=0 or l=0)")
    odd = j + k
    eps = (u + l) * odd
    s = (u + i + odd + l) % 2
    if koszul:
        return {(l, j, k, i, s): signed_t_power(j * k + j + eps, k - j)}
    return {(l, k, j, i, s): signed_t_power(k + odd * (odd - 1) // 2 + eps, j - k)}


def antipode(x: Element) -> Element:
    """Graded anti-automorphism with S(a, b; c, d) = (d, -t^-1 b; t c, a) sigma."""
    return _fold_anti(x, koszul=True)


def star(x: Element) -> Element:
    """Anti-linear anti-multiplicative involution (defined for q < 0 real)."""
    return _fold_anti(x, koszul=False)


def tensor_star(t: Tensor) -> Tensor:
    """(u ox v)* = (-1)^(p(u)p(v)) u* ox v*, coefficients conjugated: the
    linear extension of the pure tensor of the monomials' star images."""
    assert len(t.slots) == 2
    pairs = ((k, -c.conj() if mono_parity(k[0]) and mono_parity(k[1]) else c.conj())
             for k, c in t.terms.items())
    return _tensor(t.slots, sum_images(
        pairs, lambda k: _distribute(_anti_mono(m, False).items() for m in k)))


def _delta_terms_fn(ring: str):
    return lambda m: _delta_mono(m, ring)


def verify_hopf(max_degree: int, rng_seed: int = 0) -> Report:
    """Hopf and star axioms on all basis monomials of degree <= max_degree.

    Checks, per monomial x: coassociativity, both counit laws, both antipode
    convolution identities, star involutivity, the star/coproduct and
    star/counit compatibilities, and the order-four antipode-star braid.
    The graded anti-automorphism law for S is checked on random pairs.
    """
    ring = "Asigma"
    rep = Report()
    slots = (AlgSlot(ring), AlgSlot(ring))
    for m in basis_monomials(max_degree, ring):
        x = Element.monomial(m, ring)
        label = algebra._mono_str(m)
        dx = coproduct(x)

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
        ssx = star(sx)
        rep.check(f"star-involution {label}", ssx == x, ssx, x)
        lhs_star = tensor_star(dx)
        rhs_star = coproduct(sx)
        rep.check(f"star-coproduct {label}", lhs_star == rhs_star, lhs_star, rhs_star)
        eps_sx, eps_x_bar = counit(sx), counit(x).conj()
        rep.check(f"star-counit {label}", eps_sx == eps_x_bar, eps_sx, eps_x_bar)

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
    """m (S ox id) dx or m (id ox S) dx: the antipode on one leg, then the
    linear extension of the monomial product over the two legs."""
    applied = dx.apply(0 if apply_left else 1, lambda m: _anti_mono(m, True))
    return Element("Asigma", sum_images(applied.terms.items(),
                                        lambda k: algebra._mono_mul(k[0], k[1], "Asigma")))


# ---------------------------------------------------------------------------
# Comodule matrices
# ---------------------------------------------------------------------------

def tensor_sum(pairs) -> Tensor:
    """sum x ox y over the (x, y) pairs of A(sigma) Elements."""
    out: dict = {}
    for x, y in pairs:
        for k, c in _distribute((x.terms.items(), y.terms.items())):
            add_term(out, k, c)
    return _tensor((AlgSlot("Asigma"), AlgSlot("Asigma")), out)


def comodule_matrix(vectors: dict) -> dict:
    """{(i, j): N_ij} with Delta(v_i) = sum_j N_ij ox v_j, read off the
    coproducts of vectors ({label: A(sigma) basis monomial with coefficient
    1}): N_ij collects the left legs of the terms whose right leg is v_j.
    Keys run over the labels row by row; an entry that does not occur is
    zero.

    Raises AssertionError when a right leg is none of the v_j.
    """
    owner = {m: j for j, v in vectors.items() for m in v.terms}
    found: dict = {}
    for i, v in vectors.items():
        for (left, right), c in coproduct(v).terms.items():
            j = owner.get(right)
            if j is None:
                raise AssertionError(f"right leg of Delta(v[{i}]) leaves the span at {right}")
            found.setdefault((i, j), {})[left] = c
    return {(i, j): Element("Asigma", found.get((i, j))) for i in vectors for j in vectors}


def corep_report(N: dict, labels) -> Report:
    """Delta(N_ij) = sum_k N_ik ox N_kj and eps(N_ij) = delta_ij for the
    matrix {(i, j): N_ij} over labels."""
    rep = Report()
    for i in labels:
        for j in labels:
            lhs = coproduct(N[i, j])
            rhs = tensor_sum((N[i, k], N[k, j]) for k in labels)
            rep.check(f"corep law ({i},{j})", lhs == rhs, lhs, rhs)
            eps = counit(N[i, j])
            expected = ONE if i == j else ZERO
            rep.check(f"counit ({i},{j})", eps == expected, eps, expected)
    return rep


# ---------------------------------------------------------------------------
# Quantum plane and coactions
# ---------------------------------------------------------------------------

class PlaneElement(_Combination):
    """Zero-free combination of plane monomials x^m y^n (xy = t yx,
    p(y) = 1), with no y^2 term when nilpotent.  Negation, scaling,
    equality and the product are _Combination's, with PlaneSlot's product
    as _times; a sum or product takes either flag and keeps the left
    operand's."""

    __slots__ = ("nilpotent",)
    _TAG = "nilpotent"
    _times = PlaneSlot.mul

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

    def _check(self, other) -> None:
        """Only the class must match: the flags may differ."""
        if type(other) is not PlaneElement:
            raise TypeError(f"cannot combine PlaneElement with {type(other).__name__}")

    def __add__(self, other):
        out = _Combination.__add__(self, other)
        if self.nilpotent and not other.nilpotent:     # drop other's y^2 terms
            return PlaneElement(out.terms, True)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = str(self.terms[m])
            mono = algebra._mono_str(m, PlaneSlot.SYMBOLS)
            bits.append(mono if c == "1" else f"({c})*{mono}")
        return " + ".join(bits)


# psi_L(x) = a ox x + b ox y;  psi_L(y) = c ox x + d ox y
_COACT_L = (((_A, (1, 0)), (_B, (0, 1))), ((_C, (1, 0)), (_D, (0, 1))))
# psi_R(x) = x ox a + y ox c;  psi_R(y) = x ox b + y ox d
_COACT_R = ((((1, 0), _A), ((0, 1), _C)), (((1, 0), _B), ((0, 1), _D)))


def _coact_slots(which: str, nilpotent: bool) -> tuple:
    plane_slot = PlaneSlot(nilpotent)
    return (AlgSlot("B"), plane_slot) if which == "left" else (plane_slot, AlgSlot("B"))


_coact_cache: Dict[tuple, dict] = {}


@_cache.memo(_coact_cache)
def _coact_mono(which: str, mx: int, my: int, nilpotent: bool) -> dict:
    """Terms of psi(x^mx y^my) = psi(prefix) psi(g), g = y when my > 0 and x
    otherwise, prefix the monomial with that exponent lowered by one; the
    dict and term order of psi(x)^mx psi(y)^my multiplied from the left, as
    in _delta_mono.  The returned dict is shared: read it, do not mutate."""
    slots = _coact_slots(which, nilpotent)
    gens = [Tensor(slots, dict.fromkeys(g, ONE))
            for g in (_COACT_L if which == "left" else _COACT_R)]
    return _prefix_product(_coact_cache, lambda p: (which,) + p + (nilpotent,),
                           (mx, my), slots, gens)


def coaction(which: str, p: PlaneElement) -> Tensor:
    """Left coaction (algebra ox plane) or right coaction (plane ox algebra),
    extended as a graded algebra morphism.

    Each monomial's image is read from a table built on memoised prefixes
    (_coact_mono), and sum_images extends it linearly: one dict in the
    order of p.terms and of each image's keys, the order of the
    term-by-term sum.
    """
    if which not in ("left", "right"):
        raise ValueError("which must be 'left' or 'right'")
    nil = p.nilpotent
    return _tensor(_coact_slots(which, nil), sum_images(
        p.terms.items(), lambda m: _coact_mono(which, m[0], m[1], nil).items()))


def verify_coaction(max_total_degree: int = 5) -> Report:
    """Comodule-algebra laws for both coactions on plane monomials."""
    rep = Report()
    ring_slot = AlgSlot("B")
    for which in ("left", "right"):
        slots = _coact_slots(which, False)
        alg = slots.index(ring_slot)
        for mx in range(max_total_degree + 1):
            for my in range(max_total_degree + 1 - mx):
                p = PlaneElement.monomial(mx, my)
                psi = coaction(which, p)
                label = f"{which} x^{mx} y^{my}"

                ce = psi.contract(alg, lambda mm: counit(Element.monomial(mm, "B")))
                expect = Tensor((PlaneSlot(),), {((mx, my),): ONE})
                rep.check(f"counit law {label}", ce == expect, ce, expect)

                lhs = psi.split(1 - alg, lambda mm: _coact_mono(which, *mm, False), slots)
                rhs = psi.split(alg, _delta_terms_fn("B"), (ring_slot, ring_slot))
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

