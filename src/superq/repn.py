"""Finite-dimensional comodules, matrix coefficients, Haar functional,
and the orthogonality relations.

Indices: spins l live in (1/2)Z and are passed as twoL = 2l; row/column
labels i, j in I_l = {-l, ..., l} are passed as twoI, twoJ with
twoI = twoL (mod 2).

Everything internal uses the UNNORMALIZED vectors

    xi'_i  = a^(l-i) c^(l+i) sigma^s      (left comodule)
    eta'_i = a^(l-i) b^(l+i) sigma^s      (right comodule)

whose published prefactors i^[(l+i)/2] binom(2l, l+i)^(1/2) contain square
roots; only the squared prefactor is ever materialized, and in the
unnormalized basis every matrix coefficient is square-root free (the four
binomial square roots in the closed forms collapse to a single binomial).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from . import _cache, linalg
from .algebra import (
    Element, Monomial, basis_monomials, bigrade, gauss_row, mono_bigrade,
    project_00, zeta_power,
)
from .hopf import antipode, comodule_matrix, coproduct, corep_report, star, tensor_sum
from .qfun import TM2, QPolynomial, little_jacobi, pochhammer, pochhammer_poly
from .report import Report
from .scalars import I_UNIT, ONE, Scalar, T, T_INV, ZERO, add_term, signed_t_power, sum_images


class CorepIndex:
    """Spin 2l, labels 2i and 2j, and sigma flag s of one matrix coefficient,
    validated on construction; immutable, equal and hashed field-wise."""

    __slots__ = ("twoL", "twoI", "twoJ", "s")

    def __init__(self, twoL: int, twoI: int, twoJ: int, s: int = 0):
        if twoL < 0:
            raise ValueError("twoL must be nonnegative")
        for name, v in (("twoI", twoI), ("twoJ", twoJ)):
            if abs(v) > twoL or (v - twoL) % 2:
                raise ValueError(f"{name}={v} invalid for twoL={twoL}")
        if s not in (0, 1):
            raise ValueError("s must be 0 or 1")
        init = object.__setattr__
        init(self, "twoL", twoL)
        init(self, "twoI", twoI)
        init(self, "twoJ", twoJ)
        init(self, "s", s)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self) -> Tuple[int, int, int, int]:
        return (self.twoL, self.twoI, self.twoJ, self.s)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "CorepIndex(twoL={}, twoI={}, twoJ={}, s={})".format(*self._key())


def index_range(twoL: int) -> List[int]:
    return list(range(-twoL, twoL + 1, 2))


def vector_norm_sq(twoL: int, twoI: int) -> Scalar:
    """Square of the i^[(l+i)/2] binom(2l, l+i)^(1/2) prefactor."""
    li = (twoL + twoI) // 2
    out = gauss_row(twoL)[li]
    return -out if (li // 2) % 2 else out


class ComoduleVector:
    __slots__ = ("element", "norm_sq", "normalized")

    def __init__(self, element: Element, norm_sq: Scalar, normalized: bool):
        self.element = element
        self.norm_sq = norm_sq
        self.normalized = normalized


def comodule_vector(side: str, idx: CorepIndex, normalized: bool = False) -> ComoduleVector:
    """Basis vector of the left (xi) or right (eta) spin-l comodule."""
    if side not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    twoL, twoI, s = idx.twoL, idx.twoI, idx.s
    lo, hi = (twoL - twoI) // 2, (twoL + twoI) // 2
    mono = (lo, 0, hi, 0, s) if side == "L" else (lo, hi, 0, 0, s)
    el = Element.monomial(mono, "Asigma")
    nsq = vector_norm_sq(twoL, twoI)
    if not normalized:
        return ComoduleVector(el, nsq, False)
    # A Gauss binomial is a product of distinct cyclotomic polynomials, and
    # Phi_d(t^2) is Phi_2d(t) or Phi_d(t) Phi_2d(t), so [2l, l+i] is
    # squarefree in t: N^2 is a square in Q(i)(t) only where it is +-1, at
    # i = +-l.  The vector is then xi'_i / N, with N = 1 or i.
    if abs(twoI) != twoL:
        raise ValueError(
            f"squared prefactor {nsq} is not a perfect square in Q(i)(t); "
            "only the unnormalized vector is exact")
    return ComoduleVector(el if nsq == ONE else el.scale(-I_UNIT), nsq, True)


# ---------------------------------------------------------------------------
# Matrix coefficients by coproduct expansion
# ---------------------------------------------------------------------------

class CorepMatrix:
    __slots__ = ("twoL", "s", "entries", "norm_sq")

    def __init__(self, twoL: int, s: int, entries: Dict[Tuple[int, int], Element],
                 norm_sq: Dict[int, Scalar]):
        self.twoL = twoL
        self.s = s
        self.entries = entries
        self.norm_sq = norm_sq

    def entry(self, twoI: int, twoJ: int) -> Element:
        return self.entries[(twoI, twoJ)]

    def indices(self) -> List[int]:
        return index_range(self.twoL)

    def to_json(self):
        return {
            "twoL": self.twoL,
            "s": self.s,
            "entries": [
                {"twoI": i, "twoJ": j, "value": e.to_json()}
                for (i, j), e in sorted(self.entries.items())
            ],
            "norm_sq": {str(i): v.to_json() for i, v in sorted(self.norm_sq.items())},
        }

    def __str__(self):
        return "\n".join(f"m[{i},{j}] = {e}" for (i, j), e in sorted(self.entries.items()))


_matrix_cache: Dict[tuple, CorepMatrix] = {}


# matrix_coefficients refuses 2l above 2 * MATRIX_BOUND.
MATRIX_BOUND = 6


def matrix_coefficients(twoL: int, s: int = 0) -> CorepMatrix:
    """Entries M'_ij with Delta(xi'_i) = sum_j M'_ij ox xi'_j, as read by
    _read_matrix.  Every call verifies the corepresentation and counit laws,
    the eta-side duality and the weight-space membership, and raises
    AssertionError when one fails; no other reader of the matrix checks."""
    if twoL > 2 * MATRIX_BOUND:
        raise ValueError(f"twoL={twoL} exceeds the configured bound {2 * MATRIX_BOUND}")
    mat = _read_matrix(twoL, s)
    rep = verify_corep_matrix(mat)
    if not rep.ok:
        raise AssertionError(f"corepresentation laws failed:\n{rep}")
    return mat


def _vectors(side: str, twoL: int, s: int) -> Dict[int, Element]:
    """{2i: xi'_i} (side "L") or {2i: eta'_i} (side "R") of spin l."""
    return {i: comodule_vector(side, CorepIndex(twoL, i, i, s)).element
            for i in index_range(twoL)}


@_cache.memo(_matrix_cache)
def _read_matrix(twoL: int, s: int) -> CorepMatrix:
    """The unchecked matrix of spin l: hopf.comodule_matrix reads it off the
    right legs xi'_j = a^(l-j) c^(l+j) sigma^s, basis monomials with
    coefficient 1, literally, and raises when a leg leaves their span."""
    return CorepMatrix(twoL, s, comodule_matrix(_vectors("L", twoL, s)),
                       {i: vector_norm_sq(twoL, i) for i in index_range(twoL)})


def verify_corep_matrix(mat: CorepMatrix) -> Report:
    """Corepresentation law, counit law, weight membership, eta duality."""
    idxs = mat.indices()
    rep = corep_report(mat.entries, idxs)
    for (twoI, twoJ), e in mat.entries.items():
        if e:
            got, expected = bigrade(e), (-twoI, -twoJ)
            rep.check(f"weight ({twoI},{twoJ})", got == expected, got, expected)
    # eta duality: Delta(eta'_i) = sum_j (Nsq_j / Nsq_i) eta'_j ox M'_ji
    etas = _vectors("R", mat.twoL, mat.s)
    for twoI in idxs:
        lhs = coproduct(etas[twoI])
        rhs = tensor_sum((etas[twoJ], mat.entry(twoJ, twoI).scale(
            mat.norm_sq[twoJ] / mat.norm_sq[twoI])) for twoJ in idxs)
        rep.check(f"eta duality i={twoI}", lhs == rhs, lhs, rhs)
    return rep


# ---------------------------------------------------------------------------
# Closed forms (little t-Jacobi polynomials in zeta)
# ---------------------------------------------------------------------------

def _qpoly_to_element(p: QPolynomial) -> Element:
    return Element("Asigma", sum_images(p.terms.items(), lambda r: zeta_power(r).terms.items()))


def _jacobi_element(n: int, alpha: int, beta: int) -> Element:
    return _qpoly_to_element(little_jacobi(n, alpha, beta, TM2))


def closed_form(twoL: int, twoI: int, twoJ: int) -> Element:
    """Square-root-free unnormalized matrix coefficient M'_ij.

    The published normalized closed forms carry prefactors with four
    binomial square roots and fourth roots of unity; conjugating by the
    vector normalizations collapses the radical product to a single Gauss
    binomial (an exact q-factorial identity) and cancels every imaginary
    unit, leaving only the (-1)^[(j-i)/2] sign on the b-side cases:

      i+j <= 0, i >= j:  t^((l+j)(i-j)) binom(l+i, i-j)
                            a^(-i-j) c^(i-j) s^(l+j) P_(l+j)^(i-j, -i-j)
      i+j <= 0, j >= i:  (-1)^[(j-i)/2] t^((l+i)(j-i)) binom(l-i, j-i)
                            a^(-i-j) b^(j-i) s^(l+i) P_(l+i)^(j-i, -i-j)
      i+j >= 0, j >= i:  (-1)^[(j-i)/2] t^((l-j)(j-i)) binom(l-i, j-i)
                            P_(l-j)^(j-i, i+j) b^(j-i) d^(i+j) s^(l-j)
      i+j >= 0, i >= j:  t^((l-i)(i-j)) binom(l+i, i-j)
                            P_(l-i)^(i-j, i+j) c^(i-j) d^(i+j) s^(l-i)

    with all Jacobi polynomials at base t^-2 in zeta.  At an index where
    two cases apply they are evaluated and asserted equal.  The cases share
    each distinct Jacobi element within the call: at i = j = 0 all four
    apply with P_l^(0,0), which is built once and multiplied four times.
    """
    CorepIndex(twoL, twoI, twoJ)
    li, lj = (twoL + twoI) // 2, (twoL + twoJ) // 2   # l+i, l+j
    mi, mj = (twoL - twoI) // 2, (twoL - twoJ) // 2   # l-i, l-j
    ij = (twoI + twoJ) // 2                           # i+j
    dij = (twoI - twoJ) // 2                          # i-j
    bsign = -ONE if ((-dij) // 2) % 2 else ONE
    jacobi = functools.lru_cache(maxsize=None)(_jacobi_element)
    results = []
    if ij <= 0 and dij >= 0:
        coeff = Scalar.t_power(lj * dij) * gauss_row(li)[dij]
        mono = Element.monomial((-ij, 0, dij, 0, lj % 2), "Asigma", coeff)
        results.append(mono * jacobi(lj, dij, -ij))
    if ij <= 0 and dij <= 0:
        coeff = bsign * Scalar.t_power(li * (-dij)) * gauss_row(mi)[-dij]
        mono = Element.monomial((-ij, -dij, 0, 0, li % 2), "Asigma", coeff)
        results.append(mono * jacobi(li, -dij, -ij))
    if ij >= 0 and dij <= 0:
        coeff = bsign * Scalar.t_power(mj * (-dij)) * gauss_row(mi)[-dij]
        mono = Element.monomial((0, -dij, 0, ij, mj % 2), "Asigma", ONE)
        results.append((jacobi(mj, -dij, ij) * mono).scale(coeff))
    if ij >= 0 and dij >= 0:
        coeff = Scalar.t_power(mi * dij) * gauss_row(li)[dij]
        mono = Element.monomial((0, 0, dij, ij, mi % 2), "Asigma", ONE)
        results.append((jacobi(mi, dij, ij) * mono).scale(coeff))
    first = results[0]
    for other in results[1:]:
        if other != first:
            raise AssertionError(
                f"case overlap disagrees at (twoL,twoI,twoJ)=({twoL},{twoI},{twoJ})")
    return first


def closed_form_matrix(twoL: int, s: int = 0) -> CorepMatrix:
    idxs = index_range(twoL)
    sig = Element.generator("sigma") if s else Element.one()
    entries = {}
    for i in idxs:
        for j in idxs:
            e = closed_form(twoL, i, j)
            entries[(i, j)] = e * sig if s else e
    return CorepMatrix(twoL, s, entries,
                       {i: vector_norm_sq(twoL, i) for i in idxs})


# ---------------------------------------------------------------------------
# Haar functional
# ---------------------------------------------------------------------------

_haar_zeta_cache: Dict[tuple, Scalar] = {}
_coord_cache: Dict[tuple, Scalar] = {}
_cache.register(_coord_cache)


@_cache.memo(_haar_zeta_cache)
def haar_zeta(n: int) -> Scalar:
    """h(zeta^n) = (1 - t^-2)/(1 - t^-2(n+1)), as for SU_q(2) [KS]."""
    return (ONE - TM2) / (ONE - Scalar.t_power(-2 * (n + 1)))


def _haar_mono(m: Monomial) -> Scalar:
    """h of one basis monomial of A(sigma), in closed form:

        h(b^r c^r sigma^u) = (-1)^(r(r-1)/2) t^-r h(zeta^r)
                           = (-1)^(r(r-1)/2) / [r+1]_t       (u = 0, 1),

    and h(m) = 0 on every other basis monomial.

    Proof.  h kills every weight space but (0,0), and the basis monomials
    of weight (0,0) are the b^r c^r sigma^u: a^i b^j c^k d^l has weight
    (i+j-k-l, i-j+k-l), and a basis monomial holds no a beside a d.  By
    zeta^r's closed form, b^r c^r sigma^u = (-1)^(r(r-1)/2) t^-r
    zeta^r sigma^(u+r).  In the basis {m^(l)_00 sigma^w} of the (0,0)
    weight space, h is 1 on 1 and on sigma and kills every m^(l)_00
    sigma^w with l > 0, so h(zeta^r sigma^w) is the sum of the two l = 0
    coefficients of zeta^r sigma^w.  Right multiplication by sigma maps
    m^(l)_00 sigma^w to m^(l)_00 sigma^(w+1): it swaps those two
    coefficients and keeps their sum, so h(zeta^r sigma) = h(zeta^r).
    Last, t^-r (1 - t^-2)/(1 - t^-2(r+1)) = (t - t^-1)/(t^(r+1) - t^-(r+1)).
    """
    r = m[1]
    if m[0] or m[3] or m[2] != r:
        return ZERO
    return signed_t_power(r * (r - 1) // 2, -r) * haar_zeta(r)


def haar(x: Element) -> Scalar:
    """The normalized two-sided invariant functional h: the linear
    extension of its closed form on basis monomials, _haar_mono, whose
    docstring holds the proof.  It reads h(zeta^n) from haar_zeta and no
    lambda_n, so haar_via_corep_expansion is an independent route on every
    coordinate."""
    return sum((c * h for m, c in x.terms.items() if (h := _haar_mono(m))), ZERO)


def _zeta_coordinates(x: Element) -> Dict[Tuple[int, int], Scalar]:
    """Coordinates of project_00(x) in the basis zeta^r sigma^w.  The
    monomial b^r c^r sigma^(r mod 2) is zeta^r over its coefficient
    (-1)^(r(r-1)/2) t^r."""
    out: Dict[Tuple[int, int], Scalar] = {}
    for m, c in project_00(x).terms.items():
        r, u = m[1], m[4]
        add_term(out, (r, (u + r) % 2), c * signed_t_power(r * (r - 1) // 2, -r))
    return out


def haar_zeta_sigma(n: int) -> Scalar:
    """lambda_n, the l = 0 coefficient (on sigma^u) of zeta^n sigma^u in
    the basis {m^(l)_00 sigma^w}; the corep route alone reads it, and
    _haar_mono's proof shows that it equals h(zeta^n).

    P_k, the zeta-coordinates of m^(k)_00, has degree k and all its
    coordinates in the sigma class k mod 2, so zeta^k sigma^u is
    m^(k)_00 sigma^(k+u) over p_kk minus the lower coordinates, and

        lambda_k = (delta_k0 - sum_(j<k) p_kj lambda_j) / p_kk.

    Built bottom-up, k = 0..n, in one loop that stores each lambda_k in
    _coord_cache under (k,); a recursion through the table would redo the
    lower degrees exponentially often once the table is capped.
    """
    lam = _coord_cache.get((n,))
    if lam is not None:
        return lam
    lams: List[Scalar] = []
    for k in range(n + 1):
        lam = _coord_cache.get((k,))
        if lam is None:
            p = _zeta_coordinates(closed_form(2 * k, 0, 0))
            u = k % 2
            acc = ZERO if k else ONE
            for j in range(k):
                pkj = p.get((j, u))
                if pkj:
                    acc = acc - pkj * lams[j]
            lam = acc / p[(k, u)]
            _cache.store(_coord_cache, (k,), lam)
        lams.append(lam)
    return lam


def haar_via_corep_expansion(x: Element) -> Scalar:
    """Independent route: the l = 0 coefficient of project_00(x) in the
    m^(l)_00 sigma^w basis, sum c lambda_r over its zeta-coordinates
    c zeta^r sigma^u, with lambda_r by the recurrence of haar_zeta_sigma.
    haar reads no lambda_r, and this route no closed form h(zeta^n)."""
    return sum((c * haar_zeta_sigma(r) for (r, _u), c in _zeta_coordinates(x).items()), ZERO)


def sigma_component(x: Element) -> Scalar:
    """Coefficient of sigma (= m^(0)_00 sigma) in the corep-basis expansion
    of project_00(x): the corep route on its sigma-odd coordinates only.
    The exact obstruction to the verbatim integral law."""
    return sum((c * haar_zeta_sigma(r) for (r, u), c in _zeta_coordinates(x).items() if u), ZERO)


def verify_integral(max_degree: int) -> Report:
    """Invariance laws for h on all basis monomials of degree <= max_degree.

    The verbatim one-sided law (id ox h)Delta(x) = h(x) 1 fails exactly on
    the sigma line: both contractions project onto span{1, sigma} along the
    corep basis, so the corrected identity is

        (id ox h)Delta(x) = h(x) 1 + c_sigma(x) (sigma - 1),

    with c_sigma the sigma-coefficient of x.  Monomials with nonzero
    c_sigma are reported as documented exceptions, not failures.
    h(S(x)) = h(x) and h(x*) = conj h(x) hold without exception.
    """
    rep = Report()
    exceptions = 0
    sig = Element.generator("sigma")
    one = Element.one()
    for m in basis_monomials(max_degree, "Asigma"):
        x = Element.monomial(m, "Asigma")
        hx = haar(x)
        csig = sigma_component(x)
        dx = coproduct(x)
        left = dx.contract(1, _haar_mono).to_element()
        right = dx.contract(0, _haar_mono).to_element()
        expected = one.scale(hx) + (sig - one).scale(csig)
        rep.check(f"left integral {m}", left == expected, left, expected)
        rep.check(f"right integral {m}", right == expected, right, expected)
        if csig:
            exceptions += 1
            verbatim = one.scale(hx)
            rep.check(f"sigma-line exception is real {m}", left != verbatim,
                      left, verbatim)
        h_sx, h_star_x, hx_bar = haar(antipode(x)), haar(star(x)), hx.conj()
        rep.check(f"h S-invariance {m}", h_sx == hx, h_sx, hx)
        rep.check(f"h star {m}", h_star_x == hx_bar, h_star_x, hx_bar)
    rep.note(f"sigma-line exceptions (documented): {exceptions} monomials "
             "with nonzero sigma component satisfy the corrected identity only")
    return rep


# ---------------------------------------------------------------------------
# Moments of the Haar functional
# ---------------------------------------------------------------------------

class MomentResult:
    __slots__ = ("r", "s", "variant", "oracle", "printed_formula", "matches")

    def __init__(self, r: int, s: int, variant: str, oracle: Scalar,
                 printed_formula: Scalar, matches: bool):
        self.r = r
        self.s = s
        self.variant = variant
        self.oracle = oracle
        self.printed_formula = printed_formula
        self.matches = matches


def moments(r: int, s: int, variant: str) -> MomentResult:
    """h(zeta^r (zeta; t^2)_s) (ascending) or h(zeta^r (t^-2 zeta; t^-2)_s)
    (descending): the oracle expands the product and applies h(zeta^n)
    termwise; the printed closed form is evaluated for comparison.

    The printed ascending formula carries a factor t^(-2(r+1)) that the
    oracle contradicts at (r,s) = (0,0) and (1,0); the result records the
    per-(r,s) match instead of guessing the intended formula.
    """
    if variant not in ("ascending", "descending"):
        raise ValueError("variant must be 'ascending' or 'descending'")
    v = TM2
    if variant == "ascending":
        poly = pochhammer_poly(T * T, s)
    else:
        poly = pochhammer_poly(v, s, scale=v)
    oracle = ZERO
    for k, c in poly.terms.items():
        oracle = oracle + c * haar_zeta(r + k)
    common = (pochhammer(v, v, r) * pochhammer(v, v, s) * pochhammer(v, v, 1)) \
        / pochhammer(v, v, r + s + 1)
    printed = common * Scalar.t_power(-2 * (r + 1)) if variant == "ascending" else common
    return MomentResult(r, s, variant, oracle, printed, oracle == printed)


def moments_report(max_r: int = 4, max_s: int = 4) -> Report:
    """Descending moments must match; the ascending mismatches at s = 0 are
    recorded as documented discrepancies of the printed formula."""
    rep = Report()
    mismatches = []
    for r in range(max_r + 1):
        for s in range(max_s + 1):
            down = moments(r, s, "descending")
            rep.check(f"descending ({r},{s})", down.matches,
                      down.oracle, down.printed_formula)
            up = moments(r, s, "ascending")
            if not up.matches:
                mismatches.append((r, s))
    rep.note(f"ascending printed formula disagrees with the oracle at {mismatches}")
    for expected in ((0, 0), (1, 0)):
        rep.check(f"ascending mismatch reproduced at {expected}",
                  expected in mismatches, expected, "in mismatch list")
    return rep


# ---------------------------------------------------------------------------
# Invariant forms and orthogonality
# ---------------------------------------------------------------------------

def inner(form: str, x: Element, y: Element) -> Scalar:
    """<x,y>_R = h(x y*) (conjugate-linear in y); <x,y>_L = h(x* y)."""
    if form == "R":
        return haar(x * star(y))
    if form == "L":
        return haar(star(x) * y)
    raise ValueError("form must be 'R' or 'L'")


def bracket_t(n: int) -> Scalar:
    """[n]_t = (t^n - t^-n)/(t - t^-1)."""
    return (Scalar.t_power(n) - Scalar.t_power(-n)) / (T - T_INV)


def verify_peter_weyl(twoL_max: int = 3) -> Report:
    """Inner products of all corep entries with 2l, 2l' <= twoL_max.

    For s = s' the normalized entries satisfy the printed orthogonality

        <m_ij s^s, m_i'j' s^s>_R = [2l+1]_t^-1 t^(2j)  d_ll' d_ii' d_jj'
        <m_ij s^s, m_i'j' s^s>_L = [2l+1]_t^-1 t^(-2i) d_ll' d_ii' d_jj'

    Cross-sigma pairs also vanish unless (l,i,j) = (l',i',j'); on the
    diagonal the sigma moved past the starred entry contributes the parity
    sign (-1)^(i-j), which the printed relations (stated without any s
    dependence) do not show.  The engine checks the exact law and counts
    the signed diagonal pairs as the documented cross-s refinement.  For
    the unnormalized entries both sides carry the rational ratio
    |N_j|^2 / |N_i|^2 of squared prefactor moduli, where |N_i|^2 is the
    binomial [2l, l+i] at base t^-2.
    """
    rep = Report()
    mats = {}
    for twoL in range(twoL_max + 1):
        for s in (0, 1):
            mats[(twoL, s)] = _read_matrix(twoL, s)
    keys = sorted(mats)
    signed_pairs = 0
    for (twoL, s) in keys:
        mat = mats[(twoL, s)]
        for (twoL2, s2) in keys:
            mat2 = mats[(twoL2, s2)]
            for (i1, j1), e1 in mat.entries.items():
                for (i2, j2), e2 in mat2.entries.items():
                    same = (twoL == twoL2 and i1 == i2 and j1 == j2)
                    flip = same and s != s2 and ((i1 - j1) // 2) % 2
                    if flip:
                        signed_pairs += 1
                    for form in ("R", "L"):
                        got = inner(form, e1, e2)
                        if not same:
                            expected = ZERO
                        else:
                            tw = Scalar.t_power(j1 if form == "R" else -i1)
                            base = bracket_t(twoL + 1).inv() * tw
                            row = gauss_row(twoL2)
                            expected = base * (row[(twoL2 + j2) // 2] / row[(twoL2 + i2) // 2])
                            # the R form pairs x against y*: on s != s' the
                            # sigma crosses the odd entry and contributes
                            # (-1)^(i-j); in the L form sigma only crosses
                            # the even product y*y, so no sign appears.
                            if flip and form == "R":
                                expected = -expected
                        rep.check(
                            f"<{form}> l={twoL}/2 s={s} ({i1},{j1}) vs "
                            f"l={twoL2}/2 s'={s2} ({i2},{j2})",
                            got == expected, got, expected)
    rep.note("cross-sigma diagonal pairs carry the parity sign (-1)^(i-j) "
             f"in the R form on top of the printed value ({signed_pairs} pairs)")
    return rep


def verify_weight_norms(max_mn: int = 3) -> Report:
    """e_mn e_mn* in closed form (four cases), |m|, |n| <= max_mn.

    Three of the four published case formulas verify verbatim.  In the
    quadrant m+n >= 0, m >= n the engine value carries t^((m-n)(m+n)/2)
    where the printed formula has t^((m-n)(n+m-2)/2): the product
    (xy)* = y* x* is order sensitive and the b side does not mirror the
    c side exactly.  The corrected power is asserted, and the printed
    power is reproduced as failing off the m = n diagonal.
    """
    from .algebra import e_basis
    rep = Report()
    printed_deviations = []
    for m in range(-max_mn, max_mn + 1):
        for n in range(-max_mn, max_mn + 1):
            if (m - n) % 2:
                continue
            e = e_basis(m, n)
            got = e * star(e)
            if m + n >= 0 and m <= n:
                poly = pochhammer_poly(T * T, (m + n) // 2)
                lead = zeta_power((n - m) // 2).scale(
                    Scalar.t_power((n - m) * (n + m - 2) // 2))
            elif m + n >= 0 and m >= n:
                poly = pochhammer_poly(T * T, (m + n) // 2)
                lead = zeta_power((m - n) // 2).scale(
                    Scalar.t_power((m - n) * (m + n) // 2))
                if m > n:
                    printed = zeta_power((m - n) // 2).scale(
                        Scalar.t_power((m - n) * (n + m - 2) // 2)) \
                        * _qpoly_to_element(poly)
                    if printed != got:
                        printed_deviations.append((m, n))
            elif m + n <= 0 and m >= n:
                poly = pochhammer_poly(TM2, (-m - n) // 2, scale=TM2)
                lead = zeta_power((m - n) // 2)
            else:
                poly = pochhammer_poly(TM2, (-m - n) // 2, scale=TM2)
                lead = zeta_power((n - m) // 2).scale(Scalar.t_power(m - n))
            expected = lead * _qpoly_to_element(poly)
            rep.check(f"e_mn e_mn* at ({m},{n})", got == expected, got, expected)
    rep.note("printed power in the (m+n>=0, m>=n) case deviates at "
             f"{printed_deviations} (off by t^(m-n))")
    return rep


# ---------------------------------------------------------------------------
# Completeness / cosemisimplicity witness
# ---------------------------------------------------------------------------

def completeness_witness(max_degree: int = 4, twoL_max: int = 4) -> Report:
    """Every basis monomial of degree <= max_degree expands exactly in corep
    entries with 2l <= twoL_max; h agrees with the expansion's l = 0 part.

    This is a finite witness of the direct-sum decomposition into matrix
    blocks, of cosemisimplicity, and of the uniqueness of the normalized
    invariant functional at this truncation.
    """
    rep = Report()
    by_weight: Dict[Tuple[int, int], List[Tuple[str, Element]]] = {}
    for twoL in range(twoL_max + 1):
        for s in (0, 1):
            mat = _read_matrix(twoL, s)
            for (i, j), e in mat.entries.items():
                if e.is_zero():
                    continue
                by_weight.setdefault((-i, -j), []).append(
                    (f"m[{twoL}/2;{i},{j};s^{s}]", e))
    for m in basis_monomials(max_degree, "Asigma"):
        x = Element.monomial(m, "Asigma")
        w = mono_bigrade(m)
        pool = by_weight.get(w, [])
        labels = [lab for lab, _ in pool]
        coords = sorted({mm for _, e in pool for mm in e.terms} | set(x.terms))
        rows = [{lab: e.terms.get(coord, ZERO) for lab, e in pool
                 if e.terms.get(coord)} for coord in coords]
        rhs = [x.terms.get(coord, ZERO) for coord in coords]
        sol = linalg.solve(rows, rhs, labels)
        rep.check(f"expansion of {m}", sol is not None, m, "in span")
        if sol is None:
            continue
        h_from_expansion = ZERO
        for lab, c in sol.items():
            if lab.startswith("m[0/2;0,0;"):
                h_from_expansion = h_from_expansion + c
        hx = haar(x)
        rep.check(f"h uniqueness at {m}", h_from_expansion == hx, h_from_expansion, hx)
    return rep
