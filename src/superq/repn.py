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

from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import _cache, linalg
from .algebra import (
    Element, Monomial, basis_monomials, bigrade, mono_bigrade, project_00,
    zeta_power,
)
from .hopf import antipode, coproduct, counit, star
from .qfun import QPolynomial, gauss_binomial, little_jacobi, pochhammer, pochhammer_poly
from .report import Report
from .scalars import ONE, Scalar, T, T_INV, ZERO, add_term
from .tensor import AlgSlot, Tensor

_V = None  # set lazily: t^-2 as the standing binomial base


def _v() -> Scalar:
    global _V
    if _V is None:
        _V = T_INV * T_INV
    return _V


@dataclass(frozen=True)
class CorepIndex:
    twoL: int
    twoI: int
    twoJ: int
    s: int = 0

    def __post_init__(self):
        if self.twoL < 0:
            raise ValueError("twoL must be nonnegative")
        for name in ("twoI", "twoJ"):
            v = getattr(self, name)
            if abs(v) > self.twoL or (v - self.twoL) % 2:
                raise ValueError(f"{name}={v} invalid for twoL={self.twoL}")
        if self.s not in (0, 1):
            raise ValueError("s must be 0 or 1")


def index_range(twoL: int) -> List[int]:
    return list(range(-twoL, twoL + 1, 2))


def vector_norm_sq(twoL: int, twoI: int) -> Scalar:
    """Square of the i^[(l+i)/2] binom(2l, l+i)^(1/2) prefactor."""
    li = (twoL + twoI) // 2
    out = gauss_binomial(twoL, li, _v())
    return -out if (li // 2) % 2 else out


@dataclass
class ComoduleVector:
    element: Element
    norm_sq: Scalar
    normalized: bool


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
    from .scalars import scalar_sqrt
    root = scalar_sqrt(nsq)
    if root is None:
        raise ValueError(
            f"squared prefactor {nsq} is not a perfect square in Q(i)(t); "
            "only the unnormalized vector is exact")
    return ComoduleVector(el.scale(root.inv()), nsq, True)


# ---------------------------------------------------------------------------
# Matrix coefficients by coproduct expansion
# ---------------------------------------------------------------------------

@dataclass
class CorepMatrix:
    twoL: int
    s: int
    entries: Dict[Tuple[int, int], Element]
    norm_sq: Dict[int, Scalar]

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


_matrix_cache: Dict[Tuple[int, int], CorepMatrix] = {}


def matrix_coefficients(twoL: int, s: int = 0, bound: int = 6,
                        verify: bool = True) -> CorepMatrix:
    """Entries M'_ij with Delta(xi'_i) = sum_j M'_ij ox xi'_j.

    The right tensor legs a^(l-j) c^(l+j) sigma^s are basis monomials, so
    collection is literal.  The corepresentation law, the counit law, the
    eta-side duality and the weight-space membership are verified before
    the matrix is returned.
    """
    if twoL > 2 * bound:
        raise ValueError(f"twoL={twoL} exceeds the configured bound {2 * bound}")
    key = (twoL, s)
    cached = _matrix_cache.get(key)
    if cached is not None:
        return cached
    idxs = index_range(twoL)
    right_mono = {twoJ: ((twoL - twoJ) // 2, 0, (twoL + twoJ) // 2, 0, s)
                  for twoJ in idxs}
    right_lookup = {m: twoJ for twoJ, m in right_mono.items()}
    entries: Dict[Tuple[int, int], Element] = {}
    for twoI in idxs:
        xi = comodule_vector("L", CorepIndex(twoL, twoI, twoI if twoL else 0, s)).element
        dx = coproduct(xi)
        rows: Dict[int, Dict[Monomial, Scalar]] = {j: {} for j in idxs}
        for (m_left, m_right), coeff in dx.terms.items():
            twoJ = right_lookup.get(m_right)
            if twoJ is None:
                raise AssertionError(f"unexpected right leg {m_right}")
            acc = rows[twoJ]
            add_term(acc, m_left, coeff)
        for twoJ in idxs:
            entries[(twoI, twoJ)] = Element("Asigma", rows[twoJ])
    mat = CorepMatrix(twoL, s, entries,
                      {i: vector_norm_sq(twoL, i) for i in idxs})
    if verify:
        rep = verify_corep_matrix(mat)
        if not rep.ok:
            raise AssertionError(f"corepresentation laws failed:\n{rep}")
    _cache.trim(_matrix_cache)
    _matrix_cache[key] = mat
    return mat


def verify_corep_matrix(mat: CorepMatrix) -> Report:
    """Corepresentation law, counit law, eta duality, weight membership."""
    rep = Report()
    idxs = mat.indices()
    slots = (AlgSlot("Asigma"), AlgSlot("Asigma"))
    for twoI in idxs:
        for twoJ in idxs:
            e = mat.entry(twoI, twoJ)
            lhs = coproduct(e)
            rhs = Tensor(slots)
            for twoK in idxs:
                rhs = rhs + Tensor.from_elements(
                    [mat.entry(twoI, twoK), mat.entry(twoK, twoJ)])
            rep.check(f"corep law ({twoI},{twoJ})", lhs == rhs, lhs, rhs)
            eps = counit(e)
            expected = ONE if twoI == twoJ else ZERO
            rep.check(f"counit ({twoI},{twoJ})", eps == expected, eps, expected)
            if e:
                rep.check(f"weight ({twoI},{twoJ})",
                          bigrade(e) == (-twoI, -twoJ), bigrade(e), (-twoI, -twoJ))
    # eta duality: Delta(eta'_i) = sum_j (Nsq_j / Nsq_i) eta'_j ox M'_ji
    for twoI in idxs:
        eta = comodule_vector("R", CorepIndex(mat.twoL, twoI, twoI if mat.twoL else 0, mat.s)).element
        lhs = coproduct(eta)
        rhs = Tensor(slots)
        for twoJ in idxs:
            etaj = comodule_vector("R", CorepIndex(mat.twoL, twoJ, twoJ if mat.twoL else 0, mat.s)).element
            ratio = mat.norm_sq[twoJ] / mat.norm_sq[twoI]
            rhs = rhs + Tensor.from_elements([etaj, mat.entry(twoJ, twoI)]).scale(ratio)
        rep.check(f"eta duality i={twoI}", lhs == rhs, lhs, rhs)
    return rep


# ---------------------------------------------------------------------------
# Closed forms (little t-Jacobi polynomials in zeta)
# ---------------------------------------------------------------------------

def _qpoly_to_element(p: QPolynomial) -> Element:
    out = Element.zero("Asigma")
    for r, c in p.coeffs.items():
        out = out + zeta_power(r).scale(c)
    return out


def _jacobi_element(n: int, alpha: int, beta: int) -> Element:
    return _qpoly_to_element(little_jacobi(n, alpha, beta, _v()))


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
    two cases apply they are evaluated and asserted equal.
    """
    CorepIndex(twoL, twoI, twoJ)
    li, lj = (twoL + twoI) // 2, (twoL + twoJ) // 2   # l+i, l+j
    mi, mj = (twoL - twoI) // 2, (twoL - twoJ) // 2   # l-i, l-j
    ij = (twoI + twoJ) // 2                           # i+j
    dij = (twoI - twoJ) // 2                          # i-j
    bsign = -ONE if ((-dij) // 2) % 2 else ONE
    results = []
    if ij <= 0 and dij >= 0:
        coeff = Scalar.t_power(lj * dij) * gauss_binomial(li, dij, _v())
        mono = Element.monomial((-ij, 0, dij, 0, lj % 2), "Asigma", coeff)
        results.append(mono * _jacobi_element(lj, dij, -ij))
    if ij <= 0 and dij <= 0:
        coeff = bsign * Scalar.t_power(li * (-dij)) * gauss_binomial(mi, -dij, _v())
        mono = Element.monomial((-ij, -dij, 0, 0, li % 2), "Asigma", coeff)
        results.append(mono * _jacobi_element(li, -dij, -ij))
    if ij >= 0 and dij <= 0:
        coeff = bsign * Scalar.t_power(mj * (-dij)) * gauss_binomial(mi, -dij, _v())
        mono = Element.monomial((0, -dij, 0, ij, mj % 2), "Asigma", ONE)
        results.append((_jacobi_element(mj, -dij, ij) * mono).scale(coeff))
    if ij >= 0 and dij >= 0:
        coeff = Scalar.t_power(mi * dij) * gauss_binomial(li, dij, _v())
        mono = Element.monomial((0, 0, dij, ij, mi % 2), "Asigma", ONE)
        results.append((_jacobi_element(mi, dij, ij) * mono).scale(coeff))
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

_haar_zeta_cache: Dict[int, Scalar] = {}
_haar_zeta_sigma_cache: Dict[int, Scalar] = {}


def haar_zeta(n: int) -> Scalar:
    """h(zeta^n) = (1 - t^-2)/(1 - t^-2(n+1))."""
    out = _haar_zeta_cache.get(n)
    if out is None:
        out = (ONE - _v()) / (ONE - Scalar.t_power(-2 * (n + 1)))
        _cache.trim(_haar_zeta_cache)
        _haar_zeta_cache[n] = out
    return out


def _zeta_coordinates(x: Element) -> Dict[Tuple[int, int], Scalar]:
    """Coordinates of project_00(x) in the basis zeta^r sigma^w."""
    out: Dict[Tuple[int, int], Scalar] = {}
    for m, c in project_00(x).terms.items():
        r, u = m[1], m[4]
        zp = zeta_power(r)
        conv = c / zp.terms[(0, r, r, 0, r % 2)]
        key = (r, (u + r) % 2)
        add_term(out, key, conv)
    return out


def _m00_basis(max_r: int) -> Dict[Tuple[int, int], Dict[Tuple[int, int], Scalar]]:
    """zeta-coordinates of the basis m^(l)_00 sigma^w, l = 0..max_r, w = 0,1."""
    basis = {}
    sig = Element.generator("sigma")
    for l in range(max_r + 1):
        m00 = closed_form(2 * l, 0, 0)
        for w in (0, 1):
            el = m00 * sig if w else m00
            basis[(l, w)] = _zeta_coordinates(el)
    return basis


def haar_zeta_sigma(n: int) -> Scalar:
    """h(zeta^n sigma), by exact expansion in the m^(l)_00 sigma^w basis.

    The corep entries other than 1 and sigma are annihilated by h; the
    expansion is a triangular solve because deg P_l = l.
    """
    out = _haar_zeta_sigma_cache.get(n)
    if out is not None:
        return out
    coeffs = _expand_in_m00(zeta_power(n) * Element.generator("sigma"))
    out = coeffs.get((0, 0), ZERO) + coeffs.get((0, 1), ZERO)
    _cache.trim(_haar_zeta_sigma_cache)
    _haar_zeta_sigma_cache[n] = out
    return out


def _expand_in_m00(x: Element) -> Dict[Tuple[int, int], Scalar]:
    """Exact coefficients of x (in the weight-(0,0) subalgebra) over the
    basis {m^(l)_00 sigma^w}."""
    target = _zeta_coordinates(x)
    if project_00(x) != x:
        raise ValueError("element is not in the weight-(0,0) subalgebra")
    max_r = max((r for (r, _w) in target), default=0)
    basis = _m00_basis(max_r)
    unknowns = sorted(basis)
    coords = sorted({c for vec in basis.values() for c in vec} | set(target))
    rows = []
    rhs = []
    for coord in coords:
        rows.append({u: basis[u].get(coord, ZERO) for u in unknowns
                     if basis[u].get(coord)})
        rhs.append(target.get(coord, ZERO))
    sol = linalg.solve(rows, rhs, unknowns)
    if sol is None:
        raise AssertionError("m00 expansion is inconsistent")
    return sol


def haar(x: Element) -> Scalar:
    """The normalized two-sided invariant functional.

    h kills every weight space except (0,0); there it is fixed by
    h(sigma) = 1, the closed form for h(zeta^n), and the basis expansion
    for h(zeta^n sigma).
    """
    out = ZERO
    for (r, w), c in _zeta_coordinates(x).items():
        out = out + c * (haar_zeta(r) if w == 0 else haar_zeta_sigma(r))
    return out


def haar_via_corep_expansion(x: Element) -> Scalar:
    """Independent route: expand the (0,0) part in the m^(l)_00 sigma^w basis
    and read off the l = 0 coefficients."""
    coeffs = _expand_in_m00(project_00(x))
    return coeffs.get((0, 0), ZERO) + coeffs.get((0, 1), ZERO)


def sigma_component(x: Element) -> Scalar:
    """Coefficient of sigma (= m^(0)_00 sigma) in the corep-basis expansion;
    the exact obstruction to the verbatim integral law."""
    p = project_00(x)
    if p.is_zero():
        return ZERO
    return _expand_in_m00(p).get((0, 1), ZERO)


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
        left = dx.contract(1, lambda mm: haar(Element.monomial(mm, "Asigma"))).to_element()
        right = dx.contract(0, lambda mm: haar(Element.monomial(mm, "Asigma"))).to_element()
        expected = one.scale(hx) + (sig - one).scale(csig)
        rep.check(f"left integral {m}", left == expected, left, expected)
        rep.check(f"right integral {m}", right == expected, right, expected)
        if csig:
            exceptions += 1
            verbatim = one.scale(hx)
            rep.check(f"sigma-line exception is real {m}", left != verbatim,
                      left, verbatim)
        rep.check(f"h S-invariance {m}", haar(antipode(x)) == hx,
                  haar(antipode(x)), hx)
        rep.check(f"h star {m}", haar(star(x)) == hx.conj(),
                  haar(star(x)), hx.conj())
    rep.note(f"sigma-line exceptions (documented): {exceptions} monomials "
             "with nonzero sigma component satisfy the corrected identity only")
    return rep


# ---------------------------------------------------------------------------
# Moments of the Haar functional
# ---------------------------------------------------------------------------

@dataclass
class MomentResult:
    r: int
    s: int
    variant: str
    oracle: Scalar
    printed_formula: Scalar
    matches: bool


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
    v = _v()
    if variant == "ascending":
        poly = pochhammer_poly(T * T, s)
    else:
        poly = pochhammer_poly(v, s, scale=v)
    oracle = ZERO
    for k, c in poly.coeffs.items():
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
    |N_j|^2 / |N_i|^2 of squared prefactor moduli, computed from the
    stored squared norms.
    """
    rep = Report()
    mats = {}
    for twoL in range(twoL_max + 1):
        for s in (0, 1):
            mats[(twoL, s)] = matrix_coefficients(twoL, s)
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
                            ratio = _norm_modulus_sq(mat2, j2) / _norm_modulus_sq(mat2, i2)
                            expected = base * ratio
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


def _norm_modulus_sq(mat: CorepMatrix, twoI: int) -> Scalar:
    """|N_i|^2 from the stored signed square: |N|^2 = (-1)^[(l+i)/2] N^2."""
    nsq = mat.norm_sq[twoI]
    li = (mat.twoL + twoI) // 2
    return -nsq if (li // 2) % 2 else nsq


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
                poly = pochhammer_poly(_v(), (-m - n) // 2, scale=_v())
                lead = zeta_power((m - n) // 2)
            else:
                poly = pochhammer_poly(_v(), (-m - n) // 2, scale=_v())
                lead = zeta_power((n - m) // 2).scale(Scalar.t_power(m - n))
            expected = lead * _qpoly_to_element(poly)
            rep.check(f"e_mn e_mn* at ({m},{n})", got == expected, got, expected)
    rep.note("printed power in the (m+n>=0, m>=n) case deviates at "
             f"{printed_deviations} (off by t^(m-n))")
    return rep


# ---------------------------------------------------------------------------
# Coproduct power formulas and the projection formula
# ---------------------------------------------------------------------------

def delta_power_formula_check(max_m: int = 6) -> Report:
    """Delta(a^m) and Delta(c^m) against the explicit q-binomial sums."""
    rep = Report()
    slots = (AlgSlot("Asigma"), AlgSlot("Asigma"))
    v = _v()
    for m in range(max_m + 1):
        lhs_a = coproduct(Element.generator("a") ** m)
        lhs_c = coproduct(Element.generator("c") ** m)
        rhs_a = Tensor(slots)
        rhs_c = Tensor(slots)
        for k in range(m + 1):
            coeff = gauss_binomial(m, k, v)
            if (k // 2) % 2:
                sa = -coeff
            else:
                sa = coeff
            rhs_a = rhs_a + Tensor(slots, {
                ((m - k, k, 0, 0, 0), (m - k, 0, k, 0, 0)): sa})
            rhs_c = rhs_c + Tensor(slots, {
                ((0, 0, m - k, k, 0), (m - k, 0, k, 0, 0)): coeff})
        rep.check(f"Delta(a^{m})", lhs_a == rhs_a, lhs_a, rhs_a)
        rep.check(f"Delta(c^{m})", lhs_c == rhs_c, lhs_c, rhs_c)
    return rep


def projection_formula_check(max_n: int = 5) -> Report:
    """(id ox P)Delta(zeta^n) as an explicit sum of Pochhammer products."""
    rep = Report()
    slots = (AlgSlot("Asigma"), AlgSlot("Asigma"))
    v = _v()
    for n in range(max_n + 1):
        dz = coproduct(zeta_power(n))
        lhs = dz.apply(1, lambda mm: {mm: ONE} if mono_bigrade(mm) == (0, 0) else {})
        rhs = Tensor(slots)
        for j in range(n + 1):
            coeff = gauss_binomial(n, j, v) ** 2 * Scalar.t_power(2 * j * (n - j))
            left = zeta_power(n - j) * _qpoly_to_element(pochhammer_poly(T * T, j))
            right = zeta_power(j) * _qpoly_to_element(pochhammer_poly(v, n - j, scale=v))
            rhs = rhs + Tensor.from_elements([left, right]).scale(coeff)
        rep.check(f"projection formula n={n}", lhs == rhs, lhs, rhs)
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
            mat = matrix_coefficients(twoL, s)
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
        rep.check(f"h uniqueness at {m}", h_from_expansion == haar(x),
                  h_from_expansion, haar(x))
    return rep
