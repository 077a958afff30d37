"""q-combinatorics over the exact scalar field.

q-shifted factorials, Gauss binomial coefficients and little q-Jacobi
polynomials, all with Scalar coefficients.  Polynomials in the commuting
formal variable z stay in this module; substituting a noncommutative
argument for z is the caller's business.
"""

from __future__ import annotations

from typing import Dict

from . import _cache
from .report import Report
from .scalars import ONE, Scalar, T, T_INV, ZERO, _Combination, _signed_join

TM2 = T_INV * T_INV     # t^-2, the standing base of the binomials and Jacobi polynomials


def pochhammer(u: Scalar, v: Scalar, m: int) -> Scalar:
    """(u; v)_m = prod_{k=0}^{m-1} (1 - u v^k); empty product for m = 0."""
    out = ONE
    power = ONE
    for _ in range(m):
        out = out * (ONE - u * power)
        power = power * v
    return out


_binom_cache: Dict[tuple, Scalar] = {}


@_cache.memo(_binom_cache)
def gauss_binomial(m: int, n: int, v: Scalar) -> Scalar:
    """Gauss binomial (m over n)_v; 0 when n is out of range.

    Each value is the Pochhammer quotient (v; v)_m / ((v; v)_n (v; v)_(m-n)),
    computed once per (m, n, v) and memoised: the public quotient route.
    The library computes at base t^-2 by algebra.gauss_row; this value is
    derived from no other binomial, so it is the independent oracle of the
    Pascal-rule and collapse checks below and of the tests."""
    if n < 0 or n > m:
        return ZERO
    num = pochhammer(v, v, m)
    den = pochhammer(v, v, n) * pochhammer(v, v, m - n)
    return num / den


class QPolynomial(_Combination):
    """Zero-free sparse polynomial {exponent: Scalar} in one commuting
    variable z; the vector-space operations and the product are
    _Combination's, with exponent addition as the key product _times."""

    __slots__ = ()

    def __init__(self, terms: Dict[int, Scalar] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @staticmethod
    def constant(c: Scalar) -> "QPolynomial":
        return QPolynomial({0: c})

    @staticmethod
    def variable() -> "QPolynomial":
        return QPolynomial({1: ONE})

    def degree(self) -> int:
        return max(self.terms) if self.terms else -1

    def _times(self, e1, e2):
        return ((e1 + e2, ONE),)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms):
            c = str(self.terms[e])
            zs = "1" if e == 0 else ("z" if e == 1 else f"z^{e}")
            if zs == "1":
                pieces.append(f"({c})" if any(ch in c for ch in " +-") else c)
            elif c == "1":
                pieces.append(zs)
            elif c == "-1":
                pieces.append(f"-{zs}")
            else:
                cc = f"({c})" if any(ch in c for ch in " +-/") else c
                pieces.append(f"{cc}*{zs}")
        return _signed_join(pieces)

    def __repr__(self):
        return f"QPolynomial<{self}>"

    def to_json(self):
        return [{"power": e, "coeff": self.terms[e].to_json()}
                for e in sorted(self.terms)]


def pochhammer_poly(v: Scalar, m: int, scale: Scalar = ONE) -> QPolynomial:
    """(scale*z; v)_m as a polynomial in z: prod_{k<m} (1 - scale v^k z)."""
    out = QPolynomial.constant(ONE)
    power = scale
    for _ in range(m):
        out = out * QPolynomial({0: ONE, 1: -power})
        power = power * v
    return out


def little_jacobi(n: int, alpha: int, beta: int, base: Scalar) -> QPolynomial:
    """Little q-Jacobi polynomial P_n^(alpha,beta)(z; q) at q = base.

    P_n = sum_{r>=0} (q^-n; q)_r (q^(alpha+beta+n+1); q)_r
                     / ((q; q)_r (q^(alpha+1); q)_r) * (q z)^r,
    which truncates at r = n.  Each coefficient comes from the one before
    by the series' term ratio (Koekoek-Lesky-Swarttouw 2010, section 14.12)
    c_r / c_(r-1) = (1 - q^(r-1-n)) (1 - q^(alpha+beta+n+r)) q
                    / ((1 - q^r) (1 - q^(alpha+r))).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    q = base
    coeff = ONE
    out: Dict[int, Scalar] = {0: coeff}
    for r in range(1, n + 1):
        coeff = coeff * ((ONE - q ** (r - 1 - n)) * (ONE - q ** (alpha + beta + n + r)) * q) \
            / ((ONE - q ** r) * (ONE - q ** (alpha + r)))
        if coeff:
            out[r] = coeff
    return QPolynomial(out)


def pascal_rule_check(max_m: int) -> Report:
    """Gauss-binomial Pascal rule with a formal v, checked exactly."""
    v = TM2
    rep = Report()
    for m in range(max_m):
        for n in range(m + 1):
            lhs = gauss_binomial(m + 1, n + 1, v)
            rhs = gauss_binomial(m, n, v) * v ** (m - n) + gauss_binomial(m, n + 1, v)
            rep.check(f"pascal m={m} n={n}", lhs == rhs, lhs, rhs)
    return rep


def qbinomial_theorem_check(max_m: int) -> Report:
    """(x+y)^m = sum_k binom(m,k)_{v^-1} x^k y^(m-k) for xy = v yx,
    exercised on the tensor-square summands of the generator coproducts."""
    from .algebra import Element
    from .tensor import Tensor

    rep = Report()
    ring = "Asigma"
    pairs = []
    for left, right in ((("a", "a"), ("b", "c")), (("c", "a"), ("d", "c"))):
        x = Tensor.from_elements([Element.generator(g, ring) for g in left])
        y = Tensor.from_elements([Element.generator(g, ring) for g in right])
        pairs.append((x, y))
    v = T * T
    vinv = TM2
    for x, y in pairs:
        rep.check("xy = v yx", x * y == (y * x).scale(v), x * y, (y * x).scale(v))
        for m in range(1, max_m + 1):
            lhs = (x + y) ** m
            rhs = None
            for k in range(m + 1):
                term = (x ** k * y ** (m - k)).scale(gauss_binomial(m, k, vinv))
                rhs = term if rhs is None else rhs + term
            rep.check(f"q-binomial m={m}", lhs == rhs, lhs, rhs)
    return rep


def binomial_collapse_check(twoL_max: int) -> Report:
    """The radical-collapse identity used for square-root-free matrix entries:

    binom(2l, l+i) binom(l+i, i-j) binom(l-j, i-j) / binom(2l, l+j)
        = binom(l-j, i-j)^2        (all at base t^-2, i >= j)
    """
    v = TM2
    rep = Report()
    for twoL in range(twoL_max + 1):
        for twoI in range(-twoL, twoL + 1, 2):
            for twoJ in range(-twoL, twoI + 1, 2):
                li, lj = (twoL + twoI) // 2, (twoL + twoJ) // 2
                dij = (twoI - twoJ) // 2
                lhs = (gauss_binomial(twoL, li, v) * gauss_binomial(li, dij, v)
                       * gauss_binomial(twoL - lj, dij, v)) / gauss_binomial(twoL, lj, v)
                rhs = gauss_binomial(twoL - lj, dij, v) ** 2
                rep.check(f"collapse 2l={twoL} 2i={twoI} 2j={twoJ}",
                          lhs == rhs, lhs, rhs)
    return rep
