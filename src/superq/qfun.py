"""q-combinatorics over the exact scalar field.

q-shifted factorials, Gauss binomial coefficients and little q-Jacobi
polynomials, all with Scalar coefficients.  Polynomials in the commuting
formal variable z stay in this module; substituting a noncommutative
argument for z is the caller's business.
"""

from __future__ import annotations

from typing import Dict

from .report import Report
from .scalars import ONE, Scalar, T, T_INV, ZERO, add_term


def pochhammer(u: Scalar, v: Scalar, m: int) -> Scalar:
    """(u; v)_m = prod_{k=0}^{m-1} (1 - u v^k); empty product for m = 0."""
    out = ONE
    power = ONE
    for _ in range(m):
        out = out * (ONE - u * power)
        power = power * v
    return out


def gauss_binomial(m: int, n: int, v: Scalar) -> Scalar:
    """Gauss binomial (m over n)_v; 0 when n is out of range."""
    if n < 0 or n > m:
        return ZERO
    num = pochhammer(v, v, m)
    den = pochhammer(v, v, n) * pochhammer(v, v, m - n)
    return num / den


class QPolynomial:
    """Sparse polynomial in one commuting variable z over Scalars."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, Scalar] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @staticmethod
    def constant(c: Scalar) -> "QPolynomial":
        return QPolynomial({0: c})

    @staticmethod
    def variable() -> "QPolynomial":
        return QPolynomial({1: ONE})

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def __eq__(self, other):
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            add_term(out, e, c)
        return QPolynomial(out)

    def __neg__(self):
        return QPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return QPolynomial({e: c * other for e, c in self.coeffs.items()})
        out: Dict[int, Scalar] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                add_term(out, e, c1 * c2)
        return QPolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.__mul__(other)
        return NotImplemented

    def eval_scalar(self, z: Scalar) -> Scalar:
        out = ZERO
        for e, c in self.coeffs.items():
            out = out + c * z ** e
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for e in sorted(self.coeffs):
            c = str(self.coeffs[e])
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
        out = pieces[0]
        for p in pieces[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"QPolynomial<{self}>"

    def to_json(self):
        return [{"power": e, "coeff": self.coeffs[e].to_json()}
                for e in sorted(self.coeffs)]


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
    which truncates at r = n.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    q = base
    out: Dict[int, Scalar] = {}
    for r in range(n + 1):
        num = pochhammer(q ** (-n), q, r) * pochhammer(q ** (alpha + beta + n + 1), q, r)
        den = pochhammer(q, q, r) * pochhammer(q ** (alpha + 1), q, r)
        coeff = (num / den) * q ** r
        if coeff:
            out[r] = coeff
    return QPolynomial(out)


def pascal_rule_check(max_m: int) -> Report:
    """Gauss-binomial Pascal rule with a formal v, checked exactly."""
    v = T_INV * T_INV
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
    vinv = T_INV * T_INV
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
    v = T_INV * T_INV
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
