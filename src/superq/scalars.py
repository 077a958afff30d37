"""Exact coefficient arithmetic.

The coefficient field is Q(i)(t): rational functions in a transcendental t
with Gaussian-rational coefficients, extended by formal square roots taken
from a fixed radicand list:

    1 + t^2,    1 + t^-2,    (t + t^-1)/(t - t^-1)

The deformation parameter q is never a symbol of its own: q = -t^2 is
substituted on input, which keeps everything except the sphere matrix
square-root free.  Internally only two radicals are atomic,

    R1    = sqrt(1 + t^2)
    KAPPA = sqrt((t + t^-1)/(t - t^-1))

and sqrt(1 + t^-2) is stored as t^-1 * R1.  (1 + t^-2 = (1 + t^2)/t^2, and
the coproduct identity for the sphere matrix only closes with this relative
normalization of the two branches.)

Every rational-function component is kept in canonical form: numerator and
denominator coprime, denominator monic in t.  Equality of scalars is
literal equality of canonical forms.

Coefficients are GaussRat values, each a normalised integer triple (a, b, d)
meaning (a + b*i)/d.  The polynomial and rational-function kernels work on
those ints directly: they put the coefficients of an operand over one common
denominator, compute with Gaussian-integer numerators, and normalise once per
output coefficient.  No Fraction is built on the arithmetic path.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional


class ScalarError(ArithmeticError):
    pass


class ScalarDivisionError(ScalarError):
    """Division by the zero scalar."""


class UnsupportedRadicalError(ScalarError):
    """Square root requested of something outside the fixed radicand list."""


class ScalarPoleError(ScalarError):
    """Numeric evaluation hit a pole of a rational-function component."""


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussRat:
    """A Gaussian rational (a + b*i)/d, stored as a normalised triple of ints.

    d > 0 and gcd(a, b, d) == 1, so each value has exactly one triple, and
    == and hash compare triples.  Zero is (0, 0, 1).  The constructor takes
    the real and imaginary parts as ints, Fractions or rational strings;
    .re and .im give them back as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        self.a = re.numerator * (d // p)
        self.b = im.numerator * (d // q)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        return (isinstance(other, GaussRat) and self.a == other.a
                and self.b == other.b and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        d, e = self.d, other.d
        return _gr(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other):
        d, e = self.d, other.d
        return _gr(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a, b, c, e = self.a, self.b, other.a, other.b
        return _gr(a * c - b * e, a * e + b * c, self.d * other.d)

    def inv(self):
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ScalarDivisionError("division by zero (Gaussian rational)")
        return _gr(a * d, -b * d, n)

    def __truediv__(self, other):
        return self * other.inv()

    def conj(self):
        return _gr(self.a, -self.b, self.d)

    def to_complex(self):
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


_new = object.__new__


def _gr(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b*i)/d, for ints with d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(GaussRat)
    x.a = a
    x.b = b
    x.d = d
    return x


G_ZERO = GaussRat(0)
G_ONE = GaussRat(1)
G_I = GaussRat(0, 1)


def gauss_i_power(n: int) -> GaussRat:
    n %= 4
    return (G_ONE, G_I, GaussRat(-1), GaussRat(0, -1))[n]


# ---------------------------------------------------------------------------
# Polynomials in t over GaussRat, as sparse {exponent: coeff} dicts
#
# Keys are inserted and deleted as term-by-term coefficient arithmetic would
# do it, so the dict order, which fixes the float summation order of
# _peval, does not depend on how the kernels group their integer work.
# ---------------------------------------------------------------------------

def _lift(p):
    """p over one denominator: ({e: (x, y)}, D) with p[e] == (x + y*i)/D."""
    D = 1
    for c in p.values():
        if D % c.d:
            D = D // gcd(D, c.d) * c.d
    if D == 1:
        return {e: (c.a, c.b) for e, c in p.items()}, 1
    return {e: (c.a * (D // c.d), c.b * (D // c.d)) for e, c in p.items()}, D


def _ptrim(p):
    return {e: c for e, c in p.items() if c}


def _padd(a, b):
    out = dict(a)
    for e, y in b.items():
        x = out.get(e)
        if x is None:
            out[e] = y
            continue
        d, f = x.d, y.d
        if d == f:
            re, im = x.a + y.a, x.b + y.b
        else:
            re, im, d = x.a * f + y.a * d, x.b * f + y.b * d, d * f
        if re or im:
            out[e] = _gr(re, im, d)
        else:
            del out[e]
    return out


def _pneg(a):
    return {e: _gr(-c.a, -c.b, c.d) for e, c in a.items()}


def _pmul(a, b):
    if len(b) == 1:
        (m, c), = b.items()
        return _pscale(a, c, m)
    if len(a) == 1:
        (m, c), = a.items()
        return _pscale(b, c, m)
    A, da = _lift(a)
    B, db = _lift(b)
    acc = {}
    for ea, (xa, ya) in A.items():
        for eb, (xb, yb) in B.items():
            e = ea + eb
            re = xa * xb - ya * yb
            im = xa * yb + ya * xb
            s = acc.get(e)
            if s is not None:
                re += s[0]
                im += s[1]
                if not (re or im):
                    del acc[e]
                    continue
            acc[e] = (re, im)
    d = da * db
    return {e: _gr(re, im, d) for e, (re, im) in acc.items()}


def _pscale(a, c: GaussRat, shift: int = 0):
    """c * t^shift * a."""
    if not c:
        return {}
    x, y, d = c.a, c.b, c.d
    if x == d == 1 and not y:
        return {e + shift: k for e, k in a.items()}
    return {e + shift: _gr(k.a * x - k.b * y, k.a * y + k.b * x, k.d * d)
            for e, k in a.items()}


def _pdeg(a):
    return max(a) if a else -1


def _plead(a):
    return a[_pdeg(a)]


def _pdivmod(a, b):
    if not b:
        raise ScalarDivisionError("polynomial division by zero")
    db, lb = _pdeg(b), _plead(b)
    # Divide by the monic b/lb, lifted to B/n (lead n > 0).  The remainder
    # R/D stays over one denominator, which grows by n per step.
    B, n = _lift(_pmonic(b))
    R, D = _lift(a)
    quo = {}
    while R:
        dr = max(R)
        if dr < db:
            break
        x, y = R[dr]
        k = dr - db
        quo[k] = (x, y, D)
        if n != 1:
            R = {e: (u * n, v * n) for e, (u, v) in R.items()}
            D *= n
        for eb, (u, v) in B.items():
            e = eb + k
            re, im = x * u - y * v, x * v + y * u
            s = R.get(e)
            if s is None:
                R[e] = (-re, -im)
                continue
            re, im = s[0] - re, s[1] - im
            if re or im:
                R[e] = (re, im)
            else:
                del R[e]
    # a = (quo / lb) * b + R/D
    w = lb.inv()
    p, q, m = w.a, w.b, w.d
    quo = {e: _gr(x * p - y * q, x * q + y * p, d * m) for e, (x, y, d) in quo.items()}
    return quo, {e: _gr(x, y, D) for e, (x, y) in R.items()}


def _pmonic(a):
    return _pscale(a, _plead(a).inv()) if a else a


def _pgcd(a, b):
    a, b = dict(a), dict(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    return _pmonic(a)


def _pconj(a):
    return {e: _gr(c.a, -c.b, c.d) for e, c in a.items()}


def _peval(a, tval: complex) -> complex:
    return sum(complex(c.a / c.d, c.b / c.d) * tval ** e for e, c in a.items())


P_ZERO: dict = {}
P_ONE = {0: G_ONE}


# ---------------------------------------------------------------------------
# Canonical rational functions num/den
# ---------------------------------------------------------------------------

def _rf_canon(num, den):
    """Reduce to coprime with monic denominator."""
    if not den:
        raise ScalarDivisionError("zero denominator")
    if not num:
        return ({}, dict(P_ONE))
    if len(den) == 1:
        # Monomial denominator c*t^e: cancel the common t-power and rescale.
        e, c = next(iter(den.items()))
        k = min(e, min(num))
        num = _pscale(num, c.inv(), -k)
        if e == k:
            return (num, dict(P_ONE))
        return (num, {e - k: G_ONE})
    if len(num) == 1:
        e, c = next(iter(num.items()))
        k = min(e, min(den))
        w = _plead(den).inv()
        return ({e - k: c * w}, _pscale(den, w, -k))
    g = _pgcd(num, den)
    if _pdeg(g) > 0:
        num, _ = _pdivmod(num, g)
        den, _ = _pdivmod(den, g)
    lc = _plead(den)
    if lc != G_ONE:
        w = lc.inv()
        num = _pscale(num, w)
        den = _pscale(den, w)
    return (num, den)


def _rf_add(x, y):
    if x[1] == y[1]:
        return _rf_canon(_padd(x[0], y[0]), x[1])
    return _rf_canon(_padd(_pmul(x[0], y[1]), _pmul(y[0], x[1])), _pmul(x[1], y[1]))


def _rf_mul(x, y):
    return _rf_canon(_pmul(x[0], y[0]), _pmul(x[1], y[1]))


def _rf_neg(x):
    return (_pneg(x[0]), x[1])


def _rf_inv(x):
    if not x[0]:
        raise ScalarDivisionError("division by zero")
    return _rf_canon(x[1], x[0])


def _rf_conj(x):
    return _rf_canon(_pconj(x[0]), _pconj(x[1]))


RF_ZERO = ({}, dict(P_ONE))
RF_ONE = (dict(P_ONE), dict(P_ONE))


# ---------------------------------------------------------------------------
# Scalars: radical-mask -> rational function
# ---------------------------------------------------------------------------

# Radical mask bits.
R1_BIT = 1       # sqrt(1 + t^2)
KAPPA_BIT = 2    # sqrt((t + t^-1)/(t - t^-1))

# Squares of the atomic radicals, as canonical rational functions.
_R1_SQUARE = _rf_canon({0: G_ONE, 2: G_ONE}, dict(P_ONE))           # 1 + t^2
_KAPPA_SQUARE = _rf_canon({0: G_ONE, 2: G_ONE}, {0: GaussRat(-1), 2: G_ONE})  # (t^2+1)/(t^2-1)

_BIT_SQUARES = {R1_BIT: _R1_SQUARE, KAPPA_BIT: _KAPPA_SQUARE}


class Scalar:
    """An element of Q(i)(t) extended by the fixed formal radicals.

    Stored as a map {radical mask: rational function}; the mask is a bit
    set over the atomic radicals R1 and KAPPA.  Immutable by convention.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        self.parts = {m: rf for m, rf in (parts or {}).items() if rf[0]}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "Scalar":
        c = GaussRat(x)
        if not c:
            return ZERO
        return Scalar({0: ({0: c}, dict(P_ONE))})

    @staticmethod
    def from_gauss(re, im) -> "Scalar":
        c = GaussRat(re, im)
        if not c:
            return ZERO
        return Scalar({0: ({0: c}, dict(P_ONE))})

    @staticmethod
    def t_power(n: int) -> "Scalar":
        if n >= 0:
            return Scalar({0: ({n: G_ONE}, dict(P_ONE))})
        return Scalar({0: ({0: G_ONE}, {-n: G_ONE})})

    @staticmethod
    def q_power(n: int) -> "Scalar":
        """q = -t^2, so q^n = (-1)^n t^(2n)."""
        s = Scalar.t_power(2 * n)
        return -s if n % 2 else s

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.parts == other.parts

    def __hash__(self):
        return hash(tuple(sorted((m, tuple(sorted(rf[0].items(), key=lambda kv: kv[0])),
                                  tuple(sorted(rf[1].items(), key=lambda kv: kv[0])))
                                 for m, rf in self.parts.items())))

    def is_rational_function(self) -> bool:
        return all(m == 0 for m in self.parts)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        out = dict(self.parts)
        for m, rf in other.parts.items():
            if m in out:
                s = _rf_add(out[m], rf)
                if s[0]:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = rf
        return Scalar(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Scalar({m: _rf_neg(rf) for m, rf in self.parts.items()})

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        out = {}
        for m1, rf1 in self.parts.items():
            for m2, rf2 in other.parts.items():
                rf = _rf_mul(rf1, rf2)
                common = m1 & m2
                for bit, square in _BIT_SQUARES.items():
                    if common & bit:
                        rf = _rf_mul(rf, square)
                mask = m1 ^ m2
                if mask in out:
                    s = _rf_add(out[mask], rf)
                    if s[0]:
                        out[mask] = s
                    else:
                        del out[mask]
                else:
                    out[mask] = rf
        return Scalar(out)

    def inv(self) -> "Scalar":
        if not self.parts:
            raise ScalarDivisionError("division by zero scalar")
        masks = set(self.parts)
        if masks == {0}:
            return Scalar({0: _rf_inv(self.parts[0])})
        # Rationalize one radical at a time: x = A + B*r, x * (A - B*r) has
        # one radical fewer, and the extension is a field so the norm is
        # nonzero for nonzero x.
        bit = next(b for b in _BIT_SQUARES if any(m & b for m in masks))
        conj_parts = {m: (rf if not (m & bit) else _rf_neg(rf))
                      for m, rf in self.parts.items()}
        conj = Scalar(conj_parts)
        norm = self * conj
        return conj * norm.inv()

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "Scalar":
        """Anti-linear conjugation: fixes t and the radicals, sends i to -i."""
        return Scalar({m: _rf_conj(rf) for m, rf in self.parts.items()})

    # -- numeric evaluation -------------------------------------------------

    def eval_numeric(self, q_val) -> complex:
        """Substitute a numeric q (t = i*sqrt(q)) and evaluate.

        For real q < 0 this gives the real value t = -sqrt(-q); otherwise t
        is taken on the principal branch of sqrt(q).  Radicals are evaluated
        by principal branch.  q must be nonzero and not a root of unity.
        A denominator counts as vanishing when its value is below 1e-13
        times sum |c_k| |t|^k, the size of its terms.
        """
        qc = complex(q_val)
        if qc == 0:
            raise ScalarError("q must be nonzero")
        if abs(abs(qc) - 1.0) < 1e-15:
            raise ScalarError("q must not be a root of unity")
        if qc.imag == 0 and qc.real < 0:
            tval = complex(-math.sqrt(-qc.real))
        else:
            tval = 1j * cmath.sqrt(qc)
        total = 0j
        for mask, (num, den) in self.parts.items():
            dv = _peval(den, tval)
            size = sum(abs(complex(c.a / c.d, c.b / c.d)) * abs(tval) ** e for e, c in den.items())
            if abs(dv) < 1e-13 * size:
                raise ScalarPoleError(f"pole at t = {tval}")
            val = _peval(num, tval) / dv
            if mask & R1_BIT:
                val *= cmath.sqrt(1 + tval * tval)
            if mask & KAPPA_BIT:
                val *= cmath.sqrt((tval + 1 / tval) / (tval - 1 / tval))
            total += val
        return total

    def specialize_t(self, t_val: Fraction) -> GaussRat:
        """Exact substitution t = rational, for radical-free scalars only."""
        if not self.is_rational_function():
            raise ScalarError("cannot specialize a radical-bearing scalar exactly")
        if not self.parts:
            return G_ZERO
        tn, td = t_val.numerator, t_val.denominator

        def ev(p):
            # p(tn/td) == (x + y*i)/D; canonical exponents are >= 0.
            lifted, D = _lift(p)
            top = max(lifted)
            x = y = 0
            for e, (u, v) in lifted.items():
                w = tn ** e * td ** (top - e)
                x += u * w
                y += v * w
            return x, y, D * td ** top

        num, den = self.parts[0]
        x, y, dn = ev(num)
        u, v, dd = ev(den)
        if not (u or v):
            raise ScalarPoleError(f"denominator vanishes at t = {t_val}")
        # (x + y*i)/dn divided by (u + v*i)/dd
        return _gr((x * u + y * v) * dd, (y * u - x * v) * dd, dn * (u * u + v * v))

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        return f"Scalar<{self}>"

    def __str__(self):
        if not self.parts:
            return "0"
        chunks = []
        for mask in sorted(self.parts):
            body = _rf_str(self.parts[mask])
            rad = _mask_str(mask)
            if rad:
                if body == "1":
                    chunk = rad
                else:
                    chunk = f"{_parenthesize(body)}*{rad}"
            else:
                chunk = body
            chunks.append(chunk)
        out = chunks[0]
        for c in chunks[1:]:
            out += " - " + c[1:].lstrip() if c.startswith("-") else " + " + c
        return out

    def to_json(self):
        comps = []
        for mask in sorted(self.parts):
            num, den = self.parts[mask]
            inum, iden = _integerize(num, den)
            comps.append({
                "radicals": _mask_names(mask),
                "num": _poly_json(inum),
                "den": _poly_json(iden),
            })
        return comps


# ---------------------------------------------------------------------------
# Named constants
# ---------------------------------------------------------------------------

ZERO = Scalar()


def add_term(acc: dict, key, c: Scalar) -> None:
    """acc[key] += c in a sparse {key: Scalar} sum that stores no zeros.

    An existing key is updated in place, a new key is appended, and a key
    whose sum cancels is deleted, so equal sums compare equal with ==.
    """
    if key in acc:
        s = acc[key] + c
        if s:
            acc[key] = s
        else:
            del acc[key]
    elif c:
        acc[key] = c


ONE = Scalar.from_rational(1)
MINUS_ONE = Scalar.from_rational(-1)
I_UNIT = Scalar.from_gauss(0, 1)
T = Scalar.t_power(1)
T_INV = Scalar.t_power(-1)
Q = Scalar.q_power(1)

# The published radicand list.
RADICAND_1_PLUS_T2 = ONE + T * T
RADICAND_1_PLUS_TM2 = ONE + T_INV * T_INV
RADICAND_KAPPA2 = (T + T_INV) / (T - T_INV)

SQRT_1_PLUS_T2 = Scalar({R1_BIT: RF_ONE})
KAPPA = Scalar({KAPPA_BIT: RF_ONE})
# sqrt(1 + t^-2) == t^-1 sqrt(1 + t^2); see module docstring.
SQRT_1_PLUS_TM2 = T_INV * SQRT_1_PLUS_T2


def formal_sqrt(x: Scalar) -> Scalar:
    """Square root of a radicand from the fixed list; anything else errors."""
    if x == RADICAND_1_PLUS_T2:
        return SQRT_1_PLUS_T2
    if x == RADICAND_1_PLUS_TM2:
        return SQRT_1_PLUS_TM2
    if x == RADICAND_KAPPA2:
        return KAPPA
    raise UnsupportedRadicalError(f"unsupported radical: sqrt({x})")


def scalar_arith(x: Scalar, y: Optional[Scalar], op: str) -> Scalar:
    """Dispatcher form of the field operations (add, mul, inv, conj)."""
    if op == "add":
        return x + y
    if op == "mul":
        return x * y
    if op == "inv":
        return x.inv()
    if op == "conj":
        return x.conj()
    raise ValueError(f"unknown op {op!r}")


def eval_numeric(x: Scalar, q_val) -> complex:
    return x.eval_numeric(q_val)


# ---------------------------------------------------------------------------
# Square-root detection inside Q(i)(t)  (radical-free scalars)
# ---------------------------------------------------------------------------

def _sqrt_ratio(n: int, d: int):
    """sqrt(n/d) as a reduced pair (r, s) when n/d >= 0 is a rational square."""
    if n < 0:
        return None
    g = gcd(n, d)
    n, d = n // g, d // g
    r, s = isqrt(n), isqrt(d)
    if r * r == n and s * s == d:
        return r, s
    return None


def _sqrt_gauss(c: GaussRat) -> Optional[GaussRat]:
    a, b, d = c.a, c.b, c.d
    if not b:
        r = _sqrt_ratio(a, d)
        if r is not None:
            return _gr(r[0], 0, r[1])
        r = _sqrt_ratio(-a, d)
        if r is not None:
            return _gr(0, r[0], r[1])
        return None
    # sqrt(c) = x + (b/d)/(2x)*i with x^2 = (re + |c|)/2.
    n = isqrt(a * a + b * b)
    if n * n != a * a + b * b:
        return None
    x = _sqrt_ratio(a + n, 2 * d)
    if x is None or not x[0]:
        return None
    xn, xd = x
    return _gr(2 * d * xn * xn, b * xd * xd, 2 * d * xn * xd)


def _sqrt_poly(p) -> Optional[dict]:
    if not p:
        return {}
    d = _pdeg(p)
    if d % 2 or min(p) % 2:
        return None
    lead = _sqrt_gauss(_plead(p))
    if lead is None:
        return None
    h = d // 2
    s = [G_ZERO] * (h + 1)
    s[h] = lead
    # Solve p = s^2 top-down: coeff of t^(h+e) is 2*s[h]*s[e] plus known terms.
    for e in range(h - 1, -1, -1):
        acc = G_ZERO
        for a in range(e + 1, h):
            acc = acc + s[a] * s[h + e - a]
        s[e] = (p.get(h + e, G_ZERO) - acc) / (GaussRat(2) * lead)
    sd = {e: c for e, c in enumerate(s) if c}
    if _pmul(sd, sd) == _ptrim(p):
        return sd
    return None


def scalar_sqrt(x: Scalar) -> Optional[Scalar]:
    """Exact square root within Q(i)(t), or None if x is not a square there."""
    if x.is_zero():
        return ZERO
    if not x.is_rational_function():
        return None
    num, den = x.parts[0]
    rden = _sqrt_poly(den)
    if rden is None:
        return None
    rnum = _sqrt_poly(num)
    if rnum is None:
        # Allow an i^2 unit: x = -(square).
        rnum = _sqrt_poly(_pneg(num))
        if rnum is None:
            return None
        rnum = _pscale(rnum, G_I)
    return Scalar({0: _rf_canon(rnum, rden)})


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

def _integerize(num, den):
    """Scale num/den by one positive rational so all coefficients are
    Gaussian integers with overall content 1."""
    lcm = 1
    for p in (num, den):
        for c in p.values():
            lcm = lcm * c.d // gcd(lcm, c.d)
    g = 0
    for p in (num, den):
        for c in p.values():
            g = gcd(g, c.a * (lcm // c.d), c.b * (lcm // c.d))
    g = g or 1

    def scale(p):
        return {e: _gr(c.a * (lcm // c.d) // g, c.b * (lcm // c.d) // g, 1)
                for e, c in p.items()}
    return scale(num), scale(den)


def _rat_str(n: int, d: int) -> str:
    """n/d as Fraction prints it."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _gauss_str(c: GaussRat) -> str:
    a, b, d = c.a, c.b, c.d
    if not b:
        return _rat_str(a, d)
    ims = "i" if b == d else ("-i" if b == -d else f"{_rat_str(b, d)}i")
    if not a:
        return ims
    res = _rat_str(a, d)
    return f"{res}+{ims}" if b > 0 else f"{res}{ims}"


def _poly_str(p) -> str:
    if not p:
        return "0"
    pieces = []
    for e in sorted(p, reverse=True):
        c = p[e]
        cs = _gauss_str(c)
        composite = ("+" in cs[1:]) or ("-" in cs[1:])
        if e == 0:
            piece = f"({cs})" if composite else cs
        else:
            tpow = "t" if e == 1 else f"t^{e}"
            if cs == "1":
                piece = tpow
            elif cs == "-1":
                piece = f"-{tpow}"
            elif composite:
                piece = f"({cs})*{tpow}"
            else:
                piece = f"{cs}*{tpow}"
        pieces.append(piece)
    out = pieces[0]
    for piece in pieces[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


def _parenthesize(s: str) -> str:
    if any(ch in s for ch in " +-") and not (s.startswith("(") and s.endswith(")")):
        return f"({s})"
    return s


def _rf_str(rf) -> str:
    num, den = _integerize(*rf)
    ns = _poly_str(num)
    if den == P_ONE or den == {0: G_ONE}:
        return ns
    ds = _poly_str(den)
    return f"{_parenthesize(ns)}/{_parenthesize(ds)}"


def _mask_str(mask) -> str:
    names = _mask_names(mask)
    return "*".join(names)


def _mask_names(mask):
    names = []
    if mask & R1_BIT:
        names.append("sqrt(1+t^2)")
    if mask & KAPPA_BIT:
        names.append("kappa")
    return names


def _poly_json(p):
    return [[e, _gauss_str(p[e])] for e in sorted(p)]


def scalar_from_fraction_string(text: str) -> Scalar:
    """Parse 'p' or 'p/q' into a rational scalar (CLI helper)."""
    return Scalar.from_rational(Fraction(text))
