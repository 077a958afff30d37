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

A polynomial is stored as Gaussian-integer numerators over one denominator,
(C, D) = ({e: (x, y)}, D) for the sum of (x + y*i)/D * t^e, with D > 0, no
zero coefficient, and gcd(all x, y, D) == 1; zero is ({}, 1).  Each value
has exactly one such form, so == and hash compare ints and tuples.  The
kernels compute on the numerators and normalise the content once per
result: one gcd, and none when D == 1, which covers most coefficients the
relations produce.  (FLINT's fmpq_poly keeps the same layout over Z.)

Every rational-function component is kept in canonical form: numerator and
denominator coprime, denominator monic in t.  Equality of scalars is
literal equality of canonical forms.

Most coefficients the relations produce are Laurent polynomials: their
canonical denominator is a monomial, always t^k with coefficient 1.  Sums
and products of such operands (and their conjugates) shift exponents and
cancel the common t-power directly; they never reach _rf_canon or a gcd.

The canonical atoms are hash-consed (Goto 1974; Filliatre-Conchon 2006):
signed_t_power returns one shared Scalar per value of +-t^k (ONE itself
for 1), and _t_den one shared denominator t^k.  Both tables are
registered with _cache.  These units are closed under *, -, conj and inv:
a product of two units, -u, u.conj() and u.inv() are lookups, a sum that
is +-t^k is the unit, and a product with any other Scalar shifts the
exponents of its Laurent parts.  Every other value is shared where it is
kept, not where it is made: _cache.memo and _cache.store pass what a memo
table stores through share, so every plain Scalar in a memo table is the
one object for its value held in _share_cache (0 is ZERO, +-t^k the
unit), until a cap or clear() empties that table.  The products and sums
in between are not hashed and not kept.  Sharing is only a saving:
identity is a short-cut for ONE, every other `is` a short-cut in front
of ==, and no code may mutate a Scalar or a polynomial dict once built.

A product of two stored values is memoised by identity.  _share_scalar
also puts each value it stores in _share_id_cache, {id(x): x}; when both
operands' ids are there, Scalar.__mul__ looks (id(x), id(y)) up in
_product_cache and on a miss stores (x, y, x*y), the product passed
through the share step, so it is a stored value too.  No value is hashed
on this path.  An entry holds both operands, so neither can be freed and
neither id can pass to another object while the entry exists: a hit is
the product of the very objects asked for.  A cap that empties the index
only makes fills rarer.

A non-monomial denominator takes Henrici's route (Knuth, TAOCP vol. 2,
4.5.1), which cancels before it combines.  A product cancels gcd(n1, d2)
and gcd(n2, d1), then multiplies.  A sum takes g = gcd(d1, d2) and
s = n1*(d2/g) + n2*(d1/g); then only gcd(s, g) can cancel, and nothing can
when g = 1.  A square, an inverse and a conjugate of a coprime pair stay
coprime and need no gcd.  A gcd with a monomial denominator t^k is the
t-power the two share; every other gcd is _pgcd, Euclid over Q(i).  Euclid
keeps only remainders, each made monic once, so the last nonzero one is
the monic gcd; a quotient is built only by the exact division _pdiv after
a gcd.  One division loop, _pdivmod, serves both.

The printer takes no gcd for a canonical part: its integer form
(_integerize) has content 1 by construction.

GaussRat, a normalised integer triple, holds the scalar constants and the
exact numeric evaluation: with s = t^2 = -q a Gaussian rational, a
polynomial is E(s) + t*O(s), and a rational function is brought to A + t*B
exactly (see Scalar.eval_numeric).  Nothing reads the key order of a
polynomial dict: printing sorts.

add_term, sum_images and _Combination hold the zero-free sparse
{key: Scalar} sums of Element, Tensor, Functional, QPolynomial and
PlaneElement.  Each of these is a free module whose product or structure
map is given on basis keys and extended linearly: _Combination.__mul__ is
the bilinear extension of a class's key product _times, and sum_images the
linear extension of a map from keys to sums, such as a coproduct, a
coaction, the antipode or a leg map of a tensor.  add_term is the in-place
update both use.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt
from typing import Optional

from . import _cache


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


# ---------------------------------------------------------------------------
# Polynomials in t: ({e: (x, y)}, D), Gaussian-integer numerators over D
# ---------------------------------------------------------------------------

def _pn(C, D):
    """The polynomial C/D in normal form: C a zero-free {e: (x, y)}, D > 0."""
    if D != 1:
        g = gcd(D, *chain.from_iterable(C.values()))
        if g != 1:
            C = {e: (x // g, y // g) for e, (x, y) in C.items()}
            D //= g
    return C, D


def _padd(a, b, shift: int = 0):
    """a + b * t^shift."""
    (A, D), (B, Db) = a, b
    if D == Db:
        out = dict(A)
    else:
        g = gcd(D, Db)
        u, v = Db // g, D // g
        D *= u
        out = {e: (x * u, y * u) for e, (x, y) in A.items()}
        B = {e: (x * v, y * v) for e, (x, y) in B.items()}
    for e, (x, y) in B.items():
        e += shift
        s = out.get(e)
        if s is not None:
            x += s[0]
            y += s[1]
            if not (x or y):
                del out[e]
                continue
        out[e] = (x, y)
    return _pn(out, D)


def _pneg(a):
    return {e: (-x, -y) for e, (x, y) in a[0].items()}, a[1]


def _pmul(a, b, shift: int = 0):
    """a * b * t^shift."""
    (A, Da), (B, Db) = a, b
    if len(B) == 1:
        ((m, (x, y)),) = B.items()
        return _pscale(a, x, y, Db, m + shift)
    if len(A) == 1:
        ((m, (x, y)),) = A.items()
        return _pscale(b, x, y, Da, m + shift)
    acc = {}
    for ea, (xa, ya) in A.items():
        ea += shift
        for eb, (xb, yb) in B.items():
            e = ea + eb
            re = xa * xb - ya * yb
            im = xa * yb + ya * xb
            s = acc.get(e)
            if s is not None:
                re += s[0]
                im += s[1]
            acc[e] = (re, im)
    return _pn({e: c for e, c in acc.items() if c[0] or c[1]}, Da * Db)


def _pscale(a, x: int, y: int, d: int = 1, shift: int = 0):
    """a * t^shift * (x + y*i)/d, for ints with d > 0."""
    A, D = a
    if not y:
        if x == d:
            return _pshift(a, shift)
        if x == -d:
            return {e + shift: (-u, -v) for e, (u, v) in A.items()}, D
        C = {e + shift: (u * x, v * x) for e, (u, v) in A.items()}
    else:
        C = {e + shift: (u * x - v * y, u * y + v * x) for e, (u, v) in A.items()}
    return _pn(C, D * d)


def _pdivc(a, c, d: int, shift: int = 0):
    """a * t^shift divided by the nonzero constant (x + y*i)/d, c = (x, y)."""
    x, y = c
    return _pscale(a, d * x, -d * y, x * x + y * y, shift)


def _pshift(a, shift: int):
    """t^shift * a (a itself when shift is 0)."""
    return ({e + shift: c for e, c in a[0].items()}, a[1]) if shift else a


def _pdeg(a):
    return max(a[0]) if a[0] else -1


def _plead(a):
    """The numerator (x, y) of the leading coefficient (x + y*i)/D."""
    return a[0][max(a[0])]


def _pmonic(a):
    """a divided by its leading coefficient; its leading numerator is (D, 0)."""
    x, y = _plead(a)
    return a if x == a[1] and not y else _pscale((a[0], 1), x, -y, x * x + y * y)


def _pdivmod(a, b):
    """The one division loop: (quo, R, D) with a = q*b + R/D, deg R < deg b.

    quo holds the quotient as raw terms (k, x, y, d), and
    q = sum of (x + y*i)/d * t^k over them, divided by lead(b).  R/D is the
    remainder, numerators over one denominator, not yet normalised.  Only
    _pdiv converts quo into a polynomial; _pgcd reads R alone."""
    if not b[0]:
        raise ScalarDivisionError("polynomial division by zero")
    # Divide by the monic b/lead(b) = B/n, whose leading numerator is n > 0.
    # The remainder R/D keeps one denominator, which grows by n per step.
    B, n = _pmonic(b)
    db = max(B)
    R, D = dict(a[0]), a[1]
    quo = []
    while R:
        dr = max(R)
        if dr < db:
            break
        x, y = R[dr]
        k = dr - db
        quo.append((k, x, y, D))
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
    return quo, R, D


def _pgcd(a, b):
    """The monic gcd of a and b; gcd(0, b) is b made monic, and gcd(0, 0)
    is the zero polynomial.

    Euclid's remainder sequence (Knuth, TAOCP vol. 2, 4.6.1), monic: the
    inputs are ordered by degree, each nonzero remainder is made monic once
    and then divides at the next step, so the last one is the monic gcd.
    No quotient is built."""
    if _pdeg(a) < _pdeg(b):
        a, b = b, a
    if not b[0]:
        return _pmonic(a) if a[0] else a
    b = _pmonic(b)
    while True:
        R = _pdivmod(a, b)[1]
        if not R:
            return b
        # R/D made monic is R/1 made monic: the denominator only scales.
        a, b = b, _pmonic((R, 1))


def _pconj(a):
    return {e: (x, -y) for e, (x, y) in a[0].items()}, a[1]


def _gpow(u: int, v: int, k: int):
    """(u + v*i)^k as a pair of ints, by repeated squaring."""
    a, b = 1, 0
    while k:
        if k & 1:
            a, b = a * u - b * v, a * v + b * u
        u, v, k = u * u - v * v, 2 * u * v, k >> 1
    return a, b


# The largest power _pval builds, in bits: its exponent times the bits of x.
_NUMERIC_BITS = 1 << 20


def _pval(p, x: GaussRat, shift: int):
    """(E, O, n) with p(y) = (E + y*O)/n, E and O Gaussian integers, n > 0,
    where y = x for shift 0 (so O = 0) and y^2 = x for shift 1.  The
    exponents of p are >= 0; the cost follows its terms, not its degree."""
    P, D = p
    k = max(P, default=0) >> shift
    if k * max(x.a.bit_length(), x.b.bit_length(), x.d.bit_length()) > _NUMERIC_BITS:
        raise ScalarError(f"exact evaluation at degree {k} needs numbers of over "
                          f"{_NUMERIC_BITS} bits, the bound")
    eo = [0, 0, 0, 0]   # E.a, E.b, O.a, O.b
    for e, (c, d) in P.items():
        (u, v), w = _gpow(x.a, x.b, e >> shift), x.d ** (k - (e >> shift))
        j = 2 * (e & shift)
        eo[j] += (c * u - d * v) * w
        eo[j + 1] += (c * v + d * u) * w
    return _gr(eo[0], eo[1], 1), _gr(eo[2], eo[3], 1), D * x.d ** k


def _rf_value(rf, s: GaussRat, t: Optional[GaussRat]):
    """rf at t, t^2 = s, as (a, b, c) with value (a + t*b)/c; t is None
    unless it lies in Q(i) (then b = 0).  a, b, c are Gaussian integers,
    GaussRats with d = 1, whose arithmetic takes no gcd however long."""
    if t is not None:
        (a, b, n1), (c, _, n2) = (_pval(p, t, 0) for p in rf)
    else:
        # p(t) = (E + t*O)/n.  As t is not in Q(i), ed + t*od vanishes iff
        # ed = od = 0, and only then does its product with ed - t*od.
        (a, b, n1), (c, od, n2) = (_pval(p, s, 1) for p in rf)
        if od:
            S, m = _gr(s.a, s.b, 1), _gr(s.d, 0, 1)   # s = S/m
            a, b, c = m * a * c - S * b * od, m * (b * c - a * od), m * c * c - S * od * od
    if not c:
        raise ScalarPoleError(f"denominator vanishes at t^2 = {_gauss_str(s.a, s.b, s.d)}")
    return a * _gr(n2, 0, 1), b * _gr(n2, 0, 1), c * _gr(n1, 0, 1)


def _complex(x: GaussRat, y: GaussRat = G_ONE) -> complex:
    """x/y rounded to the nearest complex float: int / int rounds correctly."""
    n = (y.a * y.a + y.b * y.b) * x.d
    return complex((x.a * y.a + x.b * y.b) * y.d / n, (x.b * y.a - x.a * y.b) * y.d / n)


_C1 = (1, 0)
P_ONE = ({0: _C1}, 1)

# The shared canonical atoms (see the module docstring): {k: t^k} and
# {(eps & 1, p): (-1)^eps t^p}.
_t_den_cache: dict = {}
_unit_cache: dict = {}
_cache.register(_t_den_cache)
_cache.register(_unit_cache)


def _t_den(k: int):
    """The canonical denominator t^k, one shared polynomial per k."""
    d = _t_den_cache.get(k)
    if d is None:
        d = ({k: _C1}, 1) if k else P_ONE
        _cache.put(_t_den_cache, k, d)
    return d


# ---------------------------------------------------------------------------
# Canonical rational functions num/den
# ---------------------------------------------------------------------------

def _rf_canon(num, den):
    """Reduce to coprime with monic denominator."""
    N, M = num[0], den[0]
    if not M:
        raise ScalarDivisionError("zero denominator")
    if not N:
        return RF_ZERO
    if len(M) == 1:
        # Monomial denominator c*t^e: cancel the common t-power and rescale.
        ((e, c),) = M.items()
        k = min(e, min(N))
        return (_pdivc(num, c, den[1], -k), _t_den(e - k))
    if len(N) == 1:
        e = next(iter(N))
        k = min(e, min(M))
        return (_pdivc(_pshift(num, -k), _plead(den), den[1]), _pshift(_pmonic(den), -k))
    # Clear negative exponents first: Euclid needs polynomials.
    v = min(min(N), min(M))
    if v < 0:
        num, den = _pshift(num, -v), _pshift(den, -v)
    g = _pgcd(num, den)
    if _pdeg(g) > 0:
        num, den = _pdiv(num, g), _pdiv(den, g)
    return (_pdivc(num, _plead(den), den[1]), _pmonic(den))


def _pdiv(a, b):
    """a / b, for b dividing a: the exact division after a gcd, and the only
    place a quotient is built from _pdivmod's raw terms."""
    quo = _pdivmod(a, b)[0]
    D = quo[-1][3] if quo else 1   # the denominator grows along the loop
    q = {k: (x * (D // d), y * (D // d)) for k, x, y, d in quo}
    return _pdivc(_pn(q, D), _plead(b), b[1])


def _cancel(a, b):
    """(a/g, b/g) for g = gcd(a, b), or None when g is 1.  b is monic."""
    if len(a[0]) == 1 or len(b[0]) == 1:
        # A monomial shares with the other only a t-power: dividing is a shift.
        j = min(min(a[0]), min(b[0]))
        return (_pshift(a, -j), _pshift(b, -j)) if j else None
    g = _pgcd(a, b)
    if _pdeg(g) > 0:
        return _pdiv(a, g), _pdiv(b, g)
    return None


# The operands of _rf_add and _rf_mul are canonical.  The Laurent fast paths
# take those whose denominators are monomials t^k; the Henrici routes take
# the rest.  Both give the canonical form of the generic route
# _rf_canon(_padd/_pmul ...).

def _rf_add(x, y):
    (n1, d1), (n2, d2) = x, y
    if len(d1[0]) == 1 == len(d2[0]):
        (e1,), (e2,) = d1[0], d2[0]
        e = max(e1, e2)
        num = _padd(n1, n2, e1 - e2) if e == e1 else _padd(n2, n1, e2 - e1)
        if not num[0]:
            return RF_ZERO
        k = min(e, min(num[0]))
        return (_pshift(num, -k), _t_den(e - k))
    if d1 == d2:
        return _rf_canon(_padd(n1, n2), d1)
    # Henrici: with g = gcd(d1, d2) and s = n1*(d2/g) + n2*(d1/g), the sum is
    # s/(d1*d2/g), and only h = gcd(s, g) can still cancel.  As d1 != d2,
    # s is not zero.
    g = _pgcd(d1, d2)
    if _pdeg(g) == 0:
        return (_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))
    e1, e2 = _pdiv(d1, g), _pdiv(d2, g)
    s = _padd(_pmul(n1, e2), _pmul(n2, e1))
    h = _pgcd(s, g)
    if _pdeg(h) > 0:
        s, d2 = _pdiv(s, h), _pdiv(d2, h)
    return (s, _pmul(e1, d2))


def _rf_mul(x, y):
    (n1, d1), (n2, d2) = x, y
    if not (n1[0] and n2[0]):
        return RF_ZERO
    if len(d1[0]) == 1 == len(d2[0]):
        (e1,), (e2,) = d1[0], d2[0]
        # The lowest terms of a product of nonzero polynomials multiply.
        k = min(e1 + e2, min(n1[0]) + min(n2[0]))
        return (_pmul(n1, n2, -k), _t_den(e1 + e2 - k))
    if x is y:
        return (_pmul(n1, n1), _pmul(d1, d1))   # a coprime pair squared
    # Henrici: only gcd(n1, d2) and gcd(n2, d1) can cancel.
    n1, d2 = _cancel(n1, d2) or (n1, d2)
    n2, d1 = _cancel(n2, d1) or (n2, d1)
    return (_pmul(n1, n2), _pmul(d1, d2))


def _rf_neg(x):
    return (_pneg(x[0]), x[1])


def _rf_inv(x):
    # Swapping a canonical pair leaves it coprime: only the lead rescales.
    num, den = x
    if not num[0]:
        raise ScalarDivisionError("division by zero")
    return (_pdivc(den, _plead(num), num[1]), _pmonic(num))


def _rf_conj(x):
    # t^k is real; any other conjugate denominator stays coprime and monic.
    return (_pconj(x[0]), x[1] if len(x[1][0]) == 1 else _pconj(x[1]))


RF_ZERO = (({}, 1), P_ONE)
RF_ONE = (P_ONE, P_ONE)


# ---------------------------------------------------------------------------
# Scalars: radical-mask -> rational function
# ---------------------------------------------------------------------------

# Radical mask bits.
R1_BIT = 1       # sqrt(1 + t^2)
KAPPA_BIT = 2    # sqrt((t + t^-1)/(t - t^-1))

# Squares of the atomic radicals, as canonical rational functions.
_R1_SQUARE = (({0: _C1, 2: _C1}, 1), P_ONE)                         # 1 + t^2
_KAPPA_SQUARE = (({0: _C1, 2: _C1}, 1), ({0: (-1, 0), 2: _C1}, 1))    # (t^2+1)/(t^2-1)

_BIT_SQUARES = {R1_BIT: _R1_SQUARE, KAPPA_BIT: _KAPPA_SQUARE}


class Scalar:
    """An element of Q(i)(t) extended by the fixed formal radicals.

    Stored as a map {radical mask: rational function}; the mask is a bit
    set over the atomic radicals R1 and KAPPA.  Immutable by convention.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        self.parts = {m: rf for m, rf in (parts or {}).items() if rf[0][0]}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "Scalar":
        return Scalar.from_gauss(x, 0)

    @staticmethod
    def from_gauss(re, im) -> "Scalar":
        c = GaussRat(re, im)
        if not c:
            return ZERO
        return _scalar({0: (({0: (c.a, c.b)}, c.d), P_ONE)})

    @staticmethod
    def t_power(n: int) -> "Scalar":
        return signed_t_power(0, n)

    @staticmethod
    def q_power(n: int) -> "Scalar":
        """q = -t^2, so q^n = (-1)^n t^(2n)."""
        return signed_t_power(n, 2 * n)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.parts == other.parts

    def __hash__(self):
        # The parts' hashes combined without regard to their order: one
        # frozenset fewer than hashing the set of parts.
        h = 0
        for m, ((n, dn), (d, dd)) in self.parts.items():
            h ^= hash((m, frozenset(n.items()), dn, frozenset(d.items()), dd))
        return h

    def is_rational_function(self) -> bool:
        return all(m == 0 for m in self.parts)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        out = dict(self.parts)
        for m, rf in other.parts.items():
            _add_part(out, m, rf)
        rf = out.get(0)
        if rf is not None and len(rf[0][0]) == 1:    # maybe +-t^k
            return _unit_of(out) or _scalar(out)
        return _scalar(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _scalar({m: _rf_neg(rf) for m, rf in self.parts.items()})

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        i = id(self)
        if i in _share_id_cache:
            j = id(other)
            if j in _share_id_cache:    # two stored values: the product memo
                hit = _product_cache.get((i, j))
                if hit is None:
                    hit = (self, other, _share_scalar(_product(self, other)))
                    _cache.put(_product_cache, (i, j), hit)
                return hit[2]
        return _product(self, other)

    # Scalars commute.  Defining __rmul__ here also spares x * u, u a _Unit,
    # a failed lookup of Scalar.__rmul__ before Python calls _Unit.__rmul__.
    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self.parts:
            raise ScalarDivisionError("division by zero scalar")
        masks = set(self.parts)
        if masks == {0}:
            return _scalar({0: _rf_inv(self.parts[0])})
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
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            base = base * base if n else base
        return out

    def conj(self) -> "Scalar":
        """Anti-linear conjugation: fixes t and the radicals, sends i to -i."""
        return _scalar({m: _rf_conj(rf) for m, rf in self.parts.items()})

    # -- numeric evaluation -------------------------------------------------

    def eval_numeric(self, q_val) -> complex:
        """Substitute a numeric q (t = i*sqrt(q)) and evaluate.

        q (an int, Fraction, float or complex) is taken exactly, and must be
        nonzero and off the unit circle.  For real q < 0, t = -sqrt(-q);
        otherwise t is on the principal branch of sqrt(q).  Each part is
        computed exactly as A + t*B (_rf_value) and rounded once; poles are
        decided exactly.  Radicals are evaluated on the principal branch.
        """
        q = GaussRat(q_val.real, q_val.imag)
        if not q or q.a * q.a + q.b * q.b == q.d * q.d:
            raise ScalarError("q must be nonzero and off the unit circle")
        s = -q
        t = _sqrt_gauss(s)
        if t is not None and (t.b < 0 or (not t.b and t.a > 0)):
            t = -t   # t = i*w for the principal root w of q
        try:
            total = 0j
            for mask in sorted(self.parts):
                a, b, c = _rf_value(self.parts[mask], s, t)
                val = _complex(a, c)
                if b:
                    val += 1j * cmath.sqrt(_complex(q)) * _complex(b, c)
                if mask & R1_BIT:
                    val *= cmath.sqrt(_complex(s + G_ONE))
                if mask & KAPPA_BIT:
                    val *= cmath.sqrt(_complex((s + G_ONE) / (s - G_ONE)))
                total += val
        except OverflowError:
            total = complex("inf")
        if not cmath.isfinite(total):
            raise ScalarError(f"the value at q = {q_val} is outside float range")
        return total

    def specialize_t(self, t_val: Fraction) -> GaussRat:
        """Exact substitution t = rational, for radical-free scalars only."""
        if not self.is_rational_function():
            raise ScalarError("cannot specialize a radical-bearing scalar exactly")
        if not self.parts:
            return G_ZERO
        t = _gr(t_val.numerator, 0, t_val.denominator)
        a, _, c = _rf_value(self.parts[0], t * t, t)
        return a / c

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        return f"Scalar<{self}>"

    def __str__(self):
        if not self.parts:
            return "0"
        if len(self.parts) == 1 and 0 in self.parts:
            return _rf_str(self.parts[0])
        chunks = []
        for mask in sorted(self.parts):
            body, rad = _rf_str(self.parts[mask]), "*".join(_mask_names(mask))
            chunks.append(rad if body == "1" and rad else
                          f"{_parenthesize(body)}*{rad}" if rad else body)
        return _signed_join(chunks)

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


def _product(x: Scalar, y: Scalar) -> Scalar:
    """x * y, part by part, for two plain Scalars."""
    a, b = x.parts, y.parts
    if b == _ONE_PARTS:
        return x
    if a == _ONE_PARTS:
        return y
    if len(a) == 1 == len(b) and 0 in a and 0 in b:
        return _scalar({0: _rf_mul(a[0], b[0])})
    out = {}
    for m1, rf1 in a.items():
        for m2, rf2 in b.items():
            rf = _rf_mul(rf1, rf2)
            common = m1 & m2
            for bit, square in _BIT_SQUARES.items():
                if common & bit:
                    rf = _rf_mul(rf, square)
            _add_part(out, m1 ^ m2, rf)
    return _scalar(out)


def _add_part(parts: dict, m: int, rf) -> None:
    """parts[m] += rf, deleting a part whose sum is zero."""
    if m in parts:
        rf = _rf_add(parts[m], rf)
        if not rf[0][0]:
            del parts[m]
            return
    parts[m] = rf


def _scalar(parts: dict) -> Scalar:
    """The Scalar with these parts, which must hold no zero component."""
    x = _new(Scalar)
    x.parts = parts
    return x


class _Unit(Scalar):
    """(-1)^eps * t^p, built only by signed_t_power (see there)."""

    __slots__ = ("eps", "p")

    def __init__(self, eps: int, p: int):
        c = (-1, 0) if eps else _C1
        self.parts = {0: (({p: c}, 1), P_ONE) if p >= 0 else (({0: c}, 1), _t_den(-p))}
        self.eps, self.p = eps, p

    def __mul__(self, other):
        if other is ONE:
            return self
        if type(other) is _Unit:
            return other if self is ONE else signed_t_power(self.eps + other.eps, self.p + other.p)
        if not isinstance(other, Scalar):
            return NotImplemented
        return other if self is ONE else _times_unit(other, self)

    def __rmul__(self, other):
        # other * self for a plain Scalar other: Python calls this before
        # Scalar.__mul__, as _Unit subclasses Scalar and overrides it.
        if not isinstance(other, Scalar):
            return NotImplemented
        return other if self is ONE else _times_unit(other, self)

    def __neg__(self):
        return signed_t_power(self.eps + 1, self.p)

    def conj(self):
        return self

    def inv(self):
        return signed_t_power(self.eps, -self.p)


def _times_unit(x: Scalar, u: _Unit) -> Scalar:
    """x * u = u * x, with the parts of Scalar.__mul__.  A Laurent part n/t^e
    becomes +-n*t^s/t^E, E = max(0, e - min(n) - p) and s = p + E - e:
    _rf_mul's cancellation of the common t-power.  Any other part goes
    through _rf_mul, whose result with a monomial factor does not depend
    on the side that factor is on."""
    neg, p, urf = u.eps, u.p, u.parts[0]
    out = {}
    for m, rf in x.parts.items():
        (n, D), den = rf
        if len(den[0]) == 1:
            (e,) = den[0]
            E = max(0, e - min(n) - p)
            s = p + E - e
            if neg:
                n = {k + s: (-a, -b) for k, (a, b) in n.items()}
            elif s:
                n = {k + s: c for k, c in n.items()}
            out[m] = ((n, D), _t_den(E))
        else:
            out[m] = _rf_mul(rf, urf)
    return _scalar(out)


def signed_t_power(eps: int, p: int) -> Scalar:
    """(-1)^eps * t^p, one shared _Unit per value; ONE itself for 1.

    Units are closed under *, -, conj and inv.  A product of two units is
    a lookup here, and a product of a unit with any other Scalar an
    exponent shift (_times_unit).  Identity is only a short-cut: a product
    recognises ONE by it, and reads eps and p of any other unit, as two
    equal units may be distinct objects once the table is capped."""
    key = (eps & 1, p)
    x = _unit_cache.get(key)
    if x is None:
        x = ONE if key == (0, 0) else _Unit(*key)
        _cache.put(_unit_cache, key, x)
    return x


def _unit_of(parts: dict) -> Optional[Scalar]:
    """The shared unit equal to a Scalar with these parts when it is +-t^k:
    one part, of mask 0, whose numerator is one term (+-D, 0) (so D = 1)
    over a monomial denominator; else None."""
    rf = parts.get(0)
    if rf is None or len(parts) != 1:
        return None
    (n, D), (d, _) = rf
    if len(n) == 1 == len(d) and D == 1:
        ((k, (x, y)),) = n.items()
        if not y and (x == 1 or x == -1):
            (e,) = d
            return signed_t_power(x < 0, k - e)
    return None


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


def sum_images(pairs, image) -> dict:
    """The zero-free sum of c*v over (k, c) in pairs and (k2, v) in image(k):
    the linear extension of image, a map from keys to (key, Scalar) pairs.

    Terms appear in the order of pairs and then of each image, the order of
    the term-by-term sum; a factor that is ONE itself is not multiplied.
    """
    out: dict = {}
    for k, c in pairs:
        for k2, v in image(k):
            add_term(out, k2, v if c is ONE else c * v)
    return out


class _Combination:
    """A sparse {key: Scalar} sum that stores no zero coefficient: the
    vector-space part and the product of the classes that add a
    constructor, a key product _times and a printer.  _TAG names the one
    field two summands or factors must share, or is None.  Subclass
    constructors drop zeros from outside input; sums, negations, nonzero
    multiples and products (the field has no zero divisors) are zero-free
    already and skip that pass through _like."""

    __slots__ = ("terms",)
    _TAG: Optional[str] = None
    _MISMATCH = ValueError

    def _like(self, terms: dict):
        """A value of self's class and tag holding terms, which must store
        no zero coefficient."""
        x = _new(type(self))
        f = self._TAG
        if f:
            setattr(x, f, getattr(self, f))
        x.terms = terms
        return x

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        f = self._TAG
        if f:
            a, b = getattr(self, f), getattr(other, f)
            if a != b:
                raise self._MISMATCH(f"{f} mismatch: {a} vs {b}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        f = self._TAG
        return (type(other) is type(self) and self.terms == other.terms
                and (not f or getattr(self, f) == getattr(other, f)))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The bilinear extension of the subclass's _times(k1, k2), the
        product of two basis keys as (key, Scalar) pairs with distinct keys
        and nonzero coefficients.  A Scalar or int factor scales."""
        if isinstance(other, (Scalar, int)):
            return self.__rmul__(other)     # scalars commute
        self._check(other)
        times = self._times
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c12 = c1 * c2
                for k, c in times(k1, k2):
                    add_term(out, k, c12 if c is ONE else c12 * c)
        return self._like(out)

    def scale(self, c: Scalar):
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, int):
            c = Scalar.from_rational(c)
        return self.scale(c) if isinstance(c, Scalar) else NotImplemented


# ---------------------------------------------------------------------------
# One stored object per value: the share step of the memo tables
# ---------------------------------------------------------------------------

# {x: x} over the plain Scalars the memo tables store; {id(x): x} over the
# same, filled with it and read without hashing a value; and the product
# memo of Scalar.__mul__, {(id(x), id(y)): (x, y, x*y)} for two indexed x, y.
_share_cache: dict = {}
_share_id_cache: dict = {}
_product_cache: dict = {}
_cache.register(_share_cache)
_cache.register(_share_id_cache)
_cache.register(_product_cache)


def _share_scalar(x):
    """The one stored object equal to the plain Scalar x: ZERO for 0, the
    first equal plain Scalar stored, or, for +-t^k, the shared unit (on a
    miss only, so a hit costs one lookup)."""
    parts = x.parts
    if not parts:
        return ZERO
    s = _share_cache.get(x)
    if s is None:
        s = _unit_of(parts)
        if s is None:
            _cache.put(_share_cache, x, x)
            _cache.put(_share_id_cache, id(x), x)
            return x
    return s


def share(value):
    """value with each plain Scalar in it replaced by _share_scalar's
    object: a bare Scalar, the coefficients of a tuple of (key, Scalar)
    pairs, the values of a dict, the coefficients of a sparse sum (Element,
    Tensor, ...) and the fields of any other object with __slots__ (a
    record such as repn's CorepMatrix), copied.  Tuple and dict order are
    kept.  A _Unit passes, and so does a value of any other kind and a
    tuple with no plain Scalar in it."""
    t = type(value)
    if t is tuple:
        for _, c in value:
            if type(c) is Scalar:
                return tuple([(k, _share_scalar(c) if type(c) is Scalar else c)
                              for k, c in value])
        return value
    if t is Scalar:
        return _share_scalar(value)
    if t is dict:
        return {k: share(c) for k, c in value.items()}
    if t is _Unit or not hasattr(t, "__slots__"):
        return value
    if isinstance(value, _Combination):
        return value._like(share(value.terms))
    record = _new(t)
    for c in t.__mro__:
        for f in getattr(c, "__slots__", ()):
            setattr(record, f, share(getattr(value, f)))
    return record


_cache.share = share


def _signed_join(pieces) -> str:
    """Printed terms joined by + and -; a leading minus becomes the operator."""
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


ONE = _Unit(0, 0)
_ONE_PARTS = ONE.parts
MINUS_ONE = signed_t_power(1, 0)
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


# ---------------------------------------------------------------------------
# Square roots of Gaussian rationals  (t for Scalar.eval_numeric)
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


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

def _integerize(num, den):
    """A canonical num/den scaled by one positive rational: two {e: (x, y)}
    dicts of Gaussian integers with overall content 1.

    No gcd is needed.  As den is monic with lead numerator Db, its content
    is 1; num's content is coprime to Da.  With g = gcd(Da, Db), the scaled
    pair is (A*u, B*v) for u = Db/g and v = Da/g, whose content
    gcd(u*content(A), v) is 1."""
    (A, Da), (B, Db) = num, den
    g = gcd(Da, Db)
    u, v = Db // g, Da // g   # num/den = (A*u)/(B*v)
    return ({e: (x * u, y * u) for e, (x, y) in A.items()} if u != 1 else A,
            {e: (x * v, y * v) for e, (x, y) in B.items()} if v != 1 else B)


def _rat_str(n: int, d: int) -> str:
    """n/d as Fraction prints it."""
    if d == 1:
        return str(n)
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _gauss_str(a: int, b: int, d: int = 1) -> str:
    """(a + b*i)/d as printed."""
    if not b:
        return _rat_str(a, d)
    ims = "i" if b == d else ("-i" if b == -d else f"{_rat_str(b, d)}i")
    if not a:
        return ims
    res = _rat_str(a, d)
    return f"{res}+{ims}" if b > 0 else f"{res}{ims}"


def _poly_str(p) -> str:
    """A {e: (x, y)} dict of Gaussian integers as printed, its terms joined
    by _signed_join."""
    if not p:
        return "0"
    pieces = []
    for e in sorted(p, reverse=True):
        cs = _gauss_str(*p[e])
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
    return _signed_join(pieces)


def _parenthesize(s: str) -> str:
    if any(ch in s for ch in " +-") and not (s.startswith("(") and s.endswith(")")):
        return f"({s})"
    return s


def _rf_str(rf) -> str:
    num, den = _integerize(*rf)
    ns = _poly_str(num)
    if den == P_ONE[0]:
        return ns
    ds = _poly_str(den)
    return f"{_parenthesize(ns)}/{_parenthesize(ds)}"


def _mask_names(mask):
    return [name for bit, name in ((R1_BIT, "sqrt(1+t^2)"), (KAPPA_BIT, "kappa"))
            if mask & bit]


def _poly_json(p):
    return [[e, _gauss_str(*p[e])] for e in sorted(p)]
