import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from superq import scalars as sc
from superq.scalars import (
    KAPPA, MINUS_ONE, ONE, Q, RADICAND_1_PLUS_T2, RADICAND_1_PLUS_TM2,
    RADICAND_KAPPA2, SQRT_1_PLUS_T2, SQRT_1_PLUS_TM2, T, T_INV, ZERO,
    Scalar, ScalarDivisionError, ScalarPoleError, UnsupportedRadicalError,
    formal_sqrt, scalar_arith, scalar_sqrt,
)


def frac(p, q=1):
    from fractions import Fraction
    return Scalar.from_rational(Fraction(p, q))


def test_i_squared_is_minus_one():
    i = Scalar.from_gauss(0, 1)
    assert i * i == MINUS_ONE


def test_gcd_canonical_form():
    # (1 - t^-2)/(1 - t^-4) reduces to t^2/(1 + t^2), built two ways.
    num = ONE - T_INV * T_INV
    den = ONE - T_INV ** 4
    reduced = num / den
    expected = (T * T) * (ONE + T * T).inv()
    assert reduced == expected
    # also equal to 1/(1 + t^-2)
    assert reduced == (ONE + T_INV * T_INV).inv()


def test_radical_squaring_rule():
    assert SQRT_1_PLUS_T2 * SQRT_1_PLUS_T2 == RADICAND_1_PLUS_T2
    assert SQRT_1_PLUS_TM2 * SQRT_1_PLUS_TM2 == RADICAND_1_PLUS_TM2
    assert KAPPA * KAPPA == RADICAND_KAPPA2


def test_formal_sqrt_fixed_list_only():
    assert formal_sqrt(RADICAND_1_PLUS_T2) == SQRT_1_PLUS_T2
    assert formal_sqrt(RADICAND_1_PLUS_TM2) == SQRT_1_PLUS_TM2
    assert formal_sqrt(RADICAND_KAPPA2) == KAPPA
    with pytest.raises(UnsupportedRadicalError):
        formal_sqrt(ONE + T)


def test_q_elimination():
    assert Q == -(T * T)
    assert Scalar.q_power(-1) == -(T_INV * T_INV)
    assert Scalar.q_power(2) == T ** 4


def test_division_by_zero_errors():
    with pytest.raises(ScalarDivisionError):
        ZERO.inv()
    with pytest.raises(ScalarDivisionError):
        ONE / ZERO


def _random_scalar(rng, radicals=False):
    out = ZERO
    for _ in range(rng.randint(1, 3)):
        num = Scalar.from_gauss(rng.randint(-4, 4), rng.randint(-2, 2))
        piece = num * Scalar.t_power(rng.randint(-3, 3))
        if radicals and rng.random() < 0.4:
            piece = piece * rng.choice([SQRT_1_PLUS_T2, KAPPA])
        out = out + piece
    return out


@pytest.mark.parametrize("radicals", [False, True])
def test_field_axioms_randomized(radicals):
    rng = random.Random(20240701 + radicals)
    for _ in range(60):
        x = _random_scalar(rng, radicals)
        y = _random_scalar(rng, radicals)
        z = _random_scalar(rng, radicals)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if x:
            assert x * x.inv() == ONE


def test_conj_is_involutive_field_hom():
    rng = random.Random(7)
    for _ in range(40):
        x = _random_scalar(rng, radicals=True)
        y = _random_scalar(rng, radicals=True)
        assert x.conj().conj() == x
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()
    assert Scalar.from_gauss(0, 1).conj() == Scalar.from_gauss(0, -1)
    assert T.conj() == T


def test_eval_numeric_branch():
    # q = -2: t = -sqrt(2)
    assert abs(T.eval_numeric(-2) - (-math.sqrt(2))) < 1e-12
    # 1 + t^2 at q = -1/2 is 3/2
    assert abs(RADICAND_1_PLUS_T2.eval_numeric(-0.5) - 1.5) < 1e-12
    assert abs(Scalar.from_gauss(0, 1).eval_numeric(-2) - 1j) < 1e-12


def test_eval_numeric_is_multiplicative():
    rng = random.Random(99)
    for _ in range(30):
        x = _random_scalar(rng, radicals=False)
        y = _random_scalar(rng, radicals=False)
        q = -rng.uniform(0.3, 0.9) * rng.choice([1, 4])
        vx, vy = x.eval_numeric(q), y.eval_numeric(q)
        vxy = (x * y).eval_numeric(q)
        scale = max(1.0, abs(vx * vy))
        assert abs(vxy - vx * vy) / scale < 1e-12


def test_eval_numeric_pole_error():
    x = ONE / (ONE + T * T)  # pole at t^2 = -1, i.e. q = 1... use q on unit circle? pick q=1 avoided
    bad = ONE / (T * T - frac(2))  # pole at t^2 = 2 i.e. q = -2
    with pytest.raises(ScalarPoleError):
        bad.eval_numeric(-2)
    assert abs(x.eval_numeric(-2) - (1 / 3)) < 1e-12


def test_eval_numeric_pole_test_is_relative():
    # t^-20 at t = -1/10 is 1e20: a small denominator, not a vanishing one.
    assert abs((T_INV ** 20).eval_numeric(Fraction(-1, 100)) / 1e20 - 1) < 1e-12
    # A true pole at large |t|: t^2 - 2e6 at t = -sqrt(2e6) rounds to about
    # 1e-10, far above an absolute 1e-13 but tiny next to the terms' size.
    with pytest.raises(ScalarPoleError):
        (T * T - frac(2_000_000)).inv().eval_numeric(-2_000_000)


def test_eval_numeric_rejects_bad_q():
    with pytest.raises(sc.ScalarError):
        ONE.eval_numeric(0)
    with pytest.raises(sc.ScalarError):
        ONE.eval_numeric(-1)


def test_eval_numeric_named_cases():
    # Term-by-term float summation lost every digit of the first case.
    x = (ONE - T * T) ** 15
    for q in (Fraction(-49, 50), Fraction(-1, 2)):
        assert x.eval_numeric(q) == complex(float((1 + q) ** 15))
    assert x.eval_numeric(Fraction(-49, 50)) == 3.2768e-26
    # A denominator of 1e-15 is small, not zero.
    near = Fraction(-2) - Fraction(1, 10**15)
    assert (T * T - frac(2)).inv().eval_numeric(near) == 1e15
    # q = -4 gives t = -2: 1/(t + 2) has a pole there, 1/(t - 2) does not.
    with pytest.raises(ScalarPoleError):
        (T + frac(2)).inv().eval_numeric(-4)
    assert (T - frac(2)).inv().eval_numeric(-4) == -0.25


def test_eval_numeric_unit_circle_is_exact():
    q = Fraction(10000000000000001, 10000000000000000)
    assert (T * T).eval_numeric(q) == -1
    for on_circle in (1, -1, 1j, -1j):
        with pytest.raises(sc.ScalarError, match="unit circle"):
            ONE.eval_numeric(on_circle)


def test_eval_numeric_out_of_float_range():
    with pytest.raises(sc.ScalarError, match="outside float range"):
        (T_INV ** 2000).eval_numeric(Fraction(-1, 100))
    with pytest.raises(sc.ScalarError, match="outside float range"):
        (T ** 300 * (ONE + T)).eval_numeric(Fraction(-10**4))
    # Underflow rounds to zero.
    assert (T ** 2000).eval_numeric(Fraction(-1, 100)) == 0


def _shuffled(x, rng):
    """x with the keys of its parts and of every numerator and denominator
    dict in a random order."""
    def shuffle(d):
        keys = list(d)
        rng.shuffle(keys)
        return {k: d[k] for k in keys}
    return Scalar(shuffle({m: ((shuffle(n), dn), (shuffle(d), dd))
                           for m, ((n, dn), (d, dd)) in x.parts.items()}))


def _random_fraction(rng, radicals):
    """A random scalar over a random sum of t-powers: most denominators
    have several terms."""
    den = _random_scalar(rng)
    return _random_scalar(rng, radicals) / den if den else ZERO


_SAMPLE_QS = (Fraction(-1, 2), Fraction(-49, 50), Fraction(-9, 4), Fraction(-3),
              Fraction(2, 7), Fraction(-1, 3) + 0j, -0.3, complex(-2, 1), complex(0.5, -0.25),
              3j, Fraction(4, 9), complex(3, -4))


def test_dict_key_order_is_not_observable():
    rng = random.Random(20261018)
    for _ in range(150):
        x = _random_fraction(rng, radicals=True)
        y = _shuffled(x, rng)
        assert y == x and hash(y) == hash(x)
        assert str(y) == str(x) and y.to_json() == x.to_json()
        for q in _SAMPLE_QS:
            assert y.eval_numeric(q) == x.eval_numeric(q)


def _sympy_value(x, q):
    """x at q in sympy, from the stored numerators and denominators, with
    t = i*sqrt(q) and the radicals on the principal branch; and that t."""
    qs = sympy.Rational(Fraction(q.real)) + sympy.I * sympy.Rational(Fraction(q.imag))
    tv = sympy.expand(sympy.I * sympy.sqrt(qs))
    rads = {sc.R1_BIT: sympy.sqrt(1 - qs), sc.KAPPA_BIT: sympy.sqrt((1 - qs) / (-1 - qs))}
    total = sympy.Integer(0)
    for mask, (num, den) in x.parts.items():
        val = _poly_sympy(num).subs(_t, tv) / _poly_sympy(den).subs(_t, tv)
        for bit, r in rads.items():
            if mask & bit:
                val *= r
        total += val
    return total, tv


def _rounded(v):
    """complex() of the exact Gaussian rational v: each part correctly rounded."""
    re, im = sympy.re(v), sympy.im(v)
    assert re.is_Rational and im.is_Rational
    return complex(float(Fraction(int(re.p), int(re.q))), float(Fraction(int(im.p), int(im.q))))


def test_eval_numeric_matches_sympy():
    rng = random.Random(50)
    checked = 0
    for _ in range(40):
        radicals = rng.random() < 0.5
        x = _random_fraction(rng, radicals)
        even = all(e % 2 == 0 for n, d in x.parts.values() for e in (*n[0], *d[0]))
        for q in _SAMPLE_QS:
            ours = x.eval_numeric(q)
            exact, tv = _sympy_value(x, q)
            exact = sympy.expand(exact)
            t_in_qi = all(part.is_Rational for part in tv.as_real_imag())
            if x.is_rational_function() and (even or t_in_qi):
                assert ours == _rounded(exact), (x, q)
            else:
                want = complex(sympy.N(exact, 50))
                assert abs(ours - want) <= 1e-14 * abs(want), (x, q)
            checked += 1
    assert checked > 300


def test_radical_inverse():
    x = ONE + SQRT_1_PLUS_T2
    assert x * x.inv() == ONE
    y = frac(2) * KAPPA + T * SQRT_1_PLUS_T2
    assert y * y.inv() == ONE


def test_scalar_arith_dispatcher():
    assert scalar_arith(T, T_INV, "mul") == ONE
    assert scalar_arith(T, T, "add") == frac(2) * T
    assert scalar_arith(T, None, "inv") == T_INV
    assert scalar_arith(Scalar.from_gauss(1, 1), None, "conj") == Scalar.from_gauss(1, -1)
    with pytest.raises(ValueError):
        scalar_arith(T, T, "pow")


def test_scalar_sqrt_detection():
    sq = (ONE + T * T) ** 2 * Scalar.t_power(-2)
    r = scalar_sqrt(sq)
    assert r is not None and r * r == sq
    assert scalar_sqrt(RADICAND_1_PLUS_T2) is None
    # -(square) has sqrt i*(root)
    r2 = scalar_sqrt(-(T * T))
    assert r2 is not None and r2 * r2 == -(T * T)
    assert scalar_sqrt(ONE + T) is None


def test_specialize_t_exact():
    from fractions import Fraction
    x = (ONE + T * T) / (T - T_INV)
    v = x.specialize_t(Fraction(3, 2))
    # (1 + 9/4)/(3/2 - 2/3) = (13/4)/(5/6) = 39/10
    assert v == sc.GaussRat(Fraction(39, 10))


def test_rendering_roundtrip_values():
    s = (ONE - T_INV * T_INV) / (ONE - T_INV ** 4)
    assert str(s) == "t^2/(t^2 + 1)"
    assert str(ZERO) == "0"
    assert str(MINUS_ONE) == "-1"
    assert "sqrt(1+t^2)" in str(SQRT_1_PLUS_T2)
    assert "kappa" in str(KAPPA)


def test_json_shape():
    js = (T + SQRT_1_PLUS_T2).to_json()
    assert isinstance(js, list)
    assert {"radicals", "num", "den"} <= set(js[0].keys())


# ---------------------------------------------------------------------------
# The integer-triple GaussRat, the polynomial layout and the field operations
# against an oracle
# ---------------------------------------------------------------------------

_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_fractions, _fractions, _fractions, _fractions)
def test_gaussrat_invariants(p, q, r, s):
    x, y = sc.GaussRat(p, q), sc.GaussRat(r, s)
    cases = [(x, p, q), (y, r, s), (x + y, p + r, q + s), (x - y, p - r, q - s),
             (x * y, p * r - q * s, p * s + q * r), (-x, -p, -q), (x.conj(), p, -q)]
    if r or s:
        n = r * r + s * s
        cases.append((x / y, (p * r + q * s) / n, (q * r - p * s) / n))
    for z, re, im in cases:
        assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
        assert (z.re, z.im) == (re, im)
        assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
        w = sc.GaussRat(re, im)
        assert z == w and hash(z) == hash(w)
        assert sc.GaussRat(z.re, z.im) == z
        assert bool(z) == bool(re or im)


def test_gaussrat_constructor_and_zero():
    assert (sc.GaussRat(0).a, sc.GaussRat(0).b, sc.GaussRat(0).d) == (0, 0, 1)
    x = sc.GaussRat(Fraction(2, 6), "-1/4")
    assert (x.a, x.b, x.d) == (4, -3, 12)
    assert sc.GaussRat(3) != 3
    with pytest.raises(ScalarDivisionError):
        sc.GaussRat(0).inv()


def _poly(coeffs):
    """The stored form of the polynomial {e: (re, im)} with Fraction parts:
    numerators over their least common denominator."""
    D = math.lcm(*(Fraction(v).denominator for c in coeffs.values() for v in c))
    return sc._pn({e: (int(re * D), int(im * D)) for e, (re, im) in coeffs.items()
                   if re or im}, D)


def _layout_ok(p):
    """p meets the polynomial layout rules."""
    C, D = p
    return (isinstance(C, dict) and D > 0 and all(x or y for x, y in C.values())
            and math.gcd(D, *(n for c in C.values() for n in c)) == 1)


def test_pdivmod_identity():
    rng = random.Random(5)

    def poly(exponents, terms):
        return _poly({e: (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                          Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                      for e in rng.sample(exponents, terms)})
    for _ in range(60):
        a, b = poly(range(9), 5), poly(range(4), 3)
        if not b[0]:
            continue
        # The loop's raw output: quotient terms (k, x, y, d) with
        # q = sum of (x + y*i)/d * t^k / lead(b), and the remainder R/D.
        quo, R, D = sc._pdivmod(a, b)
        q = sc._pdivc(_poly({k: (Fraction(x, d), Fraction(y, d)) for k, x, y, d in quo}),
                      sc._plead(b), b[1])
        r = sc._pn(R, D)
        assert _layout_ok(r)
        assert sc._padd(sc._pmul(q, b), r) == a
        assert sc._pdeg(r) < sc._pdeg(b)
        # The exact division converts the same terms.
        qb = sc._pmul(q, b)
        assert sc._pdiv(qb, b) == q and _layout_ok(sc._pdiv(qb, b))


# ---------------------------------------------------------------------------
# The remainder-only Euclid against the quotient-building loop it replaced
# ---------------------------------------------------------------------------

def _euclid_pdivmod(a, b):
    """The former division loop, kept as the oracle: (q, r), both built
    and normalised at every call."""
    B, n = sc._pmonic(b)
    db = max(B)
    R, D = dict(a[0]), a[1]
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
    quo = {k: (x * (D // d), y * (D // d)) for k, (x, y, d) in quo.items()}
    return sc._pdivc(sc._pn(quo, D), sc._plead(b), b[1]), sc._pn(R, D)


def _euclid_pgcd(a, b):
    """The former gcd: remainders of the quotient-building loop, made monic
    at the end.  It fails on two zero operands."""
    while b[0]:
        a, b = b, _euclid_pdivmod(a, b)[1]
    return sc._pmonic(a)


# exponent, real and imaginary numerator, denominator
_gcd_term = st.tuples(st.integers(0, 5), st.integers(-5, 5), st.integers(-3, 3),
                      st.integers(1, 4))
_GCD_KINDS = ("coprime", "common", "divides", "equal", "constant", "monomial", "zero")


@st.composite
def _gcd_pair(draw):
    """(kind, a, b): two polynomials of one of _GCD_KINDS, real or Gaussian,
    with a drawn common t-valuation."""
    real = draw(st.booleans())

    def poly(max_size):
        terms = draw(st.lists(_gcd_term, min_size=1, max_size=max_size))
        p = _poly_from([(e, x, 0 if real else y, d) for e, x, y, d in terms])
        if not real and p[0] and draw(st.booleans()):
            # a Gaussian lead: add i/2 to the leading coefficient
            top = max(p[0])
            p = sc._padd(p, ({top: (0, 1)}, 2))
        return p

    kind = draw(st.sampled_from(_GCD_KINDS))
    f, g = poly(5), poly(4)
    if kind == "common":
        h = poly(3)
        a, b = sc._pmul(f, h), sc._pmul(g, h)
    elif kind == "divides":
        a, b = sc._pmul(f, g), g
    elif kind == "equal":
        a, b = f, f
    elif kind == "constant":
        a, b = f, ({0: (draw(st.integers(1, 6)), draw(st.integers(-3, 3)))}, 1)
    elif kind == "monomial":
        a, b = f, sc._pshift(sc.P_ONE, draw(st.integers(0, 4)))
    elif kind == "zero":
        a, b = f, ({}, 1)
    else:
        a, b = f, g
    v = draw(st.integers(0, 3))
    a, b = sc._pshift(a, v), sc._pshift(b, v)
    return (kind, b, a) if draw(st.booleans()) else (kind, a, b)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_gcd_pair())
def test_pgcd_matches_quotient_building_euclid(case):
    _kind, a, b = case
    assume(a[0] or b[0])
    g = sc._pgcd(a, b)
    assert g == _euclid_pgcd(a, b)
    assert g == sc._pgcd(b, a)
    assert _layout_ok(g) and sc._plead(g) == (g[1], 0)
    for p in (a, b):
        if p[0]:
            assert sc._pmul(sc._pdiv(p, g), g) == p
            assert sc._pdiv(sc._pmul(p, g), g) == p
    if a[0] and b[0]:
        assert sc._pdiv(sc._pmul(a, b), b) == a


def test_pgcd_of_zero_operands():
    zero = ({}, 1)
    b = ({2: (3, 1), 0: (0, 2)}, 5)
    # gcd(0, b) is b made monic, on either side.
    assert sc._pgcd(zero, b) == sc._pgcd(b, zero) == sc._pmonic(b)
    # gcd(0, 0) is the zero polynomial: the degree order puts zero in the
    # divisor slot, and the loop does not run.
    assert sc._pgcd(zero, zero) == zero


_t = sympy.Symbol("t", real=True)
_leaf = st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                  st.fractions(min_value=-2, max_value=2, max_denominator=2),
                  st.integers(-3, 3))
_tree = st.recursive(
    _leaf,
    lambda kids: st.one_of(st.tuples(st.sampled_from("+-*/"), kids, kids),
                           st.tuples(st.just("conj"), kids)),
    max_leaves=6)


class _ZeroDivisor(Exception):
    pass


def _both(node):
    """Evaluate an expression tree as a Scalar and as a sympy oracle."""
    if len(node) == 3 and not isinstance(node[0], str):
        re, im, k = node
        ours = Scalar.from_gauss(re, im) * Scalar.t_power(k)
        return ours, (sympy.Rational(re) + sympy.I * sympy.Rational(im)) * _t ** k
    if node[0] == "conj":
        x, ox = _both(node[1])
        return x.conj(), sympy.cancel(sympy.conjugate(ox))
    (x, ox), (y, oy) = _both(node[1]), _both(node[2])
    op = node[0]
    if op == "+":
        return x + y, sympy.cancel(ox + oy)
    if op == "-":
        return x - y, sympy.cancel(ox - oy)
    if op == "*":
        return x * y, sympy.cancel(ox * oy)
    assert bool(y) == (oy != 0)
    if not y:
        raise _ZeroDivisor
    return x / y, sympy.cancel(ox / oy)


def _poly_sympy(p):
    C, D = p
    return sum((sympy.Rational(x, D) + sympy.I * sympy.Rational(y, D)) * _t ** e
               for e, (x, y) in C.items())


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_tree)
def test_field_ops_match_sympy(node):
    try:
        ours, oracle = _both(node)
    except _ZeroDivisor:
        assume(False)
    assert ours.is_rational_function()
    num, den = ours.parts[0] if ours else sc.RF_ZERO
    # Same value as the oracle ...
    assert sympy.cancel(_poly_sympy(num) / _poly_sympy(den) - oracle) == 0
    # ... in canonical form: monic denominator, coprime to the numerator.
    assert sc._plead(den) == (den[1], 0)
    pn = sympy.Poly(_poly_sympy(num), _t, domain="QQ_I")
    pd = sympy.Poly(_poly_sympy(den), _t, domain="QQ_I")
    assert sympy.gcd(pn, pd).degree() == 0 or not num[0]


# ---------------------------------------------------------------------------
# The Laurent fast paths against the general route through _rf_canon
# ---------------------------------------------------------------------------

def _generic_mul(x, y):
    return sc._rf_canon(sc._pmul(x[0], y[0]), sc._pmul(x[1], y[1]))


def _generic_add(x, y):
    if x[1] == y[1]:
        return sc._rf_canon(sc._padd(x[0], y[0]), x[1])
    return sc._rf_canon(sc._padd(sc._pmul(x[0], y[1]), sc._pmul(y[0], x[1])),
                        sc._pmul(x[1], y[1]))


def _generic_scalar_mul(x, y, mul=_generic_mul):
    """Scalar.__mul__'s parts, every component through _rf_canon; with
    mul=sc._rf_mul, the loop of Scalar.__mul__ itself on every part."""
    out = {}
    for m1, rf1 in x.parts.items():
        for m2, rf2 in y.parts.items():
            rf = mul(rf1, rf2)
            for bit, square in sc._BIT_SQUARES.items():
                if m1 & m2 & bit:
                    rf = mul(rf, square)
            mask = m1 ^ m2
            if mask in out:
                rf = _generic_add(out[mask], rf)
                if not rf[0]:
                    del out[mask]
                    continue
            out[mask] = rf
    return out


_term = st.tuples(st.integers(-4, 6), st.integers(-6, 6), st.integers(-3, 3),
                  st.integers(1, 4))


def _poly_from(terms):
    # Insertion order as drawn, so the key order of the operands varies.
    p = {}
    for e, a, b, d in terms:
        p[e] = (Fraction(a, d), Fraction(b, d))
    return _poly(p)


# Half the denominators are monomials c*t^k (Laurent operands once canonical).
_rf = st.tuples(st.lists(_term, min_size=1, max_size=4),
                st.one_of(_term.map(lambda t: [t]),
                          st.lists(_term, min_size=2, max_size=3)))


def _canonical(drawn):
    num, den = _poly_from(drawn[0]), _poly_from(drawn[1])
    assume(num[0] and den[0])
    return sc._rf_canon(num, den)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_rf, _rf)
def test_laurent_fast_paths_match_rf_canon(drawn_x, drawn_y):
    x, y = _canonical(drawn_x), _canonical(drawn_y)
    assert sc._rf_mul(x, y) == _generic_mul(x, y)
    assert sc._rf_add(x, y) == _generic_add(x, y)
    assert sc._rf_add(x, sc._rf_neg(x)) == _generic_add(x, sc._rf_neg(x))
    assert sc._rf_conj(x) == sc._rf_canon(sc._pconj(x[0]), sc._pconj(x[1]))
    assert sc._rf_mul(sc.RF_ZERO, y) == _generic_mul(sc.RF_ZERO, y)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.dictionaries(st.integers(0, 3), _rf, min_size=1, max_size=3),
       st.dictionaries(st.integers(0, 3), _rf, min_size=1, max_size=2))
def test_scalar_mul_fast_paths_match_generic(drawn_x, drawn_y):
    # Masks 1-3 carry the radicals sqrt(1+t^2) and kappa.
    x = Scalar({m: _canonical(d) for m, d in drawn_x.items()})
    y = Scalar({m: _canonical(d) for m, d in drawn_y.items()})
    assert (x * y).parts == _generic_scalar_mul(x, y)
    assert x * ONE is x and ONE * x is x
    assert (x * MINUS_ONE).parts == _generic_scalar_mul(x, MINUS_ONE)
    assert x * MINUS_ONE == -x
    assert not (x + (-x)).parts


def _key_orders(parts):
    """Every numerator and denominator of parts as a list of items, in key order."""
    return [(m, list(n.items()), dn, list(d.items()), dd)
            for m, ((n, dn), (d, dd)) in parts.items()]


_unit = st.tuples(st.integers(-3, 3), st.integers(-6, 6))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.dictionaries(st.integers(0, 3), _rf, min_size=1, max_size=3), _unit, _unit)
def test_unit_products_match_generic(drawn_x, unit_u, unit_v):
    # A product with a unit +-t^p skips _rf_mul on Laurent parts.  Its parts
    # are the generic route's, and the key order of each polynomial dict is
    # that of the product loop with _rf_mul on every part.
    # Under a cap of 0 the unit table keeps one entry, so equal units are
    # often distinct objects: only ONE may be recognised by identity.
    from superq import _cache

    x = Scalar({m: _canonical(d) for m, d in drawn_x.items()})
    (e1, p1), (e2, p2) = unit_u, unit_v
    try:
        for limit in (None, 0):
            _cache.set_limit(limit)
            u = sc.signed_t_power(e1, p1)
            v = sc.signed_t_power(e2, p2)
            for w in (u, v, sc.signed_t_power(e1, p1)):
                for got, (a, b) in ((x * w, (x, w)), (w * x, (w, x))):
                    assert got.parts == _generic_scalar_mul(a, b)
                    assert (_key_orders(got.parts)
                            == _key_orders(_generic_scalar_mul(a, b, sc._rf_mul)))
            uv = u * v
            assert uv is sc.signed_t_power(e1 + e2, p1 + p2)
            assert uv == sc.signed_t_power(e1, p1) * v and uv.parts == _generic_scalar_mul(u, v)
            assert -u is sc.signed_t_power(e1 + 1, p1)
            assert u.conj() is u
            assert u.inv() is sc.signed_t_power(e1, -p1)
            assert u * u.inv() is ONE
    finally:
        _cache.set_limit(None)
        _cache.clear()


# ---------------------------------------------------------------------------
# The printer's integer form of a canonical part, which takes no gcd
# ---------------------------------------------------------------------------

def _integerize_with_gcd(num, den):
    """The former _integerize, kept as the oracle: it divides by the content
    of the scaled pair, which a canonical part never has."""
    (A, Da), (B, Db) = num, den
    g = math.gcd(Da, Db)
    u, v = Db // g, Da // g
    k = math.gcd(*(n * u for c in A.values() for n in c),
                 *(n * v for c in B.values() for n in c))
    return ({e: (x * u // k, y * u // k) for e, (x, y) in A.items()},
            {e: (x * v // k, y * v // k) for e, (x, y) in B.items()})


def _check_integerize(x):
    for rf in x.parts.values():
        num, den = sc._integerize(*rf)
        assert (num, den) == _integerize_with_gcd(*rf)
        assert math.gcd(*(n for p in (num, den) for c in p.values() for n in c)) == 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 3), _rf, min_size=1, max_size=3))
def test_integerize_needs_no_gcd(drawn_x):
    x = Scalar({m: _canonical(d) for m, d in drawn_x.items()})
    for z in (x, x.conj(), x * x, x + ONE):
        _check_integerize(z)


def test_integerize_needs_no_gcd_on_golden_scalars():
    from test_scalar_golden import CASES

    for build in CASES.values():
        _check_integerize(build())


# Small factors, drawn into a pool that both operands share, so that the
# cross gcds of the Henrici routes are mostly nontrivial.
@st.composite
def _factor(draw):
    """t^e + c1*t + c0 with e = 1 or 2 and c0 != 0, keys in a drawn order."""
    e, c1, a, b = draw(st.tuples(st.integers(1, 2), st.integers(-2, 2),
                                 st.integers(-3, 3), st.integers(-2, 2)))
    terms = [(e, 1, 0, 1), (1, c1 * (e - 1), 0, 1), (0, a + (a >= 0), b, 1)]
    return _poly_from(draw(st.permutations(terms)))


@st.composite
def _shared_factor_pair(draw):
    pool = draw(st.lists(_factor(), min_size=2, max_size=3,
                         unique_by=lambda p: frozenset(p[0].items())))
    # t itself joins the pool at times, for the t-adic valuation.
    if draw(st.booleans()):
        pool.append(({1: (1, 0)}, 1))

    def operand():
        # 1-3 factors above the line and 1-2 below
        num, den = ({0: (draw(st.integers(1, 5)), draw(st.integers(-2, 2)))}, 1), sc.P_ONE
        for f in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)):
            num = sc._pmul(num, f)
        for f in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)):
            den = sc._pmul(den, f)
        return sc._rf_canon(num, den)
    return operand(), operand()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_shared_factor_pair())
def test_henrici_routes_match_rf_canon(pair):
    x, y = pair
    assert sc._rf_mul(x, y) == _generic_mul(x, y)
    assert sc._rf_mul(x, x) == _generic_mul(x, x)
    assert sc._rf_add(x, y) == _generic_add(x, y)
    assert sc._rf_add(x, sc._rf_neg(y)) == _generic_add(x, sc._rf_neg(y))
    # x + (y - x): the denominators share the factors of x's, and the sum
    # cancels down to y, so gcd(s, g) is nontrivial.
    z = _generic_add(y, sc._rf_neg(x))
    assert sc._rf_add(x, z) == _generic_add(x, z)
    assert sc._rf_add(x, z) == y
    assert sc._rf_mul(z, x) == _generic_mul(z, x)
    assert sc._rf_inv(x) == sc._rf_canon(x[1], x[0])
    assert sc._rf_conj(x) == sc._rf_canon(sc._pconj(x[0]), sc._pconj(x[1]))


def test_rf_canon_clears_negative_exponents():
    one, i = (1, 0), (0, 1)
    x = sc._rf_canon(({-1: one, 0: i}, 1), ({0: one, 2: one}, 1))
    y = sc._rf_canon(({0: one, 1: i}, 1), ({1: one, 3: one}, 1))
    assert x == y
    assert str(Scalar({0: x})) == str(Scalar({0: y})) == "i/(t^2 + i*t)"


def _dense_scalar(rng):
    """A canonical radical-free scalar: numerator degree 30 over denominator
    degree 24, 7-9 digit Gaussian coefficients."""
    def dense(deg):
        def coeff():
            return rng.choice([-1, 1]) * rng.randint(10**6, 10**9 - 1)
        return {e: (coeff(), coeff()) for e in range(deg + 1)}, 1
    x = Scalar({0: sc._rf_canon(dense(30), dense(24))})
    assert (sc._pdeg(x.parts[0][0]), sc._pdeg(x.parts[0][1])) == (30, 24)
    return x


def test_dense_square_scaling():
    # A square is coprime already, so no gcd is needed.
    x = _dense_scalar(random.Random(30))
    t0 = time.perf_counter()
    y = x ** 2
    took = time.perf_counter() - t0
    assert took < 1.0, f"squaring took {took:.2f}s"
    v = x.specialize_t(Fraction(3, 2))
    assert y.specialize_t(Fraction(3, 2)) == v * v


def test_dense_coprime_product_scaling():
    # Two distinct operands: the product pays gcd(n1, d2) and gcd(n2, d1),
    # both of degree 0, over the whole Euclidean remainder sequence.
    rng = random.Random(31)
    x, y = _dense_scalar(rng), _dense_scalar(rng)
    t0 = time.perf_counter()
    z = x * y
    took = time.perf_counter() - t0
    assert took < 1.0, f"the product took {took:.2f}s"
    for t in (Fraction(3, 2), Fraction(-2, 5)):
        assert z.specialize_t(t) == x.specialize_t(t) * y.specialize_t(t)


def _three_part_scalar(rng):
    """A scalar with three of the four radical masks, each part a sum of 1-3
    terms c*t^k over a sum of 1-3 such terms, c = a/d1 + (b/d2)*i with
    |a| <= 3, |b| <= 2, d1 <= 4, d2 <= 3 and k in -2..3."""
    def laurent():
        out = ZERO
        for _ in range(rng.randint(1, 3)):
            c = Scalar.from_gauss(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                  Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            out = out + c * Scalar.t_power(rng.randint(-2, 3))
        return out
    while True:
        x = ZERO
        for mask in rng.sample(range(4), 3):
            num, den = laurent(), laurent()
            if den:
                x = x + num / den * (SQRT_1_PLUS_T2 if mask & 1 else ONE) * (KAPPA if mask & 2 else ONE)
        if len(x.parts) == 3:
            return x


def test_three_part_inverse_scaling():
    # Rationalising one radical at a time multiplies the parts out, and
    # Euclid then runs on dense denominators of degree up to about 60.
    rng = random.Random(1)
    for x in [_three_part_scalar(rng) for _ in range(20)]:
        t0 = time.perf_counter()
        y = x.inv()
        took = time.perf_counter() - t0
        assert took < 3.0, f"x.inv() took {took:.2f}s for x = {x}"
        assert x * y == ONE


def test_laurent_arithmetic_never_reaches_rf_canon_or_gcd(monkeypatch):
    from superq import _cache
    from superq.algebra import Element, random_monomial

    rng = random.Random(11)

    def laurent():
        # t-powers times Gaussian constants, and sums of them
        out = ZERO
        for _ in range(rng.randint(1, 3)):
            out = out + (Scalar.from_gauss(rng.randint(-3, 3), rng.randint(-2, 2))
                         * Scalar.t_power(rng.randint(-4, 4)))
        return out
    xs = [laurent() for _ in range(40)]
    monos = [[random_monomial(rng, 4) for _ in range(3)] for _ in range(20)]
    calls = {"_rf_canon": 0, "_pgcd": 0}
    for name in calls:
        def counted(*args, _real=getattr(sc, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(sc, name, counted)

    for x, y in zip(xs, xs[1:]):
        for z in (x * y, x + y, x - y, x * Q, x.conj(), (x * y) * T_INV + y):
            assert z == ZERO or z.is_rational_function()
    # The rewriting itself, from empty memo tables: every coefficient
    # _mono_mul and _reduce_ad produce is a Laurent polynomial.
    _cache.clear()
    for m1, m2, m3 in monos:
        x1, x2, x3 = (Element.monomial(m) for m in (m1, m2, m3))
        assert (x1 * x2) * x3 == x1 * (x2 * x3)
    assert calls == {"_rf_canon": 0, "_pgcd": 0}


# ---------------------------------------------------------------------------
# The field operations against an independent dense oracle
# ---------------------------------------------------------------------------

# The oracle keeps a scalar as {mask: (num, den)}, num and den dense lists of
# Gaussian-integer (re, im) pairs indexed by exponent, and never reduces.  It
# reads the stored form of a Scalar directly, a part (C/D)/(M/E) as the
# integer pair (C*E, M*D), so every check compares values exactly.

def _o_gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _o_padd(p, q):
    n = max(len(p), len(q))
    p, q = p + [(0, 0)] * (n - len(p)), q + [(0, 0)] * (n - len(q))
    return [(a[0] + b[0], a[1] + b[1]) for a, b in zip(p, q)]


def _o_pmul(p, q):
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            c = _o_gmul(a, b)
            out[i + j] = (out[i + j][0] + c[0], out[i + j][1] + c[1])
    return out


def _o_read(x):
    def dense(C, k):
        out = [(0, 0)] * (max(C) + 1)
        for e, (re, im) in C.items():
            out[e] = (re * k, im * k)
        return out
    return {m: (dense(n[0], d[1]), dense(d[0], n[1])) for m, (n, d) in x.parts.items()}


_O_ONE = [(1, 0)]
_O_SQUARES = {sc.R1_BIT: ([(1, 0), (0, 0), (1, 0)], _O_ONE),            # 1 + t^2
              sc.KAPPA_BIT: ([(1, 0), (0, 0), (1, 0)], [(-1, 0), (0, 0), (1, 0)])}


def _o_add(x, y):
    out = dict(x)
    for m, (n, d) in y.items():
        if m in out:
            n0, d0 = out[m]
            n, d = _o_padd(_o_pmul(n0, d), _o_pmul(n, d0)), _o_pmul(d0, d)
        out[m] = (n, d)
    return out


def _o_mul(x, y):
    out = {}
    for m1, (n1, d1) in x.items():
        for m2, (n2, d2) in y.items():
            n, d = _o_pmul(n1, n2), _o_pmul(d1, d2)
            for bit, (sn, sd) in _O_SQUARES.items():
                if m1 & m2 & bit:
                    n, d = _o_pmul(n, sn), _o_pmul(d, sd)
            out = _o_add(out, {m1 ^ m2: (n, d)})
    return out


def _o_eq(x, y):
    """x == y as values: every component's cross product cancels."""
    diff = _o_add(x, {m: ([(-a, -b) for a, b in n], d) for m, (n, d) in y.items()})
    return all(c == (0, 0) for n, _ in diff.values() for c in n)


def _layout_ok_scalar(x):
    """Every stored polynomial meets the layout rules, every part is nonzero
    and its denominator monic."""
    return all(_layout_ok(n) and _layout_ok(d) and n[0] and sc._plead(d) == (d[1], 0)
               for n, d in x.parts.values())


# (a + b*i)/d * t^k
_o_term = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 4), st.integers(-2, 3))
# Masks 1-3 carry the radicals; one term below the line gives a Laurent part.
# Two parts over two-term denominators keep x.inv() in milliseconds; three
# parts take up to about a second (test_three_part_inverse_scaling).
_o_scalar = st.dictionaries(
    st.sampled_from([0, 1, 2, 3]),
    st.tuples(st.lists(_o_term, min_size=1, max_size=3), st.lists(_o_term, min_size=1, max_size=2)),
    min_size=1, max_size=2)


def _o_build(drawn):
    out = ZERO
    for mask, (num, den) in drawn.items():
        n, d = (sum((Scalar.from_gauss(Fraction(a, q), Fraction(b, q)) * Scalar.t_power(k)
                     for a, b, q, k in p), ZERO) for p in (num, den))
        if d:
            out = out + n / d * (SQRT_1_PLUS_T2 if mask & 1 else ONE) * (KAPPA if mask & 2 else ONE)
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_o_scalar, _o_scalar)
def test_field_ops_match_dense_oracle(drawn_x, drawn_y):
    x, y = _o_build(drawn_x), _o_build(drawn_y)
    ox, oy = _o_read(x), _o_read(y)
    minus_oy = {m: ([(-a, -b) for a, b in n], d) for m, (n, d) in oy.items()}
    conj_ox = {m: ([(a, -b) for a, b in n], [(a, -b) for a, b in d]) for m, (n, d) in ox.items()}
    for z, want in ((x, ox), (x + y, _o_add(ox, oy)), (x - y, _o_add(ox, minus_oy)),
                    (x * y, _o_mul(ox, oy)), (x.conj(), conj_ox)):
        assert _layout_ok_scalar(z)
        assert _o_eq(_o_read(z), want)
    # Quotients are checked by multiplying back in the oracle.
    if y:
        z = x / y
        assert _layout_ok_scalar(z) and _o_eq(_o_mul(_o_read(z), oy), ox)
    if x:
        z = x.inv()
        assert _layout_ok_scalar(z) and _o_eq(_o_mul(_o_read(z), ox), {0: (_O_ONE, _O_ONE)})


def test_polynomial_kernels_build_no_gaussrat(monkeypatch):
    # GaussRat holds scalar constants and numeric evaluation only: the Hopf
    # verifier, from empty memo tables, builds none in its arithmetic.
    from superq import _cache, hopf

    made = []
    real_gr, real_init = sc._gr, sc.GaussRat.__init__

    def gr(*args):
        made.append(args)
        return real_gr(*args)

    def init(self, *args):
        made.append(args)
        real_init(self, *args)
    monkeypatch.setattr(sc, "_gr", gr)
    monkeypatch.setattr(sc.GaussRat, "__init__", init)
    _cache.clear()
    rep = hopf.verify_hopf(2)
    assert rep.ok and rep.checked > 200
    assert made == []


def _fresh_unit(eps, p):
    """The parts of (-1)^eps t^p, written out literally."""
    c = (-1 if eps else 1, 0)
    if p >= 0:
        return {0: (({p: c}, 1), ({0: (1, 0)}, 1))}
    return {0: (({0: c}, 1), ({-p: (1, 0)}, 1))}


def test_unit_scalars_are_shared():
    from superq import _cache

    assert sc.signed_t_power(0, 0) is ONE
    for eps in range(-3, 3):
        for p in range(-4, 5):
            x = sc.signed_t_power(eps, p)
            assert x is sc.signed_t_power(eps + 2, p)
            assert x.parts == _fresh_unit(eps % 2, p)
            if p < 0:
                assert x.parts[0][1] is sc._t_den(-p)
    assert Scalar.q_power(3) is sc.signed_t_power(1, 6)
    assert sc._t_den(0) is sc.P_ONE
    _cache.clear()   # the tables refill; the values do not change
    assert sc.signed_t_power(2, 0) is ONE
    assert sc.signed_t_power(1, 3) == -(T ** 3)


def _is_unit(c):
    """Whether the Scalar c is +-t^k."""
    if list(c.parts) != [0]:
        return False
    (n, dn), (d, dd) = c.parts[0]
    return (len(n) == len(d) == 1 and dn == dd == 1 and min(*n, *d) == 0
            and d[min(d)] == (1, 0) and n[min(n)] in ((1, 0), (-1, 0)))


def test_memo_tables_share_the_unit_scalars():
    # Units are closed under products, so a +-t^k coefficient that a product
    # made is the shared object.  A product that needs neither d^l a^I nor
    # ad = sigma - t bc is one term, +-t^k times ONE.
    from superq import _cache, algebra, hopf

    _cache.clear()
    assert hopf.verify_hopf(3).ok
    shared = {v: v for v in sc._unit_cache.values()}
    one_term = [terms[0][1] for terms in algebra._mul_cache.values() if len(terms) == 1]
    assert len(one_term) > 100
    assert all(c is shared[c] for c in one_term)

    def units(table):
        """For each +-t^k coefficient in table, whether it is shared."""
        return [c is shared.get(c) for terms in table.values() for _, c in terms if _is_unit(c)]

    reduced = units(algebra._reduce_cache)
    assert len(reduced) == 84 and all(reduced)
    # The rest are sums, not products: in A(sigma) a C_r of d^l a^I merged
    # with a term of the ad reduction can add up to +-t^k, a fresh Scalar.
    products = units(algebra._mul_cache)
    assert len(products) == 851 and sum(products) >= 767


def test_shared_units_survive_a_verify_pass(capsys):
    # No code may mutate a shared Scalar or polynomial dict: after a full
    # verify pass every shared entry still holds its literal value.
    from superq.cli import main

    assert main(["verify", "--suite", "all"]) == 0
    capsys.readouterr()
    assert len(sc._unit_cache) > 20 and len(sc._t_den_cache) > 20
    for (eps, p), x in sc._unit_cache.items():
        assert x.parts == _fresh_unit(eps, p), (eps, p)
    for k, d in sc._t_den_cache.items():
        assert d == ({k: (1, 0)}, 1), k
    assert ONE.parts == _fresh_unit(0, 0) and sc.P_ONE == ({0: (1, 0)}, 1)
