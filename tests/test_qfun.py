import pytest

from superq.qfun import (
    QPolynomial, binomial_collapse_check, gauss_binomial, little_jacobi,
    pascal_rule_check, pochhammer, pochhammer_poly, qbinomial_theorem_check,
)
from superq.scalars import ONE, Scalar, T, T_INV


def v():
    return T_INV * T_INV


def test_pochhammer_empty_product():
    assert pochhammer(T, v(), 0) == ONE


def test_pochhammer_expansion():
    # (t^-2; t^-2)_2 = (1 - t^-2)(1 - t^-4)
    got = pochhammer(v(), v(), 2)
    expected = (ONE - T_INV ** 2) * (ONE - T_INV ** 4)
    assert got == expected


def test_pochhammer_poly_single_factor():
    p = pochhammer_poly(T * T, 1)
    assert p == QPolynomial({0: ONE, 1: -ONE})


def test_pochhammer_poly_scaled():
    # (t^-2 z; t^-2)_2 = (1 - t^-2 z)(1 - t^-4 z)
    p = pochhammer_poly(v(), 2, scale=v())
    q = QPolynomial({0: ONE, 1: -v()}) * QPolynomial({0: ONE, 1: -(v() * v())})
    assert p == q


def test_gauss_binomial_values():
    for m in range(6):
        assert gauss_binomial(m, 0, v()) == ONE
    assert gauss_binomial(2, 1, v()) == ONE + v()
    assert gauss_binomial(3, 2, v()) == ONE + v() + v() * v()


def test_gauss_binomial_out_of_range_is_zero():
    assert gauss_binomial(3, -1, v()).is_zero()
    assert gauss_binomial(3, 4, v()).is_zero()


def test_gauss_binomial_symmetry():
    for m in range(8):
        for n in range(m + 1):
            assert gauss_binomial(m, n, v()) == gauss_binomial(m, m - n, v())


def test_pascal_rule():
    rep = pascal_rule_check(10)
    assert rep.ok, str(rep)


def test_little_jacobi_degree_zero():
    assert little_jacobi(0, 0, 0, v()) == QPolynomial({0: ONE})


def test_little_jacobi_degree_one():
    # P_1^(0,0)(z; v) = 1 - (1+v) z
    base = Scalar.t_power(-2) * ONE  # formal v as a scalar
    p = little_jacobi(1, 0, 0, v())
    assert p == QPolynomial({0: ONE, 1: -(ONE + v())})
    # P_1^(1,0)(z; v) = 1 - ((1-v^3)/(1-v^2)) z
    p10 = little_jacobi(1, 1, 0, v())
    coeff = (ONE - v() ** 3) / (ONE - v() ** 2)
    assert p10 == QPolynomial({0: ONE, 1: -coeff})


def test_little_jacobi_truncates():
    p = little_jacobi(3, 0, 0, v())
    assert p.degree() == 3


def test_qbinomial_theorem():
    rep = qbinomial_theorem_check(4)
    assert rep.ok, str(rep)


def test_qbinomial_theorem_matches_coproduct_power():
    # two-path: Delta(a^4) by repeated multiplication vs the binomial sum
    from superq.algebra import Element
    from superq.hopf import coproduct
    from superq.tensor import Tensor
    a = Element.generator("a")
    b = Element.generator("b")
    c = Element.generator("c")
    lhs = coproduct(a ** 4)
    x = Tensor.from_elements([a, a])
    y = Tensor.from_elements([b, c])
    rhs = None
    vinv = v()
    for k in range(5):
        term = (x ** k * y ** (4 - k)).scale(gauss_binomial(4, k, vinv))
        rhs = term if rhs is None else rhs + term
    assert lhs == rhs


def test_binomial_collapse_identity():
    rep = binomial_collapse_check(6)
    assert rep.ok, str(rep)


def test_each_gauss_binomial_is_built_once(monkeypatch):
    from superq import _cache, qfun

    calls = [0]

    def counted(*args):
        calls[0] += 1
        return pochhammer(*args)
    monkeypatch.setattr(qfun, "pochhammer", counted)
    _cache.clear()
    assert binomial_collapse_check(6).ok
    # three per distinct binomial, 0 <= n <= m <= 6 (1260 with no memo)
    assert calls[0] <= 84
    assert gauss_binomial(6, 2, T_INV * T_INV) is gauss_binomial(6, 2, qfun.TM2)


def test_gauss_row_is_the_quotient_binomial():
    # the two routes to [n k] at base t^-2: algebra.gauss_row by q-Pascal,
    # gauss_binomial by the Pochhammer quotient
    from superq import qfun
    from superq.algebra import gauss_row

    for n in range(25):
        row = gauss_row(n)
        assert sorted(row) == list(range(n + 1))
        for k in range(n + 1):
            assert row[k] == gauss_binomial(n, k, qfun.TM2), (n, k)


def test_qpolynomial_arithmetic():
    p = QPolynomial({0: ONE, 1: T})
    q = QPolynomial({1: T_INV})
    assert (p * q) == QPolynomial({1: T_INV, 2: ONE})
    assert (p + (-p)) == QPolynomial()


def _little_jacobi_by_pochhammer_quotients(n, alpha, beta, q):
    """The former little_jacobi: whole q-Pochhammer products per term,
    then one division."""
    out = {}
    for r in range(n + 1):
        num = pochhammer(q ** (-n), q, r) * pochhammer(q ** (alpha + beta + n + 1), q, r)
        den = pochhammer(q, q, r) * pochhammer(q ** (alpha + 1), q, r)
        coeff = (num / den) * q ** r
        if coeff:
            out[r] = coeff
    return QPolynomial(out)


@pytest.mark.parametrize("n", range(11))
def test_little_jacobi_term_ratio_matches_pochhammer_quotients(n):
    for alpha in range(5):
        for beta in range(-4, 5):
            got = little_jacobi(n, alpha, beta, v())
            expected = _little_jacobi_by_pochhammer_quotients(n, alpha, beta, v())
            assert got == expected, (n, alpha, beta)
            assert list(got.terms.items()) == list(expected.terms.items()), (n, alpha, beta)
