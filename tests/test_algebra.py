import functools
import inspect
import random
import time

import pytest

from superq import _cache, algebra
from superq.algebra import (
    MIXED, Element, RingMismatchError, basis_monomials, bigrade, e_basis,
    mono_bigrade, multiply, normal_form, parity, project_00, random_monomial,
    zeta, zeta_power,
)
from superq.scalars import MINUS_ONE, ONE, Scalar, T, T_INV, add_term, signed_t_power


def gen(name, ring="Asigma"):
    return Element.generator(name, ring)


def test_defining_relations_bsigma():
    ring = "Bsigma"
    a, b, c, d, s = (gen(x, ring) for x in ("a", "b", "c", "d", "sigma"))
    assert a * b == b * a * T
    assert a * c == c * a * T
    assert b * c == -(c * b)
    assert b * d == -(d * b) * T
    assert c * d == -(d * c) * T
    assert a * d - d * a == b * c * (T_INV - T)
    assert s * b == -(b * s)
    assert s * c == -(c * s)
    assert s * a == a * s
    assert s * d == d * s
    assert s * s == Element.one(ring)


def test_da_rewrite():
    ring = "Bsigma"
    d, a = gen("d", ring), gen("a", ring)
    expected = gen("a", ring) * gen("d", ring) - \
        gen("b", ring) * gen("c", ring) * (T_INV - T)
    assert d * a == expected


def test_cb_rewrite():
    assert gen("c") * gen("b") == -(gen("b") * gen("c"))


def test_quotient_relation_asigma():
    a, d, b, c, s = (gen(x) for x in "a d b c sigma".split())
    assert a * d == s - b * c * T
    assert a * d + b * c * T == s


def test_sigma_b_anticommutes():
    s, b = gen("sigma"), gen("b")
    assert s * b == -(b * s)


def test_empty_word_is_one():
    assert normal_form([]) == Element.one()
    assert normal_form([], ring="B") == Element.one("B")


def test_normal_form_word():
    el = normal_form(["d", "a"], ring="Bsigma")
    a, d, b, c = (gen(x, "Bsigma") for x in "adbc")
    assert el == a * d - b * c * (T_INV - T)


def test_unknown_generator_errors():
    with pytest.raises(ValueError):
        normal_form(["x"])
    with pytest.raises(ValueError):
        Element.generator("sigma", "B")


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        multiply(gen("a", "B"), gen("a", "Asigma"))


def test_one_is_identity():
    rng = random.Random(3)
    for _ in range(20):
        m = random_monomial(rng, 4)
        x = Element.monomial(m)
        assert Element.one() * x == x
        assert x * Element.one() == x


def test_ad_squared():
    # (ad)^2 = (sigma - t bc)^2 = 1 - 2t bc sigma - t^2 b^2 c^2
    a, d, b, c, s = (gen(x) for x in "a d b c sigma".split())
    lhs = (a * d) * (a * d)
    two = Scalar.from_rational(2)
    expected = Element.one() - (b * c * s) * (two * T) - (b * b * c * c) * (T * T)
    assert lhs == expected


def test_no_nilpotency():
    b, c = gen("b"), gen("c")
    assert (b * b).terms == {(0, 2, 0, 0, 0): ONE}
    assert (c * c).terms == {(0, 0, 2, 0, 0): ONE}


def test_normal_form_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        m = random_monomial(rng, 5)
        x = Element.monomial(m)
        # multiplying a normal monomial by 1 re-runs the engine on it
        assert Element.one() * x == x


def test_multiply_associative_random():
    rng = random.Random(202407)
    for _ in range(200):
        xs = [Element.monomial(random_monomial(rng, 4)) for _ in range(3)]
        assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])


def test_parity_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        x = Element.monomial(random_monomial(rng, 4))
        y = Element.monomial(random_monomial(rng, 4))
        p = parity(x * y)
        if p != MIXED and (x * y):
            assert p == (parity(x) + parity(y)) % 2


def test_bigrade_generators():
    assert bigrade(gen("a")) == (1, 1)
    assert bigrade(gen("b")) == (1, -1)
    assert bigrade(gen("c")) == (-1, 1)
    assert bigrade(gen("d")) == (-1, -1)
    assert bigrade(gen("sigma")) == (0, 0)
    assert bigrade(zeta()) == (0, 0)
    assert bigrade(gen("a") + gen("b")) == MIXED


def test_bigrade_additive_under_product():
    rng = random.Random(17)
    for _ in range(40):
        m1 = random_monomial(rng, 4)
        m2 = random_monomial(rng, 4)
        prod = Element.monomial(m1) * Element.monomial(m2)
        if prod:
            g1, g2 = mono_bigrade(m1), mono_bigrade(m2)
            assert bigrade(prod) == (g1[0] + g2[0], g1[1] + g2[1])


def test_group_like_anticommutes_with_odds():
    # z = ad + t bc in B satisfies zb = -bz and zc = -cz
    ring = "B"
    a, b, c, d = (gen(x, ring) for x in "abcd")
    z = a * d + b * c * T
    assert z * b == -(b * z)
    assert z * c == -(c * z)
    assert z * a == a * z
    assert z * d == d * z


def test_e_basis_cases():
    assert e_basis(2, 0) == gen("a") * gen("b")
    assert e_basis(0, 0) == Element.one()
    assert e_basis(-1, 1) == gen("c")
    assert e_basis(1, 1) == gen("a")
    assert e_basis(-2, 0) == gen("c") * gen("d") or \
        e_basis(-2, 0).terms == {(0, 1, 0, 1, 0): ONE}
    for m in range(-3, 4):
        for n in range(-3, 4):
            if (m - n) % 2 == 0:
                assert bigrade(e_basis(m, n)) == (m, n)


def test_e_basis_parity_error():
    with pytest.raises(ValueError):
        e_basis(1, 0)


def test_project_00():
    assert project_00(zeta_power(3)) == zeta_power(3)
    assert project_00(gen("a")).is_zero()
    ad = gen("a") * gen("d")
    assert project_00(ad) == ad  # sigma - t bc is all in weight (0,0)


def test_zeta_power_closed_form():
    z = zeta()
    acc = Element.one()
    for n in range(7):
        assert acc == zeta_power(n)
        acc = acc * z


def test_power_identities_ad():
    # a^m d^m = sum_k binom(m,k)_{t^-2} t^(2km-k^2) (cb)^k sigma^(m-k)
    from superq.qfun import gauss_binomial
    a, d, b, c, s = (gen(x) for x in "a d b c sigma".split())
    v = T_INV * T_INV
    for m in range(7):
        lhs = a ** m * d ** m
        rhs = Element.zero()
        for k in range(m + 1):
            coeff = gauss_binomial(m, k, v) * Scalar.t_power(2 * k * m - k * k)
            term = ((c * b) ** k) * (s ** ((m - k) % 2)) * coeff
            rhs = rhs + term
        assert lhs == rhs, f"a^m d^m mismatch at m={m}"


def test_ad_products_have_n_plus_1_terms():
    # a^m d^m and d^m a^m have m + 1 normal monomials, one per Gauss
    # binomial [m r]; a product of basis monomials builds them in one sum.
    from superq.qfun import gauss_binomial
    a, d, b, c, s = (gen(x) for x in "a d b c sigma".split())
    v = T_INV * T_INV
    _cache.clear()
    for m in range(11):
        for m1, m2 in (((m, 0, 0, 0, 0), (0, 0, 0, m, 0)),
                       ((0, 0, 0, m, 0), (m, 0, 0, 0, 0))):
            assert len(algebra._mono_mul(m1, m2, "Asigma")) == m + 1
        rhs = Element.zero()
        for k in range(m + 1):
            coeff = gauss_binomial(m, k, v) * Scalar.t_power(2 * k * m - k * k)
            rhs = rhs + ((c * b) ** k) * (s ** ((m - k) % 2)) * coeff
        assert a ** m * d ** m == rhs, f"a^m d^m mismatch at m={m}"


def test_ad_products_scale():
    # Each product is one sum over the row of [40 r], built from empty
    # tables; a rewrite one relation at a time grows super-linearly in 40.
    a, d = gen("a"), gen("d")
    for x, y in ((d, a), (a, d)):
        _cache.clear()
        t0 = time.perf_counter()
        out = x ** 40 * y ** 40
        took = time.perf_counter() - t0
        assert len(out.terms) == 41
        assert took < 1.0, f"{x}^40 {y}^40 took {took:.2f}s"


def test_power_identities_da():
    # d^m a^m = sum_k binom(m,k)_{t^-2} t^(-k^2) (cb sigma)^k sigma^m
    from superq.qfun import gauss_binomial
    a, d, b, c, s = (gen(x) for x in "a d b c sigma".split())
    v = T_INV * T_INV
    for m in range(7):
        lhs = d ** m * a ** m
        rhs = Element.zero()
        for k in range(m + 1):
            coeff = gauss_binomial(m, k, v) * Scalar.t_power(-k * k)
            term = ((c * b * s) ** k) * (s ** (m % 2)) * coeff
            rhs = rhs + term
        assert lhs == rhs, f"d^m a^m mismatch at m={m}"


def test_pochhammer_power_identity():
    # a^n d^n = (zeta; t^2)_n sigma^n and d^n a^n = (t^-2 zeta; t^-2)_n sigma^n
    from superq.qfun import pochhammer_poly
    a, d, s = gen("a"), gen("d"), gen("sigma")
    v_up = T * T
    v_dn = T_INV * T_INV
    for n in range(7):
        up = pochhammer_poly(v_up, n)
        dn = pochhammer_poly(v_dn, n, scale=v_dn)
        sig = s ** (n % 2)
        lhs_up = Element.zero()
        for r, cf in up.terms.items():
            lhs_up = lhs_up + zeta_power(r) * cf
        assert a ** n * d ** n == lhs_up * sig
        lhs_dn = Element.zero()
        for r, cf in dn.terms.items():
            lhs_dn = lhs_dn + zeta_power(r) * cf
        assert d ** n * a ** n == lhs_dn * sig


def test_basis_monomials_enumeration():
    monos = list(basis_monomials(2, "Asigma"))
    assert (1, 0, 0, 1, 0) not in monos
    assert (0, 1, 1, 0, 1) in monos
    assert len(monos) == len(set(monos))
    for m in monos:
        assert m[0] == 0 or m[3] == 0


def test_element_str():
    x = gen("d") * gen("a")
    # d*a = a*d - (t^-1 - t) b*c; in A(sigma) a*d collapses further
    assert "s" in str(x) or "b*c" in str(x)
    assert str(Element.zero()) == "0"


# ---------------------------------------------------------------------------
# The closed-form monomial product against the generator-step kernel
# ---------------------------------------------------------------------------

def _geom_t2inv(l):
    # 1 + t^-2 + ... + t^-2(l-1)
    return sum((Scalar.t_power(-2 * r) for r in range(l)), Scalar())


@functools.lru_cache(maxsize=None)
def _reduce_ad(m):
    """Rewrite coexisting a and d via ad = sigma - t bc, one pair at a time:
    a^i b^j c^k d^l = t^(j+k) [ a^(i-1) b^j c^k d^(l-1) sigma
                                - (-1)^k t a^(i-1) b^(j+1) c^(k+1) d^(l-1) ]."""
    i, j, k, l, s = m
    if i == 0 or l == 0:
        return ((m, ONE),)
    out = {}
    for mm, c in (((i - 1, j, k, l - 1, 1 - s), Scalar.t_power(j + k)),
                  ((i - 1, j + 1, k + 1, l - 1, s), signed_t_power(k + 1, j + k + 1))):
        for mmm, cc in _reduce_ad(mm):
            add_term(out, mmm, c * cc)
    return tuple(out.items())


def _step_times_gen(m, g):
    """Right-multiply a B(sigma)-normal monomial by one generator."""
    i, j, k, l, s = m
    if g == "a":
        lead = ((i + 1, j, k, l, s), Scalar.t_power(-(j + k)))
        if l == 0:
            return [lead]
        coeff = (T_INV - T) * _geom_t2inv(l)
        if k % 2:
            coeff = -coeff
        return [lead, ((i, j + 1, k + 1, l - 1, s), -coeff)]
    if g == "b":
        # b moves left past sigma^s, d^l and c^k: (-1)^s (-t^-1)^l (-1)^k
        coeff = (MINUS_ONE * T_INV) ** l
        return [((i, j + 1, k, l, s), -coeff if (s + k) % 2 else coeff)]
    if g == "c":
        # c moves left past sigma^s and d^l: (-1)^s (-t^-1)^l
        coeff = (MINUS_ONE * T_INV) ** l
        return [((i, j, k + 1, l, s), -coeff if s else coeff)]
    if g == "d":
        return [((i, j, k, l + 1, s), ONE)]
    return [((i, j, k, l, 1 - s), ONE)]     # sigma


def _step_mono_mul(m1, m2, ring):
    """m2's generators applied to m1 one at a time and, in A(sigma), each
    a d pair rewritten by _reduce_ad: the oracle of the closed forms."""
    terms = {m1: ONE}
    for g, e in zip(("a", "b", "c", "d", "sigma"), m2):
        for _ in range(e):
            nxt = {}
            for m, c in terms.items():
                for mm, cc in _step_times_gen(m, g):
                    add_term(nxt, mm, c * cc)
            terms = nxt
    if ring == "Asigma":
        red = {}
        for m, c in terms.items():
            for mm, cc in _reduce_ad(m):
                add_term(red, mm, c * cc)
        terms = red
    return list(terms.items())


@pytest.mark.parametrize("ring", ["B", "Bsigma", "Asigma"])
def test_mono_mul_matches_generator_steps(ring):
    basis = list(basis_monomials(4, ring))
    pairs = [(m1, m2) for m1 in basis for m2 in basis]
    rng = random.Random(11)
    pairs += [(random_monomial(rng, 10, ring), random_monomial(rng, 10, ring))
              for _ in range(2000)]
    for m1, m2 in pairs:
        assert list(algebra._mono_mul(m1, m2, ring)) == \
            _step_mono_mul(m1, m2, ring), (m1, m2)


def test_mono_mul_times_gen_count(monkeypatch):
    # Only d^l a^I in B and B(sigma) is rewritten step by step, once per
    # (l, I): the products of all degree <= 2 basis pairs in the two rings
    # make 8 steps, 1 for each of d a and d^2 a and 1 + 2 for each of d a^2
    # and d^2 a^2.  A(sigma) products are one sum over [n r] each and never
    # expand d^l a^I.
    calls, expansions = [], []
    real_step, real_expand = algebra._times_gen, algebra._d_power_a_power

    def counting(*args):
        calls.append(args)
        return real_step(*args)

    def expanding(*args):
        expansions.append(args)
        return real_expand(*args)

    _cache.clear()
    monkeypatch.setattr(algebra, "_times_gen", counting)
    monkeypatch.setattr(algebra, "_d_power_a_power", expanding)
    for ring in ("Asigma", "B", "Bsigma"):
        basis = list(basis_monomials(2 if ring != "Asigma" else 6, ring))
        for m1 in basis:
            for m2 in basis:
                algebra._mono_mul(m1, m2, ring)
        if ring == "Asigma":
            assert len(algebra._mul_cache) > 1000 and not expansions
    assert len(calls) == 8


# Each mutant drops one term of an exponent of _mono_mul_tabled's A(sigma)
# sums; the oracle must tell every one of them from the closed form.
_A_SIGMA_MUTANTS = [
    # d past a: the sign and the t-power
    ("JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2",
     "J * (k + r) + k * r + r * (r + 1) // 2"),
    ("JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2",
     "JK * (l - r) + J * (k + r) + k * r + r * (r + 1) // 2"),
    ("JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2",
     "JK * (u - r) + J * (k + r) + k * r + r * (r + 1) // 2"),
    ("JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2",
     "JK * (u + l) + J * (k + r) + k * r + r * (r + 1) // 2"),
    ("JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2",
     "JK * (u + l - r) + k * r + r * (r + 1) // 2"),
    ("JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2",
     "JK * (u + l - r) + J * r + k * r + r * (r + 1) // 2"),
    ("JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2",
     "JK * (u + l - r) + J * k + k * r + r * (r + 1) // 2"),
    ("JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2",
     "JK * (u + l - r) + J * (k + r) + r * (r + 1) // 2"),
    ("JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2",
     "JK * (u + l - r) + J * (k + r) + k * r"),
    ("-r * r - D * (2 * r + JK) - A * (j + k + 2 * r)", "-D * (2 * r + JK) - A * (j + k + 2 * r)"),
    ("-r * r - D * (2 * r + JK) - A * (j + k + 2 * r)", "-r * r - A * (j + k + 2 * r)"),
    ("-r * r - D * (2 * r + JK) - A * (j + k + 2 * r)", "-r * r - D * JK - A * (j + k + 2 * r)"),
    ("-r * r - D * (2 * r + JK) - A * (j + k + 2 * r)", "-r * r - D * 2 * r - A * (j + k + 2 * r)"),
    ("-r * r - D * (2 * r + JK) - A * (j + k + 2 * r)", "-r * r - D * (2 * r + JK)"),
    ("-r * r - D * (2 * r + JK) - A * (j + k + 2 * r)", "-r * r - D * (2 * r + JK) - A * (k + 2 * r)"),
    ("-r * r - D * (2 * r + JK) - A * (j + k + 2 * r)", "-r * r - D * (2 * r + JK) - A * (j + 2 * r)"),
    ("-r * r - D * (2 * r + JK) - A * (j + k + 2 * r)", "-r * r - D * (2 * r + JK) - A * (j + k)"),
    # d past a: the sigma exponent
    ("(A, j + J + r, k + K + r, D, (u + U + n - r) % 2)", "(A, j + J + r, k + K + r, D, (u + U + n) % 2)"),
    # a beside d: the sign, the t-power and the sigma exponent
    ("JK * u + J * k + Z * r + r * (r + 1) // 2", "J * k + Z * r + r * (r + 1) // 2"),
    ("JK * u + J * k + Z * r + r * (r + 1) // 2", "JK * u + Z * r + r * (r + 1) // 2"),
    ("JK * u + J * k + Z * r + r * (r + 1) // 2", "JK * u + J * k + r * (r + 1) // 2"),
    ("JK * u + J * k + Z * r + r * (r + 1) // 2", "JK * u + J * k + Z * r"),
    ("(Y + Z) * n + r * r + 2 * r * (n - r)", "r * r + 2 * r * (n - r)"),
    ("(Y + Z) * n + r * r + 2 * r * (n - r)", "Y * n + r * r + 2 * r * (n - r)"),
    ("(Y + Z) * n + r * r + 2 * r * (n - r)", "Z * n + r * r + 2 * r * (n - r)"),
    ("(Y + Z) * n + r * r + 2 * r * (n - r)", "(Y + Z) * n + 2 * r * (n - r)"),
    ("(Y + Z) * n + r * r + 2 * r * (n - r)", "(Y + Z) * n + r * r"),
    ("(Y + Z) * n + r * r + 2 * r * (n - r)", "(Y + Z) * n + r * r + 2 * r * n"),
    ("(i - n, Y + r, Z + r, L - n, (u + U + n - r) % 2)", "(i - n, Y + r, Z + r, L - n, (u + U + n) % 2)"),
]

_A_SIGMA_ORACLE = {}


@pytest.mark.parametrize("old,new", _A_SIGMA_MUTANTS)
def test_a_sigma_exponent_mutants_fail_the_oracle(monkeypatch, old, new):
    source = inspect.getsource(algebra._mono_mul_tabled)
    source = source[source.index("def "):]      # without the memo
    assert source.count(old) == 1
    namespace = dict(vars(algebra))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(algebra, "_mono_mul_tabled", namespace["_mono_mul_tabled"])
    basis = list(basis_monomials(4, "Asigma"))
    for m1 in basis:
        for m2 in basis:
            if not (m1[3] and m2[0] or (m1[0] + m2[0]) and (m1[3] + m2[3])):
                continue
            if (m1, m2) not in _A_SIGMA_ORACLE:
                _A_SIGMA_ORACLE[m1, m2] = _step_mono_mul(m1, m2, "Asigma")
            if list(algebra._mono_mul(m1, m2, "Asigma")) != _A_SIGMA_ORACLE[m1, m2]:
                return
    pytest.fail(f"no product tells {new!r} from {old!r}")
