import random
import time

import pytest
import sympy

from superq import _cache, linalg, repn
from superq.algebra import Element, basis_monomials, bigrade, zeta, zeta_power
from superq.hopf import star
from superq.repn import (
    CorepIndex, bracket_t, closed_form, closed_form_matrix, comodule_vector,
    completeness_witness, index_range, haar, haar_via_corep_expansion, haar_zeta,
    haar_zeta_sigma, inner, matrix_coefficients, moments, moments_report,
    sigma_component, vector_norm_sq, verify_integral, verify_peter_weyl,
    verify_weight_norms,
)
from superq.scalars import I_UNIT, ONE, Scalar, T, T_INV, ZERO, add_term


def gen(name):
    return Element.generator(name)


def test_corep_index_validation():
    CorepIndex(3, 1, -3, 0)
    with pytest.raises(ValueError):
        CorepIndex(3, 2, 1)      # parity mismatch
    with pytest.raises(ValueError):
        CorepIndex(3, 5, 1)      # out of range
    with pytest.raises(ValueError):
        CorepIndex(2, 0, 0, 2)   # bad sigma flag


def test_corep_index_equality_and_hash():
    idx = CorepIndex(3, 1, -3, 1)
    assert idx == CorepIndex(3, 1, -3, 1)
    assert hash(idx) == hash(CorepIndex(3, 1, -3, 1))
    assert idx != CorepIndex(3, 1, -3, 0) and idx != CorepIndex(3, -3, 1, 1)
    assert idx != (3, 1, -3, 1)
    assert len({idx, CorepIndex(3, 1, -3, 1), CorepIndex(1, 1, 1)}) == 2
    assert repr(idx) == "CorepIndex(twoL=3, twoI=1, twoJ=-3, s=1)"
    assert CorepIndex(2, 0, 0).s == 0
    with pytest.raises(ValueError, match="twoI=2 invalid for twoL=3"):
        CorepIndex(3, 2, 1)
    with pytest.raises(ValueError, match="twoJ=5 invalid for twoL=3"):
        CorepIndex(3, 1, 5)
    with pytest.raises(AttributeError):
        idx.twoL = 5


def test_comodule_vectors_spin_half():
    v = comodule_vector("L", CorepIndex(1, -1, -1))
    assert v.element == gen("a")
    assert v.norm_sq == ONE
    v2 = comodule_vector("L", CorepIndex(1, 1, 1))
    assert v2.element == gen("c")
    v3 = comodule_vector("R", CorepIndex(1, 1, 1))
    assert v3.element == gen("b")


def test_comodule_vector_norms():
    # spin 1, i = 0: squared prefactor binom(2,1)_{t^-2} = 1 + t^-2
    nsq = vector_norm_sq(2, 0)
    assert nsq == ONE + T_INV * T_INV
    # normalization is rejected when the square root leaves the field
    with pytest.raises(ValueError):
        comodule_vector("L", CorepIndex(2, 0, 0), normalized=True)
    # spin 1/2 normalizes fine (prefactor 1)
    v = comodule_vector("L", CorepIndex(1, -1, -1), normalized=True)
    assert v.element == gen("a")


def test_norm_squares_are_squarefree():
    # [2l, l+i] at base t^-2 is a product of distinct cyclotomic polynomials
    # in t, so N^2 = +-[2l, l+i] has a square root in Q(i)(t) only at
    # i = +-l, where it is +-1.  Checked over the spins the engine builds.
    t = sympy.Symbol("t")
    for twoL in range(2 * repn.MATRIX_BOUND + 1):
        for twoI in index_range(twoL):
            (C, D), den = vector_norm_sq(twoL, twoI).parts[0]
            num = sympy.Poly({(e,): sympy.Rational(x, D) + sympy.I * sympy.Rational(y, D)
                              for e, (x, y) in C.items()}, t, domain="QQ_I")
            assert num.is_sqf, (twoL, twoI)
            assert (num.degree() == 0) == (abs(twoI) == twoL), (twoL, twoI)
            assert len(den[0]) == 1     # a power of t: the factors are all in num


@pytest.mark.parametrize("side", ["L", "R"])
def test_normalized_vectors_exactly_at_extreme_weights(side):
    for twoL in range(2 * repn.MATRIX_BOUND + 1):
        for twoI in index_range(twoL):
            for s in (0, 1):
                idx = CorepIndex(twoL, twoI, twoI, s)
                plain = comodule_vector(side, idx)
                if abs(twoI) != twoL:
                    with pytest.raises(ValueError) as err:
                        comodule_vector(side, idx, normalized=True)
                    assert str(err.value) == (
                        f"squared prefactor {plain.norm_sq} is not a perfect square "
                        "in Q(i)(t); only the unnormalized vector is exact")
                    continue
                v = comodule_vector(side, idx, normalized=True)
                # N^2 = (-1)^[(l+i)/2]: -1 at i = l when l = 1 or 3/2 mod 2,
                # and there xi'_i / N = -i xi'_i.
                minus = twoI == twoL and (twoL // 2) % 2 == 1
                assert v.normalized and v.norm_sq == (-ONE if minus else ONE)
                assert v.element == (plain.element.scale(-I_UNIT) if minus else plain.element)


def test_matrix_coefficients_spin_half():
    mat = matrix_coefficients(1, 0)
    assert mat.entry(-1, -1) == gen("a")
    assert mat.entry(-1, 1) == gen("b")
    assert mat.entry(1, -1) == gen("c")
    assert mat.entry(1, 1) == gen("d")


def test_matrix_coefficients_spin_zero():
    assert matrix_coefficients(0, 0).entry(0, 0) == Element.one()
    assert matrix_coefficients(0, 1).entry(0, 0) == gen("sigma")


def test_matrix_entry_weights():
    mat = matrix_coefficients(2, 0)
    for (i, j), e in mat.entries.items():
        if e:
            assert bigrade(e) == (-i, -j)


def test_matrix_bound():
    with pytest.raises(ValueError):
        matrix_coefficients(20, 0)


def test_closed_form_examples():
    # spin 1 center entry: (1 - (1+t^-2) zeta) sigma
    got = closed_form(2, 0, 0)
    expected = (Element.one() - zeta().scale(ONE + T_INV * T_INV)) * gen("sigma")
    assert got == expected
    assert closed_form(1, -1, -1) == gen("a")
    assert closed_form(1, 1, 1) == gen("d")


def test_closed_form_matches_coproduct_route():
    for twoL in range(0, 6):
        for s in (0, 1):
            mat = matrix_coefficients(twoL, s)
            cf = closed_form_matrix(twoL, s)
            for i in mat.indices():
                for j in mat.indices():
                    assert mat.entry(i, j) == cf.entry(i, j), \
                        f"mismatch at twoL={twoL} s={s} ({i},{j})"


def _edited_spin_half(edit):
    mat = matrix_coefficients(1, 0)
    entries = dict(mat.entries)
    edit(entries)
    return repn.CorepMatrix(1, 0, entries, mat.norm_sq)


def test_verify_corep_matrix_fails_on_a_scaled_entry():
    def scale(entries):
        entries[(-1, -1)] = entries[(-1, -1)].scale(T)

    failed = {f["input"] for f in repn.verify_corep_matrix(_edited_spin_half(scale)).failures}
    assert {"corep law (-1,-1)", "counit (-1,-1)", "eta duality i=-1"} <= failed


def test_verify_corep_matrix_fails_on_swapped_entries():
    def swap(entries):
        entries[(-1, 1)], entries[(1, -1)] = entries[(1, -1)], entries[(-1, 1)]

    failed = {f["input"] for f in repn.verify_corep_matrix(_edited_spin_half(swap)).failures}
    assert {"weight (-1,1)", "weight (1,-1)"} <= failed


def test_only_matrix_coefficients_runs_the_corep_check(monkeypatch):
    calls, check = [], repn.verify_corep_matrix
    monkeypatch.setattr(repn, "verify_corep_matrix",
                        lambda mat: calls.append((mat.twoL, mat.s)) or check(mat))
    _cache.clear()
    assert completeness_witness(3, 3).ok
    assert verify_peter_weyl(2).ok
    assert calls == []
    # every call checks, also when the read-off is a memo hit
    matrix_coefficients(2, 1)
    matrix_coefficients(2, 1)
    assert calls == [(2, 1), (2, 1)]


def test_a_wrong_read_off_fails_peter_weyl_and_raises_in_matrix_coefficients(monkeypatch):
    read = repn.comodule_matrix

    def wrong(vectors):
        entries = read(vectors)
        if len(vectors) == 2:   # spin 1/2
            entries[(1, -1)] = entries[(1, -1)].scale(T)
        return entries
    monkeypatch.setattr(repn, "comodule_matrix", wrong)
    _cache.clear()
    try:
        rep = verify_peter_weyl(2)
        assert not rep.ok and any("l=1/2" in f["input"] for f in rep.failures)
        with pytest.raises(AssertionError, match="corepresentation laws failed"):
            matrix_coefficients(1, 0)
    finally:
        _cache.clear()


def test_closed_form_invalid_index():
    with pytest.raises(ValueError):
        closed_form(2, 1, 0)


def test_haar_basic_values():
    assert haar(Element.one()) == ONE
    assert haar(gen("sigma")) == ONE
    assert haar(gen("a")).is_zero()
    assert haar(zeta()) == (ONE - T_INV ** 2) / (ONE - T_INV ** 4)


def test_haar_a_astar():
    x = gen("a") * star(gen("a"))
    assert haar(x) == (ONE + T * T).inv()
    assert inner("R", gen("a"), gen("a")) == (ONE + T * T).inv()


def test_haar_two_routes():
    for n in range(9):
        assert haar_zeta(n) == haar_via_corep_expansion(zeta_power(n)), n
    for n in range(6):
        zs = zeta_power(n) * gen("sigma")
        assert haar(zs) == haar_via_corep_expansion(zs), n


def test_haar_sweep_scaling():
    # Both routes on zeta^n and on zeta^n * sigma for n = 1..16, from empty
    # memo tables: haar's closed form against the corep route's recurrence
    # on every input.
    sig = gen("sigma")
    for with_sigma in (False, True):
        _cache.clear()
        t0 = time.perf_counter()
        for n in range(1, 17):
            x = zeta_power(n) * sig if with_sigma else zeta_power(n)
            assert haar(x) == haar_via_corep_expansion(x), (n, with_sigma)
        took = time.perf_counter() - t0
        assert took < 4.0, f"the N = 16 Haar sweep (sigma: {with_sigma}) took {took:.2f}s"


def test_capped_haar_builds_each_basis_vector_once(monkeypatch):
    # With every table capped at one entry, the corep route on zeta^14 sigma
    # still runs the recurrence once, bottom-up: m^(0)_00..m^(14)_00, never
    # a lower degree again.
    calls = []
    real_closed_form = repn.closed_form

    def counting_closed_form(twoL, twoI, twoJ):
        if (twoI, twoJ) == (0, 0):
            calls.append(twoL // 2)
        return real_closed_form(twoL, twoI, twoJ)

    monkeypatch.setattr(repn, "closed_form", counting_closed_form)
    _cache.clear()
    _cache.set_limit(0)
    try:
        got = haar_via_corep_expansion(zeta_power(14) * gen("sigma"))
    finally:
        _cache.set_limit(None)
    assert got == haar_zeta(14)
    assert sorted(calls) == list(range(15)), calls


def _haar_by_classes(x):
    """Oracle: h as the sum over the zeta-coordinates c zeta^r sigma^u of
    project_00(x) of c h(zeta^r) when u = 0 and c lambda_r when u = 1."""
    out = ZERO
    for (r, u), c in repn._zeta_coordinates(x).items():
        out = out + c * (haar_zeta_sigma(r) if u else haar_zeta(r))
    return out


def test_haar_mono_matches_the_sigma_class_route():
    _cache.clear()
    for r in range(17):
        for u in (0, 1):
            m = (0, r, r, 0, u)
            x = Element.monomial(m, "Asigma")
            expected = _haar_by_classes(x)
            assert repn._haar_mono(m) == expected == haar(x), m
            # the closed form (-1)^(r(r-1)/2) / [r+1]_t
            sign = -ONE if (r * (r - 1) // 2) % 2 else ONE
            assert expected == sign * bracket_t(r + 1).inv(), m
    for m in basis_monomials(6, "Asigma"):
        assert repn._haar_mono(m) == _haar_by_classes(Element.monomial(m, "Asigma")), m
    rng = random.Random(33)
    pool = [ONE, -ONE, T, T_INV, ONE + T * T, Scalar.from_rational(3) * T_INV, I_UNIT]
    for _ in range(50):
        x = Element.zero()
        for _ in range(rng.randint(1, 6)):
            r = rng.randint(0, 10)
            x = x + Element.monomial((0, r, r, 0, rng.randint(0, 1)), "Asigma",
                                     rng.choice(pool))
        assert haar(x) == _haar_by_classes(x), x


def test_haar_and_the_corep_route_split_on_a_lambda_mutant(monkeypatch):
    # lambda_3 + 1: haar reads no lambda, so only the corep route moves
    real = repn.haar_zeta_sigma
    monkeypatch.setattr(repn, "haar_zeta_sigma",
                        lambda n: real(n) + ONE if n == 3 else real(n))
    _cache.clear()
    x = zeta_power(3) * gen("sigma")
    assert haar(x) == haar_zeta(3)
    assert haar(x) != haar_via_corep_expansion(x)


def test_haar_calls_no_closed_form_and_no_lambda(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(repn, name)

        def fn(*args):
            calls.append((name, args))
            return real(*args)
        return fn

    for name in ("closed_form", "haar_zeta_sigma"):
        monkeypatch.setattr(repn, name, counted(name))
    _cache.clear()
    for n in range(9):
        assert haar(zeta_power(n) * gen("sigma")) == haar_zeta(n), n
    assert calls == []


def test_haar_on_zeta_sigma_scales():
    # from empty tables, h(zeta^n sigma) for n = 1..40 is one closed form each
    _cache.clear()
    sig = gen("sigma")
    t0 = time.perf_counter()
    for n in range(1, 41):
        haar(zeta_power(n) * sig)
    took = time.perf_counter() - t0
    assert took < 1.0, f"haar on zeta^n sigma, n = 1..40, took {took:.2f}s"


def test_haar_zeta_sigma_agrees_with_zeta():
    # not assumed anywhere: the closed form h(zeta^n) against the
    # recurrence that derives h(zeta^n sigma)
    for n in range(17):
        assert haar_zeta_sigma(n) == haar_zeta(n), n


def test_sigma_component():
    assert sigma_component(gen("sigma")) == ONE
    assert sigma_component(Element.one()).is_zero()
    assert sigma_component(gen("a")).is_zero()
    # bc = t^-1 zeta sigma has a sigma component 1/(1+t^-2) in the corep basis
    assert sigma_component(gen("b") * gen("c")) == \
        T_INV * (ONE + T_INV * T_INV).inv()


def test_verify_integral_small():
    rep = verify_integral(2)
    assert rep.ok, str(rep)
    assert any("exception" in n for n in rep.notes)


def test_moments_descending_match():
    for r in range(4):
        for s in range(4):
            res = moments(r, s, "descending")
            assert res.matches, (r, s)


def test_moments_ascending_documented_mismatch():
    assert not moments(0, 0, "ascending").matches
    assert not moments(1, 0, "ascending").matches
    assert moments(0, 1, "ascending").matches
    # oracle value at (0,0) is 1, printed formula gives t^-2
    res = moments(0, 0, "ascending")
    assert res.oracle == ONE
    assert res.printed_formula == T_INV * T_INV


def test_moments_report():
    rep = moments_report(3, 3)
    assert rep.ok, str(rep)


def test_inner_products_spin_half():
    a, b = gen("a"), gen("b")
    assert inner("R", Element.one(), Element.one()) == ONE
    assert inner("R", a, b).is_zero()
    assert inner("R", b, b) == (T * T) * (ONE + T * T).inv()
    with pytest.raises(ValueError):
        inner("X", a, a)


def test_peter_weyl_low():
    rep = verify_peter_weyl(2)
    assert rep.ok, str(rep)


def test_weight_norms():
    rep = verify_weight_norms(3)
    assert rep.ok, str(rep)
    assert any("deviates" in n for n in rep.notes)


def test_e02_norm_value():
    # e_02 e_02* = zeta (zeta; t^2)_1 = zeta - zeta^2
    from superq.algebra import e_basis
    e = e_basis(0, 2)
    assert e * star(e) == zeta() - zeta_power(2)


def test_completeness_small():
    rep = completeness_witness(3, 3)
    assert rep.ok, str(rep)


def test_integral_law_verbatim_on_zeta():
    # zeta has no sigma component in the corep basis, so the one-sided law
    # holds without correction: (id ox h)Delta(zeta) = h(zeta) 1
    from superq.hopf import coproduct
    z = zeta()
    assert sigma_component(z).is_zero()
    dz = coproduct(z)
    left = dz.contract(1, lambda mm: haar(Element.monomial(mm, "Asigma"))).to_element()
    right = dz.contract(0, lambda mm: haar(Element.monomial(mm, "Asigma"))).to_element()
    expected = Element.one().scale(haar(z))
    assert left == expected
    assert right == expected


def test_integral_law_on_a_vanishes():
    from superq.hopf import coproduct
    a = gen("a")
    da = coproduct(a)
    left = da.contract(1, lambda mm: haar(Element.monomial(mm, "Asigma"))).to_element()
    assert left.is_zero()
    assert haar(a).is_zero()


def _m00(l, w):
    """zeta-coordinates of m^(l)_00 sigma^w."""
    return repn._zeta_coordinates(closed_form(2 * l, 0, 0) * gen("sigma") ** w)


def _expand_by_solve(x):
    """Oracle: x's coefficients over {m^(l)_00 sigma^w}, keyed (l, w), by
    generic elimination."""
    target = repn._zeta_coordinates(x)
    max_r = max((r for (r, _w) in target), default=0)
    basis = {(l, w): _m00(l, w) for l in range(max_r + 1) for w in (0, 1)}
    unknowns = sorted(basis)
    coords = sorted({c for vec in basis.values() for c in vec} | set(target))
    rows = [{u: basis[u][coord] for u in unknowns if coord in basis[u]}
            for coord in coords]
    rhs = [target.get(coord, ZERO) for coord in coords]
    return linalg.solve(rows, rhs, unknowns)


def _assert_reads_l0(x, expansion):
    """Both corep readers take the l = 0 entries of an oracle expansion."""
    assert haar_via_corep_expansion(x) == expansion[(0, 0)] + expansion[(0, 1)]
    assert sigma_component(x) == expansion[(0, 1)]


@pytest.mark.parametrize("with_sigma", [False, True])
def test_corep_route_matches_generic_solve(with_sigma):
    rng = random.Random(20061)
    for _ in range(8):
        x = _random_m00_target(rng, with_sigma)
        _assert_reads_l0(x, _expand_by_solve(x))


def test_corep_route_builds_each_basis_vector_once(monkeypatch):
    closed_forms = []
    solves = []
    real_closed_form, real_solve = repn.closed_form, linalg.solve

    def counting_closed_form(*args):
        closed_forms.append(args)
        return real_closed_form(*args)

    def counting_solve(*args):
        solves.append(args)
        return real_solve(*args)

    monkeypatch.setattr(repn, "closed_form", counting_closed_form)
    monkeypatch.setattr(linalg, "solve", counting_solve)
    _cache.clear()
    for n in range(1, 7):
        for _ in range(2):
            haar_via_corep_expansion(zeta_power(n) * gen("sigma"))
    assert sorted(closed_forms) == [(2 * l, 0, 0) for l in range(7)]
    assert solves == []


def _expand_by_back_substitution(x):
    """Oracle: x's coefficients over {m^(l)_00 sigma^w}, keyed (l, w), by
    one back-substitution over the whole target from its top degree down."""
    target = repn._zeta_coordinates(x)
    max_r = max((r for (r, _w) in target), default=0)
    rest = dict(target)
    sol = {}
    for l in range(max_r, -1, -1):
        for w in (0, 1):
            vec = _m00(l, w)
            pivot = (l, (l + w) % 2)
            c = rest.get(pivot, ZERO)
            if c:
                c = c / vec[pivot]
                for coord, v in vec.items():
                    add_term(rest, coord, -(c * v))
            sol[(l, w)] = c
    assert not rest
    return dict(sorted(sol.items()))


def _random_m00_target(rng, with_sigma):
    pool = [ONE, -ONE, T, T_INV, ONE + T * T, Scalar.from_rational(3) * T_INV]
    sig = gen("sigma")
    x = Element.zero()
    for r in range(rng.randint(0, 6) + 1):
        if rng.random() < 0.7:
            x = x + zeta_power(r).scale(rng.choice(pool))
        if with_sigma and rng.random() < 0.7:
            x = x + (zeta_power(r) * sig).scale(rng.choice(pool))
    return x


@pytest.mark.parametrize("with_sigma", [False, True])
def test_corep_route_matches_back_substitution(with_sigma):
    rng = random.Random(90061 + with_sigma)
    _cache.clear()
    for _ in range(16):
        x = _random_m00_target(rng, with_sigma)
        _assert_reads_l0(x, _expand_by_back_substitution(x))


def test_unit_coefficient_is_the_l0_entry_of_each_coordinate():
    # zeta^r sigma^u has its l = 0 entry on sigma^u only, and it is
    # lambda_r for both u
    _cache.clear()
    for r in range(7):
        for u in (0, 1):
            x = zeta_power(r) * gen("sigma") ** u
            assert repn._zeta_coordinates(x) == {(r, u): ONE}
            expansion = _expand_by_back_substitution(x)
            assert expansion[(0, 1 - u)].is_zero(), (r, u)
            assert haar_zeta_sigma(r) == expansion[(0, u)], (r, u)


def test_corep_route_stores_each_coefficient_once(monkeypatch):
    stored = []
    real_store = _cache.store

    def counting_store(table, key, value):
        if table is repn._coord_cache:
            stored.append(key)
        real_store(table, key, value)

    monkeypatch.setattr(_cache, "store", counting_store)
    rng = random.Random(7)
    targets = {}
    while len(targets) < 30:
        x = _random_m00_target(rng, True)
        targets.setdefault(str(x), x)
    assert max(r for x in targets.values() for r, _u in repn._zeta_coordinates(x)) == 6
    _cache.clear()
    for x in targets.values():
        haar_via_corep_expansion(x)
        sigma_component(x)
    assert sorted(stored) == [(k,) for k in range(7)]


def test_closed_form_builds_one_jacobi_polynomial_per_m00(monkeypatch):
    calls = []
    real_little_jacobi = repn.little_jacobi

    def counting_little_jacobi(*args):
        calls.append(args[:3])
        return real_little_jacobi(*args)

    monkeypatch.setattr(repn, "little_jacobi", counting_little_jacobi)
    for l in range(7):
        closed_form(2 * l, 0, 0)
    assert calls == [(l, 0, 0) for l in range(7)]
