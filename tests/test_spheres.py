import pytest

from superq.algebra import Element
from superq.hopf import counit
from superq.scalars import (
    I_UNIT, KAPPA, MINUS_ONE, ONE, SQRT_1_PLUS_T2, SQRT_1_PLUS_TM2, Scalar, T,
    T_INV, ZERO,
)
from superq.spheres import (
    INFINITY, RELATION_KINDS, build_M, canonicalize_alpha, character_analysis,
    character_residuals, characters_of_S_infinity, coaction_matrix, find_relations,
    relation_residual, sphere_basis_check, verify_M, verify_coideal,
    verify_infinity_relations, x_vector,
)


def gen(name):
    return Element.generator(name)


def test_M_entries():
    M = build_M()
    assert M[0][0] == gen("a") * gen("a")
    assert M[0][1] == (gen("a") * gen("b")).scale(SQRT_1_PLUS_TM2)
    assert M[0][2] == (gen("b") * gen("b")).scale(I_UNIT)
    # center entry: ad + t^-1 cb = sigma - (t + t^-1) bc
    center = M[1][1]
    expected = gen("sigma") - (gen("b") * gen("c")).scale(T + T_INV)
    assert center == expected


def test_M_counit_is_identity():
    M = build_M()
    for i in range(3):
        for j in range(3):
            assert counit(M[i][j]) == (ONE if i == j else ZERO)


def test_verify_M_exact():
    rep = verify_M()
    assert rep.ok, str(rep)


def test_verify_M_unitarity_checks_fail_on_a_non_unitary_M(monkeypatch):
    # t*M is not unitary: t*M star(t*M)^T = t^2 I = star(t*M)^T t*M, so
    # both unitarity checks must fail.
    import superq.spheres as spheres
    scaled = [[e.scale(T) for e in row] for row in build_M()]
    monkeypatch.setattr(spheres, "build_M", lambda: scaled)
    failed = {f["input"] for f in verify_M().failures}
    assert {"unitarity M star(M)^T = I", "unitarity star(M)^T M = I"} <= failed


def test_unitarity_is_exact_here(monkeypatch):
    # with the fixed radical normalization both defects, M star(M)^T - I and
    # star(M)^T M - I, vanish symbolically: verify_M's two checks pass
    from superq.report import Report
    seen, check = {}, Report.check

    def recording(self, label, ok, lhs=None, rhs=None):
        seen[label] = ok
        return check(self, label, ok, lhs, rhs)

    monkeypatch.setattr(Report, "check", recording)
    verify_M()
    assert seen["unitarity M star(M)^T = I"] is True
    assert seen["unitarity star(M)^T M = I"] is True


def test_center_coproduct_row_column_form():
    # Delta(center) = (1-q^-1) ac (x) ab + center (x) center + (1-q) db (x) dc
    from superq.hopf import coproduct
    from superq.tensor import Tensor
    M = build_M()
    lhs = coproduct(M[1][1])
    u2 = ONE + T_INV * T_INV      # 1 - q^-1
    u1 = ONE + T * T              # 1 - q
    rhs = Tensor.from_elements([gen("a") * gen("c"), gen("a") * gen("b")]).scale(u2) \
        + Tensor.from_elements([M[1][1], M[1][1]]) \
        + Tensor.from_elements([gen("d") * gen("b"), gen("d") * gen("c")]).scale(u1)
    assert lhs == rhs


def test_x_vector_unit_rows():
    xs = x_vector((ONE, ZERO, ZERO))
    M = build_M()
    assert xs == (M[0][0], M[0][1], M[0][2])
    xs_mid = x_vector((ZERO, ONE, ZERO))
    assert xs_mid == (M[1][0], M[1][1], M[1][2])


def test_x_vector_infinity():
    xm, x0, xp = x_vector(INFINITY)
    assert x0 == gen("sigma") - (gen("b") * gen("c")).scale(T + T_INV)
    assert xm == (gen("a") * gen("c")).scale(KAPPA)


def test_alpha_validation():
    with pytest.raises(ValueError):
        x_vector((ZERO, ZERO, ZERO))
    with pytest.raises(ValueError):
        canonicalize_alpha((ONE, ZERO))
    assert canonicalize_alpha((T, T, ZERO))[0] == ONE


def test_coideal_property():
    assert verify_coideal(INFINITY).ok
    assert verify_coideal((ONE, ZERO, ONE)).ok
    assert verify_coideal((ONE, T, MINUS_ONE)).ok


def test_infinity_coaction_matrix_is_a_twist_of_M():
    # x(infinity)_j = c_j M_1j and N_kj = (c_j / c_k) M_kj; the diagonal
    # a^2, ad + t^-1 cb, d^2 stays and every off-diagonal entry moves, as
    # the note of verify_coideal(INFINITY) reports
    c = (KAPPA / SQRT_1_PLUS_TM2, ONE, KAPPA / (I_UNIT * SQRT_1_PLUS_T2))
    N = coaction_matrix(INFINITY)
    M = build_M()
    assert x_vector(INFINITY) == tuple(M[1][j].scale(c[j]) for j in range(3))
    for k in range(3):
        for j in range(3):
            assert N[k, j] == M[k][j].scale(c[j] / c[k]), (k, j)
    changed = [(k, j) for k in range(3) for j in range(3) if N[k, j] != M[k][j]]
    assert len(changed) == 6, changed


def test_coideal_checks_fail_under_a_scaled_coproduct(monkeypatch):
    # with Delta scaled by 2, Delta(x_j) = 2 sum_k x_k (x) N_kj: a matrix read
    # back off the coproducts would absorb the 2, the stated twist does not,
    # so all three coideal checks fail (and so do all nine corep laws)
    import superq.hopf as hopf
    import superq.spheres as spheres
    coproduct, two = hopf.coproduct, Scalar.from_rational(2)

    def scaled(x):
        return coproduct(x).scale(two)

    monkeypatch.setattr(hopf, "coproduct", scaled)
    monkeypatch.setattr(spheres, "coproduct", scaled)
    failed = {f["input"] for f in verify_coideal(INFINITY).failures}
    assert {f"coideal x[{j}]" for j in range(3)} <= failed
    assert {f"corep law ({i},{j})" for i in range(3) for j in range(3)} <= failed


def test_infinity_relations():
    rep = verify_infinity_relations()
    assert rep.ok, str(rep)


def test_infinity_relation_witnesses():
    for kind in RELATION_KINDS:
        w = find_relations(INFINITY, kind)
        assert w.exists, kind
        full = w.full_witness()
        assert full is not None
        assert relation_residual(INFINITY, kind, full).is_zero()
        for v in w.witnesses:
            assert relation_residual(INFINITY, kind, v).is_zero()


def test_infinity_unit_relation_coefficients():
    # the engine-derived unit relation: x0^2 + (1+q^-1) xm xp - (1+q) xp xm = 1
    w = find_relations(INFINITY, "mixed")
    qinv = Scalar.q_power(-1)
    q = Scalar.q_power(1)
    target = {"c4": ONE + qinv, "c5": -(ONE + q), "c6": ONE,
              "b2": ZERO, "b3": ONE}
    assert relation_residual(INFINITY, "mixed", target).is_zero()
    # and the sigma relation: x0^2 + xm xp - xp xm = sigma x0
    target2 = {"c4": ONE, "c5": MINUS_ONE, "c6": ONE, "b2": ONE, "b3": ZERO}
    assert relation_residual(INFINITY, "mixed", target2).is_zero()


def test_alpha0_zero_has_no_full_mixing_relation():
    alpha = (ONE, ZERO, ONE)
    w = find_relations(alpha, "lower")
    assert not w.exists          # "none exists" in the all-nonzero sense
    assert w.full_witness() is None
    w7 = find_relations(alpha, "upper")
    assert not w7.exists


def test_finite_alpha_with_nonzero_center_has_relations():
    alpha = (ZERO, ONE, ZERO)
    for kind in RELATION_KINDS:
        w = find_relations(alpha, kind)
        assert w.exists, kind
        full = w.full_witness()
        assert relation_residual(alpha, kind, full).is_zero()


def test_sphere_basis_independence():
    assert sphere_basis_check(INFINITY, 2).ok
    rep = sphere_basis_check(INFINITY, 3)
    assert rep.ok, str(rep)


def test_degree_zero_basis():
    # only 1 and sigma at degree zero: independent
    rep = sphere_basis_check(INFINITY, 0)
    assert rep.ok


def test_characters():
    chars = characters_of_S_infinity()
    assert len(chars) == 2
    assert (ZERO, ONE, ZERO) in chars
    assert (ZERO, MINUS_ONE, ZERO) in chars


def test_character_residuals_use_the_verified_relations():
    # The unit relation x0^2 + (1+q^-1) x-1 x1 - (1+q) x1 x-1 = 1 reads
    # y0^2 + (q^-1 - q) y-1 y1 = 1 on scalars: it holds at y0 = 0,
    # y-1 = 1, y1 = 1/(q^-1 - q), where the printed coefficients
    # (q^-1(1+q^-1), -(1+q^-1)) leave q^-1 - 1.
    q, qinv = Scalar.q_power(1), Scalar.q_power(-1)
    ym, yp = ONE, ONE / (qinv - q)
    sigma_rel, unit_rel, _, _ = character_residuals(ym, ZERO, yp, ONE)
    assert unit_rel.is_zero()
    assert sigma_rel.is_zero()
    assert character_residuals(ONE, ZERO, ONE, ONE)[1] == qinv - q - ONE
    for y0 in (ONE, MINUS_ONE):
        assert not any(character_residuals(ZERO, y0, ZERO, y0))


def test_character_obstruction():
    analysis = character_analysis()
    # y_1 != 0 would force y_0 = +-(1+q)/(1-q); both branch residuals
    # must be nonzero in the field
    for r in analysis.obstruction_residuals:
        assert not r.is_zero()
    q = Scalar.q_power(1)
    assert analysis.obstruction_residuals[0] == (ONE + q) / (ONE - q)
