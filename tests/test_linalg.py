from superq.linalg import (
    membership, nullspace, rank, solve, specialized_rank_certificate,
)
from fractions import Fraction

from superq.scalars import KAPPA, ONE, SQRT_1_PLUS_T2, Scalar, T, T_INV, ZERO


def s(x):
    return Scalar.from_rational(x)


def test_rank_basic():
    rows = [{"x": ONE, "y": T}, {"x": T_INV, "y": ONE}, {"x": s(2), "y": T * s(2)}]
    # row3 = 2*row1; row2 = t^-1 * row1
    assert rank(rows) == 1
    rows.append({"y": ONE, "z": ONE})
    assert rank(rows) == 2


def test_nullspace_solutions_annihilate():
    # x + t y = 0 over unknowns (x, y, z): two free directions
    rows = [{"x": ONE, "y": T}]
    basis = nullspace(rows, ["x", "y", "z"])
    assert len(basis) == 2
    for vec in basis:
        residual = ZERO
        for u, c in vec.items():
            residual = residual + rows[0].get(u, ZERO) * c
        assert residual.is_zero()


def test_solve_exact():
    rows = [{"x": ONE, "y": ONE}, {"x": ONE, "y": -ONE}]
    sol = solve(rows, [T + T_INV, T - T_INV], ["x", "y"])
    assert sol["x"] == T
    assert sol["y"] == T_INV


def test_solve_inconsistent():
    rows = [{"x": ONE}, {"x": ONE}]
    assert solve(rows, [ONE, s(2)], ["x"]) is None


def test_solve_underdetermined_sets_free_to_zero():
    rows = [{"x": ONE, "y": ONE}]
    sol = solve(rows, [T], ["x", "y"])
    total = sol["x"] + sol["y"]
    assert total == T


def test_membership():
    span = [{"x": ONE, "y": ONE}, {"y": ONE, "z": ONE}]
    assert membership(span, {"x": ONE, "z": -ONE})
    assert not membership(span, {"x": ONE})


def test_specialized_rank_certificate():
    rows = [{"x": ONE, "y": T}, {"x": T, "y": T * T}]  # rank 1: no certificate
    assert specialized_rank_certificate(rows) is None
    rows2 = [{"x": ONE, "y": T}, {"x": T, "y": ONE}]   # rank 2 = min(dims)
    assert specialized_rank_certificate(rows2) == 2


def test_rank_certificate_skips_pole_points():
    # Entries with a pole at the first point t = 5/3 fall through to the next.
    pole = (T - s(Fraction(5, 3))).inv()
    rows = [{"x": pole, "y": ONE}, {"x": ONE, "y": T}]
    assert specialized_rank_certificate(rows) == 2
    assert specialized_rank_certificate(rows, [Fraction(5, 3)]) is None


def test_rank_certificate_declines_radical_rows():
    assert specialized_rank_certificate([{"x": ONE}, {"y": KAPPA}]) is None
    assert specialized_rank_certificate([{"x": T * SQRT_1_PLUS_T2, "y": ONE}]) is None
