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


# Pinned outputs of solve/rref/membership: the pivot rule (shortest row
# first, then the smallest column key among real unknowns) and the dict
# order of the results.  Recorded before solve and membership were moved
# onto rref's elimination loop.

def _items(d):
    return [(k, str(v)) for k, v in d.items()]


def test_solve_tuple_unknowns_pinned():
    # Tuple unknowns as in the Haar m00 expansion; the augmented column
    # ("#rhs#",) sorts before them and must never be chosen as a pivot.
    rows = [{(0, 0): ONE, (0, 1): T, (1, 0): ONE},
            {(0, 1): ONE, (1, 1): T_INV},
            {(1, 0): T, (1, 1): ONE},
            {(0, 0): s(2), (1, 1): T}]
    sol = solve(rows, [T, ONE, ZERO, s(3)], [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert _items(sol) == [((0, 0), "(3*t + 3)/(t^2 + 2*t + 2)"),
                           ((0, 1), "(t^2 + 2*t - 1)/(t^2 + 2*t + 2)"),
                           ((1, 0), "(-3)/(t^2 + 2*t + 2)"),
                           ((1, 1), "3*t/(t^2 + 2*t + 2)")]
    sol = solve([{(1, 0): ONE, (0, 1): T}], [T], [(0, 0), (0, 1), (1, 0)])
    assert _items(sol) == [((0, 0), "0"), ((0, 1), "1"), ((1, 0), "0")]


def test_solve_underdetermined_pinned():
    sol = solve([{"y": ONE, "x": ONE, "z": T}, {"z": ONE, "w": T_INV}],
                [T, ONE], ["w", "x", "y", "z"])
    assert _items(sol) == [("w", "t"), ("x", "t"), ("y", "0"), ("z", "0")]
    sol = solve([{}, {"x": T}], [ZERO, ONE], ["x", "y"])
    assert _items(sol) == [("x", "1/t"), ("y", "0")]


def test_solve_inconsistent_pinned():
    rows = [{"x": ONE, "y": ONE}, {"y": ONE, "z": T}, {"x": ONE, "z": -T}]
    assert solve(rows, [ONE, ONE, ONE], ["x", "y", "z"]) is None
    assert _items(solve(rows, [ONE, ONE, ZERO], ["x", "y", "z"])) == [
        ("x", "0"), ("y", "1"), ("z", "0")]
    assert solve([{(0, 0): ONE}, {(0, 0): T}], [ONE, ONE], [(0, 0)]) is None
    assert solve([{}, {"x": ONE}], [ONE, ONE], ["x"]) is None


def test_rref_and_nullspace_pinned():
    from superq.linalg import rref
    red, piv = rref([{"b": ONE, "a": T}, {"a": ONE, "c": ONE},
                     {"b": ONE, "a": T + ONE, "c": ONE}])
    assert piv == ["a", "b"]
    assert [_items(r) for r in red] == [[("a", "1"), ("c", "1")],
                                        [("c", "-t"), ("b", "1")]]
    basis = nullspace([{"b": ONE, "a": T}, {"a": ONE, "c": ONE}], ["a", "b", "c", "d"])
    assert [_items(v) for v in basis] == [[("c", "1"), ("a", "-1"), ("b", "t")],
                                          [("d", "1")]]


def test_membership_pinned():
    assert membership([{"x": ONE, "y": T}], {"x": T_INV, "y": ONE})
    assert not membership([{"x": ONE, "y": T}], {"x": ONE, "y": ONE})
    assert membership([], {})
    assert not membership([], {"x": ONE})
