import random

from superq.linalg import (
    nullspace, rank, rref, solve, specialized_rank_certificate,
)

from superq import dual, linalg, scalars, spheres
from superq.scalars import (
    KAPPA, ONE, SQRT_1_PLUS_T2, Scalar, T, T_INV, ZERO, add_term,
)


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


def test_specialized_rank_certificate():
    rows = [{"x": ONE, "y": T}, {"x": T, "y": T * T}]  # rank 1: no certificate
    assert specialized_rank_certificate(rows) is None
    rows2 = [{"x": ONE, "y": T}, {"x": T, "y": ONE}]   # rank 2 = min(dims)
    assert specialized_rank_certificate(rows2) == 2


R1 = SQRT_1_PLUS_T2
_MASKS = (ONE, R1, KAPPA, R1 * KAPPA)


def test_rank_certificate_certifies_radical_rows():
    assert specialized_rank_certificate([{"x": ONE}, {"y": KAPPA}]) == 2
    assert specialized_rank_certificate([{"x": T * R1, "y": ONE}]) == 1
    mixed = [{"x": R1 * KAPPA, "y": ONE + KAPPA}, {"x": T, "y": R1 + T_INV * R1 * KAPPA},
             {"y": KAPPA * T, "z": R1}]
    assert specialized_rank_certificate(mixed) == 3 == len(rref(mixed)[0])


def _counting_rref(monkeypatch):
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(len(rows)) or real(rows))
    return calls


def test_rank_certificate_declines_a_pole_and_rank_eliminates(monkeypatch):
    pole = (T - s(scalars.T_P)).inv()
    rows = [{"x": pole, "y": ONE}, {"x": ONE, "y": T}]
    assert specialized_rank_certificate(rows) is None
    calls = _counting_rref(monkeypatch)
    assert rank(rows) == 2 and calls == [2]


def test_rank_certificate_declines_rank_deficient_rows(monkeypatch):
    calls = _counting_rref(monkeypatch)
    for rows, rk in (([{"x": ONE, "y": T}, {"x": T, "y": T * T}], 1),
                     ([{"x": KAPPA, "y": R1}, {"x": KAPPA * T, "y": R1 * T}, {"z": ONE}], 2),
                     ([{"x": R1 * KAPPA, "y": ONE}, {"x": (ONE + T * T) * KAPPA, "y": R1}], 1)):
        assert specialized_rank_certificate(rows) is None
        assert rank(rows) == rk
    assert len(calls) == 3


def test_rank_certificate_mod_a_small_prime_declines_never_misreports(monkeypatch):
    # 13 = 1 (mod 4) and 5^2 = -1 (mod 13); at t = 5 both radicands are 0,
    # the square of 0, so these constants define a ring map as well.
    small = {"PRIME": 13, "I_P": 5, "T_P": 5, "R1_P": 0, "KAPPA_P": 0}
    for name, value in small.items():
        monkeypatch.setattr(scalars, name, value)
    p, i, t, r1, k = 13, 5, 5, 0, 0
    assert (i * i + 1) % p == (r1 * r1 - 1 - t * t) % p == 0
    assert (k * k * (t * t - 1) - t * t - 1) % p == 0
    assert specialized_rank_certificate([{"x": ONE}, {"y": T}]) == 2
    # full rank over the field, singular mod 13
    for rows in ([{"x": ONE, "y": T}, {"x": ONE, "y": s(5)}],
                 [{"x": ONE}, {"y": s(13)}],
                 [{"x": ONE, "y": ONE}, {"x": R1}],
                 [{"x": KAPPA * T, "y": ONE}, {"x": KAPPA, "y": s(8)}]):
        assert len(rref(rows)[0]) == len(rows)
        assert specialized_rank_certificate(rows) is None
        assert rank(rows) == len(rows)


def _laurent(rng):
    out = ZERO
    for _ in range(rng.randint(1, 2)):
        out = out + (Scalar.from_gauss(rng.randint(-3, 3), rng.randint(-1, 1))
                     * Scalar.t_power(rng.randint(-2, 2)))
    return out


def test_rank_matches_rref_on_sparse_radical_rows():
    # Each row carries one radical mask; a row added in the span of two
    # others mixes theirs.
    rng = random.Random(38)
    certified = declined = 0
    for _ in range(80):
        cols = range(rng.randint(1, 4))
        rows = []
        for _ in range(rng.randint(1, 4)):
            mask = rng.choice(_MASKS)
            rows.append({c: _laurent(rng) * mask
                         for c in rng.sample(cols, rng.randint(0, len(cols)))})
        if rng.random() < 0.6:
            extra = {}
            for row in rng.sample(rows, min(2, len(rows))):
                c = _laurent(rng)
                for k, v in row.items():
                    add_term(extra, k, c * v)
            rows.append(extra)
        rows = [{k: v for k, v in row.items() if v} for row in rows]
        want = len(rref(rows)[0])
        assert rank(rows) == want
        nonzero = [r for r in rows if r]
        full = want == min(len(nonzero), len(set().union(*nonzero)))
        assert specialized_rank_certificate(rows) == (want if full else None)
        certified += full
        declined += not full
    assert certified >= 10 and declined >= 10


def test_sphere_basis_checks_are_certified_and_pairing_notes_kept(monkeypatch):
    calls = _counting_rref(monkeypatch)
    assert spheres.sphere_basis_check(spheres.INFINITY, 8).notes == ["162 monomials, rank 162"]
    at_111 = (ONE, ONE, ONE)
    assert spheres.sphere_basis_check(at_111, 4).notes == ["50 monomials, rank 50"]
    assert dual.pairing_gram_rank(2, 4).notes == [
        "rank certified by exact rational specialization",
        "matrix 45 x 110, rank 45, zero rows 0"]
    assert calls == []


# Pinned outputs of solve/rref: the pivot rule (shortest row first, then
# the smallest column key among real unknowns) and the dict order of the
# results.  Recorded before solve was moved onto rref's elimination loop.

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

