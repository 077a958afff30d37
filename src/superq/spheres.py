"""Quantum super 2-spheres: the 3x3 corepresentation matrix M, the
generator triples x(alpha) and x(infinity), quadratic-relation solving,
and the character computation separating the infinity sphere.

The matrix M (rows and columns indexed -1, 0, 1):

    [ a^2                sqrt(1-q^-1) ab    i b^2              ]
    [ sqrt(1-q^-1) ac    ad + t^-1 cb       i sqrt(1-q) db     ]
    [ i c^2              -i sqrt(1-q) dc    d^2                ]

with sqrt(1-q^-1) = sqrt(1+t^-2) and sqrt(1-q) = sqrt(1+t^2) from the
fixed radical list.  For alpha in C^3 \\ 0, x(alpha) = alpha . M; the
infinity triple is (kappa ac, ad + t^-1 cb, kappa db) with the formal
radical kappa^2 = (t+t^-1)/(t-t^-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import linalg
from .algebra import Element
from .hopf import antipode, coproduct, counit, star
from .report import Report
from .scalars import (
    I_UNIT, KAPPA, MINUS_ONE, ONE, SQRT_1_PLUS_T2, SQRT_1_PLUS_TM2, Scalar,
    T_INV, ZERO, add_term,
)
from .tensor import AlgSlot, Tensor

INFINITY = "infinity"

SphereParams = Union[str, Tuple[Scalar, Scalar, Scalar]]

RELATION_KINDS = ("unit", "mixed", "lower", "upper")


def _gen(name: str) -> Element:
    return Element.generator(name, "Asigma")


def build_M() -> List[List[Element]]:
    a, b, c, d, s = (_gen(x) for x in ("a", "b", "c", "d", "sigma"))
    r_minus = SQRT_1_PLUS_TM2          # sqrt(1 - q^-1)
    r_plus = SQRT_1_PLUS_T2            # sqrt(1 - q)
    return [
        [a * a, (a * b).scale(r_minus), (b * b).scale(I_UNIT)],
        [(a * c).scale(r_minus), a * d + (c * b).scale(T_INV),
         (d * b).scale(I_UNIT * r_plus)],
        [(c * c).scale(I_UNIT), (d * c).scale(-(I_UNIT * r_plus)), d * d],
    ]


def verify_M(q_samples: Sequence = (-0.5, -2.0)) -> Report:
    """Delta(M) = M ox M, eps(M) = I, S(M) = star(M)^T symbolically; the
    unitarity M star(M)^T = I is certified numerically at the q samples."""
    rep = Report()
    M = build_M()
    slots = (AlgSlot("Asigma"), AlgSlot("Asigma"))
    for i in range(3):
        for j in range(3):
            lhs = coproduct(M[i][j])
            rhs = Tensor(slots)
            for k in range(3):
                rhs = rhs + Tensor.from_elements([M[i][k], M[k][j]])
            rep.check(f"Delta(M)[{i}][{j}]", lhs == rhs, lhs, rhs)
            eps = counit(M[i][j])
            expected = ONE if i == j else ZERO
            rep.check(f"eps(M)[{i}][{j}]", eps == expected, eps, expected)
            sm = antipode(M[i][j])
            stm = star(M[j][i])
            rep.check(f"S(M) = star(M)^T [{i}][{j}]", sm == stm, sm, stm)
    residual = unitarity_defect()
    for q in q_samples:
        worst = 0.0
        for entry in residual:
            for coeff in entry.terms.values():
                worst = max(worst, abs(coeff.eval_numeric(q)))
        rep.check(f"numeric unitarity at q={q}", worst < 1e-9, worst, "< 1e-9")
    return rep


def unitarity_defect() -> List[Element]:
    """Entries of M star(M)^T - I, flattened."""
    M = build_M()
    out = []
    for i in range(3):
        for j in range(3):
            acc = Element.zero("Asigma")
            for k in range(3):
                acc = acc + M[i][k] * star(M[j][k])
            if i == j:
                acc = acc - Element.one("Asigma")
            out.append(acc)
    return out


def canonicalize_alpha(alpha: Sequence[Scalar]) -> Tuple[Scalar, Scalar, Scalar]:
    """Projective normalization: first nonzero coordinate scaled to 1."""
    vals = tuple(alpha)
    if len(vals) != 3:
        raise ValueError("alpha must have three coordinates")
    for v in vals:
        if v:
            inv = v.inv()
            return tuple(x * inv for x in vals)  # type: ignore[return-value]
    raise ValueError("alpha must be nonzero")


def x_vector(p: SphereParams) -> Tuple[Element, Element, Element]:
    """The generator triple of the sphere: alpha . M, or the infinity triple."""
    if p == INFINITY:
        ac = _gen("a") * _gen("c")
        db = _gen("d") * _gen("b")
        center = _gen("a") * _gen("d") + (_gen("c") * _gen("b")).scale(T_INV)
        return (ac.scale(KAPPA), center, db.scale(KAPPA))
    alpha = canonicalize_alpha(p)  # also validates nonzero
    M = build_M()
    out = []
    for j in range(3):
        acc = Element.zero("Asigma")
        for i in range(3):
            acc = acc + M[i][j].scale(alpha[i])
        out.append(acc)
    return tuple(out)  # type: ignore[return-value]


def coaction_matrix(p: SphereParams) -> List[List[Element]]:
    """The matrix N with Delta(x_j) = sum_k x_k ox N[k][j].

    For finite alpha this is M itself.  For the infinity triple the
    kappa-homogeneity of x(infinity) forces the kappa-diagonal twist
    N[k][j] = (D_j / D_k) M~[k][j] with D = diag(kappa, 1, kappa); the
    entries are extracted exactly from the coproduct (the three left
    factors have disjoint monomial supports) and N is itself a unital
    corepresentation matrix.
    """
    if p != INFINITY:
        return build_M()
    xs = x_vector(INFINITY)
    supports = [set(x.terms) for x in xs]
    N = [[Element.zero("Asigma") for _ in range(3)] for _ in range(3)]
    for j in range(3):
        dx = coproduct(xs[j])
        rows: Dict[int, Dict] = {0: {}, 1: {}, 2: {}}
        for (ml, mr), coeff in dx.terms.items():
            k = next(i for i, sup in enumerate(supports) if ml in sup)
            scale = coeff / xs[k].terms[ml]
            prev = rows[k].get((ml, mr))
            rows[k][(ml, mr)] = scale
        for k in range(3):
            per_mono: Dict = {}
            candidates = {}
            for (ml, mr), scale in rows[k].items():
                acc = candidates.setdefault(ml, {})
                acc[mr] = scale
            entries = list(candidates.values())
            for other in entries[1:]:
                if other != entries[0]:
                    raise AssertionError(
                        f"inconsistent coaction extraction at x[{j}], row {k}")
            if entries:
                N[k][j] = Element("Asigma", entries[0])
    return N


def verify_coideal(p: SphereParams) -> Report:
    """Delta(x_j) = sum_k x_k ox N[k][j]: the triple spans a right coideal.

    For finite alpha, N is the sphere matrix M verbatim.  At infinity the
    printed uniform statement fails on kappa-homogeneity grounds and N is
    the kappa-diagonal twist of M; the verifier checks the twisted matrix
    and that it is again a unital corepresentation.
    """
    rep = Report()
    xs = x_vector(p)
    N = coaction_matrix(p)
    slots = (AlgSlot("Asigma"), AlgSlot("Asigma"))
    for j in range(3):
        lhs = coproduct(xs[j])
        rhs = Tensor(slots)
        for k in range(3):
            rhs = rhs + Tensor.from_elements([xs[k], N[k][j]])
        rep.check(f"coideal x[{j}]", lhs == rhs, lhs, rhs)
    for i in range(3):
        for j in range(3):
            lhs = coproduct(N[i][j])
            rhs = Tensor(slots)
            for k in range(3):
                rhs = rhs + Tensor.from_elements([N[i][k], N[k][j]])
            rep.check(f"coaction matrix corep [{i}][{j}]", lhs == rhs, lhs, rhs)
            eps = counit(N[i][j])
            expected = ONE if i == j else ZERO
            rep.check(f"coaction matrix counit [{i}][{j}]",
                      eps == expected, eps, expected)
    if p == INFINITY:
        M = build_M()
        twisted = sum(1 for i in range(3) for j in range(3)
                      if N[i][j] != M[i][j])
        rep.note(f"infinity coaction matrix deviates from M in {twisted} "
                 "entries (kappa-diagonal twist); the uniform printed "
                 "statement fails on kappa-homogeneity grounds")
    return rep


@dataclass
class RelationWitness:
    """Solutions of one relation shape.

    witnesses is the reduced nullspace basis; the relation 'exists' in the
    all-coefficients-nonzero sense of the classification lemma iff some
    combination of the basis has no zero coordinate (equivalently, every
    unknown is nonzero somewhere in the basis, the field being infinite).
    """

    kind: str
    unknowns: Tuple[str, ...]
    witnesses: List[Dict[str, Scalar]]

    @property
    def exists(self) -> bool:
        return self.full_witness() is not None

    def full_witness(self) -> Optional[Dict[str, Scalar]]:
        """A witness with every coefficient nonzero, or None."""
        if not self.witnesses:
            return None
        for u in self.unknowns:
            if not any(v.get(u, ZERO) for v in self.witnesses):
                return None
        for attempt in range(1, 50):
            combo: Dict[str, Scalar] = {}
            for idx, v in enumerate(self.witnesses):
                w = Scalar.from_rational(attempt ** idx)
                for u, c in v.items():
                    add_term(combo, u, w * c)
            if all(combo.get(u, ZERO) for u in self.unknowns):
                return combo
        return None


def _relation_terms(p: SphereParams, kind: str):
    xm, x0, xp = x_vector(p)
    sig = _gen("sigma")
    one = Element.one("Asigma")
    if kind == "unit":
        # c1 xm xp + c2 xp xm + c3 x0^2 = b1
        return (("c1", xm * xp), ("c2", xp * xm), ("c3", x0 * x0),
                ("b1", -one))
    if kind == "mixed":
        # c4 xm xp + c5 xp xm + c6 x0^2 = b2 sigma x0 + b3
        return (("c4", xm * xp), ("c5", xp * xm), ("c6", x0 * x0),
                ("b2", -(sig * x0)), ("b3", -one))
    if kind == "lower":
        # m1 xm x0 + m2 x0 xm = m3 sigma xm
        return (("m1", xm * x0), ("m2", x0 * xm), ("m3", -(sig * xm)))
    if kind == "upper":
        # n1 xp x0 + n2 x0 xp = n3 sigma xp
        return (("n1", xp * x0), ("n2", x0 * xp), ("n3", -(sig * xp)))
    raise ValueError(f"unknown relation kind {kind!r}")


def find_relations(p: SphereParams, kind: str) -> RelationWitness:
    """All solutions of the candidate quadratic relation, as the reduced
    nullspace basis of the exact linear system over the scalar field.

    An empty witness list means no nontrivial relation of that shape
    exists for this parameter.
    """
    terms = _relation_terms(p, kind)
    unknowns = tuple(name for name, _ in terms)
    monos = sorted({m for _, el in terms for m in el.terms})
    rows = []
    for mono in monos:
        row = {name: el.terms[mono] for name, el in terms if mono in el.terms}
        if row:
            rows.append(row)
    basis = linalg.nullspace(rows, unknowns)
    return RelationWitness(kind, unknowns, basis)


def relation_residual(p: SphereParams, kind: str,
                      coeffs: Dict[str, Scalar]) -> Element:
    """Substitute coefficients back into the relation; zero iff a witness."""
    terms = _relation_terms(p, kind)
    acc = Element.zero("Asigma")
    for name, el in terms:
        c = coeffs.get(name, ZERO)
        if c:
            acc = acc + el.scale(c)
    return acc


def verify_infinity_relations() -> Report:
    """The four quadratic relations of the infinity sphere, exactly.

    The last two hold as printed:

        q x0 x-1 - x-1 x0 = (1+q) sigma x-1
        x0 x1 - q x1 x0 = (1+q) sigma x1

    For the first two, what the normal-form engine proves (hand-checkable
    through zeta = t bc sigma) is

        x0^2 + x-1 x1 - x1 x-1 = sigma x0
        x0^2 + (1+q^-1) x-1 x1 - (1+q) x1 x-1 = 1

    whereas the printed displays carry (-1, +1) and
    (q^-1(1+q^-1), -(1+q^-1)) on the middle pair: each display is off by
    one overall factor (-1 resp. q^-1) on that pair, and no rescaling of
    the generators repairs both at once.  The engine asserts the true
    relations and reproduces both printed deviations.
    """
    rep = Report()
    xm, x0, xp = x_vector(INFINITY)
    sig = _gen("sigma")
    one = Element.one("Asigma")
    q = Scalar.q_power(1)
    qinv = Scalar.q_power(-1)
    checks = [
        ("sigma relation (printed display has the middle pair negated)",
         x0 * x0 + xm * xp - xp * xm, sig * x0),
        ("unit relation (printed display has the middle pair scaled by q^-1)",
         x0 * x0 + (xm * xp).scale(ONE + qinv) - (xp * xm).scale(ONE + q), one),
        ("lower commutation", (x0 * xm).scale(q) - xm * x0,
         (sig * xm).scale(ONE + q)),
        ("upper commutation", x0 * xp - (xp * x0).scale(q),
         (sig * xp).scale(ONE + q)),
    ]
    for name, lhs, rhs in checks:
        rep.check(name, lhs == rhs, lhs, rhs)
    printed_49 = x0 * x0 - xm * xp + xp * xm
    rep.check("printed sigma-relation deviation reproduced",
              printed_49 != sig * x0, printed_49, sig * x0)
    printed_410 = x0 * x0 + (xm * xp).scale(qinv * (ONE + qinv)) \
        - (xp * xm).scale(ONE + qinv)
    rep.check("printed unit-relation deviation reproduced",
              printed_410 != one, printed_410, one)
    rep.note("printed displays for the sigma and unit relations deviate by "
             "a single factor on the x-1 x1 / x1 x-1 pair (-1 and q^-1); "
             "verified relations are the engine-derived ones")
    return rep


def sphere_basis_check(p: SphereParams, max_degree: int) -> Report:
    """Linear independence inside the ambient algebra of the monomials
    x0^m x-1^n s^u (n >= 0) and x0^m x1^n s^u (n >= 1), m + n <= max_degree."""
    rep = Report()
    xm, x0, xp = x_vector(p)
    sig = _gen("sigma")
    vectors = []
    labels = []
    for m in range(max_degree + 1):
        x0m = x0 ** m
        for n in range(max_degree + 1 - m):
            fam = [x0m * (xm ** n)]
            tags = [f"x0^{m} xm^{n}"]
            if n >= 1:
                fam.append(x0m * (xp ** n))
                tags.append(f"x0^{m} xp^{n}")
            for el, tag in zip(fam, tags):
                for u in (0, 1):
                    v = el * sig if u else el
                    vectors.append(v)
                    labels.append(f"{tag} s^{u}")
    rows = [dict(v.terms) for v in vectors]
    rk = linalg.rank(rows)
    rep.note(f"{len(vectors)} monomials, rank {rk}")
    rep.check(f"sphere monomials independent to degree {max_degree}",
              rk == len(vectors), rk, len(vectors))
    return rep


# ---------------------------------------------------------------------------
# Characters of the infinity sphere
# ---------------------------------------------------------------------------

@dataclass
class CharacterAnalysis:
    characters: List[Tuple[Scalar, Scalar, Scalar]]
    # residuals whose nonvanishing kills the y_{+-1} != 0 branches
    obstruction_residuals: List[Scalar]


def characters_of_S_infinity() -> List[Tuple[Scalar, Scalar, Scalar]]:
    return character_analysis().characters


def character_analysis() -> CharacterAnalysis:
    """Solve the constraints a character places on (y_-1, y_0, y_1).

    Writing w for the character value on sigma (w^2 = 1): if y_1 != 0 the
    upper commutation relation gives (1-q) y_0 = (1+q) w, while the sigma
    relation forces y_0^2 = w y_0; both branches then pin q to a root of
    unity, impossible for transcendental t, so y_1 = 0 and symmetrically
    y_-1 = 0.  The unit relation then reads y_0^2 = 1 and the sigma
    relation fixes w = y_0; the characters are exactly (0, 1, 0) and
    (0, -1, 0).
    """
    q = Scalar.q_power(1)
    one = ONE
    # Branch y_1 != 0: y_0 = w (1+q)/(1-q) with w = +-1; the sigma relation
    # gives y_0^2 = w y_0, i.e. y_0 (y_0 - w) = 0.  y_0 = 0 forces q = -1;
    # y_0 = w forces (1+q)/(1-q) = 1, i.e. q = 0.  Both residuals must be
    # nonzero in the field:
    residuals = []
    y0_branch = (one + q) / (one - q)
    residuals.append(y0_branch)              # y_0 = 0 would need (1+q) = 0
    residuals.append(y0_branch - one)        # y_0 = w would need q = 0
    for r in residuals:
        if r.is_zero():
            raise ArithmeticError("character obstruction degenerates; "
                                  "q would have to be a root of unity")
    # With y_{+-1} = 0 the unit relation gives y_0^2 = 1.
    chars = [(ZERO, ONE, ZERO), (ZERO, MINUS_ONE, ZERO)]
    # Each candidate must satisfy all four relations with w = y_0.
    for (ym, y0, yp) in chars:
        w = y0
        checks = [
            y0 * y0 - ym * yp + yp * ym - w * y0,
            y0 * y0 + Scalar.q_power(-1) * (one + Scalar.q_power(-1)) * ym * yp
            - (one + Scalar.q_power(-1)) * yp * ym - one,
            q * y0 * ym - ym * y0 - (one + q) * w * ym,
            y0 * yp - q * yp * y0 - (one + q) * w * yp,
        ]
        for val in checks:
            if not val.is_zero():
                raise ArithmeticError(f"candidate character {ym, y0, yp} fails")
    return CharacterAnalysis(chars, residuals)
