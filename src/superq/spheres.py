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

from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import linalg
from .algebra import Element
from .hopf import antipode, coproduct, corep_report, star, tensor_sum
from .report import Report
from .scalars import (
    I_UNIT, KAPPA, MINUS_ONE, ONE, SQRT_1_PLUS_T2, SQRT_1_PLUS_TM2, Scalar,
    T_INV, ZERO, add_term,
)

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


def verify_M() -> Report:
    """Delta(M) = M ox M, eps(M) = I, S(M) = star(M)^T and the unitarity
    M star(M)^T = I = star(M)^T M, all exactly."""
    M = build_M()
    rep = corep_report(_entries(M), range(3))
    for i in range(3):
        for j in range(3):
            sm = antipode(M[i][j])
            stm = star(M[j][i])
            rep.check(f"S(M) = star(M)^T [{i}][{j}]", sm == stm, sm, stm)
    adjoint = _star_transpose(M)
    for label, x, y in (("M star(M)^T", M, adjoint), ("star(M)^T M", adjoint, M)):
        defect = [e for e in _minus_identity(x, y) if e]
        rep.check(f"unitarity {label} = I", not defect, defect[0] if defect else 0, 0)
    return rep


def _entries(M: List[List[Element]]) -> Dict[Tuple[int, int], Element]:
    return {(i, j): M[i][j] for i in range(3) for j in range(3)}


def _star_transpose(M: List[List[Element]]) -> List[List[Element]]:
    return [[star(M[j][i]) for j in range(3)] for i in range(3)]


def _minus_identity(x: List[List[Element]], y: List[List[Element]]) -> List[Element]:
    """Entries of x y - I, flattened."""
    out = []
    for i in range(3):
        for j in range(3):
            acc = Element.zero("Asigma")
            for k in range(3):
                acc = acc + x[i][k] * y[k][j]
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


def coaction_matrix(p: SphereParams) -> Dict[Tuple[int, int], Element]:
    """{(k, j): N_kj} with Delta(x_j) = sum_k x_k ox N_kj, k, j in 0..2.

    For finite alpha this is M itself.  The infinity triple is
    x_j = c_j M_1j with c = (kappa / sqrt(1+t^-2), 1, kappa / (i sqrt(1+t^2))),
    so Delta(x_j) = c_j sum_k M_1k ox M_kj = sum_k x_k ox (c_j / c_k) M_kj:
    N_kj = (c_j / c_k) M_kj, a diagonal twist of M stated here, not read
    off the coproducts that verify_coideal compares.
    """
    M = _entries(build_M())
    if p != INFINITY:
        return M
    c = (KAPPA / SQRT_1_PLUS_TM2, ONE, KAPPA / (I_UNIT * SQRT_1_PLUS_T2))
    c_inv = [x.inv() for x in c]
    return {(k, j): e.scale(c[j] * c_inv[k]) for (k, j), e in M.items()}


def verify_coideal(p: SphereParams) -> Report:
    """Delta(x_j) = sum_k x_k ox N_kj: the triple spans a right coideal.

    For finite alpha, N is the sphere matrix M verbatim.  At infinity the
    printed uniform statement fails on kappa-homogeneity grounds and N is
    the twist N_kj = (c_j / c_k) M_kj of M, with x_j = c_j M_1j and
    c = (kappa / sqrt(1+t^-2), 1, kappa / (i sqrt(1+t^2))) (coaction_matrix);
    the verifier checks the twisted matrix and that it is again a unital
    corepresentation.
    """
    rep = Report()
    xs = x_vector(p)
    N = coaction_matrix(p)
    for j in range(3):
        lhs = coproduct(xs[j])
        rhs = tensor_sum((xs[k], N[k, j]) for k in range(3))
        rep.check(f"coideal x[{j}]", lhs == rhs, lhs, rhs)
    rep.merge(corep_report(N, range(3)))
    if p == INFINITY:
        twisted = sum(1 for k, e in _entries(build_M()).items() if N[k] != e)
        rep.note(f"infinity coaction matrix deviates from M in {twisted} "
                 "entries (kappa-diagonal twist); the uniform printed "
                 "statement fails on kappa-homogeneity grounds")
    return rep


class RelationWitness:
    """Solutions of one relation shape.

    witnesses is the reduced nullspace basis; the relation 'exists' in the
    all-coefficients-nonzero sense of the classification lemma iff some
    combination of the basis has no zero coordinate (equivalently, every
    unknown is nonzero somewhere in the basis, the field being infinite).
    """

    __slots__ = ("kind", "unknowns", "witnesses")

    def __init__(self, kind: str, unknowns: Tuple[str, ...],
                 witnesses: List[Dict[str, Scalar]]):
        self.kind = kind
        self.unknowns = unknowns
        self.witnesses = witnesses

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


def relations_report(p: SphereParams) -> Report:
    """The quadratic relations of the sphere at p: the infinity sphere's
    four relations, or for each kind in RELATION_KINDS a note with its
    witness (or that none exists) and the exact residual of each witness."""
    if p == INFINITY:
        return verify_infinity_relations()
    rep = Report()
    for kind in RELATION_KINDS:
        w = find_relations(p, kind)
        rep.note(f"kind {kind}: " + (
            "none exists" if not w.exists else
            str({k: str(v) for k, v in w.full_witness().items()})))
        for vec in w.witnesses:
            res = relation_residual(p, kind, vec)
            rep.check(f"witness residual {kind}", res.is_zero(), res, 0)
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

class CharacterAnalysis:
    __slots__ = ("characters", "obstruction_residuals")

    def __init__(self, characters: List[Tuple[Scalar, Scalar, Scalar]],
                 obstruction_residuals: List[Scalar]):
        self.characters = characters
        # residuals whose nonvanishing kills the y_{+-1} != 0 branches
        self.obstruction_residuals = obstruction_residuals


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
        if any(character_residuals(ym, y0, yp, y0)):
            raise ArithmeticError(f"candidate character {ym, y0, yp} fails")
    return CharacterAnalysis(chars, residuals)


def character_residuals(ym: Scalar, y0: Scalar, yp: Scalar, w: Scalar) -> List[Scalar]:
    """lhs - rhs of the four relations of verify_infinity_relations (sigma,
    unit, lower and upper commutation) at x_-1, x_0, x_1, sigma -> ym, y0,
    yp, w: all four vanish at a character."""
    q = Scalar.q_power(1)
    return [
        y0 * y0 + ym * yp - yp * ym - w * y0,
        y0 * y0 + (ONE + Scalar.q_power(-1)) * ym * yp - (ONE + q) * yp * ym - ONE,
        q * y0 * ym - ym * y0 - (ONE + q) * w * ym,
        y0 * yp - q * yp * y0 - (ONE + q) * w * yp,
    ]
