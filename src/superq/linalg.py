"""Exact linear algebra over the scalar field.

Rows are sparse dicts {column key: Scalar}.  One Gaussian elimination
loop with exact division, rref, serves nullspace, solve and rank, which
runs it only when specialized_rank_certificate, an elimination of the
rows' image in F_PRIME (Scalar.mod_p), declines.

The certificate is a proof.  Up to squares, the radicands 1 + t^2 and
(t^2 + 1)/(t^2 - 1) and their product are t^2 + 1, t^4 - 1 and t^2 - 1,
none a square in Q(i)(t), so the four radical masks are a basis of
K = Q(i)(t)(R1, KAPPA).  Let L hold the n/d, n and d in Z[i][t], with
d(T_P) != 0 at i = I_P mod PRIME: n/d -> n(T_P)/d(T_P) is a ring map
L -> F_PRIME (n/d = n'/d' gives n d' = n' d).  R1^2 and KAPPA^2 lie in L
(T_P^2 != 1) with images R1_P^2 and KAPPA_P^2, so R1 -> R1_P and
KAPPA -> KAPPA_P extend it to a ring map phi on the L-span of the masks,
a subring of K.  Scalar.mod_p is phi, and raises ScalarPoleError off its
domain.  A nonzero r x r minor of the image is phi of the same minor of
the rows, which is then nonzero, and r = min(#nonzero rows, #columns)
bounds the rank.  Chance enters only in how rarely a point hides a full
rank (Schwartz 1980, Zippel 1979; von zur Gathen-Gerhard, Modern
Computer Algebra, ch. 5); then, or at a pole, the certificate gives None.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from . import scalars
from .scalars import ONE, Scalar, ScalarPoleError, ZERO, add_term

Row = Dict[Hashable, Scalar]


def _eliminate(target: Row, pivot_row: Row, col) -> Row:
    """target minus the multiple of the monic pivot_row that clears col."""
    factor = target.get(col)
    if not factor:
        return target
    out = dict(target)
    for c, v in pivot_row.items():
        add_term(out, c, -(factor * v))
    return out


# Augmented column: solve stores -b in it.  It is never chosen as a pivot.
_RHS = ("#rhs#",)


def rref(rows: Sequence[Row]) -> Optional[Tuple[List[Row], List[Hashable]]]:
    """Reduced row echelon form; returns (rows without zero rows, pivot cols).

    The pivot goes to the shortest row first, then to its smallest column
    by _col_key.  Returns None when a row reduces to the augmented column
    _RHS alone, i.e. to 0 = b with b nonzero; rows without _RHS never do.
    """
    work = [dict(r) for r in rows if r]
    done: List[Row] = []
    pivots: List[Hashable] = []
    while work:
        # prefer short rows for sparsity
        work.sort(key=len)
        row = work.pop(0)
        col = min((c for c in row if c != _RHS), key=_col_key, default=_RHS)
        if col == _RHS:
            return None
        inv = row[col].inv()
        row = {c: v * inv for c, v in row.items()}
        done = [_eliminate(r, row, col) for r in done]
        work = [r for r in (_eliminate(r, row, col) for r in work) if r]
        done.append(row)
        pivots.append(col)
    return done, pivots


def _col_key(c):
    return (repr(type(c)), repr(c))


def rank(rows: Sequence[Row]) -> int:
    cert = specialized_rank_certificate(rows)
    return len(rref(rows)[0]) if cert is None else cert


def nullspace(rows: Sequence[Row], unknowns: Sequence[Hashable]) -> List[Dict]:
    """Basis of the solution space of (rows) . u = 0 over the given unknowns.

    Each returned vector maps unknown -> Scalar, normalized so its leading
    free unknown has coefficient 1 (reduced echelon parametrization).
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [u for u in unknowns if u not in pivot_set]
    basis = []
    for f in free:
        vec = {f: ONE}
        for row, p in zip(reduced, pivots):
            coeff = row.get(f)
            if coeff:
                vec[p] = -coeff
        basis.append(vec)
    return basis


def solve(rows: Sequence[Row], rhs: Sequence[Scalar],
          unknowns: Sequence[Hashable]) -> Optional[Dict]:
    """One exact solution of rows . u = rhs, or None if inconsistent.

    Free unknowns are set to zero.
    """
    reduced = rref([{**row, _RHS: -b} if b else row for row, b in zip(rows, rhs)])
    if reduced is None:
        return None
    # free unknowns are set to zero, so u_p = -(augmented coefficient)
    sol = {p: -row.get(_RHS, ZERO) for row, p in zip(*reduced)}
    return {u: sol.get(u, ZERO) for u in unknowns}


def specialized_rank_certificate(rows: Sequence[Row]) -> Optional[int]:
    """min(#nonzero rows, #columns) when the rows' image in F_PRIME has that
    rank, which proves it (module docstring); else None, also at a pole.  An
    image row is reduced at its smallest column until that has no pivot."""
    p, index, pivots = scalars.PRIME, {}, {}
    try:
        images = [{index.setdefault(c, len(index)): v.mod_p() for c, v in r.items()}
                  for r in rows if r]
    except ScalarPoleError:
        return None
    for row in images:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivots[col].items():
                row[c] = (row.get(c, 0) - f * v) % p
            row = {c: v for c, v in row.items() if v}
    return len(pivots) if len(pivots) == min(len(images), len(index)) else None
