"""Exact linear algebra over the scalar field.

Rows are sparse dicts {column key: Scalar}.  One Gaussian elimination
loop with exact division, rref, serves rank, nullspace, solve and the
specialised rank certificate (whose GaussRat rows it reduces just
as well); no pivoting heuristics beyond sparsity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

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
    return len(rref(rows)[0])


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


# ---------------------------------------------------------------------------
# Certified fast rank via exact specialization
# ---------------------------------------------------------------------------

# The values of t tried in turn; a pole of an entry at one skips it.
_T_POINTS = (Fraction(5, 3), Fraction(7, 2), Fraction(11, 4))


def specialized_rank_certificate(rows: Sequence[Row]) -> Optional[int]:
    """Try to certify full rank by exact substitution t = rational.

    The rank of a specialization never exceeds the rank over Q(i)(t), so if
    a specialization reaches min(#rows, #cols) the symbolic rank equals it.
    Returns that rank, or None when the certificate does not apply (then use
    the symbolic path).  Only valid for radical-free entries: a row with a
    radical-bearing entry gives None.
    """
    rows = [r for r in rows if r]
    if not rows:
        return 0
    if not all(v.is_rational_function() for r in rows for v in r.values()):
        return None
    cols = set()
    for r in rows:
        cols.update(r)
    target = min(len(rows), len(cols))
    for t0 in _T_POINTS:
        try:
            num_rows = [{c: v.specialize_t(t0) for c, v in r.items()} for r in rows]
        except ScalarPoleError:
            continue
        # rref pivots on any entry it finds, so the zeros must go
        r = rank([{c: x for c, x in row.items() if x} for row in num_rows])
        if r == target:
            return r
    return None
