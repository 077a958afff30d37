"""Normal forms and multiplication in the graded algebras B, B(sigma), A(sigma).

Generators a, b, c, d (parities 0,1,1,0) satisfy

    ab = t ba,   ac = t ca,   bc = -cb,
    bd = -t db,  cd = -t dc,  ad - da = (t^-1 - t) bc,

B(sigma) adds the even involution sigma with sigma b = -b sigma,
sigma c = -c sigma, sigma{a,d} central, sigma^2 = 1, and A(sigma) is the
quotient by ad + t bc = sigma.

Normal form: monomials a^i b^j c^k d^l sigma^s, ordered a < b < c < d < sigma,
with i = 0 or l = 0 in A(sigma).  Elements are finite Scalar-linear
combinations of normal monomials; equality of elements is equality of
these canonical expansions.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from . import _cache
from .scalars import MINUS_ONE, ONE, Scalar, T, T_INV, ZERO, _Combination, _signed_join, add_term

Monomial = Tuple[int, int, int, int, int]   # exponents of a, b, c, d, sigma

RINGS = ("B", "Bsigma", "Asigma")
MIXED = "mixed"

_GENS = ("a", "b", "c", "d", "sigma")


class RingMismatchError(ValueError):
    pass


def mono_degree(m: Monomial) -> int:
    return m[0] + m[1] + m[2] + m[3]


def mono_parity(m: Monomial) -> int:
    return (m[1] + m[2]) % 2


def mono_bigrade(m: Monomial) -> Tuple[int, int]:
    i, j, k, l, _ = m
    return (i + j - k - l, i - j + k - l)


def _check_ring(ring: str):
    if ring not in RINGS:
        raise ValueError(f"unknown ring {ring!r}")


class Element(_Combination):
    """Zero-free linear combination of normal-form monomials over Scalars.
    The constructor checks the ring and drops zeros; the vector-space
    operations are _Combination's."""

    __slots__ = ("ring",)
    _TAG = ("ring",)
    _MISMATCH = RingMismatchError

    def __init__(self, ring: str, terms: Optional[Dict[Monomial, Scalar]] = None):
        _check_ring(ring)
        self.ring = ring
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(ring: str = "Asigma") -> "Element":
        return Element(ring)

    @staticmethod
    def one(ring: str = "Asigma") -> "Element":
        return Element(ring, {(0, 0, 0, 0, 0): ONE})

    @staticmethod
    def scalar(c: Scalar, ring: str = "Asigma") -> "Element":
        return Element(ring, {(0, 0, 0, 0, 0): c})

    @staticmethod
    def monomial(m: Monomial, ring: str = "Asigma", coeff: Scalar = ONE) -> "Element":
        if ring == "B" and m[4]:
            raise ValueError("sigma does not live in ring B")
        if ring == "Asigma" and m[0] and m[3]:
            raise ValueError(f"{m} is not an A(sigma) basis monomial (need i=0 or l=0)")
        return Element(ring, {m: coeff})

    @staticmethod
    def generator(name: str, ring: str = "Asigma") -> "Element":
        if name not in _GENS:
            raise ValueError(f"unknown generator {name!r}")
        if name == "sigma" and ring == "B":
            raise ValueError("sigma does not live in ring B")
        idx = _GENS.index(name)
        m = [0, 0, 0, 0, 0]
        m[idx] = 1
        return Element(ring, {tuple(m): ONE})

    # -- structure ----------------------------------------------------------

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms))))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.__rmul__(other)     # scalars commute
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        out: Dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                for m, c in _mono_mul(m1, m2, self.ring):
                    add_term(out, m, c12 * c)
        return self._like(out)

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("negative powers are not defined in the algebra")
        out = Element.one(self.ring)
        for _ in range(n):
            out = out * self
        return out

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for m in sorted(self.terms, key=lambda m: (mono_degree(m),) + m):
            c = self.terms[m]
            mono = _mono_str(m)
            cs = str(c)
            if mono == "1":
                piece = cs if _is_atomic(cs) else f"({cs})"
            elif cs == "1":
                piece = mono
            elif cs == "-1":
                piece = f"-{mono}"
            else:
                piece = f"{cs}*{mono}" if _is_atomic(cs) else f"({cs})*{mono}"
            pieces.append(piece)
        return _signed_join(pieces)

    def __repr__(self):
        return f"Element[{self.ring}]<{self}>"

    def to_json(self):
        return {
            "ring": self.ring,
            "terms": [
                {"powers": list(m), "coeff": self.terms[m].to_json()}
                for m in sorted(self.terms, key=lambda m: (mono_degree(m),) + m)
            ],
        }


def _is_atomic(s: str) -> bool:
    body = s[1:] if s.startswith("-") else s
    return not any(ch in body for ch in " +-/*")


def _mono_str(m: Monomial) -> str:
    if not any(m):
        return "1"
    parts = []
    for name, e in zip(_GENS, m):
        if not e:
            continue
        sym = "s" if name == "sigma" else name
        parts.append(sym if e == 1 else f"{sym}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# Monomial multiplication
# ---------------------------------------------------------------------------

_geom_cache: Dict[tuple, Scalar] = {}
_neg_tinv_pow_cache: Dict[tuple, Scalar] = {}
_mul_cache: Dict[tuple, list] = {}
_reduce_cache: Dict[tuple, list] = {}


@_cache.memo(_geom_cache)
def _geom_t2inv(l: int) -> Scalar:
    # 1 + t^-2 + ... + t^-2(l-1)
    out = ZERO
    for r in range(l):
        out = out + Scalar.t_power(-2 * r)
    return out


@_cache.memo(_neg_tinv_pow_cache)
def _neg_tinv_pow(l: int) -> Scalar:
    return (MINUS_ONE * T_INV) ** l


def _times_gen(m: Monomial, g: str):
    """Right-multiply a B(sigma)-normal monomial by one generator."""
    i, j, k, l, s = m
    if g == "a":
        lead = ((i + 1, j, k, l, s), Scalar.t_power(-(j + k)))
        if l == 0:
            return [lead]
        # d^l a = a d^l - (t^-1 - t) (1 + ... + t^-2(l-1)) bc d^(l-1)
        coeff = (T_INV - T) * _geom_t2inv(l)
        if k % 2:
            coeff = -coeff
        return [lead, ((i, j + 1, k + 1, l - 1, s), -coeff)]
    if g == "b":
        # b moves left past sigma^s, d^l and c^k: (-1)^s (-t^-1)^l (-1)^k
        coeff = _neg_tinv_pow(l)
        return [((i, j + 1, k, l, s), -coeff if (s + k) % 2 else coeff)]
    if g == "c":
        # c moves left past sigma^s and d^l: (-1)^s (-t^-1)^l
        coeff = _neg_tinv_pow(l)
        return [((i, j, k + 1, l, s), -coeff if s else coeff)]
    if g == "d":
        return [((i, j, k, l + 1, s), ONE)]
    if g == "sigma":
        return [((i, j, k, l, 1 - s), ONE)]
    raise ValueError(f"unknown generator {g!r}")


def _reduce_ad(m: Monomial):
    """Rewrite coexisting a and d via ad = sigma - t bc (A(sigma) only)."""
    if m[0] == 0 or m[3] == 0:
        return [(m, ONE)]
    return _reduce_ad_both(m)


@_cache.memo(_reduce_cache)
def _reduce_ad_both(m: Monomial):
    i, j, k, l, s = m
    # a^i b^j c^k d^l = t^(j+k) [ a^(i-1) b^j c^k d^(l-1) sigma
    #                             - (-1)^k t a^(i-1) b^(j+1) c^(k+1) d^(l-1) ]
    # Equal monomials from the two branches are merged, so a^n d^n gives
    # n + 1 terms, not 2^n.
    tf = Scalar.t_power(j + k)
    out: Dict[Monomial, Scalar] = {}
    for mm, cc in _reduce_ad((i - 1, j, k, l - 1, 1 - s)):
        add_term(out, mm, cc * tf)
    c2 = tf * T
    if k % 2 == 0:
        c2 = -c2
    for mm, cc in _reduce_ad((i - 1, j + 1, k + 1, l - 1, s)):
        add_term(out, mm, cc * c2)
    return list(out.items())


@_cache.memo(_mul_cache)
def _mono_mul(m1: Monomial, m2: Monomial, ring: str):
    """Product of two normal monomials as a list of (monomial, Scalar)."""
    terms = {m1: ONE}
    i, j, k, l, s = m2
    for g, e in (("a", i), ("b", j), ("c", k), ("d", l), ("sigma", s)):
        for _ in range(e):
            nxt: Dict[Monomial, Scalar] = {}
            for m, c in terms.items():
                for mm, cc in _times_gen(m, g):
                    add_term(nxt, mm, c * cc)
            terms = nxt
    if ring == "Asigma":
        red: Dict[Monomial, Scalar] = {}
        for m, c in terms.items():
            for mm, cc in _reduce_ad(m):
                add_term(red, mm, c * cc)
        terms = red
    return list(terms.items())


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def normal_form(word: Sequence[str], ring: str = "Asigma",
                coeff: Scalar = ONE) -> Element:
    """Normal form of a product of generators (empty word gives 1)."""
    _check_ring(ring)
    out = Element.scalar(coeff, ring)
    for g in word:
        name = "sigma" if g in ("s", "sigma") else g
        out = out * Element.generator(name, ring)
    return out


def multiply(x: Element, y: Element) -> Element:
    return x * y


def parity(x: Element):
    """0 or 1 for homogeneous elements, MIXED otherwise."""
    ps = {mono_parity(m) for m in x.terms}
    if not ps:
        return 0
    if len(ps) > 1:
        return MIXED
    return ps.pop()


def bigrade(x: Element):
    """Common (m, n) bidegree of all terms, or MIXED."""
    gs = {mono_bigrade(m) for m in x.terms}
    if not gs:
        return (0, 0)
    if len(gs) > 1:
        return MIXED
    return gs.pop()


def e_basis(m: int, n: int, ring: str = "Asigma") -> Element:
    """Basis element e_{mn} of the (m, n) weight space, for m = n mod 2."""
    if (m - n) % 2:
        raise ValueError(f"weight space ({m},{n}) is zero: need m = n (mod 2)")
    if m + n >= 0 and m <= n:
        mono = ((m + n) // 2, 0, (n - m) // 2, 0, 0)
    elif m + n >= 0 and m >= n:
        mono = ((m + n) // 2, (m - n) // 2, 0, 0, 0)
    elif m + n <= 0 and m >= n:
        mono = (0, (m - n) // 2, 0, (-n - m) // 2, 0)
    else:
        mono = (0, 0, (n - m) // 2, (-n - m) // 2, 0)
    return Element.monomial(mono, ring)


def project_00(x: Element) -> Element:
    """Projection onto the (0,0) weight space along the weight decomposition."""
    return Element(x.ring, {m: c for m, c in x.terms.items()
                            if mono_bigrade(m) == (0, 0)})


def zeta(ring: str = "Asigma") -> Element:
    """The central-in-A[0,0] element zeta = t*b*c*sigma."""
    return Element.monomial((0, 1, 1, 0, 1), ring, T)


def zeta_power(n: int, ring: str = "Asigma") -> Element:
    """zeta^n = (-1)^(n(n-1)/2) t^n b^n c^n sigma^(n mod 2) in closed form."""
    coeff = Scalar.t_power(n)
    if (n * (n - 1) // 2) % 2:
        coeff = -coeff
    return Element.monomial((0, n, n, 0, n % 2), ring, coeff)


def basis_monomials(max_degree: int, ring: str = "Asigma",
                    include_sigma: bool = True) -> Iterable[Monomial]:
    """All normal-form basis monomials of total degree <= max_degree."""
    svals = (0, 1) if (include_sigma and ring != "B") else (0,)
    for d in range(max_degree + 1):
        for i in range(d + 1):
            for j in range(d - i + 1):
                for k in range(d - i - j + 1):
                    l = d - i - j - k
                    if ring == "Asigma" and i and l:
                        continue
                    for s in svals:
                        yield (i, j, k, l, s)


def random_monomial(rng, max_degree: int, ring: str = "Asigma") -> Monomial:
    while True:
        exps = [rng.randint(0, max_degree) for _ in range(4)]
        if sum(exps) > max_degree:
            continue
        if ring == "Asigma" and exps[0] and exps[3]:
            exps[rng.choice([0, 3])] = 0
        s = rng.randint(0, 1) if ring != "B" else 0
        return (exps[0], exps[1], exps[2], exps[3], s)
