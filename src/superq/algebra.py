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

Products reduce to _mono_mul, the product of two normal monomials, in
closed form.  Every swap it needs is a sign and a t-power, except d past a.
In B(sigma), d^l a^I = sum_r C_r a^(I-r) b^r c^r d^(l-r) (r <= l, I), C_r
from da = ad - (t^-1 - t) bc, memoised by (l, I); as sigma commutes with a
and d, a^i b^j c^k d^l s^u * a^I b^J c^K d^L s^U is, summed over r,

    C_r (-1)^eps t^p a^(i+I-r) b^(j+J+r) c^(k+K+r) d^(l+L-r) s^(u+U mod 2),
    eps = (u + l - r)(J + K) + J (k + r) + k r,  p = -(j + k)(I - r) - (l - r)(J + K),

as a^(I-r) passes b^j c^k, b^r passes c^k, and b^J c^K pass sigma^u,
d^(l-r) and (b^J only) c^(k+r).  In A(sigma), ad = sigma - t bc and
da = sigma - t^-1 bc; X = bc commutes with sigma, aX = t^2 Xa, dX = t^-2 Xd,
so d^n a^n and a^n d^n are the products over k < n of sigma - t^-+(1+2k) X.
The q-binomial theorem, X^r = (-1)^(r(r-1)/2) b^r c^r and [n r]_(t^2) =
t^(2r(n-r)) [n r], [n r] the Gauss binomial at base t^-2 (gauss_row), give

    d^n a^n = sum_r (-1)^(r(r+1)/2) t^(-r^2) [n r] b^r c^r sigma^(n-r),
    a^n d^n = sum_r (-1)^(r(r+1)/2) t^(r^2 + 2r(n-r)) [n r] b^r c^r sigma^(n-r).

So an A(sigma) product is one sum over r <= n.  Past a, d^l a^I (i = L = 0)
is d^D (d^n a^n) a^A, n = min(l, I), D or A zero; a^A passes b^r c^r b^j c^k,
b^r c^r pass d^D, and the rest is as in B(sigma): (-1)^(eps + r(r+1)/2) t^p
[n r] a^A b^(j+J+r) c^(k+K+r) d^D s^(u+U+n-r), p = -r^2 - D (2r + J + K) -
A (j + k + 2r).  An a beside a d (I = l = 0) is (-1)^((J + K) u + J k) a^i
b^Y c^Z d^L s^(u+U), Y = j + J, Z = k + K; a^n, n = min(i, L), passes b^Y c^Z
to meet d^n and c^Z passes b^r: (-1)^(Z r + r(r+1)/2) t^(n(Y+Z) + r^2 +
2r(n-r)) [n r] a^(i-n) b^(Y+r) c^(Z+r) d^(L-n) s^(u+U+n-r).  Only these
products and d^l a^I are memoised, in _mul_cache: every other is its r = 0
term, one signed_t_power and one monomial, cheaper to redo than to keep.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from . import _cache
from .scalars import ONE, Scalar, T, T_INV, _Combination, _signed_join, signed_t_power, sum_images

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
    operations and the product are _Combination's, with _mono_mul as the
    key product _times."""

    __slots__ = ("ring",)
    _TAG = "ring"
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

    def _times(self, m1, m2):
        return _mono_mul(m1, m2, self.ring)

    def __pow__(self, n: int) -> "Element":
        """self^n by n products with self, not by repeated squaring.

        A product costs about (terms of one side) x (terms of the other),
        and the terms of self^k grow polynomially in k, so squaring's
        large-by-large products cost more than n large-by-small ones.
        From empty memo tables (CPython 3.11) squaring took 2-3x as long:
        25 ms against 9 ms for (a + d)^13, and 67 ms against 31 ms for
        (a + b + c + d)^8.
        """
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


def _mono_str(m: tuple, symbols: str = "abcds") -> str:
    """The product of symbols[k]^m[k] over the nonzero exponents, or 1:
    an A(sigma) monomial, or a plane monomial with symbols "xy"."""
    parts = [sym if e == 1 else f"{sym}^{e}" for sym, e in zip(symbols, m) if e]
    return "*".join(parts) or "1"


# ---------------------------------------------------------------------------
# Monomial multiplication
# ---------------------------------------------------------------------------

_dla_cache: Dict[tuple, tuple] = {}
_mul_cache: Dict[tuple, tuple] = {}
_gauss_cache: Dict[tuple, dict] = {}


@_cache.memo(_gauss_cache)
def gauss_row(n: int) -> Dict[int, Scalar]:
    """{r: [n r]} at base t^-2, the library's one table of Gauss binomials
    (qfun.gauss_binomial's quotient is the independent oracle), by
    [m r] = [m-1 r-1] + t^(-2r) [m-1 r] from row 0 up, storing each lower
    row; none is read back, so no cap recurses."""
    row = {0: ONE}
    for m in range(1, n + 1):
        _cache.store(_gauss_cache, (m - 1,), row)
        row = {r: row[r - 1] + row[r] * Scalar.t_power(-2 * r) if 0 < r < m else ONE
               for r in range(m + 1)}
    return row


def _times_gen(m: Monomial):
    """Right-multiply a B(sigma)-normal monomial by the generator a."""
    i, j, k, l, s = m
    lead = ((i + 1, j, k, l, s), Scalar.t_power(-(j + k)))
    if l == 0:
        return [lead]
    # d^l a = a d^l - (t^-1 - t) [l 1] bc d^(l-1)
    coeff = (T - T_INV) * gauss_row(l)[1]
    return [lead, ((i, j + 1, k + 1, l - 1, s), -coeff if k % 2 else coeff)]


@_cache.memo(_dla_cache)
def _d_power_a_power(l: int, I: int):
    """d^l a^I = sum_r C_r a^(I-r) b^r c^r d^(l-r) in B, as the tuple of
    (r, C_r): d^l times a, I times, each step the linear extension of
    _times_gen."""
    terms = {(0, 0, 0, l, 0): ONE}
    for _ in range(I):
        terms = sum_images(terms.items(), _times_gen)
    return tuple((m[1], c) for m, c in terms.items())


def _mono_mul(m1: Monomial, m2: Monomial, ring: str):
    """Product of two normal monomials as a tuple of (monomial, Scalar):
    the r = 0 term alone, or _mono_mul_tabled's sum when d passes a or,
    in A(sigma), an a meets a d."""
    i, j, k, l, u = m1
    I, J, K, L, U = m2
    if l and I or ring == "Asigma" and i + I and l + L:
        return _mono_mul_tabled(m1, m2, ring)
    JK = J + K
    return (((i + I, j + J, k + K, l + L, (u + U) % 2),
             signed_t_power(JK * (u + l) + J * k, -(j + k) * I - l * JK)),)


@_cache.memo(_mul_cache)
def _mono_mul_tabled(m1: Monomial, m2: Monomial, ring: str):
    """_mono_mul of a product that needs d^l a^I or an [n r] sum, as the
    module docstring sums it."""
    i, j, k, l, u = m1
    I, J, K, L, U = m2
    JK = J + K
    if ring != "Asigma":
        return tuple(((i + I - r, j + J + r, k + K + r, l + L - r, (u + U) % 2),
                      c * signed_t_power(JK * (u + l - r) + J * (k + r) + k * r,
                                         -(j + k) * (I - r) - (l - r) * JK))
                     for r, c in _d_power_a_power(l, I))
    if l and I:     # d^l a^I = d^D (d^n a^n) a^A; i = L = 0
        n = min(l, I)
        D, A = l - n, I - n
        return tuple(((A, j + J + r, k + K + r, D, (u + U + n - r) % 2),
                      signed_t_power(JK * (u + l - r) + J * (k + r) + k * r + r * (r + 1) // 2,
                                     -r * r - D * (2 * r + JK) - A * (j + k + 2 * r)) * c)
                     for r, c in gauss_row(n).items())
    # an a beside a d, I = l = 0: a^n passes b^Y c^Z to meet d^n
    Y, Z, n = j + J, k + K, min(i, L)
    return tuple(((i - n, Y + r, Z + r, L - n, (u + U + n - r) % 2),
                  signed_t_power(JK * u + J * k + Z * r + r * (r + 1) // 2,
                                 (Y + Z) * n + r * r + 2 * r * (n - r)) * c)
                 for r, c in gauss_row(n).items())


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


def _common(values: set, empty):
    """The one value in values, empty when there is none, else MIXED."""
    if len(values) > 1:
        return MIXED
    return values.pop() if values else empty


def parity(x: Element):
    """0 or 1 for homogeneous elements, MIXED otherwise."""
    return _common({mono_parity(m) for m in x.terms}, 0)


def bigrade(x: Element):
    """Common (m, n) bidegree of all terms, or MIXED."""
    return _common({mono_bigrade(m) for m in x.terms}, (0, 0))


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
    return Element.monomial((0, n, n, 0, n % 2), ring, signed_t_power(n * (n - 1) // 2, n))


def basis_monomials(max_degree: int, ring: str = "Asigma") -> Iterable[Monomial]:
    """All normal-form basis monomials of total degree <= max_degree."""
    svals = (0, 1) if ring != "B" else (0,)
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
