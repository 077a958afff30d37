"""The dual algebra generated by k, k^-1, e, f.

Functionals are Scalar-linear combinations of words over the letters
'k', 'K' (= k^-1), 'e', 'f'.  Words act on algebra elements through the
convolution product

    (fg)(x) = (f ox g)(Delta x),
    (f ox g)(x ox y) = (-1)^(p(x)p(g)) f(x) g(y),

with the single letters given on normal monomials by

    k^(+-1):  algebra morphisms, a -> t^(+-1), d -> -t^(-+1), b,c -> 0,
              sigma -> -1;
    e:        e(uv) = e(u) eps(v) + (-1)^p(u) k(u) e(v),   e(b) = value,
              e(a) = e(c) = e(d) = e(sigma) = 0;
    f:        f(uv) = f(u) k^-1(v) + (-1)^p(u) eps(u) f(v), f(c) = 1,
              f(a) = f(b) = f(d) = f(sigma) = 0.

The printed generator value for e is (t - t^-1)/(q - q^-1); a global sign
on e(b) is calibrated once so that ef + fe = (k - k^-1)/(q - q^-1) holds
under the evaluation-sign convention above (the two printed conventions
disagree by exactly this sign; see calibrate_e_sign).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import _cache, linalg
from .algebra import Element, Monomial, basis_monomials, mono_parity
from .hopf import _delta_mono, antipode, counit
from .report import Report
from .scalars import MINUS_ONE, ONE, Scalar, T, T_INV, ZERO, add_term

Word = Tuple[str, ...]

LETTERS = ("k", "K", "e", "f")
_LETTER_PARITY = {"k": 0, "K": 0, "e": 1, "f": 1}

# e(b) as printed, before sign calibration: (t - t^-1)/(q - q^-1).
_E_VALUE_PRINTED = (T - T_INV) / (Scalar.q_power(1) - Scalar.q_power(-1))

_e_sign_cache: Optional[int] = None


def word_parity(word: Word) -> int:
    return sum(_LETTER_PARITY[g] for g in word) % 2


class Functional:
    """Scalar-linear combination of words in k, K, e, f."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Word, Scalar] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @staticmethod
    def word(*letters: str, coeff: Scalar = ONE) -> "Functional":
        for g in letters:
            if g not in LETTERS:
                raise ValueError(f"unknown letter {g!r}")
        return Functional({tuple(letters): coeff})

    @staticmethod
    def counit() -> "Functional":
        return Functional({(): ONE})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, c)
        return Functional(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Functional({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Functional({w: c * other for w, c in self.terms.items()})
        out: Dict[Word, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                add_term(out, w, c1 * c2)
        return Functional(out)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.__mul__(other)
        return NotImplemented

    def __call__(self, x: Element, e_sign: Optional[int] = None) -> Scalar:
        return eval_functional(self, x, e_sign)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            ws = "*".join(("k^-1" if g == "K" else g) for g in w) or "eps"
            c = str(self.terms[w])
            bits.append(ws if c == "1" else f"({c})*{ws}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def e_sign() -> int:
    """The calibrated global sign for e(b) (computed once, then fixed)."""
    global _e_sign_cache
    if _e_sign_cache is None:
        _e_sign_cache = calibrate_e_sign_value()
    return _e_sign_cache


def _letter_value(g: str, m: Monomial, es: int) -> Scalar:
    i, j, k, l, s = m
    if g in ("k", "K"):
        if j or k:
            return ZERO
        pm = 1 if g == "k" else -1
        out = Scalar.t_power(pm * i)
        if l:
            out = out * (MINUS_ONE * Scalar.t_power(-pm)) ** l
        if s:
            out = -out
        return out
    if g == "e":
        # nonzero only on a^i b d^l sigma^s (derivation property), value t^i e(b)
        if j == 1 and k == 0:
            val = Scalar.t_power(i) * _E_VALUE_PRINTED
            return -val if es < 0 else val
        return ZERO
    if g == "f":
        # nonzero only on a^i c d^l sigma^s, value f(c) k^-1(d)^l k^-1(sigma)^s
        if j == 0 and k == 1:
            out = (MINUS_ONE * T) ** l if l else ONE
            if s:
                out = -out
            return out
        return ZERO
    raise ValueError(f"unknown letter {g!r}")


_eval_cache: Dict[tuple, Scalar] = {}


def _eval_word_mono(word: Word, m: Monomial, ring: str, es: int) -> Scalar:
    if not word:
        return counit(Element.monomial(m, ring))
    if len(word) == 1:
        return _letter_value(word[0], m, es)
    from . import algebra
    key = (word, m, ring, es, algebra.SIGMA_COMM_SIGN)
    cached = _eval_cache.get(key)
    if cached is not None:
        return cached
    head, rest = word[0], word[1:]
    rest_par = word_parity(rest)
    total = ZERO
    for (m1, m2), coeff in _delta_mono(m, ring).items():
        v1 = _letter_value(head, m1, es)
        if not v1:
            continue
        v2 = _eval_word_mono(rest, m2, ring, es)
        if not v2:
            continue
        piece = coeff * v1 * v2
        if rest_par and mono_parity(m1):
            piece = -piece
        total = total + piece
    _cache.trim(_eval_cache)
    _eval_cache[key] = total
    return total


def eval_functional(phi: Functional, x: Element,
                    e_sign_override: Optional[int] = None) -> Scalar:
    """Evaluate a functional against an algebra element."""
    es = e_sign_override if e_sign_override is not None else e_sign()
    out = ZERO
    for w, cw in phi.terms.items():
        for m, cm in x.terms.items():
            v = _eval_word_mono(w, m, x.ring, es)
            if v:
                out = out + cw * cm * v
    return out


# ---------------------------------------------------------------------------
# Calibration and relation checking
# ---------------------------------------------------------------------------

def _casimir_rhs() -> Functional:
    """(k - k^-1)/(q - q^-1) as a functional."""
    inv = (Scalar.q_power(1) - Scalar.q_power(-1)).inv()
    return Functional({("k",): inv, ("K",): -inv})


def calibrate_e_sign_value() -> int:
    """Solve (ef + fe)(a) = ((k - k^-1)/(q - q^-1))(a) for the e sign.

    With the evaluation-sign convention and the printed generator values the
    left side at x = a is -e(b), while the right side is +e(b)-printed, so
    the calibration lands on -1.  Both signs are tried; failure of both
    would mean the conventions are inconsistent beyond one sign.
    """
    a = Element.generator("a")
    target = eval_functional(_casimir_rhs(), a, e_sign_override=1)
    for sign in (1, -1):
        lhs = eval_functional(Functional.word("e", "f") + Functional.word("f", "e"),
                              a, e_sign_override=sign)
        if lhs == target:
            return sign
    raise ArithmeticError("no sign of e(b) satisfies the Casimir relation at a")


def calibrate_e_sign() -> Scalar:
    """Spec surface: the calibrated sign as a scalar."""
    return Scalar.from_rational(e_sign())


def verify_uq_relations(max_degree: int,
                        e_sign_override: Optional[int] = None) -> Report:
    """Defining relations of the dual algebra, checked pointwise on all
    basis monomials of degree <= max_degree (both sigma components)."""
    q = Scalar.q_power(1)
    qinv = Scalar.q_power(-1)
    eps = Functional.counit()
    relations = [
        ("k k^-1 = eps", Functional.word("k", "K"), eps),
        ("k^-1 k = eps", Functional.word("K", "k"), eps),
        ("k e k^-1 = q e", Functional.word("k", "e", "K"), Functional.word("e") * q),
        ("k f k^-1 = q^-1 f", Functional.word("k", "f", "K"), Functional.word("f") * qinv),
        ("ef + fe = (k - k^-1)/(q - q^-1)",
         Functional.word("e", "f") + Functional.word("f", "e"), _casimir_rhs()),
    ]
    rep = Report()
    for m in basis_monomials(max_degree, "Asigma"):
        x = Element.monomial(m, "Asigma")
        for name, lhs, rhs in relations:
            lv = eval_functional(lhs, x, e_sign_override)
            rv = eval_functional(rhs, x, e_sign_override)
            rep.check(f"{name} at {m}", lv == rv, lv, rv)
    return rep


def verify_dual_hopf(samples: int = 40, rng_seed: int = 1,
                     max_degree: int = 3) -> Report:
    """Coproduct/antipode/counit of the dual generators against the algebra.

    Delta(k) = k ox k, Delta(e) = e ox 1 + k ox e, Delta(f) = f ox k^-1 + 1 ox f
    are checked through Delta(phi)(x ox y) = phi(xy); S(k) = k^-1,
    S(e) = -k^-1 e, S(f) = -f k are checked through S(phi)(x) = phi(S(x));
    eps(phi) = phi(1).
    """
    import random
    rng = random.Random(rng_seed)
    rep = Report()
    eps = ()
    delta_tables = {
        "k": [(ONE, ("k",), ("k",))],
        "K": [(ONE, ("K",), ("K",))],
        "e": [(ONE, ("e",), eps), (ONE, ("k",), ("e",))],
        "f": [(ONE, ("f",), ("K",)), (ONE, eps, ("f",))],
    }
    s_tables = {
        "k": Functional.word("K"),
        "K": Functional.word("k"),
        "e": -Functional.word("K", "e"),
        "f": -Functional.word("f", "k"),
    }
    monos = list(basis_monomials(max_degree, "Asigma"))
    pairs = [(rng.choice(monos), rng.choice(monos)) for _ in range(samples)]
    pairs.extend([((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),   # (a, b)
                  ((1, 0, 0, 0, 0), (1, 0, 0, 0, 0))])  # (a, a)
    for g, table in delta_tables.items():
        for m1, m2 in pairs:
            x = Element.monomial(m1, "Asigma")
            y = Element.monomial(m2, "Asigma")
            lhs = eval_functional(Functional.word(g), x * y)
            rhs = ZERO
            for coeff, wl, wr in table:
                piece = coeff * _eval_word_mono(wl, m1, "Asigma", e_sign()) \
                    * _eval_word_mono(wr, m2, "Asigma", e_sign())
                if word_parity(wr) and mono_parity(m1):
                    piece = -piece
                rhs = rhs + piece
            rep.check(f"Delta({g}) at ({m1},{m2})", lhs == rhs, lhs, rhs)
    for g, sphi in s_tables.items():
        for m in monos:
            x = Element.monomial(m, "Asigma")
            lhs = eval_functional(sphi, x)
            rhs = eval_functional(Functional.word(g), antipode(x))
            rep.check(f"S({g}) at {m}", lhs == rhs, lhs, rhs)
    for g in LETTERS:
        expected = ONE if g in ("k", "K") else ZERO
        got = eval_functional(Functional.word(g), Element.one())
        rep.check(f"eps({g})", got == expected, got, expected)
    return rep


def convolution_associativity_check(samples: int = 30, rng_seed: int = 2) -> Report:
    """((fg)h)(x) = (f(gh))(x) on random words and monomials."""
    import random
    rng = random.Random(rng_seed)
    rep = Report()
    monos = list(basis_monomials(3, "Asigma"))
    for _ in range(samples):
        ws = [Functional.word(*[rng.choice(LETTERS) for _ in range(rng.randint(1, 2))])
              for _ in range(3)]
        x = Element.monomial(rng.choice(monos), "Asigma")
        lhs = eval_functional((ws[0] * ws[1]) * ws[2], x)
        rhs = eval_functional(ws[0] * (ws[1] * ws[2]), x)
        rep.check("convolution associativity", lhs == rhs, lhs, rhs)
    return rep


# ---------------------------------------------------------------------------
# Pairing nondegeneracy evidence
# ---------------------------------------------------------------------------

def pairing_words(word_bound: int) -> List[Word]:
    """PBW-shaped words f^a k^b e^c with 0 <= a, c <= bound, |b| <= bound."""
    words = []
    for a in range(word_bound + 1):
        for b in range(-word_bound, word_bound + 1):
            for c in range(word_bound + 1):
                w = ("f",) * a + (("k",) * b if b >= 0 else ("K",) * (-b)) + ("e",) * c
                words.append(w)
    return words


def pairing_gram_rank(word_bound: int, degree_bound: int) -> Report:
    """Rank of the evaluation matrix of PBW-shaped words against the
    monomial basis truncated in degree.  Exact over the scalar field; a
    full-rank specialization certificate is used when it applies."""
    words = pairing_words(word_bound)
    monos = list(basis_monomials(degree_bound, "Asigma"))
    es = e_sign()
    rows = []
    for w in words:
        row = {}
        for m in monos:
            v = _eval_word_mono(w, m, "Asigma", es)
            if v:
                row[m] = v
        rows.append(row)
    rep = Report()
    n_rows, n_cols = len(words), len(monos)
    max_rank = min(n_rows, n_cols)
    zero_rows = sum(1 for r in rows if not r)
    cert = linalg.specialized_rank_certificate(rows)
    if cert is not None:
        rk = cert
        rep.note("rank certified by exact rational specialization")
    else:
        rk = linalg.rank(rows)
    rep.note(f"matrix {n_rows} x {n_cols}, rank {rk}, zero rows {zero_rows}")
    rep.check(f"gram rank = min(dims) = {max_rank}", rk == max_rank, rk, max_rank)
    return rep
