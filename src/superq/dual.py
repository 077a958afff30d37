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

The printed generator value for e is (t - t^-1)/(q - q^-1).  Under the
evaluation-sign convention above, ef + fe = (k - k^-1)/(q - q^-1) holds
only with the opposite sign (the two printed conventions disagree by
exactly this sign), so e(b) is the fixed literal E_SIGN times the printed
value, E_SIGN = -1.  calibrate_e_sign_value re-derives that sign from the
relation at a and checks it against the literal.

A word w pairs to zero with every normal monomial a^i b^j c^k d^l sigma^s
off the weight j - k = #e - #f, where #e and #f count those letters in w:

  - j - k is additive under Delta on every generator: Delta(a) = a ox a +
    b ox c, Delta(b) = a ox b + b ox d, Delta(c) = c ox a + d ox c,
    Delta(d) = c ox b + d ox d and Delta(sigma) = sigma ox sigma, and so
    on every product of generators;
  - normal ordering keeps it: d^l a^I = sum_r C_r a^(I-r) b^r c^r d^(l-r)
    and ad = sigma - t bc, so Delta(m) is a sum of m1 ox m2 with
    (j1 - k1) + (j2 - k2) = j - k;
  - each letter vanishes off its own weight: the counit, k and k^-1 off
    j = k = 0, e off (j, k) = (1, 0) and f off (0, 1); so the first letter
    of w and the rest, by induction on the length, vanish on each m1 ox m2
    unless j - k adds up to #e - #f.

_eval_word_mono returns ZERO there before _eval_long_word's walk and its
memo table, which keep only the pairings that can be nonzero.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import _cache, linalg
from .algebra import Element, Monomial, basis_monomials, mono_parity
from .hopf import _delta_mono, antipode, counit
from .report import Report
from .scalars import ONE, Scalar, T, T_INV, ZERO, _Combination, signed_t_power

Word = Tuple[str, ...]

LETTERS = ("k", "K", "e", "f")
_LETTER_PARITY = {"k": 0, "K": 0, "e": 1, "f": 1}

# e(b) as printed: (t - t^-1)/(q - q^-1).  The value used is E_SIGN times it.
_E_VALUE_PRINTED = (T - T_INV) / (Scalar.q_power(1) - Scalar.q_power(-1))
E_SIGN = -1
_E_VALUE = -_E_VALUE_PRINTED


def word_parity(word: Word) -> int:
    return sum(_LETTER_PARITY[g] for g in word) % 2


class Functional(_Combination):
    """Zero-free Scalar-linear combination of words in k, K, e, f; the
    vector-space operations and the product are _Combination's, with word
    concatenation as the key product _times."""

    __slots__ = ()

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

    def _times(self, w1, w2):
        return ((w1 + w2, ONE),)

    def __call__(self, x: Element) -> Scalar:
        return eval_functional(self, x)

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

def _letter_value(g: str, m: Monomial) -> Scalar:
    i, j, k, l, s = m
    if g in ("k", "K"):
        if j or k:
            return ZERO
        # k(a) = t, k(d) = -t^-1, k(sigma) = -1, and K = k^-1
        pm = 1 if g == "k" else -1
        return signed_t_power(l + s, pm * (i - l))
    if g == "e":
        # nonzero only on a^i b d^l sigma^s (derivation property), value t^i e(b)
        if j == 1 and k == 0:
            return Scalar.t_power(i) * _E_VALUE
        return ZERO
    if g == "f":
        # nonzero only on a^i c d^l sigma^s, value f(c) k^-1(d)^l k^-1(sigma)^s
        if j == 0 and k == 1:
            return signed_t_power(l + s, l)
        return ZERO
    raise ValueError(f"unknown letter {g!r}")


_eval_cache: Dict[tuple, Scalar] = {}


def _eval_word_mono(word: Word, m: Monomial, ring: str) -> Scalar:
    """word(m); ZERO off the weight j - k = #e - #f, without a walk."""
    if not word:
        return counit(Element.monomial(m, ring))
    if len(word) == 1:
        return _letter_value(word[0], m)
    if m[1] - m[2] != word.count("e") - word.count("f"):
        return ZERO
    return _eval_long_word(word, m, ring)


@_cache.memo(_eval_cache)
def _eval_long_word(word: Word, m: Monomial, ring: str) -> Scalar:
    head, rest = word[0], word[1:]
    rest_par = word_parity(rest)
    total = ZERO
    for (m1, m2), coeff in _delta_mono(m, ring).items():
        v1 = _letter_value(head, m1)
        if not v1:
            continue
        v2 = _eval_word_mono(rest, m2, ring)
        if not v2:
            continue
        piece = coeff * v1 * v2
        if rest_par and mono_parity(m1):
            piece = -piece
        total = total + piece
    return total


def eval_functional(phi: Functional, x: Element) -> Scalar:
    """Evaluate a functional against an algebra element."""
    out = ZERO
    for w, cw in phi.terms.items():
        for m, cm in x.terms.items():
            v = _eval_word_mono(w, m, x.ring)
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
    the calibration lands on -1.  The left side is linear in e(b): this
    returns E_SIGN when the relation holds with the literal, -E_SIGN when it
    holds with the opposite sign, and raises otherwise, which would mean the
    conventions are inconsistent beyond one sign.
    """
    a = Element.generator("a")
    target = eval_functional(_casimir_rhs(), a)
    lhs = eval_functional(Functional.word("e", "f") + Functional.word("f", "e"), a)
    if lhs == target:
        return E_SIGN
    if -lhs == target:
        return -E_SIGN
    raise ArithmeticError("no sign of e(b) satisfies the Casimir relation at a")


def calibrate_e_sign() -> Scalar:
    """Spec surface: the calibrated sign as a scalar."""
    return Scalar.from_rational(calibrate_e_sign_value())


def verify_uq_relations(max_degree: int) -> Report:
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
            lv = eval_functional(lhs, x)
            rv = eval_functional(rhs, x)
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
        "k": [(("k",), ("k",))],
        "K": [(("K",), ("K",))],
        "e": [(("e",), eps), (("k",), ("e",))],
        "f": [(("f",), ("K",)), (eps, ("f",))],
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
            for wl, wr in table:
                piece = _eval_word_mono(wl, m1, "Asigma") * _eval_word_mono(wr, m2, "Asigma")
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
    rows = []
    for w in words:
        row = {}
        for m in monos:
            v = _eval_word_mono(w, m, "Asigma")
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
