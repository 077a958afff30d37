import itertools
import random
from contextlib import contextmanager, nullcontext

import pytest

from superq import _cache, algebra, dual, suites
from superq.algebra import RINGS, Element, basis_monomials
from superq.dual import (
    E_SIGN, LETTERS, Functional, calibrate_e_sign, calibrate_e_sign_value,
    eval_functional, pairing_gram_rank, pairing_words, verify_dual_hopf,
    verify_uq_relations,
)
from superq.scalars import MINUS_ONE, ONE, Scalar, T, T_INV


def gen(name):
    return Element.generator(name)


@contextmanager
def flipped_e_value():
    """Evaluate with e(b) of the opposite sign.  The memo tables are emptied
    before and after, so nothing computed under the flip outlives it."""
    _cache.clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dual, "_E_VALUE", -dual._E_VALUE)
            yield
    finally:
        _cache.clear()


def test_k_generator_values():
    k = Functional.word("k")
    K = Functional.word("K")
    assert eval_functional(k, gen("a")) == T
    assert eval_functional(k, gen("d")) == -T_INV
    assert eval_functional(K, gen("a")) == T_INV
    assert eval_functional(K, gen("d")) == -T
    assert eval_functional(k, gen("b")).is_zero()
    assert eval_functional(k, gen("c")).is_zero()
    assert eval_functional(k, gen("sigma")) == MINUS_ONE
    assert eval_functional(K, gen("sigma")) == MINUS_ONE


def test_f_generator_values():
    f = Functional.word("f")
    assert eval_functional(f, gen("c")) == ONE
    assert eval_functional(f, gen("a")).is_zero()
    assert eval_functional(f, gen("b")).is_zero()
    assert eval_functional(f, gen("d")).is_zero()
    assert eval_functional(f, gen("sigma")).is_zero()


def test_e_generator_value_magnitude():
    e = Functional.word("e")
    printed = (T - T_INV) / (Scalar.q_power(1) - Scalar.q_power(-1))
    v = eval_functional(e, gen("b"))
    assert v == printed or v == -printed
    assert eval_functional(e, gen("c")).is_zero()


def test_k_is_algebra_morphism():
    k = Functional.word("k")
    x = gen("a") * gen("a")
    assert eval_functional(k, x) == T * T
    # k on the quotient relation: k(ad + t bc) = k(sigma) = -1
    lhs = eval_functional(k, gen("a") * gen("d") + (gen("b") * gen("c")) * T)
    assert lhs == MINUS_ONE


def test_ef_plus_fe_on_b_is_zero():
    phi = Functional.word("e", "f") + Functional.word("f", "e")
    assert eval_functional(phi, gen("b")).is_zero()


def test_calibration_is_minus_one():
    assert E_SIGN == -1
    assert calibrate_e_sign_value() == E_SIGN
    assert calibrate_e_sign() == MINUS_ONE
    printed = (T - T_INV) / (Scalar.q_power(1) - Scalar.q_power(-1))
    assert eval_functional(Functional.word("e"), gen("b")) == -printed


def test_uncalibrated_sign_fails_at_a():
    with flipped_e_value():
        rep = verify_uq_relations(1)
    assert not rep.ok
    assert any("(1, 0, 0, 0, 0)" in f["input"] for f in rep.failures)
    assert verify_uq_relations(1).ok


def test_flipped_literal_calibrates_to_plus_one():
    # The calibration re-derives the sign rather than echoing the literal.
    with flipped_e_value():
        assert calibrate_e_sign_value() == 1
        assert calibrate_e_sign() == ONE
        rep = verify_uq_relations(1)
    assert any("(1, 0, 0, 0, 0)" in f["input"] for f in rep.failures)
    assert calibrate_e_sign_value() == -1


def test_kek_inv_scaling_holds_for_either_sign():
    # conjugation by k rescales e by q, independently of the e sign
    q = Scalar.q_power(1)
    for sign in (nullcontext(), flipped_e_value()):
        with sign:
            lhs = eval_functional(Functional.word("k", "e", "K"), gen("b"))
            rhs = q * eval_functional(Functional.word("e"), gen("b"))
        assert lhs == rhs


def test_uq_relations_degree_three():
    rep = verify_uq_relations(3)
    assert rep.ok, str(rep)


def test_kkinv_is_counit_degree_four():
    from superq.hopf import counit
    kK = Functional.word("k", "K")
    Kk = Functional.word("K", "k")
    for m in basis_monomials(4, "Asigma"):
        x = Element.monomial(m)
        eps = counit(x)
        assert eval_functional(kK, x) == eps
        assert eval_functional(Kk, x) == eps


def test_dual_hopf_structure():
    rep = verify_dual_hopf(samples=30)
    assert rep.ok, str(rep)


def test_delta_e_against_derivation_rule():
    # e(ab) = e(a)eps(b) + k(a)e(b) = t e(b)
    e = Functional.word("e")
    lhs = eval_functional(e, gen("a") * gen("b"))
    rhs = T * eval_functional(e, gen("b"))
    assert lhs == rhs


def test_s_f_pairing():
    # S(f)(c) = f(S(c)) = f(t c sigma)
    from superq.hopf import antipode
    sf = -Functional.word("f", "k")
    lhs = eval_functional(sf, gen("c"))
    rhs = eval_functional(Functional.word("f"), antipode(gen("c")))
    assert lhs == rhs
    assert lhs == -T


def test_convolution_associativity():
    # ((fg)h)(x) = (f(gh))(x) on random words and monomials
    rng = random.Random(2)
    monos = list(basis_monomials(3, "Asigma"))
    for _ in range(30):
        ws = [Functional.word(*[rng.choice(LETTERS) for _ in range(rng.randint(1, 2))])
              for _ in range(3)]
        x = Element.monomial(rng.choice(monos), "Asigma")
        lhs = eval_functional((ws[0] * ws[1]) * ws[2], x)
        rhs = eval_functional(ws[0] * (ws[1] * ws[2]), x)
        assert lhs == rhs, (ws, x)


def test_pairing_words_enumeration():
    ws = pairing_words(1)
    assert len(ws) == 2 * 3 * 2
    assert () in ws
    assert ("f", "k", "e") in ws


def test_gram_rank_small():
    rep = pairing_gram_rank(1, 2)
    # 12 words vs monomials of degree <= 2: full row rank expected
    assert rep.ok, str(rep)


def test_pairing_suite_passes_at_degrees_1_to_5():
    for degree in range(1, 6):
        rep = suites.run("pairing", degree)
        assert rep.ok, (degree, str(rep))
    # the default report, which the verify_all digest holds, is bound 2/4's
    assert suites.run("pairing").notes == pairing_gram_rank(2, 4).notes


def test_pairing_words_of_bound_2_miss_one_degree_2_vector():
    # why the pairing suite widens its words below degree 3
    a, s, one = gen("a"), gen("sigma"), Element.one()
    v = (a - (one + a * a).scale(T / (ONE + T * T))) * (s - one)

    def pairing(w):
        return eval_functional(Functional.word(*w), v)

    assert not any(pairing(w) for w in pairing_words(2))
    assert [w for w in pairing_words(3) if pairing(w)] == [("K",) * 3, ("k",) * 3]


def _pairing_rows(words, monos):
    rows = []
    for w in words:
        row = {}
        for m in monos:
            v = dual._eval_word_mono(w, m, "Asigma")
            if v:
                row[m] = v
        rows.append(row)
    return rows


def test_gram_rank_invariant_under_sign():
    # row scaling by the e sign cannot change the rank
    from superq import linalg
    words = pairing_words(1)
    monos = list(basis_monomials(2, "Asigma"))
    ranks = []
    for sign in (nullcontext(), flipped_e_value()):
        with sign:
            ranks.append(linalg.rank(_pairing_rows(words, monos)))
    assert ranks[0] == ranks[1]


def test_zero_row_never_occurs_small():
    words = pairing_words(2)
    monos = list(basis_monomials(4, "Asigma"))
    for sign in (nullcontext(), flipped_e_value()):
        with sign:
            rows = _pairing_rows(words, monos)
        for w, row in zip(words, rows):
            assert row, f"zero functional row for word {w}"


def _off_weight(word, m):
    """Whether the weight rule decides word(m) = 0: j - k != #e - #f."""
    return m[1] - m[2] != word.count("e") - word.count("f")


def test_weight_rule_matches_the_walk(monkeypatch):
    # Every word of length 2 to 4 against every basis monomial of degree
    # <= 3 of each ring.  The oracle walks every word of length >= 2, with
    # no weight rule at any depth and no memo table.
    words = [w for n in (2, 3, 4) for w in itertools.product(LETTERS, repeat=n)]
    pairs = [(w, m, ring) for ring in RINGS for m in basis_monomials(3, ring) for w in words]
    assert len(pairs) == 55440
    walked, guarded = {}, dual._eval_word_mono

    def unguarded(word, m, ring):
        if len(word) < 2:
            return guarded(word, m, ring)
        key = (word, m, ring)
        if key not in walked:
            walked[key] = dual._eval_long_word.__wrapped__(word, m, ring)
        return walked[key]

    with monkeypatch.context() as patch:
        patch.setattr(dual, "_eval_word_mono", unguarded)
        expected = [unguarded(*p) for p in pairs]
    assert sum(1 for v in expected if v) > 1000
    _cache.clear()
    for p, v in zip(pairs, expected):
        assert dual._eval_word_mono(*p) == v, p
    assert sum(_off_weight(w, m) for w, m, _ in pairs) == 43686
    assert not any(_off_weight(w, m) for w, m, _ in dual._eval_cache)


def test_tables_hold_no_closed_form_case():
    # After every suite, _mul_cache holds only products that need d^l a^I
    # or ad = sigma - t bc, and _eval_cache only pairings on the weight.
    _cache.clear()
    for name in suites.SUITES:
        assert suites.run(name).ok, name
    assert len(algebra._mul_cache) > 500 and len(dual._eval_cache) > 500
    assert all(len(terms) > 1 for terms in algebra._mul_cache.values())
    assert not any(_off_weight(w, m) for w, m, _ in dual._eval_cache)
