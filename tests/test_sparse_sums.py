"""The zero-free invariant of the sparse Scalar sums.

Element, Tensor, Functional, QPolynomial and PlaneElement share the base
scalars._Combination, whose == compares term dicts, so no stored coefficient
may be zero.  Their sums and products, and the linalg rows, accumulate
through add_term, which deletes a key whose sum cancels; the results skip
the constructors' zero filter, so an add_term that kept a zero shows here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from superq.algebra import Element
from superq.dual import Functional
from superq.hopf import PlaneElement
from superq.qfun import QPolynomial
from superq.scalars import ONE, T, T_INV, ZERO, Scalar, add_term
from superq.tensor import AlgSlot, PlaneSlot, Tensor


def test_add_term_cancellation_update_and_append():
    acc = {"x": ONE, "y": T, "z": T_INV}
    add_term(acc, "y", -T)
    assert list(acc) == ["x", "z"]
    add_term(acc, "x", T)
    assert list(acc.items()) == [("x", ONE + T), ("z", T_INV)]
    add_term(acc, "y", T)
    assert list(acc.items()) == [("x", ONE + T), ("z", T_INV), ("y", T)]
    add_term(acc, "w", ZERO)
    assert "w" not in acc
    add_term(acc, "z", ZERO)
    assert list(acc.items()) == [("x", ONE + T), ("z", T_INV), ("y", T)]


# Few distinct coefficients and keys, so that sums cancel often.
_coeff = st.sampled_from([ONE, -ONE, Scalar.from_rational(2), T, -T, T_INV,
                          ONE + T, Scalar.from_gauss(0, 1)])
_monos = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
          (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 1, 1, 0, 0), (1, 0, 1, 0, 1)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("xyz"), _coeff), max_size=12))
def test_add_term_keeps_exact_sums_without_zeros(steps):
    acc, total = {}, {}
    for key, c in steps:
        add_term(acc, key, c)
        total[key] = total.get(key, ZERO) + c
    assert all(acc.values())
    assert acc == {k: v for k, v in total.items() if v}


def _terms(keys):
    return st.dictionaries(st.sampled_from(keys), _coeff, max_size=3)


_element = _terms(_monos).map(lambda d: Element("Asigma", d))
_tensor = _terms([(m1, m2) for m1 in _monos[:4] for m2 in _monos[:4]]).map(
    lambda d: Tensor((AlgSlot("Asigma"), AlgSlot("Asigma")), d))
_functional = _terms([(), ("k",), ("K",), ("e",), ("f",), ("e", "f"), ("k", "K")]).map(
    Functional)
_qpoly = _terms([0, 1, 2, 3]).map(QPolynomial)
_plane = _terms([(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]).map(PlaneElement)


def _stored(x):
    return list(x.terms.values())


_pairs = st.one_of(*(st.tuples(s, s) for s in (_element, _tensor, _functional, _qpoly, _plane)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_pairs)
def test_sums_and_products_store_no_zero(pair):
    x, y = pair
    results = [x + y, x - y, x * y, y * x]
    for r in results:
        assert all(_stored(r)), r
    assert not _stored(x + (-x))


_UNIT = (0, 0, 0, 0, 0)


@pytest.mark.parametrize("values", [_element, _functional, _qpoly],
                         ids=["Element", "Functional", "QPolynomial"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_results_store_no_zero(values, data):
    x, y = data.draw(values), data.draw(values)
    results = [x + y, x - y, x * y, y * x, -x]
    for r in results:
        assert all(_stored(r)), r
    assert not _stored(x + (-x))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tensor, _tensor)
def test_tensor_results_store_no_zero(x, y):
    # the leg maps send every monomial to the unit, so distinct keys merge
    results = [x + y, x - y, x * y, y * x, -x, (x - y).apply(0, lambda m: {_UNIT: ONE}),
               (x + y).split(1, lambda m: {(_UNIT, _UNIT): ONE}, (AlgSlot("Asigma"),) * 2),
               (x - y).contract(0, lambda m: ONE)]
    for r in results:
        assert all(_stored(r)), r
    assert not _stored(x + (-x))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_plane, _plane)
def test_plane_results_store_no_zero(x, y):
    results = [x + y, x - y, x * y, y * x]
    for r in results:
        assert all(_stored(r)), r
    assert not _stored(x + (-x))


def test_mismatched_summands_raise():
    one = Tensor((AlgSlot("Asigma"),), {(_UNIT,): ONE})
    with pytest.raises(ValueError, match="slots mismatch"):
        one + Tensor((PlaneSlot(),), {((0, 0),): ONE})
    a = (1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="slots mismatch"):
        Tensor((AlgSlot("Asigma"),), {(a,): ONE}) * Tensor((AlgSlot("B"),), {(_UNIT,): ONE})
    with pytest.raises(TypeError):
        Functional.counit() + QPolynomial.constant(ONE)


def test_functional_equality_compares_terms():
    assert Functional.word("k") == Functional.word("k")
    assert Functional.word("k") != Functional.word("K")
    ef, fe = Functional.word("e", "f"), Functional.word("f", "e")
    assert ef + fe == fe + ef
    assert ef - ef == Functional()
