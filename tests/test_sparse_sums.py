"""The zero-free invariant of the sparse Scalar sums.

Element, Tensor, Functional, QPolynomial and PlaneElement compare their term
dicts with ==, so no stored coefficient may be zero.  Their sums and
products, and the linalg rows, accumulate through add_term, which deletes a
key whose sum cancels.
"""

from hypothesis import given, settings, strategies as st

from superq.algebra import Element
from superq.dual import Functional
from superq.hopf import PlaneElement
from superq.qfun import QPolynomial
from superq.scalars import ONE, T, T_INV, ZERO, Scalar, add_term
from superq.tensor import AlgSlot, Tensor


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
_plane = st.tuples(_terms([(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]), st.booleans()).map(
    lambda dn: PlaneElement(*dn))


def _neg(x):
    if isinstance(x, PlaneElement):   # the plane has no negation of its own
        return PlaneElement({m: -c for m, c in x.terms.items()}, x.nilpotent)
    return -x


def _stored(x):
    return list((x.coeffs if isinstance(x, QPolynomial) else x.terms).values())


_pairs = st.one_of(*(st.tuples(s, s) for s in (_element, _tensor, _functional, _qpoly)),
                   st.tuples(_plane, _plane).filter(lambda p: p[0].nilpotent == p[1].nilpotent))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_pairs)
def test_sums_and_products_store_no_zero(pair):
    x, y = pair
    results = [x + y, x + _neg(y), x * y, y * x]
    if not isinstance(x, PlaneElement):
        results.append(x - y)
    for r in results:
        assert all(_stored(r)), r
    assert not _stored(x + _neg(x))
