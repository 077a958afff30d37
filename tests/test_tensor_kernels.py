"""Differential test of the Tensor kernels against the term-by-term loops.

The oracles below are the explicit loops that Tensor's product and leg maps
used to be: the n-slot graded product with its Koszul sign summed pair by
pair, and one loop each for apply, split and contract.  The kernels under
test are _Combination's product loop with Tensor._times and _distribute,
and the one leg map Tensor._map_leg.  Results are compared as lists of
(key, Scalar) pairs, so that the term order is checked as well.

No library code multiplies tensors of three slots, so the 3-slot cases
here are the only check of the sign scan beyond two slots.
"""

import random

import pytest

from superq import algebra
from superq.hopf import _coact_mono, _delta_mono
from superq.scalars import ONE, ZERO, Scalar, T, T_INV, add_term, signed_t_power
from superq.tensor import AlgSlot, PlaneSlot, Tensor

_COEFFS = [ONE, -ONE, Scalar.from_rational(2), T, -T, T_INV, ONE + T, Scalar.from_gauss(0, 1)]


def _old_plane_mul(m1, m2):
    mx1, my1 = m1
    mx2, my2 = m2
    return {(mx1 + mx2, my1 + my2): ONE if my1 * mx2 == 0 else signed_t_power(0, -my1 * mx2)}


def _old_slot_mul(slot, m1, m2):
    if isinstance(slot, PlaneSlot):
        return _old_plane_mul(m1, m2)
    return dict(algebra._mono_mul(m1, m2, slot.ring))


def _old_mul(x, y):
    slots, n = x.slots, len(x.slots)
    out = {}
    for xs, cx in x.terms.items():
        px = [slots[i].parity(xs[i]) for i in range(n)]
        for ys, cy in y.terms.items():
            sign = 0
            for a in range(n):
                if slots[a].parity(ys[a]):
                    for b in range(a + 1, n):
                        sign += px[b]
            coeff = cx * cy
            if sign % 2:
                coeff = -coeff
            partial = {(): coeff}
            for i in range(n):
                prod = _old_slot_mul(slots[i], xs[i], ys[i])
                nxt = {}
                for key, cc in partial.items():
                    for m, cm in prod.items():
                        add_term(nxt, key + (m,), cc * cm)
                partial = nxt
                if not partial:
                    break
            for key, cc in partial.items():
                add_term(out, key, cc)
    return out


def _old_apply(x, leg, fn):
    out = {}
    for key, coeff in x.terms.items():
        for m, c in fn(key[leg]).items():
            add_term(out, key[:leg] + (m,) + key[leg + 1:], coeff * c)
    return out


def _old_split(x, leg, fn):
    out = {}
    for key, coeff in x.terms.items():
        for ms, c in fn(key[leg]).items():
            add_term(out, key[:leg] + tuple(ms) + key[leg + 1:], coeff * c)
    return out


def _old_contract(x, leg, fn):
    out = {}
    for key, coeff in x.terms.items():
        val = fn(key[leg])
        if val:
            add_term(out, key[:leg] + key[leg + 1:], coeff * val)
    return out


def _random_slots(rng, n):
    return tuple(PlaneSlot() if rng.random() < 0.4
                 else AlgSlot(rng.choice(algebra.RINGS)) for _ in range(n))


def _random_mono(rng, slot):
    if isinstance(slot, AlgSlot):
        return algebra.random_monomial(rng, 2, slot.ring)
    # odd and even powers of y
    return (rng.randint(0, 2), rng.randint(0, 3))


def _random_tensor(rng, slots):
    terms = {tuple(_random_mono(rng, s) for s in slots): rng.choice(_COEFFS)
             for _ in range(rng.randint(0, 4))}
    return Tensor(slots, terms)


def _pairs(x):
    return list(x.terms.items()) if isinstance(x, Tensor) else list(x.items())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_product_matches_the_pairwise_loop(n, seed):
    rng = random.Random(1000 * n + seed)
    slots = _random_slots(rng, n)
    for _ in range(4):
        x, y = _random_tensor(rng, slots), _random_tensor(rng, slots)
        assert _pairs(x * y) == _pairs(_old_mul(x, y))
        assert _pairs(y * x) == _pairs(_old_mul(y, x))


def _leg_maps(slot):
    """An apply map, a split map with its new slots, and an even functional
    for one slot: each merges keys or vanishes on some monomials."""
    if isinstance(slot, AlgSlot):
        unit = slot.unit()
        ring = "B" if slot.ring == "B" else "Asigma"
        apply_fn = lambda m: dict(algebra._mono_mul(m, (0, 1, 1, 0, 0), slot.ring)) or {unit: T}
        if slot.ring == "Bsigma":
            split = (lambda m: {(m, unit): ONE, (unit, m): T}, (slot, slot))
        else:
            split = (lambda m: _delta_mono(m, ring), (AlgSlot(ring), AlgSlot(ring)))
        return apply_fn, split, lambda m: ZERO if sum(m) % 3 == 1 else signed_t_power(m[0], m[3])
    apply_fn = lambda m: {(m[0], m[1] % 2): T_INV, (0, 0): ONE}
    split = (lambda m: _coact_mono("left", m[0], m[1]), (AlgSlot("B"), PlaneSlot()))
    return apply_fn, split, lambda m: ZERO if m[1] % 2 else signed_t_power(m[1], m[0])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_leg_maps_match_the_term_loops(n, seed):
    rng = random.Random(2000 * n + seed)
    slots = _random_slots(rng, n)
    for _ in range(3):
        x = _random_tensor(rng, slots)
        for leg, slot in enumerate(slots):
            apply_fn, (split_fn, new_slots), functional = _leg_maps(slot)
            assert _pairs(x.apply(leg, apply_fn)) == _pairs(_old_apply(x, leg, apply_fn))
            split = x.split(leg, split_fn, new_slots)
            assert _pairs(split) == _pairs(_old_split(x, leg, split_fn))
            assert split.slots == slots[:leg] + new_slots + slots[leg + 1:]
            contracted = x.contract(leg, functional)
            assert _pairs(contracted) == _pairs(_old_contract(x, leg, functional))
            assert contracted.slots == slots[:leg] + slots[leg + 1:]


def test_negative_tensor_power_raises():
    dx = Tensor.from_elements([algebra.Element.generator("a"), algebra.Element.generator("b")])
    assert dx ** 0 == Tensor.unit(dx.slots)
    with pytest.raises(ValueError, match="negative powers"):
        dx ** -1
