"""Graded tensor products with Koszul-sign multiplication.

A Tensor is a Scalar-linear combination of pure tensors over a fixed tuple
of slots.  Slots are either algebra slots (carrying a ring tag, monomials
are the normal-form monomials of that ring) or quantum-plane slots
(monomials x^m y^n with xy = t yx, p(x) = 0, p(y) = 1; optionally with
y^2 = 0 imposed).

Multiplication follows the graded rule

    (x_1 ox ... ox x_n)(y_1 ox ... ox y_n)
        = (-1)^(sum_{A<B} p(y_A) p(x_B)) x_1 y_1 ox ... ox x_n y_n,

the key product Tensor._times that _Combination.__mul__ extends
bilinearly; _distribute expands the slotwise products, as it expands a
pure tensor of Elements.  apply, split and contract are one leg map,
_map_leg, the linear extension (scalars.sum_images) of a map on one leg's
monomials; contract takes even functionals only, so it needs no sign.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from . import algebra
from .scalars import MINUS_ONE, ONE, Scalar, _Combination, _signed_join, signed_t_power, sum_images


class AlgSlot:
    __slots__ = ("ring",)
    SYMBOLS = "abcds"

    def __init__(self, ring: str):
        self.ring = ring

    def parity(self, mono) -> int:
        return algebra.mono_parity(mono)

    def mul(self, m1, m2):
        return algebra._mono_mul(m1, m2, self.ring)

    def unit(self):
        return (0, 0, 0, 0, 0)

    def __eq__(self, other):
        return isinstance(other, AlgSlot) and self.ring == other.ring

    def __repr__(self):
        return f"AlgSlot({self.ring})"


class PlaneSlot:
    """Quantum plane x^m y^n, xy = t yx; nilpotent=True imposes y^2 = 0."""

    __slots__ = ("nilpotent",)
    SYMBOLS = "xy"

    def __init__(self, nilpotent: bool = False):
        self.nilpotent = nilpotent

    def parity(self, mono) -> int:
        return mono[1] % 2

    def mul(self, m1, m2):
        """x^mx1 y^my1 * x^mx2 y^my2 as (monomial, Scalar) pairs.  It reads
        only self.nilpotent, so hopf.PlaneElement shares it as its _times."""
        mx1, my1 = m1
        mx2, my2 = m2
        if self.nilpotent and my1 + my2 >= 2:
            return ()
        # y^n1 x^m2 = t^(-n1*m2) x^m2 y^n1
        coeff = ONE if my1 * mx2 == 0 else signed_t_power(0, -my1 * mx2)
        return (((mx1 + mx2, my1 + my2), coeff),)

    def unit(self):
        return (0, 0)

    def __eq__(self, other):
        return isinstance(other, PlaneSlot) and self.nilpotent == other.nilpotent

    def __repr__(self):
        return f"PlaneSlot(nilpotent={self.nilpotent})"


def _distribute(factors, c: Scalar = ONE) -> list:
    """The terms of c times the pure tensor of the factors, each a sequence
    of (monomial, Scalar) pairs with distinct monomials, as (key, Scalar)
    pairs in the order of the factor-by-factor expansion.

    Keys are distinct, so no two terms merge, and nothing cancels.  A factor
    that is ONE itself is not multiplied.  factors may be lazy: an empty one
    ends the expansion before the next is taken.
    """
    terms = [((), c)]
    for f in factors:
        terms = [(key + (m,), cm if cc is ONE else cc if cm is ONE else cc * cm)
                 for key, cc in terms for m, cm in f]
        if not terms:
            break
    return terms


class Tensor(_Combination):
    """Zero-free sparse {tuple of slot monomials: Scalar} sum.  The vector-
    space operations and the product are _Combination's, with the graded
    key product _times; zero-free results on new slots skip the
    constructor's filter through _tensor."""

    __slots__ = ("slots",)
    _TAG = "slots"

    def __init__(self, slots: Tuple, terms: Dict[Tuple, Scalar] | None = None):
        self.slots = tuple(slots)
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_elements(elements) -> "Tensor":
        """Pure tensor of algebra Elements (distributing sums)."""
        slots = tuple(AlgSlot(e.ring) for e in elements)
        return _tensor(slots, dict(_distribute(e.terms.items() for e in elements)))

    @staticmethod
    def unit(slots) -> "Tensor":
        return Tensor(slots, {tuple(s.unit() for s in slots): ONE})

    # -- product -------------------------------------------------------------

    def _times(self, xs, ys):
        """The Koszul sign (-1)^(sum_{A<B} p(y_A) p(x_B)) times the slotwise
        products.  The scan runs from the last slot down, so odd holds the
        parity of the x's right of slot A when y_A is read."""
        slots = self.slots
        sign = odd = 0
        for a in range(len(slots) - 1, -1, -1):
            slot = slots[a]
            if odd and slot.parity(ys[a]):
                sign ^= 1
            odd ^= slot.parity(xs[a])
        return _distribute((s.mul(x, y) for s, x, y in zip(slots, xs, ys)),
                           MINUS_ONE if sign else ONE)

    def __pow__(self, m: int) -> "Tensor":
        """self^m by m products with self; repeated squaring is slower here,
        as for Element.__pow__.  From empty memo tables it took 46 ms against
        28 ms for Delta(a + d)^6, and 45 ms against 32 ms for
        Delta(a + b + c + d)^4."""
        if m < 0:
            raise ValueError("negative powers are not defined in the algebra")
        out = Tensor.unit(self.slots)
        for _ in range(m):
            out = out * self
        return out

    # -- leg maps --------------------------------------------------------------

    def _map_leg(self, leg: int, image: Callable, slots: Tuple) -> "Tensor":
        """The linear extension of a map on leg's monomials: image(m) gives
        (tuple of monomials, Scalar) pairs, each tuple replacing m in the key
        (empty to contract, longer to split)."""
        def key_image(key):
            head, tail = key[:leg], key[leg + 1:]
            return ((head + ms + tail, v) for ms, v in image(key[leg]))
        return _tensor(slots, sum_images(self.terms.items(), key_image))

    def apply(self, leg: int, fn: Callable) -> "Tensor":
        """Apply a parity-preserving linear map to one leg.

        fn maps a monomial to {monomial: Scalar} in the same slot.
        """
        return self._map_leg(leg, lambda m: (((m2,), c) for m2, c in fn(m).items()),
                             self.slots)

    def split(self, leg: int, fn: Callable, new_slots) -> "Tensor":
        """Replace one leg by several via a linear map to a tensor.

        fn maps a monomial of the old leg to {tuple_of_monomials: Scalar}.
        """
        slots = self.slots[:leg] + tuple(new_slots) + self.slots[leg + 1:]
        return self._map_leg(leg, lambda m: fn(m).items(), slots)

    def contract(self, leg: int, fn: Callable) -> "Tensor":
        """Contract one leg with an even functional (monomial -> Scalar); an
        even functional meets no Koszul sign."""
        def image(m):
            v = fn(m)
            return (((), v),) if v else ()
        return self._map_leg(leg, image, self.slots[:leg] + self.slots[leg + 1:])

    def to_element(self):
        if len(self.slots) != 1 or not isinstance(self.slots[0], AlgSlot):
            raise ValueError("not a single algebra leg")
        return algebra.Element(self.slots[0].ring, {k[0]: v for k, v in self.terms.items()})

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms):
            c = str(self.terms[key])
            body = " (x) ".join(algebra._mono_str(m, s.SYMBOLS) for s, m in zip(self.slots, key))
            if c == "1":
                pieces.append(body)
            elif c == "-1":
                pieces.append(f"-{body}")
            else:
                cc = f"({c})" if any(ch in c for ch in " +-/") else c
                pieces.append(f"{cc}*{body}")
        return _signed_join(pieces)

    def __repr__(self):
        return f"Tensor<{self}>"

    def to_json(self):
        return {
            "slots": [repr(s) for s in self.slots],
            "terms": [{"monomials": [list(m) for m in key],
                       "coeff": self.terms[key].to_json()}
                      for key in sorted(self.terms)],
        }


def _tensor(slots: Tuple, terms: dict) -> Tensor:
    """The Tensor with these terms, which must hold no zero coefficient."""
    x = object.__new__(Tensor)
    x.slots = slots
    x.terms = terms
    return x
