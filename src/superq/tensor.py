"""Graded tensor products with Koszul-sign multiplication.

A Tensor is a Scalar-linear combination of pure tensors over a fixed tuple
of slots.  Slots are either algebra slots (carrying a ring tag, monomials
are the normal-form monomials of that ring) or quantum-plane slots
(monomials x^m y^n with xy = t yx, p(x) = 0, p(y) = 1; optionally with
y^2 = 0 imposed).

Multiplication follows the graded rule

    (x_1 ox ... ox x_n)(y_1 ox ... ox y_n)
        = (-1)^(sum_{A<B} p(y_A) p(x_B)) x_1 y_1 ox ... ox x_n y_n.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from . import algebra
from .scalars import ONE, Scalar, _Combination, _signed_join, add_term, signed_t_power


class AlgSlot:
    __slots__ = ("ring",)

    def __init__(self, ring: str):
        self.ring = ring

    def parity(self, mono) -> int:
        return algebra.mono_parity(mono)

    def mul(self, m1, m2) -> Dict:
        return dict(algebra._mono_mul(m1, m2, self.ring))

    def unit(self):
        return (0, 0, 0, 0, 0)

    def __eq__(self, other):
        return isinstance(other, AlgSlot) and self.ring == other.ring

    def __repr__(self):
        return f"AlgSlot({self.ring})"


class PlaneSlot:
    """Quantum plane x^m y^n, xy = t yx; nilpotent=True imposes y^2 = 0."""

    __slots__ = ("nilpotent",)

    def __init__(self, nilpotent: bool = False):
        self.nilpotent = nilpotent

    def parity(self, mono) -> int:
        return mono[1] % 2

    def mul(self, m1, m2) -> Dict:
        mx1, my1 = m1
        mx2, my2 = m2
        if self.nilpotent and my1 + my2 >= 2:
            return {}
        # y^n1 x^m2 = t^(-n1*m2) x^m2 y^n1
        coeff = ONE if my1 * mx2 == 0 else signed_t_power(0, -my1 * mx2)
        return {(mx1 + mx2, my1 + my2): coeff}

    def unit(self):
        return (0, 0)

    def __eq__(self, other):
        return isinstance(other, PlaneSlot) and self.nilpotent == other.nilpotent

    def __repr__(self):
        return f"PlaneSlot(nilpotent={self.nilpotent})"


class Tensor(_Combination):
    """Zero-free sparse {tuple of slot monomials: Scalar} sum.  The vector-
    space operations are _Combination's; zero-free results on new slots
    skip the constructor's filter through _tensor."""

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
        terms: Dict[Tuple, Scalar] = {(): ONE}
        for e in elements:
            nxt: Dict[Tuple, Scalar] = {}
            for key, coeff in terms.items():
                for m, c in e.terms.items():
                    k2 = key + (m,)
                    add_term(nxt, k2, coeff * c)
            terms = nxt
        return _tensor(slots, terms)

    @staticmethod
    def unit(slots) -> "Tensor":
        return Tensor(slots, {tuple(s.unit() for s in slots): ONE})

    # -- product -------------------------------------------------------------

    def __mul__(self, other: "Tensor") -> "Tensor":
        self._check(other)
        n = len(self.slots)
        out: Dict[Tuple, Scalar] = {}
        for xs, cx in self.terms.items():
            px = [self.slots[i].parity(xs[i]) for i in range(n)]
            for ys, cy in other.terms.items():
                sign = 0
                for a in range(n):
                    pa = self.slots[a].parity(ys[a])
                    if pa:
                        for bslot in range(a + 1, n):
                            sign += px[bslot]
                coeff = cx * cy
                if sign % 2:
                    coeff = -coeff
                # slotwise products, distributing sums
                partial: Dict[Tuple, Scalar] = {(): coeff}
                for i in range(n):
                    prod = self.slots[i].mul(xs[i], ys[i])
                    nxt: Dict[Tuple, Scalar] = {}
                    for key, cc in partial.items():
                        for m, cm in prod.items():
                            k2 = key + (m,)
                            add_term(nxt, k2, cc * cm)
                    partial = nxt
                    if not partial:
                        break
                for key, cc in partial.items():
                    add_term(out, key, cc)
        return self._like(out)

    def __pow__(self, m: int) -> "Tensor":
        """self^m by m products with self; repeated squaring is slower here,
        as for Element.__pow__.  From empty memo tables it took 46 ms against
        28 ms for Delta(a + d)^6, and 45 ms against 32 ms for
        Delta(a + b + c + d)^4."""
        out = Tensor.unit(self.slots)
        for _ in range(m):
            out = out * self
        return out

    # -- leg surgery ----------------------------------------------------------

    def apply(self, leg: int, fn: Callable, new_slot=None) -> "Tensor":
        """Apply a parity-preserving linear map to one leg.

        fn maps a monomial to {monomial: Scalar} in the (possibly new) slot.
        """
        slots = list(self.slots)
        if new_slot is not None:
            slots[leg] = new_slot
        out: Dict[Tuple, Scalar] = {}
        for key, coeff in self.terms.items():
            for m, c in fn(key[leg]).items():
                k2 = key[:leg] + (m,) + key[leg + 1:]
                add_term(out, k2, coeff * c)
        return _tensor(tuple(slots), out)

    def split(self, leg: int, fn: Callable, new_slots) -> "Tensor":
        """Replace one leg by several via a linear map to a tensor.

        fn maps a monomial of the old leg to {tuple_of_monomials: Scalar}.
        """
        slots = self.slots[:leg] + tuple(new_slots) + self.slots[leg + 1:]
        out: Dict[Tuple, Scalar] = {}
        for key, coeff in self.terms.items():
            for ms, c in fn(key[leg]).items():
                k2 = key[:leg] + tuple(ms) + key[leg + 1:]
                add_term(out, k2, coeff * c)
        return _tensor(slots, out)

    def contract(self, leg: int, fn: Callable, fn_parity: int = 0) -> "Tensor":
        """Contract one leg with a functional (monomial -> Scalar).

        For an odd functional the graded evaluation sign
        (-1)^(p(fn) * sum of parities left of the leg) is applied.
        """
        slots = self.slots[:leg] + self.slots[leg + 1:]
        out: Dict[Tuple, Scalar] = {}
        for key, coeff in self.terms.items():
            val = fn(key[leg])
            if not val:
                continue
            if fn_parity % 2:
                psum = sum(self.slots[i].parity(key[i]) for i in range(leg)) % 2
                if psum:
                    val = -val
            k2 = key[:leg] + key[leg + 1:]
            add_term(out, k2, coeff * val)
        return _tensor(slots, out)

    def to_element(self):
        if len(self.slots) != 1 or not isinstance(self.slots[0], AlgSlot):
            raise ValueError("not a single algebra leg")
        return algebra.Element(self.slots[0].ring, {k[0]: v for k, v in self.terms.items()})

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        def mono_str(slot, m):
            if isinstance(slot, AlgSlot):
                return algebra._mono_str(m)
            mx, my = m
            if not mx and not my:
                return "1"
            parts = []
            if mx:
                parts.append("x" if mx == 1 else f"x^{mx}")
            if my:
                parts.append("y" if my == 1 else f"y^{my}")
            return "*".join(parts)
        pieces = []
        for key in sorted(self.terms):
            c = str(self.terms[key])
            body = " (x) ".join(mono_str(s, m) for s, m in zip(self.slots, key))
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
