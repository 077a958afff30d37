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
from .scalars import ONE, Scalar, T_INV, ZERO, add_term


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
        coeff = ONE if my1 * mx2 == 0 else (T_INV ** (my1 * mx2))
        return {(mx1 + mx2, my1 + my2): coeff}

    def unit(self):
        return (0, 0)

    def __eq__(self, other):
        return isinstance(other, PlaneSlot) and self.nilpotent == other.nilpotent

    def __repr__(self):
        return f"PlaneSlot(nilpotent={self.nilpotent})"


class Tensor:
    __slots__ = ("slots", "terms")

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
        return Tensor(slots, terms)

    @staticmethod
    def unit(slots) -> "Tensor":
        return Tensor(slots, {tuple(s.unit() for s in slots): ONE})

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Tensor) and self.slots == other.slots
                and self.terms == other.terms)

    def __add__(self, other: "Tensor") -> "Tensor":
        assert self.slots == other.slots
        out = dict(self.terms)
        for k, v in other.terms.items():
            add_term(out, k, v)
        return Tensor(self.slots, out)

    def __neg__(self):
        return Tensor(self.slots, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar) -> "Tensor":
        if not c:
            return Tensor(self.slots)
        return Tensor(self.slots, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "Tensor") -> "Tensor":
        assert self.slots == other.slots
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
        return Tensor(self.slots, out)

    def __pow__(self, m: int) -> "Tensor":
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
        return Tensor(tuple(slots), out)

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
        return Tensor(slots, out)

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
        return Tensor(slots, out)

    def to_scalar(self) -> Scalar:
        if self.slots:
            raise ValueError("tensor still has legs")
        return self.terms.get((), ZERO)

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
        out = pieces[0]
        for p in pieces[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"Tensor<{self}>"

    def to_json(self):
        return {
            "slots": [repr(s) for s in self.slots],
            "terms": [{"monomials": [list(m) for m in key],
                       "coeff": self.terms[key].to_json()}
                      for key in sorted(self.terms)],
        }
