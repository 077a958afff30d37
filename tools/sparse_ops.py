"""What the sparse sums cost: scalar products per verify pass, time per op.

Prints two things, standard library only:

  * the number of Scalar.__mul__ calls in one in-process
    superq.cli.main(["verify", "--suite", "all"]), counted from a fresh
    interpreter (so from empty memo tables) by wrapping the method;
  * the time of one + and one * on small Elements, Tensors, Functionals and
    QPolynomials, in microseconds: the best of 7 timeit repeats, with warm
    memo tables.  The timings are printed, not checked: on a shared machine
    repeats can differ by 2x between runs.

    PYTHONPATH=src python tools/sparse_ops.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import timeit

REPEATS = 7
NUMBER = 2000


def count_scalar_products() -> int:
    """Scalar.__mul__ calls in one verify --suite all."""
    from superq.cli import main as superq_main
    from superq.scalars import Scalar

    mul = Scalar.__mul__
    calls = [0]

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    Scalar.__mul__ = counted
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = superq_main(["verify", "--suite", "all"])
    finally:
        Scalar.__mul__ = mul
    if code:
        raise SystemExit(f"superq verify --suite all exited {code}")
    return calls[0]


def operands():
    """{name: (x, y)}: two small values of each class, 2 or 3 terms each."""
    from superq.algebra import Element
    from superq.dual import Functional
    from superq.hopf import coproduct
    from superq.qfun import QPolynomial
    from superq.scalars import ONE, T, T_INV

    a, b, c, d, s = (Element.generator(g) for g in ("a", "b", "c", "d", "sigma"))
    return {
        "Element": (a + b.scale(T) * c, d - s),
        "Tensor": (coproduct(a), coproduct(b)),
        "Functional": (Functional.word("k") + Functional.word("e", coeff=T),
                       Functional.word("f", "K") - Functional.counit()),
        "QPolynomial": (QPolynomial({0: ONE, 1: T}), QPolynomial({1: ONE, 2: T_INV})),
    }


def op_times() -> list:
    """[(label, microseconds per op)] for + and * of each class."""
    rows = []
    for name, (x, y) in operands().items():
        for sym, fn in (("+", lambda: x + y), ("*", lambda: x * y)):
            fn()                                    # fill the memo tables
            best = min(timeit.repeat(fn, repeat=REPEATS, number=NUMBER))
            rows.append((f"{name} {sym} {name}", best / NUMBER * 1e6))
    return rows


def main() -> int:
    print(f"Scalar.__mul__ calls in one verify --suite all: {count_scalar_products()}")
    rows = op_times()
    width = max(len(label) for label, _ in rows)
    print(f"{'op':<{width}}  us/op (best of {REPEATS})")
    for label, us in rows:
        print(f"{label:<{width}}  {us:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
