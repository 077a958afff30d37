"""What the sparse sums cost: scalar products per verify pass, time per op.

Prints two things, standard library only:

  * for one in-process superq.cli.main(["verify", "--suite", "all"]),
    counted from a fresh interpreter (so from empty memo tables) by
    wrapping the functions: the _rf_mul calls, the products that took the
    unit path (a _Unit, +-t^k, on either side: a lookup or an exponent
    shift), and all products, of plain Scalars and of units;
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


def count_scalar_products() -> dict:
    """{"_rf_mul", "plain", "unit": calls} in one verify --suite all.  A
    product counts where it starts: Scalar.__mul__ for two plain Scalars
    ("plain"), _Unit.__mul__ or _Unit.__rmul__ for a unit on either side
    ("unit")."""
    from superq import scalars
    from superq.cli import main as superq_main
    from superq.scalars import Scalar, _Unit

    counts = {"_rf_mul": 0, "plain": 0, "unit": 0}

    def counting(fn, key):
        def counted(x, y):
            # A Scalar times an Element hands over to Element.__rmul__.
            if key == "_rf_mul" or isinstance(y, Scalar):
                counts[key] += 1
            return fn(x, y)
        return counted

    patches = [(scalars, "_rf_mul", "_rf_mul"), (Scalar, "__mul__", "plain"),
               (_Unit, "__mul__", "unit"), (_Unit, "__rmul__", "unit")]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    for owner, name, key in patches:
        setattr(owner, name, counting(vars(owner)[name], key))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = superq_main(["verify", "--suite", "all"])
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    if code:
        raise SystemExit(f"superq verify --suite all exited {code}")
    return counts


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
    counts = count_scalar_products()
    print("in one verify --suite all, from empty memo tables:")
    print(f"  _rf_mul calls                       {counts['_rf_mul']:>7}")
    print(f"  Scalar products with a unit factor  {counts['unit']:>7}  (ONE included)")
    print(f"  Scalar products of both classes     {counts['unit'] + counts['plain']:>7}")
    rows = op_times()
    width = max(len(label) for label, _ in rows)
    print(f"{'op':<{width}}  us/op (best of {REPEATS})")
    for label, us in rows:
        print(f"{label:<{width}}  {us:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
