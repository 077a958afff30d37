"""What Euclid costs: gcd counts of a verify pass, and the gcd-bound sweeps.

Prints two things, standard library only:

  * for one in-process superq.cli.main(["verify", "--suite", "all"]),
    counted from a fresh interpreter (so from empty memo tables) by
    wrapping the functions: the _pgcd calls, the Euclid steps (the calls of
    the division loop _pdivmod that are not an exact division) and the
    exact divisions (_pdiv calls);
  * the seconds of the sweeps where the gcd is the cost, each from empty
    memo tables and each stopped at a time budget:
      - both Haar routes, repn.haar and repn.haar_via_corep_expansion, on
        zeta^n * sigma for n = 1..N, for each N of --haar;
      - x.inv() of 20 seeded scalars with three radical parts (each part
        a sum of 1-3 terms c*t^k over 1-3 such terms), one budget each;
      - the product of two distinct dense canonical scalars (numerator
        degree 30 over denominator degree 24, 7-9 digit Gaussian
        coefficients), whose two cross gcds have degree 0;
      - the Gauss binomial row [n k]_{t^2}, k = 0..n, for n = --row.
    The inputs are those of the scaling tests in tests/test_scalars.py.
    The times are printed, not checked: on a shared machine single runs
    vary by about 15 %.

    PYTHONPATH=src python tools/gcd_sweeps.py [--haar 10,12] [--row 30] [--budget 30]

The budget uses SIGALRM, so it needs a Unix.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import signal
import sys
import time
from fractions import Fraction


def count_gcds() -> dict:
    """{"_pgcd", "steps", "_pdiv": calls} in one verify --suite all."""
    from superq import scalars
    from superq.cli import main as superq_main

    counts = {"_pgcd": 0, "_pdivmod": 0, "_pdiv": 0}
    saved = {name: getattr(scalars, name) for name in counts}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for name, fn in saved.items():
        setattr(scalars, name, counting(name, fn))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = superq_main(["verify", "--suite", "all"])
    finally:
        for name, fn in saved.items():
            setattr(scalars, name, fn)
    if code:
        raise SystemExit(f"superq verify --suite all exited {code}")
    # Each exact division runs the division loop once; every other run of
    # it is one step of a gcd.
    return {"_pgcd": counts["_pgcd"], "steps": counts["_pdivmod"] - counts["_pdiv"],
            "_pdiv": counts["_pdiv"]}


class OverBudget(Exception):
    pass


def _alarm(_signum, _frame):
    raise OverBudget


def timed(fn, budget: float):
    """(seconds, result) of fn(), from empty memo tables; (None, None)
    when fn runs past budget seconds."""
    from superq import _cache

    _cache.clear()
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        out = fn()
    except OverBudget:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t0, out


def haar_sweep(n_max: int) -> None:
    from superq import repn
    from superq.algebra import Element, zeta_power

    sigma = Element.generator("sigma")
    for n in range(1, n_max + 1):
        x = zeta_power(n) * sigma
        repn.haar(x)
        repn.haar_via_corep_expansion(x)


def three_part_scalar(rng):
    """A scalar with three of the four radical masks, each part a sum of 1-3
    terms c*t^k over a sum of 1-3 such terms, c = a/d1 + (b/d2)*i with
    |a| <= 3, |b| <= 2, d1 <= 4, d2 <= 3 and k in -2..3."""
    from superq.scalars import KAPPA, ONE, SQRT_1_PLUS_T2, ZERO, Scalar

    def laurent():
        out = ZERO
        for _ in range(rng.randint(1, 3)):
            c = Scalar.from_gauss(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                  Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            out = out + c * Scalar.t_power(rng.randint(-2, 3))
        return out
    while True:
        x = ZERO
        for mask in rng.sample(range(4), 3):
            num, den = laurent(), laurent()
            if den:
                x = x + num / den * (SQRT_1_PLUS_T2 if mask & 1 else ONE) * (KAPPA if mask & 2 else ONE)
        if len(x.parts) == 3:
            return x


def dense_scalar(rng):
    """A canonical radical-free scalar, numerator degree 30 over denominator
    degree 24, 7-9 digit Gaussian coefficients."""
    from superq import scalars

    def dense(deg):
        def coeff():
            return rng.choice([-1, 1]) * rng.randint(10**6, 10**9 - 1)
        return {e: (coeff(), coeff()) for e in range(deg + 1)}, 1
    return scalars.Scalar({0: scalars._rf_canon(dense(30), dense(24))})


def gauss_row(n: int) -> None:
    from superq.qfun import gauss_binomial
    from superq.scalars import T

    v = T * T
    for k in range(n + 1):
        gauss_binomial(n, k, v)


def _fmt(seconds) -> str:
    return "over budget" if seconds is None else f"{seconds:.3f} s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--haar", default="10,12",
                    help="comma-separated N of the Haar sweeps (default 10,12)")
    ap.add_argument("--row", type=int, default=30, help="Gauss binomial row (default 30)")
    ap.add_argument("--budget", type=float, default=30.0,
                    help="seconds allowed to each sweep, and to each inverse (default 30)")
    args = ap.parse_args(argv)
    from superq.scalars import ONE

    counts = count_gcds()
    print("in one verify --suite all, from empty memo tables:")
    print(f"  _pgcd calls                  {counts['_pgcd']:>7}")
    print(f"  Euclid steps                 {counts['steps']:>7}")
    print(f"  exact divisions (_pdiv)      {counts['_pdiv']:>7}")

    print(f"sweeps, from empty memo tables, each capped at {args.budget:g} s:")
    for n in (int(s) for s in args.haar.split(",")):
        took, _ = timed(lambda n=n: haar_sweep(n), args.budget)
        print(f"  Haar, both routes, zeta^n*sigma, n = 1..{n:<3} {_fmt(took)}")

    rng = random.Random(1)
    scalars3 = [three_part_scalar(rng) for _ in range(20)]
    times, wrong = [], 0
    for x in scalars3:
        took, y = timed(x.inv, args.budget)
        times.append(took)
        if took is not None and x * y != ONE:
            wrong += 1
    done = [s for s in times if s is not None]
    print(f"  three-part inverses          {len(done)} of 20 within budget, "
          f"slowest {max(done, default=0):.3f} s, total {sum(done):.3f} s"
          + (f", {wrong} WRONG" if wrong else ""))

    rng = random.Random(31)
    x, y = dense_scalar(rng), dense_scalar(rng)
    took, _ = timed(lambda: x * y, args.budget)
    print(f"  dense coprime product        {_fmt(took)}")

    took, _ = timed(lambda: gauss_row(args.row), args.budget)
    print(f"  Gauss binomial row {args.row:<3}       {_fmt(took)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
