"""One profiling pass of superq, printed as one JSON document.

    PYTHONPATH=src python tools/bench_pr.py > BENCH.json

Takes no options.  Runs in one interpreter with PYTHONHASHSEED=0, as
perfbench's workers do (it restarts itself with it), in this order:

  1. "gc": one verify_all pass at seed 1 through perfbench/worker.py's own
     functions, first, with only superq.cli imported, as a worker runs it.
     Each generation-1 and -2 collection with its raw duration and the op
     it landed in; the 11 slowest ops (op_tail_ms is the 11th, scaled as
     perfbench scales it) with the collector time in each; the 11th again
     with the pauses taken out; each suite's seconds ("suite_s", the sum
     of its ops' scaled times, untraced).
  2. "verify", "memo": from empty memo tables, one run of every suite of
     superq.suites.SUITES at its defaults, as `superq verify --suite all`
     runs them, under tracemalloc and `counting()`: the counts (among them
     the _mono_mul calls against those that reach its table, the
     _eval_word_mono calls against those that walk the coproduct, and the
     plain Scalar products the product memo answers), and each
     suite's checks; then each *_cache table's entries
     and the traced MiB freed by clearing it (an object shared by several
     tables counts for the last one cleared, so a shared coefficient counts
     for scalars._share_id_cache or a later table; compare the total), and the
     plain Scalar objects the tables hold (each once) and their distinct
     values, which the memo tables' share step keeps equal.
  3. "ops_us": one + and one * of small values of each sparse-sum class,
     the best of 7 timeit repeats with warm memo tables.
  4. "sweeps": the gcd-bound sweeps, each from empty memo tables and each
     stopped (null) after BUDGET_S: both Haar routes on zeta^n sigma
     ("haar_both_routes_s") and on zeta^n ("haar_zeta_both_routes_s"),
     n = 1..N for each N of HAAR_N; haar alone on zeta^n sigma,
     n = 1..HAAR_ALONE_N ("haar_alone_zeta_sigma_s"); d^n a^n in A(sigma),
     n = 1..DA_N ("d_power_a_power_s"); and the inputs of the
     scaling tests in tests/test_scalars.py (so the test extra must be
     installed).

Times are reported, never checked: single runs on a shared machine vary by
tens of percent.  The exit status is 1 when the verify pass fails, when an
op of the gc pass fails or is wrong (a suite check count other than
perfbench/expected.json's included), or when a sweep result is wrong.  The
budget uses SIGALRM, so it needs a Unix.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import signal
import sys
import time
import timeit
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD, SEED = "verify_all", 1
TAIL_RANK = 11          # op_tail_ms is the 11th slowest op of a pass
HAAR_N = (10, 12, 16, 24)
HAAR_ALONE_N = 40
DA_N = 40
ROW = 30
BUDGET_S = 30.0
REPEATS, NUMBER = 7, 2000
MIB = 1 << 20


def gc_pass() -> dict:
    """Where the collector pauses in one verify_all pass at SEED."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import superq.cli  # noqa: F401  (imported before the pass, as worker.main does)
    import worker
    from speed import clock

    collections, started = [], {}

    def hook(phase, info):
        if phase == "start":
            started[0] = clock()
        elif info["generation"] >= 1:
            collections.append((info["generation"], started[0], clock()))

    run = worker.Pass(None)
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    gc.callbacks.append(hook)
    try:
        suite_s = worker.run_verify_all(SEED, run, expected["verify_checks"])["suite_s"]
        labels = [label for _suite, label, _fn in worker._verify_ops(SEED)]
    finally:
        gc.callbacks.remove(hook)

    starts = [start for start, _ in run.op_bounds]
    pause_ms = [0.0] * len(starts)      # raw collector time inside each op
    rows = []
    for generation, start, end in collections:
        k = bisect_right(starts, start) - 1
        inside = k >= 0 and start < run.op_bounds[k][1]
        if inside:
            pause_ms[k] += 1e3 * (end - start)
        rows.append({"generation": generation, "raw_ms": round(1e3 * (end - start), 3),
                     "op": f"op {k}: {labels[k]}" if inside else None})
    # Scaled times, as perfbench/run.py reads them; a pause is scaled by its
    # op's own factor.
    scale = [s / r if r else 1.0 for s, r in zip(run.op_s, run.raw_op_s)]
    ranked = sorted(range(len(starts)), key=lambda k: run.op_s[k], reverse=True)
    without = sorted((1e3 * run.op_s[k] - pause_ms[k] * scale[k] for k in ranked),
                     reverse=True)
    return {
        "workload": WORKLOAD, "seed": SEED, "ops": len(starts), "collections": rows,
        "slowest": [{"scaled_ms": round(1e3 * run.op_s[k], 3), "op": labels[k],
                     "collecting_raw_ms": round(pause_ms[k], 3)}
                    for k in ranked[:TAIL_RANK]],
        "tail_ms": round(1e3 * run.op_s[ranked[TAIL_RANK - 1]], 3),
        "tail_ms_without_pauses": round(without[TAIL_RANK - 1], 3),
        "suite_s": {name: round(sec, 3) for name, sec in suite_s.items()},
        "failed": sum(run.failed.values()), "wrong": run.wrong, "problems": run.problems,
    }


@contextlib.contextmanager
def counting():
    """Counts, while the body runs, the calls of _rf_mul, _pgcd, _pdivmod
    and _pdiv and the Scalar products; yields {name: calls}.  A product
    counts where it starts: Scalar.__mul__ for two plain Scalars ("plain"),
    _Unit.__mul__ or _Unit.__rmul__ for a unit, +-t^k, on either side
    ("unit").  A product whose right operand is no Scalar hands over to
    that operand's __rmul__ (a Scalar times an Element) and is not counted.
    A plain product whose (id, id) key the product memo
    (scalars._product_cache) holds when it starts is also counted as a hit
    ("plain_memo_hits"): uncapped, exactly the products the memo answers.
    Also counted are the calls of algebra._mono_mul and dual._eval_word_mono
    and of the memoised functions behind their closed forms,
    _mono_mul_tabled and _eval_long_word (the walk), table hits included.
    Every patched attribute is restored on exit, also when the body raises."""
    from superq import algebra, dual, scalars
    from superq.scalars import Scalar, _Unit

    targets = [(scalars, name, name) for name in ("_rf_mul", "_pgcd", "_pdivmod", "_pdiv")]
    targets += [(Scalar, "__mul__", "plain"), (_Unit, "__mul__", "unit"),
                (_Unit, "__rmul__", "unit")]
    targets += [(algebra, name, name) for name in ("_mono_mul", "_mono_mul_tabled")]
    targets += [(dual, name, name) for name in ("_eval_word_mono", "_eval_long_word")]
    counts = {key: 0 for _, _, key in targets}
    counts["plain_memo_hits"] = 0
    memo = scalars._product_cache

    def wrap(fn, key):
        product = key in ("plain", "unit")

        def counted(*args):
            if not product or isinstance(args[1], Scalar):
                counts[key] += 1
                if key == "plain" and (id(args[0]), id(args[1])) in memo:
                    counts["plain_memo_hits"] += 1
            return fn(*args)
        return counted

    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in targets]
    try:
        for owner, name, key in targets:
            setattr(owner, name, wrap(vars(owner)[name], key))
        yield counts
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def plain_scalars(tables) -> dict:
    """{id(x): x} over the plain Scalars x (units excluded) reachable from
    tables through tuples, dicts (keys and values), the terms of a sparse
    sum and the fields of any other object with __slots__."""
    from superq.scalars import Scalar

    found, todo = {}, list(tables)
    while todo:
        v = todo.pop()
        if type(v) is Scalar:
            found[id(v)] = v
        elif isinstance(v, (tuple, list)):
            todo.extend(v)
        elif isinstance(v, dict):
            todo.extend(v)
            todo.extend(v.values())
        elif not isinstance(v, Scalar):
            todo.extend(getattr(v, f, None) for c in type(v).__mro__
                        for f in getattr(c, "__slots__", ()))
    return found


def table_sizes() -> dict:
    """{"<module>.<table>": {"entries": n, "mib": traced MiB freed}} over
    every *_cache table of superq, each cleared in turn, in name order.
    tracemalloc must be tracing."""
    tables = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("superq."):
            continue
        for attr, table in sorted(vars(mod).items()):
            if attr.endswith("_cache") and isinstance(table, dict):
                entries, before = len(table), tracemalloc.get_traced_memory()[0]
                table.clear()
                gc.collect()
                freed = (before - tracemalloc.get_traced_memory()[0]) / MIB
                tables[f"{name}.{attr}"] = {"entries": entries, "mib": round(freed, 3)}
    return tables


def verify_pass() -> tuple:
    """The "verify" and "memo" sections of one pass over every suite."""
    from superq import _cache, suites

    _cache.clear()
    gc.collect()    # also empties the free lists, whose reuse tracemalloc misses
    tracemalloc.start()
    per_suite, failed = {}, 0
    with counting() as counts:
        for name in suites.SUITES:
            rep = suites.run(name)
            per_suite[name] = {"checks": rep.checked}
            failed += not rep.ok
    gc.collect()
    peak = tracemalloc.get_traced_memory()[1]
    held = plain_scalars(_cache.TABLES)
    scalar_counts = {"plain_scalar_objects": len(held),
                     "plain_scalar_values": len(set(held.values()))}
    del held        # else clearing the tables below would free none of them
    tables = table_sizes()
    tracemalloc.stop()
    # Each exact division runs the division loop once; every other run of it
    # is one step of a gcd.
    verify = {"exit": 1 if failed else 0, "_rf_mul": counts["_rf_mul"],
              "unit_products": counts["unit"],
              "plain_products": counts["plain"], "plain_memo_hits": counts["plain_memo_hits"],
              "products": counts["unit"] + counts["plain"],
              "_pgcd": counts["_pgcd"], "euclid_steps": counts["_pdivmod"] - counts["_pdiv"],
              "_pdiv": counts["_pdiv"],
              "_mono_mul": {"calls": counts["_mono_mul"], "tabled": counts["_mono_mul_tabled"]},
              "_eval_word_mono": {"calls": counts["_eval_word_mono"],
                                  "walks": counts["_eval_long_word"]},
              "suites": per_suite}
    memo = {"tables": tables, "entries": sum(t["entries"] for t in tables.values()),
            "mib": round(sum(t["mib"] for t in tables.values()), 3),
            "traced_peak_mib": round(peak / MIB, 3), **scalar_counts}
    return verify, memo


def op_times() -> dict:
    """{"<class> <op> <class>": microseconds per op} for + and * of each class."""
    from superq.algebra import Element
    from superq.dual import Functional
    from superq.hopf import coproduct
    from superq.qfun import QPolynomial
    from superq.scalars import ONE, T, T_INV

    a, b, c, d, s = (Element.generator(g) for g in ("a", "b", "c", "d", "sigma"))
    operands = {
        "Element": (a + b.scale(T) * c, d - s),
        "Tensor": (coproduct(a), coproduct(b)),
        "Functional": (Functional.word("k") + Functional.word("e", coeff=T),
                       Functional.word("f", "K") - Functional.counit()),
        "QPolynomial": (QPolynomial({0: ONE, 1: T}), QPolynomial({1: ONE, 2: T_INV})),
    }
    out = {}
    for name, (x, y) in operands.items():
        for sym, fn in (("+", lambda: x + y), ("*", lambda: x * y)):
            fn()                                    # fill the memo tables
            best = min(timeit.repeat(fn, repeat=REPEATS, number=NUMBER))
            out[f"{name} {sym} {name}"] = round(best / NUMBER * 1e6, 2)
    return out


def timed(fn):
    """(seconds, result) of fn() from empty memo tables; (None, None) when
    it runs past BUDGET_S."""
    from superq import _cache

    def alarm(_signum, _frame):
        raise TimeoutError

    _cache.clear()
    old = signal.signal(signal.SIGALRM, alarm)
    t0 = time.perf_counter()
    try:
        # armed inside the try, so an alarm that fires at once is caught too
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        out = fn()
    except TimeoutError:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return round(time.perf_counter() - t0, 3), out


def haar_alone(n: int) -> tuple:
    """(seconds or None, wrong results) of repn.haar on zeta^j sigma,
    j = 1..n, from empty memo tables; h(zeta^j sigma) must be
    t^j / [j+1]_t."""
    from superq import repn
    from superq.algebra import Element, zeta_power
    from superq.scalars import Scalar

    xs = [zeta_power(j) * Element.generator("sigma") for j in range(1, n + 1)]
    took, hs = timed(lambda: [repn.haar(x) for x in xs])
    wrong = took is not None and any(h * repn.bracket_t(j + 1) != Scalar.t_power(j)
                                     for j, h in enumerate(hs, 1))
    return took, int(wrong)


def da_power(n: int) -> tuple:
    """(seconds or None, wrong results) of d^j * a^j in A(sigma), j = 1..n,
    from empty memo tables.  d^j a^j = prod_(k<j) (sigma - t^(-1-2k) bc) has
    j + 1 terms c_r b^r c^r sigma^(j-r), c_0 = 1, and vanishes at sigma = 1,
    bc = t, where (bc)^r = (-1)^(r(r-1)/2) b^r c^r."""
    from superq.algebra import Element
    from superq.scalars import ONE, ZERO, signed_t_power

    a, d = Element.generator("a"), Element.generator("d")
    took, xs = timed(lambda: [d ** j * a ** j for j in range(1, n + 1)])
    wrong = 0
    for j, x in enumerate(xs or (), 1):
        at_root = ZERO
        for r in range(j + 1):
            at_root += signed_t_power(r * (r - 1) // 2, r) * x.terms.get((0, r, r, 0, (j - r) % 2), ZERO)
        wrong += len(x.terms) != j + 1 or x.terms.get((0, 0, 0, 0, j % 2)) != ONE or bool(at_root)
    return took, int(bool(wrong))


def sweeps() -> dict:
    """The "sweeps" section.  Each result is checked
    after its timing: the two Haar routes agree, haar alone meets the
    closed form t^n / [n+1]_t on zeta^n sigma, d^n a^n has the terms and
    the zero of da_power, x * x.inv() is 1, the
    dense product specialises to the product of the specialisations, and
    the row satisfies Gauss's sum_k (-1)^k v^(k(k-1)/2) [n k]_v = 0."""
    from superq import repn
    from superq.algebra import Element, zeta_power
    from superq.qfun import gauss_binomial
    from superq.scalars import ONE, T, ZERO
    sys.path.insert(0, str(ROOT / "tests"))
    # sympy comes with this import, so it waits until after the gc pass.
    from test_scalars import _dense_scalar, _three_part_scalar

    sigma, v = Element.generator("sigma"), T * T
    out, wrong = {"budget_s": BUDGET_S}, 0
    # haar takes the closed form h(zeta^n) and haar_via_corep_expansion the
    # recurrence's lambda_n, on zeta^n sigma and on zeta^n alike.
    for key, tail in (("haar_both_routes_s", sigma), ("haar_zeta_both_routes_s", Element.one())):
        out[key] = {}
        for n in HAAR_N:
            xs = [zeta_power(j) * tail for j in range(1, n + 1)]
            took, pairs = timed(lambda: [(repn.haar(x), repn.haar_via_corep_expansion(x))
                                         for x in xs])
            out[key][f"n=1..{n}"] = took
            wrong += took is not None and any(h != g for h, g in pairs)
    took, bad = haar_alone(HAAR_ALONE_N)
    out["haar_alone_zeta_sigma_s"] = {f"n=1..{HAAR_ALONE_N}": took}
    wrong += bad
    took, bad = da_power(DA_N)
    out["d_power_a_power_s"] = {f"n=1..{DA_N}": took}
    wrong += bad

    rng = random.Random(1)
    times = []
    for x in [_three_part_scalar(rng) for _ in range(20)]:
        took, y = timed(x.inv)
        times.append(took)
        wrong += took is not None and x * y != ONE
    done = [s for s in times if s is not None]
    out["three_part_inverses"] = {"within_budget": len(done), "of": len(times),
                                  "slowest_s": max(done, default=None),
                                  "total_s": round(sum(done), 3)}

    rng = random.Random(31)
    x, y = _dense_scalar(rng), _dense_scalar(rng)
    took, z = timed(lambda: x * y)
    out["dense_coprime_product_s"] = took
    at = Fraction(3, 2)
    wrong += took is not None and z.specialize_t(at) != x.specialize_t(at) * y.specialize_t(at)

    took, row = timed(lambda: [gauss_binomial(ROW, k, v) for k in range(ROW + 1)])
    out["gauss_binomial_row_s"] = {f"n={ROW}": took}
    if took is not None:
        total = ZERO
        for k, c in enumerate(row):
            term = v ** (k * (k - 1) // 2) * c
            total = total - term if k % 2 else total + term
        wrong += bool(total)
    out["wrong"] = wrong
    return out


def main() -> int:
    if sys.argv[1:]:
        print(f"usage: {sys.argv[0]} (it takes no arguments)", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    doc = {"gc": gc_pass()}
    doc["verify"], doc["memo"] = verify_pass()
    doc["ops_us"] = op_times()
    doc["sweeps"] = sweeps()
    json.dump(doc, sys.stdout, indent=1)
    print()
    bad = {"verify exit status": doc["verify"]["exit"], "gc ops failed": doc["gc"]["failed"],
           "gc ops wrong": doc["gc"]["wrong"], "sweep results wrong": doc["sweeps"]["wrong"]}
    bad = {what: n for what, n in bad.items() if n}
    if bad:
        print(f"{bad}; {doc['gc']['problems'][:3]}", file=sys.stderr)
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
