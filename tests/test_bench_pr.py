"""The counters of tools/bench_pr.py: what counts as a product, and that
every patched attribute comes back."""

import importlib.util
import time
import tracemalloc
from pathlib import Path

import pytest

from superq import _cache, algebra, dual, linalg, repn, scalars, spheres
from superq.algebra import Element
from superq.dual import Functional
from superq.scalars import ONE, T, Scalar, _Unit

_spec = importlib.util.spec_from_file_location(
    "bench_pr", Path(__file__).resolve().parent.parent / "tools" / "bench_pr.py")
bench_pr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pr)

PATCHED = [(scalars, "_rf_mul"), (scalars, "_pgcd"), (scalars, "_pdivmod"),
           (scalars, "_pdiv"), (Scalar, "__mul__"), (_Unit, "__mul__"), (_Unit, "__rmul__"),
           (algebra, "_mono_mul"), (algebra, "_mono_mul_tabled"),
           (dual, "_eval_word_mono"), (dual, "_eval_long_word")]


def counts_of(fn):
    with bench_pr.counting() as counts:
        fn()
    return counts


def test_counting_restores_every_attribute_also_on_error():
    before = [vars(owner)[name] for owner, name in PATCHED]
    with pytest.raises(RuntimeError):
        with bench_pr.counting():
            assert all(vars(owner)[name] is not fn
                       for (owner, name), fn in zip(PATCHED, before))
            raise RuntimeError
    assert all(vars(owner)[name] is fn for (owner, name), fn in zip(PATCHED, before))


def test_plain_product_counts_once_as_plain():
    x, y = ONE + T, T - T * T       # sums are plain Scalars, not units
    assert type(x) is type(y) is Scalar
    counts = counts_of(lambda: x * y)
    assert (counts["plain"], counts["unit"]) == (1, 0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_product_counts_once_as_unit(side):
    x = ONE + T
    assert type(T) is _Unit
    counts = counts_of(lambda: T * x if side == "left" else x * T)
    assert (counts["plain"], counts["unit"]) == (0, 1)


@pytest.mark.parametrize("c", [ONE + T, T], ids=["plain", "unit"])
def test_scalar_times_element_hand_off_is_not_counted(c):
    # c * a hands over to Element.__rmul__, which scales a's coefficient
    # by c: that product is the only one counted.
    a = Element.generator("a")
    assert counts_of(lambda: c * a) == counts_of(lambda: a.scale(c))


def test_plain_scalars_counts_objects_once_and_skips_units():
    x, y = ONE + T, ONE + T         # equal values, two objects
    assert x is not y
    e = Element.generator("a").scale(x)
    found = bench_pr.plain_scalars([{"k": (("a", x), ("b", T))}, [y, ONE], e])
    assert set(found) == {id(x), id(y)} and len(set(found.values())) == 1


@pytest.mark.parametrize("x, y, tabled", [("a", "b", 0), ("b", "d", 0), ("d", "a", 1),
                                          ("a", "d", 1)])
def test_mono_mul_counts_calls_and_table_calls(x, y, tabled):
    # d a moves d past a, and a d needs ad = sigma - t bc: only those two
    # reach _mono_mul's table.
    gx, gy = Element.generator(x), Element.generator(y)
    counts = counts_of(lambda: gx * gy)
    assert (counts["_mono_mul"], counts["_mono_mul_tabled"]) == (1, tabled)


@pytest.mark.parametrize("g, calls, walks", [("b", 1, 0), ("a", 2, 1)])
def test_eval_word_mono_counts_calls_and_walks(g, calls, walks):
    # ef is decided zero on b by its weight; on a it walks Delta(a) =
    # a ox a + b ox c, and f is called on c, the one leg e does not kill.
    ef, x = Functional.word("e", "f"), Element.generator(g)
    _cache.clear()
    counts = counts_of(lambda: ef(x))
    assert (counts["_eval_word_mono"], counts["_eval_long_word"]) == (calls, walks)


def test_plain_product_of_stored_values_counts_a_memo_hit():
    _cache.clear()
    x, y = scalars.share(ONE + T), scalars.share(T - T * T)
    counts = counts_of(lambda: (x * y, x * y, (ONE + T) * y))
    assert (counts["plain"], counts["plain_memo_hits"]) == (3, 1)


def test_table_sizes_hold_the_product_memo():
    _cache.clear()
    x, y = scalars.share(ONE + T), scalars.share(T - T * T)
    tracemalloc.start()
    try:
        x * y
        sizes = bench_pr.table_sizes()
    finally:
        tracemalloc.stop()
    assert sizes["superq.scalars._product_cache"]["entries"] == 1
    # x, y and their product, which the memo stores through the share step
    assert sizes["superq.scalars._share_id_cache"]["entries"] == 3
    assert all(set(sizes[f"superq.scalars.{t}"]) == {"entries", "mib"}
               for t in ("_product_cache", "_share_id_cache"))
    assert not any(_cache.TABLES)


def test_haar_alone_sweep_checks_each_value(monkeypatch):
    took, wrong = bench_pr.haar_alone(6)
    assert took is not None and wrong == 0
    real = repn.haar
    monkeypatch.setattr(repn, "haar", lambda x: real(x) + ONE)
    assert bench_pr.haar_alone(6)[1] == 1


@pytest.mark.parametrize("budget", [1e-6, 0.05])
def test_haar_alone_sweep_over_budget_reads_null(monkeypatch, budget):
    # 1e-6 s: the alarm may fire before fn starts
    monkeypatch.setattr(bench_pr, "BUDGET_S", budget)
    monkeypatch.setattr(repn, "haar", lambda x: time.sleep(1))
    assert bench_pr.haar_alone(bench_pr.HAAR_ALONE_N) == (None, 0)


def test_d_power_a_power_sweep_checks_each_value(monkeypatch):
    took, wrong = bench_pr.da_power(6)
    assert took is not None and wrong == 0
    real = algebra._mono_mul_tabled

    def off_by_sigma(m1, m2, ring):       # sigma^(n-r) read as sigma^(n-r+1)
        return tuple(((m[:4] + (1 - m[4],)), c) for m, c in real(m1, m2, ring))

    monkeypatch.setattr(algebra, "_mono_mul_tabled", off_by_sigma)
    assert bench_pr.da_power(6)[1] == 1


def test_d_power_a_power_sweep_over_budget_reads_null(monkeypatch):
    monkeypatch.setattr(bench_pr, "BUDGET_S", 0.05)
    monkeypatch.setattr(Element, "__pow__", lambda x, n: time.sleep(1))
    assert bench_pr.da_power(bench_pr.DA_N) == (None, 0)



def test_sphere_rank_sweep_checks_full_rank(monkeypatch):
    took, wrong = bench_pr.sphere_rank(4)
    assert took is not None and wrong == 0
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: real(rows) - 1)
    assert bench_pr.sphere_rank(4)[1] == 1


def test_sphere_rank_sweep_over_budget_reads_null(monkeypatch):
    monkeypatch.setattr(bench_pr, "BUDGET_S", 0.05)
    monkeypatch.setattr(spheres, "x_vector", lambda p: time.sleep(1))
    assert bench_pr.sphere_rank(bench_pr.SPHERE_N) == (None, 0)
