"""The memo tables and their optional size cap.

Every memo table is a module-level dict named *_cache, registered in
TABLES and filled only by memo, store or put.  The memo(table) decorator
registers its table and keys it on the decorated function's positional
argument tuple: a miss computes the result, stores it as store() does
and returns the stored value.  A decorated function may also store(),
under the same key convention, the results of later calls that it builds
on the way (prefixes of a product).  A table read by hand on a hot path,
such as those of the shared unit scalars in scalars, is registered with
register(), and its reader calls store() or put() on a miss.  clear()
empties every registered table.

memo and store keep one object per scalar value: they store
share(value), which scalars sets to its share step (scalars.share).
Every plain Scalar a memo table stores, bare or as a coefficient of a
tuple of (key, Scalar) pairs, a dict, an Element or a Tensor, is then the
one shared object for its value, held in scalars._share_cache (a value
+-t^k is the shared unit), until a cap or clear() empties that table.
Capped, equal values may again be distinct objects, so `is` stays a
short-cut in front of ==.  put() stores a value as it is: scalars fills
its tables of shared atoms with it.

Two tables of scalars are keyed by identity, not by value:
scalars._share_id_cache, {id(x): x} over the stored values, and the
product memo scalars._product_cache, {(id(x), id(y)): (x, y, x*y)}.  Each
entry holds the objects whose ids key it, so no such id can pass to
another object while the entry exists.  A table keyed by id that held
only its result would answer for whatever object is later made at a freed
address.

The tables are observationally pure; by default they grow without bound
(desk-scale workloads stay small).  The CLI's --cache-size flag sets a
limit (set_limit).  Before each insert a table that holds more than the
limit is cleared, so none ever holds more than limit + 1 entries.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional

LIMIT: Optional[int] = None
TABLES: List[dict] = []


def share(value):
    """The value memo and store() put in a table; scalars replaces this
    identity with its share step when it is imported."""
    return value


def set_limit(n: Optional[int]) -> None:
    global LIMIT
    LIMIT = n


def clear() -> None:
    for table in TABLES:
        table.clear()


def put(table: dict, key, value) -> None:
    """table[key] = value, clearing table first when it holds over LIMIT."""
    if LIMIT is not None and len(table) > LIMIT:
        table.clear()
    table[key] = value


def store(table: dict, key: tuple, value) -> None:
    """put(table, key, share(value))."""
    put(table, key, share(value))


def register(table: dict) -> None:
    """Let clear() and the size limit reach table."""
    TABLES.append(table)


def memo(table: dict) -> Callable[[Callable], Callable]:
    """Cache a function's results in table, keyed on its argument tuple."""
    register(table)

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def cached(*args):
            out = table.get(args)
            if out is None:     # not truthiness: ZERO and {} are results too
                out = share(fn(*args))
                put(table, args, out)
            return out
        return cached
    return decorate
