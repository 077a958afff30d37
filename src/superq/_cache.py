"""The memo tables and their optional size cap.

Every memo table is a module-level dict named *_cache, registered in
TABLES and filled only by memo or by store.  The memo(table) decorator
registers its table and keys it on the decorated function's positional
argument tuple: a miss computes the result and stores it.  A decorated
function may also store(), under the same key convention, the results of
later calls that it builds on the way (prefixes of a product).  A table
read by hand on a hot path, such as those of the shared unit scalars in
scalars, is registered with register(), and its reader calls store() on a
miss.  clear() empties every registered table.

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


def set_limit(n: Optional[int]) -> None:
    global LIMIT
    LIMIT = n


def clear() -> None:
    for table in TABLES:
        table.clear()


def store(table: dict, key: tuple, value) -> None:
    """table[key] = value, clearing table first when it holds over LIMIT."""
    if LIMIT is not None and len(table) > LIMIT:
        table.clear()
    table[key] = value


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
                out = fn(*args)
                store(table, args, out)
            return out
        return cached
    return decorate
