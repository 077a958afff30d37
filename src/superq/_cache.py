"""Optional cap for the internal memo tables.

The memo tables (the module-level *_cache dicts) are observationally pure;
by default they grow without bound (desk-scale workloads stay small).  The
CLI's --cache-size flag sets a limit.  Every table calls trim() before each
insert, and a table that holds more than the limit is cleared, so none ever
holds more than limit + 1 entries.
"""

from __future__ import annotations

from typing import Optional

LIMIT: Optional[int] = None


def set_limit(n: Optional[int]) -> None:
    global LIMIT
    LIMIT = n


def trim(table: dict) -> None:
    if LIMIT is not None and len(table) > LIMIT:
        table.clear()
