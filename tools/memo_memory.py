"""How much memory each memo table holds after one `superq verify --suite all`.

Runs superq.cli.main(["verify", "--suite", "all"]) in-process under
tracemalloc, then clears the *_cache tables one at a time and prints, for
each, its entry count and the traced memory its clearing freed, plus the
total.  An object shared by several tables is freed, and so counted, by the
last of them to be cleared.  Standard library only:

    PYTHONPATH=src python tools/memo_memory.py
"""

from __future__ import annotations

import contextlib
import gc
import io
import sys
import tracemalloc

MIB = 1 << 20


def memo_tables():
    """{module.attr: table} for every module-level *_cache dict of superq."""
    return {f"{name}.{attr}": table
            for name, mod in sorted(sys.modules.items()) if name.startswith("superq.")
            for attr, table in sorted(vars(mod).items())
            if attr.endswith("_cache") and isinstance(table, dict)}


def main() -> int:
    from superq.cli import main as superq_main

    tracemalloc.start()
    with contextlib.redirect_stdout(io.StringIO()):
        code = superq_main(["verify", "--suite", "all"])
    if code:
        print(f"superq verify --suite all exited {code}", file=sys.stderr)
        return code
    gc.collect()
    peak = tracemalloc.get_traced_memory()[1]
    rows = []
    for name, table in memo_tables().items():
        entries = len(table)
        before = tracemalloc.get_traced_memory()[0]
        table.clear()
        gc.collect()
        rows.append((name, entries, (before - tracemalloc.get_traced_memory()[0]) / MIB))
    tracemalloc.stop()
    width = max(len(name) for name, _, _ in rows)
    for name, entries, mib in rows:
        print(f"{name:<{width}}  {entries:>7} entries  {mib:8.3f} MiB")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>7} entries  "
          f"{sum(r[2] for r in rows):8.3f} MiB  (traced peak {peak / MIB:.3f} MiB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
