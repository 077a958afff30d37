"""Shared pass/fail report for the verification suites."""

from __future__ import annotations

from typing import Any, List


class Report:
    __slots__ = ("checked", "failures", "notes")

    def __init__(self):
        self.checked = 0
        self.failures: List[dict] = []
        self.notes: List[str] = []

    def check(self, label: str, ok: bool, lhs: Any = None, rhs: Any = None):
        self.checked += 1
        if not ok:
            self.failures.append({"input": label, "lhs": str(lhs), "rhs": str(rhs)})

    def note(self, text: str):
        self.notes.append(text)

    def merge(self, other: "Report") -> "Report":
        self.checked += other.checked
        self.failures.extend(other.failures)
        self.notes.extend(other.notes)
        return self

    @property
    def ok(self) -> bool:
        """True when something was checked and nothing failed."""
        return self.checked > 0 and not self.failures

    def to_json(self):
        out = {"checked": self.checked, "failures": self.failures}
        if self.notes:
            out["notes"] = self.notes
        return out

    def __str__(self):
        status = "pass" if self.ok else "FAIL"
        head = f"{status}: {self.checked} checks, {len(self.failures)} failures"
        lines = [head]
        for f in self.failures[:5]:
            lines.append(f"  {f['input']}: {f['lhs']} != {f['rhs']}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)
