"""Tiny result type shared by every verification routine."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    name: str
    failures: list[str] = field(default_factory=list)
    # Why the check did not run, when it could not apply to the array.
    skipped: str = ""

    def ok(self) -> bool:
        return not self.failures

    def add(self, message: str) -> None:
        self.failures.append(message)
