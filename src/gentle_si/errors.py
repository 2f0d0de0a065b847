"""Shared error types and the validation report container."""

from __future__ import annotations

from dataclasses import dataclass, field


class InputError(ValueError):
    """Raised when user-supplied data (model file, system, flags) is malformed."""


class InvariantError(RuntimeError):
    """Raised when an internal consistency check fails.

    Anything raising this is a bug in this package, not a problem with the
    input. The CLI maps it to exit code 2.
    """


def require(cond: bool, msg: str) -> None:
    """Internal invariant check that survives python -O."""
    if not cond:
        raise InvariantError(msg)


@dataclass
class ValidationReport:
    """Outcome of a structural validation pass.

    violations holds (tag, description) pairs; tags are short stable strings
    like "degree", "no-relation-successor", "path" so tests and the CLI can
    key off them without string matching on prose.
    """

    violations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, tag: str, description: str) -> None:
        self.violations.append((tag, description))

    def tags(self) -> set[str]:
        return {t for t, _ in self.violations}

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"tag": t, "description": d} for t, d in self.violations
            ],
        }
