"""The one result type of an identity check: the two exact sides it compares."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """An identity lhs = rhs; it holds iff the two sides are equal exactly."""

    lhs: object
    rhs: object

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs
