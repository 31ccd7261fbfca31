"""Axiom verdicts shared by every verifier in the package."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    indices: Tuple[int, ...] = ()
    detail: str = ""

    def __str__(self):
        where = f" at {self.indices}" if self.indices else ""
        extra = f": {self.detail}" if self.detail else ""
        return f"{self.axiom}{where}{extra}"


@dataclass
class Verdict:
    """A list of axiom failures; empty means the object is valid."""

    failures: List[AxiomFailure] = field(default_factory=list)

    def fail(self, axiom: str, indices: Tuple[int, ...] = (), detail: str = ""):
        self.failures.append(AxiomFailure(axiom, indices, detail))

    @property
    def valid(self) -> bool:
        return not self.failures

    def axioms(self) -> List[str]:
        return [f.axiom for f in self.failures]

    def __bool__(self):
        return self.valid

    def __str__(self):
        if self.valid:
            return "valid"
        return "; ".join(str(f) for f in self.failures)

    def to_json(self):
        return {
            "valid": self.valid,
            "failures": [
                {"axiom": f.axiom, "indices": list(f.indices), "detail": f.detail}
                for f in self.failures
            ],
        }


def one_failure(axiom: str, indices: Tuple[int, ...] = (), detail: str = "") -> Verdict:
    """A verdict holding the single failure given."""
    v = Verdict()
    v.fail(axiom, indices, detail)
    return v


class VerificationError(Exception):
    """Raised when a construction is handed an object that fails its axioms."""

    def __init__(self, context: str, verdict: Verdict):
        self.context = context
        self.verdict = verdict
        super().__init__(f"{context}: {verdict}")
