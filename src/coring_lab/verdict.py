"""Axiom verdicts and the clause-table check shared by every verifier in
the package."""

from __future__ import annotations


class AxiomFailure:
    """One violated identity: immutable, equal and hashed by value."""

    __slots__ = ("axiom", "indices", "detail")

    def __init__(self, axiom: str, indices: tuple[int, ...] = (), detail: str = ""):
        object.__setattr__(self, "axiom", axiom)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "detail", detail)

    def __setattr__(self, *a):
        raise AttributeError("AxiomFailure is immutable")

    def _key(self):
        return self.axiom, self.indices, self.detail

    def __eq__(self, other):
        if type(other) is not AxiomFailure:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"AxiomFailure{self._key()!r}"

    def __str__(self):
        where = f" at {self.indices}" if self.indices else ""
        extra = f": {self.detail}" if self.detail else ""
        return f"{self.axiom}{where}{extra}"


class Verdict:
    """A list of axiom failures; empty means the object is valid."""

    def __init__(self, failures: list[AxiomFailure] | None = None):
        self.failures = [] if failures is None else failures

    def fail(self, axiom: str, indices: tuple[int, ...] = (), detail: str = ""):
        self.failures.append(AxiomFailure(axiom, indices, detail))

    @property
    def valid(self) -> bool:
        return not self.failures

    def axioms(self) -> list[str]:
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


def one_failure(axiom: str, indices: tuple[int, ...] = (), detail: str = "") -> Verdict:
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


class ClauseDisagreement(Exception):
    """Equivalent clauses of a theorem evaluated to different booleans."""

    def __init__(self, theorem: str, table: dict[str, bool], detail: str = ""):
        self.theorem = theorem
        self.table = table
        super().__init__(f"clause disagreement in {theorem}: {table} {detail}")


def clause_table(theorem: str, clauses: dict[str, bool], detail: str = "",
                 necessary: tuple[str, ...] = ()) -> dict[str, object]:
    """The one check of an equivalence table: every clause outside
    ``necessary`` must agree, and when they hold the ``necessary`` clauses,
    which the theorem only implies, must hold too.  Returns the table as
    the report writes it, or raises ``ClauseDisagreement``: equivalent
    clauses computed by different routes that disagree mean a bug."""
    values = {v for k, v in clauses.items() if k not in necessary}
    if len(values) != 1 or (True in values and not all(clauses[k] for k in necessary)):
        raise ClauseDisagreement(theorem, clauses, detail)
    return {"theorem": theorem, "clauses": clauses, "agreement": True}
