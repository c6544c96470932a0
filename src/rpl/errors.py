"""Shared exception types.

Exit-code mapping in the CLI: ContractViolation and its subclasses are
instance/precondition errors (exit 1); argparse usage problems are exit 2.
"""


class RplError(Exception):
    """Base class for all library errors."""


class ContractViolation(RplError):
    """An operation was called outside its stated contract."""


class RangeError(ContractViolation):
    """A vertex or index fell outside the object's horizon."""


class BudgetExhausted(RplError):
    """A bounded search ran out of budget before proving presence or absence.

    Never conflated with proven absence: absence is reported as None,
    exhaustion raises.
    """

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exhausted after {nodes} nodes")


class ResourceLimit(RplError):
    """A requested object exceeds a configured size cap."""


class DegenerateInstance(RplError):
    """The instance lacks the structure an extractor needs.

    Carries a hint about the fallback route (typically the unbalanced
    extractor) and, when an extractor loop raised it, the step it
    stopped at.
    """

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        super().__init__(message)


class PreconditionWitness(ContractViolation):
    """A caller-asserted precondition failed, with a concrete witness."""

    def __init__(self, message: str, witness):
        self.witness = witness
        super().__init__(f"{message}: witness {witness}")


class InternalInvariant(RplError):
    """Two independent routes to the same answer disagreed.

    Fatal by design; never silently resolved.
    """


class InstanceLoadError(ContractViolation):
    """A malformed instance or script file, with the offending line."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")
