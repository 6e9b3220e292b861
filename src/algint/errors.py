"""Exception hierarchy for the whole package.

Everything raised on purpose derives from AlgintError so callers can catch
one type at the boundary; the CLI maps the subclasses to exit codes.
"""


class AlgintError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DomainError(AlgintError):
    """An input is outside the mathematical domain of the operation."""


class PreconditionError(AlgintError):
    """A documented precondition of an operation does not hold."""


class RankDeficient(AlgintError):
    """A matrix or module presentation has lower rank than required."""


class CurveReducible(AlgintError):
    """A zero divisor was hit, certifying that the curve polynomial factors.

    The offending factor is carried so the caller can restart on a component.
    """

    def __init__(self, factor, message="curve polynomial is reducible"):
        super().__init__(f"{message}: discovered factor {factor}")
        self.factor = factor


class SuitabilityFailure(AlgintError):
    """A certified enlargement of a basis, finite or at infinity, failed."""

    def __init__(self, detail):
        super().__init__(f"could not repair basis: {detail}")
        self.detail = detail


class UpdateCandidatesExhausted(AlgintError):
    """A degenerate reduction step produced no certified new integral element."""

    def __init__(self, detail):
        super().__init__(f"no basis update was certified: {detail}")
        self.detail = detail


class ContainmentViolated(AlgintError):
    """A ledger rebase met an old basis element outside the new module."""


class MaxOrderExceeded(AlgintError):
    """Telescoping hit the order cap without finding a linear dependency."""

    def __init__(self, max_order, ranks):
        super().__init__(
            f"no telescoper of order <= {max_order}; remainder ranks per step: {ranks}"
        )
        self.max_order = max_order
        self.ranks = ranks


class ExprSyntaxError(AlgintError):
    """Rejected input text; `position` is the 0-based offset of the problem."""

    def __init__(self, message, position):
        super().__init__(message)
        self.position = position

    def __str__(self):
        return f"{self.args[0]} (at offset {self.position})"


class UnknownVariable(ExprSyntaxError):
    """An identifier other than x, y, t appeared in an expression."""

    def __init__(self, name, position):
        super().__init__(f"unknown variable {name!r}", position)
        self.name = name
