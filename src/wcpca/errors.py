"""Exception taxonomy shared by every module in the package.

All failures raised on purpose derive from :class:`WcpcaError` so callers can
catch one base class. The CLI maps each subclass to a stable process exit
code; see :data:`EXIT_CODES`.
"""

from __future__ import annotations


class WcpcaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(WcpcaError):
    """An array argument violates a shape, dtype, or value precondition."""


class InvalidRank(WcpcaError):
    """Requested subspace dimension k is outside 1..p."""


class RankDeficient(WcpcaError):
    """A matrix that must have full (numerical) rank does not."""


class ZeroTrace(WcpcaError):
    """A covariance with nonpositive trace where a positive trace is required."""


class InvalidWeights(WcpcaError):
    """Sampling weights are negative or do not sum to one."""


class InvalidKind(WcpcaError):
    """An objective kind is not supported by the requested operation."""


class NoObservations(WcpcaError):
    """A least-squares subproblem has an empty observation set."""


class SchemaError(WcpcaError):
    """An input file does not match the expected tabular layout."""


class EmptyData(WcpcaError):
    """A data source contains no rows after filtering."""


class ConstantColumn(WcpcaError):
    """A feature column is constant, so covariance scaling is undefined."""


class DegenerateBaseline(WcpcaError):
    """A comparison baseline is zero, so a relative metric is undefined."""


class InvalidConfig(WcpcaError):
    """Command-line flags form a combination that has no defined meaning."""


# Process exit codes used by the command-line entry point. 0 is success and
# 1 additionally covers unexpected (non-taxonomy) exceptions.
EXIT_CODES: dict[type[WcpcaError], int] = {
    RankDeficient: 1,
    SchemaError: 2,
    EmptyData: 2,
    ConstantColumn: 2,
    InvalidInput: 2,
    NoObservations: 2,
    ZeroTrace: 2,
    DegenerateBaseline: 2,
    InvalidRank: 3,
    InvalidKind: 3,
    InvalidWeights: 3,
    InvalidConfig: 3,
}


def exit_code_for(exc: BaseException) -> int:
    """Return the process exit code for ``exc`` (1 for unknown errors)."""
    for klass, code in EXIT_CODES.items():
        if isinstance(exc, klass):
            return code
    return 1
