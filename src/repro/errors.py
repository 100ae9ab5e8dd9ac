"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.

On top of the domain hierarchy sit two orthogonal *classification* mixins,
:class:`TransientError` and :class:`PermanentError`, consumed by the
supervision layer (:mod:`repro.resilience`): a transient failure (worker
died, I/O hiccup, resource pressure) may be retried under a
:class:`~repro.resilience.RetryPolicy`, while a permanent one (malformed
input, missing binary, API misuse) never is — retrying it would only burn
the retry budget.  :func:`is_transient` is the single classification point;
errors that carry neither mixin default to *permanent* so unknown failures
cannot cause retry storms.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TransientError",
    "PermanentError",
    "is_transient",
    "AigError",
    "AigerFormatError",
    "TruthTableError",
    "SynthesisError",
    "MappingError",
    "PipelineError",
    "CnfError",
    "SolverError",
    "BackendError",
    "BackendUnavailableError",
    "ResourceLimitExceeded",
    "RlError",
    "BenchmarkError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TransientError:
    """Mixin marking an error as retryable: the same call may succeed later
    (crashed worker, I/O hiccup, transient resource pressure)."""


class PermanentError:
    """Mixin marking an error as non-retryable: retrying the identical call
    cannot succeed (malformed input, missing binary, API misuse)."""


#: Builtin exception types treated as transient even though they cannot
#: carry the mixin: environmental failures that a retry may outrun.
_TRANSIENT_BUILTINS = (
    OSError,
    EOFError,
    MemoryError,
    TimeoutError,
)


def is_transient(error: BaseException) -> bool:
    """Classify an exception for the retry machinery.

    Explicit mixins win (:class:`PermanentError` beats the builtin list, so
    e.g. :class:`BackendUnavailableError` stays permanent despite wrapping
    an ``OSError``); a handful of builtin environmental exceptions are
    transient; everything else defaults to permanent.
    """
    if isinstance(error, PermanentError):
        return False
    if isinstance(error, TransientError):
        return True
    return isinstance(error, _TRANSIENT_BUILTINS)


class AigError(ReproError, PermanentError):
    """Raised for structural problems in an And-Inverter Graph."""


class AigerFormatError(AigError):
    """Raised when parsing or writing an AIGER file fails."""


class TruthTableError(ReproError, PermanentError):
    """Raised for invalid truth-table operations (bad arity, bad mask)."""


class SynthesisError(ReproError, PermanentError):
    """Raised when a logic-synthesis operation cannot be applied."""


class MappingError(ReproError, PermanentError):
    """Raised when LUT mapping fails (e.g. no feasible cut cover)."""


class PipelineError(ReproError, PermanentError):
    """Raised when a pipeline name matches no registered pipeline."""


class CnfError(ReproError, PermanentError):
    """Raised for malformed CNF formulas or DIMACS files."""


class SolverError(ReproError):
    """Raised when the SAT solver is misused (e.g. bad literal, bad budget)."""


class BackendError(SolverError, TransientError):
    """Raised when a solver backend fails (bad output, crashed process).

    Transient: a crashed or garbling external process may behave on a retry,
    and the degradation ladder can still fall back to the internal solver.
    """


class BackendUnavailableError(BackendError, PermanentError):
    """Raised when a requested solver backend cannot run on this machine
    (typically: the external solver binary is not on PATH).  Permanent —
    retrying will not make the binary appear."""


class ResourceLimitExceeded(ReproError, TransientError):
    """Raised by a :class:`repro.resilience.Watchdog` when a soft resource
    ceiling is crossed.  ``status`` is the terminal run status the trip
    converts into: ``"MEMOUT"`` for memory ceilings, ``"TIMEOUT"`` for
    wall-clock deadlines.  The solver catches this at its progress hook and
    returns a clean result instead of propagating."""

    def __init__(self, message: str, status: str = "MEMOUT") -> None:
        super().__init__(message)
        self.status = status


class RlError(ReproError, PermanentError):
    """Raised for invalid reinforcement-learning configuration or usage."""


class BenchmarkError(ReproError, PermanentError):
    """Raised when benchmark-instance generation receives invalid parameters."""
