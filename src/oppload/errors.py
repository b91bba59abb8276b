"""Exception hierarchy and input validators shared across the package.

Every exception carries a short machine-readable ``code`` that the CLI
prints on the diagnostic stream.  Every public constructor and entry point
checks its inputs with the four ``check_*`` validators at the end, each
raising a ``ValueError`` that names its field.  A bool is never a number,
an id or a count, only a seed; NumPy integers and floats are valid.
"""

import math
import numbers


class OppLoadError(Exception):
    """Base class for package-specific failures."""

    code = "INTERNAL"


class FittingError(OppLoadError, ValueError):
    """Parameter fitting received degenerate or invalid samples."""

    code = "FITTING"


class GenerationError(OppLoadError, RuntimeError):
    """Synthetic network generation could not satisfy its constraints."""

    code = "GENERATION"


class IngestionError(OppLoadError, ValueError):
    """A contact trace produced no usable network."""

    code = "INGESTION"


class ComplexityError(OppLoadError, RuntimeError):
    """A query or a sample would enumerate more contact tuples or contacts than its cap."""

    code = "COMPLEXITY"


class EstimationError(OppLoadError, ValueError):
    """A gamma or contact count of the delivery estimator overflows or degenerates."""

    code = "VALIDATION"


class PlanningError(OppLoadError, RuntimeError):
    """Offload planning found no route of any kind to the destination."""

    code = "PLANNING"


class ProtocolError(OppLoadError, RuntimeError):
    """The distributed protocol was driven outside its contract."""

    code = "PROTOCOL"


class TransferContractError(OppLoadError, ValueError):
    """An actual transfer amount exceeded the planned amount."""

    code = "TRANSFER"


class InstanceTooLargeError(OppLoadError, RuntimeError):
    """Exhaustive search was asked to enumerate more candidates than its cap."""

    code = "INSTANCE"


class ConfigError(OppLoadError, ValueError):
    """An experiment configuration is malformed."""

    code = "CONFIG"


def _is_number(value, kind=numbers.Real) -> bool:
    """``value`` is an instance of ``kind`` and not a bool.  A plain int or
    float is answered first: the ABC test costs about ten times as much."""
    if type(value) in (int, float):
        return type(value) is int or kind is numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def check_positive(name: str, value):
    """``value``, when it is a finite real number > 0."""
    if not (_is_number(value) and 0 < value < math.inf):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def check_nonnegative(name: str, value):
    """``value``, when it is a finite real number >= 0."""
    if not (_is_number(value) and 0 <= value < math.inf):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def check_index(name: str, value, stop: int | None = None, start: int = 0):
    """``value``, when it is an integer in ``start..stop - 1``, with no upper
    bound when ``stop`` is None: a node id, a task id or a count."""
    if _is_number(value, numbers.Integral) and start <= value and (stop is None or value < stop):
        return value
    kind = f"an integer >= {start}" if start else "a non-negative integer"
    if stop is not None:
        kind = f"an integer in {start}..{stop - 1}"
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def check_seed(value):
    """``value``, when it is a non-negative integer, checked before any draw.
    A bool passes: NumPy's ``SeedSequence`` takes ``True`` as 1, and
    :func:`~oppload.simulator.simulate_strategy` documents that it does."""
    if not (isinstance(value, numbers.Integral) and value >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {value!r}")
    return value
