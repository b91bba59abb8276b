"""Exception hierarchy shared across the package.

Every exception carries a short machine-readable ``code`` that the CLI
prints on the diagnostic stream.
"""


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
