"""Contact statistics for node pairs.

A pair of nodes meets according to a Poisson process (exponential
inter-contact gaps with rate ``contact_rate``) and the amount of data
transferable during one contact follows a Pareto law with shape ``alpha``
and scale ``beta`` (``beta`` is the guaranteed minimum per contact).  The
data rate on the link is assumed stable, so contact durations and
per-contact data amounts are interchangeable through ``rate``.

This module holds the parameter container, closed-form maximum-likelihood
fitting from observed contacts, seeded sampling of contact processes, and
thin wrappers around the special functions the probability estimators
need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import special as _special

from .errors import ComplexityError, FittingError

__all__ = [
    "PairContactParams",
    "fit_exponential",
    "fit_pareto",
    "sample_contact_process",
    "reg_lower_incomplete_gamma",
    "log_beta",
]

# sample_contact_process refuses a window expected to hold more contacts
MAX_EXPECTED_CONTACTS = 1_000_000


def _serial_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, on every Python: builtin
    ``sum`` compensates float sums from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class PairContactParams:
    """Contact-process parameters for one node pair.

    Attributes:
        contact_rate: contacts per time unit (rate of the Poisson process),
            with a finite, nonzero square and reciprocal square: about
            1e-154 to 1e154.
        alpha: Pareto shape of the per-contact transferable data.
        beta: Pareto scale, the minimum data amount any contact can carry.
        rate: data transmission rate in data units per time unit.
    """

    contact_rate: float
    alpha: float
    beta: float
    rate: float

    def __post_init__(self) -> None:
        for name in ("contact_rate", "alpha", "beta", "rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        # the estimators divide by contact_rate**2 and by its reciprocal
        square = self.contact_rate * self.contact_rate
        if not (0 < square < math.inf and 1 / square < math.inf):
            raise ValueError(
                f"contact_rate must lie within about 1e-154..1e154, "
                f"got {self.contact_rate!r}"
            )


def fit_exponential(inter_contact_samples: Sequence[float]) -> float:
    """Closed-form MLE for the exponential inter-contact rate.

    Args:
        inter_contact_samples: at least two gaps, all nonnegative, with a
            positive mean.

    Returns:
        The estimated rate, ``1 / mean(samples)``.

    Raises:
        FittingError: fewer than two samples, a negative sample, or a zero
            mean (the rate would be infinite).
    """
    samples = [float(s) for s in inter_contact_samples]
    if len(samples) < 2:
        raise FittingError(f"need at least 2 inter-contact samples, got {len(samples)}")
    if any(not math.isfinite(s) or s < 0 for s in samples):
        raise FittingError("inter-contact samples must be finite and >= 0")
    mean = _serial_sum(samples) / len(samples)
    if mean <= 0:
        raise FittingError("inter-contact samples have zero mean; rate undefined")
    return 1.0 / mean


def fit_pareto(per_contact_data_samples: Sequence[float]) -> tuple[float, float]:
    """Closed-form MLE for the Pareto per-contact data law.

    The scale estimate is the sample minimum; the shape estimate is
    ``n / sum(log(x_i / scale))``.

    Args:
        per_contact_data_samples: at least two positive samples, not all
            equal (all-equal samples leave the shape undefined).

    Returns:
        ``(alpha, beta)`` estimates, both finite and positive.

    Raises:
        FittingError: degenerate input as described above.
    """
    samples = [float(s) for s in per_contact_data_samples]
    if len(samples) < 2:
        raise FittingError(f"need at least 2 data samples, got {len(samples)}")
    if any(not math.isfinite(s) or s <= 0 for s in samples):
        raise FittingError("per-contact data samples must be finite and > 0")
    beta = min(samples)
    log_sum = _serial_sum(math.log(s / beta) for s in samples)
    if log_sum <= 0:
        raise FittingError("all samples equal; Pareto shape undefined")
    return len(samples) / log_sum, beta


def sample_contact_process(
    params: PairContactParams, horizon: float, rng_seed: int | np.random.SeedSequence
) -> list[tuple[float, float]]:
    """Sample one realization of the pair's contact process.

    Contact start times are cumulative sums of i.i.d. exponential gaps,
    drawn 64 at a time and truncated at ``horizon``.  Each contact duration
    is an i.i.d. Pareto draw with shape ``alpha`` and scale
    ``beta / rate``, i.e. expressed in time units so that
    ``duration * rate`` has minimum ``beta``.

    Args:
        params: pair parameters.
        horizon: length of the sampling window, > 0.
        rng_seed: seed or seed sequence; a fixed seed reproduces the event
            list exactly.

    Returns:
        List of ``(start, duration)`` pairs ordered by start time.

    Raises:
        ValueError: ``horizon`` is not finite and > 0.
        ComplexityError: ``contact_rate * horizon`` exceeds
            ``MAX_EXPECTED_CONTACTS``; checked before any draw.
    """
    return list(zip(*_sample_columns(params, horizon, rng_seed)))


def _sample_columns(
    params: PairContactParams, horizon: float, rng_seed: int | np.random.SeedSequence
) -> tuple[list[float], list[float]]:
    """:func:`sample_contact_process` as two lists: starts and durations."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if params.contact_rate * horizon > MAX_EXPECTED_CONTACTS:
        raise ComplexityError(
            f"contact_rate {params.contact_rate!r} over horizon {horizon!r} expects "
            f"{params.contact_rate * horizon:.3g} contacts, above {MAX_EXPECTED_CONTACTS}"
        )
    rng = np.random.default_rng(rng_seed)
    mean_gap = 1.0 / params.contact_rate

    starts: list[float] = []
    t = 0.0
    while True:
        # cumsum adds left to right, as a running ``t += gap`` would
        gaps = rng.exponential(mean_gap, size=64)
        gaps[0] += t
        chunk = np.cumsum(gaps)
        kept = int(np.searchsorted(chunk, horizon, side="right"))
        starts.extend(chunk[:kept].tolist())
        if kept < len(chunk):
            break
        t = float(chunk[-1])

    scale = params.beta / params.rate
    durations = (rng.pareto(params.alpha, size=len(starts)) + 1.0) * scale
    return starts, durations.tolist()


def reg_lower_incomplete_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(shape, x).

    Equals the CDF at ``x`` of a Gamma(shape, 1) random variable; monotone
    nondecreasing in ``x`` with P(shape, 0) = 0 and P(shape, inf) = 1.

    Raises:
        ValueError: nonfinite input, ``shape <= 0`` or ``x < 0``.
    """
    if not (math.isfinite(shape) and shape > 0):
        raise ValueError(f"shape must be finite and > 0, got {shape!r}")
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    return float(_special.gammainc(shape, x))


def log_beta(a: float, b: float) -> float:
    """Natural log of the beta function, ln B(a, b).

    Raises:
        ValueError: nonfinite or nonpositive input.
    """
    if not (math.isfinite(a) and a > 0) or not (math.isfinite(b) and b > 0):
        raise ValueError(f"log_beta arguments must be finite and > 0, got ({a!r}, {b!r})")
    return float(_special.betaln(a, b))
