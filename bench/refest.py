"""Reference delivery estimator, written apart from ``oppload.delivery``.

A vectorised numpy/scipy evaluation of the paper's formula, used by the
benchmark to check the program's estimates.  A path is a sequence of hops
``(contact_rate, alpha, beta, rate)``.  For a data size ``D`` and deadline
``T``:

* hop ``i`` needs at most ``l_i = ceil(D / beta_i)`` contacts;
* ``n`` contacts carry ``D`` with probability
  ``TP(n) = 1 - (1 - min((beta * R(n) / D) ** alpha, 1)) ** n``, where
  ``R(n) = (1 - n B(n, 1/alpha)) / (1 - alpha)`` is the expected
  Pareto sum-to-max ratio (the harmonic number when ``alpha = 1``),
  clipped to ``[1, n]``;
* the hop succeeds at exactly ``n`` contacts with ``TP(n) - TP(n - 1)``;
* a tuple ``<n_1..n_k>`` weighs the product of those, and its waiting
  time ``sum(Erlang(n_i, lambda_i))`` is replaced by the gamma with the
  same mean ``M = sum(n_i / lambda_i)`` and variance
  ``V = sum(n_i / lambda_i**2)``, evaluated at ``T - sum(D / rate_i)``.

The result is the weighted sum over every tuple, clamped to ``[0, 1]``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import special

Hop = tuple[float, float, float, float]

_CEIL_GUARD = 1e-9
_ALPHA_ONE_TOL = 1e-9


def needed_contacts(size: float, beta: float) -> int:
    """Most contacts a hop can need for ``size``: ``ceil(size / beta)``."""
    return max(1, math.ceil(size / beta - _CEIL_GUARD))


def exact_success(hop: Hop, size: float) -> np.ndarray:
    """P(hop carries ``size`` at exactly n contacts), for n = 1..l."""
    _, alpha, beta, _ = hop
    counts = np.arange(1, needed_contacts(size, beta) + 1, dtype=float)
    if abs(alpha - 1.0) < _ALPHA_ONE_TOL:
        ratio_sum_max = np.cumsum(1.0 / counts)
    else:
        ratio_sum_max = (1.0 - counts * np.exp(special.betaln(counts, 1.0 / alpha))) / (
            1.0 - alpha
        )
        ratio_sum_max = np.clip(ratio_sum_max, 1.0, counts)
    ratio = beta * ratio_sum_max / size
    miss = 1.0 - np.minimum(ratio, 1.0) ** alpha
    cumulative = np.clip(1.0 - miss**counts, 0.0, 1.0)
    return np.diff(cumulative, prepend=0.0)


def delivery_prob(hops: Sequence[Hop], size: float, deadline: float) -> float:
    """Delivery probability of ``size`` over ``hops`` within ``deadline``."""
    budget = deadline - sum(size / hop[3] for hop in hops)
    if budget <= 0:
        return 0.0
    weight = np.ones(())
    mean = np.zeros(())
    var = np.zeros(())
    for axis, hop in enumerate(hops):
        lam = hop[0]
        counts = np.arange(1, needed_contacts(size, hop[2]) + 1, dtype=float)
        shape = (1,) * axis + (-1,)
        weight = weight[..., None] * exact_success(hop, size).reshape(shape)
        mean = mean[..., None] + (counts / lam).reshape(shape)
        var = var[..., None] + (counts / (lam * lam)).reshape(shape)
    live = weight > 0.0
    terms = weight[live] * special.gammainc(
        mean[live] ** 2 / var[live], mean[live] / var[live] * budget
    )
    return float(min(max(terms.sum(), 0.0), 1.0))
