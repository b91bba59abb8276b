"""Delivery probability over opportunistic paths.

An opportunistic path is an ordered list of hops, each behaving like an
independent contact process (see :mod:`oppload.contacts`).  Three layers
build on each other:

* *availability*: the probability that every hop produces at least one
  contact, in order, within the deadline.  Sums of per-hop exponential or
  Erlang waiting times are approximated by a single gamma variable that
  matches the exact mean and variance (a Welch-Satterthwaite style moment
  match).
* *transfer probability*: the probability that a given number of contacts
  on one hop carries a data item, approximating the heavy-tailed sum of
  per-contact Pareto amounts by its maximum scaled with the expected
  sum-to-max ratio.
* *delivery probability*: the probability that a data item fully traverses
  the path within the deadline, summing over the number of contacts each
  hop needs.

Every delivery probability is priced by one routine, :func:`delivery_probs`,
from the terms each path keeps; :class:`RouteTerms` (``PathSpec.terms``)
says which terms a path keeps, and for how long.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy import special as _special

from .contacts import PairContactParams, _serial_sum, log_beta, reg_lower_incomplete_gamma
from .errors import ComplexityError, check_index, check_nonnegative, check_positive

__all__ = [
    "PathSpec",
    "GammaApprox",
    "DeliveryQuery",
    "gamma_approx",
    "availability",
    "mean_max_ratio",
    "transfer_prob",
    "delivery_prob_onehop",
    "delivery_prob_path",
    "delivery_probs",
    "path_capacity",
    "DEFAULT_TUPLE_CAP",
]

DEFAULT_TUPLE_CAP = 10**6

# Pareto shapes this close to 1 use the harmonic-number branch of the
# sum-to-max ratio; the general branch degenerates to 0/0 there.
_ALPHA_ONE_TOL = 1e-9

_CEIL_GUARD = 1e-9

# A memo entry keeps the terms of a tuple space of at most _MAX_KEPT tuples,
# and no list or array longer than _MAX_KEPT, which bounds its memory.
# Larger spaces build their terms again on every evaluation, in blocks of at
# most _CHUNK tuples (prefix rows times the inner hops' counts; see
# _BlockTerms).
_MAX_KEPT = 256
_CHUNK = 1 << 14

# What RouteTerms.ceiling adds to a kept price.  As its argument grows,
# gammainc falls by a few last bits near some arguments (up to 7.2e-15 on
# criterion-7 shapes), which moves a price by far less than this.
_PRICE_MARGIN = 1e-9
# The kept price of a size that gets no ceiling: a deadline no query reaches.
_NO_CEILING = (-math.inf, 1.0)
# The share of a certain size's time budget at which RouteTerms.certify
# prices it again.  Remaining times only fall during a task, so a floor must
# lie below the time it is found at to serve later meetings, yet the price
# must still be exactly 1 there: on long-deadline replays 0.5 certified
# almost nothing, and 0.98 left the fewest adjustments to price.
_FLOOR_SHARE = 0.98


@dataclass(frozen=True)
class PathSpec:
    """An ordered opportunistic path of one or more hops."""

    hops: tuple[PairContactParams, ...]

    def __post_init__(self) -> None:
        if len(self.hops) < 1:
            raise ValueError("a path needs at least one hop")
        for hop in self.hops:
            if not isinstance(hop, PairContactParams):
                raise TypeError(f"hops must be PairContactParams, got {type(hop)!r}")

    def __len__(self) -> int:
        return len(self.hops)

    @functools.cached_property
    def terms(self) -> RouteTerms:
        """The path's :class:`RouteTerms`, built on first use."""
        return RouteTerms(self.hops)


@dataclass(frozen=True)
class GammaApprox:
    """Shape/rate of the gamma variable matching a waiting-time sum."""

    gamma_shape: float
    delta_rate: float

    def __post_init__(self) -> None:
        _check_gamma(self.gamma_shape, self.delta_rate)


@dataclass(frozen=True)
class DeliveryQuery:
    """A data item size and the deadline it must be delivered within."""

    data_size: float
    deadline: float

    def __post_init__(self) -> None:
        check_positive("data_size", self.data_size)
        check_positive("deadline", self.deadline)


def gamma_approx(
    contact_counts: Sequence[int], lambdas: Sequence[float]
) -> GammaApprox:
    """Moment-matched gamma approximation of a sum of Erlang waiting times.

    Hop ``i`` contributes the waiting time for ``contact_counts[i]``
    contacts of a Poisson process with rate ``lambdas[i]``.  With
    ``M = sum(n_i / lambda_i)`` and ``V = sum(n_i / lambda_i**2)`` the
    returned gamma has shape ``M**2 / V`` and rate ``M / V``, so its mean
    and variance equal ``M`` and ``V`` exactly.

    Raises:
        ValueError: length mismatch, empty input, or a malformed count or rate.
    """
    if len(contact_counts) != len(lambdas):
        raise ValueError(
            f"length mismatch: {len(contact_counts)} counts vs {len(lambdas)} rates"
        )
    if not contact_counts:
        raise ValueError("need at least one hop")
    mean = 0.0
    var = 0.0
    for i, (n, lam) in enumerate(zip(contact_counts, lambdas)):
        check_index(f"contact_counts[{i}]", n, start=1)
        check_positive(f"lambdas[{i}]", lam)
        mean += n / lam
        var += n / (lam * lam)
    return GammaApprox(gamma_shape=mean * mean / var, delta_rate=mean / var)


def availability(path: PathSpec, deadline: float) -> float:
    """Probability the path materializes (one contact per hop) in time.

    For a single hop this equals the exponential CDF ``1 - exp(-lambda *
    deadline)`` up to rounding (the moment-matched shape ``M**2 / V`` may
    round off 1); multi-hop paths use the moment-matched gamma.
    """
    if check_nonnegative("deadline", deadline) == 0:
        return 0.0
    approx = gamma_approx([1] * len(path), [hop.contact_rate for hop in path.hops])
    return reg_lower_incomplete_gamma(approx.gamma_shape, approx.delta_rate * deadline)


# Every size and route of a hop asks again for the same (count, alpha)
# pairs, so nearly every call hits.
@functools.lru_cache(maxsize=65536)
def _mean_max_ratio_cached(contact_count: int, alpha: float) -> float:
    if abs(alpha - 1.0) < _ALPHA_ONE_TOL:
        return _serial_sum(1.0 / i for i in range(1, contact_count + 1))
    b = math.exp(log_beta(contact_count, 1.0 / alpha))
    value = (1.0 - contact_count * b) / (1.0 - alpha)
    # the exact value lies in [1, c]; trim float drift at the boundaries
    return min(max(value, 1.0), float(contact_count))


def mean_max_ratio(contact_count: int, alpha: float) -> float:
    """Expected ratio of a Pareto i.i.d. sum to its maximum.

    For ``c`` draws with shape ``alpha`` the expectation is
    ``(1 - c * B(c, 1/alpha)) / (1 - alpha)``, with the harmonic number
    ``H_c`` as the ``alpha = 1`` limit (shapes within 1e-9 of 1 use that
    branch).  The value always lies in ``[1, c]``.
    """
    check_index("contact_count", contact_count, start=1)
    check_positive("alpha", alpha)
    return _mean_max_ratio_cached(int(contact_count), float(alpha))


def transfer_prob(hop: PairContactParams, contact_count: int, data_size: float) -> float:
    """Probability that ``contact_count`` contacts carry ``data_size``.

    Approximates the Pareto sum by its maximum: with ``R`` the expected
    sum-to-max ratio, the result is
    ``1 - (1 - min((beta * R / D) ** alpha, 1)) ** c``.  Equal to 1
    whenever ``beta * R >= data_size`` (the minimum transfer suffices).
    """
    check_positive("data_size", data_size)
    return _transfer(hop, contact_count, data_size, mean_max_ratio(contact_count, hop.alpha))


def _transfer(
    hop: PairContactParams, contact_count: int, data_size: float, sum_to_max: float
) -> float:
    """:func:`transfer_prob`, given the sum-to-max ratio and checked inputs."""
    ratio = hop.beta * sum_to_max / data_size
    if ratio >= 1.0:
        return 1.0
    miss = 1.0 - ratio**hop.alpha
    return min(max(1.0 - miss**contact_count, 0.0), 1.0)


def _needed_contacts(data_size: float, beta: float) -> int:
    """Maximum contacts a hop may need: ceil(data_size / beta)."""
    return max(1, math.ceil(data_size / beta - _CEIL_GUARD))


def _exact_success(
    hop: PairContactParams, data_size: float, limit: int, stop_when_certain: bool
) -> Iterator[float]:
    """P(the hop carries ``data_size`` at exactly n contacts), n = 1..limit.

    The increments ``TP(n) - TP(n-1)`` of :func:`transfer_prob`, in order
    of n; with ``stop_when_certain`` they end at the first n where
    ``TP(n) >= 1``.
    """
    prev = 0.0
    alpha = float(hop.alpha)
    for n in range(1, limit + 1):
        success = _transfer(hop, n, data_size, _mean_max_ratio_cached(n, alpha))
        yield success - prev
        if stop_when_certain and success >= 1.0:
            return
        prev = success


def _onehop_terms(
    hop: PairContactParams, data_size: float, limit: int
) -> Iterator[tuple[array, array, array]]:
    """The weights, shapes and rates of one hop's terms, as arrays of
    doubles, in blocks of at most ``_MAX_KEPT`` contact counts.

    The weights are the hop's exact successes up to the first certain
    success; the shapes ``n`` and rate ``lambda`` are the Erlang CDF's,
    which always pass :func:`_check_gamma`.
    """
    exact = _exact_success(hop, data_size, limit, stop_when_certain=True)
    rate = array("d", [hop.contact_rate])
    start = 1
    while weights := array("d", itertools.islice(exact, _MAX_KEPT)):
        count = len(weights)
        yield weights, array("d", range(start, start + count)), rate * count
        start += count


def _gamma_ok(shape: float, rate: float) -> bool:
    return math.isfinite(shape) and shape > 0 and math.isfinite(rate) and rate > 0


def _check_gamma(shape: float, rate: float) -> None:
    if not _gamma_ok(shape, rate):
        raise ValueError(f"gamma shape and rate must be finite and > 0, got ({shape!r}, {rate!r})")


def _transmission(hops: Sequence[PairContactParams], data_size: float) -> float:
    """The serial transmission time ``T' = sum(D / rate_i)``, in hop order."""
    return _serial_sum(data_size / hop.rate for hop in hops)


def _limits(hops: Sequence[PairContactParams], data_size: float) -> tuple[int, ...]:
    """Each hop's :func:`_needed_contacts`."""
    return tuple(_needed_contacts(data_size, hop.beta) for hop in hops)


def _tuple_gammas(
    hops: Sequence[PairContactParams], limits: tuple[int, ...]
) -> tuple[array, array, tuple[int, ...]]:
    """The moment-matched gamma shape and rate of every contact-count tuple
    of several hops, in ``itertools.product`` order, and the indices of the
    tuples whose pair fails :func:`_check_gamma`, ascending; they depend on
    the counts and the hops' contact rates only, not on the data size.

    The gamma is :func:`gamma_approx`'s, with ``M`` and ``V`` summed hop by
    hop from 0.0.
    """
    means = variances = [0.0]
    for hop, limit in zip(hops, limits):
        lam = hop.contact_rate
        counts = range(1, limit + 1)
        means = [mean + n / lam for mean in means for n in counts]
        variances = [var + n / (lam * lam) for var in variances for n in counts]
    pairs = list(zip(means, variances))
    shapes = array("d", [mean * mean / var for mean, var in pairs])
    rates = array("d", [mean / var for mean, var in pairs])
    failing = tuple(i for i, pair in enumerate(zip(shapes, rates)) if not _gamma_ok(*pair))
    return shapes, rates, failing


def _kept_terms(
    hops: Sequence[PairContactParams],
    data_size: float,
    limits: tuple[int, ...],
    gammas: tuple[array, array, tuple[int, ...]],
) -> tuple[array, array, array]:
    """The weights, shapes and rates of a multi-hop tuple space's nonzero
    terms, in product order, as arrays of doubles, given the
    :func:`_tuple_gammas` of its ``limits``.

    Each tuple weighs the product of its hops' exact successes, multiplied
    hop by hop from 1.0; the tuples of nonzero weight are kept, and each of
    their gammas must pass :func:`_check_gamma`: the first kept tuple in
    product order among those :func:`_tuple_gammas` found failing raises.
    """
    shapes, rates, failing = gammas
    weights = [1.0]
    for hop, limit in zip(hops, limits):
        exact = list(_exact_success(hop, data_size, limit, stop_when_certain=False))
        weights = [weight * success for weight in weights for success in exact]
    for i in failing:
        if weights[i] != 0.0:
            _check_gamma(shapes[i], rates[i])
    if 0.0 in weights:
        kept = [weight != 0.0 for weight in weights]
        shapes = array("d", itertools.compress(shapes, kept))
        rates = array("d", itertools.compress(rates, kept))
        weights = array("d", itertools.compress(weights, kept))
    else:
        weights = array("d", weights)
    return weights, shapes, rates


class _BlockTerms:
    """The terms of one (hops, data size) pair whose tuple space exceeds
    ``_MAX_KEPT`` tuples, built again in blocks on every query.

    It keeps the per-hop vectors of several hops (``per_hop``) when they
    hold at most ``_MAX_KEPT`` counts in all, and nothing otherwise; from
    these every query builds the terms again in product order.  One hop
    walks the blocks of :func:`_onehop_terms`; its Erlang CDF falls as
    ``n`` grows, so every term after its first zero adds 0.

    Several hops split at the first hop ``s >= 1`` from which the remaining
    hops' counts multiply to at most ``_CHUNK`` (the last hop when none
    does).  A block is a run of prefix rows, each one count tuple of hops
    ``0..s-1`` gathered from their vectors, times every count of the inner
    hops ``s..k-1``, expanded hop by hop by outer products.  So a block
    holds at most ``_CHUNK`` tuples, or one row of a last hop whose counts
    alone exceed it.  Either way weights multiply and ``M``, ``V`` add hop
    by hop in hop order, so block boundaries change no term.
    """

    __slots__ = ("hops", "data_size", "limits", "per_hop")

    def __init__(
        self, hops: tuple[PairContactParams, ...], data_size: float, limits: tuple[int, ...]
    ) -> None:
        self.hops = hops
        self.data_size = data_size
        self.limits = limits
        self.per_hop = (
            self._hop_vectors() if len(hops) > 1 and sum(limits) <= _MAX_KEPT else None
        )

    def prob(self, budget: float) -> float:
        """The probability at a positive time budget, summed block by block."""
        onehop = len(self.hops) == 1
        total = 0.0
        for weight, shape, rate in self._blocks():
            with np.errstate(over="ignore"):
                x = rate * budget
            if not np.isfinite(x).all():
                raise ValueError(f"gamma argument overflows at time budget {budget!r}")
            in_time = _special.gammainc(shape, x)
            stop = False
            if onehop:
                zeros = np.flatnonzero(in_time == 0.0)
                if zeros.size:
                    weight, in_time, stop = weight[: zeros[0]], in_time[: zeros[0]], True
            terms = weight * in_time
            if terms.size:
                # carry the running total so the sum stays left to right
                terms[0] += total
                total = float(np.cumsum(terms)[-1])
            if stop:
                break
        total += 0.0  # a sum started at +0.0 never ends at -0.0
        return min(max(total, 0.0), 1.0)

    def _hop_vectors(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each hop's exact successes, ``n / lambda`` and ``n / lambda**2``
        over n = 1..limit, as arrays."""
        vectors = []
        for hop, limit in zip(self.hops, self.limits):
            exact = _exact_success(hop, self.data_size, limit, stop_when_certain=False)
            lam = hop.contact_rate
            counts = range(1, limit + 1)
            vectors.append(
                (
                    np.array(list(exact)),
                    np.array([n / lam for n in counts]),
                    np.array([n / (lam * lam) for n in counts]),
                )
            )
        return vectors

    @np.errstate(over="ignore", invalid="ignore")
    def _expand(
        self,
        per_hop: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        split: int,
        start: int,
        stop: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weights, shapes and rates of the nonzero-weight tuples in prefix
        rows ``start..stop-1`` of the product order, a prefix row being one
        count tuple of the hops before ``split``, followed by every count of
        the hops from ``split`` on."""
        prefix, inner = per_hop[:split], per_hop[split:]
        index = np.unravel_index(np.arange(start, stop), self.limits[:split])
        (exact, mean_step, var_step), *rest = prefix
        weight, mean, var = exact[index[0]], mean_step[index[0]], var_step[index[0]]
        for (exact, mean_step, var_step), i in zip(rest, index[1:]):
            weight = weight * exact[i]
            mean = mean + mean_step[i]
            var = var + var_step[i]
        for exact, mean_step, var_step in inner:
            weight = np.multiply.outer(weight, exact).ravel()
            mean = np.add.outer(mean, mean_step).ravel()
            var = np.add.outer(var, var_step).ravel()
        keep = weight != 0.0
        weight, mean, var = weight[keep], mean[keep], var[keep]
        shape, rate = mean * mean / var, mean / var
        if weight.size:
            _check_gamma(float(shape.min()), float(rate.min()))
            _check_gamma(float(shape.max()), float(rate.max()))
        return weight, shape, rate

    def _blocks(self):
        if len(self.hops) == 1:
            for block in _onehop_terms(self.hops[0], self.data_size, self.limits[0]):
                yield tuple(map(np.asarray, block))
        else:
            per_hop = self.per_hop or self._hop_vectors()
            limits = self.limits
            split = next(
                (i for i in range(1, len(limits)) if math.prod(limits[i:]) <= _CHUNK),
                len(limits) - 1,
            )
            rows = math.prod(limits[:split])
            step = max(1, _CHUNK // math.prod(limits[split:]))
            for start in range(0, rows, step):
                yield self._expand(per_hop, split, start, min(start + step, rows))


def _sum_stacked(
    probs: list[float],
    stacked: list[tuple[int, float, tuple[array, array, array]]],
    deadline: float,
) -> None:
    """Set ``probs[index]`` for each ``(index, budget, kept terms)``.

    The terms are stacked, their gamma CDFs come from one array
    ``gammainc`` call, and each member's terms are then summed left to
    right in Python floats.

    Raises:
        ValueError: a gamma argument ``rate * budget`` is not finite.
    """
    shapes = array("d")
    args: list[float] = []
    for _, budget, (_, member_shapes, rates) in stacked:
        shapes += member_shapes
        args += map(budget.__mul__, rates)
    if not args:
        return
    if not all(map(math.isfinite, args)):
        raise ValueError(f"gamma argument overflows at deadline {deadline!r}")
    in_time = _special.gammainc(shapes, args).tolist()
    stop = 0
    for index, _, (weights, _, _) in stacked:
        start, stop = stop, stop + len(weights)
        total = 0.0
        for weight, p in zip(weights, in_time[start:stop]):
            total += weight * p
        probs[index] = min(max(total, 0.0), 1.0)


def _monotone(terms: tuple[array, array, array] | _BlockTerms) -> bool:
    """Whether ``terms`` are kept arrays with no negative weight: their
    price then moves against the deadline only by what ``gammainc`` loses
    in its last bits, which the ceilings and the floors rest on."""
    return not isinstance(terms, _BlockTerms) and min(terms[0], default=0.0) >= 0.0


class RouteTerms:
    """The size-free parts of one path's estimator, and its terms per size.

    Kept in ``gammas``, once for all sizes: the :func:`_tuple_gammas` of
    every multi-hop contact-count ``limits`` the path has met, the gamma
    shape and rate of each tuple and which tuples fail :func:`_check_gamma`,
    so each tuple is checked once per ``limits``, not once per size; a
    one-hop path keeps none.  A distributed route lives for a whole
    :func:`~oppload.simulator.simulate_strategy` call and meets few distinct
    ``limits``, so nearly every lookup there hits.

    Kept in ``memo``, for each size asked since the memo was last cleared:
    ``T'`` and that size's terms, so a query is a ``gammainc`` evaluation of
    them at the deadline's time budget.  A tuple space of at most
    ``_MAX_KEPT`` tuples keeps its nonzero terms as three arrays of doubles
    (:func:`_onehop_terms` for one hop, :func:`_kept_terms` for several), and
    :func:`delivery_probs` prices all such terms of a batch with one array
    ``gammainc`` call (:func:`_sum_stacked`).  A larger space keeps a
    :class:`_BlockTerms`: at most three arrays of ``_MAX_KEPT`` floats (the
    per-hop vectors of several hops, or nothing), from which each query
    builds its terms again, in blocks.  An entry thus holds at most three
    arrays of ``_MAX_KEPT`` doubles, about 6.3 kB.  The entry's layout is
    private to this module.

    Kept in ``prices``, for each size :meth:`keep_price` was given a price
    of: that price and the deadline it was taken at, when the size's kept
    terms have no negative weight, else ``(-inf, 1.0)`` (checked once, at
    the first price).  Such a price can only fall as the deadline falls, so
    :meth:`ceiling` bounds the price at any shorter deadline without
    pricing.

    Kept in ``floors``, for each size :meth:`certify` found certain: a
    remaining time ``d0`` at which the size's kept terms, with no negative
    weight, priced exactly 1.  Such a price can fall as the deadline grows
    only by what ``gammainc`` falls as its argument grows, a few last bits,
    so at every deadline of at least ``d0`` the price is above
    ``1 - 1e-12`` (:meth:`certain`) without pricing.  A size built in
    blocks, or with a negative kept weight, gets no floor.  The distributed
    protocol is the one writer and the one reader of the prices and the
    floors (see :func:`~oppload.distributed.realtime_adjustment`), so
    nothing else does any work for them.

    The memo, the prices and the floors live as long as their spec: one
    plan of the heuristic, one route of ``validate``, one task of the
    distributed protocol (the simulator clears all three when a task
    starts).  Every price is bit-identical to summing the formula tuple by
    tuple: the terms visit tuples in ``itertools.product`` order, form
    weights and the moments ``M``, ``V`` hop by hop, and sum left to right.
    """

    __slots__ = ("hops", "gammas", "memo", "prices", "floors")

    def __init__(self, hops: tuple[PairContactParams, ...]) -> None:
        self.hops = hops
        self.gammas: dict[tuple[int, ...], tuple[array, array, tuple[int, ...]]] = {}
        self.memo: dict[float, tuple] = {}
        self.prices: dict[float, tuple[float, float]] = {}
        self.floors: dict[float, float] = {}

    def clear(self) -> None:
        """Drop every size's terms, prices and floors; the gammas stay."""
        self.memo.clear()
        self.prices.clear()
        self.floors.clear()

    def certain(self, data_size: float, deadline: float) -> bool:
        """Whether ``floors`` proves the price of ``data_size`` at the
        finite ``deadline`` above ``1 - 1e-12``: its floor is no longer."""
        return self.floors.get(data_size, math.inf) <= deadline < math.inf

    def certify(self, data_size: float, deadline: float) -> bool:
        """Price ``data_size`` at ``d0 = T' + 0.98 * (deadline - T')`` and keep
        ``d0`` as its floor if the price is exactly 1, unless the size is
        already :meth:`certain` at ``deadline``, is built in blocks, or its
        kept terms have a negative weight; nothing is kept for a size whose
        terms are not built.  Returns whether the size has a floor."""
        entry = self.memo.get(data_size)
        if entry is not None and not self.certain(data_size, deadline) and _monotone(entry[1]):
            transmission, terms = entry
            floor = transmission + _FLOOR_SHARE * (deadline - transmission)
            price = [0.0]
            _sum_stacked(price, [(0, floor - transmission, terms)], floor)
            if price[0] == 1.0:
                self.floors[data_size] = floor
        return data_size in self.floors

    def ceiling(self, data_size: float, deadline: float) -> float:
        """An upper bound on the price of ``data_size`` at ``deadline``:
        ``min(1, p + 1e-9)`` when ``prices`` holds a price ``p`` of that
        size taken at a deadline no shorter, else 1.

        A kept price is a clamped, left-to-right sum of ``w * gammainc(a,
        r * (d - T'))`` with every ``w >= 0``, and float differences,
        products and sums are monotone, so the price can rise as ``d``
        falls only by what ``gammainc`` falls as its argument grows: a few
        last bits, which the margin covers.  The bound thus holds on the
        computed floats as long as ``gammainc`` never falls by more.
        """
        then, price = self.prices.get(data_size, _NO_CEILING)
        return min(1.0, price + _PRICE_MARGIN) if deadline <= then else 1.0

    def keep_price(self, data_size: float, deadline: float, price: float) -> None:
        """Keep ``price``, the price of ``data_size`` at ``deadline``, for
        :meth:`ceiling`, unless that size is built in blocks or its kept
        terms have a negative weight; nothing is kept for a size whose
        terms are not built."""
        kept = self.prices.get(data_size)
        if kept is None:
            entry = self.memo.get(data_size)
            if entry is None:
                return
            if not _monotone(entry[1]):
                self.prices[data_size] = _NO_CEILING
                return
        elif kept is _NO_CEILING:
            return
        self.prices[data_size] = (deadline, price)

    def entry(self, data_size: float, deadline: float) -> tuple | None:
        """The memo entry ``(T', terms)`` of ``data_size``, built and stored
        when missing; None, with nothing built, when ``deadline`` does not
        cover ``T'``.  A build that raises stores nothing, so the next
        query raises again.

        Raises:
            ComplexityError: a multi-hop tuple space exceeds
                ``DEFAULT_TUPLE_CAP`` (checked before any tuple is
                enumerated).
        """
        entry = self.memo.get(data_size)
        if entry is not None:
            return entry
        hops = self.hops
        transmission = _transmission(hops, data_size)
        if deadline - transmission <= 0:
            return None
        limits = _limits(hops, data_size)
        tuples = math.prod(limits)
        if len(hops) > 1 and tuples > DEFAULT_TUPLE_CAP:
            raise ComplexityError(
                f"path would require enumerating {tuples} contact tuples "
                f"(cap {DEFAULT_TUPLE_CAP}); the query is too large for this estimator"
            )
        if tuples > _MAX_KEPT:
            terms = _BlockTerms(hops, data_size, limits)
        elif len(hops) == 1:
            terms = next(_onehop_terms(hops[0], data_size, limits[0]))
        else:
            gammas = self.gammas.get(limits)
            if gammas is None:
                gammas = self.gammas[limits] = _tuple_gammas(hops, limits)
            terms = _kept_terms(hops, data_size, limits, gammas)
        entry = self.memo[data_size] = (transmission, terms)
        return entry


def delivery_probs(queries: Sequence[tuple[PathSpec, float]], deadline: float) -> list[float]:
    """Delivery probability of each ``(path, data size)`` query within one
    ``deadline``, priced from each path's :class:`RouteTerms`.

    A query is answered as ``sum(w * gammainc(shape, rate * (T - T')))``
    over its terms in ``itertools.product`` order, summed left to right: one
    hop uses shape ``n`` and rate ``lambda`` (the Erlang CDF), several hops
    the moment-matched gamma of :func:`gamma_approx`.  A query whose
    deadline does not cover its ``T'`` answers 0, as does every query at a
    deadline of at most 0.  Every answer is the path's tuple-by-tuple sum,
    whatever the batch.

    Raises:
        ComplexityError: a multi-hop tuple space exceeds ``DEFAULT_TUPLE_CAP``
            (checked only once the deadline covers ``T'``, and before any
            tuple is enumerated).
        ValueError: the deadline is NaN or +inf, a data size is not finite
            and > 0, or a gamma argument ``rate * (deadline - T')`` is not
            finite.
    """
    if not (deadline <= 0 or math.isfinite(deadline)):
        raise ValueError(f"deadline must be finite and > 0, got {deadline!r}")
    probs = [0.0] * len(queries)
    stacked = []
    for index, (path, data_size) in enumerate(queries):
        # a plain float in range needs no call to the validator
        if not (type(data_size) is float and 0.0 < data_size < math.inf):
            check_positive("data_size", data_size)
        entry = path.terms.entry(data_size, deadline)
        if entry is None:
            continue
        transmission, terms = entry
        budget = deadline - transmission
        if budget <= 0:
            continue
        if isinstance(terms, _BlockTerms):
            probs[index] = terms.prob(budget)
        else:
            stacked.append((index, budget, terms))
    _sum_stacked(probs, stacked, deadline)
    return probs


def delivery_prob_onehop(hop: PairContactParams, query: DeliveryQuery) -> float:
    """Delivery probability of a data item over a single hop.

    The item needs at most ``l = ceil(D / beta)`` contacts.  Writing
    ``T' = D / rate`` for the transmission time, the probability is the sum
    over ``i = 1..l`` of

        P(exactly i contacts carry D) * P(i-th contact in time)

    where the in-time factor is the Erlang CDF ``P(i, lambda * (T - T'))``
    and the exactly-i factor is the increment ``TP(i) - TP(i-1)`` of the
    cumulative transfer probability from :func:`transfer_prob` (the
    within-i-contacts success events are nested, so consecutive increments
    decompose them disjointly).  The sum ends at the first ``i`` with
    ``TP(i) = 1`` or a zero in-time factor.  Returns 0 when the deadline
    cannot even cover the transmission time.  Priced by
    :func:`delivery_probs` from a one-hop path of its own.
    """
    return delivery_probs([(PathSpec((hop,)), query.data_size)], query.deadline)[0]


def delivery_prob_path(path: PathSpec, query: DeliveryQuery) -> float:
    """Delivery probability of a data item over a k-hop path.

    Enumerates every per-hop contact-count tuple ``<n_1..n_k>`` with
    ``1 <= n_i <= ceil(D / beta_i)``.  A tuple contributes the product over
    hops of P(hop i succeeds at exactly ``n_i`` contacts), decomposed as in
    :func:`delivery_prob_onehop`, times the probability that the total
    contact waiting time fits in the deadline minus the serial transmission
    time ``T' = sum(D / rate_i)``, evaluated through the moment-matched
    gamma for that tuple.  Single-hop paths reduce to
    :func:`delivery_prob_onehop` and are not capped.  Priced by
    :func:`delivery_probs` from ``path.terms``, so the path's memo answers
    a repeated size at any deadline.

    Raises:
        ComplexityError: the tuple space exceeds ``DEFAULT_TUPLE_CAP``.
    """
    return delivery_probs([(path, query.data_size)], query.deadline)[0]


def path_capacity(path: PathSpec) -> float:
    """Data amount the path can carry whenever it materializes: min beta."""
    return min(hop.beta for hop in path.hops)
