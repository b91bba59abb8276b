import itertools
import math

import numpy as np
import pytest

import oppload as ol
from oppload.contacts import reg_lower_incomplete_gamma
from oppload.delivery import (
    _CHUNK,
    _MAX_KEPT,
    DEFAULT_TUPLE_CAP,
    _BlockTerms,
    _kept_terms,
    _limits,
    _transmission,
    _tuple_gammas,
    delivery_probs,
)
from oppload.errors import ComplexityError


def serial_sum(values):
    """``values`` added left to right from 0.0, as builtin ``sum`` adds
    floats before Python 3.12 (it compensates from 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


def hop(lam=0.1, alpha=2.0, beta=2.0, rate=1.0):
    return ol.PairContactParams(contact_rate=lam, alpha=alpha, beta=beta, rate=rate)


class TestGammaApprox:
    def test_single_exponential(self):
        g = ol.gamma_approx([1], [0.5])
        assert (g.gamma_shape, g.delta_rate) == (pytest.approx(1), pytest.approx(0.5))

    def test_iid_sum_is_exact_erlang(self):
        g = ol.gamma_approx([3], [2.0])
        assert (g.gamma_shape, g.delta_rate) == (pytest.approx(3), pytest.approx(2))

    def test_two_hop_moment_match(self):
        g = ol.gamma_approx([1, 1], [1.0, 2.0])
        assert g.gamma_shape == pytest.approx(1.8)
        assert g.delta_rate == pytest.approx(1.2)

    def test_moment_identity_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = rng.integers(1, 6)
            counts = rng.integers(1, 10, size=k).tolist()
            lams = rng.uniform(0.01, 5.0, size=k).tolist()
            g = ol.gamma_approx(counts, lams)
            mean = sum(n / l for n, l in zip(counts, lams))
            var = sum(n / l**2 for n, l in zip(counts, lams))
            assert g.gamma_shape / g.delta_rate == pytest.approx(mean, abs=1e-12, rel=1e-12)
            assert g.gamma_shape / g.delta_rate**2 == pytest.approx(var, abs=1e-12, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ol.gamma_approx([1, 2], [1.0])
        with pytest.raises(ValueError):
            ol.gamma_approx([], [])
        with pytest.raises(ValueError):
            ol.gamma_approx([0], [1.0])
        with pytest.raises(ValueError):
            ol.gamma_approx([1], [-1.0])


class TestAvailability:
    def test_one_hop_exponential_cdf(self):
        path = ol.PathSpec((hop(lam=0.01),))
        assert ol.availability(path, 100.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_two_equal_hops_exact_erlang(self):
        path = ol.PathSpec((hop(lam=0.1), hop(lam=0.1)))
        expected = 1 - math.exp(-3) * (1 + 3)
        assert ol.availability(path, 30.0) == pytest.approx(expected, abs=1e-10)

    def test_zero_deadline(self):
        path = ol.PathSpec((hop(), hop(), hop()))
        assert ol.availability(path, 0.0) == 0.0


class TestMeanMaxRatio:
    def test_single_contact_is_one(self):
        for alpha in (0.5, 1.0, 2.7, 9.0):
            assert ol.mean_max_ratio(1, alpha) == 1.0

    def test_alpha_one_harmonic(self):
        assert ol.mean_max_ratio(3, 1.0) == pytest.approx(11 / 6, abs=1e-12)

    def test_c2_alpha2(self):
        assert ol.mean_max_ratio(2, 2.0) == pytest.approx(5 / 3, abs=1e-12)

    def test_near_one_routes_to_harmonic(self):
        exact = sum(1 / i for i in range(1, 5))
        assert ol.mean_max_ratio(4, 1.0 + 1e-10) == pytest.approx(exact, abs=1e-9)

    def test_bounds_and_monotone_in_contacts(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            alpha = float(rng.uniform(0.2, 8.0))
            values = [ol.mean_max_ratio(c, alpha) for c in range(1, 20)]
            for c, value in enumerate(values, start=1):
                assert 1.0 <= value <= c
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ol.mean_max_ratio(0, 2.0)
        with pytest.raises(ValueError):
            ol.mean_max_ratio(2, 0.0)


class TestTransferProb:
    def test_single_contact_pareto_tail(self):
        assert ol.transfer_prob(hop(alpha=2, beta=2), 1, 4.0) == pytest.approx(0.25)

    def test_two_contacts_uses_ratio(self):
        assert ol.transfer_prob(hop(alpha=2, beta=2), 2, 10.0) == pytest.approx(17 / 81)

    def test_guaranteed_when_item_fits_minimum(self):
        for alpha in (0.7, 1.0, 3.0):
            assert ol.transfer_prob(hop(alpha=alpha, beta=5), 1, 5.0) == 1.0
            assert ol.transfer_prob(hop(alpha=alpha, beta=5), 1, 4.0) == 1.0

    def test_monotone_in_contacts_beta_and_size(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            alpha = float(rng.uniform(1.2, 5.0))
            beta = float(rng.uniform(1.0, 4.0))
            size = float(rng.uniform(beta, 8 * beta))
            by_c = [ol.transfer_prob(hop(alpha=alpha, beta=beta), c, size) for c in range(1, 9)]
            assert all(b >= a - 1e-12 for a, b in zip(by_c, by_c[1:]))
            by_beta = [
                ol.transfer_prob(hop(alpha=alpha, beta=b), 3, size)
                for b in np.linspace(0.5, size, 10)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(by_beta, by_beta[1:]))
            by_size = [
                ol.transfer_prob(hop(alpha=alpha, beta=beta), 3, s)
                for s in np.linspace(beta / 2, 10 * beta, 12)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(by_size, by_size[1:]))


class TestDeliveryOneHop:
    def test_single_term_reduces_to_exponential(self):
        h = hop(lam=0.1, alpha=2.0, beta=5.0, rate=1.0)
        got = ol.delivery_prob_onehop(h, ol.DeliveryQuery(5.0, 20.0))
        assert got == pytest.approx(1 - math.exp(-0.1 * 15), abs=1e-10)

    def test_deadline_equal_to_transmission_time(self):
        h = hop(rate=1.0)
        assert ol.delivery_prob_onehop(h, ol.DeliveryQuery(5.0, 5.0)) == 0.0

    def test_matches_monte_carlo(self):
        h = hop(lam=0.05, alpha=2.0, beta=5.0, rate=1.0)
        estimated = ol.delivery_prob_onehop(h, ol.DeliveryQuery(12.0, 200.0))
        (simulated,) = ol.run_monte_carlo_delivery(
            ol.PathSpec((h,)), 12.0, [200.0], runs=20_000, seed=42
        )
        assert abs(estimated - simulated) <= 0.05


class TestDeliveryPath:
    def test_single_hop_path_equals_onehop(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            h = hop(
                lam=float(rng.uniform(0.005, 0.2)),
                alpha=float(rng.uniform(1.2, 6.0)),
                beta=float(rng.uniform(1.0, 5.0)),
                rate=float(rng.uniform(0.5, 20.0)),
            )
            size = float(rng.uniform(0.5, 6.0) * h.beta)
            deadline = float(rng.uniform(size / h.rate + 1.0, 500.0))
            query = ol.DeliveryQuery(size, deadline)
            assert ol.delivery_prob_path(ol.PathSpec((h,)), query) == pytest.approx(
                ol.delivery_prob_onehop(h, query), abs=1e-9
            )

    def test_deadline_below_serial_transmission(self):
        path = ol.PathSpec((hop(rate=1.0), hop(rate=2.0)))
        # serial transmission needs 6 + 3 = 9 time units
        assert ol.delivery_prob_path(path, ol.DeliveryQuery(6.0, 9.0)) == 0.0

    def test_transmission_adds_hops_left_to_right(self):
        # builtin sum compensates float sums from Python 3.12 on, which would
        # price these routes differently on different Pythons
        rng = np.random.default_rng(31)
        rounded = 0
        for _ in range(2000):
            rates = rng.uniform(0.1, 10.0, size=rng.integers(3, 6)).tolist()
            hops = [hop(rate=rate) for rate in rates]
            size = float(rng.uniform(0.5, 50.0))
            expected = serial_sum(size / rate for rate in rates)
            assert _transmission(hops, size) == expected
            rounded += expected != math.fsum(size / rate for rate in rates)
        assert rounded > 0  # some routes do round, so the order matters

    def test_two_hop_matches_monte_carlo(self):
        path = ol.PathSpec(
            (hop(lam=0.05, alpha=2, beta=5, rate=1), hop(lam=0.08, alpha=2, beta=5, rate=1))
        )
        estimated = ol.delivery_prob_path(path, ol.DeliveryQuery(8.0, 300.0))
        (simulated,) = ol.run_monte_carlo_delivery(path, 8.0, [300.0], runs=20_000, seed=7)
        assert abs(estimated - simulated) <= 0.08

    def test_tuple_cap_refused(self):
        # 100 units over two hops of beta 0.001 need 10**5 * 10**5 tuples
        path = ol.PathSpec((hop(beta=0.001), hop(beta=0.001)))
        with pytest.raises(ComplexityError):
            ol.delivery_prob_path(path, ol.DeliveryQuery(100.0, 1e6))

    def test_monotone_in_size_and_deadline(self):
        # the max-based transfer approximation carries sub-0.1% wiggles in
        # the item size once the deadline saturates, so the size sweep
        # allows that much; the deadline sweep is exact
        rng = np.random.default_rng(37)
        for _ in range(5):
            hops = tuple(
                hop(
                    lam=float(rng.uniform(0.004, 0.03)),
                    alpha=float(rng.uniform(3.0, 8.0)),
                    beta=float(rng.uniform(2.0, 4.0)),
                    rate=10.0,
                )
                for _ in range(int(rng.integers(1, 3)))
            )
            path = ol.PathSpec(hops)
            beta = min(h.beta for h in hops)
            by_size = [
                ol.delivery_prob_path(path, ol.DeliveryQuery(k * beta, 400.0))
                for k in range(1, 9)
            ]
            assert all(b <= a + 1e-3 for a, b in zip(by_size, by_size[1:]))
            by_deadline = [
                ol.delivery_prob_path(path, ol.DeliveryQuery(3 * beta, t))
                for t in np.linspace(10.0, 600.0, 8)
            ]
            assert all(b >= a - 1e-9 for a, b in zip(by_deadline, by_deadline[1:]))

    def test_fuzzed_results_stay_probabilities(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            hops = tuple(
                hop(
                    lam=float(10 ** rng.uniform(-3, 0)),
                    alpha=float(rng.uniform(0.5, 8.0)),
                    beta=float(10 ** rng.uniform(-1, 1)),
                    rate=float(10 ** rng.uniform(-1, 2)),
                )
                for _ in range(k)
            )
            path = ol.PathSpec(hops)
            size = float(10 ** rng.uniform(-1, 1.2))
            deadline = float(10 ** rng.uniform(0, 3))
            try:
                value = ol.delivery_prob_path(path, ol.DeliveryQuery(size, deadline))
            except ComplexityError:
                continue
            assert 0.0 <= value <= 1.0


def needed(size, beta):
    return max(1, math.ceil(size / beta - 1e-9))


def reference_onehop(h, size, deadline):
    """The estimator summed term by term, as a scalar loop."""
    budget = deadline - size / h.rate
    if budget <= 0:
        return 0.0
    total = prev = 0.0
    for i in range(1, needed(size, h.beta) + 1):
        in_time = reg_lower_incomplete_gamma(i, h.contact_rate * budget)
        if in_time == 0.0:
            break
        success = ol.transfer_prob(h, i, size)
        total += (success - prev) * in_time
        if success >= 1.0:
            break
        prev = success
    return min(max(total, 0.0), 1.0)


def reference_path(hops, size, deadline):
    """The k-hop estimator summed tuple by tuple in product order."""
    if len(hops) == 1:
        return reference_onehop(hops[0], size, deadline)
    budget = deadline - serial_sum(size / h.rate for h in hops)
    if budget <= 0:
        return 0.0
    exact = []
    for h in hops:
        probs = [ol.transfer_prob(h, n, size) for n in range(1, needed(size, h.beta) + 1)]
        exact.append([p - (probs[n - 1] if n else 0.0) for n, p in enumerate(probs)])
    total = 0.0
    for combo in itertools.product(*(range(1, len(e) + 1) for e in exact)):
        weight = 1.0
        for e, n in zip(exact, combo):
            weight *= e[n - 1]
        if weight == 0.0:
            continue
        g = ol.gamma_approx(combo, [h.contact_rate for h in hops])
        total += weight * reg_lower_incomplete_gamma(g.gamma_shape, g.delta_rate * budget)
    return min(max(total, 0.0), 1.0)


class TestRouteTerms:
    """A single query, priced from its path's terms, is the scalar sum."""

    def test_bit_identical_to_scalar_reference(self):
        rng = np.random.default_rng(53)
        for _ in range(150):
            k = int(rng.integers(1, 4))
            hops = tuple(
                hop(
                    lam=float(10 ** rng.uniform(-3, 0)),
                    alpha=float(rng.uniform(0.5, 8.0)),
                    beta=float(10 ** rng.uniform(-0.3, 1)),
                    rate=float(10 ** rng.uniform(-1, 2)),
                )
                for _ in range(k)
            )
            size = float(10 ** rng.uniform(-1, 1.3))
            for deadline in 10 ** rng.uniform(0, 3.5, size=2):
                query = ol.DeliveryQuery(size, float(deadline))
                assert ol.delivery_prob_path(ol.PathSpec(hops), query) == reference_path(
                    hops, size, float(deadline)
                )

    def test_bit_identical_beyond_one_chunk(self):
        rng = np.random.default_rng(59)
        for size in (70.0, 80.0):
            hops = tuple(
                hop(lam=float(rng.uniform(0.01, 0.1)), alpha=float(rng.uniform(2, 8)), beta=2.5)
                for _ in range(3)
            )
            assert needed(size, 2.5) ** 3 > _CHUNK
            for deadline in (900.0, 3000.0):
                got = ol.delivery_prob_path(ol.PathSpec(hops), ol.DeliveryQuery(size, deadline))
                assert got == reference_path(hops, size, deadline)
                assert 0.0 < got < 1.0

    @pytest.mark.parametrize(
        "hops, deadlines, blocks",
        [
            # 2**10 tuples: the first hop's two prefix rows, one block
            (
                tuple(hop(lam=0.05 + 0.01 * i, alpha=1.5 + i % 3, beta=1.0) for i in range(10)),
                (300.0, 3000.0),
                [1024],
            ),
            # 2**16 tuples: prefix rows of two hops, 14 hops expanded, four blocks
            (
                tuple(hop(lam=0.08 + 0.005 * i, alpha=1.5 + i % 4, beta=1.0) for i in range(16)),
                (300.0,),
                [_CHUNK] * 4,
            ),
            # the last hop's 20,000 counts alone exceed _CHUNK: a block per row
            (
                (hop(lam=0.05, beta=1.0), hop(lam=20.0, beta=1e-4, rate=1000.0)),
                (600.0, 3000.0),
                [20000, 20000],
            ),
        ],
        ids=["one-block", "split-in-the-middle", "wide-last-hop"],
    )
    def test_many_hop_block_layouts_match_the_reference(self, hops, deadlines, blocks):
        path = ol.PathSpec(hops)
        for deadline in deadlines:
            got = ol.delivery_prob_path(path, ol.DeliveryQuery(2.0, deadline))
            assert got == reference_path(hops, 2.0, deadline)
            assert 0.0 < got < 1.0
        (_, terms), = path.terms.memo.values()
        assert [len(weights) for weights, _, _ in terms._blocks()] == blocks

    def test_one_hop_certain_success_ends_the_sum(self):
        # small shapes make the transfer probability round to 1 well before
        # ceil(D / beta) contacts: at 21 of 30, 70 of 100 and 424 of 800
        for alpha, beta, size in ((0.05, 1.0, 30.0), (0.2, 1.0, 100.0), (0.4, 0.5, 400.0)):
            h = hop(lam=0.05, alpha=alpha, beta=beta)
            assert ol.transfer_prob(h, int(0.9 * needed(size, beta)), size) == 1.0
            # at deadline 500 the size-400 item's Erlang CDF underflows to 0
            # from 245 contacts on, which ends that sum early too
            for deadline in (50.0, 500.0, 5000.0):
                query = ol.DeliveryQuery(size, deadline)
                assert ol.delivery_prob_onehop(h, query) == reference_onehop(h, size, deadline)
                assert ol.delivery_prob_path(ol.PathSpec((h,)), query) == reference_onehop(
                    h, size, deadline
                )

    def test_one_spec_builds_one_entry_for_every_deadline(self):
        hops = (hop(lam=0.03, alpha=3.0), hop(lam=0.07, alpha=5.0, beta=1.5))
        deadlines = [120.0, 40.0, 600.0, 250.0, 40.0, 1e4]
        path = ol.PathSpec(hops)
        warm = [ol.delivery_prob_path(path, ol.DeliveryQuery(9.0, d)) for d in deadlines]
        entry = path.terms.memo[9.0]
        interleaved = [
            ol.delivery_prob_path(path, ol.DeliveryQuery(9.0, d)) for d in reversed(deadlines)
        ]
        # every deadline was answered from the one entry built for size 9
        assert list(path.terms.memo) == [9.0] and path.terms.memo[9.0] is entry
        fresh = [
            ol.delivery_prob_path(ol.PathSpec(hops), ol.DeliveryQuery(9.0, d)) for d in deadlines
        ]
        assert fresh == warm == interleaved[::-1]
        assert warm == [reference_path(hops, 9.0, d) for d in deadlines]

    def test_cap_holds_after_smaller_queries_are_cached(self):
        path = ol.PathSpec((hop(beta=1.0, rate=100.0), hop(beta=1.0, rate=100.0)))
        # 20 units need 20 * 20 tuples; `over` units need just over the cap
        over = float(math.isqrt(DEFAULT_TUPLE_CAP) + 1)
        small = ol.delivery_prob_path(path, ol.DeliveryQuery(20.0, 500.0))
        assert small > 0.0
        with pytest.raises(ComplexityError):
            ol.delivery_prob_path(path, ol.DeliveryQuery(over, 500.0))
        # a deadline below the transmission time answers 0 before the cap
        assert ol.delivery_prob_path(path, ol.DeliveryQuery(over, 20.0)) == 0.0
        assert ol.delivery_prob_path(path, ol.DeliveryQuery(20.0, 500.0)) == small
        # the failed build stored nothing, so the cap raises again
        assert list(path.terms.memo) == [20.0]
        with pytest.raises(ComplexityError):
            ol.delivery_prob_path(path, ol.DeliveryQuery(over, 500.0))

    @pytest.mark.parametrize("size", [4.0, 30.0, 100.0])
    def test_failed_build_raises_again(self, size):
        # n / lambda**2 of the first hop overflows from n = 2 on, so the
        # gamma shape is 0; sizes 4, 30 and 100 give tuple spaces of 4 and
        # 225, which keep their terms, and 2500, which keeps its per-hop
        # vectors
        path = ol.PathSpec((hop(lam=1e-154), hop(lam=0.1)))
        query = ol.DeliveryQuery(size, 1e4)
        errors = []
        for _ in range(2):
            with pytest.raises((ValueError, ZeroDivisionError)) as caught:
                ol.delivery_prob_path(path, query)
            errors.append((caught.type, str(caught.value)))
        assert errors[0] == errors[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "hops, size, where",
        [
            ((hop(lam=1e10),) * 2, 3.0, "deadline"),  # 2 x 2 tuples: kept
            ((hop(lam=1e10, beta=0.1),), 40.0, "time budget"),  # 400 contacts
            ((hop(lam=1e10, beta=0.1),) * 2, 40.0, "time budget"),  # 400 x 400 tuples
        ],
    )
    def test_gamma_argument_overflow_raises_again(self, hops, size, where):
        # rate * budget overflows to inf: kept and block terms alike raise
        # the same ValueError each time, and numpy warns of nothing
        path = ol.PathSpec(hops)
        for _ in range(2):
            with pytest.raises(ValueError) as caught:
                ol.delivery_prob_path(path, ol.DeliveryQuery(size, 1e300))
            assert str(caught.value) == f"gamma argument overflows at {where} 1e+300"
        assert size in path.terms.memo

    def test_first_kept_failing_tuple_raises(self):
        # the mean squared overflows at 14 contacts on the first hop, so
        # tuples (14, 1..7) fail the gamma check; the second hop's huge
        # shape gives (14, 1..6) zero weight, so (14, 7) raises, as a check
        # of each kept tuple in product order would
        hops = (hop(lam=1e-153, beta=1.0), hop(lam=1e-150, alpha=1e6))
        limits = _limits(hops, 14.0)
        shapes, rates, failing = gammas = _tuple_gammas(hops, limits)
        assert (limits, failing) == ((14, 7), tuple(range(91, 98)))
        message = (
            f"gamma shape and rate must be finite and > 0, got ({shapes[97]!r}, {rates[97]!r})"
        )
        assert rates[91] != rates[97]
        with pytest.raises(ValueError) as caught:
            _kept_terms(hops, 14.0, limits, gammas)
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            ol.delivery_prob_path(ol.PathSpec(hops), ol.DeliveryQuery(14.0, 1e4))
        assert str(caught.value) == message

    def test_failing_tuples_of_zero_weight_do_not_raise(self):
        # the first hop is certain at one contact, so every tuple past it has
        # zero weight, among them (2, 1..2) and (3, 1..2), whose gammas fail
        hops = (hop(lam=1e-154, alpha=1e-20, beta=1.0), hop(lam=0.1))
        limits = _limits(hops, 3.0)
        gammas = _tuple_gammas(hops, limits)
        assert (limits, gammas[2]) == ((3, 2), (2, 3, 4, 5))
        weights, shapes, rates = _kept_terms(hops, 3.0, limits, gammas)
        assert (list(shapes), list(rates)) == ([1.0, 1.0], [1e-154, 1e-154])
        assert 0.0 < ol.delivery_prob_path(ol.PathSpec(hops), ol.DeliveryQuery(3.0, 1e4)) < 1.0

    @pytest.mark.parametrize(
        "hops, size",
        [
            ((hop(beta=0.5),), 400.0),  # one hop, 800 contacts
            ((hop(beta=1.0), hop(beta=2.0)), 300.0),  # 300 x 150 tuples
            ((hop(beta=10.0), hop(beta=1.0)), 400.0),  # 40 x 400 tuples
            ((hop(beta=2.0), hop(beta=2.0), hop(beta=2.0)), 60.0),  # 30**3 tuples
        ],
    )
    def test_kept_arrays_are_bounded(self, hops, size):
        path = ol.PathSpec(hops)
        for deadline in (500.0, 5000.0):
            query = ol.DeliveryQuery(size, deadline)
            assert ol.delivery_prob_path(path, query) == (
                reference_onehop(hops[0], size, deadline)
                if len(hops) == 1
                else reference_path(hops, size, deadline)
            )
        assert math.prod(needed(size, h.beta) for h in hops) > _MAX_KEPT
        (_, terms), = path.terms.memo.values()
        assert isinstance(terms, _BlockTerms)
        assert sum(len(v) for arrays in terms.per_hop or () for v in arrays) <= 3 * _MAX_KEPT


def random_hop(rng):
    return hop(
        lam=float(10 ** rng.uniform(-3, 0)),
        alpha=float(rng.uniform(0.5, 8.0)),
        beta=float(10 ** rng.uniform(-0.3, 1)),
        rate=float(10 ** rng.uniform(-1, 2)),
    )


class TestDeliveryProbs:
    """:func:`delivery_probs` answers each member of a batch exactly as the
    member asked alone."""

    def check(self, members, deadline, specs=None):
        """Price ``members``, (hops, size) pairs, in one batch of ``specs``
        (one fresh spec per member by default)."""
        specs = specs or [ol.PathSpec(hops) for hops, _ in members]
        got = delivery_probs([(spec, size) for spec, (_, size) in zip(specs, members)], deadline)
        for (hops, size), prob in zip(members, got):
            query = ol.DeliveryQuery(size, deadline)
            alone = (
                ol.delivery_prob_onehop(hops[0], query)
                if len(hops) == 1
                else ol.delivery_prob_path(ol.PathSpec(hops), query)
            )
            assert prob == alone == reference_path(hops, size, deadline)
        return got

    def test_random_batches_match_single_queries(self):
        rng = np.random.default_rng(61)
        pool = [random_hop(rng) for _ in range(6)]
        for _ in range(150):
            members = []
            for _ in range(int(rng.integers(1, 12))):
                hops = tuple(pool[i] for i in rng.integers(len(pool), size=int(rng.integers(1, 4))))
                members.append((hops, float(10 ** rng.uniform(-1, 1.2))))
            if rng.random() < 0.3:
                members.append(members[0])  # a repeated (hops, size) pair
            # equal hops share one spec, so a batch also asks its memo again
            shared = {hops: ol.PathSpec(hops) for hops, _ in members}
            try:
                self.check(
                    members, float(10 ** rng.uniform(0, 3.5)), [shared[h] for h, _ in members]
                )
            except ComplexityError:
                continue

    def test_mixed_members(self):
        # certain success at 21 of 30 contacts; at deadline 500 the Erlang
        # CDF of the size-400 item underflows to 0 from 245 contacts on
        certain = hop(lam=0.05, alpha=0.05, beta=1.0)
        slow = hop(lam=0.05, alpha=0.4, beta=0.5)
        # kept as Python floats: certain success at 7 of 10 contacts, and a
        # CDF that underflows to 0 from 3 contacts on
        certain_small = hop(lam=0.05, alpha=0.001, beta=1.0)
        rare = hop(lam=1e-154, alpha=3.0, beta=1.0)
        two = (hop(lam=0.03, alpha=3.0), hop(lam=0.07, alpha=5.0, beta=1.5))
        members = [
            ((certain,), 30.0),
            ((slow,), 400.0),
            (two, 2.0),
            (two, 9.0),  # 5 x 6 tuples: kept as Python floats
            ((hop(rate=0.01),), 5.0),  # the deadline cannot cover T' = 500
            (two, 2.0),
            ((hop(lam=0.02),), 1.0),
            ((certain_small,), 10.0),
            ((rare,), 6.0),
        ]
        assert needed(9.0, two[0].beta) * needed(9.0, two[1].beta) == 30
        specs = [ol.PathSpec(hops) for hops, _ in members]
        for deadline in (50.0, 500.0, 5000.0):
            got = self.check(members, deadline, specs)
            assert (got[4] == 0.0) == (deadline <= 500.0)
            assert got[2] == got[5]

        def kept(index):
            """The kept terms member ``index``'s spec holds for its size."""
            terms = specs[index].terms.memo[members[index][1]][1]
            assert not isinstance(terms, _BlockTerms)
            return terms

        assert len(kept(3)[0]) <= 30
        assert len(kept(7)[0]) == 7
        assert len(kept(8)[0]) == 6

    def test_over_cap_member_raises(self):
        path = ol.PathSpec((hop(beta=1.0, rate=100.0), hop(beta=1.0, rate=100.0)))
        over = float(math.isqrt(DEFAULT_TUPLE_CAP) + 1)
        members = [(path, 2.0), (path, over)]
        for _ in range(2):
            with pytest.raises(ComplexityError):
                delivery_probs(members, 500.0)
        # below its transmission time the over-cap member answers 0 first
        assert delivery_probs(members, 20.0)[1] == 0.0
        assert over not in path.terms.memo

    def test_kept_and_block_terms_at_the_bound(self):
        # one hop and two hops with exactly _MAX_KEPT tuples (kept as Python
        # floats) and _MAX_KEPT + 1 (built in blocks), in one batch
        one = hop(lam=0.05, alpha=2.0, beta=1.0)
        inner = hop(lam=0.04, alpha=3.0, beta=1.0, rate=100.0)
        wide = hop(lam=0.06, alpha=5.0, beta=300.0, rate=100.0)
        members = [
            ((one,), float(_MAX_KEPT)),
            ((one,), float(_MAX_KEPT + 1)),
            ((inner, inner), 16.0),
            ((wide, inner), float(_MAX_KEPT + 1)),
        ]
        assert [
            math.prod(needed(size, h.beta) for h in hops) for hops, size in members
        ] == [_MAX_KEPT, _MAX_KEPT + 1] * 2
        specs = [ol.PathSpec(hops) for hops, _ in members]
        queries = [(spec, size) for spec, (_, size) in zip(specs, members)]
        # at deadline size + 100 the one-hop Erlang CDF underflows to 0 from
        # 245 contacts on, which ends the kept terms' sum
        assert reg_lower_incomplete_gamma(245, one.contact_rate * 100.0) == 0.0
        for deadline in (float(_MAX_KEPT + 100), 400.0, 2000.0, 6000.0):
            got = delivery_probs(queries, deadline)
            assert got[:2] == [reference_onehop(one, size, deadline) for _, size in members[:2]]
            assert got[2:] == [reference_path(hops, size, deadline) for hops, size in members[2:]]
            assert 0.0 < got[0] < 1.0
        terms = [spec.terms.memo[size][1] for spec, size in queries]
        assert [isinstance(t, _BlockTerms) for t in terms] == [False, True] * 2
        assert len(terms[0][0]) == _MAX_KEPT


class TestPathCapacity:
    def test_examples(self):
        assert ol.path_capacity(ol.PathSpec((hop(beta=5),))) == 5
        assert ol.path_capacity(
            ol.PathSpec((hop(beta=3), hop(beta=7), hop(beta=5)))
        ) == 3
        assert ol.path_capacity(ol.PathSpec((hop(beta=2), hop(beta=2)))) == 2


class TestQueryValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ol.DeliveryQuery(0.0, 10.0)
        with pytest.raises(ValueError):
            ol.DeliveryQuery(1.0, 0.0)

    def test_path_needs_a_hop(self):
        with pytest.raises(ValueError):
            ol.PathSpec(())
