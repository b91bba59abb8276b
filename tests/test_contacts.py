import dataclasses
import math

import numpy as np
import pytest

import oppload as ol
from oppload.contacts import _reg_lower_incomplete_gammas
from oppload.errors import ComplexityError, FittingError


class TestPairContactParams:
    @pytest.mark.parametrize("lam", [1e-200, 1e-155, 1e155, 1e200])
    def test_contact_rate_with_degenerate_square_is_rejected(self, lam):
        # the estimators divide by lambda**2 and by its reciprocal
        with pytest.raises(ValueError, match="contact_rate"):
            ol.PairContactParams(lam, 3.0, 2.0, 1.0)

    @pytest.mark.parametrize("lam", [1e-154, 1e154])
    def test_extreme_contact_rates_within_range_are_kept(self, lam):
        assert ol.PairContactParams(lam, 3.0, 2.0, 1.0).contact_rate == lam

    def test_hash_is_the_field_tuple_hash(self):
        # the hash is the value a dataclass computes from the four fields;
        # equality compares the fields
        fields = (0.1, 3.0, 2.5, 1.0)
        hop = ol.PairContactParams(*fields)
        assert hash(hop) == hash(fields)
        assert hop == ol.PairContactParams(*fields)
        assert hop != ol.PairContactParams(0.1, 3.0, 2.5, 2.0)
        assert {hop: 1}[ol.PairContactParams(*fields)] == 1
        assert repr(hop) == "PairContactParams(contact_rate=0.1, alpha=3.0, beta=2.5, rate=1.0)"
        moved = dataclasses.replace(hop, rate=2.0)
        assert hash(moved) == hash((0.1, 3.0, 2.5, 2.0))


class TestFitExponential:
    def test_closed_form(self):
        assert ol.fit_exponential([1, 2, 3]) == pytest.approx(0.5)

    def test_constant_samples(self):
        assert ol.fit_exponential([4, 4, 4, 4]) == pytest.approx(0.25)

    def test_consistency_on_sampled_data(self):
        rng = np.random.default_rng(123)
        samples = rng.exponential(1 / 0.1, size=10_000)
        assert ol.fit_exponential(samples) == pytest.approx(0.1, abs=0.01)

    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_mle_converges(self, lam):
        rng = np.random.default_rng(int(lam * 1000))
        samples = rng.exponential(1 / lam, size=10_000)
        estimate = ol.fit_exponential(samples)
        assert abs(estimate - lam) / lam < 0.05

    @pytest.mark.parametrize("bad", [[], [1.0], [0.0, 0.0], [1.0, -2.0]])
    def test_degenerate_inputs(self, bad):
        with pytest.raises(FittingError):
            ol.fit_exponential(bad)


class TestFitPareto:
    def test_closed_form(self):
        alpha, beta = ol.fit_pareto([2, 4, 8])
        assert beta == 2
        assert alpha == pytest.approx(3 / math.log(8))

    def test_closed_form_with_ties(self):
        alpha, beta = ol.fit_pareto([5, 5, 10])
        assert beta == 5
        assert alpha == pytest.approx(3 / math.log(2))

    def test_consistency_on_sampled_data(self):
        rng = np.random.default_rng(7)
        samples = (rng.pareto(2.0, size=10_000) + 1.0) * 3.0
        alpha, beta = ol.fit_pareto(samples)
        assert 1.9 <= alpha <= 2.1
        assert 3.0 <= beta <= 3.01

    def test_scale_is_minimum_and_shape_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            samples = (rng.pareto(rng.uniform(0.5, 5), size=50) + 1) * rng.uniform(0.1, 9)
            alpha, beta = ol.fit_pareto(samples)
            assert beta == min(samples)
            assert alpha > 0

    @pytest.mark.parametrize("bad", [[], [3.0], [5.0, 5.0, 5.0], [1.0, -1.0], [0.0, 2.0]])
    def test_degenerate_inputs(self, bad):
        with pytest.raises(FittingError):
            ol.fit_pareto(bad)


class TestSampleContactProcess:
    PARAMS = ol.PairContactParams(contact_rate=0.1, alpha=2.0, beta=4.0, rate=2.0)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            ol.sample_contact_process(self.PARAMS, 0.0, rng_seed=1)

    def test_event_count_follows_poisson_law(self):
        events = ol.sample_contact_process(self.PARAMS, 1000.0, rng_seed=5)
        # expectation 100, three-sigma band of the Poisson count
        assert 70 <= len(events) <= 130

    def test_deterministic_for_fixed_seed(self):
        a = ol.sample_contact_process(self.PARAMS, 500.0, rng_seed=42)
        b = ol.sample_contact_process(self.PARAMS, 500.0, rng_seed=42)
        assert a == b

    def test_durations_respect_pareto_floor(self):
        events = ol.sample_contact_process(self.PARAMS, 2000.0, rng_seed=3)
        assert events, "expected some contacts"
        for start, duration in events:
            assert 0 < start <= 2000.0
            assert duration * self.PARAMS.rate >= self.PARAMS.beta - 1e-12

    def test_expected_contact_count_is_bounded(self):
        # 1e12 expected contacts: the check must raise before any draw
        fast = ol.PairContactParams(contact_rate=1e9, alpha=2.0, beta=4.0, rate=2.0)
        with pytest.raises(ComplexityError, match="contact_rate 1000000000.0 over horizon 1000.0"):
            ol.sample_contact_process(fast, 1e3, rng_seed=1)

    def test_seed_sequence_matches_its_integer_seed(self):
        a = ol.sample_contact_process(self.PARAMS, 800.0, rng_seed=np.random.SeedSequence(7))
        assert a == ol.sample_contact_process(self.PARAMS, 800.0, rng_seed=7)

    def test_starts_increase(self):
        events = ol.sample_contact_process(self.PARAMS, 1000.0, rng_seed=9)
        starts = [s for s, _ in events]
        assert starts == sorted(starts)


class TestRegLowerIncompleteGamma:
    def test_shape_one_is_exponential_cdf(self):
        assert ol.reg_lower_incomplete_gamma(1, 1) == pytest.approx(
            1 - math.exp(-1), abs=1e-10
        )

    def test_erlang_two_closed_form(self):
        assert ol.reg_lower_incomplete_gamma(2, 3) == pytest.approx(
            1 - math.exp(-3) * 4, abs=1e-10
        )

    def test_half_shape_matches_erf(self):
        assert ol.reg_lower_incomplete_gamma(0.5, 0.5) == pytest.approx(
            math.erf(math.sqrt(0.5)), abs=1e-10
        )

    @pytest.mark.parametrize("shape", [0.3, 1.0, 2.5, 17.0])
    def test_monotone_and_limits(self, shape):
        xs = np.linspace(0, 50 * shape, 200)
        values = [ol.reg_lower_incomplete_gamma(shape, x) for x in xs]
        assert values[0] == 0.0
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert ol.reg_lower_incomplete_gamma(shape, 1e6 * shape) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "shape,x", [(0, 1), (-1, 1), (1, -1), (math.nan, 1), (1, math.nan), (math.inf, 1), (1, math.inf)]
    )
    def test_domain_errors(self, shape, x):
        with pytest.raises(ValueError):
            ol.reg_lower_incomplete_gamma(shape, x)


class TestRegLowerIncompleteGammas:
    def test_equals_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(8)
        shapes = rng.uniform(0.05, 60.0, size=500).tolist()
        xs = (rng.uniform(0.0, 2.0, size=500) * shapes).tolist()
        xs[:3] = [0.0, 1e-300, 1e6]
        assert _reg_lower_incomplete_gammas(shapes, xs) == [
            ol.reg_lower_incomplete_gamma(a, x) for a, x in zip(shapes, xs)
        ]

    @pytest.mark.parametrize(
        "shape,x", [(0, 1), (-1, 1), (1, -1), (math.nan, 1), (1, math.nan), (math.inf, 1), (1, math.inf)]
    )
    def test_raises_as_the_scalar_call_does(self, shape, x):
        with pytest.raises(ValueError) as scalar:
            ol.reg_lower_incomplete_gamma(shape, x)
        with pytest.raises(ValueError) as batch:
            _reg_lower_incomplete_gammas([2.0, shape, 3.0], [1.0, x, 1.0])
        assert str(batch.value) == str(scalar.value)


class TestLogBeta:
    def test_known_values(self):
        assert ol.log_beta(1, 1) == pytest.approx(0.0, abs=1e-10)
        assert ol.log_beta(2, 0.5) == pytest.approx(math.log(4 / 3), abs=1e-10)
        assert ol.log_beta(3, 2) == pytest.approx(math.log(1 / 12), abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b = rng.uniform(0.1, 20, size=2)
            assert ol.log_beta(a, b) == pytest.approx(ol.log_beta(b, a), abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-2, 1), (math.inf, 1), (math.nan, 2)])
    def test_domain_errors(self, a, b):
        with pytest.raises(ValueError):
            ol.log_beta(a, b)


class TestParamContainers:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            ol.PairContactParams(contact_rate=0, alpha=1, beta=1, rate=1)
        with pytest.raises(ValueError):
            ol.PairContactParams(contact_rate=1, alpha=1, beta=math.inf, rate=1)
