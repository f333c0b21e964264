import numpy as np
import pytest

from vsrobust import (AffinePiece, DomainError, LambdaInterval, UsageError,
                      WeightFunction, effective_cost, upper_envelope,
                      weight_moments)
from vsrobust.instances import SplitMix64

from oracles import simpson_moments


def _line(slope, intercept, tag=0):
    return AffinePiece(slope, intercept, np.array([tag % 2, tag // 2 % 2],
                                                  dtype=np.int8))


class TestEffectiveCost:
    def test_used_coordinate_inflates(self):
        c = effective_cost(np.array([1]), 0.3, np.array([10.0]))
        assert c[0] == pytest.approx(13.0)

    def test_unused_coordinate_deflates(self):
        c = effective_cost(np.array([0]), 0.3, np.array([10.0]))
        assert c[0] == pytest.approx(7.0)

    def test_zero_size_is_nominal(self):
        nominal = np.array([3.0, 7.0, 0.0])
        x = np.array([1, 0, 1])
        assert np.array_equal(effective_cost(x, 0.0, nominal), nominal)

    def test_rejects_out_of_range_size(self):
        with pytest.raises(DomainError):
            effective_cost(np.array([1]), 1.5, np.array([1.0]))

    def test_non_negative_for_all_sizes(self):
        rng = SplitMix64(11)
        nominal = np.array([rng.randint(0, 50) for _ in range(20)], dtype=float)
        for lam in np.linspace(0, 1, 11):
            x = np.array([rng.next_u64() % 2 for _ in range(20)])
            assert np.all(effective_cost(x, lam, nominal) >= 0)


class TestUpperEnvelope:
    def test_two_lines_cross_once(self):
        prof = upper_envelope([_line(9.0, -1.0, 1), _line(0.0, 0.0, 2)],
                              LambdaInterval(0, 1))
        assert np.allclose(prof.breaks, [0.0, 1.0 / 9.0, 1.0])
        assert [p.slope for p in prof.pieces] == [0.0, 9.0]

    def test_single_line_no_interior_breaks(self):
        prof = upper_envelope([_line(2.0, 1.0)], LambdaInterval(0, 1))
        assert len(prof.pieces) == 1
        assert prof.interior_breakpoints.size == 0

    def test_empty_input_rejected(self):
        with pytest.raises(UsageError):
            upper_envelope([], LambdaInterval(0, 1))

    def test_matches_grid_max_on_random_lines(self):
        rng = SplitMix64(7)
        lines = [_line(20.0 * rng.unit() - 5.0, 10.0 * rng.unit() - 5.0, i)
                 for i in range(50)]
        prof = upper_envelope(lines, LambdaInterval(0, 1))
        prof.validate()
        grid = np.linspace(0, 1, 10_000)
        expect = np.max([l.value(grid) for l in lines], axis=0)
        assert np.max(np.abs(prof.value(grid) - expect)) < 1e-9

    def test_convex_and_continuous(self):
        rng = SplitMix64(99)
        for trial in range(20):
            lines = [_line(10 * rng.unit(), 10 * rng.unit(), i)
                     for i in range(rng.randint(1, 12))]
            prof = upper_envelope(lines, LambdaInterval(0, 1))
            prof.validate()
            slopes = [p.slope for p in prof.pieces]
            assert slopes == sorted(slopes)

    def test_equal_slope_keeps_larger_intercept(self):
        keep = _line(1.0, 2.0, 1)
        drop = _line(1.0, 1.0, 2)
        prof = upper_envelope([drop, keep], LambdaInterval(0, 1))
        assert prof.pieces[0].intercept == 2.0


class TestWeightMoments:
    def test_constant_weight(self):
        w = WeightFunction.constant(0, 1)
        assert weight_moments(w, 0, 1) == (1.0, 0.5)

    def test_linear_weight(self):
        w = WeightFunction([(0.0, 0.0), (1.0, 1.0)])
        m0, m1 = weight_moments(w, 0, 1)
        assert m0 == pytest.approx(0.5, abs=1e-15)
        assert m1 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_simpson_on_random_pwl(self):
        rng = SplitMix64(5)
        for _ in range(10):
            lams = sorted({0.0, 1.0} | {rng.unit() for _ in range(4)})
            w = WeightFunction([(l, 3.0 * rng.unit()) for l in lams])
            a = 0.3 * rng.unit()
            b = 1.0 - 0.3 * rng.unit()
            m0, m1 = weight_moments(w, a, b)
            s0, s1 = simpson_moments(w, a, b)
            assert m0 == pytest.approx(s0, rel=1e-10)
            assert m1 == pytest.approx(s1, rel=1e-10)

    def test_additive_over_subintervals(self):
        rng = SplitMix64(17)
        w = WeightFunction([(0.0, 1.0), (0.4, 0.2), (1.0, 2.0)])
        for _ in range(20):
            a, b, c = sorted(rng.unit() for _ in range(3))
            left = weight_moments(w, a, b)
            right = weight_moments(w, b, c)
            whole = weight_moments(w, a, c)
            assert whole[0] == pytest.approx(left[0] + right[0], rel=1e-12, abs=1e-15)
            assert whole[1] == pytest.approx(left[1] + right[1], rel=1e-12, abs=1e-15)

    def test_reversed_range_rejected(self):
        with pytest.raises(DomainError):
            weight_moments(WeightFunction.constant(0, 1), 0.8, 0.2)


class TestWeightFunctionValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            WeightFunction([(0.0, 1.0), (1.0, -0.5)])

    def test_identically_zero_rejected(self):
        with pytest.raises(DomainError):
            WeightFunction([(0.0, 0.0), (1.0, 0.0)])

    def test_duplicate_breakpoints_rejected(self):
        with pytest.raises(UsageError):
            WeightFunction([(0.2, 1.0), (0.2, 2.0), (1.0, 1.0)])

    def test_degenerate_single_point_allowed(self):
        w = WeightFunction.constant(0.0, 0.0)
        assert w.total_mass() == 0.0

    def test_negative_interval_bounds_rejected(self):
        with pytest.raises(DomainError):
            LambdaInterval(-0.2, 0.5)
