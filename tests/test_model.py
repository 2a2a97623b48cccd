import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrenew import (
    KernelTransform,
    MMInfinityKernel,
    QueueParams,
    solve_rows,
    validate_kernel,
)


class TestQueueParams:
    def test_rho_is_always_derived(self):
        p = QueueParams(lam=2.0, alpha=0.5)
        assert p.rho == 2.0 * 0.5

    def test_rejects_negative_arrival_rate(self):
        with pytest.raises(ValueError):
            QueueParams(lam=-0.1, alpha=1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_rejects_nonpositive_service_time(self, alpha):
        with pytest.raises(ValueError):
            QueueParams(lam=1.0, alpha=alpha)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_nonfinite_arrival_rate(self, lam):
        with pytest.raises(ValueError):
            QueueParams(lam=lam, alpha=1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_nonfinite_service_time(self, alpha):
        with pytest.raises(ValueError):
            QueueParams(lam=1.0, alpha=alpha)

    def test_zero_arrivals_allowed(self):
        assert QueueParams(lam=0.0, alpha=1.0).rho == 0.0

    def test_rejects_infinite_traffic_intensity(self):
        # both rates are finite, but their product overflows; an infinite
        # rho would sweep NaN to n_max
        with pytest.raises(ValueError, match="lam \\* alpha must be finite"):
            QueueParams(lam=1e308, alpha=10.0)


def _entries(j, s, p):
    """(sigma_bar, tau_bar) of the M|M|infinity kernel."""
    return MMInfinityKernel(p).transforms(j, s)


def _sigma(j, s, p):
    return _entries(j, s, p)[0]


def _tau(j, s, p):
    return _entries(j, s, p)[1]


class TestKernelEntries:
    def test_tau_at_origin_is_one(self):
        # rho/(0 + rho + 0) with lam = alpha = 1
        assert _tau(0, 0.0, QueueParams(1.0, 1.0)) == pytest.approx(1.0, rel=1e-15)

    def test_tau_example(self):
        assert _tau(1, 2.0, QueueParams(2.0, 1.0)) == pytest.approx(0.4, rel=1e-15)

    def test_tau_vanishes_without_arrivals(self):
        assert _tau(5, 0.0, QueueParams(0.0, 1.0)) == 0.0

    def test_sigma_zero_at_state_zero(self):
        assert _sigma(0, 7.3, QueueParams(3.0, 2.0)) == 0.0

    def test_sigma_example(self):
        assert _sigma(3, 1.0, QueueParams(1.0, 1.0)) == pytest.approx(0.6, rel=1e-15)

    def test_sigma_pure_death(self):
        assert _sigma(2, 1.0, QueueParams(0.0, 1.0)) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("entry", [_tau, _sigma], ids=["mm_inf_tau_bar", "mm_inf_sigma_bar"])
    def test_domain_errors(self, entry):
        p = QueueParams(1.0, 1.0)
        with pytest.raises(ValueError):
            entry(-1, 1.0, p)
        with pytest.raises(ValueError):
            entry(1, -0.5, p)

    @given(
        j=st.integers(min_value=0, max_value=200),
        s=st.floats(min_value=0.0, max_value=100.0),
        lam=st.floats(min_value=0.0, max_value=10.0),
        alpha=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_sum_identity(self, j, s, lam, alpha):
        # sigma + tau == (j + rho) / (j + rho + alpha*s), an algebraic
        # identity away from the absorbing corner j = rho = s = 0
        p = QueueParams(lam, alpha)
        assume(j + p.rho + alpha * s > 0)
        total = _sigma(j, s, p) + _tau(j, s, p)
        expected = (j + p.rho) / (j + p.rho + alpha * s)
        assert total == pytest.approx(expected, rel=1e-15)

    def test_absorbing_corner_is_zero(self):
        p = QueueParams(0.0, 1.0)
        assert _tau(0, 0.0, p) == 0.0
        assert _sigma(0, 0.0, p) == 0.0
        assert MMInfinityKernel(p).transforms(0, 0.0) == (0.0, 0.0)

    def test_strict_decrease_in_s(self):
        p = QueueParams(1.0, 1.0)
        for j in (0, 1, 7):
            taus = [_tau(j, s, p) for s in (0.0, 0.5, 1.0, 4.0)]
            assert all(a > b for a, b in zip(taus, taus[1:]))
        sigmas = [_sigma(3, s, p) for s in (0.0, 0.5, 1.0, 4.0)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_vanishing_at_large_s(self):
        p = QueueParams(1.0, 1.0)
        s = 1e8 / p.alpha
        for j in (0, 1, 10):
            assert _tau(j, s, p) < 1e-6
            assert _sigma(j, s, p) < 1e-6


class _BadOriginKernel(KernelTransform):
    """sigma_bar(0, s) = 0.5, violating the no-death-from-zero condition."""

    def transforms(self, j, s):
        shape = np.broadcast(j, s).shape
        return np.full(shape, 0.5), np.full(shape, 0.25)


class _IncreasingKernel(KernelTransform):
    def transforms(self, j, s):
        j, s = np.broadcast_arrays(j, s)
        return np.where(j == 0, 0.0, 0.1), s / (1.0 + s)


class _ScalarOnlyKernel(KernelTransform):
    """Meets every invariant, but `if j == 0` cannot take an array of states."""

    def transforms(self, j, s):
        if j == 0:
            return 0.0, 0.5 / (1.0 + s)
        return 0.25 / (1.0 + s), 0.5 / (1.0 + s)


class _ScalarResultKernel(KernelTransform):
    """Returns one pair of scalars whatever the arrays it is given."""

    def transforms(self, j, s):
        return 0.0, 0.5


class TestValidateKernel:
    def test_mm_infinity_passes(self):
        kernel = MMInfinityKernel(QueueParams(1.0, 1.0))
        assert validate_kernel(kernel, 50, [0.0, 0.1, 1.0, 10.0]) == []

    def test_sum_equals_one_at_s_zero_is_allowed(self):
        # sigma + tau == 1 exactly at s = 0: the <= bound holds with equality
        kernel = MMInfinityKernel(QueueParams(2.0, 0.5))
        assert validate_kernel(kernel, 30, [0.0]) == []

    def test_bad_origin_reported(self):
        report = validate_kernel(_BadOriginKernel(), 3, [0.5, 1.0])
        assert any(j == 0 for j, _, _ in report)
        assert any("sigma_bar(0" in msg for _, _, msg in report)

    def test_monotonicity_violation_reported(self):
        report = validate_kernel(_IncreasingKernel(), 2, [0.5, 1.0, 2.0])
        assert any("increased" in msg for _, _, msg in report)

    def test_scalar_only_kernel_reported(self):
        # the solvers pass arrays of states and abscissas, and this kernel
        # cannot take them
        report = validate_kernel(_ScalarOnlyKernel(), 3, [0.5, 1.0])
        assert len(report) == 1
        assert "ambiguous" in report[0][2]
        with pytest.raises(ValueError, match="ambiguous"):
            solve_rows(0, 0, np.linspace(1.0, 2.0, 20), _ScalarOnlyKernel())

    def test_wrong_result_shape_reported(self):
        report = validate_kernel(_ScalarResultKernel(), 3, [0.5, 1.0])
        assert report == [(None, None, "transforms returned () and (), not (4, 2)")]

    def test_messages_print_python_floats(self):
        report = validate_kernel(_BadOriginKernel(), 0, [1.0])
        assert report == [(0, 1.0, "sigma_bar(0, 1.0) = 0.5, expected 0")]

    def test_empty_grid_rejected(self):
        kernel = MMInfinityKernel(QueueParams(1.0, 1.0))
        with pytest.raises(ValueError):
            validate_kernel(kernel, 5, [])

    def test_negative_s_rejected(self):
        kernel = MMInfinityKernel(QueueParams(1.0, 1.0))
        with pytest.raises(ValueError):
            validate_kernel(kernel, 5, [-1.0, 1.0])


class TestMMInfinityKernelEvaluator:
    def test_matches_rational_formulas(self):
        p = QueueParams(1.5, 0.7)
        kernel = MMInfinityKernel(p)
        for j in (0, 1, 4):
            for s in (0.0, 0.3, 2.0):
                sigma, tau = kernel.transforms(j, s)
                assert sigma == j / (j + p.rho + p.alpha * s)
                assert tau == p.rho / (j + p.rho + p.alpha * s)

    def test_complex_s_accepted(self):
        # j = 2, rho = 1, alpha = 1, s = 1 + 3i: denominator 4 + 3i
        kernel = MMInfinityKernel(QueueParams(1.0, 1.0))
        sigma, tau = kernel.transforms(2, complex(1.0, 3.0))
        assert sigma == 2 / (4 + 3j)
        assert tau == 1 / (4 + 3j)

    def test_complex_s_with_negative_real_part_rejected(self):
        kernel = MMInfinityKernel(QueueParams(1.0, 1.0))
        with pytest.raises(ValueError):
            kernel.transforms(2, complex(-1.0, 3.0))


class TestRates:
    """rates is the time-domain side of transforms: (sigma, tau) = (down, up) / (up + down + s)."""

    @pytest.mark.parametrize("lam", [0.0, 1e-6, 0.3, 7.5, 2000.0])
    @pytest.mark.parametrize("alpha", [1e-3, 0.37, 2.9, 50.0])
    def test_transforms_are_the_rates_race(self, lam, alpha):
        kernel = MMInfinityKernel(QueueParams(lam, alpha))
        states = np.arange(201)[:, None]
        s = np.concatenate([[0.0], np.geomspace(1e-6, 100.0, 40)])
        sigma, tau = kernel.transforms(states, s)
        up, down = kernel.rates(states)
        assert up == lam and np.array_equal(down, states / alpha)
        live = (states > 0) | (s > 0) | (lam > 0)     # all but the absorbing corner
        with np.errstate(invalid="ignore"):
            total = up + down + s
            for got, want in ((sigma, down / total), (tau, up / total)):
                np.testing.assert_allclose(got[live], np.broadcast_to(want, got.shape)[live], rtol=1e-15, atol=0)
        if lam == 0.0:      # j = s = 0 without arrivals: both rates and both transforms are 0
            assert kernel.rates(0) == (0.0, 0.0)
            assert kernel.transforms(0, 0.0) == (0.0, 0.0)


class TestKernelArrays:
    """transforms broadcasts over arrays of j and s, entry for entry."""

    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_grid_matches_scalar_calls(self, lam):
        kernel = MMInfinityKernel(QueueParams(lam, 0.7))
        states = np.arange(6)[:, None]
        s = np.array([0.0, 0.3, 2.0, 50.0])
        sigma, tau = kernel.transforms(states, s)
        assert sigma.shape == tau.shape == (6, 4)
        for j in range(6):
            for k, s_k in enumerate(s.tolist()):
                assert (sigma[j, k], tau[j, k]) == kernel.transforms(j, s_k)

    def test_complex_grid_matches_scalar_calls(self):
        kernel = MMInfinityKernel(QueueParams(1.0, 1.0))
        s = np.array([complex(1.0, 3.0), complex(0.5, -2.0)])
        sigma, tau = kernel.transforms(np.arange(4)[:, None], s)
        assert sigma[2, 0] == 2 / (4 + 3j)
        assert tau[2, 0] == 1 / (4 + 3j)
        for j in range(4):
            for k, s_k in enumerate(s.tolist()):
                assert sigma[j, k] == pytest.approx(kernel.transforms(j, s_k)[0], rel=1e-15)
                assert tau[j, k] == pytest.approx(kernel.transforms(j, s_k)[1], rel=1e-15)

    def test_absorbing_corner_in_an_array(self):
        # j = 0 and rho = 0: both entries are 0 for every s, s = 0 included
        sigma, tau = MMInfinityKernel(QueueParams(0.0, 1.0)).transforms(
            np.arange(3)[:, None], np.array([0.0, 1.0])
        )
        np.testing.assert_array_equal(sigma, [[0.0, 0.0], [1.0, 0.5], [1.0, 2.0 / 3.0]])
        np.testing.assert_array_equal(tau, np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "j, s",
        [
            (np.array([0, 1, -1]), 1.0),
            (np.arange(3), np.array([1.0, -0.5])[:, None]),
            (np.arange(3), np.array([1.0 + 1.0j, -1.0 + 3.0j])[:, None]),
        ],
        ids=["negative-state", "negative-s", "negative-real-part"],
    )
    def test_domain_errors_inside_an_array(self, j, s):
        with pytest.raises(ValueError):
            MMInfinityKernel(QueueParams(1.0, 1.0)).transforms(j, s)
