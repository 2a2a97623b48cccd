import math
import re

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
from mrenew import model

OVERFLOWS = "j + rho + alpha s, or numpy's division by it, overflows"   # the kernel's one refusal of an s


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


class _FormulaKernel(KernelTransform):
    """sigma_bar = 0 at j = 0, sigma(s) above it, and tau(s) at every j."""

    def __init__(self, sigma, tau):
        self.sigma, self.tau = sigma, tau

    def transforms(self, j, s):
        j, s = np.broadcast_arrays(j, s)
        return np.where(j == 0, 0.0, self.sigma(s)), np.broadcast_to(self.tau(s), s.shape)


class TestValidateKernel:
    @pytest.mark.parametrize(
        "sigma, tau, expected",
        [
            (lambda s: -0.1, lambda s: 0.5 / (1.0 + s), (1, 0.5, "sigma_bar(1, 0.5) = -0.1 < 0")),
            (lambda s: 0.25 / (1.0 + s), lambda s: -0.1, (0, 0.5, "tau_bar(0, 0.5) = -0.1 < 0")),
            (lambda s: 0.6, lambda s: 0.6, (1, 0.5, "sigma_bar + tau_bar = 1.2 > 1")),
            (lambda s: 0.25 * s / (1.0 + s), lambda s: 0.5 / (1.0 + s),
             (1, 1.0, "sigma_bar(1, s) increased from s=0.5 to s=1.0")),
        ],
        ids=["sigma-negative", "tau-negative", "sum-above-one", "sigma-rising"],
    )
    def test_invariant_violation_reported(self, sigma, tau, expected):
        assert expected in validate_kernel(_FormulaKernel(sigma, tau), 1, [0.5, 1.0])

    def test_nonfinite_values_reported_once_each(self):
        # a NaN passed every comparison, and an infinity showed only as a sum above 1
        kernel = _FormulaKernel(lambda s: np.where(s < 0.75, math.nan, 0.25),
                                lambda s: np.where(s < 0.75, 0.5, math.inf))
        assert validate_kernel(kernel, 1, [0.5, 1.0]) == [
            (0, 1.0, "tau_bar(0, 1.0) = inf is not finite"),
            (1, 0.5, "sigma_bar(1, 0.5) = nan is not finite"),
            (1, 1.0, "tau_bar(1, 1.0) = inf is not finite"),
        ]

    def test_negative_j_max_rejected(self):
        kernel = MMInfinityKernel(QueueParams(1.0, 1.0))
        with pytest.raises(ValueError, match="j_max"):
            validate_kernel(kernel, -1, [1.0])

    def test_j_max_must_be_an_integer(self):
        # 3.5 was reported as a shape violation: "transforms returned (5, 1) ..., not (4.5, 1)"
        kernel = MMInfinityKernel(QueueParams(1.0, 1.0))
        with pytest.raises(TypeError):
            validate_kernel(kernel, 3.5, [1.0])
        assert validate_kernel(kernel, np.int64(3), [1.0]) == []

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

    @pytest.mark.parametrize("grid", [[math.nan, 1.0], [1.0, math.nan], [math.nan]])
    def test_nan_s_rejected(self, grid):
        # a NaN grid was reported as no violations
        kernel = MMInfinityKernel(QueueParams(1.0, 1.0))
        with pytest.raises(ValueError, match="s_grid values must be >= 0"):
            validate_kernel(kernel, 3, grid)


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
    """transforms and step race the same clocks, up at rate lam and down at rate j / alpha:
    (sigma, tau) = (down, up) / (up + down + s), and step's sojourn has rate up + down."""

    @pytest.mark.parametrize("lam", [0.0, 1e-6, 0.3, 7.5, 2000.0])
    @pytest.mark.parametrize("alpha", [1e-3, 0.37, 2.9, 50.0])
    def test_transforms_are_the_rates_race(self, lam, alpha):
        kernel = MMInfinityKernel(QueueParams(lam, alpha))
        states = np.arange(201)[:, None]
        s = np.concatenate([[0.0], np.geomspace(1e-6, 100.0, 40)])
        sigma, tau = kernel.transforms(states, s)
        up, down = lam, states / alpha
        live = (states > 0) | (s > 0) | (lam > 0)     # all but the absorbing corner
        with np.errstate(invalid="ignore"):
            total = up + down + s
            for got, want in ((sigma, down / total), (tau, up / total)):
                np.testing.assert_allclose(got[live], np.broadcast_to(want, got.shape)[live], rtol=1e-15, atol=0)

        u_time, u_dir = np.random.default_rng(7).random((2, 201))
        with np.errstate(all="ignore"):     # the walker's policy: a rate of 0 divides to a sojourn of inf
            moved, sojourns = kernel.step(states[:, 0], u_time, u_dir)
        rate = (up + down)[:, 0]
        live = rate > 0
        np.testing.assert_allclose(sojourns[live] * rate[live], -np.log1p(-u_time[live]), rtol=1e-15, atol=0)
        clear = live & (np.abs(u_dir - up / np.where(live, rate, 1.0)) > 1e-12)   # not on the threshold
        went_up = u_dir[clear] < up / rate[clear]
        assert np.array_equal(moved[clear], np.where(went_up, states[clear, 0] + 1, states[clear, 0] - 1))
        if lam == 0.0:      # j = s = 0 without arrivals: no clock runs, both transforms are 0
            assert (moved[0], sojourns[0]) == (0, math.inf)
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


class TestDomainCheck:
    """The kernel's domain check refuses a negative state and Re(s) < 0 with one
    message each, whether j and s come as Python numbers, lists or arrays; the
    kernel also refuses an s where numpy's overflow flag rises in j + rho + alpha s
    or in the division by it, and takes a number as the 0-d array it is."""

    KERNEL = MMInfinityKernel(QueueParams(1.5, 0.5))

    @pytest.mark.parametrize(
        "j, s",
        [(3, 0.5), (np.int64(3), np.float64(0.5)), (3, complex(0.5, 2.0)), ([0, 3], [0.5, 2.0]),
         ([[0], [3]], [0.5 + 1j, 2.0]), (np.arange(4)[:, None], np.array([0.0, 0.5, 2.0])),
         (np.arange(4)[:, None], np.array([0.5 + 1j, 2.0 - 3j]))],
        ids=["int", "numpy-scalars", "complex", "list", "complex-list", "array", "complex-array"],
    )
    def test_accepts_numbers_lists_and_arrays(self, j, s):
        model._check_state_and_s(j, s)
        sigma, tau = self.KERNEL.transforms(j, s)
        j, s = np.asarray(j), np.asarray(s)
        denom = j + 0.75 + 0.5 * s
        np.testing.assert_allclose(sigma, j / denom, rtol=1e-15)
        np.testing.assert_allclose(tau, 0.75 / denom, rtol=1e-15)

    @pytest.mark.parametrize("j", [-1, np.int64(-1), [0, -1], np.array([[0], [-1]])],
                             ids=["int", "numpy-int", "list", "array"])
    def test_negative_state_refused(self, j):
        with pytest.raises(ValueError, match=r"^state index must be >= 0, got -1$"):
            model._check_state_and_s(j, 1.0)
        with pytest.raises(ValueError, match=r"^state index must be >= 0, got -1$"):
            self.KERNEL.transforms(j, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "p, s, named",
        [(QueueParams(1e-300, 1e300), 1e10, "10000000000.0"),
         (QueueParams(1e-300, 1e300), np.array([1.0, 1e10]), "10000000000.0"),
         (QueueParams(1e-300, 1e300), np.array([1.0, complex(1e10, 1.0)]), "(10000000000+1j)"),
         (QueueParams(1.0, 1e308), 1.0, "1.0"),
         (QueueParams(1e-300, 1e300), np.array([1.0, complex(2e7, 177568280.42029268)]),
          "(20000000+177568280.42029268j)")],
        ids=["alpha-s", "alpha-s-in-a-grid", "alpha-s-complex", "rho-plus-alpha-s", "complex-division"])
    def test_denominator_past_the_largest_double_refused(self, p, s, named):
        # numpy warned of an overflow in alpha * s, and both entries came back 0; at
        # 2e307 + 1.78e308i, below the largest double, its complex division overflowed
        message = f"transform variable s={named} with alpha={p.alpha}: {OVERFLOWS}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MMInfinityKernel(p).transforms(np.arange(3)[:, None], s)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "p, j, s, named",
        [(QueueParams(1e-310, 1.0), 0, 1e-320j, "1e-320j"),
         (QueueParams(1e-300, 1e-10), 0, 1e-300j, "1e-300j"),
         (QueueParams(1e-300, 1e-10), np.arange(3)[:, None], np.array([1.0, 1e-300j, 2e-300j]), "1e-300j")],
        ids=["subnormal-rho", "subnormal-alpha-s", "subnormal-in-a-grid"])
    def test_subnormal_complex_denominator_refused(self, p, j, s, named):
        # numpy's complex division by a subnormal denominator overflows although the
        # quotient is below 1; the refusal ran into an IndexError looking for an
        # infinite denominator
        message = f"transform variable s={named} with alpha={p.alpha}: {OVERFLOWS}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MMInfinityKernel(p).transforms(j, s)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [complex(2e7, 177568280.42029268), np.complex128(complex(2e7, 177568280.42029268)),
                                   np.array(complex(2e7, 177568280.42029268))], ids=["complex", "numpy-complex", "0-d"])
    def test_number_divides_as_a_0d_array(self, s):
        # Python's complex division returned (-0j, -0j) at this s, where numpy's overflows
        message = f"transform variable s=(20000000+177568280.42029268j) with alpha=1e+300: {OVERFLOWS}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MMInfinityKernel(QueueParams(1e-300, 1e300)).transforms(3, s)

    @pytest.mark.parametrize("s", [0.3, 7.0, complex(0.5, 2.0), complex(1.0, -40.0)])
    def test_number_gives_the_bits_of_a_one_element_array(self, s):
        sigma, tau = self.KERNEL.transforms(3, s)
        array = self.KERNEL.transforms(np.array([3]), np.array([s]))
        assert (sigma.tobytes(), tau.tobytes()) == (array[0].tobytes(), array[1].tobytes())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_complex_denominator_whose_division_stays_finite_answered(self):
        # numpy divides by a complex number through Smith's scale big + small (small / big) of
        # its parts' sizes, and raises its overflow flag where that passes the largest double;
        # at 1.5e308 + 0.5e308i the parts' sum passes it, the scale, 1.67e308, does not, and
        # the quotients stand
        k = MMInfinityKernel(QueueParams(1e-300, 1e300))
        states, inside = np.arange(3)[:, None], np.array([complex(1.5e8, 0.5e8), complex(2e7, 1.7e8)])
        sigma, tau = k.transforms(states, inside)
        rho = k.params.rho
        denom = states + rho + 1e300 * inside
        assert sigma.tobytes() == (states / denom).tobytes() and tau.tobytes() == (rho / denom).tobytes()
        assert np.all(sigma[1:] != 0.0)

    @pytest.mark.parametrize(
        "s", [-0.5, np.float64(-0.5), complex(-0.5, 1.0), [1.0, -0.5], [1.0 + 1j, -0.5 + 3j],
              np.array([1.0, -0.5]), np.array([1.0 + 1j, -0.5 + 3j])],
        ids=["float", "numpy-float", "complex", "list", "complex-list", "array", "complex-array"],
    )
    def test_negative_real_part_refused(self, s):
        message = r"^transform variable needs Re\(s\) >= 0, got Re\(s\) = -0\.5$"
        with pytest.raises(ValueError, match=message):
            model._check_state_and_s(np.arange(3)[:, None], s)
        with pytest.raises(ValueError, match=message):
            self.KERNEL.transforms(np.arange(3)[:, None], s)
