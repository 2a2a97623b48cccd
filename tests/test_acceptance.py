"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion N] PASS/FAIL` line with the measured
worst case; run `pytest tests/test_acceptance.py -v -s` to see those lines
alongside pytest's own report.  Tolerances are fixed here and are not
calibration knobs.
"""

import math

import numpy as np
import pytest

from mrenew import (
    InversionConfig,
    MMInfinityKernel,
    QueueParams,
    generating_function,
    gaver_stehfest,
    kummer_m,
    rbar_closed_form,
    renewal_function,
    solve_row_adaptive,
    solve_row_truncated,
)
from mrenew.cli import run
from mrenew.closedform import ode_residual
from mrenew.crosscheck import (
    closed_form_vs_oracle,
    inversion_vs_simulation,
    two_oracle_agreement,
)

STATES = (0, 1, 2, 5)
S_VALUES = (0.1, 1.0, 10.0)
PARAM_PAIRS = ((0.5, 1.0), (1.0, 1.0), (2.0, 0.5))


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_normalization():
    worst = 0.0
    for lam, alpha in PARAM_PAIRS:
        kernel = MMInfinityKernel(QueueParams(lam, alpha))
        for i in STATES:
            for s in S_VALUES:
                res = solve_row_adaptive(i, s, kernel)
                assert res.converged
                worst = max(worst, res.normalization_residual)
    ok = worst <= 1e-10
    _report(1, ok, f"normalization residual worst {worst:.3e} (allowed 1e-10)")
    assert ok


def test_criterion_2_two_oracle_equivalence():
    worst, where = two_oracle_agreement(STATES, S_VALUES, PARAM_PAIRS)
    ok = worst <= 1e-8
    _report(2, ok, f"two-oracle worst entrywise diff {worst:.3e} at {where} (allowed 1e-8)")
    assert ok


def test_criterion_3_pure_death_exactness():
    p = QueueParams(0.0, 1.0)
    expected = np.zeros(9)
    expected[:3] = [1.0 / 3.0, 2.0 / 3.0, 1.0]
    row = solve_row_truncated(2, 1.0, MMInfinityKernel(p), 8).values
    solver_err = float(np.max(np.abs(row - expected)))
    closed_err = max(
        abs(rbar_closed_form(2, n, 1.0, p) - expected[n]) for n in range(len(expected))
    )
    ok = solver_err <= 1e-12 and closed_err <= 1e-12
    _report(3, ok, f"pure-death row: solver err {solver_err:.3e}, closed-form err {closed_err:.3e} (allowed 1e-12)")
    assert ok


def test_criterion_4_closed_form_vs_oracle():
    worst, where = closed_form_vs_oracle(range(5), (0.5, 1.0, 5.0), (0.5, 1.0, 2.0))
    ok = worst <= 1e-6
    _report(4, ok, f"closed form vs oracle worst rel diff {worst:.3e} at {where} (allowed 1e-6)")
    assert ok, (
        "closed-form row formula disagrees with the truncated-system solver: "
        f"worst relative difference {worst:.3e} at {where}; "
        "no implemented reading of the analytic row formula may ship without "
        "oracle agreement"
    )


def test_criterion_5_generating_function_checks():
    worst_boundary = 0.0
    worst_ratio = math.inf
    for rho in (0.5, 1.0, 2.0):
        p = QueueParams(rho, 1.0)
        for i in range(5):
            for s in (0.5, 1.0, 5.0):
                worst_boundary = max(
                    worst_boundary, abs(generating_function(i, 1.0, s, p) - 1.0 / s)
                )
                for x in (-0.5, 0.25, 0.75):
                    coarse = abs(ode_residual(i, x, s, p, h=4e-3))
                    if coarse <= 1e-12:
                        continue
                    fine = abs(ode_residual(i, x, s, p, h=2e-3))
                    worst_ratio = min(worst_ratio, coarse / fine)
    ok = worst_boundary <= 1e-12 and worst_ratio >= 3.0
    _report(
        5,
        ok,
        f"boundary |y_i(1) - 1/s| worst {worst_boundary:.3e} (allowed 1e-12); "
        f"halving h shrinks residual by >= {worst_ratio:.2f}x (need 3x)",
    )
    assert ok


def test_criterion_6_kummer_engine():
    worst_closed = 0.0
    for z in (-10.0, -1.0, -0.1, 0.1, 1.0, 10.0):
        exact = math.expm1(z) / z
        worst_closed = max(worst_closed, abs(kummer_m(1.0, 2.0, z) - exact) / abs(exact))
    worst_identity = 0.0
    for a in (0.5, 2.0, 5.5, 11.0, 20.0):
        for b in (0.5, 2.0, 5.5, 11.0, 20.0):
            for z in (-10.0, -4.0, -1.0, 1.0, 4.0, 10.0):
                lhs = kummer_m(a, b, z)
                rhs = math.exp(z) * kummer_m(b - a, b, -z)
                worst_identity = max(worst_identity, abs(lhs - rhs) / abs(lhs))
    ok = worst_closed <= 1e-12 and worst_identity <= 1e-10
    _report(
        6,
        ok,
        f"phi(1,2;z) closed form worst rel err {worst_closed:.3e} (allowed 1e-12); "
        f"transformation identity worst {worst_identity:.3e} (allowed 1e-10)",
    )
    assert ok


def test_criterion_7_inversion():
    # order 16 everywhere: an even order within the documented [4, 18] range
    order = 16
    times = (0.25, 0.5, 1.0, 2.0, 4.0)
    pure_death = MMInfinityKernel(QueueParams(0.0, 1.0))
    inverted = renewal_function(1, 0, times, pure_death, cfg=InversionConfig(order=order))
    death_err = max(abs(v - (1.0 - math.exp(-t))) for v, t in zip(inverted, times))

    textbook_err = max(
        abs(gaver_stehfest(lambda s: 1.0 / s, 1.0, order) - 1.0),
        abs(gaver_stehfest(lambda s: 1.0 / (s + 1.0), 1.0, order) - math.exp(-1.0)),
        abs(gaver_stehfest(lambda s: 1.0 / s**2, 2.5, order) - 2.5),
    )
    ok = death_err <= 1e-5 and textbook_err <= 1e-6
    _report(
        7,
        ok,
        f"pure-death inversion max err {death_err:.3e} (allowed 1e-5); "
        f"Stehfest textbook max err {textbook_err:.3e} (allowed 1e-6)",
    )
    assert ok


def test_criterion_8_end_to_end():
    worst_z, where = inversion_vs_simulation(
        0, (0, 1), [0.5, 1.0, 2.0], lam=1.0, alpha=1.0, n_paths=100_000, seed=20240817
    )
    ok = worst_z <= 3.0
    _report(8, ok, f"inversion vs Monte Carlo worst |z| {worst_z:.2f} at {where} (allowed 3 standard errors)")
    assert ok


def test_criterion_9_simulate_determinism(capsys):
    argv = "simulate --i 0 --j 0 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --paths 5000 --seed 99".split()
    assert run(argv) == 0
    serial = capsys.readouterr().out
    assert run(argv + ["--workers", "3"]) == 0
    parallel = capsys.readouterr().out
    ok = serial == parallel and len(serial.strip().splitlines()) == 5
    with capsys.disabled():
        _report(9, ok, "simulate CSV bit-identical across 1 and 3 workers")
    assert ok
