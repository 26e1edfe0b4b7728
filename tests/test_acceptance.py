"""Acceptance gate: the golden-data criteria at their stated tolerances.

Each criterion prints one PASS/FAIL line (run pytest with -s or read the
captured output).  Criterion 2 checks the last row of table 2 (label 58)
against 86.31764, not the printed 86.31766: the printed value is a misprint.
The straight-ray oracle in _ray_oracle.py, which shares no code with ptwell,
gives 86.31763817 there and reproduces the other printed rows to within
their rounding (test_ray_oracle.py); the solver agrees with it to 1e-10.
"""

import math

import numpy as np
import pytest
from scipy import special

from conftest import LABELS, TABLE1_E0, TABLE2_E0
from ptwell.classical import period_asymptotic, period_exact
from ptwell.extrapolation import richardson
from ptwell.geometry import ModelSpec, potential_value, turning_points
from ptwell.limit import (f1_oracle, limit_wavefunction, nu_spectrum,
                          quantization_residual, scaled_ode_residual)
from ptwell.shooting import solve_level
from ptwell.wkb import wkb_energy_closed, wkb_energy_quadrature

EULER_GAMMA = 0.5772156649015329

TABLE1_F = [0.07825, 0.06998, 0.06742, 0.06617, 0.06542, 0.06493]
TABLE1_R1 = [0.06336, 0.06281, 0.06266, 0.06260, 0.06257]
TABLE1_R2 = [0.06259, 0.06253, 0.06251, 0.06251]
TABLE2_R2_LIMIT = 1.0 / 36.0
TABLE3_R0 = [0.12597, 0.13460, 0.13767, 0.13926, 0.14024, 0.14090]
TABLE3_R1 = [0.14150, 0.14321, 0.14372, 0.14394, 0.14406]
TABLE3_R2 = [0.14389, 0.14418, 0.14425, 0.14428]


def _report(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({name}): {status}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_table1(table1):
    failures = []
    for lab, got, want in zip(LABELS, table1.E0, TABLE1_E0):
        if abs(got - want) > 2e-5:
            failures.append(f"E0({lab:g}) = {got:.7f} vs {want} (>2e-5)")
    for lab, got, want in zip(LABELS, table1.columns["F"], TABLE1_F):
        if abs(got - want) > 2e-5:
            failures.append(f"F({lab:g}) = {got:.6f} vs {want}")
    for lab, got, want in zip(LABELS[1:], table1.columns["R1"][1:],
                              TABLE1_R1):
        if abs(got - want) > 2e-5:
            failures.append(f"R1({lab:g}) = {got:.6f} vs {want}")
    for lab, got, want in zip(LABELS[2:], table1.columns["R2"][2:],
                              TABLE1_R2):
        if abs(got - want) > 2e-5:
            failures.append(f"R2({lab:g}) = {got:.6f} vs {want}")
    _report(1, "table 1 reproduction", failures)


def test_criterion_2_table2(table2):
    failures = []
    for lab, got, want in zip(LABELS, table2.E0, TABLE2_E0):
        if abs(got - want) > 2e-5:
            failures.append(f"E0({lab:g}) = {got:.7f} vs {want} (>2e-5)")
    r2_last = table2.columns["R2"][-1]
    if abs(r2_last - TABLE2_R2_LIMIT) > 2e-4:
        failures.append(f"R2(58) = {r2_last:.6f} vs 1/36 = {TABLE2_R2_LIMIT:.7f}")
    _report(2, "table 2 reproduction", failures)


def test_criterion_3_table3(table3):
    failures = []
    for lab, got, want in zip(LABELS, table3.columns["R0"], TABLE3_R0):
        if abs(got - want) > 2e-5:
            failures.append(f"R0({lab:g}) = {got:.6f} vs {want}")
    for lab, got, want in zip(LABELS[1:], table3.columns["R1"][1:],
                              TABLE3_R1):
        if abs(got - want) > 2e-5:
            failures.append(f"R1({lab:g}) = {got:.6f} vs {want}")
    for lab, got, want in zip(LABELS[2:], table3.columns["R2"][2:],
                              TABLE3_R2):
        if abs(got - want) > 2e-5:
            failures.append(f"R2({lab:g}) = {got:.6f} vs {want}")
    r2_last = table3.columns["R2"][-1]
    if abs(r2_last - EULER_GAMMA / 4.0) > 2e-4:
        failures.append(f"R2(58) = {r2_last:.6f} vs gamma/4")
    _report(3, "table 3 reproduction", failures)


def test_criterion_4_oscillator_anchor():
    failures = []
    for k in range(6):
        res = solve_level(ModelSpec(1, 0.0), k)
        want = 2 * k + 1
        if not res.converged or abs(res.E.real - want) > 1e-8 * want:
            failures.append(f"E_{k} = {res.E.real:.12f} vs {want}")
    _report(4, "oscillator anchor", failures)


def test_criterion_5_wkb_consistency():
    failures = []
    for k in range(6):
        for eps in (0.0, 1.0, 4.0, 8.0):
            closed = wkb_energy_closed(k, eps)
            quad = wkb_energy_quadrature(ModelSpec(1, eps), k)
            if abs(quad - closed) > 1e-8 * closed:
                failures.append(f"quadrature({k},{eps}) = {quad} vs {closed}")
        if abs(wkb_energy_closed(k, 0.0) - (2 * k + 1)) > 1e-10 * (2 * k + 1):
            failures.append(f"closed({k}, 0) != {2 * k + 1}")
    _report(5, "WKB consistency", failures)


def test_criterion_6_solvable_limit():
    failures = []
    for M in (1, 2):
        for lv in nu_spectrum(M, 6):
            if abs(quantization_residual(M, lv.nu)) > 1e-14:
                failures.append(f"residual(M={M}, nu={lv.nu}) nonzero")
    rng = np.random.default_rng(77)
    zs = [complex(rng.uniform(-1.25, 1.25), rng.uniform(-0.75, 0.15))
          for _ in range(20)]
    for M in (1, 2):
        for lv in nu_spectrum(M, 2)[:3]:
            psi = lambda zz: limit_wavefunction(M, lv.nu, zz)
            worst = max(scaled_ode_residual(M, lv.F, z, psi) for z in zs)
            if worst > 1e-6:
                failures.append(f"ode residual M={M} nu={lv.nu}: {worst:.2e}")
    _report(6, "solvable limit", failures)


def test_criterion_7_first_correction():
    failures = []
    if abs(f1_oracle() - EULER_GAMMA / 4.0) > 1e-6:
        failures.append(f"f1 oracle = {f1_oracle():.9f}")
    c_exact = (1.0 + EULER_GAMMA + 2.0 * math.log(2.0)) / 4.0
    c_wkb = (7.0 / 3.0 + math.log(2.0)) / 4.0
    if abs(c_exact - 0.74088) > 5e-6:
        failures.append(f"exact coefficient {c_exact}")
    if abs(c_wkb - 0.75662) > 5e-6:
        failures.append(f"wkb coefficient {c_wkb}")
    _report(7, "first correction", failures)


def test_criterion_8_period():
    failures = []
    for E in (0.5, 1.0, 20.0):
        if abs(period_exact(0.0, E).T - 2.0 * math.pi) > 1e-12:
            failures.append(f"T(0, {E}) != 2 pi")
    ratio = period_exact(200.0, 1.0).T / period_asymptotic(200.0, 1.0)
    if abs(ratio - 1.0) > 0.05:
        failures.append(f"period ratio at eps=200: {ratio}")
    _report(8, "classical period", failures)


def test_criterion_9_property_suites():
    failures = []
    rng = np.random.default_rng(99)

    # Bessel Wronskian and a rotation identity of the scipy.special functions
    # specfun calls (sampled where the identity itself is verifiable in
    # double precision, see test_specfun)
    import cmath
    for nu in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.5):
        for _ in range(12):
            if rng.random() < 0.5:
                r = float(rng.uniform(0.1, 20.0))
                phi = -float(rng.uniform(0.05, 0.85))
            else:
                r = float(rng.uniform(0.1, 6.0))
                phi = -math.pi + float(rng.uniform(0.05, 0.85))
            w = r * cmath.exp(1j * phi)
            lhs = (special.iv(nu, w) * special.kvp(nu, w)
                   - special.ivp(nu, w) * special.kv(nu, w))
            if abs(lhs + 1.0 / w) > 1e-10 * abs(1.0 / w):
                failures.append(f"Wronskian nu={nu} w={w}")
    for nu in (0.5, 1.0 / 3.0):
        w = 2.0 + 0j
        got = special.iv(nu, w * cmath.exp(1j * math.pi))
        want = cmath.exp(1j * nu * math.pi) * special.iv(nu, w)
        if abs(got - want) > 1e-10 * abs(want):
            failures.append(f"rotation law nu={nu}")

    # turning-point residual and PT symmetry
    for _ in range(20):
        model = ModelSpec(int(rng.integers(1, 3)), float(rng.uniform(0, 20)))
        E = float(rng.uniform(0.5, 100.0))
        tp = turning_points(model, E)
        for x in (tp.x_left, tp.x_right):
            if abs(potential_value(model, x) - E) > 1e-12 * E:
                failures.append(f"turning residual {model}")
        if abs(tp.x_left + tp.x_right.conjugate()) > 1e-12 * abs(tp.x_right):
            failures.append(f"PT pair {model}")

    # shooting discretization independence and reality
    for eps in (1.0, 2.0):
        model = ModelSpec(1, eps)
        a = solve_level(model, 0)
        b = solve_level(model, 0, tol=5e-10, rtol=5e-12, radius_factor=2.0)
        if abs(a.E - b.E) > 1e-7 * abs(b.E):
            failures.append(f"discretization shift at eps={eps}")
        if abs(a.E.imag) > 1e-8 * abs(a.E.real):
            failures.append(f"reality at eps={eps}")

    # Richardson polynomial exactness
    for order in (1, 2, 3):
        coeffs = rng.uniform(-1, 1, order + 1)
        eps_grid = np.cumsum(rng.uniform(1.0, 8.0, order + 4)) + 2.0
        vals = [float(sum(c / e ** j for j, c in enumerate(coeffs)))
                for e in eps_grid]
        for r in richardson(list(eps_grid), vals, order):
            if abs(r - coeffs[0]) > 1e-12 * max(1.0, abs(coeffs[0])):
                failures.append(f"Richardson order {order}")

    _report(9, "property suites", failures)
