import re

import numpy as np
import pytest

from spinsqueeze.dicke import spin_matrix
from spinsqueeze.errors import DomainError
from spinsqueeze.hamiltonians import (
    DriveEnvelope,
    alpha0,
    bessel_j0,
    drive_integral,
    drive_value,
    matrix,
    quadratic_matrix,
    time_averaged_trig_moments,
)

PAPER_RATIO = 0.9057  # omega0/omega that lands alpha0 on 2/3


def j0_series(x, terms=60):
    """Independent power-series oracle: J0(x) = sum (-x^2/4)^k / (k!)^2."""
    total, term = 0.0, 1.0
    for k in range(terms):
        total += term
        term *= -(x * x) / 4.0 / ((k + 1) ** 2)
    return total


def first_j0_zero():
    """Bisection on the series oracle, bracketing the first sign change."""
    lo, hi = 2.0, 3.0
    assert j0_series(lo) > 0 > j0_series(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if j0_series(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDrive:
    def test_value_at_zero(self):
        assert drive_value(DriveEnvelope(1, 1, 0), 0.0) == pytest.approx(1.0)

    def test_cosine_quarter_phase(self):
        env = DriveEnvelope(3.2, 5.0, -np.pi / 2)
        assert drive_value(env, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_period_sign(self):
        env = DriveEnvelope(2.0, np.pi, 0.0)
        assert drive_value(env, 1.0) == pytest.approx(-2.0)

    def test_integral_matches_quadrature(self):
        env = DriveEnvelope(1.7, 4.0, 0.9)
        ts = np.linspace(0.2, 1.9, 20001)
        quad = np.trapezoid([drive_value(env, t) for t in ts], ts)
        assert drive_integral(env, 0.2, 1.9) == pytest.approx(quad, abs=1e-8)

    def test_invalid_envelope(self):
        with pytest.raises(DomainError):
            DriveEnvelope(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            DriveEnvelope(-1.0, 1.0, 0.0)
        # unchecked, a NaN or infinite omega0 ran on to a NaN state norm, and an infinite omega
        # to a bare ZeroDivisionError
        for omega0, omega, field in ((np.nan, 1.0, "omega0"), (np.inf, 1.0, "omega0"), (1.0, np.inf, "omega")):
            with pytest.raises(DomainError, match=f"{field} must be [a-z]+ and finite"):
                DriveEnvelope(omega0, omega, 0.0)
        for phase in (1e300, -7.0, np.nan):  # far out, cos(omega*t + phase) loses omega*t to rounding
            with pytest.raises(DomainError, match=re.escape(f"phase {phase} lies outside [-2pi, 2pi]")):
                DriveEnvelope(1.0, 1.0, phase)
        assert DriveEnvelope(1.0, 1.0, 2 * np.pi).phase == 2 * np.pi  # the bounds are inclusive


class TestBessel:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 7.9, -3.3])
    def test_against_series_oracle(self, x):
        assert bessel_j0(x) == pytest.approx(j0_series(x), abs=1e-12)

    def test_paper_anchor_one_third(self):
        v = bessel_j0(2 * PAPER_RATIO)
        assert (1 + v) / 2 == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_first_zero(self):
        z = first_j0_zero()
        assert z == pytest.approx(2.404825557695773, abs=1e-9)
        assert abs(bessel_j0(z)) < 1e-10

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            bessel_j0(float("nan"))


class TestAlpha0:
    def test_no_drive(self):
        assert alpha0(0.0) == pytest.approx(1.0)

    def test_paper_two_thirds(self):
        assert alpha0(PAPER_RATIO) == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_half_at_bessel_zero(self):
        z = first_j0_zero()
        assert alpha0(z / 2) == pytest.approx(0.5, abs=1e-10)

    def test_bounds(self):
        ratios = np.linspace(0, 20, 400)
        vals = np.array([alpha0(r) for r in ratios])
        assert np.all(vals > -0.5) and np.all(vals <= 1.0)

    def test_monotone_until_first_zero(self):
        z = first_j0_zero()
        ratios = np.linspace(0, z / 2, 300)
        vals = np.array([alpha0(r) for r in ratios])
        assert np.all(np.diff(vals) < 0)


class TestMatrices:
    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 5])
    def test_all_hermitian(self, j):
        for coeffs in ((1.0, 0.0, 0.0), (1.0, 0.0, -1.0), (0.0, 1.0, 0.0), (0.3, 0.7, 0.0)):
            h = matrix(j, *coeffs)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    @pytest.mark.parametrize("j", [1, 3.5, 10])
    def test_effective_equals_tact_plus_casimir(self, j):
        # (chi/3)(J^2 + Jz^2 - Jy^2) == (chi/3)(2 Jz^2 + Jx^2) entrywise
        dim = int(round(2 * j)) + 1
        casimir = j * (j + 1) * np.eye(dim)
        lhs = (casimir + quadratic_matrix(j, "z") - quadratic_matrix(j, "y")) / 3
        rhs = (2 * quadratic_matrix(j, "z") + quadratic_matrix(j, "x")) / 3
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_mixture_limits(self):
        j = 2
        assert np.allclose(matrix(j, 1.0, 0.0, 0.0), quadratic_matrix(j, "z"), atol=1e-14)
        half = 0.5 * (quadratic_matrix(j, "z") + quadratic_matrix(j, "x"))
        assert np.allclose(matrix(j, 0.5, 0.5, 0.0), half, atol=1e-14)

    def test_oat_diagonal_phases(self):
        h = matrix(1, 2.0, 0.0, 0.0)
        assert np.allclose(np.diag(h), [2, 0, 2])

    def test_exact_two_thirds(self):
        h = matrix(1, 2.0 / 3.0, 1.0 / 3.0, 0.0)
        assert h[0, 2] == pytest.approx(1.0 / 6.0, abs=1e-14)


class TestTrigMoments:
    def test_no_drive(self):
        assert time_averaged_trig_moments(0.0, 1.0, 0.3) == pytest.approx(
            (1.0, 0.0, 0.0)
        )

    def test_paper_two_thirds_point(self):
        c2, s2, sc = time_averaged_trig_moments(PAPER_RATIO, 1.0, -np.pi / 2)
        assert c2 == pytest.approx(2.0 / 3.0, abs=1e-4)
        assert s2 == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert sc == pytest.approx(0.0, abs=1e-8)

    def test_matches_bessel_over_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            ratio = rng.uniform(0, 3)
            phase = rng.uniform(0, 2 * np.pi)
            omega = rng.uniform(0.5, 20)
            c2, s2, sc = time_averaged_trig_moments(ratio * omega, omega, phase)
            b = bessel_j0(2 * ratio)
            assert c2 == pytest.approx((1 + b) / 2, abs=1e-8)
            assert s2 == pytest.approx((1 - b) / 2, abs=1e-8)
            assert sc == pytest.approx(0.0, abs=1e-8)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            time_averaged_trig_moments(1.0, 1.0, 0.0, quadrature_points=32)


def test_spin_matrix_squares_match_matrix_builders():
    jz = spin_matrix(3, (0, 0, 1))
    assert np.allclose(matrix(3, 1.0, 0.0, 0.0), jz @ jz)
