import numpy as np
import pytest

from spinsqueeze.dicke import spin_matrix
from spinsqueeze.errors import DomainError
from spinsqueeze.hamiltonians import (
    DriveEnvelope,
    alpha0,
    bessel_j0,
    build_effective,
    drive_integral,
    drive_value,
    matrix,
    mixture,
    oat,
    quadratic,
    quadratic_matrix,
    tact,
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
        assert alpha0(0.0, 1.0) == pytest.approx(1.0)

    def test_paper_two_thirds(self):
        assert alpha0(PAPER_RATIO, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_half_at_bessel_zero(self):
        z = first_j0_zero()
        assert alpha0(z / 2, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_bounds(self):
        ratios = np.linspace(0, 20, 400)
        vals = np.array([alpha0(r, 1.0) for r in ratios])
        assert np.all(vals > -0.5) and np.all(vals <= 1.0)

    def test_monotone_until_first_zero(self):
        z = first_j0_zero()
        ratios = np.linspace(0, z / 2, 300)
        vals = np.array([alpha0(r, 1.0) for r in ratios])
        assert np.all(np.diff(vals) < 0)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(DomainError):
            alpha0(1.0, 0.0)


class TestMatrices:
    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 5])
    def test_all_hermitian(self, j):
        for spec in (oat(), tact(), quadratic("x"), mixture(0.3)):
            h = matrix(j, spec)
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
        assert np.allclose(matrix(j, mixture(1.0)), matrix(j, oat()), atol=1e-14)
        half = 0.5 * (quadratic_matrix(j, "z") + quadratic_matrix(j, "x"))
        assert np.allclose(matrix(j, mixture(0.5)), half, atol=1e-14)

    def test_mixture_alpha_bounds(self):
        with pytest.raises(DomainError):
            mixture(-0.5)
        with pytest.raises(DomainError):
            mixture(1.01)

    def test_oat_diagonal_phases(self):
        h = matrix(1, oat(chi=2.0))
        assert np.allclose(np.diag(h), [2, 0, 2])


class TestBuildEffective:
    def test_zero_phase_means_no_rotation(self):
        _, rot = build_effective(2, 1.0, PAPER_RATIO, 1.0, 0.0)
        assert rot.angle == pytest.approx(0.0)

    def test_two_thirds_matrix_entry(self):
        h, _ = build_effective(1, 1.0, PAPER_RATIO, 1.0, 0.0)
        want = (2 * quadratic_matrix(1, "z") + quadratic_matrix(1, "x")) / 3
        assert np.max(np.abs(h - want)) < 2e-4  # alpha0 = 2/3 only to 1e-4
        assert h[0, 2] == pytest.approx(1.0 / 6.0, abs=2e-4)

    def test_exact_two_thirds(self):
        h = matrix(1, mixture(2.0 / 3.0))
        assert h[0, 2] == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_rotation_angle_paper_phase(self):
        _, rot = build_effective(2, 1.0, 0.9057, 1.0, -np.pi / 2)
        assert rot.axis == (0.0, 1.0, 0.0)
        assert rot.angle == pytest.approx(-0.9057, abs=1e-12)


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
    assert np.allclose(matrix(3, oat()), jz @ jz)
