from dataclasses import fields

import numpy as np
import pytest

from spinsqueeze.dicke import (
    DickeState,
    RotationSpec,
    apply_spin,
    css_amplitudes,
    m_values,
    make_css,
    make_dicke_state,
    rotate,
)
from spinsqueeze.diagnostics import (
    RunRecord,
    SqueezingReport,
    find_optimum,
    husimi_q,
    m_distribution,
    mean_spin,
    perpendicular_frame,
    run_records,
    scaling_fit,
    spin_moments,
    squeezing_columns,
    squeezing_report,
)
from spinsqueeze.cli import write_run_csv
from spinsqueeze.errors import DegenerateDirectionError, DomainError, ResourceError
from spinsqueeze.propagator import evolve_schedule, full_hilbert_oracle, spectral
from spinsqueeze.protocols import _probe
from spinsqueeze.schedule import ProtocolSchedule, QuadraticSegment


def jz2_phase(state, chi_t):
    """exp(-i chi t Jz^2) |state>, one phase per m."""
    return DickeState(state.j, np.exp(-1j * chi_t * m_values(state.j) ** 2) * state.amplitudes)


class TestMeanSpin:
    def test_north_pole(self):
        assert np.allclose(mean_spin(make_dicke_state(5, 5)), [0, 0, 5], atol=1e-12)

    def test_x_pointing(self):
        assert np.allclose(mean_spin(make_css(5, np.pi / 2, 0)), [5, 0, 0], atol=1e-9)

    def test_rotated_by_paper_angle(self):
        j = 8
        s = rotate(make_dicke_state(j, j), RotationSpec((0, 1, 0), 0.9057))
        want = j * np.array([np.sin(0.9057), 0, np.cos(0.9057)])
        assert np.allclose(mean_spin(s), want, atol=1e-9)

    def test_length_bounded(self):
        rng = np.random.default_rng(2)
        j = 6
        vec = rng.normal(size=13) + 1j * rng.normal(size=13)
        s = DickeState(j, vec / np.linalg.norm(vec))
        assert np.linalg.norm(mean_spin(s)) <= j + 1e-9


class TestSqueezingReport:
    @pytest.mark.parametrize("j", [0.5, 1, 5, 50, 625])
    def test_css_is_unity(self, j):
        rep = squeezing_report(make_css(j, np.pi / 2, 0.3))
        assert rep.xi2 == pytest.approx(1.0, abs=1e-9)
        assert rep.isotropic

    def test_css_tilted(self):
        rep = squeezing_report(make_css(20, 1.0, 2.2))
        assert rep.xi2 == pytest.approx(1.0, abs=1e-9)

    def test_internal_consistency(self):
        s = jz2_phase(make_css(10, np.pi / 2, 0), 0.05)
        rep = squeezing_report(s)
        n = 2 * 10
        assert rep.xi2 == pytest.approx(4 * rep.var_min / n, abs=1e-12)
        assert rep.var_min <= rep.var_max
        assert 0 <= rep.theta_min < np.pi

    def test_oat_matches_full_oracle(self):
        s = make_css(2, np.pi / 2, 0)
        evolved = jz2_phase(s, 0.1)
        oracle_state, _ = full_hilbert_oracle(s, (1.0, 0.0, 0.0), 0.1)
        a = squeezing_report(evolved).xi2
        b = squeezing_report(oracle_state).xi2
        assert a == pytest.approx(b, abs=1e-8)

    def test_rotation_covariance(self):
        rng = np.random.default_rng(4)
        s = jz2_phase(make_css(15, np.pi / 2, 0), 0.04)
        base = squeezing_report(s).xi2
        for _ in range(5):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0, 2 * np.pi)
            rep = squeezing_report(rotate(s, RotationSpec(tuple(axis), angle)))
            assert rep.xi2 == pytest.approx(base, abs=1e-9)

    def test_variance_sum_identity(self):
        s = jz2_phase(make_css(12, np.pi / 2, 0), 0.03)
        rep = squeezing_report(s)
        # var_min + var_max must equal the total perpendicular moment
        from spinsqueeze.dicke import apply_spin
        from spinsqueeze.diagnostics import perpendicular_frame

        ms = np.array(rep.mean_spin)
        n1, n2 = perpendicular_frame(ms / np.linalg.norm(ms))
        v1 = apply_spin(s.j, tuple(n1), s.amplitudes)
        v2 = apply_spin(s.j, tuple(n2), s.amplitudes)
        total = np.vdot(v1, v1).real + np.vdot(v2, v2).real
        assert rep.var_min + rep.var_max == pytest.approx(total, abs=1e-10)

    def test_degenerate_direction(self):
        # equal superposition of |j,j> and |j,-j> has vanishing mean spin
        vec = np.zeros(11, complex)
        vec[0] = vec[-1] = 1 / np.sqrt(2)
        with pytest.raises(DegenerateDirectionError):
            squeezing_report(DickeState(5, vec))

    def test_tact_optimal_angle_pi_over_4(self):
        # TACT from CSS-x squeezes at pi/4 to z in the y-z plane; in the
        # (n1, n2) frame with n1 = z x n, that is theta_min = pi/4 or 3pi/4
        j = 50
        prop = spectral(j, 1.0, 0.0, -1.0)
        t_opt = np.log(4 * 2 * j) / (2 * 2 * j)
        rep = squeezing_report(prop.evolve(make_css(j, np.pi / 2, 0), t_opt))
        dist = min(abs(rep.theta_min - np.pi / 4), abs(rep.theta_min - 3 * np.pi / 4))
        assert dist < 0.02


def tact_block(n, count):
    """count TACT states of N = n from the x-pointing CSS, at times from half to one and a half
    times the analytic optimum."""
    j = n / 2
    prop, css = spectral(j, 1.0, 0.0, -1.0), make_css(j, np.pi / 2, 0)
    t_opt = np.log(4 * n) / (2 * n)
    return j, np.stack([prop.evolve(css, t_opt * f).amplitudes for f in np.linspace(0.5, 1.5, count)], axis=1)


def spin_action_report(j, x):
    """(xi^2, theta_min, var_max, mean spin) of one amplitude vector from v = (n.J)x, the
    spin-action form: <J_a> = <x|J_a x> and e_ab = Re <v_a|v_b> in the perpendicular frame."""
    ms = np.array([np.vdot(x, apply_spin(j, unit, x)).real for unit in np.eye(3)])
    n1, n2 = perpendicular_frame(ms / np.linalg.norm(ms))
    v1, v2 = apply_spin(j, tuple(n1), x), apply_spin(j, tuple(n2), x)
    e11, e22, e12 = np.vdot(v1, v1).real, np.vdot(v2, v2).real, np.vdot(v1, v2).real
    r = np.hypot(e11 - e22, 2.0 * e12)
    return (e11 + e22 - r) / j, 0.5 * np.arctan2(-2.0 * e12, e22 - e11) % np.pi, (e11 + e22 + r) / 2.0, ms


class TestMomentKernel:
    """squeezing_columns reads each column's first and second moments of J."""

    @pytest.mark.parametrize("n", [2, 60, 61, 300, 301])
    def test_each_column_reports_as_if_alone(self, n):
        j, x = tact_block(n, 17)
        x[:, 1] = 0.0  # (|j, j> + |j, -j>)/sqrt(2): no mean spin, under the NaN floor
        x[0, 1] = x[-1, 1] = 0.5**0.5
        x[:, 2] = make_css(j, 1.1, 0.4).amplitudes  # coherent: isotropic
        for width in (1, 3, 16, 17):
            rep = squeezing_columns(j, x[:, :width])
            for r in range(width):
                alone = squeezing_columns(j, x[:, r : r + 1]).column(0)
                got = rep.column(r)
                for f in fields(SqueezingReport):
                    assert np.asarray(getattr(got, f.name)).tobytes() == np.asarray(getattr(alone, f.name)).tobytes()
        assert np.isnan(rep.xi2[1]) and rep.isotropic[2] and not rep.isotropic[[0, *range(3, 17)]].any()

    @pytest.mark.parametrize("n", [60, 61, 300, 1250])
    def test_agrees_with_the_spin_action_form(self, n):
        j, x = tact_block(n, 9)
        rep = squeezing_columns(j, x)
        for r in range(x.shape[1]):
            xi2, theta, var_max, ms = spin_action_report(j, x[:, r])
            assert rep.xi2[r] == pytest.approx(xi2, rel=1e-9, abs=0)
            assert rep.var_max[r] == pytest.approx(var_max, rel=1e-9, abs=0)
            gap = abs(rep.theta_min[r] - theta)
            assert min(gap, np.pi - gap) <= 1e-12
            assert np.allclose(rep.mean_spin[:, r], ms, rtol=0, atol=1e-12 * j)


class TestMDistribution:
    def test_basis_state_delta(self):
        d = m_distribution(make_dicke_state(3, -2))
        assert d.p[int(3 - (-2))] == pytest.approx(1.0)
        assert d.mean == pytest.approx(-2.0)
        assert d.var == pytest.approx(0.0, abs=1e-12)

    def test_css_x_binomial_j1(self):
        d = m_distribution(make_css(1, np.pi / 2, 0))
        assert np.allclose(d.p, [0.25, 0.5, 0.25], atol=1e-12)

    def test_probabilities_sum(self):
        rng = np.random.default_rng(8)
        vec = rng.normal(size=9) + 1j * rng.normal(size=9)
        d = m_distribution(DickeState(4, vec / np.linalg.norm(vec)))
        assert d.p.sum() == pytest.approx(1.0, abs=1e-10)


class TestHusimi:
    def test_self_overlap_is_one(self):
        s = make_css(10, 1.1, 2.0)
        thetas, phis, q = husimi_q(s, 64, 128)
        it = int(np.argmin(np.abs(thetas - 1.1)))
        ip = int(np.argmin(np.abs(phis - 2.0)))
        assert q[it, ip] > 0.99
        assert q.max() <= 1 + 1e-12

    def test_antipodal_zero(self):
        s = make_css(5, 0.6, 1.0)
        thetas, phis, q = husimi_q(s, 64, 128)
        it = int(np.argmin(np.abs(thetas - (np.pi - 0.6))))
        ip = int(np.argmin(np.abs(phis - (1.0 + np.pi))))
        assert q[it, ip] < 1e-10

    def test_maximum_at_css_direction(self):
        theta0, phi0 = 0.8, 4.0
        s = make_css(25, theta0, phi0)
        thetas, phis, q = husimi_q(s, 64, 128)
        it, ip = np.unravel_index(np.argmax(q), q.shape)
        assert abs(thetas[it] - theta0) <= np.pi / 64
        assert abs((phis[ip] - phi0 + np.pi) % (2 * np.pi) - np.pi) <= 2 * np.pi / 128

    def test_normalization(self):
        s = jz2_phase(make_css(20, np.pi / 2, 0), 0.02)
        thetas, phis, q = husimi_q(s, 128, 256)
        dth = np.pi / 128
        dph = 2 * np.pi / 256
        total = (q * np.sin(thetas)[:, None]).sum() * dth * dph
        total *= (2 * s.j + 1) / (4 * np.pi)
        assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("n, grid", [(20, (64, 128)), (100, (16, 32)), (300, (128, 256))])
    def test_matches_the_dense_overlap_sum(self, n, grid):
        # past a dim of phi_count the FFT's phi sums wrap the m ladder
        rng = np.random.default_rng(n)
        vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state = DickeState(n / 2, vec / np.linalg.norm(vec))
        thetas, phis, q = husimi_q(state, *grid)
        mags = np.stack([np.abs(css_amplitudes(state.j, t, 0.0)) for t in thetas])
        want = np.abs((mags * state.amplitudes) @ np.exp(1j * np.outer(m_values(state.j), phis))) ** 2
        assert q.shape == grid and np.max(np.abs(q - want)) <= 1e-14

    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            husimi_q(make_css(2, 0.3, 0.1), 8, 64)

    @pytest.mark.parametrize("grid", [(16, 10**10), (10**10, 32)])
    def test_oversized_grid_is_a_resource_error(self, grid):
        # numpy would refuse either grid's 80 GB of angles at once; the check comes before them
        with pytest.raises(ResourceError, match=r"^N = 60 needs .* GiB of Husimi grid"):
            husimi_q(make_css(30, 1.2, 0.7), *grid)


def css_columns(count):
    """The report of a block of count copies of one coherent state."""
    return squeezing_columns(2, np.repeat(make_css(2, np.pi / 2, 0).amplitudes[:, None], count, axis=1))


class TestRunRecord:
    def test_strictly_increasing(self):
        rep = css_columns(3)
        RunRecord([0.0, 0.1, 0.2], rep)
        with pytest.raises(DomainError):
            RunRecord([0.0, 0.1, 0.1], rep)

    def test_arrays(self):
        rec = RunRecord([0.0, 0.5, 1.0], css_columns(3))
        assert np.allclose(rec.times(), [0, 0.5, 1.0])
        assert np.allclose(rec.xi2(), [1, 1, 1], atol=1e-9)

    def test_run_records_take_each_runs_columns(self):
        # two runs sampled three times: a tile of two samples, then one of one sample
        block = np.stack([make_css(2, 0.2 + 0.3 * k, 0.1 * k).amplitudes for k in range(6)], axis=1)
        tiles = [spin_moments(2, block[:, :4]), spin_moments(2, block[:, 4:])]
        records = run_records(2, [0.0, 0.1, 0.2], tiles, 2, 2)
        full, last = squeezing_columns(2, block[:, :4]), squeezing_columns(2, block[:, 4:])
        for r, rec in enumerate(records):
            assert np.array_equal(rec.times(), [0.0, 0.1, 0.2])
            want = [full.column(r), full.column(2 + r), last.column(r)]
            assert [rec.report.column(k) for k in range(3)] == want
            assert rec.report.mean_spin.shape == (3, 3)

    def test_run_records_without_samples(self):
        (rec,) = run_records(2, [], [], 1)
        assert rec.times().shape == rec.xi2().shape == (0,)
        assert rec.report.mean_spin.shape == (3, 0)


class TestFindOptimum:
    def test_exact_parabola(self):
        ts = np.linspace(0, 1, 11)
        vals = 3.0 * (ts - 0.4321) ** 2 + 0.777
        res = find_optimum((ts, vals))
        assert res.chi_t == pytest.approx(0.4321, abs=1e-9)
        assert res.xi2 == pytest.approx(0.777, abs=1e-9)
        assert not res.at_boundary

    def test_monotone_boundary(self):
        ts = np.linspace(0, 1, 9)
        res = find_optimum((ts, 1.0 + ts))
        assert res.at_boundary
        assert res.chi_t == pytest.approx(0.0)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            find_optimum(((0.0, 1.0), (1.0, 2.0)))

    def test_skips_undefined_samples(self):
        # np.argmin would pick the NaN; next to it the sampled point stands
        ts = np.linspace(0, 1, 6)
        res = find_optimum((ts, [3.0, 2.0, np.nan, 1.5, 4.0, 5.0]))
        assert (res.chi_t, res.xi2, res.at_boundary) == (ts[3], 1.5, False)
        res = find_optimum((ts, [np.nan] * 6))  # no defined sample: the first, undefined
        assert res.chi_t == 0.0 and np.isnan(res.xi2) and res.at_boundary


class TestUndefinedDirectionAtN2:
    """At N = 2 the x-pointing state under Jz^2 loses its mean spin at chi t = pi/2
    (<J+> ~ cos(chi t)): that sample's squeezing fields read NaN, the run goes on,
    and the optimum and the freeze decision skip it."""

    TIMES = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi)

    def run(self):
        css = make_css(1, np.pi / 2, 0.0)
        segments = (QuadraticSegment(np.pi),)
        return css, segments, evolve_schedule(css, ProtocolSchedule(segments, self.TIMES))[1]

    def test_sample_reads_nan_and_the_run_goes_on(self, tmp_path):
        _, _, record = self.run()
        rep = record.report
        assert np.linalg.norm(rep.mean_spin[:, 2]) <= 1e-15
        for field in (rep.xi2, rep.theta_min, rep.var_min, rep.var_max):
            assert np.isnan(field[2]) and np.all(np.isfinite(np.delete(field, 2)))
        assert not rep.isotropic[2]
        opt = find_optimum(record)
        assert np.isfinite(opt.xi2) and opt.chi_t != np.pi / 2
        write_run_csv(tmp_path / "run.csv", record)  # warnings are errors: no log10 warning either
        row = (tmp_path / "run.csv").read_text().splitlines()[3].split(",")
        assert row[1:3] == ["nan", "nan"] and row[-1] == "nan"

    def test_freeze_decision_skips_it(self):
        css, segments, _ = self.run()
        meta = {}
        best, _, _ = _probe(css, segments, self.TIMES[1:4], list(self.TIMES[1:4]), meta)
        assert best != 1 and np.isnan(meta["freeze_candidates"][1][1])

    def test_only_that_column_reads_nan(self):
        x = np.stack([make_css(1, np.pi / 2, 0.0).amplitudes, np.array([0, 1, 0], dtype=complex)], axis=1)
        rep = squeezing_columns(1, x)
        assert np.isfinite(rep.xi2[0]) and np.isnan(rep.xi2[1])


class TestScalingFit:
    def test_exact_inverse_law(self):
        ns = [100, 200, 400, 800]
        pts = [(n, 5.0 / n) for n in ns]
        exp, pre, resid = scaling_fit(pts)
        assert exp == pytest.approx(-1.0, abs=1e-12)
        assert pre == pytest.approx(5.0, rel=1e-10)
        assert resid < 1e-12

    def test_requires_three_distinct(self):
        with pytest.raises(DomainError):
            scaling_fit([(100, 1.0), (100, 1.1), (100, 0.9)])


class TestHusimiAnisotropy:
    def test_frozen_state_ridge_matches_theta_min(self):
        # moment analysis of the Q field: the long axis of the frozen
        # squeezed state's ridge is perpendicular to the recorded theta_min
        from spinsqueeze.diagnostics import perpendicular_frame
        from spinsqueeze.protocols import build_modulated_drive

        n = 100
        bundle = build_modulated_drive(
            n, omega_over_chi=2 * np.pi * 2e4, freeze=True
        )
        frozen = bundle.frozen_state()
        rep = squeezing_report(frozen)
        thetas, phis, q = husimi_q(frozen, 128, 256)

        ms = np.array(rep.mean_spin)
        n_hat = ms / np.linalg.norm(ms)
        n1, n2 = perpendicular_frame(n_hat)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        dirs = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        )
        w = q * np.sin(tt)
        u = dirs @ n1
        v = dirs @ n2
        wsum = w.sum()
        mu_u, mu_v = (w * u).sum() / wsum, (w * v).sum() / wsum
        muu = (w * (u - mu_u) ** 2).sum() / wsum
        mvv = (w * (v - mu_v) ** 2).sum() / wsum
        muv = (w * (u - mu_u) * (v - mu_v)).sum() / wsum
        long_axis = 0.5 * np.arctan2(2 * muv, muu - mvv) % np.pi
        want = (rep.theta_min + np.pi / 2) % np.pi
        dist = min(abs(long_axis - want), np.pi - abs(long_axis - want))
        assert dist < 0.05
        # ridge sits on the equator: long axis is the in-plane y direction
        assert abs(rep.theta_min - np.pi / 2) < 0.05
