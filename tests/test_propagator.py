import numpy as np
import pytest
import scipy.linalg as sla

from spinsqueeze import dicke
from spinsqueeze.cli import parse_config, run_scenario
from spinsqueeze.dicke import (
    DickeState,
    RotationSpec,
    fidelity,
    make_css,
    m_values,
    make_dicke_state,
    axis_eigensystem,
    rotate,
)
from spinsqueeze.diagnostics import squeezing_report
from spinsqueeze.errors import DomainError, ResourceError
from spinsqueeze.hamiltonians import DriveEnvelope, matrix, quadratic_bands, quadratic_matrix
from spinsqueeze.propagator import (
    DrivenEngine,
    SpectralPropagator,
    _quadratic,
    dicke_isometry,
    driven_doubling_check,
    evolve_schedule,
    full_hilbert_oracle,
    full_spin_ops,
    junction_blocks,
    lift_to_full,
    period_operators,
    project_to_dicke,
    spectral,
)
from spinsqueeze.schedule import (
    DrivenSegment,
    FreezeMarker,
    NoiseModel,
    ProtocolSchedule,
    Pulse,
    QuadraticSegment,
)

from drive_helpers import raw_end, split_steps_only


def random_state(j, seed=0):
    rng = np.random.default_rng(seed)
    dim = int(round(2 * j)) + 1
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DickeState(j, vec / np.linalg.norm(vec))


def jz2_phase(state, chi_t):
    """exp(-i chi t Jz^2) |state>, one phase per m."""
    return DickeState(state.j, np.exp(-1j * chi_t * m_values(state.j) ** 2) * state.amplitudes)


def quadratic_run(state, chi_t):
    """exp(-i chi t Jz^2) |state> through evolve_schedule."""
    return evolve_schedule(state, ProtocolSchedule((QuadraticSegment(chi_t),), ()))[0]


def drive_run(state, env, t0, t1, spp=64):
    """The driven model from t0 to t1 on split steps alone, as a state: one driven
    segment, after a Jz^2 hold from 0 to t0 applied to the state compensated in
    advance, exp(+i t0 Jz^2) |state>, so the hold gives the state back."""
    hold = (QuadraticSegment(t0),) if t0 else ()
    with split_steps_only():
        return DickeState(state.j, raw_end(jz2_phase(state, -t0), *hold, DrivenSegment(env, t1 - t0, spp)))


class TestQuadratic:
    def test_zero_duration_identity(self):
        s = random_state(3, 1)
        out = quadratic_run(s, 0.0)
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_eigenstate_global_phase(self):
        s = make_dicke_state(2, -1)
        out = quadratic_run(s, 0.7)
        assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_m_revival(self):
        j = 1
        vec = np.array([1, 0, 1]) / np.sqrt(2)
        s = DickeState(j, vec)
        out = quadratic_run(s, np.pi)
        assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            QuadraticSegment(-0.1)

    def test_axis_x_equals_rotation_sandwich(self):
        # exp(-i chi t Jx^2) == Ry(-pi/2) exp(-i chi t Jz^2) Ry(pi/2)
        j, chi_t = 10, 0.3
        s = make_css(j, 0.9, 0.3)
        direct = DickeState(j, sla.expm(-1j * chi_t * quadratic_matrix(j, "x")) @ s.amplitudes)
        sandwich = rotate(s, RotationSpec((0, 1, 0), np.pi / 2))
        sandwich = jz2_phase(sandwich, chi_t)
        sandwich = rotate(sandwich, RotationSpec((0, 1, 0), -np.pi / 2))
        assert fidelity(direct, sandwich) >= 1 - 1e-10

    @pytest.mark.parametrize("j", [0.5, 1, 7.5, 8, 200])
    def test_mirrored_phases_match_the_full_ladder(self, j):
        # the phases come from the upper half of the ladder, mirrored: bit for bit the direct form
        dim = int(round(2 * j)) + 1
        rng = np.random.default_rng(3)
        x = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        for rows in {dim, max(dim // 2, 1), dim // 2 + 1, dim - 1}:
            for a in (0.0, 0.37, -2.9, 1e3):
                full = np.exp(-1j * a * m_values(j)[:rows, None] ** 2) * x[:rows]
                assert np.array_equal(_quadratic(j, a, x[:rows]), full)


class TestNonFiniteTimeline:
    """A NaN or infinite duration, or a NaN sample time, is a named DomainError:
    unchecked, a NaN duration was a silent no-op that made total_time() NaN, and
    a NaN sample was reported at chi t = NaN."""

    @pytest.mark.parametrize("field, value", [("duration", np.nan), ("duration", np.inf)])
    def test_quadratic_segment(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            QuadraticSegment(**{"duration": 0.2, field: value})

    @pytest.mark.parametrize("field, value", [("duration", np.nan), ("duration", np.inf)])
    def test_driven_segment(self, field, value):
        env = DriveEnvelope(0.9057 * 2 * np.pi * 100, 2 * np.pi * 100)
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            DrivenSegment(**{"env": env, "duration": 0.02, field: value})

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_noise_model(self, eta):
        # unchecked, NaN ran as the noiseless protocol and inf gave NaN xi^2
        with pytest.raises(DomainError, match="eta must be finite"):
            NoiseModel(eta)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.nan])
    def test_noise_seed(self, seed):
        # unchecked, -1 ended in a bare ValueError from SeedSequence and 1.5 in a bare TypeError
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            NoiseModel(0.01, seed)

    def test_noise_seed_takes_numpy_integers(self):
        assert NoiseModel(0.01, np.int64(3)).seed == 3

    @pytest.mark.parametrize("times", [(0.1, np.nan), (np.nan, 0.1)])
    def test_sample_times(self, times):
        with pytest.raises(DomainError, match="sample_times must be finite"):
            ProtocolSchedule((QuadraticSegment(0.2),), times)


class TestSpectral:
    def test_matches_expm(self):
        j = 2
        h = matrix(j, 1.0, 0.0, -1.0)
        prop = spectral(j, 1.0, 0.0, -1.0)
        s = make_css(j, np.pi / 2, 0.0)
        got = prop.evolve(s, 0.37)
        want = sla.expm(-1j * 0.37 * h) @ s.amplitudes
        assert np.max(np.abs(got.amplitudes - want)) < 1e-12

    def test_composition(self):
        prop = spectral(3, 1.0, 0.0, -1.0)
        s = make_css(3, np.pi / 2, 0.0)
        a = prop.evolve(prop.evolve(s, 0.2), 0.3)
        b = prop.evolve(s, 0.5)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


class TestDriven:
    def test_drive_off_equals_diagonal(self):
        s = make_css(4, np.pi / 2, 0.0)
        env = DriveEnvelope(0.0, 2 * np.pi * 100, -np.pi / 2)
        a = drive_run(s, env, 0.0, 0.05)
        b = jz2_phase(s, 0.05)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.slow
    def test_matches_full_oracle_n4(self):
        n = 4
        s = make_css(n / 2, np.pi / 2, 0.0)
        omega = 2 * np.pi * 2000.0
        env = DriveEnvelope(0.9057 * omega, omega, -np.pi / 2)
        s0 = rotate(s, RotationSpec((0, 1, 0), (env.omega0 / env.omega) * np.sin(env.phase)))
        got = drive_run(s0, env, 0.0, 0.2)
        want, deficit = full_hilbert_oracle(s0, ProtocolSchedule((DrivenSegment(env, 0.2),), ()))
        assert deficit < 1e-10
        assert fidelity(got, want) >= 1 - 1e-6

    def test_composition_at_fixed_grid(self):
        s = make_css(10, np.pi / 2, 0.0)
        omega = 2 * np.pi * 300.0
        env = DriveEnvelope(0.9057 * omega, omega, -np.pi / 2)
        once = drive_run(s, env, 0.0, 0.02)
        split_t = 0.0123456  # deliberately off-grid
        with split_steps_only():
            twice = raw_end(s, DrivenSegment(env, split_t), DrivenSegment(env, 0.02 - split_t))
        twice = DickeState(s.j, twice)
        assert fidelity(once, twice) >= 1 - 1e-9

    def test_second_order_convergence(self):
        # error vs a 4x-refined reference scales as spp^-2 within a factor 2
        j = 10
        s = make_css(j, np.pi / 2, 0.0)
        omega = 2 * np.pi * 20.0
        env = DriveEnvelope(0.9057 * omega, omega, -np.pi / 2)
        t1 = 0.3
        ref = drive_run(s, env, 0.0, t1, spp=1024)
        errs = []
        for spp in (32, 64, 128):
            out = drive_run(s, env, 0.0, t1, spp=spp)
            # phase-minimized state error sqrt(2(1-fid)) is the 2nd-order one
            errs.append(np.sqrt(max(2 * (1 - fidelity(out, ref)), 0.0)))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 2.0 < r1 < 8.0
        assert 2.0 < r2 < 8.0

    def test_too_few_steps_rejected(self):
        with pytest.raises(DomainError):
            DrivenSegment(DriveEnvelope(1, 1, 0), 1, steps_per_period=8)

    @pytest.mark.parametrize("spp", [64.0, 20.5, np.float64(64.0), True, 0.2],
                             ids=["float", "fraction", "numpy-float", "bool", "old-style-call"])
    def test_non_integer_steps_rejected(self, spp):
        # 64.0 failed deep in the period-operator build and 20.5 ran with h = T/20.5; 0.2 is
        # an old-style DrivenSegment(env, chi, duration) call, which would run with the duration
        # as its step count
        with pytest.raises(DomainError, match="steps_per_period must be an integer"):
            DrivenSegment(DriveEnvelope(1, 1, 0), 1.0, spp)

    def test_backwards_rejected(self):
        with pytest.raises(DomainError):
            DrivenSegment(DriveEnvelope(1, 1, 0), -0.5)

    def test_norm_preserved_long_run(self):
        s = make_css(20, np.pi / 2, 0.0)
        omega = 2 * np.pi * 100.0
        env = DriveEnvelope(0.9057 * omega, omega, -np.pi / 2)
        with split_steps_only():
            out = raw_end(s, DrivenSegment(env, 0.5))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestPeriodOperators:
    def test_fast_path_matches_direct(self):
        j = 15
        s = make_css(j, np.pi / 2, 0.0)
        omega = 2 * np.pi * 500.0
        env = DriveEnvelope(0.9057 * omega, omega, -np.pi / 2)
        t1 = 137.25 * env.period
        assert DrivenEngine(j, env, 64, t1)._ops is not None
        with split_steps_only():
            a = raw_end(s, DrivenSegment(env, t1, 64))
        b = raw_end(s, DrivenSegment(env, t1, 64))
        assert abs(np.vdot(a, b)) >= 1 - 1e-11

    def test_fast_path_nonzero_phase(self):
        j = 8
        s = make_css(j, np.pi / 2, 0.1)
        omega = 2 * np.pi * 400.0
        env = DriveEnvelope(0.7 * omega, omega, 0.9)
        t1 = 55 * env.period
        assert DrivenEngine(j, env, 32, t1)._ops is not None
        with split_steps_only():
            a = raw_end(s, DrivenSegment(env, t1, 32))
        b = raw_end(s, DrivenSegment(env, t1, 32))
        assert abs(np.vdot(a, b)) >= 1 - 1e-11

    def test_doubling_check_reports_small_gap(self):
        s = make_css(5, np.pi / 2, 0.0)
        omega = 2 * np.pi * 1000.0
        env = DriveEnvelope(0.9057 * omega, omega, -np.pi / 2)
        rep = driven_doubling_check(s, DrivenSegment(env, 0.05))
        assert rep["terminal_fidelity_gap"] < 1e-8
        assert rep["doubled"] == 128

    def test_doubling_gap_divides_out_the_norms(self):
        # the gap compares directions: a terminal block at twice its norm moves only its drift
        s = make_css(5, np.pi / 2, 0.0)
        omega = 2 * np.pi * 1000.0
        seg = DrivenSegment(DriveEnvelope(0.9057 * omega, omega, 0.3), 0.05)
        plain = driven_doubling_check(s, seg)
        scaled = driven_doubling_check(s, seg, 2 * raw_end(s, seg))
        assert scaled["terminal_fidelity_gap"] == pytest.approx(plain["terminal_fidelity_gap"], abs=1e-15)
        assert scaled["norm_drift"] == pytest.approx(2 * plain["norm_drift"] + 1, abs=1e-14)
        assert scaled["doubled_norm_drift"] == plain["doubled_norm_drift"]
        assert abs(plain["norm_drift"]) < 1e-9 and abs(plain["doubled_norm_drift"]) < 1e-9

    def test_doubling_check_runs_segment_alone(self):
        # the check runs the segment as a one-segment schedule from clock 0: its own first run
        # is the raw end of that schedule
        s = make_css(5, np.pi / 2, 0.0)
        omega = 2 * np.pi * 1000.0
        seg = DrivenSegment(DriveEnvelope(0.9057 * omega, omega, -np.pi / 2), 0.05)
        plain = driven_doubling_check(s, seg)
        given = driven_doubling_check(s, seg, raw_end(s, seg))
        assert given == plain


class TestSchedule:
    def test_empty_schedule(self):
        s = random_state(2, 5)
        out, record = evolve_schedule(s, ProtocolSchedule((), ()))
        assert fidelity(out, s) == pytest.approx(1.0, abs=1e-13)
        assert len(record.times()) == 0

    def test_single_pulse_record(self):
        j = 4
        sched = ProtocolSchedule(
            (Pulse(RotationSpec((0, 1, 0), np.pi / 2)),),
            (),
        )
        out, _ = evolve_schedule(make_dicke_state(j, j), sched)
        rep = squeezing_report(out)
        assert np.allclose(rep.mean_spin, [j, 0, 0], atol=1e-9)

    def test_sample_inside_segment(self):
        j = 6
        sched = ProtocolSchedule(
            (QuadraticSegment(0.2),),
            (0.0, 0.07, 0.2),
        )
        s = make_css(j, np.pi / 2, 0.0)
        _, record = evolve_schedule(s, sched)
        assert np.allclose(record.times(), [0.0, 0.07, 0.2])
        direct = squeezing_report(jz2_phase(s, 0.07))
        assert record.xi2()[1] == pytest.approx(direct.xi2, rel=1e-12)

    def test_boundary_sample_before_pulse(self):
        j = 3
        sched = ProtocolSchedule(
            (
                QuadraticSegment(0.1),
                Pulse(RotationSpec((1, 0, 0), np.pi)),
                QuadraticSegment(0.1),
            ),
            (0.1,),
        )
        s = make_css(j, np.pi / 2, 0.0)
        _, record = evolve_schedule(s, sched)
        want = squeezing_report(jz2_phase(s, 0.1))
        got = record.report.column(0)
        assert got.xi2 == pytest.approx(want.xi2, rel=1e-12)
        assert np.allclose(got.mean_spin, want.mean_spin, atol=1e-9)

    # a pi/2 pulse about z turns the x-pointing coherent state at j = 10 onto y; a sample
    # past the pulse's instant by more than the instant rule's width reads the turned state
    def test_sample_just_after_an_origin_pulse_reads_it(self):
        turn = Pulse(RotationSpec((0, 0, 1), np.pi / 2))
        s = make_css(10, np.pi / 2, 0.0)
        reads = []
        for times in [(5e-10,), (0.0, 5e-10)]:  # with and without a neighbour at the boundary
            _, record = evolve_schedule(s, ProtocolSchedule((turn, QuadraticSegment(0.1)), times))
            reads.append(record.report.column(len(times) - 1))
        for rep in reads:
            assert np.allclose(rep.mean_spin, [0, 10, 0], atol=1e-6)
        assert reads[0].xi2 == reads[1].xi2 and np.array_equal(reads[0].mean_spin, reads[1].mean_spin)

    def test_sample_just_after_an_inner_pulse_reads_it(self):
        turn = Pulse(RotationSpec((0, 0, 1), np.pi / 2))
        s = make_css(10, np.pi / 2, 0.0)
        sched = ProtocolSchedule((QuadraticSegment(3), turn, QuadraticSegment(3)), (3, 3 + 2e-9, 3 + 5e-9))
        _, record = evolve_schedule(s, sched)
        x, y, z = squeezing_report(jz2_phase(s, 3)).mean_spin  # (-8.26, 0, 0)
        assert np.allclose(record.report.column(0).mean_spin, [x, y, z], atol=1e-9)
        for k in (1, 2):
            assert np.allclose(record.report.column(k).mean_spin, [-y, x, z], atol=1e-6)

    def test_driven_segment_reads_schedule_clock(self):
        # after a hold of t0, the envelope is read from t0 on: the same as a drive
        # from clock 0 whose phase is advanced by omega * t0
        s = make_css(6, np.pi / 2, 0.0)
        omega = 2 * np.pi * 100.0
        env = DriveEnvelope(0.9057 * omega, omega, -np.pi / 2)
        t0 = 0.0013
        late = drive_run(s, env, t0, t0 + 0.02)
        shifted = DriveEnvelope(env.omega0, omega, env.phase + omega * t0)
        early = drive_run(s, shifted, 0.0, 0.02)
        assert fidelity(late, early) >= 1 - 1e-10
        assert fidelity(late, drive_run(s, env, 0.0, 0.02)) < 1 - 1e-6

    def test_freeze_marker_logged(self):
        sched = ProtocolSchedule(
            (QuadraticSegment(0.1), FreezeMarker()),
            (),
        )
        _, record = evolve_schedule(make_css(2, np.pi / 2, 0.0), sched)
        assert any(e["kind"] == "freeze" for e in record.events)

    def test_sample_beyond_end_rejected(self):
        with pytest.raises(DomainError):
            ProtocolSchedule((QuadraticSegment(0.1),), (0.2,))

    def test_pulse_schedule_matches_full_oracle(self):
        # mini pulse sequence checked against the tensor-product oracle
        n = 4
        dt = 0.01
        segs = []
        for _ in range(3):
            segs += [
                Pulse(RotationSpec((0, 1, 0), np.pi / 2)),
                QuadraticSegment(2 * dt),
                Pulse(RotationSpec((0, 1, 0), -np.pi / 2)),
                QuadraticSegment(dt),
            ]
        sched = ProtocolSchedule(tuple(segs), ())
        s = make_dicke_state(n / 2, n / 2)
        got, _ = evolve_schedule(s, sched)
        want, _ = full_hilbert_oracle(s, sched)
        assert fidelity(got, want) >= 1 - 1e-9


class TestFullHilbert:
    def test_n2_oat_triplet_phases(self):
        # Jz^2 on the triplet is diag(1, 0, 1): |1,1>+|1,-1> stays put at t=pi
        jx, jy, jz = full_spin_ops(2)
        iso = dicke_isometry(2)
        jz2_dicke = iso.conj().T @ (jz @ jz) @ iso
        assert np.allclose(jz2_dicke, np.diag([1, 0, 1]), atol=1e-12)

    def test_n2_oat_matches_dicke(self):
        s = make_dicke_state(1, 1)
        got = quadratic_run(s, 0.83)
        want, deficit = full_hilbert_oracle(s, (1.0, 0.0, 0.0), 0.83)
        assert deficit < 1e-10
        assert fidelity(got, want) >= 1 - 1e-10

    def test_n4_tact_matches_dicke(self):
        s = make_css(2, np.pi / 2, 0.0)
        got = spectral(2, 1.0, 0.0, -1.0).evolve(s, 0.1)
        want, deficit = full_hilbert_oracle(s, (1.0, 0.0, -1.0), 0.1)
        assert deficit < 1e-9
        assert fidelity(got, want) >= 1 - 1e-9

    def test_n1_oat_is_global_phase(self):
        s = make_css(0.5, np.pi / 2, 0.0)
        out, _ = full_hilbert_oracle(s, (1.0, 0.0, 0.0), 1.3)
        assert fidelity(out, s) == pytest.approx(1.0, abs=1e-10)
        assert squeezing_report(out).xi2 == pytest.approx(1.0, abs=1e-9)

    def test_lift_project_round_trip(self):
        s = random_state(2.5, 9)
        back, deficit = project_to_dicke(5, lift_to_full(s))
        assert deficit < 1e-12
        assert fidelity(back, s) == pytest.approx(1.0, abs=1e-12)

    def test_resource_limit(self):
        with pytest.raises(ResourceError):
            full_spin_ops(11)
        with pytest.raises(ResourceError):
            full_hilbert_oracle(make_css(5.5, np.pi / 2, 0.0), (1.0, 0.0, 0.0), 0.1)


class TestOversizedN:
    """An eigenbasis larger than physical memory is a named ResourceError raised before it is
    allocated. Physical memory is patched to 1 MiB, so no test here builds anything large."""

    @pytest.fixture(autouse=True)
    def one_mib(self, monkeypatch):
        monkeypatch.setattr(dicke, "PHYSICAL_MEMORY", 2**20)

    def test_axis_eigensystem(self):
        # two 251^2 float64 halves: 0.96 MiB fit, 701's two 351^2 halves (1.9 MiB) do not
        axis_eigensystem(250)
        with pytest.raises(ResourceError, match=r"^N = 701 needs 0\.00184 GiB of eigenvectors, more than the machine's 0\.000977 GiB"):
            axis_eigensystem(350.5)

    def test_spectral_propagator(self):
        # the class bases of Jz^2 - Jy^2: N = 701's one 351^2 system (0.94 MiB) and N = 700's four
        # of 176 and 175 rows fit; N = 1001's one 501^2 system and N = 1000's four of 251 and 250 do not
        SpectralPropagator(*quadratic_bands(350.5, 1.0, 0.0, -1.0))
        SpectralPropagator(*quadratic_bands(350, 1.0, 0.0, -1.0))
        for j in (500.5, 500):
            with pytest.raises(ResourceError, match=rf"^N = {round(2 * j)} needs 0\.00187 GiB"):
                SpectralPropagator(*quadratic_bands(j, 1.0, 0.0, -1.0))

    def test_drive_builds_check_their_bytes(self, tmp_path, capsys, monkeypatch):
        # at 2 MiB N = 300's axis halves (0.35 MiB) and junction blocks (1.0 MiB at their build's peak)
        # fit, and its period operators (5.5 MiB at their build's peak) do not
        monkeypatch.setattr(dicke, "PHYSICAL_MEMORY", 2 * 2**20)
        period_operators.cache_clear()
        axis_eigensystem(150)
        junction_blocks(150, 1e-3)
        cfg = parse_config(["drive", "--n", "300", "--freeze", "--out-dir", str(tmp_path)])
        assert run_scenario(cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("spinsqueeze: N = 300 needs 0.00542 GiB of period operators, more than the machine's 0.00195 GiB")

    @pytest.mark.parametrize("scenario", ["tact", "pulses"])
    def test_cli_names_it(self, tmp_path, capsys, scenario):
        cfg = parse_config([scenario, "--n", "1001", "--samples", "16", "--out-dir", str(tmp_path)])
        assert run_scenario(cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("spinsqueeze: N = 1001 needs ")
