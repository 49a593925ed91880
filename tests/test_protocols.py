from dataclasses import fields

import numpy as np
import pytest

from spinsqueeze import propagator, protocols
from spinsqueeze.dicke import RotationSpec, fidelity, make_css, make_dicke_state, rotate
from spinsqueeze.diagnostics import SqueezingReport, find_optimum, squeezing_report
from spinsqueeze.errors import DomainError, ResourceError
from spinsqueeze.hamiltonians import drive_value
from spinsqueeze.propagator import (
    DrivenEngine,
    _PeriodOperators,
    driven_doubling_check,
    evolve_schedule,
    spectral,
)
from spinsqueeze.protocols import (
    MAX_DRIVE_ZEROS,
    NoiseModel,
    _noise_factors,
    build_modulated_drive,
    build_repeated_pulse,
    drive_zero_times,
    effective_drive_record,
    effective_pulse_record,
    reference_optimum,
    reference_runs,
    run_monte_carlo,
    run_protocol,
    t_opt_oat,
    t_opt_protocol,
    t_opt_tact,
)
from spinsqueeze.schedule import DrivenSegment, FreezeMarker, ProtocolSchedule, Pulse, QuadraticSegment

from drive_helpers import raw_end


class TestAnalyticTimes:
    def test_paper_values_n1250(self):
        assert t_opt_oat(1250) == pytest.approx(1.16e-2, rel=2e-3)
        assert t_opt_tact(1250) == pytest.approx(3.407e-3, rel=2e-3)
        assert t_opt_protocol(1250) == pytest.approx(3 * 3.407e-3, rel=2e-3)


class TestRepeatedPulseBuilder:
    def test_single_period_structure(self):
        with pytest.warns(UserWarning):  # one period cannot satisfy the gate
            bundle = build_repeated_pulse(10, n_periods=1)
        segs = bundle.schedule.segments
        assert len([s for s in segs if isinstance(s, Pulse)]) == 2
        assert len([s for s in segs if isinstance(s, QuadraticSegment)]) == 2

    def test_paper_timing_n1250(self):
        # delta_t = t_opt_tact / n_periods; the paper's chi ~ 2pi*0.063 Hz
        # illustration (t_c ~ 500us, delta_t ~ 170us at 25ms total) pins these
        bundle = build_repeated_pulse(1250, n_periods=50)
        chi_hz = 0.063
        to_seconds = 1.0 / (2 * np.pi * chi_hz)
        assert bundle.meta["delta_t"] == pytest.approx(np.log(5000) / 2500 / 50, rel=1e-12)
        assert bundle.meta["t_c"] * to_seconds == pytest.approx(516e-6, rel=0.05)
        assert bundle.meta["delta_t"] * to_seconds == pytest.approx(172e-6, rel=0.05)
        assert bundle.meta["t_opt"] * to_seconds == pytest.approx(25.8e-3, rel=0.05)

    def test_trotter_gate_accepted(self):
        bundle = build_repeated_pulse(1250, n_periods=50)
        assert bundle.meta["trotter_gate"] == pytest.approx(2 * np.log(5000) / 2500 / 50 * 1250)
        assert bundle.meta["trotter_gate_ok"]

    def test_trotter_gate_warning(self):
        with pytest.warns(UserWarning, match="not small"):
            bundle = build_repeated_pulse(1250, n_periods=1)
        assert not bundle.meta["trotter_gate_ok"]

    def test_paper_sampling_times(self):
        with pytest.warns(UserWarning):
            bundle = build_repeated_pulse(10, n_periods=3)
        tc = bundle.meta["t_c"]
        dt = bundle.meta["delta_t"]
        want = []
        for n in range(3):
            want += [n * tc + dt, n * tc + 2.5 * dt]
        assert np.allclose(bundle.schedule.sample_times, want)

    def test_rejects_zero_periods(self):
        with pytest.raises(DomainError):
            build_repeated_pulse(10, n_periods=0)

    @pytest.mark.parametrize("n_periods", [2.5, True])
    def test_non_integer_periods_rejected(self, n_periods):
        # 2.5 ended in a bare TypeError after the Trotter warning, and True ran as 1
        with pytest.raises(DomainError, match="n_periods must be an integer of at least 1"):
            build_repeated_pulse(20, n_periods)

    def test_total_time_is_optimum(self):
        bundle = build_repeated_pulse(200, n_periods=7)
        assert bundle.schedule.total_time() == pytest.approx(t_opt_protocol(200), rel=1e-12)


class TestPulseEffectiveConvergence:
    def test_terminal_xi2_first_order_in_delta_t(self):
        n = 100
        t_opt = t_opt_protocol(n)
        target = effective_pulse_record(n, 1.0, (t_opt,)).xi2()[0]
        devs = []
        for nc in (25, 50, 100, 200):
            bundle = build_repeated_pulse(n, n_periods=nc)
            final, _ = evolve_schedule(bundle.initial_state, bundle.schedule)
            devs.append(abs(squeezing_report(final).xi2 - target))
        assert devs[0] > devs[1] > devs[2] > devs[3]
        # at least halving per doubling; in practice the xi^2 deviation drops
        # ~4x because the leading Trotter term is rotation-like and xi^2 is
        # rotation invariant
        for a, b in zip(devs[:-1], devs[1:]):
            assert a / b > 1.8

    def test_terminal_state_fidelity_improves(self):
        n = 60
        t_opt = t_opt_protocol(n)
        prop = spectral(n / 2, 1.0 / 3.0, 2.0 / 3.0, 0.0)
        exact = prop.evolve(make_dicke_state(n / 2, n / 2), t_opt)
        gaps = []
        for nc in (10, 20, 40, 80):
            bundle = build_repeated_pulse(n, n_periods=nc)
            final, _ = evolve_schedule(bundle.initial_state, bundle.schedule)
            gaps.append(1 - fidelity(final, exact))
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        # first-order state error: the fidelity gap drops ~4x per doubling
        for a, b in zip(gaps[:-1], gaps[1:]):
            assert 2.5 < a / b < 6.0


class TestRepeatedPulseFreeze:
    def test_freeze_mechanics_n100(self):
        n = 100
        bundle = build_repeated_pulse(n, n_periods=20, freeze=True)
        frozen = bundle.frozen_state()
        var_z = bundle.meta["freeze_var_z"]
        # after the sign-resolved pi/4 pulse the z-variance is the squeezed one
        record = run_protocol(bundle.schedule, bundle.initial_state)
        freeze_idx = int(np.argmin(np.abs(record.times() - bundle.meta["freeze_time"])))
        var_min_at_freeze = record.report.var_min[freeze_idx]
        assert var_z == pytest.approx(var_min_at_freeze, rel=0.01)
        ms = squeezing_report(frozen).mean_spin
        assert abs(ms[2]) <= 1.0

    def test_freeze_event_logged(self):
        bundle = build_repeated_pulse(60, n_periods=10, freeze=True)
        record = run_protocol(bundle.schedule, bundle.initial_state)
        assert any(e["kind"] == "freeze" for e in record.events)


class TestDriveBuilder:
    def test_initial_state_paper_recipe(self):
        n = 40
        bundle = build_modulated_drive(n, omega_over_chi=2 * np.pi * 2e3)
        ratio = bundle.meta["omega0_over_omega"]
        want = rotate(
            make_css(n / 2, np.pi / 2, 0.0), RotationSpec((0, 1, 0), -ratio)
        )  # sin(-pi/2) = -1
        assert fidelity(bundle.initial_state, want) == pytest.approx(1.0, abs=1e-12)

    def test_drive_zeros_are_zeros(self):
        from spinsqueeze.hamiltonians import DriveEnvelope

        env = DriveEnvelope(0.9, 2 * np.pi * 50, -np.pi / 2)
        zeros = drive_zero_times(env, 0.1)
        assert len(zeros) > 5
        for t in zeros[:6]:
            assert abs(drive_value(env, t)) < 1e-12

    @pytest.mark.parametrize("omega", [2 * np.pi * 50, 2 * np.pi * 2e4])
    @pytest.mark.parametrize("phase", [-2 * np.pi, -np.pi / 2, 0.0, 0.3, np.pi / 2, 2 * np.pi])
    def test_drive_zeros_are_every_zero(self, phase, omega):
        # the sign changes of cos(omega t + phase) on a grid of T/1000, bisected, against the list
        from spinsqueeze.hamiltonians import DriveEnvelope

        env = DriveEnvelope(0.9, omega, phase)
        period = env.period
        t_max = 10.37 * period  # 0.12 T or more from every zero at these phases

        def negative(t):
            return np.signbit(np.cos(omega * t + phase))

        grid = np.arange(-125, 10_496) * (period / 1000)
        i = np.flatnonzero(negative(grid[:-1]) != negative(grid[1:]))
        lo, hi = grid[i], grid[i + 1]
        for _ in range(60):
            mid = (lo + hi) / 2
            left = negative(mid) == negative(lo)
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        want = lo[(lo >= -1e-9 * period) & (lo <= t_max)]
        got = drive_zero_times(env, t_max)
        assert len(want) == 21
        assert len(got) == len(want)
        assert np.all(np.abs(got - want) <= 1e-9 * period)
        assert got[0] >= 0.0 and got[-1] <= t_max

    def test_drive_zero_count_is_capped(self):
        # at phase pi/2 and omega = pi the zeros are t = 0, 1, 2, ...: a list of the cap passes
        from spinsqueeze.hamiltonians import DriveEnvelope

        env = DriveEnvelope(0.9, np.pi, np.pi / 2)
        zeros = drive_zero_times(env, MAX_DRIVE_ZEROS - 1.0)
        assert len(zeros) == MAX_DRIVE_ZEROS and zeros[-1] == MAX_DRIVE_ZEROS - 1
        with pytest.raises(ResourceError, match="omega/chi = 3.141593 puts 1000001 drive zeros"):
            drive_zero_times(env, float(MAX_DRIVE_ZEROS))
        with pytest.raises(ResourceError, match="drive zeros"):
            drive_zero_times(DriveEnvelope(0.9, 1e300, 0.3), 1.0)

    def test_high_frequency_warning(self):
        with pytest.warns(UserWarning, match="high-frequency"):
            bundle = build_modulated_drive(1250, omega_over_chi=2 * np.pi * 100)
        assert not bundle.meta["high_frequency_ok"]

    def test_negative_ratio_rejected(self):
        with pytest.raises(DomainError):
            build_modulated_drive(40, omega0_over_omega=-0.1)

    def test_samples_include_drive_zeros(self):
        bundle = build_modulated_drive(20, omega_over_chi=2 * np.pi * 2e3)
        env_period = bundle.schedule.segments[0].env.period
        ts = np.array(bundle.schedule.sample_times)
        # with phase=-pi/2 zeros sit at multiples of T/2
        zeros = ts[np.abs(ts / (env_period / 2) - np.round(ts / (env_period / 2))) < 1e-9]
        assert len(zeros) >= 0.4 * len(drive_zero_times(bundle.schedule.segments[0].env, ts[-1]))

    def test_tracks_effective_model_at_zeros(self):
        n = 60
        bundle = build_modulated_drive(n, omega_over_chi=2 * np.pi * 2e4)
        record = run_protocol(bundle.schedule, bundle.initial_state)
        times = record.times()
        mask = times <= 1.05 * 3 * reference_optimum(n).chi_t
        eff = effective_drive_record(n, bundle.meta["omega0_over_omega"], times[mask])
        ratio = record.xi2()[mask][-40:] / eff.xi2()[-40:]
        assert np.max(np.abs(ratio - 1)) < 0.05


class TestDriveFreeze:
    def test_freeze_at_drive_zero(self):
        n = 60
        bundle = build_modulated_drive(n, omega_over_chi=2 * np.pi * 2e4, freeze=True)
        env = bundle.schedule.segments[0].env
        assert abs(bundle.meta["drive_value_at_freeze"]) < 1e-6 * env.omega0
        frozen = bundle.frozen_state()
        rep = squeezing_report(frozen)
        assert abs(rep.mean_spin[2]) <= 1.0
        # squeezed axis on z: z-variance equals the report's minimum
        from spinsqueeze.dicke import apply_spin

        vz = apply_spin(frozen.j, (0, 0, 1.0), frozen.amplitudes)
        jz = np.vdot(frozen.amplitudes, vz).real
        var_z = np.vdot(vz, vz).real - jz**2
        assert var_z == pytest.approx(rep.var_min, rel=0.01)

    @pytest.mark.parametrize("n", [4, 9])
    @pytest.mark.parametrize("phase", [-np.pi / 2, 0.0, 0.3, 0.9, np.pi - 0.01])
    def test_freeze_window_never_empty(self, n, phase):
        # drive zeros lie half a period apart, so the one-period window
        # around the reference optimum always holds a candidate
        bundle = build_modulated_drive(n, omega_over_chi=2 * np.pi * 2e3, phase=phase, freeze=True)
        period = bundle.schedule.segments[0].env.period
        times = [t for t, _ in bundle.meta["freeze_candidates"]]
        assert times
        center = 3 * reference_optimum(n).chi_t
        assert all(abs(t - center) <= period * (1 + 1e-12) for t in times)
        assert bundle.meta["freeze_time"] in times

    def test_huge_phase_is_a_named_error(self):
        # at phase 1e300 every zero time cancels to rounding: the envelope rejects the phase
        for freeze in (True, False):
            with pytest.raises(DomainError, match=r"phase 1e\+300 lies outside \[-2pi, 2pi\]"):
                build_modulated_drive(24, phase=1e300, freeze=freeze)

    def test_phase_covariance_stroboscopic(self):
        # state_phi(kT) equals Ry((omega0/omega) sin phi) state_0(kT)
        n = 40
        omega_over_chi = 2 * np.pi * 2e3
        base = build_modulated_drive(n, omega_over_chi=omega_over_chi, phase=0.0)
        env = base.schedule.segments[0].env
        k = int(round(0.5 * 3 * reference_optimum(n).chi_t / env.period))
        t_k = k * env.period

        def run(phase):
            b = build_modulated_drive(n, omega_over_chi=omega_over_chi, phase=phase)
            return raw_end(b.initial_state, DrivenSegment(b.schedule.segments[0].env, t_k))

        ref = run(0.0)
        for phase in (-np.pi / 2, 0.8):
            got = run(phase)
            ratio = env.omega0 / env.omega
            from spinsqueeze.dicke import rotate_vector

            want = rotate_vector(
                n / 2, ref, RotationSpec((0, 1, 0), ratio * np.sin(phase))
            )
            assert abs(np.vdot(want, got)) >= 1 - 1e-3


class TestFrozenStateHandoff:
    """The builders run only the freeze tail from the pass's block at the freeze;
    where the drive jumps periods, as here, the state they hand over has the bits
    of a run of the whole prefix."""

    @staticmethod
    def build(protocol, phase, n=60, spp=64):
        if protocol == "pulses":
            return build_repeated_pulse(n, n_periods=10, freeze=True)
        return build_modulated_drive(
            n, omega_over_chi=2 * np.pi * 2e3, phase=phase, freeze=True, steps_per_period=spp
        )

    @staticmethod
    def prefix(bundle):
        """The schedule through the freeze pulses: all of it but the hold."""
        return ProtocolSchedule(bundle.schedule.segments[:-1], ())

    # odd N: half-integer j, where the frame's parity classes swap each half period
    @pytest.mark.parametrize("n", [60, 61])
    @pytest.mark.parametrize(
        "protocol,phase", [("pulses", None), ("drive", -np.pi / 2), ("drive", 0.3)]
    )
    def test_equals_prefix_run_bit_for_bit(self, protocol, phase, n):
        bundle = self.build(protocol, phase, n)
        want, _ = evolve_schedule(bundle.initial_state, self.prefix(bundle))
        got = bundle.frozen_state().amplitudes
        if protocol == "pulses":  # the pass's step to t* and the prefix's delta_t differ in their last bit
            assert np.max(np.abs(got - want.amplitudes)) <= 1e-13
        else:
            assert got.tobytes() == want.amplitudes.tobytes()

    @pytest.mark.parametrize("n", [60, 61])
    @pytest.mark.parametrize("protocol", ["pulses", "drive"])
    def test_frozen_schedule_layout(self, protocol, n):
        bundle = self.build(protocol, -np.pi / 2, n)
        meta, segments = bundle.meta, bundle.schedule.segments
        t_star, t_opt = meta["freeze_time"], meta["t_opt"]
        y_turn = RotationSpec((0.0, 1.0, 0.0), np.pi / 2)
        if protocol == "pulses":
            dt, n_star = meta["delta_t"], meta["freeze_period_index"]
            period = [Pulse(y_turn), QuadraticSegment(2 * dt),
                      Pulse(y_turn.scaled(-1.0)), QuadraticSegment(dt)]
            prefix = period * n_star + [Pulse(y_turn), QuadraticSegment(dt)]
            signs = (meta["freeze_sign"],)
            turns = [((-1.0, 0.0, 0.0), np.pi / 4)]
        else:
            env = segments[0].env
            prefix = [DrivenSegment(env, t_star, 64)]
            signs = meta["freeze_signs"]
            turns = [((0.0, 1.0, 0.0), env.omega0 / env.omega),
                     ((-1.0, 0.0, 0.0), np.pi / 4)]
        pulses = [Pulse(RotationSpec(axis, sign * angle)) for (axis, angle), sign in zip(turns, signs)]
        hold = QuadraticSegment(10 * t_opt)
        assert list(segments) == prefix + [FreezeMarker()] + pulses + [hold]
        times = np.array(bundle.schedule.sample_times)
        assert t_star in times
        assert np.count_nonzero(times > t_star) == 200
        assert times[-1] == pytest.approx(t_star + 10 * t_opt, rel=1e-15)

    @pytest.mark.parametrize("n", [60, 61])
    @pytest.mark.parametrize(
        "protocol,phase", [("pulses", None), ("drive", -np.pi / 2), ("drive", 0.3)]
    )
    def test_record_after_freeze_describes_frozen_state(self, protocol, phase, n):
        bundle = self.build(protocol, phase, n)
        t_star, record = bundle.meta["freeze_time"], bundle.record
        after = record.chi_t > t_star
        hold = ProtocolSchedule(
            (QuadraticSegment(10 * bundle.meta["t_opt"]),), record.chi_t[after] - t_star
        )
        _, want = evolve_schedule(bundle.frozen_state(), hold)
        np.testing.assert_allclose(record.xi2()[after], want.xi2(), rtol=1e-10, atol=0)

    def test_makes_no_jumps(self, monkeypatch):
        bundle = self.build("drive", 0.3)
        calls = []
        jump = _PeriodOperators.jump
        monkeypatch.setattr(
            _PeriodOperators, "jump", lambda ops, x, k, *n: calls.append(k) or jump(ops, x, k, *n)
        )
        bundle.frozen_state()
        assert calls == []
        evolve_schedule(bundle.initial_state, self.prefix(bundle))  # the counter counts
        assert len(calls) > 100

    def test_unfrozen_bundle_has_no_frozen_state(self):
        with pytest.raises(DomainError, match="without a freeze"):
            build_repeated_pulse(60, n_periods=10).frozen_state()


def record_bits(record):
    """Everything a record holds, with its arrays as bytes."""
    arrays = [np.asarray(getattr(record.report, f.name)).tobytes() for f in fields(SqueezingReport)]
    return record.chi_t.tobytes(), arrays, record.events


def row_bits(record, rows):
    """A record's report fields at a mask of its rows, as bytes."""
    return [np.asarray(getattr(record.report, f.name))[..., rows].tobytes() for f in fields(SqueezingReport)]


def frozen_hold(bundle):
    """The frozen state's Jz^2 hold, sampled at the record's times after t* less t*."""
    t_star, times = bundle.meta["freeze_time"], bundle.record.chi_t
    after = times[times > t_star] - t_star
    hold = ProtocolSchedule((QuadraticSegment(10 * bundle.meta["t_opt"]),), after)
    return evolve_schedule(bundle.frozen_state(), hold)[1]


class TestOnePass:
    """A frozen bundle's record is its one noiseless pass up to the freeze and
    the frozen state's Jz^2 hold after it."""

    build = staticmethod(TestFrozenStateHandoff.build)

    # pulses: at nc = 10 the schedule's clock ends the freeze segment past t*, at
    # N = 61, nc = 50 an ulp short of it, so a replay samples t* at that clock; nc = 1
    # freezes in period 0. The drive also runs at odd steps_per_period, where no chain jumps.
    @pytest.mark.parametrize("n", [60, 61])
    @pytest.mark.parametrize(
        "protocol,arg,spp",
        [
            pytest.param(*case, 64, id="-".join(map(str, case)))
            for case in [("pulses", 1), ("pulses", 10), ("pulses", 50), ("drive", -np.pi / 2), ("drive", 0.3)]
        ]
        + [pytest.param("drive", phase, 17, id=f"drive-{phase}-spp17") for phase in (-np.pi / 2, 0.3)],
    )
    @pytest.mark.filterwarnings("ignore:2\\*chi\\*delta_t\\*N:UserWarning")  # nc = 1 fails the Trotter gate
    def test_record_is_the_schedule_run(self, protocol, arg, spp, n):
        if protocol == "pulses":  # arg is the period count, for the drive the phase
            bundle = build_repeated_pulse(n, n_periods=arg, freeze=True)
        else:
            bundle = self.build(protocol, arg, n, spp)
        record, t_star = bundle.record, bundle.meta["freeze_time"]
        want = run_protocol(bundle.schedule, bundle.initial_state)
        before, at = record.chi_t < t_star, record.chi_t == t_star
        assert record.chi_t.tobytes() == want.chi_t.tobytes()
        assert row_bits(record, before) == row_bits(want, before)
        assert np.count_nonzero(at) == 1
        for f in fields(SqueezingReport):  # the mean spin's components near 0 are held to 1e-12 j
            got, ref = (np.asarray(getattr(r.report, f.name), dtype=float)[..., at] for r in (record, want))
            atol = 1e-12 * n / 2 if f.name == "mean_spin" else 0
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=atol)
        assert row_bits(record, record.chi_t > t_star) == row_bits(frozen_hold(bundle), slice(None))
        assert record.events == want.events
        assert [e["kind"] for e in record.events].count("freeze-decision") >= 2

    def test_record_when_only_the_pass_jumps(self):
        # 15.5 periods to t*, 16.5 to the last candidate: only the pass builds period operators
        bundle = build_modulated_drive(60, omega_over_chi=880.0, freeze=True)
        env, last = bundle.schedule.segments[0].env, bundle.meta["freeze_candidates"][-1][0]
        pays = DrivenEngine.jumps_pay
        assert not pays(30.0, env, 64, bundle.meta["freeze_time"]) and pays(30.0, env, 64, last)
        want = run_protocol(bundle.schedule, bundle.initial_state)
        record, t_star = bundle.record, bundle.meta["freeze_time"]
        upto = record.chi_t <= t_star
        np.testing.assert_allclose(record.xi2()[upto], want.xi2()[upto], rtol=1e-10, atol=0)
        assert row_bits(record, record.chi_t > t_star) == row_bits(frozen_hold(bundle), slice(None))

    # at odd steps_per_period no chain builds period operators, so the check runs its own first
    # chain; at omega/chi = 880 only the pass jumps, and the check runs its own there too
    @pytest.mark.parametrize("n", [60, 61])
    @pytest.mark.parametrize(
        "phase,spp",
        [pytest.param(phase, 64, id=str(phase)) for phase in (-np.pi / 2, 0.3)]
        + [pytest.param(phase, 17, id=f"{phase}-spp17") for phase in (-np.pi / 2, 0.3)],
    )
    def test_doubling_check_reuses_the_prefix(self, n, phase, spp, monkeypatch):
        bundle = self.build("drive", phase, n, spp)
        assert bundle.schedule.segments[0].steps_per_period == spp
        self.assert_reuse(bundle, monkeypatch, 1 if spp == 64 else 2)

    def test_doubling_check_when_only_the_pass_jumps(self, monkeypatch):
        self.assert_reuse(build_modulated_drive(60, omega_over_chi=880.0, freeze=True), monkeypatch, 2)

    @staticmethod
    def assert_reuse(bundle, monkeypatch, runs):
        """The check reads the same with and without the pass's block, running runs chains with it."""
        seg = bundle.schedule.segments[0]
        rerun = driven_doubling_check(bundle.initial_state, seg)
        calls, evolve = [], propagator.evolve_block
        monkeypatch.setattr(propagator, "evolve_block", lambda *a, **k: calls.append(a) or evolve(*a, **k))
        reused = driven_doubling_check(bundle.initial_state, seg, bundle.at_freeze)
        assert len(calls) == runs
        assert {k: np.float64(v).tobytes() for k, v in reused.items()} == {
            k: np.float64(v).tobytes() for k, v in rerun.items()
        }

    def test_candidates_come_from_the_record(self):
        bundle = self.build("drive", 0.3, 60)
        times, xi2 = bundle.record.times(), bundle.record.xi2()
        for t, value in bundle.meta["freeze_candidates"]:
            if t <= bundle.meta["freeze_time"]:
                assert value == xi2[times == t][0]


class TestNoiseAndMonteCarlo:
    def test_zero_eta_bitwise_identical(self):
        bundle = build_repeated_pulse(30, n_periods=5)
        a = run_protocol(bundle.schedule, bundle.initial_state)
        b = run_protocol(
            bundle.schedule, bundle.initial_state, NoiseModel(eta=0.0, seed=7)
        )
        assert np.array_equal(a.xi2(), b.xi2())

    def test_noise_changes_run(self):
        bundle = build_repeated_pulse(30, n_periods=5)
        a = run_protocol(bundle.schedule, bundle.initial_state)
        b = run_protocol(
            bundle.schedule, bundle.initial_state, NoiseModel(eta=0.05, seed=7)
        )
        assert not np.allclose(a.xi2(), b.xi2())

    def test_single_realization_mean(self):
        bundle = build_repeated_pulse(30, n_periods=5)
        mc = run_monte_carlo(
            bundle.schedule, bundle.initial_state, NoiseModel(0.001, seed=3), 1
        )
        single = run_protocol(
            bundle.schedule,
            bundle.initial_state,
            NoiseModel(0.001, seed=mc.seeds[0]),
        )
        assert np.array_equal(mc.mean_xi2, single.xi2())

    def test_same_master_seed_identical(self, monkeypatch):
        bundle = build_repeated_pulse(30, n_periods=6)
        noise = NoiseModel(0.001, seed=42)
        a = run_monte_carlo(bundle.schedule, bundle.initial_state, noise, 5)
        monkeypatch.setenv("SPINSQUEEZE_THREADS", "1")
        b = run_monte_carlo(bundle.schedule, bundle.initial_state, noise, 5)
        assert np.array_equal(a.mean_xi2, b.mean_xi2)
        assert a.seeds == b.seeds

    def test_every_pulse_draws_its_own_factor(self):
        bundle = build_repeated_pulse(30, n_periods=6)
        noise = NoiseModel(0.3, seed=5)
        factors = _noise_factors(bundle.schedule, noise)
        assert factors.shape == (len(bundle.schedule.pulses()),)
        assert np.all(np.abs(factors - 1.0) <= 0.15)
        assert len(np.unique(factors)) == len(factors)
        rec = run_protocol(bundle.schedule, bundle.initial_state, noise)
        assert len(rec.times()) == len(bundle.schedule.sample_times)

    def test_zero_eta_runs_once(self, monkeypatch):
        bundle = build_repeated_pulse(30, n_periods=5)
        calls = []
        evolve = protocols.evolve_block
        monkeypatch.setattr(protocols, "evolve_block", lambda *a, **k: calls.append(1) or evolve(*a, **k))
        mc = run_monte_carlo(bundle.schedule, bundle.initial_state, NoiseModel(0.0, seed=3), 40)
        assert len(calls) == 1
        plain = run_protocol(bundle.schedule, bundle.initial_state)
        assert len(mc.records) == 40
        for rec in mc.records:
            assert record_bits(rec) == record_bits(plain)

    def test_realizations_positive(self):
        bundle = build_repeated_pulse(30, n_periods=6)
        with pytest.raises(DomainError):
            run_monte_carlo(bundle.schedule, bundle.initial_state, NoiseModel(0.001), 0)

    @pytest.mark.parametrize("realizations", [2.5, True])
    def test_non_integer_realizations_rejected(self, realizations):
        # 2.5 ended in a bare TypeError, and True ran one realization
        bundle = build_repeated_pulse(20, n_periods=6)
        with pytest.raises(DomainError, match="realizations must be an integer of at least 1"):
            run_monte_carlo(bundle.schedule, bundle.initial_state, NoiseModel(0.001), realizations)


class TestReferenceRuns:
    def test_oat_optimum_small_n(self):
        # N=2: dense 3x3 expm oracle, pointwise and at the minimum
        import scipy.linalg as sla

        from spinsqueeze.dicke import DickeState
        from spinsqueeze.hamiltonians import quadratic_matrix

        rec = reference_runs(2, model="oat", n_samples=400)
        res = find_optimum(rec)
        s = make_css(1, np.pi / 2, 0.0)
        h = quadratic_matrix(1, "z")
        grid = np.linspace(0.01, 3 * t_opt_oat(2), 300)
        brute = []
        for t in grid:
            vec = sla.expm(-1j * t * h) @ s.amplitudes
            brute.append(squeezing_report(DickeState(1, vec)).xi2)
        # same observable through an independent evolution path
        times = rec.times()
        for t, v in zip(grid[::30], brute[::30]):
            k = int(np.argmin(np.abs(times - t)))
            if abs(times[k] - t) < 1e-12:
                assert rec.xi2()[k] == pytest.approx(v, abs=1e-10)
        # the refined minimum can only undercut the brute grid minimum
        assert res.xi2 <= min(brute) + 1e-9

    @pytest.mark.parametrize("model,t_formula", [("oat", t_opt_oat), ("tact", t_opt_tact)])
    def test_argmin_near_formula_n400(self, model, t_formula):
        rec = reference_runs(400, model=model)
        res = find_optimum(rec)
        assert abs(res.chi_t - t_formula(400)) <= 0.15 * t_formula(400)

    def test_record_span(self):
        rec = reference_runs(100, model="oat")
        assert rec.times()[-1] == pytest.approx(3 * t_opt_oat(100))

    def test_invalid_model(self):
        with pytest.raises(DomainError):
            reference_runs(100, model="owt")

    def test_non_integer_sample_count_rejected(self):
        # 20.5 ended in a bare TypeError; 0 stays allowed and gives an empty record
        with pytest.raises(DomainError, match="n_samples must be a nonnegative integer, got 20.5"):
            reference_runs(20, "oat", 20.5)
        assert len(reference_runs(20, "oat", 0).times()) == 0


class TestSpecInvariants:
    def test_drive_terminal_fidelity_improves_with_omega(self):
        # actual drive vs frame-corrected effective evolution at a whole
        # period near the optimum, over the three figure settings
        from spinsqueeze.dicke import rotate_vector
        from spinsqueeze.hamiltonians import alpha0 as a0_of

        n = 100
        phase = -np.pi / 2
        a0 = a0_of(0.9057)
        prop = spectral(n / 2, a0, 1.0 - a0, 0.0)
        fids = []
        for om_fac in (2e3, 2e4, 1e5):
            bundle = build_modulated_drive(n, omega_over_chi=2 * np.pi * om_fac, phase=phase)
            env = bundle.schedule.segments[0].env
            t_k = round(3 * reference_optimum(n).chi_t / env.period) * env.period
            got = raw_end(bundle.initial_state, DrivenSegment(env, t_k))
            eff = prop.evolve(make_css(n / 2, np.pi / 2, 0.0), t_k).amplitudes
            want = rotate_vector(
                n / 2,
                eff,
                RotationSpec((0, 1, 0), (env.omega0 / env.omega) * np.sin(phase)),
            )
            fids.append(abs(np.vdot(want, got)))
        gaps = [1 - f for f in fids]
        # clear improvement up to the roundoff floor (~1e-11 over thousands
        # of periods), where the ordering saturates
        assert gaps[0] > 100 * gaps[1]
        assert gaps[1] < 1e-9 and gaps[2] < 1e-9

    def test_pulse_freeze_state_squeezed_at_pi_over_4(self):
        # mid-Jx^2-section state at maximal squeezing: mean spin along x,
        # squeezed axis at pi/4 to the z-axis in the y-z plane
        n = 100
        bundle = build_repeated_pulse(n, n_periods=20, freeze=True)
        prefix = bundle.schedule.segments[:-3]  # drop marker, pulse and hold
        at_freeze, _ = evolve_schedule(
            bundle.initial_state, ProtocolSchedule(tuple(prefix), ())
        )
        rep = squeezing_report(at_freeze)
        ms = np.array(rep.mean_spin)
        assert abs(ms[0]) / np.linalg.norm(ms) > 0.999
        # frame is (n1, n2) = (y, z), so pi/4 to z means theta_min pi/4 or 3pi/4
        dist = min(abs(rep.theta_min - np.pi / 4), abs(rep.theta_min - 3 * np.pi / 4))
        assert dist < 0.02

    def test_frozen_m_distribution_sharp_around_zero(self):
        from spinsqueeze.diagnostics import m_distribution

        n = 100
        bundle = build_repeated_pulse(n, n_periods=20, freeze=True)
        frozen = bundle.frozen_state()
        record = run_protocol(bundle.schedule, bundle.initial_state)
        rep = record.report_at(bundle.meta["freeze_time"])
        dist = m_distribution(frozen)
        assert abs(dist.mean) <= 1.0
        assert dist.var == pytest.approx(rep.var_min, rel=0.01)

    def test_tact_minimum_heisenberg_constant(self):
        # N * xi2_min for the two-axis reference; measured baseline 1.8
        opt = reference_optimum(400)
        c = 400 * opt.xi2
        assert c <= 10.0
        assert 1.4 < c < 2.6
