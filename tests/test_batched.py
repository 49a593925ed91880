"""The batched evolution kernel: per-column correctness against the
one-state primitives and the 2^N oracle, and bit-for-bit determinism
across tile positions, realization counts and thread counts."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from spinsqueeze.cli import parse_config, run_scenario
from spinsqueeze.dicke import (
    DickeState,
    RotationSpec,
    fidelity,
    m_values,
    make_css,
    rotate_vector,
)
from spinsqueeze.diagnostics import SqueezingReport, squeezing_columns, squeezing_report
from spinsqueeze.errors import DomainError
from spinsqueeze.hamiltonians import DriveEnvelope
from spinsqueeze.propagator import (
    TILE,
    evolve_block,
    full_hilbert_oracle,
    spectral,
)
from spinsqueeze.protocols import (
    NoiseModel,
    _noise_factors,
    _best_signs,
    build_repeated_pulse,
    drive_zero_times,
    reference_runs,
    run_monte_carlo,
    run_protocol,
    worker_count,
)
from spinsqueeze.schedule import (
    DrivenSegment,
    FreezeMarker,
    ProtocolSchedule,
    Pulse,
    QuadraticSegment,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def jz2_phase(state, chi_t):
    """exp(-i chi t Jz^2) |state>, one phase per m."""
    return DickeState(state.j, np.exp(-1j * chi_t * m_values(state.j) ** 2) * state.amplitudes)


def cut_at(schedule, s):
    """The segments of a schedule up to time s, the one running at s cut
    short there; pulses and markers at s come after a sample at s. A driven
    segment is also split where the half period holding s starts and at that
    half period's earlier samples, the stops of the branch a sample at s reads."""
    segments, t, tol = [], 0.0, 1e-9 * max(1.0, s)
    for seg in schedule.segments:
        if t >= s - tol:
            break
        if isinstance(seg, (Pulse, FreezeMarker)):
            segments.append(seg)
        elif isinstance(seg, QuadraticSegment):
            segments.append(seg if t + seg.duration <= s else QuadraticSegment(s - t))
            t += seg.duration
        else:
            end, half = min(t + seg.duration, s), seg.env.period / 2
            start = float(np.floor(s / half + 1e-9) * half)
            stops = [u for u in schedule.sample_times if max(t, start) < u < end] + [end]
            stops = ([start] if t < start < end else []) + stops
            for a, b in zip([t, *stops], stops):
                segments.append(DrivenSegment(seg.env, b - a, seg.steps_per_period))
            t += seg.duration
    return ProtocolSchedule(tuple(segments), ())


def one_column_reports(j, x, schedule):
    """The reports of a one-column run without the kernel's report queue:
    the state at each sample time from a run of the schedule cut there,
    through its own one-column squeezing_columns call."""
    return [
        squeezing_columns(j, evolve_block(j, x, cut_at(schedule, s))[0]).column(0)
        for s in schedule.sample_times
    ]


def sample_reports(record):
    """One SqueezingReport per sample of a record."""
    return [record.report.column(k) for k in range(len(record.times()))]


def same_record(a, b):
    """Exact equality of the sample times and of every report field."""
    return np.array_equal(a.times(), b.times()) and all(
        np.array_equal(getattr(a.report, f.name), getattr(b.report, f.name)) for f in fields(SqueezingReport)
    )


def assert_reports_close(got, want, rel=1e-10):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.xi2 == pytest.approx(b.xi2, rel=rel)
        assert np.linalg.norm(np.subtract(a.mean_spin, b.mean_spin)) <= rel * np.linalg.norm(b.mean_spin)


@pytest.fixture(scope="module")
def pulse_bundle():
    return build_repeated_pulse(30, n_periods=6)


class TestTileDeterminism:
    def test_records_independent_of_realization_count(self, pulse_bundle, monkeypatch):
        monkeypatch.setenv("SPINSQUEEZE_THREADS", "1")
        noise = NoiseModel(0.02, seed=11)
        runs = {
            r: run_monte_carlo(pulse_bundle.schedule, pulse_bundle.initial_state, noise, r)
            for r in (1, TILE - 1, TILE, TILE + 1)
        }
        longest = runs[TILE + 1]
        for r, mc in runs.items():
            assert len(mc.records) == r
            assert mc.seeds == longest.seeds[:r]
            for i, rec in enumerate(mc.records):
                assert same_record(rec, longest.records[i])

    def test_replay_of_last_realization(self, pulse_bundle):
        mc = run_monte_carlo(
            pulse_bundle.schedule, pulse_bundle.initial_state, NoiseModel(0.02, seed=5), TILE + 3
        )
        for i in (0, TILE - 1, TILE + 2):
            replay = run_protocol(
                pulse_bundle.schedule, pulse_bundle.initial_state, NoiseModel(0.02, seed=mc.seeds[i])
            )
            assert np.array_equal(replay.xi2(), mc.records[i].xi2())

    def test_thread_count_does_not_change_records(self, pulse_bundle, monkeypatch):
        noise = NoiseModel(0.02, seed=3)
        monkeypatch.setenv("SPINSQUEEZE_THREADS", "1")
        one = run_monte_carlo(pulse_bundle.schedule, pulse_bundle.initial_state, noise, 2 * TILE + 1)
        monkeypatch.setenv("SPINSQUEEZE_THREADS", "2")
        two = run_monte_carlo(pulse_bundle.schedule, pulse_bundle.initial_state, noise, 2 * TILE + 1)
        assert all(same_record(a, b) for a, b in zip(one.records, two.records))

    def test_cli_bytes_across_blas_and_pool_threads(self, tmp_path):
        digests = set()
        for blas, pool in product(("1", "2"), ("1", "2")):
            out = tmp_path / f"b{blas}p{pool}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, SPINSQUEEZE_THREADS=pool)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "spinsqueeze.cli", "noise", "--n", "40", "--nc", "8",
                 "--realizations", str(TILE + 2), "--samples", "32", "--out-dir", str(out)],
                env=env, check=True, timeout=120,
            )
            artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
            assert set(artifacts) == {p.name for p in out.iterdir()} - {"manifest.json"}
            digests.add(tuple(sorted((p.name, p.read_bytes()) for p in out.glob("*.csv"))))
        assert len(digests) == 1


class TestKernelCorrectness:
    def test_monte_carlo_columns_match_single_state_loop(self, pulse_bundle):
        schedule, initial = pulse_bundle.schedule, pulse_bundle.initial_state
        noises = [NoiseModel(0.05, seed=s) for s in (1, 2, 3)]
        # the block of a Monte Carlo tile: TILE columns, padded by repeating the last run
        scales = np.stack([_noise_factors(schedule, noise) for noise in noises], axis=1)
        block, _ = evolve_block(initial.j, np.repeat(initial.amplitudes[:, None], TILE, axis=1), schedule,
                                scales[:, np.minimum(np.arange(TILE), len(noises) - 1)])
        for r, noise in enumerate(noises):
            factors = iter(_noise_factors(schedule, noise))
            state = initial
            for seg in schedule.segments:
                if isinstance(seg, Pulse):
                    rot = seg.rotation.scaled(next(factors))
                    state = DickeState(state.j, rotate_vector(state.j, state.amplitudes, rot))
                else:
                    state = jz2_phase(state, seg.duration)
            assert fidelity(DickeState(initial.j, block[:, r]), state) >= 1 - 1e-10

    def test_two_columns_against_full_oracle(self):
        n = 5
        rotations = [
            RotationSpec((0, 1, 0), np.pi / 2),
            RotationSpec((1, 0, 0), -0.7),
            RotationSpec((0.6, 0, 0.8), 1.1),
        ]
        segments = []
        for rot in rotations:
            segments += [Pulse(rot), QuadraticSegment(0.13)]
        schedule = ProtocolSchedule(tuple(segments), ())
        scales = np.array([[1.0, 1.3], [0.8, 1.0], [1.2, 0.5]])
        initial = make_css(n / 2, 0.4, 0.2)
        block, _ = evolve_block(initial.j, np.repeat(initial.amplitudes[:, None], 2, axis=1),
                                schedule, scales)
        for r in range(2):
            realized = []
            k = 0
            for seg in segments:
                if isinstance(seg, Pulse):
                    seg = Pulse(seg.rotation.scaled(scales[k, r]))
                    k += 1
                realized.append(seg)
            want, _ = full_hilbert_oracle(initial, ProtocolSchedule(tuple(realized), ()))
            assert fidelity(DickeState(initial.j, block[:, r]), want) >= 1 - 1e-10

    def test_driven_block_matches_single_runs(self):
        omega = 2 * np.pi * 300.0
        env = DriveEnvelope(0.9057 * omega, omega, -np.pi / 2)
        schedule = ProtocolSchedule((DrivenSegment(env, 40.5 * env.period),), ())
        states = [make_css(6, 1.0, 0.0), make_css(6, 0.3, 1.2)]
        block, _ = evolve_block(6, np.stack([s.amplitudes for s in states], axis=1), schedule)
        for r, s in enumerate(states):
            single, _ = evolve_block(6, s.amplitudes[:, None], schedule)
            assert abs(np.vdot(single[:, 0], block[:, r])) >= 1 - 1e-10

    @pytest.mark.parametrize("model", ["oat", "tact"])
    def test_reference_curve_matches_single_evolves(self, model):
        n = 60
        rec = reference_runs(n, model=model, n_samples=2 * TILE + 5)
        initial = make_css(n / 2, np.pi / 2, 0.0)
        for t, rep in zip(rec.times(), sample_reports(rec)):
            if model == "oat":
                state = jz2_phase(initial, t)
            else:
                state = spectral(n / 2, 1.0, 0.0, -1.0).evolve(initial, t)
            assert rep.xi2 == pytest.approx(squeezing_report(state).xi2, rel=1e-12)

    def test_sign_search_matches_loop(self):
        state = jz2_phase(make_css(20, np.pi / 2, 0.0), 0.05)
        rotations = [RotationSpec((0, 1, 0), 0.3), RotationSpec((-1, 0, 0), np.pi / 4)]
        signs, var = _best_signs(state, rotations)
        best = None
        for combo in product((1.0, -1.0), repeat=2):
            vec = state.amplitudes
            for sg, rot in zip(combo, rotations):
                vec = rotate_vector(state.j, vec, rot.scaled(sg))
            m = np.arange(20, -21, -1.0)
            p = np.abs(vec) ** 2
            v = p @ m**2 - (p @ m) ** 2
            if best is None or v < best[1]:
                best = (combo, v)
        assert signs == best[0]
        assert var == pytest.approx(best[1], rel=1e-9)

    def test_zero_eta_monte_carlo_is_the_noiseless_run(self, pulse_bundle):
        schedule, initial = pulse_bundle.schedule, pulse_bundle.initial_state
        mc = run_monte_carlo(schedule, initial, NoiseModel(0.0, seed=1), 3)
        plain = run_protocol(schedule, initial)
        assert all(np.array_equal(rec.xi2(), plain.xi2()) for rec in mc.records)


class TestReportTiles:
    def test_report_independent_of_tile_mates(self):
        # at phase -pi/2 every drive zero is a half-period boundary, so the
        # chain of jumps is the same whichever zeros are sampled
        n = 40
        omega = 2 * np.pi * 300.0
        env = DriveEnvelope(0.9057 * omega, omega, -np.pi / 2)
        zeros = drive_zero_times(env, 40 * env.period)
        segment = DrivenSegment(env, float(zeros[-1]))
        initial = make_css(n / 2, np.pi / 2, 0.0).amplitudes[:, None]
        target = 40
        reports, finals = [], []
        for count in (1, TILE - 1, TILE, TILE + 1):
            for before in {0, count // 2, count - 1}:  # the target first, mid and last
                times = zeros[target - before : target - before + count]
                schedule = ProtocolSchedule((segment,), tuple(times.tolist()))
                final, (record,) = evolve_block(n / 2, initial, schedule, None, 1)
                assert len(record.times()) == count
                reports.append((record.times()[before], record.report.column(before)))
                finals.append(final)
        assert all(r == reports[0] for r in reports)
        assert all(np.array_equal(f, finals[0]) for f in finals)
        assert reports[0][0] == zeros[target] and reports[0][1].xi2 < 0.5

    def test_pulse_records_match_one_column_loop(self):
        bundle = build_repeated_pulse(30, n_periods=8, freeze=True)
        record = run_protocol(bundle.schedule, bundle.initial_state)
        x = bundle.initial_state.amplitudes[:, None]
        assert len(record.times()) > TILE
        assert_reports_close(sample_reports(record), one_column_reports(15, x, bundle.schedule))

    def test_drive_records_match_one_column_loop(self):
        omega = 2 * np.pi * 300.0
        env = DriveEnvelope(0.9057 * omega, omega, 0.3)
        end = 20 * env.period
        rng = np.random.default_rng(4)
        times = np.sort(np.concatenate([drive_zero_times(env, end)[::3], rng.uniform(0, end, 9)]))
        schedule = ProtocolSchedule((DrivenSegment(env, end),), tuple(times.tolist()))
        x = make_css(6, np.pi / 2, 0.0).amplitudes[:, None]
        _, (record,) = evolve_block(6, x, schedule, None, 1)
        assert len(record.times()) > TILE
        assert_reports_close(sample_reports(record), one_column_reports(6, x, schedule))

    def test_renormalization_after_a_sample_leaves_its_report(self):
        # the first sample sits on a segment end whose renormalization
        # divides the block in place; its report must keep the drifted norm
        j = 10
        segments = (QuadraticSegment(0.3), Pulse(RotationSpec((1, 0, 0), 0.4)),
                    QuadraticSegment(0.2))
        x = make_css(j, np.pi / 2, 0.0).amplitudes[:, None] * (1 + 1e-8)
        schedule = ProtocolSchedule(segments, (0.3, 0.5))
        final, (record,) = evolve_block(j, x, schedule, None, 1)
        assert record.events == [{"kind": "renormalization", "count": 1}]
        at_first = np.exp(-0.3j * m_values(j)[:, None] ** 2) * x
        want = [squeezing_columns(j, y).column(0) for y in (at_first, final)]
        assert_reports_close(sample_reports(record), want)


class TestThreadSetting:
    def test_bad_value_is_named(self, monkeypatch):
        monkeypatch.setenv("SPINSQUEEZE_THREADS", "abc")
        with pytest.raises(DomainError, match="SPINSQUEEZE_THREADS.*'abc'"):
            worker_count()

    def test_noise_cli_exits_with_one_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("SPINSQUEEZE_THREADS", "abc")
        cfg = parse_config(["noise", "--n", "20", "--nc", "10", "--realizations", "2",
                            "--samples", "16", "--out-dir", str(tmp_path)])
        assert run_scenario(cfg) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("spinsqueeze:") and "SPINSQUEEZE_THREADS" in err[0]
