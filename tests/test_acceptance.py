"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
heavy artifacts (reference curves, one-period drive operators) are shared
across criteria through module fixtures and internal caches.
"""

import time

import numpy as np
import pytest

from spinsqueeze.dicke import (
    DickeState,
    RotationSpec,
    apply_spin,
    fidelity,
    m_values,
    make_css,
    rotate,
    spin_matrix,
)
from spinsqueeze.diagnostics import find_optimum, husimi_q, squeezing_report
from spinsqueeze.hamiltonians import DriveEnvelope, bessel_j0, time_averaged_trig_moments
from spinsqueeze.propagator import (
    driven_doubling_check,
    evolve_schedule,
    full_hilbert_oracle,
    spectral,
)
from spinsqueeze.protocols import (
    NoiseModel,
    build_modulated_drive,
    build_repeated_pulse,
    effective_drive_record,
    effective_pulse_record,
    reference_optimum,
    reference_runs,
    run_monte_carlo,
    run_protocol,
)
from spinsqueeze.schedule import DrivenSegment, ProtocolSchedule, QuadraticSegment

from drive_helpers import raw_end, split_steps_only

N_MAIN = 1250
PAPER_RATIO = 0.9057


def crit(num, started, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {status} ({time.time() - started:5.1f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def oat_ref():
    return reference_runs(N_MAIN, "oat")


@pytest.fixture(scope="module")
def tact_ref():
    return reference_runs(N_MAIN, "tact")


@pytest.fixture(scope="module")
def tact_min(tact_ref):
    return find_optimum(tact_ref).xi2


def test_criterion_01_css_baseline():
    t0 = time.time()
    worst = 0.0
    for j in (0.5, 1, 50, 625):
        rep = squeezing_report(make_css(j, np.pi / 2, 0.4))
        worst = max(worst, abs(rep.xi2 - 1.0))
    crit(1, t0, worst <= 1e-9, f"xi2(CSS) = 1 within {worst:.2e} for j in {{1/2, 1, 50, 625}}")


@pytest.mark.slow
def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    worst = 1.0
    details = []
    for n in (2, 4, 6):
        j = n / 2
        css = make_css(j, np.pi / 2, 0.0)
        # one-axis twisting
        got, _ = evolve_schedule(css, ProtocolSchedule((QuadraticSegment(0.3),), ()))
        want, _ = full_hilbert_oracle(css, (1.0, 0.0, 0.0), 0.3)
        f_oat = fidelity(got, want)
        # two-axis
        tact = (1.0, 0.0, -1.0)
        f_tact = fidelity(spectral(j, *tact).evolve(css, 0.1), full_hilbert_oracle(css, tact, 0.1)[0])
        # pulse schedule
        bundle = build_repeated_pulse(n, n_periods=4)
        got_p, _ = evolve_schedule(bundle.initial_state, bundle.schedule)
        want_p, _ = full_hilbert_oracle(bundle.initial_state, bundle.schedule)
        f_pulse = fidelity(got_p, want_p)
        # driven
        omega = 2 * np.pi * 2000.0
        env = DriveEnvelope(PAPER_RATIO * omega, omega, -np.pi / 2)
        s0 = rotate(css, RotationSpec((0, 1, 0), -PAPER_RATIO))
        seg = DrivenSegment(env, 0.2)
        with split_steps_only():
            got_d = DickeState(j, raw_end(s0, seg))
        want_d, _ = full_hilbert_oracle(s0, ProtocolSchedule((seg,), ()))
        f_drive = fidelity(got_d, want_d)
        worst = min(worst, f_oat, f_tact, f_pulse, f_drive)
        details.append(f"N={n}: {min(f_oat, f_tact, f_pulse, f_drive):.9f}")
    crit(2, t0, worst >= 1 - 1e-6, "min fidelity vs 2^N oracle " + "; ".join(details))


def test_criterion_03_optimal_times(oat_ref, tact_ref):
    t0 = time.time()
    oat_opt = find_optimum(oat_ref)
    tact_opt = find_optimum(tact_ref)
    t_oat = 6 ** (1 / 6) * N_MAIN ** (-2 / 3)
    t_tact = np.log(4 * N_MAIN) / (2 * N_MAIN)
    ok_oat = abs(oat_opt.chi_t - t_oat) <= 0.15 * t_oat
    ok_tact = abs(tact_opt.chi_t - t_tact) <= 0.15 * t_tact
    crit(
        3,
        t0,
        ok_oat and ok_tact,
        f"OAT argmin {oat_opt.chi_t:.4e} vs {t_oat:.4e} "
        f"({oat_opt.chi_t / t_oat:.3f}x); TACT {tact_opt.chi_t:.4e} vs {t_tact:.4e} "
        f"({tact_opt.chi_t / t_tact:.3f}x); both within 15%",
    )


def test_criterion_04_scaling_laws():
    from spinsqueeze.diagnostics import scaling_fit

    t0 = time.time()
    ns = (100, 200, 400, 800, 1600)
    fits = {}
    for model in ("oat", "tact"):
        pts = []
        for n in ns:
            rec = reference_runs(n, model)
            pts.append((n, find_optimum(rec).xi2))
        fits[model] = scaling_fit(pts)[0]
    ok = abs(fits["oat"] + 2 / 3) <= 0.07 and abs(fits["tact"] + 1.0) <= 0.07
    crit(
        4,
        t0,
        ok,
        f"min-xi2 exponents: OAT {fits['oat']:.4f} (want -2/3 +- 0.07), "
        f"TACT {fits['tact']:.4f} (want -1 +- 0.07)",
    )


def test_criterion_05_repeated_pulse(tact_min):
    t0 = time.time()
    bundle = build_repeated_pulse(N_MAIN, n_periods=50)
    record = run_protocol(bundle.schedule, bundle.initial_state)
    t_opt = bundle.meta["t_opt"]
    times, xi2 = record.times(), record.xi2()
    near = (times >= 0.8 * t_opt) & (times <= 1.2 * t_opt)
    best = xi2[near].min()
    ok_touch = best <= 1.5 * tact_min

    fz = build_repeated_pulse(N_MAIN, n_periods=50, freeze=True)
    frec = run_protocol(fz.schedule, fz.initial_state)
    t_star = fz.meta["freeze_time"]
    ftimes, fxi2 = frec.times(), frec.xi2()
    at_freeze = fxi2[np.argmin(np.abs(ftimes - t_star))]
    post = (ftimes > t_star) & (ftimes <= t_star + 10 * t_opt)
    drift = np.max(np.abs(fxi2[post] - at_freeze)) / at_freeze
    ok_freeze = drift <= 0.10
    crit(
        5,
        t0,
        ok_touch and ok_freeze,
        f"best sampled xi2 near t_opt = {best:.4e} = {best / tact_min:.3f}x TACT min "
        f"(<= 1.5x); frozen xi2 {at_freeze:.4e}, drift over 10*t_opt = {drift:.3%} (<= 10%)",
    )


def test_criterion_06_noise_robustness(oat_ref, tact_min):
    t0 = time.time()
    bundle = build_repeated_pulse(N_MAIN, n_periods=50)
    noise = NoiseModel(0.001, seed=42)
    mc = run_monte_carlo(bundle.schedule, bundle.initial_state, noise, 100)
    t_opt = bundle.meta["t_opt"]
    times, mean = mc.times, mc.mean_xi2
    oat_min = find_optimum(oat_ref).xi2
    below = (times >= 0.65 * t_opt) & (times <= t_opt)
    ok_below = bool(np.all(mean[below] < oat_min))
    # the tracking claim covers the broad domain before the optimum is
    # reached; close to it the anti-squeezed quadrature amplifies the noise
    track = effective_pulse_record(N_MAIN, 1.0, tuple(times)).xi2()
    band = (times >= 0.1 * t_opt) & (times <= 0.8 * t_opt)
    worst_ratio = np.max(np.abs(mean[band] / track[band] - 1.0))
    ok_track = worst_ratio <= 0.25
    rerun = run_protocol(bundle.schedule, bundle.initial_state, NoiseModel(0.001, seed=mc.seeds[0]))
    ok_det = np.array_equal(rerun.xi2(), mc.records[0].xi2())
    crit(
        6,
        t0,
        ok_below and ok_track and ok_det,
        f"mean xi2 below OAT limit over [0.65,1]*t_opt: {ok_below}; "
        f"tracks effective TACT within {worst_ratio:.3%} (<= 25%) over [0.1,0.8]*t_opt; "
        f"deterministic replay: {ok_det}; ensemble min {mean.min() / tact_min:.3f}x TACT min",
    )


@pytest.mark.slow
def test_criterion_07_drive_convergence(tact_min):
    t0 = time.time()
    center = 3 * reference_optimum(N_MAIN).chi_t
    devs = {}
    for om_fac in (2e3, 2e4, 1e5):
        bundle = build_modulated_drive(N_MAIN, omega_over_chi=2 * np.pi * om_fac)
        rec = run_protocol(bundle.schedule, bundle.initial_state)
        times = rec.times()
        mask = (times >= 0.9 * center) & (times <= 1.05 * center)
        eff = effective_drive_record(N_MAIN, PAPER_RATIO, times[mask])
        devs[om_fac] = float(np.max(np.abs(rec.xi2()[mask] - eff.xi2())))
    ok_amp = devs[1e5] <= 0.5 * tact_min
    ok_mono = devs[2e3] > devs[2e4] > devs[1e5]
    seg_env = DriveEnvelope(PAPER_RATIO * 2 * np.pi * 1e5, 2 * np.pi * 1e5, -np.pi / 2)
    bundle5 = build_modulated_drive(N_MAIN, omega_over_chi=2 * np.pi * 1e5)
    seg = bundle5.schedule.segments[0]
    dbl = driven_doubling_check(bundle5.initial_state, DrivenSegment(seg_env, seg.duration, 64))
    ok_dbl = dbl["terminal_fidelity_gap"] < 1e-8
    crit(
        7,
        t0,
        ok_amp and ok_mono and ok_dbl,
        f"osc amplitude vs TACT min: {devs[1e5] / tact_min:.3f}x at 2pi*1e5 (<= 0.5), "
        f"{devs[2e4] / tact_min:.1f}x at 2pi*2e4, {devs[2e3] / tact_min:.1f}x at 2pi*2e3 "
        f"(monotone: {ok_mono}); doubling gap {dbl['terminal_fidelity_gap']:.2e} (< 1e-8)",
    )


def test_criterion_08_drive_freeze(tact_min):
    t0 = time.time()
    bundle = build_modulated_drive(
        N_MAIN, omega_over_chi=2 * np.pi * 2e4, freeze=True
    )
    record = run_protocol(bundle.schedule, bundle.initial_state)
    t_star = bundle.meta["freeze_time"]
    times, xi2 = record.times(), record.xi2()
    post = times >= t_star - 1e-15
    rel = np.abs(xi2[post] - tact_min) / tact_min
    ok_window = bool(np.all(rel <= 0.10))
    frozen = bundle.frozen_state()
    vz = apply_spin(frozen.j, (0.0, 0.0, 1.0), frozen.amplitudes)
    jz_mean = float(np.vdot(frozen.amplitudes, vz).real)
    var_z = float(np.vdot(vz, vz).real) - jz_mean**2
    var_min_frozen = record.report_at(t_star).var_min
    ok_jz = abs(jz_mean) <= 1.0
    ok_var = abs(var_z - var_min_frozen) <= 0.01 * var_min_frozen
    crit(
        8,
        t0,
        ok_window and ok_jz and ok_var,
        f"post-freeze xi2 within {np.max(rel):.3%} of TACT min over 10*t_opt (<= 10%); "
        f"<Jz> = {jz_mean:.2e} (<= 1); Var(Jz) = {var_z:.4e} vs frozen var_min "
        f"{var_min_frozen:.4e} ({abs(var_z - var_min_frozen) / var_min_frozen:.3%} <= 1%)",
    )


def test_criterion_09_phase_covariance():
    t0 = time.time()
    n = 100
    omega = 2 * np.pi * 2e4
    worst = 1.0
    base = build_modulated_drive(n, omega_over_chi=omega, phase=0.0)
    env0 = base.schedule.segments[0].env
    # compare at whole-period instants; for phase = -pi/2 these are the
    # drive-off moments of the shifted run
    k = int(round(0.5 * 3 * reference_optimum(n).chi_t / env0.period))
    t_k = k * env0.period
    ref = raw_end(base.initial_state, DrivenSegment(env0, t_k))
    from spinsqueeze.dicke import rotate_vector

    for phase in (-np.pi / 2, 0.8, 2.1):
        b = build_modulated_drive(n, omega_over_chi=omega, phase=phase)
        env = b.schedule.segments[0].env
        got = raw_end(b.initial_state, DrivenSegment(env, t_k))
        want = rotate_vector(
            n / 2, ref, RotationSpec((0, 1, 0), (env.omega0 / env.omega) * np.sin(phase))
        )
        worst = min(worst, abs(np.vdot(want, got)))
    crit(
        9,
        t0,
        worst >= 1 - 1e-3,
        f"drive at shifted phase equals y-rotated reference run at drive-off "
        f"instants, min fidelity {worst:.6f} (>= 1 - 1e-3)",
    )


def test_criterion_10_appendix_moments():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        ratio = rng.uniform(0.0, 3.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        omega = rng.uniform(0.5, 50.0)
        c2, s2, sc = time_averaged_trig_moments(ratio * omega, omega, phase)
        b = bessel_j0(2 * ratio)
        worst = max(worst, abs(c2 - (1 + b) / 2), abs(s2 - (1 - b) / 2), abs(sc))
    crit(10, t0, worst <= 1e-8, f"trig moments match Bessel averages within {worst:.2e}")


def test_criterion_11_property_suite(tmp_path):
    t0 = time.time()
    checks = {}
    # norm conservation across a long mixed run
    bundle = build_repeated_pulse(100, n_periods=30)
    final, record = evolve_schedule(bundle.initial_state, bundle.schedule)
    renorms = sum(e.get("count", 0) for e in record.events if e["kind"] == "renormalization")
    checks["norm"] = final.norm_error() < 1e-10 and renorms == 0
    # commutator identities
    ok_comm = True
    for j in (0.5, 2, 5):
        jx, jy, jz = (spin_matrix(j, unit) for unit in np.eye(3))
        ok_comm &= np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12
    checks["commutators"] = ok_comm
    # rotation covariance of xi^2
    rng = np.random.default_rng(3)
    css = make_css(50, np.pi / 2, 0.0)
    state = DickeState(css.j, np.exp(-0.02j * m_values(css.j) ** 2) * css.amplitudes)
    base = squeezing_report(state).xi2
    ok_rot = True
    for _ in range(5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rep = squeezing_report(rotate(state, RotationSpec(tuple(axis), rng.uniform(0, 6))))
        ok_rot &= abs(rep.xi2 - base) < 1e-9
    checks["xi2-rotation-covariance"] = ok_rot
    # Husimi normalization
    thetas, phis, q = husimi_q(state, 128, 256)
    total = float(
        (q * np.sin(thetas)[:, None]).sum()
        * (np.pi / 128) * (2 * np.pi / 256) * (2 * state.j + 1) / (4 * np.pi)
    )
    checks["husimi-normalization"] = abs(total - 1.0) <= 1e-3
    # CSV determinism through the CLI
    from spinsqueeze.cli import parse_config, run_scenario

    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        cfg = parse_config(
            ["noise", "--n", "40", "--nc", "8", "--realizations", "5",
             "--out-dir", str(d), "--samples", "64", "--seed", "42"]
        )
        assert run_scenario(cfg) == 0
        outs.append((d / "noise_mean.csv").read_bytes())
    checks["csv-determinism"] = outs[0] == outs[1]
    ok = all(checks.values())
    crit(11, t0, ok, "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))
