"""Command-line surface: scenario configs, figure-data CSV emission, unit
conversion, and self-certifying manifests.

Everything inside the package runs dimensionless (chi = 1, time is chi*t);
a physical coupling given in Hz via --chi-hz only adds a t_seconds column
and a unit report in the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dicke import DickeState
from .diagnostics import find_optimum, husimi_q, scaling_fit
from .errors import DomainError, ResourceError
from .propagator import driven_doubling_check
from .protocols import (
    DRIVE_PHASE,
    MODELS,
    N_PERIODS,
    N_SAMPLES,
    OMEGA_OVER_CHI,
    PAPER_RATIO,
    STEPS_PER_PERIOD,
    NoiseModel,
    build_modulated_drive,
    build_repeated_pulse,
    effective_drive_record,
    reference_runs,
    run_monte_carlo,
    run_protocol,
)

_COMMON_KEYS = ("n", "chi_hz", "seed", "out_dir", "samples")


@dataclass
class ScenarioConfig:
    scenario: str
    n: int = 1250
    chi_hz: float | None = None
    seed: int = 42
    out_dir: str = "."
    samples: int = N_SAMPLES
    nc: int = N_PERIODS
    freeze: bool = False
    eta: float = 0.001
    realizations: int = 100
    omega_over_chi: float = OMEGA_OVER_CHI
    omega0_over_omega: float = PAPER_RATIO
    phase: float = DRIVE_PHASE
    steps_per_period: int = STEPS_PER_PERIOD
    model: str = "oat"
    n_list: str = "100,200,400,800,1600"
    state: str | None = None
    grid: str = "128x256"

    def n_values(self) -> list:
        try:
            values = [int(x) for x in str(self.n_list).split(",") if x.strip()]
        except ValueError:
            raise DomainError(f"field n_list: not a list of integers, got {self.n_list!r}") from None
        if min(values, default=0) < 2 or len(set(values)) < 3:
            raise DomainError(f"field n_list: need 3 distinct N values of at least 2, got {self.n_list!r}")
        if len(set(values)) < len(values):
            raise DomainError(f"field n_list: each N may appear once, got {self.n_list!r}")
        return values

    def grid_shape(self) -> tuple:
        try:
            a, b = str(self.grid).lower().split("x")
            t, p = int(a), int(b)
        except ValueError:
            raise DomainError(f"field grid: want e.g. 128x256, got {self.grid!r}") from None
        if t < 16 or p < 32:
            raise DomainError(f"field grid: must be at least 16x32, got {self.grid}")
        return t, p


DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig) if f.default is not MISSING}
_FLAG_TYPES = {"chi_hz": float, "state": str}  # the keys whose default is None
_CHOICES = {"model": tuple(MODELS)}


def _flag_type(key: str) -> type:
    return _FLAG_TYPES.get(key, type(DEFAULTS[key]))


def _file_value(parser, key: str, val):
    """A config-file value as its flag would parse it: JSON true/false for a
    switch, an integral number for an int, a number for a float, a string
    for a string, and null where the default is None."""
    kind = _flag_type(key)
    if val is None and key in _FLAG_TYPES:
        return None
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    integral = number and (isinstance(val, int) or val.is_integer())
    if not {bool: isinstance(val, bool), str: isinstance(val, str), float: number, int: integral}[kind]:
        parser.error(f"config key {key}: expected {kind.__name__}, got {val!r}")
    if val not in _CHOICES.get(key, (val,)):
        parser.error(f"config key {key}: must be one of {_CHOICES[key]}, got {val!r}")
    return kind(val)


def _build_parser() -> argparse.ArgumentParser:
    """One --flag per config key of each scenario, typed by its default."""
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Collective-spin squeezing scenarios; emits figure-data CSVs.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, (keys, _) in SCENARIOS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")
        for key in keys:
            flag, kind = "--" + key.replace("_", "-"), _flag_type(key)
            if kind is bool:
                p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction, default=None)
            else:
                p.add_argument(flag, dest=key, type=kind, default=None, choices=_CHOICES.get(key))
    return parser


def parse_config(argv) -> ScenarioConfig:
    """Flags override config-file values override defaults; unknown config
    keys are rejected by name."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    scenario = ns.scenario
    allowed = set(SCENARIOS[scenario][0])
    merged = {k: DEFAULTS[k] for k in allowed if k in DEFAULTS}
    if ns.config:
        try:
            file_vals = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"config file {ns.config}: {exc}")
        if not isinstance(file_vals, dict):
            parser.error("config file must hold a flat JSON object")
        for key, val in file_vals.items():
            if key not in allowed:
                parser.error(f"unknown config key for scenario {scenario!r}: {key}")
            merged[key] = _file_value(parser, key, val)
    for key in allowed:
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    cfg = ScenarioConfig(scenario=scenario, **merged)
    _validate(parser, cfg)
    return cfg


# each bounded field's least value, checked whatever the scenario as every default lies within
_LEAST = {"n": 2, "seed": 0, "samples": 16, "nc": 1, "eta": 0, "realizations": 1,
          "omega0_over_omega": 0, "steps_per_period": 16}
_POSITIVE = ("chi_hz", "omega_over_chi")


def _validate(parser, cfg: ScenarioConfig) -> None:
    for key in (k for k in DEFAULTS if _flag_type(k) is float):
        if getattr(cfg, key) is not None and not np.isfinite(getattr(cfg, key)):
            parser.error(f"field {key}: must be finite, got {getattr(cfg, key)}")
    for key, least in _LEAST.items():
        if getattr(cfg, key) < least:
            bound = f"at least {least}" if least else "nonnegative"
            parser.error(f"field {key}: must be {bound}, got {getattr(cfg, key)}")
    for key in _POSITIVE:
        if getattr(cfg, key) is not None and not getattr(cfg, key) > 0:
            parser.error(f"field {key}: must be positive, got {getattr(cfg, key)}")
    if cfg.scenario == "husimi" and not cfg.state:
        parser.error("field state: husimi needs --state <snapshot.json>")
    try:  # the list and grid fields parse only when the scenario reads them
        if cfg.scenario == "sweep":
            cfg.n_values()
        if cfg.scenario == "husimi":
            cfg.grid_shape()
    except DomainError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# writers

RUN_HEADER = "chi_t,xi2,xi2_db,jx,jy,jz,theta_min"


def _fmt_column(values) -> list:
    """The shortest repr of every value of an array-like as a float, each formatted once."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _seconds_per_chi_t(chi_hz: float) -> float:
    return 1.0 / (2 * np.pi * chi_hz)


def _write_csv(path, header: str, rows) -> Path:
    """Header plus one comma-joined line per row of formatted fields, streamed row by row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
    return Path(path)


def _write_run_rows(path, times, xi2, jx, jy, jz, theta, chi_hz) -> Path:
    with np.errstate(divide="ignore"):  # a zero xi^2 is -inf dB
        cols = [times, xi2, 10.0 * np.log10(xi2), jx, jy, jz, theta]
    if chi_hz:
        cols.append(np.asarray(times) * _seconds_per_chi_t(chi_hz))
    header = RUN_HEADER + (",t_seconds" if chi_hz else "")
    return _write_csv(path, header, zip(*map(_fmt_column, cols)))


def write_run_csv(path, record, chi_hz=None) -> None:
    rep = record.report
    return _write_run_rows(path, record.chi_t, rep.xi2, *rep.mean_spin, rep.theta_min, chi_hz)


def write_mean_csv(path, mc_result, chi_hz=None) -> None:
    """Pointwise ensemble means in the run-CSV schema."""
    spins = np.mean([rec.report.mean_spin for rec in mc_result.records], axis=0)
    theta = np.mean([rec.report.theta_min for rec in mc_result.records], axis=0)
    return _write_run_rows(path, mc_result.times, mc_result.mean_xi2, *spins, theta, chi_hz)


def write_realizations_csv(path, mc_result) -> None:
    recs = mc_result.records
    runs = np.repeat(np.arange(len(recs)), [len(rec.chi_t) for rec in recs]).tolist()
    times = np.concatenate([rec.chi_t for rec in recs])
    xi2 = np.concatenate([rec.report.xi2 for rec in recs])
    rows = zip(map(str, runs), _fmt_column(times), _fmt_column(xi2))
    return _write_csv(path, "realization,chi_t,xi2", rows)


def write_husimi_csv(path, thetas, phis, q) -> None:
    # q is formatted one theta row at a time, so no second copy of the grid is held
    phs = _fmt_column(phis)
    rows = ((th, ph, v) for th, qrow in zip(_fmt_column(thetas), q)
            for ph, v in zip(phs, _fmt_column(qrow)))
    return _write_csv(path, "theta,phi,q", rows)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):  # 64 kB at a time, not the whole file
            digest.update(block)
    return digest.hexdigest()


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _write_manifest(out_dir, cfg, extra, written) -> Path:
    manifest = {"config": asdict(cfg)}
    manifest.update(extra)
    manifest["artifacts"] = {
        Path(p).name: _sha256(p) for p in sorted(written, key=lambda p: Path(p).name)
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n"
    )
    return path


def _unit_report(cfg, meta=None) -> dict | None:
    if not cfg.chi_hz:
        return None
    factor = _seconds_per_chi_t(cfg.chi_hz)
    report = {
        "chi_hz": cfg.chi_hz,
        "chi_rad_per_s": 2 * np.pi * cfg.chi_hz,
        "seconds_per_chi_t": factor,
    }
    if meta:
        for key in ("delta_t", "t_c", "t_opt", "freeze_time"):
            if key in meta:
                report[key + "_seconds"] = meta[key] * factor
        if "omega_over_chi" in meta:
            report["omega_hz"] = meta["omega_over_chi"] * cfg.chi_hz
            report["omega0_hz"] = (
                meta["omega_over_chi"] * meta["omega0_over_omega"] * cfg.chi_hz
            )
    return report


# ---------------------------------------------------------------------------
# scenarios

def _emit_limits(out_dir, n, samples, chi_hz, written) -> dict:
    info = {}
    for model in MODELS:
        rec = reference_runs(n, model, n_samples=samples)
        written.append(write_run_csv(Path(out_dir) / f"{model}_limit.csv", rec, chi_hz))
        opt = find_optimum(rec)
        info[model] = {"chi_t_opt": opt.chi_t, "xi2_min": opt.xi2}
    return info


def _scenario_reference(cfg, out_dir, written) -> dict:
    rec = reference_runs(cfg.n, cfg.scenario, n_samples=cfg.samples)
    written.append(write_run_csv(out_dir / f"{cfg.scenario}_run.csv", rec, cfg.chi_hz))
    opt = find_optimum(rec)
    return {
        "optimum": {"chi_t": opt.chi_t, "xi2": opt.xi2},
        "analytic_t_opt": MODELS[cfg.scenario][0](cfg.n),
        "convergence": {"method": "exact diagonalization, no integrator error"},
        "unit_report": _unit_report(cfg),
    }


def _protocol_outputs(cfg, out_dir, written, bundle, record, convergence) -> dict:
    """The part the pulses and drive scenarios share: the run CSV, the limit
    curves, the frozen state when frozen, and the manifest block."""
    written.append(write_run_csv(out_dir / f"{cfg.scenario}_run.csv", record, cfg.chi_hz))
    limits = _emit_limits(out_dir, cfg.n, cfg.samples, cfg.chi_hz, written)
    if cfg.freeze:
        bundle.frozen_state().save(out_dir / "frozen_state.json")
        written.append(out_dir / "frozen_state.json")
    meta = dict(bundle.meta)
    meta.pop("freeze_candidates", None)
    return {
        "protocol": meta,
        "limits": limits,
        "events": record.events,
        "convergence": convergence,
        "unit_report": _unit_report(cfg, bundle.meta),
    }


def _scenario_pulses(cfg, out_dir, written) -> dict:
    bundle = build_repeated_pulse(cfg.n, cfg.nc, cfg.freeze)
    record = bundle.record or run_protocol(bundle.schedule, bundle.initial_state)
    convergence = {"method": "pulses and quadratic phases are exact; no integrator error"}
    return _protocol_outputs(cfg, out_dir, written, bundle, record, convergence)


def _scenario_drive(cfg, out_dir, written) -> dict:
    bundle = build_modulated_drive(
        cfg.n,
        omega_over_chi=cfg.omega_over_chi,
        omega0_over_omega=cfg.omega0_over_omega,
        phase=cfg.phase,
        freeze=cfg.freeze,
        steps_per_period=cfg.steps_per_period,
    )
    record = bundle.record or run_protocol(bundle.schedule, bundle.initial_state)
    seg = bundle.schedule.segments[0]
    eff_times = [t for t in record.times() if t <= seg.duration]
    eff = effective_drive_record(cfg.n, cfg.omega0_over_omega, eff_times)
    written.append(write_run_csv(out_dir / "drive_effective.csv", eff, cfg.chi_hz))
    # under a freeze the check takes the pass's block at t* for its first run when that run jumps
    check = driven_doubling_check(bundle.initial_state, seg, bundle.at_freeze)
    convergence = {"method": "strang split-step, exact envelope integral", "doubling": check}
    return _protocol_outputs(cfg, out_dir, written, bundle, record, convergence)


def _scenario_noise(cfg, out_dir, written) -> dict:
    bundle = build_repeated_pulse(cfg.n, cfg.nc)
    noise = NoiseModel(cfg.eta, seed=cfg.seed)
    mc = run_monte_carlo(bundle.schedule, bundle.initial_state, noise, cfg.realizations)
    written.append(write_mean_csv(out_dir / "noise_mean.csv", mc, cfg.chi_hz))
    written.append(write_realizations_csv(out_dir / "noise_realizations.csv", mc))
    limits = _emit_limits(out_dir, cfg.n, cfg.samples, cfg.chi_hz, written)
    meta = dict(bundle.meta)
    return {
        "protocol": meta,
        "noise": {"eta": cfg.eta, "realizations": cfg.realizations, "master_seed": cfg.seed},
        "limits": limits,
        "convergence": {
            "method": "pulses and quadratic phases are exact; no integrator error"
        },
        "unit_report": _unit_report(cfg, bundle.meta),
    }


def _scenario_sweep(cfg, out_dir, written) -> dict:
    rows = []
    for n in cfg.n_values():
        rec = reference_runs(n, cfg.model, n_samples=cfg.samples)
        opt = find_optimum(rec)
        rows.append((n, opt.chi_t, opt.xi2))
    ns, ts, vs = zip(*rows)
    table = zip(map(str, ns), _fmt_column(ts), _fmt_column(vs))
    written.append(_write_csv(out_dir / f"sweep_{cfg.model}.csv", "N,chi_t_opt,xi2_min", table))
    exponent, prefactor, resid = scaling_fit([(n, v) for n, t, v in rows])
    return {
        "scaling_fit": {"exponent": exponent, "prefactor": prefactor, "rms_residual": resid},
        "convergence": {"method": "exact diagonalization, no integrator error"},
        "unit_report": _unit_report(cfg),
    }


def _scenario_husimi(cfg, out_dir, written) -> dict:
    state = DickeState.load(cfg.state)
    t_count, p_count = cfg.grid_shape()
    thetas, phis, q = husimi_q(state, t_count, p_count)
    written.append(write_husimi_csv(out_dir / "husimi.csv", thetas, phis, q))
    dth, dph = np.pi / t_count, 2 * np.pi / p_count
    total = float((q * np.sin(thetas)[:, None]).sum() * dth * dph * (2 * state.j + 1) / (4 * np.pi))
    return {
        "state": {"N": state.n_particles, "j": state.j},
        "grid": {"theta": t_count, "phi": p_count, "rows": t_count * p_count},
        "normalization_check": total,
        "convergence": {"method": "closed-form overlaps, no integrator error"},
    }


# every scenario, in subcommand order: (its config keys, its runner)
SCENARIOS = {
    **dict.fromkeys(MODELS, (_COMMON_KEYS, _scenario_reference)),
    "pulses": (_COMMON_KEYS + ("nc", "freeze"), _scenario_pulses),
    "drive": (_COMMON_KEYS + ("omega_over_chi", "omega0_over_omega", "phase", "steps_per_period", "freeze"),
              _scenario_drive),
    "noise": (_COMMON_KEYS + ("nc", "eta", "realizations"), _scenario_noise),
    "sweep": (_COMMON_KEYS + ("n_list", "model"), _scenario_sweep),
    "husimi": (("out_dir", "state", "grid"), _scenario_husimi),
}


def run_scenario(cfg: ScenarioConfig) -> int:
    """Execute a scenario and write its artifacts; returns the exit status."""
    try:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        extra = SCENARIOS[cfg.scenario][1](cfg, out_dir, written)
        extra = {k: v for k, v in extra.items() if v is not None}
        _write_manifest(out_dir, cfg, extra, written)
        return 0
    except (OSError, DomainError, ResourceError) as exc:
        print(f"spinsqueeze: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    cfg = parse_config(argv if argv is not None else sys.argv[1:])
    sys.exit(run_scenario(cfg))


if __name__ == "__main__":
    main()
