"""Benchmark runner for the spinsqueeze CLI.

    python3 perfbench/run.py --workload noise_mc --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each operation is one fresh child process (perfbench/child.py) that imports
the CLI from ./src, parses the workload's configs and runs them, so every
operation pays the spectral and basis builds a CLI user pays. Children run
one at a time, closed loop, until the run length is spent. The runner is a
single-threaded, stdlib-only process (no numpy, so no BLAS threads of its
own). It runs every child on one thread (PINNED_THREADS) and records that.

Each child also times a fixed calibration kernel after its operation. The
time metrics are scaled by CAL_REF_S over the mean calibration time around
the operation, so a host whose shared cores slow down for minutes moves
them far less than it moves raw seconds; raw seconds are printed too.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the run alternates untraced and traced children and carries the
per-layer metrics. See perfbench/README.md for metric and workload meanings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = Path(".perfbench_work")
SRC = Path("src")

RUN_DEADLINE_S = 170.0  # a run must exit within 180 s, children included
# Children run on one thread: BLAS and Monte Carlo pool threads on a few
# shared cores measure the host's scheduler more than the program. The
# program's outputs do not depend on these settings.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SPINSQUEEZE_THREADS": "1",
}

# About the median time of the calibration kernel (child._calibrate) on a
# shared 2-vCPU Intel Xeon at 2.1 GHz with OpenBLAS 0.3.31 on one thread.
# A fixed constant: scaled times read as seconds on a host at that speed.
CAL_REF_S = 0.45
SCALED = ("wall_s", "cpu_s", "setup_s")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "dicke.rotate_vector.calls": "count",
    "dicke.rotate_vector.self_s": "s",
    "dicke.axis_eigensystem.builds": "count",
    "dicke.axis_eigensystem.build_s": "s",
    "hamiltonians.quadratic_matrix.builds": "count",
    "hamiltonians.quadratic_matrix.build_s": "s",
    "propagator.spectral.builds": "count",
    "propagator.spectral.build_s": "s",
    "propagator.spectral.evolve_calls": "count",
    "propagator.spectral.evolve_s": "s",
    "propagator.period_ops.builds": "count",
    "propagator.period_ops.hits": "count",
    "propagator.period_ops.build_s": "s",
    "propagator.jump.calls": "count",
    "propagator.jump.self_s": "s",
    "propagator.advance.self_s": "s",
    "propagator.doubling_check.s": "s",
    "propagator.evolve_schedule.calls": "count",
    "propagator.evolve_schedule.self_s": "s",
    "protocols.reference_runs.self_s": "s",
    "protocols.build.self_s": "s",
    "protocols.run_monte_carlo.s": "s",
    "protocols.mc.parallel_eff": "ratio",
    "diagnostics.squeezing_report.calls": "count",
    "diagnostics.squeezing_report.self_s": "s",
    "diagnostics.husimi_q.s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


# ---------------------------------------------------------------------------
# workloads
#
# Each workload maps (size, seed) to concrete inputs, the inputs to CLI
# argument lists, and the inputs plus the artifacts to a list of failed
# checks. `size` is the full benchmark size; `tiny` is the self-test size.

def _jitter(rng: random.Random, n: int) -> int:
    """The seed moves N by -2, 0 or +2: a problem the reference covers but
    one a change may not have been tuned on."""
    return n + 2 * rng.choice((-1, 0, 1))


def _noise_inputs(size, seed):
    return dict(size, seed=seed)


def _noise_argvs(inp, out):
    return [[
        "noise", "--n", str(inp["n"]), "--nc", str(inp["nc"]), "--eta", repr(inp["eta"]),
        "--realizations", str(inp["realizations"]), "--samples", str(inp["samples"]),
        "--seed", str(inp["seed"]), "--out-dir", str(out / "noise"),
    ]]


def _sweep_inputs(size, seed):
    rng = random.Random(seed)
    return dict(size, n_list=[_jitter(rng, n) for n in size["n_list"]], seed=seed)


def _sweep_argvs(inp, out):
    return [[
        "sweep", "--model", "tact", "--n-list", ",".join(map(str, inp["n_list"])),
        "--samples", str(inp["samples"]), "--seed", str(inp["seed"]),
        "--out-dir", str(out / "sweep"),
    ]]


def _drive_inputs(size, seed):
    return dict(size, n=_jitter(random.Random(seed), size["n"]), seed=seed)


def _drive_argvs(inp, out):
    return [
        [
            "drive", "--n", str(inp["n"]), "--freeze",
            "--omega-over-chi", repr(inp["omega_over_chi"]), "--samples", str(inp["samples"]),
            "--seed", str(inp["seed"]), "--out-dir", str(out / "drive"),
        ],
        [
            "husimi", "--state", str(out / "drive" / "frozen_state.json"),
            "--grid", inp["grid"], "--out-dir", str(out / "husimi"),
        ],
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: dict
    tiny: dict
    inputs: object
    argvs: object
    check: object


_SWEEP_N = (100, 200, 400, 800)
_DRIVE_OMEGA = 2 * math.pi * 2e4

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noise_mc",
            "pulse rotations under pulse-area noise: the Monte Carlo path and "
            "rotate_vector, never the drive engine",
            dict(n=400, nc=50, eta=1e-3, realizations=24, samples=100),
            dict(n=200, nc=50, eta=1e-3, realizations=2, samples=32),
            _noise_inputs,
            _noise_argvs,
            checks.check_noise_mc,
        ),
        Workload(
            "sweep_tact",
            "one dense spectral build per N and many evolves from it; no pulses, "
            "no drive, no cache reuse",
            dict(n_list=_SWEEP_N, samples=100),
            dict(n_list=_SWEEP_N[:3], samples=32),
            _sweep_inputs,
            _sweep_argvs,
            checks.check_sweep_tact,
        ),
        Workload(
            "drive_freeze",
            "modulated drive frozen at the optimum, then its Husimi grid: heavy "
            "reuse of a few cached period operators",
            dict(n=300, omega_over_chi=_DRIVE_OMEGA, grid="128x256", samples=100),
            dict(n=200, omega_over_chi=_DRIVE_OMEGA, grid="32x64", samples=32),
            _drive_inputs,
            _drive_argvs,
            checks.check_drive_freeze,
        ),
    )
}


# ---------------------------------------------------------------------------
# one child process

def run_child(argvs, out: Path, trace: bool, timeout: float) -> dict:
    """Run one operation in a fresh process; returns its measurements, or a
    dict with an `error` key when it did not finish cleanly."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    spec = {
        "src": str(SRC.resolve()),
        "argvs": argvs,
        "trace": trace,
        "result": str(out / "child_result.json"),
        "spans": str(out.parent / f"{out.name}.spans.jsonl"),
    }
    spec_path = out / "child_spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(out / "child.log", "w") as log:
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
                env={**os.environ, **PINNED_THREADS},
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
    elapsed = time.monotonic() - started
    try:
        result = json.loads(Path(spec["result"]).read_text())
    except (OSError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or "wall_s" not in result:
        tail = (out / "child.log").read_text()[-400:]
        return {"error": f"exit status {proc.returncode}: {tail}", "elapsed": elapsed}
    result["setup_s"] = result.pop("parsed_at") - started
    result["elapsed"] = elapsed
    return result


# ---------------------------------------------------------------------------
# one benchmark run

def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Closed loop of children for `seconds`; returns the summary dict."""
    size = wl.size if size is None else size
    inp = wl.inputs(size, seed)
    out = WORK / wl.name
    reference = json.loads(REFERENCE.read_text())
    t_start = time.monotonic()
    plain, traced, failures = [], [], []
    attempted = 0
    last = 0.0
    prev_cal = None
    while True:
        elapsed = time.monotonic() - t_start
        want_trace = trace and len(traced) < len(plain)
        enough = plain and (traced or not trace)
        # Start another operation while it would end (by the last one's
        # duration) less than half an operation past the run length, so
        # runs last `seconds` on average.
        if enough and elapsed + last / 2 > seconds:
            break
        budget = RUN_DEADLINE_S - elapsed
        if budget < 5:
            break
        attempted += 1
        res = run_child(wl.argvs(inp, out), out, want_trace, budget)
        last = res.get("elapsed", last)
        problems = [res["error"]] if "error" in res else wl.check(inp, out, reference)
        if problems:
            failures.append(problems)
        if "error" not in res:
            prev_cal = _scale_by_host_speed(res, prev_cal)
            (traced if want_trace else plain).append(res)
        if "error" in res and not plain:
            break  # the program does not start; more attempts will not help
    return {
        "workload": wl.name,
        "inputs": inp,
        "attempted": attempted,
        "failures": failures,
        "plain": plain,
        "traced": traced,
    }


def _scale_by_host_speed(res: dict, prev_cal) -> float:
    """Scale the time metrics of one operation to the reference speed.

    The operation (set-up included) ran between the previous child's
    calibration and its own, so the host's speed over it is taken as the
    mean of the two. Raw values stay under `raw`. Returns this child's
    calibration time for the next one."""
    cal = res["cal_s"]
    around = cal if prev_cal is None else (prev_cal + cal) / 2
    res["raw"] = {k: res[k] for k in SCALED}
    for k in SCALED:
        res[k] *= CAL_REF_S / around
    return cal


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(summary) -> dict:
    rows = summary["plain"]
    return {k: _median([r[k] for r in rows]) for k in END_TO_END}


def per_layer(summary) -> dict:
    rows = summary["traced"]
    metrics = {k: _median([r["layers"][k] for r in rows]) for k in PER_LAYER if k.split(".")[0] != "trace"}
    traced_wall = _median([r["wall_s"] for r in rows])
    metrics["trace.overhead_s"] = traced_wall - _median([r["wall_s"] for r in summary["plain"]])
    metrics["trace.coverage"] = _median([r["layers"]["trace.coverage"] for r in rows])
    return metrics


def tail_percentile(values):
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    values = sorted(values)
    best = None
    for p in (50, 90, 95, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (p, values[min(len(values) - 1, math.ceil(len(values) * p / 100) - 1)])
    return best


def machine_record(summary, seed) -> dict:
    env_info = next(iter(summary["plain"] + summary["traced"]), {}).get("env", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": env_info.get("numpy"),
        "scipy": env_info.get("scipy"),
        "blas": env_info.get("blas"),
        "thread_env": PINNED_THREADS,
        "worker_count": env_info.get("worker_count"),
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
        "workload_seed": seed,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not Path(".git").exists():
        return None  # a plain checkout; src_sha256 identifies the code
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def report(summary, seed, seconds, trace) -> dict:
    """Print the human-readable block and return the result object."""
    name = summary["workload"]
    plain = summary["plain"]
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    print("config " + json.dumps(machine_record(summary, seed), sort_keys=True))
    print("work   " + json.dumps(summary["inputs"], sort_keys=True))
    for key, unit in END_TO_END.items():
        vals = [r[key] for r in plain]
        tail = tail_percentile(vals)
        tail_txt = f"p{tail[0]} {tail[1]:.4f} {unit}" if tail else "tail: none (n < 20)"
        print(f"{key:<12} median {_median(vals):.4f} {unit}  {tail_txt}  n={len(vals)}  "
              f"all: {' '.join(f'{v:.3f}' for v in vals)}")
    for key in SCALED:
        vals = [r["raw"][key] for r in plain]
        print(f"raw {key:<8} median {_median(vals):.4f} s  (unscaled)  "
              f"all: {' '.join(f'{v:.3f}' for v in vals)}")
    vals = [r["cal_s"] for r in plain]
    print(f"{'cal_s':<12} median {_median(vals):.4f} s  (reference {CAL_REF_S} s)  "
          f"all: {' '.join(f'{v:.3f}' for v in vals)}")
    attempted, failed = summary["attempted"], len(summary["failures"])
    print(f"{'fail_rate':<12} {failed}/{attempted} = {failed / max(attempted, 1):.3f}")
    for problems in summary["failures"]:
        print("FAILED " + "; ".join(problems))
    if trace:
        metrics = per_layer(summary)
        units = PER_LAYER
        print(f"traced children n={len(summary['traced'])}; layer self-time shares of traced wall:")
        for layer, share in layer_shares(summary):
            print(f"  {layer:<32} {share:6.1%}")
    else:
        metrics = end_to_end(summary)
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


# Spans whose self time is waiting on other threads' spans, not work.
WAIT_SPANS = ("protocols.run_monte_carlo",)


def layer_shares(summary):
    """Mean self time per layer (first two name parts) over traced wall,
    summed over threads, waits left out."""
    rows = summary["traced"]
    layers = {}
    for r in rows:
        for span, self_s in r["self_by_span"].items():
            if span in WAIT_SPANS:
                continue
            layer = ".".join(span.split(".")[:2])
            layers.setdefault(layer, []).append(self_s / r["raw"]["wall_s"])
    shares = {k: sum(v) / len(rows) for k, v in layers.items()}
    return sorted(shares.items(), key=lambda kv: -kv[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinsqueeze" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC}/spinsqueeze; run from a checkout root",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        summary = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if not summary["plain"] or (args.trace and not summary["traced"]):
            print(f"perfbench: {name}: no operation completed", file=sys.stderr)
            for problems in summary["failures"]:
                print("  " + "; ".join(problems), file=sys.stderr)
            return 1
        results[name] = report(summary, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
