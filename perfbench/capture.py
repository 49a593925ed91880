"""Capture reference.json: the seed-independent outputs the checks compare.

    python3 perfbench/capture.py      # from the checkout root; about two minutes

Run it only at a commit whose outputs are the accepted ones; the benchmark
then holds every later commit to them (see checks.py for tolerances). It
covers every input the seed can produce at the benchmark size (noise_mc's
fixed N, each jittered N of sweep_tact's list and of drive_freeze) and the
self-test's inputs. The criterion-6 tracking curve comes
from the library's exact averaged pulse generator at the noise sample times.
"""

import json
import shutil
import sys
from pathlib import Path

import checks
import run
import selftest

sys.path.insert(0, str(run.SRC.resolve()))

from spinsqueeze import cli  # noqa: E402
from spinsqueeze.protocols import effective_pulse_record  # noqa: E402

OFFSETS = (-2, 0, 2)  # every value run._jitter can add


def _run(argvs):
    for argv in argvs:
        status = cli.run_scenario(cli.parse_config(argv))
        if status:
            raise SystemExit(f"capture run failed: {argv}")


def _full_size_inputs(wl: run.Workload) -> list:
    """Every input the seed can produce at the benchmark size."""
    size = wl.size
    if wl.name == "noise_mc":
        return [wl.inputs(size, 0)]
    if wl.name == "sweep_tact":
        return [dict(size, n_list=[n + k for n in size["n_list"] for k in OFFSETS], seed=0)]
    return [dict(size, n=size["n"] + k, seed=0) for k in OFFSETS]


def capture(wl: run.Workload, inp: dict, out: Path) -> dict:
    if out.exists():
        shutil.rmtree(out)
    if wl.name == "noise_mc":
        inp = dict(inp, realizations=1)
    _run(wl.argvs(inp, out))
    if wl.name == "noise_mc":
        d = out / "noise"
        entry = checks.extract_noise(d)
        times = checks.read_csv(d / "noise_mean.csv")["chi_t"]
        track = effective_pulse_record(inp["n"], 1.0, tuple(times))
        entry["track"] = {"times": times, "xi2": track.xi2().tolist()}
        return {checks.noise_key(inp): entry}
    if wl.name == "sweep_tact":
        rows = checks.extract_sweep(out / "sweep")
        return {checks.sweep_key(n, inp["samples"]): entry for n, entry in rows.items()}
    return {checks.drive_key(inp): checks.extract_drive(out / "drive")}


def _rounded(obj):
    """Ten significant digits: 1e-10 relative, far inside every tolerance."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    return obj


def main() -> int:
    out = run.WORK / "capture"
    ref = {"_captured_from": {"git_commit": run._git_commit(), "src_sha256": run._tree_digest(run.SRC)}}
    for wl in run.WORKLOADS.values():
        for inp in _full_size_inputs(wl) + [wl.inputs(wl.tiny, selftest.SEED)]:
            ref.update(capture(wl, inp, out))
            print(f"captured {wl.name} {inp}", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(_rounded(v))}" for k, v in sorted(ref.items())]
    run.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
