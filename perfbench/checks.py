"""Output checks for one benchmark operation, in plain Python.

Every operation is checked four ways; each check_* function returns a list
of problems, empty when the operation passed:

1. the child's exit status (checked by run.py before these run);
2. manifest.json: every artifact on disk is listed and its sha-256 matches;
3. the acceptance bounds of tests/test_acceptance.py that apply to the
   workload (criteria 4, 6 and 8);
4. outputs that do not depend on the workload seed agree with
   reference.json, captured by capture.py at an accepted commit: xi^2 and
   optimum columns to XI2_REL_TOL relative, the frozen state to fidelity
   1 - FIDELITY_GAP.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

XI2_REL_TOL = 1e-6  # far above float reordering (~1e-12), far below any physics change
FIDELITY_GAP = 1e-10  # the correctness rule for faster paths

TACT_EXPONENT, TACT_EXPONENT_TOL = -1.0, 0.07  # criterion 4
TRACK_TOL = 0.25  # criterion 6
FREEZE_WINDOW = 0.10  # criterion 8
DOUBLING_GAP = 1e-8  # criterion 8
HUSIMI_NORM_TOL = 1e-3  # criterion 8 / 11


def read_csv(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def verify_manifest(out_dir: Path) -> list:
    try:
        listed = read_json(out_dir / "manifest.json")["artifacts"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{out_dir.name}/manifest.json unreadable: {exc}"]
    on_disk = {p.name for p in out_dir.iterdir() if p.name != "manifest.json"}
    problems = [f"{out_dir.name}/{n} not in manifest" for n in sorted(on_disk - set(listed))]
    for name, digest in sorted(listed.items()):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{out_dir.name}/{name} listed but missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{out_dir.name}/{name} sha-256 differs from manifest")
    return problems


def compare(label: str, got: dict, want) -> list:
    """Seed-independent outputs against their captured reference."""
    if want is None:
        return [f"no reference captured for {label}"]
    problems = []
    for key, ref in want.items():
        val = got[key]
        if key == "frozen_state":
            gap = 1.0 - fidelity(val, ref)
            if not gap <= FIDELITY_GAP:
                problems.append(f"{label} {key}: fidelity gap {gap:.2e} > {FIDELITY_GAP:.0e}")
            continue
        vals, refs = (val, ref) if isinstance(ref, list) else ([val], [ref])
        if len(vals) != len(refs):
            problems.append(f"{label} {key}: {len(vals)} values, reference has {len(refs)}")
            continue
        worst = max((abs(v - r) / abs(r) for v, r in zip(vals, refs)), default=0.0)
        if not worst <= XI2_REL_TOL:
            problems.append(f"{label} {key}: relative deviation {worst:.2e} > {XI2_REL_TOL:.0e}")
    return problems


def fidelity(a, b) -> float:
    """|<a|b>| for amplitude lists of [re, im] pairs."""
    if len(a) != len(b):
        return 0.0
    re = sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(a, b))
    im = sum(ar * bi - ai * br for (ar, ai), (br, bi) in zip(a, b))
    return math.hypot(re, im)


# ---------------------------------------------------------------------------
# noise_mc

def noise_key(inp):
    return f"noise_mc/N={inp['n']}/nc={inp['nc']}/samples={inp['samples']}"


def extract_noise(d: Path) -> dict:
    limits = read_json(d / "manifest.json")["limits"]
    return {
        "oat_limit.xi2": read_csv(d / "oat_limit.csv")["xi2"],
        "tact_limit.xi2": read_csv(d / "tact_limit.csv")["xi2"],
        "oat_xi2_min": limits["oat"]["xi2_min"],
        "tact_xi2_min": limits["tact"]["xi2_min"],
    }


def check_noise_mc(inp, out: Path, reference: dict) -> list:
    d = out / "noise"
    problems = verify_manifest(d)
    ref = reference.get(noise_key(inp))
    if problems or ref is None:
        return problems or [f"no reference captured for {noise_key(inp)}"]
    t_opt = read_json(d / "manifest.json")["protocol"]["t_opt"]
    mean = read_csv(d / "noise_mean.csv")
    times, xi2 = mean["chi_t"], mean["xi2"]
    # criterion 6: the ensemble mean stays below the one-axis limit ...
    below = [x for t, x in zip(times, xi2) if 0.65 * t_opt <= t <= t_opt]
    if not below or max(below) >= ref["oat_xi2_min"]:
        problems.append("mean xi2 not below the one-axis limit over [0.65, 1] t_opt")
    # ... and tracks the effective two-axis model
    track = ref["track"]
    if len(times) != len(track["times"]) or any(
        abs(t - r) > 1e-9 * r for t, r in zip(times, track["times"])
    ):
        problems.append("noise sample times differ from the reference track")
    else:
        band = [
            abs(x / e - 1.0)
            for t, x, e in zip(times, xi2, track["xi2"])
            if 0.1 * t_opt <= t <= 0.8 * t_opt
        ]
        if not band or max(band) > TRACK_TOL:
            problems.append(f"mean xi2 off the effective model by {max(band, default=0):.3f}")
    ids = {int(i) for i in read_csv(d / "noise_realizations.csv")["realization"]}
    if ids != set(range(inp["realizations"])):
        problems.append(f"realizations CSV holds {len(ids)} of {inp['realizations']}")
    want = {k: v for k, v in ref.items() if k != "track"}
    return problems + compare(noise_key(inp), extract_noise(d), want)


# ---------------------------------------------------------------------------
# sweep_tact

def sweep_key(n, samples):
    return f"sweep_tact/N={n}/samples={samples}"


def extract_sweep(d: Path) -> dict:
    rows = read_csv(d / "sweep_tact.csv")
    return {
        int(n): {"chi_t_opt": t, "xi2_min": v}
        for n, t, v in zip(rows["N"], rows["chi_t_opt"], rows["xi2_min"])
    }


def _slope(xs, ys) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def check_sweep_tact(inp, out: Path, reference: dict) -> list:
    d = out / "sweep"
    problems = verify_manifest(d)
    if problems:
        return problems
    rows = extract_sweep(d)
    if sorted(rows) != sorted(inp["n_list"]):
        return [f"sweep rows for N={sorted(rows)}, asked for {inp['n_list']}"]
    # criterion 4: two-axis optimum scales as N^-1
    exponent = _slope([math.log(n) for n in rows], [math.log(r["xi2_min"]) for r in rows.values()])
    if not abs(exponent - TACT_EXPONENT) <= TACT_EXPONENT_TOL:
        problems.append(f"TACT exponent {exponent:.4f} outside -1 +- {TACT_EXPONENT_TOL}")
    for n, got in rows.items():
        key = sweep_key(n, inp["samples"])
        problems += compare(key, got, reference.get(key))
    return problems


# ---------------------------------------------------------------------------
# drive_freeze

def drive_key(inp):
    return f"drive_freeze/N={inp['n']}/omega_over_chi={inp['omega_over_chi']!r}/samples={inp['samples']}"


def extract_drive(d: Path) -> dict:
    return {
        "drive_run.xi2": read_csv(d / "drive_run.csv")["xi2"],
        "tact_xi2_min": read_json(d / "manifest.json")["limits"]["tact"]["xi2_min"],
        "frozen_state": read_json(d / "frozen_state.json")["amplitudes"],
    }


def husimi_normalization(path: Path, n_particles: int) -> tuple:
    cols = read_csv(path)
    thetas = sorted(set(cols["theta"]))
    rows = len(cols["q"])
    cell = (math.pi / len(thetas)) * (2 * math.pi / (rows // len(thetas)))
    total = sum(q * math.sin(t) for t, q in zip(cols["theta"], cols["q"]))
    return rows, total * cell * (n_particles + 1) / (4 * math.pi)


def check_drive_freeze(inp, out: Path, reference: dict) -> list:
    d, h = out / "drive", out / "husimi"
    problems = verify_manifest(d) + verify_manifest(h)
    ref = reference.get(drive_key(inp))
    if problems or ref is None:
        return problems or [f"no reference captured for {drive_key(inp)}"]
    manifest = read_json(d / "manifest.json")
    # criterion 8: integrator doubling gap, and xi2 held at the two-axis
    # minimum after the freeze
    gap = manifest["convergence"]["doubling"]["terminal_fidelity_gap"]
    if not gap < DOUBLING_GAP:
        problems.append(f"doubling gap {gap:.2e} not below {DOUBLING_GAP:.0e}")
    t_star = manifest["protocol"]["freeze_time"]
    run = read_csv(d / "drive_run.csv")
    post = [x for t, x in zip(run["chi_t"], run["xi2"]) if t >= t_star - 1e-15]
    tact_min = ref["tact_xi2_min"]
    drift = max((abs(x - tact_min) / tact_min for x in post), default=math.inf)
    if not drift <= FREEZE_WINDOW:
        problems.append(f"post-freeze xi2 strays {drift:.3f} from the two-axis minimum")
    t_count, p_count = (int(v) for v in inp["grid"].split("x"))
    rows, norm = husimi_normalization(h / "husimi.csv", inp["n"])
    if rows != t_count * p_count:
        problems.append(f"husimi grid has {rows} rows, want {t_count * p_count}")
    if not abs(norm - 1.0) <= HUSIMI_NORM_TOL:
        problems.append(f"husimi normalization {norm:.6f} off 1 by more than {HUSIMI_NORM_TOL}")
    return problems + compare(drive_key(inp), extract_drive(d), ref)
