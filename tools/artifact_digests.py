"""Print the sha-256 of every artifact of a fixed list of CLI runs.

Usage: python tools/artifact_digests.py > digests.txt

Each run writes into its own directory under a temporary folder. One line
per artifact, `run/file sha256`; a manifest is hashed with config.out_dir
and config.state removed, since those name the temporary folder. Run it on
two checkouts (spinsqueeze importable from each) and diff the outputs: an
empty diff means every artifact is byte-identical. OpenBLAS runs on one
thread, because threaded products round differently at N >= 400.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from spinsqueeze import cli  # noqa: E402

DRIVE_PHASES = {"phase-pi2": repr(-math.pi / 2), "phase+pi2": repr(math.pi / 2), "phase0.3": "0.3"}

RUNS = [
    ("oat300", ["oat", "--n", "300"]),
    ("tact300", ["tact", "--n", "300"]),
    ("tact301", ["tact", "--n", "301"]),  # an even dim: one eigensystem serves both parities
    ("pulses60", ["pulses", "--n", "60", "--freeze"]),
    ("pulses61", ["pulses", "--n", "61", "--freeze"]),
    # TestOnePass's freeze boundaries: at nc = 10 the schedule's clock ends the freeze
    # segment past t*, and nc = 1 (which fails the Trotter gate, so it warns) freezes in period 0
    ("pulses61-nc10", ["pulses", "--n", "61", "--freeze", "--nc", "10"]),
    ("pulses60-nc1", ["pulses", "--n", "60", "--freeze", "--nc", "1"]),
    *((f"drive{n}-{tag}", ["drive", "--n", str(n), "--freeze", "--samples", "100", "--phase", phase])
      for n in (60, 61, 300) for tag, phase in DRIVE_PHASES.items()),
    ("drive60-unfrozen", ["drive", "--n", "60", "--phase", "0.3"]),
    # odd steps_per_period: no period operators, so the driven chain walks split steps alone
    ("drive60-spp17", ["drive", "--n", "60", "--freeze", "--samples", "100", "--steps-per-period", "17"]),
    # the default phase: fine-window samples branch off a chain that jumps half periods
    *((f"drive{n}-unfrozen-pi2", ["drive", "--n", str(n)]) for n in (60, 61)),
    ("noise-eta0.001", ["noise", "--n", "60", "--eta", "0.001", "--realizations", "40"]),
    ("noise-eta0", ["noise", "--n", "60", "--eta", "0", "--realizations", "40"]),
    # Jx halves of 200 rows or more take basis_product's transposed form, under SPINSQUEEZE_THREADS too
    ("noise400", ["noise", "--n", "400", "--nc", "10", "--eta", "0.001", "--realizations", "20",
                  "--samples", "32"]),
    ("sweep-tact", ["sweep", "--model", "tact", "--n-list", "40,60,80"]),
    ("sweep-tact-odd", ["sweep", "--model", "tact", "--n-list", "41,61,81"]),
    ("husimi60", ["husimi", "--state", "{drive60-phase-pi2}/frozen_state.json"]),
    # a dim past the phi count: the grid's phi sums wrap
    ("husimi300", ["husimi", "--state", "{drive300-phase-pi2}/frozen_state.json", "--grid", "128x256"]),
]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for key in ("out_dir", "state"):
            manifest["config"].pop(key, None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {name: str(Path(tmp) / name) for name, _ in RUNS}
        for name, argv in RUNS:
            argv = [arg.format(**dirs) for arg in argv] + ["--out-dir", dirs[name]]
            if cli.run_scenario(cli.parse_config(argv)) != 0:
                print(f"{name}: run failed", file=sys.stderr)
                return 1
            for path in sorted(Path(dirs[name]).iterdir()):
                print(f"{name}/{path.name} {digest(path)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
