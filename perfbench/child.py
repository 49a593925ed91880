"""One benchmark operation in a fresh process: `python3 child.py <spec.json>`.

The spec names the checkout's src directory, the CLI argument lists to run
in order, whether to trace, and where to write the result. The result file
holds `parsed_at` (time.monotonic() once the CLI is imported and every
config parsed; run.py subtracts its own spawn time), `wall_s` and
`cpu_s` over the run_scenario calls, `peak_rss_mb`, the runtime versions,
when traced the per-layer metrics, and `cal_s`, the time of a fixed
calibration kernel run after all of it. The exit status is the first
nonzero run_scenario status, or 0.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _runtime_versions(protocols) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "worker_count": protocols.worker_count(),
    }


def _calibrate(passes: int = 3) -> float:
    """Wall time of a fixed numpy kernel, summed over `passes` after one
    warm-up pass: the host's current speed, for run.py to scale by.

    The kernel mixes the kinds of work the program does: dense real and
    complex eigensolves (spectral and axis builds), complex matrix products
    (period operators), conjugate-transpose matvecs on 801- and 1251-dim
    complex matrices (rotations; memory bound), a loop of small-array numpy
    calls (per-sample reports) and a pure-Python loop (the interpreter).
    """
    import numpy as np

    rng = np.random.default_rng(12345)

    def cplx(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    sym = rng.standard_normal((500, 500))
    sym = sym + sym.T
    herm = cplx(300)
    herm = herm + herm.conj().T
    prod = cplx(300)
    mats = (cplx(801), cplx(1251))

    def matvecs():
        for m, reps in zip(mats, (10, 6)):
            v = m[:, 0].copy()
            for _ in range(reps):
                v = m.conj().T @ v
                v /= np.linalg.norm(v)

    def small_calls():
        x = np.ones(64)
        for _ in range(3000):
            x = (x * 1.0001 + 0.5).clip(0, 10)

    def interpreter():
        acc = 0
        for i in range(60000):
            acc += i * i % 7

    total = 0.0
    for k in range(passes + 1):
        t0 = time.perf_counter()
        np.linalg.eigh(sym)
        np.linalg.eigh(herm)
        for _ in range(3):
            prod @ prod
        matvecs()
        small_calls()
        interpreter()
        if k:
            total += time.perf_counter() - t0
    return total


def _bytes_under(dirs) -> int:
    return sum(p.stat().st_size for d in dirs for p in Path(d).rglob("*") if p.is_file())


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    from spinsqueeze import cli, protocols

    configs = [cli.parse_config(argv) for argv in spec["argvs"]]
    parsed_at = time.monotonic()

    tracer = None
    if spec["trace"]:
        import layertrace

        tracer = layertrace.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    status = 0
    for cfg in configs:
        status = cli.run_scenario(cfg)
        if status:
            break
    t1 = time.perf_counter()
    cpu1 = _cpu_s()

    result = {
        "parsed_at": parsed_at,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _runtime_versions(protocols),
    }
    if tracer is not None:
        tracer.write(spec["spans"], t0)
        result["layers"], result["self_by_span"] = tracer.metrics(t0, t1)
        result["layers"]["cli.write.bytes"] = _bytes_under(cfg.out_dir for cfg in configs)
    result["cal_s"] = _calibrate()  # after peak_rss_mb, so it never shows there
    Path(spec["result"]).write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
