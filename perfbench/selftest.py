"""Self-test of the benchmark at tiny N; about a minute.

    python3 perfbench/selftest.py      # from the checkout root

For each workload it checks that an untraced run prints every end-to-end
metric named in BENCHMARK.json and passes its output checks, that a traced
run prints every per-layer metric and that on each thread the spans' self
times sum to no more than the traced wall time, and that a run whose
artifact is deliberately corrupted counts every operation as failed.
"""

import contextlib
import io
import json
import sys
from collections import defaultdict

import run

SEED = 0


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def _run(wl, trace: bool):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        summary = run.run_workload(wl, SEED, 1, trace, size=wl.tiny)
        result = run.report(summary, SEED, 1, trace)
    return summary, result, text.getvalue()


def _self_seconds_per_thread(spans_path) -> dict:
    spans = defaultdict(dict)
    with open(spans_path) as fh:
        for line in fh:
            s = json.loads(line)
            spans[s["thread"]][s["id"]] = s
    totals = {}
    for tid, by_id in spans.items():
        covered = defaultdict(float)
        for s in by_id.values():
            if s["parent"] >= 0:
                covered[s["parent"]] += s["end"] - s["start"]
        selfs = [s["end"] - s["start"] - covered[i] for i, s in by_id.items()]
        expect(min(selfs) >= -1e-9, f"negative self time on thread {tid}")
        totals[tid] = sum(selfs)
    return totals


def _corrupt_one_artifact(out) -> None:
    path = sorted(out.rglob("*.csv"))[0]
    data = bytearray(path.read_bytes())
    i = max(k for k, b in enumerate(data) if chr(b).isdigit())
    data[i] = ord("0") + (data[i] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = sorted(m["name"] for m in bench["end_to_end"])
    layers = sorted(m["name"] for m in bench["per_layer"])
    for wl in run.WORKLOADS.values():
        summary, result, text = _run(wl, trace=False)
        expect(result["correct"] and result["failed"] == 0, f"{wl.name}: {summary['failures']}")
        expect(sorted(result["metrics"]) == e2e, f"{wl.name}: end-to-end metric names")
        expect(all(name in text for name in e2e + ["fail_rate"]), f"{wl.name}: printed metrics")

        summary, result, text = _run(wl, trace=True)
        expect(result["correct"], f"{wl.name} traced: {summary['failures']}")
        expect(sorted(result["metrics"]) == layers, f"{wl.name}: per-layer metric names")
        wall = summary["traced"][-1]["raw"]["wall_s"]  # spans are raw seconds
        spans_path = run.WORK / f"{wl.name}.spans.jsonl"
        for tid, total in _self_seconds_per_thread(spans_path).items():
            expect(total <= wall, f"{wl.name}: thread {tid} self {total:.3f} s > wall {wall:.3f} s")

        original = run.run_child

        def corrupting(*args, **kwargs):
            res = original(*args, **kwargs)
            _corrupt_one_artifact(args[1])
            return res

        run.run_child = corrupting
        try:
            summary, result, text = _run(wl, trace=False)
        finally:
            run.run_child = original
        expect(
            not result["correct"] and result["failed"] == result["attempted"] >= 1,
            f"{wl.name}: corrupted artifact not counted as a failure",
        )
        print(f"selftest {wl.name}: ok ({result['attempted']} corrupted operation(s) failed)")
    print("selftest PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
