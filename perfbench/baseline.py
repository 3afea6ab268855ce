"""Regenerate the benchmark's committed reference files (run from the repo root).

    python3 perfbench/baseline.py ids       # perfbench/expected_ids.json
    python3 perfbench/baseline.py baseline  # perfbench/baseline_seed0.json

``ids`` runs each workload once at seeds 0 and 1, requires both to pass
with the same ordered record-id list, and writes that list (the gate's
expected list) and the records that read the same at both seeds (the
part of the run ``--seed`` does not reach).  ``baseline`` runs ``run.py`` ``REPEATS`` times per
workload untraced and once traced, all at seed 0, and records each
end-to-end metric's median and quartiles over the runs, the traced
layer table and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REPEATS = 5   # untraced runs per workload in the baseline


def expected_ids() -> dict:
    """Ordered record ids per workload, and the records ``--seed`` does not reach."""
    os.makedirs(run.SCRATCH, exist_ok=True)
    out: dict = {"ids": {}, "seed_invariant": {}}
    for name in workloads.NAMES:
        reports = []
        for seed in (0, 1):
            w = run.Worker(name, seed, deadline=time.perf_counter() + 600)
            if w.error is not None:
                raise SystemExit(f"{name} seed {seed}: {w.error}")
            reports.append(json.loads(w.result["report"]))
        recs = [gate.records(r) for r in reports]
        if not all(ok for r in recs for _, ok in r):
            raise SystemExit(f"{name}: failing records")
        ids = [[rid for rid, _ in r] for r in recs]
        if ids[0] != ids[1]:
            raise SystemExit(f"{name}: record ids depend on the seed")
        checks = [[c for s in r["suites"] for c in s["checks"]] for r in reports]
        same = [rid for rid, a, b in zip(ids[0], *checks) if a == b]
        out["ids"][name] = ids[0]
        out["seed_invariant"][name] = same
        print(f"{name}: {len(ids[0])} records, {len(same)} identical at seeds 0 and 1",
              flush=True)
    return out


def bench(name: str, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"{name} trace {trace} failed:\n{proc.stderr}")
    with open(os.path.join(run.SCRATCH, f"result-{name}-seed0-trace{trace}.json")) as fh:
        return json.load(fh)


def baseline() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {"seed": 0, "run_seconds": seconds, "repeats": REPEATS, "workloads": {}}
    for name in workloads.NAMES:
        runs = [bench(name, seconds, 0) for _ in range(REPEATS)]
        traced = bench(name, seconds, 1)
        out["machine"] = traced["machine"]
        out["workloads"][name] = {
            "end_to_end": {k: run.quartiles([r["metrics"][k] for r in runs])
                           for k in run.END_TO_END},
            "per_layer": traced["metrics"],
            "report_sha256_seed0": runs[0]["report_sha256"],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("what", choices=("ids", "baseline"))
    args = ap.parse_args()
    if args.what == "ids":
        path, data = os.path.join(HERE, "expected_ids.json"), expected_ids()
    else:
        path, data = os.path.join(HERE, "baseline_seed0.json"), baseline()
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
