"""Self-check of the distpair benchmark.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload it makes one untraced run and two traced runs under
different ``PYTHONHASHSEED`` values, each in its own process, and checks that

* every run is correct, with no failed report;
* the untraced run emits exactly the ``end_to_end`` metrics of
  ``BENCHMARK.json`` and the traced runs exactly its ``per_layer`` metrics,
  each with the unit recorded there;
* the two traced runs give identical counts.

It also checks, on made-up profiler statistics, that a module's self time
sums every code object of the module, same-named ones included.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, trace, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def problems(workload, seed, spec):
    found = []
    runs = {
        "untraced": run_once(workload, seed, 0, 0),
        "traced-a": run_once(workload, seed, 1, 0),
        "traced-b": run_once(workload, seed, 1, 1),
    }
    for label, result in runs.items():
        if not result["correct"] or result["failed"] != 0:
            found.append(f"{workload} {label}: correct={result['correct']} failed={result['failed']}")
        wanted = spec["end_to_end" if label == "untraced" else "per_layer"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != {m["name"]: m["unit"] for m in wanted}:
            found.append(f"{workload} {label}: metrics/units differ from BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, unit in units.items():
        if unit != "count":
            continue
        a = runs["traced-a"]["metrics"][name]["value"]
        b = runs["traced-b"]["metrics"][name]["value"]
        if a != b:
            found.append(f"{workload}: {name} differs between traced runs ({a} vs {b})")
    return found


def profile_problems():
    """``Profile`` must keep same-named code objects apart (each comprehension
    of a module is a ``<listcomp>``) and refuse to pick one by name."""
    sys.path.insert(0, str(HERE))
    from run import PKG, Profile

    path = str(PKG / "linalg.py")
    stats = {
        (path, 10, "<listcomp>"): (3, 3, 0.25, 0.25, {}),
        (path, 20, "<listcomp>"): (5, 5, 0.5, 0.5, {}),
        (path, 30, "mat_mul"): (2, 2, 0.125, 1.0, {}),
    }
    prof = Profile(stats)
    found = []
    if prof.self_s("linalg") != 0.875:
        found.append(f"profile: linalg self time {prof.self_s('linalg')}, not 0.875")
    if prof.calls("linalg", "mat_mul") != 2:
        found.append("profile: mat_mul calls not 2")
    try:
        prof.calls("linalg", "<listcomp>")
        found.append("profile: an ambiguous name was looked up")
    except ValueError:
        pass
    return found


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    found = profile_problems()
    for workload in args.workload or names:
        found += problems(workload, args.seed, spec)
        print(f"{workload}: checked", flush=True)
    for line in found:
        print(f"PROBLEM: {line}")
    print("self-check", "failed" if found else "passed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
