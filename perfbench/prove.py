"""Check that the benchmark is steady: run each workload once per seed,
one run at a time, and report per end-to-end metric the median and the
quartile spread, (Q3 - Q1) / median, against the bound in BENCHMARK.json.

    python3 perfbench/prove.py --seeds 1-10 --seconds 55 [--workloads a,b] [--out FILE]

``--out`` writes the medians and spreads as JSON (the form of
``perfbench/baseline.json``). Exit status 1 if a run fails its checks or
a spread other than that of ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    report = {}
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: checks failed "
                      f"({result['failed']}/{result['attempted']})")
                ok = False
            for name in bounds:
                value = result["metrics"][name]["value"]
                if not value > 0:
                    print(f"{workload} seed {seed}: {name} is {value}, not > 0")
                    ok = False
                values[name].append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        report[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            report[workload][name] = {"median": median, "spread": spread}
            flag = ""
            if spread > bounds[name]:
                flag = "  OVER BOUND" if name != "setup_s" else "  (setup_s: spread not gated)"
                ok = ok and name == "setup_s"
            elif spread > bounds[name] / 3:
                flag = "  above a third of the bound"
            print(f"  {workload:14s} {name:18s} median {median:<12.6g} "
                  f"spread {spread:.4f} bound {bounds[name]}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": seconds, "workloads": report}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
