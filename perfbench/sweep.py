#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10            # every workload, untraced
    python3 perfbench/sweep.py --seeds 1 --trace 1     # one traced run each
    python3 perfbench/sweep.py --seeds 1-10 --out BENCH_trajectory.json

Each seed runs in its own `perfbench/run.py` process.  For every
workload and metric the summary gives the median, the quartiles
(statistics.quantiles, n=4) and the spread, which is the distance between
the quartiles as a share of the median; for end-to-end metrics it also
gives the bound from BENCHMARK.json.  With --out the
record (context, per-seed values and summary) is appended to the JSON
list in that file, which is created if missing.  If the file already
holds an untraced record, an untraced sweep is also compared with the
latest one: for each workload and end-to-end metric, how much worse its
median got, as a share of the earlier median, against the metric's
bound.  Run from the root of the checkout.
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


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def compare(old: dict, new: dict, defs: list[dict]) -> dict:
    """Per workload and end-to-end metric, how much worse new's median is
    than old's, as a share of old's (negative when it got better)."""
    print(f"\nversus {' '.join(old['command'])} (seeds {old['seeds'][0]}-{old['seeds'][-1]}):")
    out: dict = {"command": old["command"], "seeds": old["seeds"], "workloads": {}}
    for wl, cur in new["workloads"].items():
        if wl not in old["workloads"]:
            continue
        rows = out["workloads"][wl] = {}
        for d in defs:
            a = old["workloads"][wl]["metrics"][d["name"]]["median"]
            b = cur["metrics"][d["name"]]["median"]
            worse = (b - a) / abs(a) if d["better"] == "lower" else (a - b) / abs(a)
            rows[d["name"]] = {"worse_by": worse, "bound": d["bound"],
                               "within": worse <= d["bound"]}
            print(f"  {wl:18s} {d['name']:22s} worse by {worse:+7.3f}  bound {d['bound']}"
                  f"{'' if worse <= d['bound'] else '  <-- over bound'}")
    return out


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names),
                    help="comma-separated workload names (default: all)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the record to the JSON list in this file")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]

    record = {"command": ["python3", "perfbench/sweep.py", *argv], "seeds": seeds,
              "seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{wl} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            if result["failed"]:
                sys.stderr.write(proc.stderr)
        out_file = ROOT / "perfbench" / "out" / f"{wl}-seed{seeds[0]}-trace{args.trace}.json"
        context = json.loads(out_file.read_text(encoding="utf-8"))["context"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0 and all(r["correct"] for r in runs)
        summary = {}
        print(f"\n{wl}: failed_frac {failed / attempted:.4g} ({failed}/{attempted} solver runs)")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}  bound")
        for d in defs:
            values = [r["metrics"][d["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            summary[d["name"]] = {"unit": d["unit"], "better": d["better"], "median": med,
                                  "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = d.get("bound")
            flag = "  <-- over bound/3" if bound is not None and d["name"] != "setup_s" \
                and spread > bound / 3 else ""
            print(f"  {d['name']:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}"
                  f"  {bound if bound is not None else ''}{flag}")
        record["workloads"][wl] = {"context": context, "attempted": attempted,
                                   "failed": failed, "metrics": summary}
    if args.out:
        path = Path(args.out)
        history = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        earlier = [h for h in history if h["trace"] == 0]
        if not args.trace and earlier:
            record["versus_previous"] = compare(earlier[-1], record, defs)
        history.append(record)
        path.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
