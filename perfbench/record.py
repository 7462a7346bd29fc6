"""Run every workload over ten seeds and record the result.

    python3 perfbench/record.py [--first-seed 0] \\
        [--out perfbench/results/NAME.json]

Runs ``run.py`` for run_seconds from BENCHMARK.json, once per workload
and each of ten seeds with tracing off, one at a time, then once per
workload with tracing on at seed 0.  Prints, per workload and
end-to-end metric, the median and the spread between the quartiles as a
share of the median next to the metric's bound in BENCHMARK.json, and
writes all of it, stamped, to ``--out``.

    python3 perfbench/record.py --write-golden

rewrites the invariants golden digests for the default seed from the
current code.
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
WORKLOADS = ("invariants", "audit", "certify")
SEEDS = 10
TRACE_SEED = 0


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    stamp_file = HERE / "out" / f"result-{workload}-s{seed}-t{trace}.json"
    result["stamp"] = json.loads(stamp_file.read_text())["stamp"]
    return result


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def record(first_seed: int) -> dict:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    seeds = range(first_seed, first_seed + SEEDS)
    out = {"seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for w in WORKLOADS:
        runs = []
        for seed in seeds:
            r = run_once(w, seed, seconds, 0)
            runs.append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
        summary = {}
        for name in bounds:
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bounds[name]
            summary[name] = s
        traced = run_once(w, TRACE_SEED, seconds, 1)
        out["workloads"][w] = {
            "runs": runs, "summary": summary, "traced": traced,
            "tracing_overhead_frac":
                traced["metrics"]["trace.overhead_frac"]["value"],
            "failed_frac": sum(r["failed"] for r in runs)
                           / sum(r["attempted"] for r in runs),
        }
    first = out["workloads"][WORKLOADS[0]]["runs"][0]["stamp"]
    out["stamp"] = {k: first[k] for k in ("python", "revision",
                                          "source_digest", "nproc")}
    out["stamp"]["items_per_pass"] = {
        w: v["runs"][0]["stamp"]["items_per_pass"]
        for w, v in out["workloads"].items()}
    return out


def print_summary(out: dict) -> None:
    print(f"# {out['stamp']}")
    print(f"{'workload':11s} {'metric':13s} {'median':>12s} {'unit':7s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w, v in out["workloads"].items():
        for name, s in v["summary"].items():
            flag = ("" if s["spread"] < s["bound"] / 3
                    else "  WIDE" if s["spread"] < s["bound"] else "  OVER")
            print(f"{w:11s} {name:13s} {s['median']:12.6g} {s['unit']:7s} "
                  f"{s['spread']:7.3f} {s['bound']:6.2f}{flag}")
        print(f"{w:11s} {'failed_frac':13s} {v['failed_frac']:12.6g} ratio")
        print(f"{w:11s} tracing overhead {v['tracing_overhead_frac']:.3%}")


def write_golden() -> None:
    sys.path.insert(0, str(HERE))
    import checks
    import run
    import workloads
    sys.path.insert(0, str(run.SRC))
    api = run.load_qalinks()
    golden = {}
    for item in workloads.invariants_items(checks.GOLDEN_SEED):
        ex = run.execute("invariants", item, api)
        golden[item.label] = [checks.fingerprint([out], None)
                              for out in ex.outputs]
    checks.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                             + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    out = record(args.first_seed)
    print_summary(out)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
