"""qalinks benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {invariants,audit,certify} \\
        --seed N --seconds S --trace {0,1}

Single-process closed loop with one client: each item calls qalinks
in-process through its public entry points (``cli.main`` with stdout
captured; ``seifert_oracle.det_oracle`` in ``audit``) and the next item
starts when the previous one returns.  A run repeats whole passes over
the seed's items until ``--seconds`` have passed.  The timing metrics are
taken over each item's median latency across its passes, and scaled to a
nominal machine speed: see ``reference_work``.  Every output is checked
after the timed passes.  The last line of stdout is the JSON result; the
lines before it, and ``perfbench/out/``, hold the same numbers with their
stamps and the unscaled times.

With ``--trace 1`` each item runs untraced and then traced, back to back;
the run reports per-layer metrics per executed item from the traced
executions, and the tracing overhead as the difference between the two.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("cli", "cfrac", "diagram", "invariants", "montesinos", "qa",
           "seifert_oracle")
SETUP_REPEATS = 9
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
END_TO_END = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "output_bytes": "B/pass",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Api:
    """The imported qalinks modules, by short name."""

    def __init__(self, modules: dict):
        self.modules = modules
        for name, module in modules.items():
            setattr(self, name, module)

    def run_cli(self, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()


# The nominal time of reference_work(): timings are scaled to the machine
# speed at which it takes this long.
REFERENCE_S = 0.0075


def reference_work() -> int:
    """A fixed piece of pure-Python work that shares no code with qalinks:
    exact Fraction elimination and dict keys of sorted tuples, the kinds of
    operation qalinks spends its time in.  The benchmark times it before
    every item and set-up and once after the last, and scales each timing
    by REFERENCE_S over the mean of the probes just before and after it.
    The 2-vCPU VM the benchmark was built on runs the same code up to 2x
    slower, for seconds to minutes at a time, as other guests load its
    host; over 20 s windows the time of this work and of qalinks items
    moved together (correlation 0.94)."""
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    counts: dict = {}
    for k in range(3000):
        key = tuple(sorted(((k * 31 + j) % 97, j) for j in range(6)))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def probe() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scaled(walls, probes) -> list[float]:
    """Each wall time scaled to the nominal machine speed, by the probes
    taken just before and just after it (``probes`` has one more entry)."""
    return [w * 2 * REFERENCE_S / (probes[j] + probes[j + 1])
            for j, w in enumerate(walls)]


# What a CLI call pays before its first item: a fresh interpreter that
# imports qalinks and generates the workload's inputs.
SETUP_SCRIPT = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                "import qalinks.cli, qalinks.seifert_oracle, workloads; "
                "workloads.GENERATORS[sys.argv[3]](int(sys.argv[4]))")


def load_qalinks() -> Api:
    """Import qalinks from the checkout's src/."""
    modules = {m: importlib.import_module(f"qalinks.{m}") for m in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"qalinks imported from {origin}, not from {SRC}")
    return Api(modules)


@dataclass
class Execution:
    outputs: list          # [(exit code, stdout)] per CLI call
    extra: object = None   # det_oracle value in audit
    error: str = ""        # exception raised by the item
    fingerprint: str = ""  # of outputs and extra, timings dropped


def execute(workload: str, item, api: Api) -> Execution:
    if workload == "invariants":
        return Execution([api.run_cli([cmd, item.label]) for cmd in
                          ("invariants", "genus", "classify-sqp")])
    if workload == "audit":
        outputs = [api.run_cli(["invariants", item.label, "--oracle"])]
        d = api.cli.to_diagram(api.cli.parse(item.label))
        return Execution(outputs, api.seifert_oracle.det_oracle(d.oriented()))
    return Execution([api.run_cli(["certify-qa", item.label])])


def tail_percentile(n_items: int) -> int:
    """The highest percentile that leaves at least ten items beyond it."""
    return next(p for p in TAIL_PERCENTILES
                if (100 - p) / 100 * n_items >= 10)


def median_walls(runs, n_items: int) -> list[float]:
    """Each item's median latency over its executions, in item order."""
    walls: list[list[float]] = [[] for _ in range(n_items)]
    for i, wall, _ in runs:
        walls[i].append(wall)
    return [statistics.median(w) for w in walls]


def timed(workload, i, item, api, seen: set):
    """Execute one item and time it.  It starts after a full garbage
    collection, untimed, so it pays for its own garbage only, as a fresh
    CLI process would.  Only an item's first execution keeps its outputs;
    later ones keep their fingerprint."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        ex = execute(workload, item, api)
    except Exception as e:  # an item that raises counts as failed
        ex = Execution([], error=f"{type(e).__name__}: {e}")
    wall = time.perf_counter() - t0
    ex.fingerprint = checks.fingerprint(ex.outputs, ex.extra)
    if i in seen:
        ex.outputs = []
    seen.add(i)
    return i, wall, ex


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of SETUP_REPEATS fresh processes running SETUP_SCRIPT,
    and the probes around them.  Output is captured so that the wait ends
    when the pipes close: with a timeout and no pipes, ``subprocess``
    polls the child every 50 ms."""
    cmd = [sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(HERE),
           workload, str(seed)]
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(probe())
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
    probes.append(probe())
    return times, probes


def run_passes(workload, items, api, seconds):
    """Whole passes until ``seconds`` have passed, with a probe of the
    machine's speed before every item and after the last.  Returns
    ([(item index, wall s, Execution)] in execution order, [probe s])."""
    runs, probes = [], []
    seen: set = set()
    started = time.perf_counter()
    while True:
        for i, item in enumerate(items):
            probes.append(probe())
            runs.append(timed(workload, i, item, api, seen))
        if time.perf_counter() - started >= seconds:
            probes.append(probe())
            return runs, probes


def check_runs(workload, items, runs, api, golden):
    """Check the first execution of each item in full and every later one
    by its fingerprint.  Returns (failed executions, {index: reason})."""
    check = checks.CHECKS[workload]
    first: dict[int, tuple[str, str | None]] = {}
    reasons: dict[int, str] = {}
    failed = 0
    for i, _, ex in runs:
        if ex.error:
            reason = ex.error
        elif i not in first:
            try:
                reason = check(items[i], ex, api, golden)
            except Exception as e:
                reason = f"{type(e).__name__}: {e}"
            first[i] = (ex.fingerprint, reason)
        elif ex.fingerprint != first[i][0]:
            reason = "output differs from the item's first execution"
        else:
            reason = first[i][1]
        if reason is not None:
            failed += 1
            reasons.setdefault(i, reason)
    return failed, reasons


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qalinks").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def trace_passes(workload, items, api, seconds):
    """Whole passes in which each item runs untraced and then traced, back
    to back, so that drift in machine speed stays out of the overhead,
    until ``seconds`` have passed.  Returns (untraced runs, traced runs,
    tracer)."""
    tracer = tracing.Tracer()
    base, traced = [], []
    seen_base: set = set()
    seen_traced: set = set()
    started = time.perf_counter()
    while True:
        for i, item in enumerate(items):
            base.append(timed(workload, i, item, api, seen_base))
            tracer.current_item = len(traced)
            tracer.install(api.modules)
            try:
                traced.append(timed(workload, i, item, api, seen_traced))
            finally:
                tracer.uninstall()
        if time.perf_counter() - started >= seconds:
            return base, traced, tracer


def end_to_end_metrics(runs, items, tail_p, setups, peak_rss_mb) -> dict:
    walls = median_walls(runs, len(items))
    return {
        "items_per_s": len(walls) / sum(walls),
        "item_ms_p50": statistics.median(walls) * 1000,
        "item_ms_tail": percentile(walls, tail_p) * 1000,
        "output_bytes": sum(len(s.encode()) for _, _, ex in runs[:len(items)]
                            for _, s in ex.outputs),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }


def layer_metrics(tracer, base, traced) -> dict:
    layer = tracer.layer_metrics(len(traced))
    base_mean = sum(w for _, w, _ in base) / len(base)
    traced_mean = sum(w for _, w, _ in traced) / len(traced)
    layer["trace.overhead_s"] = traced_mean - base_mean
    layer["trace.overhead_frac"] = (traced_mean - base_mean) / base_mean
    return layer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qalinks" / "__init__.py").is_file():
        print(f"qalinks sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups, setup_probes = time_setup(args.workload, args.seed)
    api = load_qalinks()
    items = workloads.GENERATORS[args.workload](args.seed)

    if args.trace:
        base, traced, tracer = trace_passes(args.workload, items, api,
                                            args.seconds)
        probes = None
    else:
        base, probes = run_passes(args.workload, items, api, args.seconds)
        traced, tracer = [], None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    runs = base + traced
    golden = checks.load_golden(args.workload, args.seed)
    failed, reasons = check_runs(args.workload, items, runs, api, golden)
    problems = [f"item {items[i].label[:60]}: {r}" for i, r in reasons.items()]
    sizes = {}
    for i, item in enumerate(items):
        try:
            sizes[i] = api.cli.to_diagram(api.cli.parse(item.label)).n
        except Exception:
            sizes[i] = None

    tail_p = tail_percentile(len(items))
    raw = end_to_end_metrics(base, items, tail_p, setups, peak_rss_mb)
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "revision": revision(), "source_digest": source_digest(),
        "nproc": os.cpu_count(), "items_per_pass": len(items),
        "executions": len(runs), "passes": len(runs) // len(items),
        "tail_percentile": tail_p,
        "tail_items_beyond": sum(1 for w in median_walls(base, len(items))
                                 if w > raw["item_ms_tail"] / 1000),
        "failed_frac": failed / len(runs),
    }
    if tracer is None:
        walls = scaled([w for _, w, _ in base], probes)
        end_to_end = end_to_end_metrics(
            [(i, w, ex) for (i, _, ex), w in zip(base, walls)], items, tail_p,
            scaled(setups, setup_probes), peak_rss_mb)
        stamp["reference_s_median"] = statistics.median(probes)
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end.items()}
    else:
        layer = layer_metrics(tracer, base, traced)
        stamp["trace_overhead_s_per_item"] = layer["trace.overhead_s"]
        stamp["trace_overhead_frac"] = layer["trace.overhead_frac"]
        units = {s["name"]: s["unit"] for s in tracing.layer_metric_specs()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        problems += self_test(tracer, traced, metrics)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    medians = median_walls(base, len(items))
    item_rows = [{"index": i, "label": it.label, "family": it.family,
                  "n": sizes[i], "median_ms": medians[i] * 1000,
                  "walls_ms": [w * 1000 for j, w, _ in base if j == i]}
                 for i, it in enumerate(items)]
    if tracer is not None:
        tracer.write(OUT / f"trace-{tag}.json.gz",
                     [{"id": k, "item": i, "wall_s": w,
                       "label": items[i].label, "n": sizes[i]}
                      for k, (i, w, _) in enumerate(traced)])
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"stamp": stamp, "metrics": metrics, "unscaled": raw,
         "probes": probes, "items": item_rows, "problems": problems},
        indent=1, sort_keys=True))

    print(f"# qalinks benchmark: {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for k in ("python", "revision", "source_digest", "nproc",
              "items_per_pass", "passes", "executions"):
        print(f"# {k} {stamp[k]}")
    if tracer is None:
        for k, v in end_to_end.items():
            extra = ""
            if k == "item_ms_tail":
                extra = (f"  (p{tail_p}, {stamp['tail_items_beyond']} of "
                         f"{len(items)} items beyond)")
            print(f"{k:14s} {v:.6g} {END_TO_END[k]}{extra}")
        print(f"# times scaled to reference_work taking {REFERENCE_S} s; it "
              f"took {stamp['reference_s_median']:.6g} s (median of "
              f"{len(probes)} probes).  Unscaled:")
    else:
        print("# untraced executions, unscaled:")
    for k in ("items_per_s", "item_ms_p50", "item_ms_tail", "setup_s"):
        print(f"#   {k:14s} {raw[k]:.6g} {END_TO_END[k]}")
    print(f"{'failed_frac':14s} {stamp['failed_frac']:.6g} ratio "
          f"({failed} of {len(runs)})")
    if tracer is not None:
        print(f"# tracing overhead {stamp['trace_overhead_s_per_item']:.6g} "
              f"s/item ({stamp['trace_overhead_frac']:.3%})")
    for p in problems[:20]:
        print(f"# FAILED {p}")
    print(json.dumps({"correct": not problems, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


def self_test(tracer, traced, metrics) -> list[str]:
    """Per traced item, span self times sum to at most its wall time; every
    per-layer metric that BENCHMARK.json lists is reported."""
    problems = []
    by_item = tracer.self_time_by_item()
    for k, (_, wall, _) in enumerate(traced):
        total = by_item.get(k, 0.0)
        if total > wall + 1e-9:
            problems.append(f"self times {total:.6f} s exceed item wall "
                            f"{wall:.6f} s at traced execution {k}")
    contract = ROOT / "BENCHMARK.json"
    if contract.exists():
        listed = [m["name"] for m in json.loads(contract.read_text())["per_layer"]]
        missing = [n for n in listed if n not in metrics]
        if missing:
            problems.append(f"per-layer metrics missing: {missing}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
