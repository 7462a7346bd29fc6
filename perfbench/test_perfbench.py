"""Tests of the benchmark itself: its checks catch wrong answers, the
traced run accounts for time and names every per-layer metric, and the
command refuses to run without the sources.

    python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def api():
    return run.load_qalinks()


def _first(items, predicate):
    return next(i for i, it in enumerate(items) if predicate(it))


def _failed(workload, items, i, ex, api):
    ex.fingerprint = checks.fingerprint(ex.outputs, ex.extra)
    failed, _ = run.check_runs(workload, items, [(i, 0.0, ex)], api, None)
    return failed


def test_inputs_follow_the_seed():
    for gen in workloads.GENERATORS.values():
        assert gen(3) == gen(3)
        assert [it.label for it in gen(3)] != [it.label for it in gen(4)]


@pytest.mark.parametrize("workload", ["audit", "certify"])
def test_seed_changes_only_order_and_notation(api, workload):
    def diagrams(seed):
        return sorted(repr(api.cli.to_diagram(api.cli.parse(it.label)))
                      for it in workloads.GENERATORS[workload](seed))
    assert diagrams(0) == diagrams(1) == diagrams(2)


def test_timing_metrics_take_scaled_item_medians():
    items = workloads.certify_items(0)
    runs = [(i, 0.01 * (i + 1), None) for i in range(len(items))]
    runs += [(i, 0.01 * (i + 1) + (1.0 if i == 0 else 0.0), None)
             for i in range(len(items))]
    runs += [(i, 0.01 * (i + 1), None) for i in range(len(items))]
    walls = run.median_walls(runs, len(items))
    assert walls == [0.01 * (i + 1) for i in range(len(items))]
    ref = run.REFERENCE_S
    assert run.scaled([1.0, 1.0], [ref, ref, 3 * ref]) == [1.0, 0.5]
    for gen in workloads.GENERATORS.values():
        n = len(gen(0))
        p = run.tail_percentile(n)
        assert p > 50 and (100 - p) / 100 * n >= 10


def test_wrong_determinant_counts_as_failed(api):
    items = workloads.invariants_items(0)
    i = _first(items, lambda it: it.label.startswith("P("))
    ex = run.execute("invariants", items[i], api)
    assert _failed("invariants", items, i, ex, api) == 0
    code, stdout = ex.outputs[0]
    rep = json.loads(stdout)
    rep["determinant"] = int(rep["determinant"]) + 2
    bad = run.Execution([(code, json.dumps(rep))] + ex.outputs[1:])
    assert _failed("invariants", items, i, bad, api) == 1


def test_golden_digest_catches_a_changed_report(api):
    items = workloads.invariants_items(checks.GOLDEN_SEED)
    golden = checks.load_golden("invariants", checks.GOLDEN_SEED)
    ex = run.execute("invariants", items[0], api)
    assert checks.check_invariants(items[0], ex, api, golden) is None
    rep = json.loads(ex.outputs[0][1])
    rep["writhe"] += 1
    bad = run.Execution([(0, json.dumps(rep))] + ex.outputs[1:])
    assert checks.check_invariants(items[0], bad, api, golden) is not None


def _tamper_nested(cert_obj, field, delta):
    node = cert_obj
    while not isinstance(node["children"][0], str):
        node = node["children"][0]
    node[field] = node[field] + delta if delta else node[field] + "x"


@pytest.mark.parametrize("field,delta,nested", [
    ("key", None, True), ("det0", 1, True), ("crossing", 99, False),
    ("detInf", -1, False)])
def test_tampered_certificate_counts_as_failed(api, field, delta, nested):
    items = workloads.certify_items(0)
    i = _first(items, lambda it: it.family == "cf-alt10")
    ex = run.execute("certify", items[i], api)
    assert _failed("certify", items, i, ex, api) == 0
    rep = json.loads(ex.outputs[0][1])
    cert = copy.deepcopy(rep["qa"]["certificate"])
    if nested:
        _tamper_nested(cert, field, delta)
    else:
        cert[field] += delta
    rep["qa"]["certificate"] = cert
    bad = run.Execution([(0, json.dumps(rep))])
    assert _failed("certify", items, i, bad, api) == 1


def test_audit_disagreement_counts_as_failed(api):
    items = workloads.audit_items(0)
    i = _first(items, lambda it: it.expect["n"] <= 6)
    ex = run.execute("audit", items[i], api)
    assert _failed("audit", items, i, ex, api) == 0
    bad = run.Execution(ex.outputs, extra=ex.extra + 1)
    assert _failed("audit", items, i, bad, api) == 1


def test_changed_later_execution_counts_as_failed(api):
    items = workloads.certify_items(0)
    i = _first(items, lambda it: it.family == "det-one")
    seen = set()
    runs = [run.timed("certify", i, items[i], api, seen) for _ in range(3)]
    assert run.check_runs("certify", items, runs, api, None)[0] == 0
    runs[2][2].fingerprint = "0" * 16
    assert run.check_runs("certify", items, runs, api, None)[0] == 1


SMALL = {
    "invariants": lambda it: it.family.startswith(("pretzel", "montesinos")),
    "audit": lambda it: it.expect["n"] <= 8,
    "certify": lambda it: it.family in ("cf-alt5", "det-one", "not-qa")
    and "P(3, 3, -2" not in it.label,
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_run_accounts_for_time_and_names(api, workload):
    items = [it for it in workloads.GENERATORS[workload](0)
             if SMALL[workload](it)][:6]
    _, traced, tracer = run.trace_passes(workload, items, api, 0.0)
    assert run.check_runs(workload, items, traced, api, None)[0] == 0
    layer = tracer.layer_metrics(len(traced))
    layer["trace.overhead_s"] = layer["trace.overhead_frac"] = 0.0
    assert run.self_test(tracer, traced, layer) == []
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(m["name"] for m in listed) == sorted(layer)
    # the workloads separate the layers
    keys = layer["diagram.canonical_key.calls"]
    assert (keys > 0) == (workload == "certify")
    assert (layer["seifert_oracle.to_braid_form.calls"] > 0) == (
        workload == "audit")
    assert (layer["invariants.det_spanning_trees.calls"] > 0) == (
        workload != "invariants")


def test_uninstall_restores_qalinks(api):
    before = api.invariants.det_exact, api.diagram.Diagram.canonical_key
    tracer = tracing.Tracer()
    tracer.install(api.modules)
    assert api.seifert_oracle.det_exact is not before[0]
    tracer.uninstall()
    assert (api.invariants.det_exact, api.diagram.Diagram.canonical_key) \
        == before
    assert api.seifert_oracle.det_exact is before[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
