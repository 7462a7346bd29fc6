"""Span tracing of qalinks from outside the package.

The tracer wraps public functions and Diagram methods and installs each
wrapper in every qalinks module namespace that holds the original, so a
name imported with ``from .invariants import det_exact`` is traced as
well as its definition site.  A span records name, start, end, parent
span and item id; spans stay in memory until the run writes them out.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter

# (module, attribute) -> span name.  All compile_* entry points share one
# span name; so do the routes into a kernel (see ROUTES).
FUNCTIONS = {
    ("cli", "parse"): "cli.parse",
    ("cli", "main"): "cli.main",
    ("cfrac", "cf_strict"): "cfrac.cf_strict",
    ("montesinos", "compile_rational"): "montesinos.compile",
    ("montesinos", "compile_montesinos"): "montesinos.compile",
    ("montesinos", "compile_data"): "montesinos.compile",
    ("montesinos", "compile_two_bridge"): "montesinos.compile",
    ("montesinos", "sqp_verdict"): "montesinos.sqp_verdict",
    ("invariants", "det_exact"): "invariants.det_exact",
    ("invariants", "signature_exact"): "invariants.signature_exact",
    ("invariants", "goeritz_matrix"): "invariants.goeritz_matrix",
    ("invariants", "det_spanning_trees"): "invariants.det_spanning_trees",
    ("invariants", "genus_certified"): "invariants.genus_certified",
    ("invariants", "find_positive_orientation"):
        "invariants.find_positive_orientation",
    ("seifert_oracle", "to_braid_form"): "seifert_oracle.to_braid_form",
    ("seifert_oracle", "seifert_form"): "seifert_oracle.seifert_form",
    ("seifert_oracle", "braid_word"): "seifert_oracle.braid_word",
    ("qa", "certify"): "qa.certify",
    ("qa", "validate_certificate"): "qa.validate_certificate",
}

DIAGRAM_METHODS = ("canonical_key", "simplify", "resolve", "faces",
                   "is_split", "checkerboard", "white_corners", "black_graph",
                   "mirror", "validate")

# The matrix kernels are reached by several routes; the module whose
# namespace a call goes through names the route.  qa imports det_exact
# (for its Kirchhoff tree count) but not signature_exact.
ROUTE_OF_MODULE = {"invariants": "goeritz", "seifert_oracle": "oracle",
                   "qa": "qa"}
ROUTES = {"invariants.det_exact": ("goeritz", "oracle", "qa"),
          "invariants.signature_exact": ("goeritz", "oracle")}

SPAN_NAMES = sorted(set(FUNCTIONS.values())
                    | {f"diagram.{m}" for m in DIAGRAM_METHODS})

COUNTERS = ([f"{k}.dim_sum" for k in ROUTES]
            + [f"{k}.dim_sum_{r}" for k, rs in ROUTES.items() for r in rs]
            + ["invariants.det_spanning_trees.edges_sum",
               "seifert_oracle.braid_word.len_sum",
               "qa.validate_certificate.search_calls",
               "qa.validate_certificate.replay_calls",
               "qa.memo_keys", "qa.cert_nodes", "qa.cert_distinct_keys"])


def layer_metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, per executed item."""
    specs = []
    for name in SPAN_NAMES:
        specs.append({"name": f"{name}.calls", "unit": "count/item",
                      "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s/item",
                      "better": "lower"})
    for name in COUNTERS:
        specs.append({"name": name, "unit": "count/item", "better": "lower"})
    specs.append({"name": "qa.cert_distinct_keys_per_node", "unit": "ratio",
                  "better": "higher"})
    specs.append({"name": "trace.overhead_s", "unit": "s/item",
                  "better": "lower"})
    specs.append({"name": "trace.overhead_frac", "unit": "ratio",
                  "better": "lower"})
    return specs


def _certificate_shape(cert) -> tuple[int, int]:
    """(nodes, distinct keys) of a certificate tree; all unknot leaves
    share one key."""
    nodes = 0
    keys = set()
    stack = [cert]
    while stack:
        c = stack.pop()
        nodes += 1
        keys.add(c.key)
        if not c.is_leaf:
            stack.extend(c.children)
    return nodes, len(keys)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.current_item = -1
        self._open: list[int] = []       # span ids of open spans
        self._child: list[float] = []    # child time covered, per open span
        self._certify_depth = 0
        self._memo: dict = {}
        self._restore: list[tuple[object, str, object]] = []

    # --------------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _wrap(self, fn, name: str, after=None, before=None, finish=None):
        nid = self._id(name)
        tr = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(tr._open[-1] if tr._open else -1)
            tr.item.append(tr.current_item)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.self_s.append(0.0)
            tr._open.append(sid)
            tr._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._open.pop()
                covered = tr._child.pop()
                if tr._child:
                    tr._child[-1] += t1 - t0
                tr.start[sid] = t0
                tr.end[sid] = t1
                tr.self_s[sid] = (t1 - t0) - covered
                if finish is not None:
                    finish()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------ counters

    def _add(self, key: str, value: int) -> None:
        self.counts[key] += value

    def _kernel_after(self, name: str, route: str):
        def after(args, kwargs, result):
            dim = len(args[0])
            self._add(f"{name}.dim_sum", dim)
            if route in ROUTES[name]:
                self._add(f"{name}.dim_sum_{route}", dim)
        return after

    def _certify_before(self, args, kwargs):
        self._certify_depth += 1
        # certify(d, budget=..., memo=None): pass our own memo to count it
        if len(args) < 3 and kwargs.get("memo") is None:
            kwargs = dict(kwargs, memo={})
        self._memo = kwargs.get("memo", args[2] if len(args) > 2 else None)
        return args, kwargs

    def _certify_finish(self):
        self._certify_depth -= 1

    def _certify_after(self, args, kwargs, result):
        self._add("qa.memo_keys", len(self._memo))
        if result.certificate is not None:
            nodes, keys = _certificate_shape(result.certificate)
            self._add("qa.cert_nodes", nodes)
            self._add("qa.cert_distinct_keys", keys)

    def _validate_before(self, args, kwargs):
        if self._certify_depth:
            self._add("qa.validate_certificate.search_calls", 1)
        else:
            self._add("qa.validate_certificate.replay_calls", 1)
        return args, kwargs

    # ------------------------------------------------------------- install

    def install(self, modules: dict) -> None:
        """Patch the qalinks modules given as {short name: module}."""
        diagram_cls = modules["diagram"].Diagram
        for meth in DIAGRAM_METHODS:
            orig = diagram_cls.__dict__[meth]
            self._restore.append((diagram_cls, meth, orig))
            setattr(diagram_cls, meth, self._wrap(orig, f"diagram.{meth}"))
        for (mod, attr), name in FUNCTIONS.items():
            orig = getattr(modules[mod], attr)
            shared = None
            for short, module in modules.items():
                if module.__dict__.get(attr) is not orig:
                    continue
                after = before = finish = None
                if name in ROUTES:
                    after = self._kernel_after(
                        name, ROUTE_OF_MODULE.get(short, "other"))
                elif shared is not None:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, shared)
                    continue
                elif name == "invariants.det_spanning_trees":
                    def after(a, k, r):
                        self._add("invariants.det_spanning_trees.edges_sum",
                                  len(a[0].edges))
                elif name == "seifert_oracle.braid_word":
                    def after(a, k, r):
                        self._add("seifert_oracle.braid_word.len_sum",
                                  len(r[0]))
                elif name == "qa.certify":
                    before, after = self._certify_before, self._certify_after
                    finish = self._certify_finish
                elif name == "qa.validate_certificate":
                    before = self._validate_before
                wrapper = self._wrap(orig, name, after=after, before=before,
                                     finish=finish)
                if name not in ROUTES:
                    shared = wrapper
                self._restore.append((module, attr, orig))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ------------------------------------------------------------- results

    def self_time_by_item(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for it, s in zip(self.item, self.self_s):
            out[it] = out.get(it, 0.0) + s
        return out

    def layer_metrics(self, executions: int) -> dict[str, float]:
        calls = {n: 0 for n in SPAN_NAMES}
        self_s = {n: 0.0 for n in SPAN_NAMES}
        for nid, s in zip(self.name, self.self_s):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += s
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / executions
            out[f"{name}.self_s"] = self_s[name] / executions
        for key, value in self.counts.items():
            out[key] = value / executions
        nodes = self.counts["qa.cert_nodes"]
        out["qa.cert_distinct_keys_per_node"] = (
            self.counts["qa.cert_distinct_keys"] / nodes if nodes else 0.0)
        return out

    def write(self, path, items: list[dict]) -> None:
        """Write spans and the item table (id, label, n, wall) as gzip JSON."""
        doc = {"names": self.names, "items": items,
               "spans": {"name": self.name.tolist(),
                         "parent": self.parent.tolist(),
                         "item": self.item.tolist(),
                         "start": self.start.tolist(),
                         "end": self.end.tolist(),
                         "self_s": self.self_s.tolist()}}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
