import collections
import dataclasses
import hashlib
import inspect
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalinks import diagram, qa
from qalinks.cfrac import PreconditionViolated
from qalinks.cli import corpus_inputs, main, parse, to_diagram
from qalinks.diagram import Diagram, MalformedDiagram, UNKNOT
from qalinks.invariants import determinant, laplacian_minor
from qalinks.montesinos import compile_montesinos, compile_rational
from qalinks.qa import (
    QACertificate,
    certify,
    mirror_identity_check,
    prop224_check,
    twist_extend,
    validate_certificate,
)

from test_canonical_key import disjoint_union, relabel
from test_diagram import fig8, hopf, trefoil


def replacement_pair(ts):
    """Diagram pair related by swapping an elementary -1/2 clasp for -2
    horizontal twists, with the designated negative crossing pairs."""
    d_half = compile_montesinos(0, ts + [[-2]])
    d_two = compile_montesinos(-2, ts)
    return (d_half, d_two,
            ((d_half.n - 2, d_half.n - 1), (d_two.n - 2, d_two.n - 1)))


def cert_depth(cert):
    """Longest root-to-leaf path, each shared node measured once."""
    seen = {}

    def walk(node):
        if node.is_leaf:
            return 0
        if id(node) not in seen:
            seen[id(node)] = 1 + max(map(walk, node.children))
        return seen[id(node)]

    return walk(cert)


class TestCertify:
    def test_unknot_leaf(self):
        r = certify(UNKNOT)
        assert r.certified and r.certificate.is_leaf

    def test_split_unlink(self):
        assert certify(Diagram((), free_loops=2)).kind == "DetZeroSplit"

    def test_trefoil(self):
        r = certify(trefoil())
        assert r.certified
        assert r.certificate.dets == (3, 2, 1)
        assert r.certificate.key == trefoil().canonical_key().decode()
        assert cert_depth(r.certificate) <= 3

    def test_fig8_and_hopf(self):
        for d in (fig8(), hopf()):
            r = certify(d)
            assert r.certified
            assert validate_certificate(r.certificate, d)

    def test_alternating_montesinos(self):
        d = compile_montesinos(0, [[2], [3], [7]])
        r = certify(d)
        assert r.certified
        assert r.certificate.dets[0] == 41
        assert validate_certificate(r.certificate, d)

    def test_determinant_decreases(self):
        def walk(cert):
            if cert.is_leaf:
                return
            det, det0, detinf = cert.dets
            assert det == det0 + detinf and det0 >= 1 and detinf >= 1
            for child in cert.children:
                if not child.is_leaf:
                    assert child.dets[0] < det
                walk(child)
        walk(certify(compile_montesinos(0, [[2], [3], [7]])).certificate)

    def test_budget_exceeded(self):
        assert certify(compile_montesinos(0, [[2], [3], [7]]),
                       budget=2).kind == "BudgetExceeded"

    def test_bad_budget(self):
        with pytest.raises(PreconditionViolated):
            certify(trefoil(), budget=0)

    def test_memo_shared(self):
        memo = {}
        r1 = certify(trefoil(), memo=memo)
        assert r1.certified and memo
        r2 = certify(trefoil(), memo=memo)
        assert r2.certified

    def test_memo_hit_does_not_replay(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qa, "validate_certificate",
                            lambda *args: calls.append(args))
        memo = {}
        r1 = certify(trefoil(), memo=memo)
        r2 = certify(trefoil(), memo=memo)
        assert dumps(r2.certificate) == dumps(r1.certificate)
        assert calls == []

    def test_memo_from_smaller_budgets_serves_a_larger_one(self):
        # a fresh search needs 558 nodes here, and 261 after the smaller
        # budgets; the negative entries they leave hold at any budget
        d = to_diagram(parse("M(2; -1/4, -1/4, 2/3, 3/4)"))
        assert certify(d, budget=334).kind == "BudgetExceeded"
        memo = {}
        for budget in (3, 30, 300):
            outcome = certify(d, budget=budget, memo=memo)
            assert outcome.kind == "BudgetExceeded"
        r = certify(d, budget=334, memo=memo)
        assert r.certified and validate_certificate(r.certificate, d)


class TestValidate:
    def test_trefoil_roundtrip(self):
        r = certify(trefoil())
        assert validate_certificate(r.certificate, trefoil())

    def test_tampered_rejected(self):
        r = certify(trefoil())
        obj = r.certificate.to_obj()
        for det0, detinf in ((2, 2), (1, 2)):
            # (1, 2) keeps the sum but swaps the children's determinants
            obj["det0"], obj["detInf"] = det0, detinf
            assert not validate_certificate(QACertificate.from_obj(obj),
                                            trefoil())

    def test_deep_certificate_replays_under_a_tight_recursion_limit(self):
        # CF[2,-3]x48 prints 98 levels deep; replay takes no Python frame
        # per level, and a node tampered near the bottom fails it
        d = cf_23(48)
        cert = certify(d).certificate
        obj = cert.to_obj()
        # the deepest printed node whose children's dets differ
        (depth, deep), stack = (0, obj), [(0, obj)]
        while stack:
            level, node = stack.pop()
            if node["det0"] != node["detInf"] and level > depth:
                depth, deep = level, node
            stack += [(level + 1, kid) for kid in node["children"]
                      if isinstance(kid, dict)]
        assert depth > 90
        deep["det0"], deep["detInf"] = deep["detInf"], deep["det0"]
        tampered = QACertificate.from_obj(obj)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            valid = validate_certificate(cert, d)
            forged = validate_certificate(tampered, d)
        finally:
            sys.setrecursionlimit(limit)
        assert valid and not forged

    def test_leaf_vs_nontrivial(self):
        assert not validate_certificate(QACertificate.unknot(), trefoil())

    def test_wrong_diagram(self):
        r = certify(trefoil())
        assert not validate_certificate(r.certificate, fig8())

    def test_json_roundtrip_exact(self):
        for d in (trefoil(), fig8(), compile_montesinos(0, [[2], [3], [7]])):
            cert = certify(d).certificate
            text = dumps(cert)
            assert dumps(QACertificate.from_obj(json.loads(text))) == text

    def test_search_built_and_parsed_certificates_replay_alike(self):
        # replay skips the key BFS only where a search-built node stands on
        # its own source; a parsed copy keys every node, and every verdict
        # agrees: on the input, on a split diagram, and on a relabeled
        # input, which some two-bridge certificates still certify, with
        # their nodes below the root on pairings other than their sources
        rng = random.Random(0)
        certified = 0
        for label in corpus_inputs(0)[::5]:
            d = to_diagram(parse(label))
            r = certify(d)
            if not r.certified:
                continue
            certified += 1
            cert = r.certificate
            parsed = QACertificate.from_obj(cert.to_obj())
            s = d.simplify()
            moved = relabel(s, rng.sample(range(s.n), s.n),
                            [rng.choice((0, 2)) for _ in range(s.n)], False)
            for target, want in ((d, True),
                                 (disjoint_union(d, trefoil()), False),
                                 (moved, None)):
                verdicts = {validate_certificate(c, target)
                            for c in (cert, parsed)}
                assert len(verdicts) == 1, label
                assert want is None or verdicts == {want}, label
        assert certified == 34

    def test_a_search_built_node_with_another_key_or_source_fails(self):
        d = cf_23(2)
        cert = certify(d).certificate
        zero, infinity = cert.children
        assert not zero.is_leaf and zero._key is None
        other = trefoil()
        for forged in (
                dataclasses.replace(zero, _key="loops:0;"),
                dataclasses.replace(zero, _key=other.canonical_key().decode()),
                dataclasses.replace(zero, source=(other.pairing, 0))):
            assert not validate_certificate(
                dataclasses.replace(cert, children=(forged, infinity)), d)
        # its own key, given as text, replays
        keyed = dataclasses.replace(zero, _key=zero.key)
        assert validate_certificate(
            dataclasses.replace(cert, children=(keyed, infinity)), d)


class TestEachReplayCheck:
    """Forged certificates on M(0; 1/3, -1/3, 1/4), each rejected by one
    replay check alone.  Its simplified diagram s (n = 10, det 9) has at
    crossing 0 the children det0 = 10 and detInf = 1, |10 - 1| = 9, and
    both certify, so the determinant sum is all that fails there."""

    D = to_diagram(parse("M(0; 1/3, -1/3, 1/4)"))

    def forged(self, crossing, dets):
        s = self.D.simplify()
        kids = tuple(qa._certify(s.resolve(0, kind).simplify(),
                                 qa._Budget(10 ** 5), {}).certificate
                     for kind in ("zero", "infinity"))
        assert (s.n, determinant(s)) == (10, 9)
        assert [1 if k.is_leaf else k.dets[0] for k in kids] == [10, 1]
        return QACertificate(s.canonical_key().decode(), crossing, dets,
                             kids)

    def test_the_true_dets_fail_the_sum_alone(self):
        # the tree count (9) and the children's dets (10, 1) all agree
        assert validate_certificate(self.forged(0, (9, 10, 1)),
                                    self.D) is False

    def test_a_sum_that_holds_fails_the_tree_count_alone(self):
        assert validate_certificate(self.forged(0, (11, 10, 1)),
                                    self.D) is False

    def test_a_crossing_out_of_range_is_rejected_not_raised(self):
        # dets that pass the sum and the tree count, so only the range
        # check stands between the crossing and ``resolve``
        n = self.D.simplify().n
        assert validate_certificate(self.forged(n, (9, 8, 1)),
                                    self.D) is False


def dumps(cert):
    return json.dumps(cert.to_obj(), sort_keys=True, separators=(",", ":"))


def internal_nodes(cert):
    """The distinct internal nodes of a certificate, by identity."""
    seen, stack = {}, [cert]
    while stack:
        node = stack.pop()
        if not node.is_leaf and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
    return list(seen.values())


def tree_obj(cert):
    """The certificate as a reference-free tree, every node in full."""
    if cert.is_leaf:
        return "unknot"
    obj = {"key": cert.key, "crossing": cert.crossing, "det": cert.dets[0],
           "det0": cert.dets[1], "detInf": cert.dets[2],
           "children": [tree_obj(c) for c in cert.children]}
    if cert.relabel is not None:
        obj["relabel"] = list(cert.relabel)
    return obj


def count_replay_trees(monkeypatch, cert, d):
    calls = []
    trees = qa.det_spanning_trees
    monkeypatch.setattr(qa, "det_spanning_trees",
                        lambda g: calls.append(g) or trees(g))
    assert validate_certificate(cert, d)
    monkeypatch.setattr(qa, "det_spanning_trees", trees)
    return len(calls)


def trefoil_obj():
    return certify(trefoil()).certificate.to_obj()


def set_path(obj, path, value):
    """obj with the entry at path (keys and indices) replaced by value."""
    obj = json.loads(json.dumps(obj))
    at = obj
    for step in path[:-1]:
        at = at[step]
    if value is DELETE:
        del at[path[-1]]
    else:
        at[path[-1]] = value
    return obj


DELETE = object()
ZERO = ("children", 0)  # the trefoil's zero child: det 2, two unknot leaves

MALFORMED = [
    # a reference to a node that is not complete yet
    (("children", 1), "#1"),
    (ZERO + ("children", 0), "#0"),
    # malformed references
    (("children", 1), "#"),
    (("children", 1), "#00"),
    (("children", 1), "#-1"),
    (("children", 1), "# 0"),
    (("children", 1), "0"),
    (("children", 1), "Unknot"),
    # not exactly two children
    (ZERO + ("children",), ["unknot"]),
    (ZERO + ("children",), ["unknot", "unknot", "unknot"]),
    (ZERO + ("children",), {"0": "unknot", "1": "unknot"}),
    # missing fields
    *((ZERO + (f,), DELETE)
      for f in ("key", "crossing", "det", "det0", "detInf", "children")),
    # number fields that are not ints
    (("det",), True),
    (ZERO + ("crossing",), False),
    (("det0",), 2.0),
    (("detInf",), "1"),
    (ZERO + ("det",), None),
    # keys that are not strings
    (("key",), 7),
    (ZERO + ("key",), None),
    # nodes that are not objects
    (ZERO, ["unknot", "unknot"]),
    (ZERO, 2),
    # relabels that are not lists of integers
    (("relabel",), None),
    (("relabel",), "0,4,8"),
    (("relabel",), {"0": 0}),
    (("relabel",), [0, 4.0, 8]),
    (("relabel",), [0, True, 8]),
    (ZERO + ("relabel",), [0, None]),
]


class TestCertificateJSON:
    def test_back_references_round_trip_exactly(self):
        texts = []
        for d in (trefoil(), fig8(), compile_montesinos(0, [[2], [3], [7]]),
                  cf_23(3)):
            text = dumps(certify(d).certificate)
            assert dumps(QACertificate.from_obj(json.loads(text))) == text
            texts.append(text)
        assert '"#' in texts[-1]

    def test_each_internal_node_printed_once(self):
        cert = certify(cf_23(3)).certificate
        nodes = internal_nodes(cert)
        dicts, refs, stack = [], [], [cert.to_obj()]
        while stack:
            obj = stack.pop()
            if isinstance(obj, dict):
                dicts.append((obj["key"], obj["det"], obj["det0"],
                              obj["detInf"]))
                stack.extend(obj["children"])
            elif obj != "unknot":
                refs.append(int(obj[1:]))
        assert sorted(dicts) == sorted((node.key, *node.dets)
                                       for node in nodes)
        assert refs and max(refs) < len(nodes)

    def test_parsed_certificate_shares_replay(self, monkeypatch):
        d = cf_23(3)
        cert = certify(d).certificate
        parsed = QACertificate.from_obj(json.loads(dumps(cert)))
        assert len(internal_nodes(parsed)) == len(internal_nodes(cert))
        calls = count_replay_trees(monkeypatch, cert, d)
        assert count_replay_trees(monkeypatch, parsed, d) == calls
        internal = [node for node, _ in tree_nodes(cert, d)
                    if not node.is_leaf]
        assert calls < len(internal)

    def test_reference_free_tree_loads_and_replays(self):
        d = cf_23(2)
        cert = certify(d).certificate
        old = tree_obj(cert)
        assert old != cert.to_obj()  # the search shared a subtree
        loaded = QACertificate.from_obj(json.loads(json.dumps(old)))
        assert validate_certificate(loaded, d)
        assert loaded.to_obj() == old

    @pytest.mark.parametrize("path,value", MALFORMED)
    def test_malformed_rejected(self, path, value):
        obj = set_path(trefoil_obj(), path, value)
        with pytest.raises(PreconditionViolated):
            QACertificate.from_obj(obj)

    def test_malformed_roots_rejected(self):
        for obj in ("#0", "", None, 3, [], ["unknot", "unknot"]):
            with pytest.raises(PreconditionViolated):
                QACertificate.from_obj(obj)

    def test_reference_to_completed_node_loads(self):
        obj = set_path(trefoil_obj(), ("children", 1), "#0")
        cert = QACertificate.from_obj(obj)
        assert cert.children[1] is cert.children[0]
        assert not validate_certificate(cert, trefoil())

    def test_long_reference_chain(self):
        # node i has node i-1 as both children: 10,000 nodes deep, and
        # 2^10000 leaves as a tree
        obj = {"key": "k", "crossing": 0, "det": 2, "det0": 1, "detInf": 1,
               "children": ["unknot", "unknot"]}
        for i in range(1, 10000):
            obj = {"key": "k", "crossing": 0, "det": 2, "det0": 1,
                   "detInf": 1, "children": [obj, f"#{i - 1}"]}
        cert = QACertificate.from_obj(obj)
        assert len(internal_nodes(cert)) == 10000
        out, depth = cert.to_obj(), 0
        while out != "unknot":
            assert out["children"][1] in ("unknot", f"#{9998 - depth}")
            out, depth = out["children"][0], depth + 1
        assert depth == 10000


def relabeled_obj(cert, relabel):
    """The JSON of ``cert`` with its root's relabel set to ``relabel``."""
    obj = tree_obj(cert)
    obj["relabel"] = relabel
    return obj


def cf_23_certificate():
    """CF[2,-3]x2, its certificate and the root's relabel as a list."""
    d = cf_23(2)
    cert = certify(d).certificate
    return d, cert, list(cert.relabel)


# a relabel of CF[2,-3]x2 (n = 10) -> one that is not a relabeling
TAMPERED_RELABELS = {
    "one short": lambda r: r[:-1],
    "one long": lambda r: r + [40],
    "crossing repeated": lambda r: [r[0]] + r[1:-1] + [r[0]],
    "crossing repeated, other slot": lambda r: [r[0] ^ 2] + r[1:-1] + [r[0]],
    "odd turn": lambda r: [r[0] + 1] + r[1:],
    "crossing out of range": lambda r: r[:-1] + [40],
    "negative": lambda r: r[:-1] + [-4],
}


class TestRelabelField:
    """The root's ``relabel``: the renaming the search ran in."""

    def test_root_relabel_is_an_even_crossing_permutation(self):
        d, cert, relabel = cf_23_certificate()
        assert sorted(r >> 2 for r in relabel) == list(range(d.n))
        assert all(r % 2 == 0 for r in relabel)
        assert all(node.relabel is None
                   for node in internal_nodes(cert) if node is not cert)
        assert validate_certificate(cert, d)

    @pytest.mark.parametrize("name", sorted(TAMPERED_RELABELS))
    def test_tampered_relabel_fails_replay(self, name):
        d, cert, relabel = cf_23_certificate()
        obj = relabeled_obj(cert, TAMPERED_RELABELS[name](relabel))
        assert not validate_certificate(QACertificate.from_obj(obj), d)

    def test_relabel_below_the_root_fails_replay(self):
        d, cert, relabel = cf_23_certificate()
        child = cert.children[0]
        assert child.relabel is None and not child.is_leaf
        # a valid relabeling of the child's diagram, turning nothing
        n = d.simplify().resolve(relabel[cert.crossing] >> 2, "zero") \
            .simplify().n
        obj = tree_obj(cert)
        obj["children"][0]["relabel"] = [4 * c for c in range(n)]
        assert not validate_certificate(QACertificate.from_obj(obj), d)

    @given(st.data())
    @settings(max_examples=60)
    def test_fuzzed_relabel_never_raises_in_replay(self, data):
        d, cert, relabel = cf_23_certificate()
        value = data.draw(st.one_of(
            st.lists(st.integers(-8, 48), max_size=12),
            st.permutations(relabel),
            st.lists(st.sampled_from((0, 4, 1.0, True, None, "4")),
                     max_size=12),
            st.none(), st.booleans(), st.text(max_size=3)))
        try:
            loaded = QACertificate.from_obj(relabeled_obj(cert, value))
        except PreconditionViolated:
            assert not (isinstance(value, list)
                        and all(type(r) is int for r in value))
            return
        ok = validate_certificate(loaded, d)
        assert ok in (True, False)
        if ok:
            assert qa._is_relabeling(loaded.relabel, d.n)

    def test_certificate_without_relabel_loads_and_replays(self):
        # the diagram the search ran on is its own sweep order, so its
        # certificate has no relabel; as a tree it is the old format
        d, cert, relabel = cf_23_certificate()
        t = d.simplify().relabeled(relabel)
        inner = certify(t).certificate
        assert inner.relabel is None and inner.dets == cert.dets
        obj = json.loads(json.dumps(tree_obj(inner)))
        assert "relabel" not in obj
        assert validate_certificate(QACertificate.from_obj(obj), t)

    def test_replay_runs_no_sweep_or_search(self, monkeypatch):
        d, cert, _ = cf_23_certificate()
        text = dumps(cert)

        def refuse(*args):
            raise AssertionError("sweep or search code ran in replay")

        monkeypatch.setattr(Diagram, "sweep_order", refuse)
        monkeypatch.setattr(qa, "_sweep_relabel", refuse)
        monkeypatch.setattr(qa, "_certify", refuse)
        parsed = QACertificate.from_obj(json.loads(text))
        assert validate_certificate(parsed, d)

    def test_memo_holds_no_relabeled_node(self):
        d, _, _ = cf_23_certificate()
        memo = {}
        roots = [certify(d, memo=memo).certificate for _ in range(2)]
        assert all(root.relabel is not None for root in roots)
        stored = [hit.certificate for hit in memo.values() if hit.certified]
        assert all(node.relabel is None
                   for cert in stored for node in internal_nodes(cert))


def certify_summary(d):
    """The outcome, the root det and the distinct internal nodes of
    ``certify(d)``; a certificate must replay on d's own labels."""
    r = certify(d)
    if not r.certified:
        return r.kind, None, 0
    assert validate_certificate(r.certificate, d)
    return r.kind, r.certificate.dets[0], len(internal_nodes(r.certificate))


def seeded_relabeling(d, seed):
    """A random crossing permutation with even turns, drawn from ``seed``,
    and a reflection of the plane for odd seeds."""
    rng = random.Random(seed)
    perm = list(range(d.n))
    rng.shuffle(perm)
    rot = [rng.choice((0, 2)) for _ in range(d.n)]
    moved = relabel(d, perm, rot, seed % 2 == 1)
    moved.validate()
    return moved


# the certify ladder's families, with the outcome of each; the two
# Montesinos links at the end ended BudgetExceeded on relabelings when
# the search branched on its least resolution determinant first
RELABELED_LADDER = [
    ("CF[2, -3, 2, -3]", "Certified"),
    ("CF[2, -2, 3, -2, 3, -3]", "Certified"),
    ("P(3, 3, 3)", "Certified"),
    ("P(3, 5, 5)", "Certified"),
    ("P(3, 3, 3, 3, 3)", "Certified"),
    ("M(0; 1/2, 1/3, 2/5)", "Certified"),
    ("M(0; 1/3, 5/7, 1/4)", "Certified"),
    ("R(7/24)", "Certified"),
    ("R(23/60)", "Certified"),
    ("P(3, 3, -2, 3)", "NotCertifiedHere"),
    ("M(0; 1/3, 1/3, -1/3)", "NotCertifiedHere"),
    ("P(-2, 3, 5)", "NotCertifiedHere"),
    ("M(2; -3/4, 4/5, 3/4, 1/5)", "Certified"),
    ("M(-1; -1/4, 1/5, -4/5, 3/5)", "Certified"),
]


@pytest.mark.parametrize("label,kind", RELABELED_LADDER)
def test_certify_is_a_function_of_the_map(label, kind):
    d = to_diagram(parse(label))
    want = certify_summary(d)
    assert want[0] == kind
    for seed in range(4):
        assert certify_summary(seeded_relabeling(d, seed)) == want


def cf_23(k):
    """The closure of CF[2, -3] repeated k times: n = 5k, alternating."""
    return to_diagram(parse("CF[" + ", ".join(["2, -3"] * k) + "]"))


def fresh_resolution_dets(s):
    return [(determinant(s.resolve(c, "zero")),
             determinant(s.resolve(c, "infinity"))) for c in range(s.n)]


def parallel_classes(edges):
    """The classes of Tait graph edges, ``TaitEdge``s or the search's
    (u, v, sign) triples, with one pair of ends and sign."""
    return {(min(u, v), max(u, v), sign) for u, v, sign, *_ in edges}


def tree_count_dets(s):
    """The search's resolution determinants of s, off its white graph."""
    return [pair[:2] for pair in qa._resolution_dets(qa._white_tait(s))]


def tree_nodes(cert, d):
    """(node, simplified diagram) for every node of the certificate tree,
    in replay order, from fresh resolutions."""
    out = []

    def walk(node, dd):
        s = dd.simplify()
        out.append((node, s))
        if not node.is_leaf:
            c = node.crossing
            if node.relabel is not None:
                s, c = s.relabeled(node.relabel), node.relabel[c] >> 2
            walk(node.children[0], s.resolve(c, "zero"))
            walk(node.children[1], s.resolve(c, "infinity"))

    walk(cert, d)
    return out


SIMPLIFIED_CORPUS = [s for s in (to_diagram(parse(label)).simplify()
                                 for label in corpus_inputs(0))
                     if s.n and not s.is_split()]


@given(st.data())
@settings(max_examples=50)
def test_sweep_renaming_is_one_diagram_per_map(data):
    # up to the reflection, which one labeling's key may take and
    # another's not when both tie
    s = data.draw(st.sampled_from(SIMPLIFIED_CORPUS))
    moved = relabel(s, data.draw(st.permutations(range(s.n))),
                    data.draw(st.lists(st.sampled_from((0, 2)),
                                       min_size=s.n, max_size=s.n)),
                    data.draw(st.booleans()))
    moved.validate()
    assert sorted(moved.sweep_order()) == list(range(s.n))
    t = s.relabeled(qa._sweep_relabel(s))
    u = moved.relabeled(qa._sweep_relabel(moved))
    assert u.pairing in (t.pairing, t._reflected_pairing())


def test_sweep_order_needs_a_connected_diagram():
    for d in (disjoint_union(trefoil(), trefoil()), Diagram((), 2)):
        with pytest.raises(MalformedDiagram):
            d.sweep_order()


def test_sweep_from_every_start_keeps_a_long_closure_cheap():
    # 127 search calls; a sweep from the least canonical number alone
    # spent 200,000 calls on this closure without a certificate
    d = to_diagram(parse("CF[2,2,3,3,2,2,2,2,3,3,2,3,3,2,2,3,2,3,3,2,"
                         "3,2,3,3,3,3,3,2,3,3,2,2,3,2,3,3,2,3,3,3]"))
    assert d.n == 103
    assert certify(d, budget=200).kind == "Certified"


class TestDeletionContraction:
    def test_corpus(self):
        assert len(SIMPLIFIED_CORPUS) >= 200
        for s in SIMPLIFIED_CORPUS:
            assert tree_count_dets(s) == fresh_resolution_dets(s)

    def test_determinant_is_the_tree_count(self):
        for s in SIMPLIFIED_CORPUS:
            assert abs(qa._white_tait(s).total) == determinant(s)

    @given(st.data())
    @settings(max_examples=25)
    def test_relabelings(self, data):
        s = data.draw(st.sampled_from(
            [s for s in SIMPLIFIED_CORPUS if s.n <= 12]))
        moved = relabel(s, data.draw(st.permutations(range(s.n))),
                        data.draw(st.lists(st.sampled_from((0, 2)),
                                           min_size=s.n, max_size=s.n)),
                        data.draw(st.booleans()))
        moved.validate()
        assert tree_count_dets(moved) == fresh_resolution_dets(moved)

    def test_one_minor_per_parallel_class(self, monkeypatch):
        # T(G) at once, then a class's deletion minor at its first edge
        s = to_diagram(parse("P(3,3,3)")).simplify()
        want = fresh_resolution_dets(s)
        w = s.white_graph()
        calls = []
        minor = qa.laplacian_minor
        monkeypatch.setattr(qa, "laplacian_minor",
                            lambda *args: calls.append(args) or minor(*args))
        pairs = qa._resolution_dets(qa._white_tait(s))
        assert len(calls) == 1
        got = []
        for c, pair in enumerate(pairs):
            got.append(pair[:2])
            assert len(calls) == 1 + len(parallel_classes(w.edges[:c + 1]))
        assert got == want
        assert len(calls) == 1 + len(parallel_classes(w.edges)) < 1 + s.n

    def test_nugatory_crossing(self):
        # CF[2,-3,2,-3] and a trefoil joined through a crossing x, slots 0
        # and 1 on the arc h of the first, 2 and 3 on an arc of the second.
        # Corners 1 and 3 of x lie in one face, so x's white edge is a loop
        # or a bridge, and one smoothing splits the diagram.
        a, b = cf_23(2), trefoil()
        kinds = set()
        for h in range(len(a.pairing)):
            shift = len(a.pairing)
            pairing = (list(a.pairing) + [p + shift for p in b.pairing]
                       + [0] * 4)
            x = len(pairing) - 4
            for u, v in ((x, h), (x + 1, a.pairing[h]),
                         (x + 2, shift), (x + 3, shift + b.pairing[0])):
                pairing[u], pairing[v] = v, u
            s = Diagram(tuple(pairing))
            s.validate()
            assert s.simplify() == s
            e = s.white_graph().edges[-1]
            kinds.add("loop" if e.u == e.v else "bridge")
            dets = tree_count_dets(s)
            assert 0 in dets[-1]
            assert dets == fresh_resolution_dets(s)
        assert kinds == {"loop", "bridge"}


class TestOneShotChild:
    """The search builds each child with ``Diagram._resolve_simplified``,
    one copy of the pairing seeded by the smoothing's half-edges."""

    def test_matches_resolve_then_simplify(self):
        children = 0
        for s in SIMPLIFIED_CORPUS:
            if s.n > 24:
                continue
            for c in range(s.n):
                for kind in ("zero", "infinity"):
                    one = s._resolve_simplified(c, kind)
                    two = s.resolve(c, kind).simplify()
                    assert (one.pairing, one.free_loops) == \
                        (two.pairing, two.free_loops)
                    children += 1
        assert children > 5000

    def test_matches_resolve_then_simplify_oriented(self):
        # the smoothing that respects the orientation keeps its flags, the
        # other one drops them, and the clean-up keeps what it is given
        children = oriented = 0
        for label in corpus_inputs(0):
            s = to_diagram(parse(label)).simplify()
            for o in s.orientations()[:4]:
                for c in range(o.n):
                    for kind in ("zero", "infinity"):
                        one = o._resolve_simplified(c, kind)
                        two = o.resolve(c, kind).simplify()
                        assert one == two and \
                            one.orientation == two.orientation, (label, c)
                        respects = (kind == "zero") == \
                            (o.crossing_sign(c) == 1)
                        assert (one.orientation is not None) == respects
                        children += 1
                        oriented += respects
        assert children > 9000 and 2 * oriented == children

    def test_a_child_inherits_its_tait_graph(self):
        # the search derives a child's graph and T from its parent's by
        # the removals _moved reports; the derived T is the graph's own
        # tree count, and its resolution determinants are those of the
        # child's fresh white graph, whichever colour the derived graph
        # keeps.  A child of determinant at least 1, the only kind the
        # search enters, is never split.
        children = inherited = 0
        for s in SIMPLIFIED_CORPUS:
            if s.n > 24:
                continue
            g = qa._white_tait(s)
            for c, (det0, detinf, deleted) in enumerate(
                    qa._resolution_dets(g)):
                for kind, det in (("zero", det0), ("infinity", detinf)):
                    removed = {}
                    child = s._resolve_simplified(c, kind, removed)
                    assert next(iter(removed)) == c
                    assert len(removed) == s.n - child.n
                    children += 1
                    if det == 0 or child.n == 0:
                        continue
                    h = qa._inherited(g, deleted, removed)
                    assert abs(h.total) == det
                    assert h.total == laplacian_minor(h.vertices, h.edges)
                    assert not child.is_split()
                    assert len(h.edges) == child.n
                    assert [pair[:2] for pair in qa._resolution_dets(h)] \
                        == tree_count_dets(child)
                    inherited += 1
        assert children > 5000 and inherited > 2000

    def test_the_search_hands_it_unoriented_diagrams(self, monkeypatch):
        # QA ignores orientation: the search drops it at its root, as its
        # memo key does
        seen, child = [], Diagram._resolve_simplified

        def recorded(s, c, kind, removed=None):
            seen.append(s.orientation)
            return child(s, c, kind, removed)

        monkeypatch.setattr(Diagram, "_resolve_simplified", recorded)
        for d in (cf_23(3), to_diagram(parse("P(3, 3, -2, 3)"))):
            for o in d.orientations():
                assert certify(o).kind == certify(d).kind
        assert seen and set(seen) == {None}


class TestWorkCounts:
    """Work done on CF[2,-3]x3 (n = 15, det 433)."""

    def counted_search(self, monkeypatch, memo=None, graphs=None):
        """Certify CF[2,-3]x3, counting search nodes (connected diagrams
        with crossings), recursions, children built (each resolution and
        its clean-up, one private call), Goeritz matrices and Laplacian
        minors.  ``graphs`` gets the Tait graph edges of each diagram with
        crossings the search reaches, as the search has them: the root's
        white graph, and the graph each other one inherits."""
        from qalinks import invariants
        counts = {"nodes": 0, "recursions": 0, "resolve": 0, "goeritz": 0,
                  "minors": 0}
        search, resolve = qa._certify, Diagram._resolve_simplified
        goeritz, minor = invariants.goeritz_matrix, qa.laplacian_minor
        graphs = {} if graphs is None else graphs

        def counted_certify(d, budget, memo, parent=None):
            counts["recursions"] += 1
            s = d.simplify()
            counts["nodes"] += bool(s.n and not s.is_split())
            if s.n:
                graphs.setdefault(
                    (s.pairing, s.free_loops),
                    s.white_graph().edges if parent is None
                    else qa._inherited(*parent).edges)
            return search(d, budget, memo, parent)

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(qa, "_certify", counted_certify)
        monkeypatch.setattr(Diagram, "_resolve_simplified",
                            counted("resolve", resolve))
        monkeypatch.setattr(invariants, "goeritz_matrix",
                            counted("goeritz", goeritz))
        monkeypatch.setattr(qa, "laplacian_minor", counted("minors", minor))
        assert certify(cf_23(3), memo=memo).certified
        return counts

    def test_search_resolves_only_what_it_recurses_into(self, monkeypatch):
        counts = self.counted_search(monkeypatch)
        assert counts["resolve"] == counts["recursions"] - 1

    def test_one_minor_per_parallel_class_per_memo_miss(self, monkeypatch):
        # no Goeritz matrix, T(G) of the root's white graph alone (every
        # other node inherits its T), and for every diagram the memo holds
        # one deletion minor per twist class of its Tait graph among the
        # crossings its loop reached, up to the certified crossing
        searched, graphs = {}, {}
        counts = self.counted_search(monkeypatch, searched, graphs)
        assert counts["goeritz"] == 0

        def reached(key, hit):
            edges = graphs[key]
            if hit.certified:
                edges = edges[:hit.certificate.crossing + 1]
            return parallel_classes(edges)

        assert counts["minors"] == 1 + sum(len(reached(key, hit))
                                           for key, hit in searched.items())
        every_class = 1 + sum(len(parallel_classes(graphs[key]))
                              for key in searched)
        assert counts["minors"] < every_class
        assert len(searched) < counts["nodes"]

    def test_a_det_zero_or_one_node_takes_one_minor(self, monkeypatch):
        calls = []
        minor = qa.laplacian_minor
        monkeypatch.setattr(qa, "laplacian_minor",
                            lambda *args: calls.append(args) or minor(*args))
        for label, det in (("P(-2, 3, 5)", 1), ("P(3, -2, 6)", 0)):
            d = to_diagram(parse(label))
            s = d.simplify()
            assert s.n and not s.is_split() and determinant(s) == det
            calls.clear()
            assert certify(d).kind == "NotCertifiedHere"
            assert len(calls) == 1

    def test_a_refutation_runs_the_key_bfs_once(self, monkeypatch):
        runs = count_key_runs(monkeypatch)
        assert certify(to_diagram(parse("P(3, 3, -2, 3)"))).kind \
            == "NotCertifiedHere"
        assert len(runs) == 1

    def test_an_unrenamed_root_runs_the_key_bfs_once(self, monkeypatch):
        # R(1/2) is in sweep order already, so the search's own node is the
        # root, and it takes the key the renaming read
        runs = count_key_runs(monkeypatch)
        assert main(["certify-qa", "R(1/2)"]) == 0
        assert len(runs) == 1

    def test_keys_are_read_once_per_printed_node(self, monkeypatch):
        # the search reads only the root's key, off the numbering it
        # renames by; printing reads each other node's key once
        runs = count_key_runs(monkeypatch)
        cert = certify(cf_23(6)).certificate
        assert len(runs) == 1
        nodes = internal_nodes(cert)
        text = dumps(cert)
        assert len(runs) == len(nodes)
        assert len(set(runs)) == len(runs)
        assert dumps(cert) == text and len(runs) == len(nodes)

    def test_replay_walks_each_node_and_diagram_once(self, monkeypatch):
        d = cf_23(3)
        cert = certify(d).certificate
        internal = [(id(node), s.pairing, s.free_loops)
                    for node, s in tree_nodes(cert, d) if not node.is_leaf]
        calls = []
        trees = qa.det_spanning_trees
        monkeypatch.setattr(qa, "det_spanning_trees",
                            lambda g: calls.append(g) or trees(g))
        assert validate_certificate(cert, d)
        assert len(calls) == len(set(internal)) < len(internal)

    @pytest.mark.parametrize("label", ["CF[2,-3]x6", "P(40, 3, 3)"])
    def test_replay_keys_no_search_built_node_below_the_root(self,
                                                             monkeypatch,
                                                             label):
        # every node below the root of a search-built certificate replays
        # on the diagram its key was read off; its from_obj copy holds key
        # text, so it runs the key BFS once per internal (node, diagram)
        # pair, as many as the spanning-tree counts.  Each replay gets a
        # fresh copy of the input, which has no key cached.
        d = cf_23(6) if label.startswith("CF") else to_diagram(parse(label))
        cert = certify(d).certificate
        parsed = QACertificate.from_obj(cert.to_obj())
        runs, trees = count_key_runs(monkeypatch), []
        count = qa.det_spanning_trees
        monkeypatch.setattr(qa, "det_spanning_trees",
                            lambda g: trees.append(g) or count(g))
        assert validate_certificate(cert, Diagram(d.pairing, d.free_loops))
        assert runs == [d.simplify().pairing]
        pairs = len(trees)
        runs.clear()
        trees.clear()
        assert validate_certificate(parsed, Diagram(d.pairing, d.free_loops))
        assert len(runs) == len(trees) == pairs > 20

    def test_search_and_replay_key_only_connected_diagrams(self,
                                                          monkeypatch):
        # a split diagram has no key: canonical_key raises on one
        keyed = []
        key = Diagram.canonical_key

        def connected_key(d):
            assert d.is_connected()
            keyed.append(d)
            return key(d)

        monkeypatch.setattr(Diagram, "canonical_key", connected_key)
        for label in ("CF[2, -3, 2, -3]", "P(3, 3, -2, 3)", "P(-2, 3, 5)",
                      "P(3, 3, 3, 3)", "M(0; 1/3, 1/3, -1/3)"):
            d = to_diagram(parse(label))
            r = certify(d)
            assert certify(disjoint_union(d, d)).kind == "DetZeroSplit"
            if r.certified:
                assert validate_certificate(r.certificate, d)
                assert not validate_certificate(r.certificate,
                                                disjoint_union(d, trefoil()))
        assert keyed

    def test_shared_subtree_wrong_under_one_parent(self):
        # Find two tree nodes x and y with one key (relabeled copies of one
        # diagram, so also one determinant) where x does not certify y's
        # diagram, x first in replay order; then let y's parents share x.
        # (In the sweep order, the same-key nodes of an alternating CF
        # closure's tree are one pairing, so the input is a Montesinos
        # link.)
        d = to_diagram(parse("M(-2; 1/3, -1/4, 1/2)"))
        cert = certify(d).certificate
        order = tree_nodes(cert, d)
        x, sx, y, sy = next(
            (x, sx, y, sy)
            for i, (x, sx) in enumerate(order) if not x.is_leaf
            for y, sy in order[i + 1:]
            if y.key == x.key and sy.pairing != sx.pairing
            and not validate_certificate(x, sy))
        assert validate_certificate(x, sx)

        def substitute(node):
            if node is y:
                return x
            if node.is_leaf:
                return node
            kids = tuple(map(substitute, node.children))
            if all(a is b for a, b in zip(kids, node.children)):
                return node
            return dataclasses.replace(node, children=kids)

        shared = substitute(cert)
        assert not validate_certificate(shared, d)


class TestSmallerChildFirst:
    """At a crossing that admits the determinant sum, the search tries the
    child of smaller determinant first and leaves the crossing as soon as
    a child fails."""

    def tries(self, monkeypatch, d):
        """Certify d; per (node, crossing) resolved, the children searched
        in order as (kind, certified), and the crossing's (det0, detInf)."""
        tries, dets, pending = {}, {}, []
        child, search = Diagram._resolve_simplified, qa._certify

        def counted_resolve(s, c, kind, removed=None):
            at = (s.pairing, s.free_loops, c)
            if at not in dets:
                dets[at] = tuple(determinant(s.resolve(c, k))
                                 for k in ("zero", "infinity"))
            pending.append((tries.setdefault(at, []), kind))
            return child(s, c, kind, removed)

        def counted_certify(s, budget, memo, parent=None):
            # every search but the root's is of the child just resolved
            entry = pending.pop() if pending else None
            out = search(s, budget, memo, parent)
            if entry is not None:
                entry[0].append((entry[1], out.certified))
            return out

        monkeypatch.setattr(Diagram, "_resolve_simplified", counted_resolve)
        monkeypatch.setattr(qa, "_certify", counted_certify)
        certify(d)
        monkeypatch.undo()
        return tries, dets

    def test_the_smaller_determinant_first_and_no_child_after_a_failure(
            self, monkeypatch):
        firsts = set()
        for d in (to_diagram(parse("P(3, 3, -2, 3)")),
                  to_diagram(parse("M(2; -1/4, 1/5, -3/4, -4/5)")),
                  to_diagram(parse("P(3, 3, 3)")), cf_23(3)):
            tries, dets = self.tries(monkeypatch, d)
            for at, children in tries.items():
                det0, detinf = dets[at]
                first = "infinity" if detinf < det0 else "zero"
                firsts.add((first, det0 == detinf))
                kinds = [kind for kind, _ in children]
                assert kinds[0] == first
                # the other child only after the first one certified
                assert len(set(kinds)) == len(kinds) == 1 + children[0][1]
        # each order arises, and a tie
        assert firsts == {("zero", False), ("zero", True),
                          ("infinity", False)}

    @pytest.mark.parametrize("label,calls,resolutions,minors", [
        # 451 / 450 / 438 with the zero child always first; 17 minors
        # when each of the 3 memo misses below the root took its own T(G)
        ("P(3, 3, -2, 3)", 10, 9, 14),
        # 13,401 / 13,400 / 17,806 with the zero child always first; 262
        # minors when each of the 30 memo misses took its own T(G).  The
        # graphs the 29 misses below the root inherit have 28 more twist
        # classes than their fresh white graphs: a twist region whose
        # edges are in series takes a minor per edge
        ("M(2; -1/4, 1/5, -3/4, -4/5)", 86, 85, 261),
    ])
    def test_refutation_work(self, monkeypatch, label, calls, resolutions,
                             minors):
        counts = {"calls": 0, "resolutions": 0, "minors": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(qa, "_certify", counted("calls", qa._certify))
        monkeypatch.setattr(Diagram, "_resolve_simplified",
                            counted("resolutions",
                                    Diagram._resolve_simplified))
        monkeypatch.setattr(qa, "laplacian_minor",
                            counted("minors", qa.laplacian_minor))
        assert certify(to_diagram(parse(label))).kind == "NotCertifiedHere"
        assert counts == {"calls": calls, "resolutions": resolutions,
                          "minors": minors}


# sha256 over label, outcome and sorted-key certificate JSON of certify on
# every fifth label of corpus 0, taken with the zero child always searched
# first: the order the children are searched in changes no certificate
CORPUS_CERTIFY_DIGEST = \
    "14ce8f8b9356a9c35adc1f247e3c8404806e48df693d67c06964ec6707fec6da"


def test_corpus_certificates_do_not_depend_on_the_child_order():
    h = hashlib.sha256()
    kinds = collections.Counter()
    for label in corpus_inputs(0)[::5]:
        d = to_diagram(parse(label))
        r = certify(d)
        kinds[r.kind] += 1
        obj = None
        if r.certified:
            assert validate_certificate(r.certificate, d), label
            obj = r.certificate.to_obj()
        h.update(f"{label}\0{r.kind}\0{json.dumps(obj, sort_keys=True)}\n"
                 .encode())
    assert kinds == {"Certified": 34, "NotCertifiedHere": 10}
    assert h.hexdigest() == CORPUS_CERTIFY_DIGEST


def count_key_runs(monkeypatch):
    """The pairings the canonical key BFS runs on from now on."""
    runs = []
    least = diagram._least_encoding

    def counted(pairings, rank):
        runs.append(pairings[0])
        return least(pairings, rank)

    monkeypatch.setattr(diagram, "_least_encoding", counted)
    return runs


def resolution_dets(d, p):
    """(det L, det L0, det Linf) for the mirror identity at crossing p."""
    return (determinant(d), determinant(d.resolve(p, "zero")),
            determinant(d.resolve(p, "infinity")))


class TestMirrorIdentity:
    def test_fixtures(self):
        for d in (trefoil(), fig8(), hopf()):
            for p in range(d.n):
                assert mirror_identity_check(d, p, resolution_dets(d, p))

    def test_trefoil_values(self):
        d = trefoil()
        changed = d.crossing_change(0)
        assert determinant(changed) == 1  # unknot diagram

    def test_hopf_values(self):
        changed = hopf().crossing_change(0)
        assert determinant(changed) == 0  # split unlink

    def test_resolution_of_determinant_zero(self):
        # det L0 or det Linf is 0: det L = det L- = the other one, so both
        # the sum and the difference hold
        from qalinks.cli import parse, to_diagram
        d = to_diagram(parse("M(0; 1/3, 1/3, -1/3)"))
        cases = [(d, p) for p in range(d.n)]
        cases.append((to_diagram(parse("P(-2,3,7)")), 5))
        zero = 0
        for d, p in cases:
            dets = resolution_dets(d, p)
            zero += 0 in dets[1:]
            assert mirror_identity_check(d, p, dets), p
        assert zero == 7


class TestTwistExtend:
    def test_identity_extension(self):
        r = certify(trefoil())
        d, cert = twist_extend(trefoil(), r.certificate, r.certificate.crossing, 1)
        assert determinant(d) == 3
        assert validate_certificate(cert, d)

    def test_trefoil_family(self):
        r = certify(trefoil())
        p = r.certificate.crossing
        dets = []
        for n in range(1, 5):
            d, cert = twist_extend(trefoil(), r.certificate, p, n)
            assert validate_certificate(cert, d)
            dets.append(determinant(d))
        # linear recurrence: constant step equal to one resolution det
        steps = {b - a for a, b in zip(dets, dets[1:])}
        assert len(steps) == 1
        step = steps.pop()
        assert step in (determinant(trefoil().resolve(p, "zero")),
                        determinant(trefoil().resolve(p, "infinity")))

    def test_hopf_n2(self):
        r = certify(hopf())
        d, _ = twist_extend(hopf(), r.certificate, r.certificate.crossing, 2)
        assert determinant(d) == 3

    def test_wrong_root_rejected(self):
        r = certify(trefoil())
        other = (r.certificate.crossing + 1) % 3
        with pytest.raises(PreconditionViolated):
            twist_extend(trefoil(), r.certificate, other, 2)

    def test_root_crossing_indexes_simplified_diagram(self):
        # an R1 kink spliced in as crossing 0 shifts every other index:
        # the root's crossing 0 is the input's crossing 1, not the kink
        base = compile_rational([2, -2, 2])
        shifted = [h + 4 for h in base.pairing]
        a, b = 5, shifted[1]
        pairing = [1, 0, a, b] + shifted
        pairing[a], pairing[b] = 2, 3
        d = Diagram(tuple(pairing))
        d.validate()
        cert = certify(d).certificate
        assert (cert.crossing, cert.dets) == (0, (12, 7, 5))
        assert determinant(d.resolve(0, "infinity")) == 0
        out, ext = twist_extend(d, cert, 0, 2)
        assert determinant(out) == 19 and ext.dets[0] == 19
        assert validate_certificate(ext, out)


class TestProp224:
    def test_generated_pairs(self):
        families = ([[2], [3]], [[3], [3]], [[3], [5]], [[2], [3], [3]],
                    [[2], [5]], [[3], [3], [3]], [[2], [7]], [[3], [7]],
                    [[5], [5]], [[2], [3], [5]], [[3], [3], [5]])
        passed = 0
        for ts in families:
            rep = prop224_check(*replacement_pair(ts))
            assert rep.applicable and rep.ok, (ts, rep)
            passed += 1
        assert passed >= 10

    def test_unrelated_pair_reported(self):
        d_half, _, (a, _) = replacement_pair([[2], [3]])
        _, d_two, (_, b) = replacement_pair([[3], [5]])
        rep = prop224_check(d_half, d_two, (a, b))
        assert not rep.ok

    def test_bad_crossings_rejected(self):
        d_half, d_two, _ = replacement_pair([[2], [3]])
        rep = prop224_check(d_half, d_two, ((0, 1), (0, 1)))
        assert not rep.applicable
