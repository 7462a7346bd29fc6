"""Acceptance gate: each test covers one numbered criterion and prints a
single pass/fail line."""

import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from qalinks.cfrac import PreconditionViolated, cf_eval
from qalinks.cli import corpus_inputs, parse, to_diagram
from qalinks.diagram import UNKNOT
from qalinks.invariants import (
    det_goeritz,
    det_spanning_trees,
    determinant,
    find_negative_orientation,
    find_positive_orientation,
    is_definite,
    mo_relations_check,
    signature,
)
from qalinks.montesinos import (
    TwoBridge,
    _even_cfs,
    _prop16_hypotheses,
    band_move_bound,
    classify_prop15,
    compile_data,
    compile_montesinos,
    compile_two_bridge,
    detect_prop16,
    genus_hm,
    montesinos_data,
    montesinos_from_entries,
    two_bridge_genus,
)
from qalinks.qa import (
    certify,
    mirror_identity_check,
    prop224_check,
    twist_extend,
    validate_certificate,
)
from qalinks.seifert_oracle import det_oracle, signature_oracle

from test_diagram import fig8, hopf, trefoil


def _report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    out = []
    for label in corpus_inputs(0):
        d = to_diagram(parse(label))
        out.append((label, d))
    return out


@pytest.fixture(scope="module")
def alternating_corpus(corpus):
    """Connected reduced alternating diagrams: the alternating part of the
    main corpus extended with small single-sign Montesinos forms."""
    out = [(lab, d) for lab, d in corpus
           if d.is_alternating() and d.is_connected() and d.n > 0]
    for e in (0, 1, 2):
        for a1, a2, a3 in product(range(2, 5), repeat=3):
            for b1 in range(1, a1):
                if gcd(b1, a1) != 1:
                    continue
                m = montesinos_data(
                    e, [Fraction(b1, a1), Fraction(1, a2), Fraction(1, a3)])
                d = compile_data(m)
                if d.is_alternating():
                    out.append((str(m), d))
                if len(out) >= 140:
                    return out
    return out


def test_criterion_01_determinant_triple_agreement(corpus):
    start = time.time()
    for label, d in corpus:
        a = det_spanning_trees(d.black_graph())
        b = det_goeritz(d)
        c = det_oracle(d.oriented())
        assert a == b == c, (label, a, b, c)
    elapsed = time.time() - start
    _report(1, len(corpus) >= 200 and elapsed < 120,
            f"3 determinant routes agree on {len(corpus)} diagrams "
            f"in {elapsed:.1f}s")


def test_criterion_02_named_exact_values():
    checks = [
        determinant(UNKNOT) == 1,
        determinant(hopf()) == 2,
        hopf().canonical_key() ==
        to_diagram(parse("CF[2]")).canonical_key(),  # det 2 is the Hopf link
        determinant(trefoil()) == 3,
        determinant(fig8()) == 5,
        determinant(to_diagram(parse("M(0; 1/2, 1/3, 1/7)"))) == 41,
        signature(find_positive_orientation(trefoil())
                  or find_positive_orientation(trefoil().mirror())) == -2,
        signature(fig8().oriented()) == 0,
    ]
    _report(2, all(checks), "unknot/Hopf/trefoil/figure-eight/M(0;1/2,1/3,"
            "1/7) determinants and signatures exact")


def test_criterion_03_signature_oracle_agreement(corpus):
    n = 0
    for label, d in corpus:
        if d.n > 12:
            continue
        o = d.oriented()
        assert signature(o) == signature_oracle(o), label
        n += 1
    _report(3, n >= 50, f"Goeritz and Seifert-matrix signatures agree on "
            f"{n} oriented diagrams")


def test_criterion_04_qa_identities(alternating_corpus):
    memo = {}
    diagrams = 0
    crossings = 0
    for label, d in alternating_corpus:
        det = determinant(d)
        o = d.oriented()
        sig = signature(o)
        for p in range(d.n):
            l0, linf = o.resolve_oriented(p)
            d0, dinf = determinant(l0), determinant(linf)
            assert det == d0 + dinf, (label, p)
            assert mirror_identity_check(d, p, (det, d0, dinf)), (label, p)
            if d0 and dinf:
                rep = mo_relations_check(o, p, l0, linf, (det, d0, dinf), sig)
                if rep.proviso_ok:
                    assert rep.det_identity and rep.sigma_relation \
                        and rep.e_relation, (label, p)
            crossings += 1
        out = certify(d, budget=500000, memo=memo)
        assert out.certified, label
        assert validate_certificate(out.certificate, d), label
        diagrams += 1
    _report(4, diagrams >= 100, f"resolution/mirror/signature identities and "
            f"certification hold at {crossings} crossings of {diagrams} "
            f"reduced alternating diagrams")


def test_criterion_05_definite_positive_special(alternating_corpus):
    n = 0
    for label, d in alternating_corpus:
        oriented = find_positive_orientation(d) or find_negative_orientation(d)
        definite = False
        for o in d.orientations():
            g = o.seifert_genus_diagram()
            if is_definite(g, signature(o), d.components):
                definite = True
                break
        special = (oriented or d.oriented()).is_special()
        assert definite == (oriented is not None) == special, label
        n += 1
    _report(5, n >= 100, f"definite <=> positive-or-negative <=> special on "
            f"{n} alternating links")


def test_criterion_06_sqp_family_sweep():
    hits = 0
    for e in (0, 2):
        for ls in product((1, 2), repeat=3):
            for combo in product(
                    *(list(product((-2, -4), repeat=k)) for k in ls)):
                m = montesinos_from_entries(e, [list(t) for t in combo])
                odd = sum(len(t) % 2 for t in combo)
                if odd not in (0, 1, m.r):
                    continue
                assert classify_prop15(m).is_sqp, m
                d = compile_data(m)
                o = (find_positive_orientation(d)
                     or find_positive_orientation(d.mirror()))
                assert o is not None, m
                assert signature(find_positive_orientation(d)
                                 or find_negative_orientation(d)) < 0, m
                hits += 1
                if hits >= 60:
                    break
            if hits >= 60:
                break
        if hits >= 60:
            break
    _report(6, hits >= 50, f"{hits} even-negative-entry instances all SQP, "
            f"positively orientable, with negative signature")


def test_criterion_07_genus_gap_detector():
    headline = montesinos_from_entries(0, [[2], [2, -2], [-2, 2]])
    v = detect_prop16(headline)
    head_ok = (genus_hm(headline) == 2 and band_move_bound(headline, 2) == 1
               and v.kind == "NotSQP")
    hits = 0
    for e in (0, 2, -2):
        for t1 in ([2], [4], [2, 2], [2, -2], [-2, 2], [2, 4]):
            for flip in product((2, 4), (2, -2, 4, -4)):
                pair = list(flip)
                try:
                    m = montesinos_from_entries(e, [t1, pair,
                                                    [-x for x in pair]])
                except PreconditionViolated:
                    continue
                hyp = _prop16_hypotheses(m)
                if hyp is None:
                    continue
                ecs, i0 = hyp
                v = detect_prop16(m)
                assert v.kind == "NotSQP", m
                assert v.witness["genus"] > v.witness["g4_bound"], m
                a, b = ecs[i0 - 1], ecs[i0]
                slope = cf_eval([a[1] + b[1]] + list(b[2:]))
                g_l = (0 if slope is None
                       else two_bridge_genus(TwoBridge(slope)))
                assert g_l < max(len(a), len(b)) // 2, m
                hits += 1
    _report(7, head_ok and hits >= 30, f"headline genus 2 > bound 1; {hits} "
            f"instances all show the genus gap and the merged-slope bound")


def test_criterion_08_genus_formula_cross_check():
    headline = montesinos_from_entries(2, [[-2], [-2, -2], [-2, -2]])
    head_ok = genus_hm(headline) == 3
    n = 0
    for e in (0, 2):
        for ls in product((1, 2), repeat=3):
            for combo in product(
                    *(list(product((-2, -4), repeat=k)) for k in ls)):
                m = montesinos_from_entries(e, [list(t) for t in combo])
                try:
                    g = genus_hm(m)
                except PreconditionViolated:
                    continue
                d = compile_data(m)
                if d.components != 1:
                    continue
                o = (find_positive_orientation(d)
                     or find_positive_orientation(d.mirror()))
                if o is None:
                    continue
                sg = o.seifert_genus_diagram()
                assert sg == g, m
                n += 1
    _report(8, head_ok and n >= 50, f"closed-form genus equals the positive-"
            f"diagram Seifert genus on {n} knots (headline value 3)")


def test_criterion_09_replacement_identities():
    families = ([[2], [3]], [[3], [3]], [[3], [5]], [[2], [3], [3]],
                [[2], [5]], [[3], [3], [3]], [[2], [7]], [[3], [7]],
                [[5], [5]], [[2], [3], [5]], [[3], [3], [5]],
                [[2], [3], [7]])
    n = 0
    for ts in families:
        d_half = compile_montesinos(0, ts + [[-2]])
        d_two = compile_montesinos(-2, ts)
        rep = prop224_check(
            d_half, d_two,
            ((d_half.n - 2, d_half.n - 1), (d_two.n - 2, d_two.n - 1)))
        assert rep.applicable and rep.ok, ts
        n += 1
    _report(9, n >= 10, f"all five replacement determinant identities hold "
            f"on {n} generated pairs")


def test_criterion_10_twist_families():
    seeds = [trefoil(), fig8(), hopf()]
    for num, den in ((1, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7),
                     (3, 8), (5, 8)):
        seeds.append(compile_two_bridge(TwoBridge(Fraction(num, den))))
    families = 0
    for d in seeds:
        out = certify(d)
        assert out.certified
        p = out.certificate.crossing
        if p is None:
            continue
        dets = []
        for n in range(1, 5):
            dn, cert = twist_extend(d, out.certificate, p, n)
            assert validate_certificate(cert, dn)
            dets.append(determinant(dn))
        steps = {b - a for a, b in zip(dets, dets[1:])}
        assert len(steps) == 1, (dets,)
        assert steps.pop() in (determinant(d.resolve(p, "zero")),
                               determinant(d.resolve(p, "infinity")))
        families += 1
    _report(10, families >= 10, f"{families} twist families re-certify with "
            f"exact linear determinant growth")
