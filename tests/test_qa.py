import json
import random

import pytest

from qalinks import qa
from qalinks.cfrac import PreconditionViolated
from qalinks.diagram import Diagram, UNKNOT
from qalinks.invariants import determinant
from qalinks.montesinos import compile_montesinos, compile_rational
from qalinks.qa import (
    CertifyOutcome,
    QACertificate,
    certify,
    mirror_identity_check,
    prop224_check,
    twist_extend,
    validate_certificate,
)

from test_diagram import fig8, hopf, trefoil


def replacement_pair(ts):
    """Diagram pair related by swapping an elementary -1/2 clasp for -2
    horizontal twists, with the designated negative crossing pairs."""
    d_half = compile_montesinos(0, ts + [[-2]])
    d_two = compile_montesinos(-2, ts)
    return (d_half, d_two,
            ((d_half.n - 2, d_half.n - 1), (d_two.n - 2, d_two.n - 1)))


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
        assert r.certificate.depth() <= 3

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
        assert r2.certificate is r1.certificate
        assert calls == []


class TestValidate:
    def test_trefoil_roundtrip(self):
        r = certify(trefoil())
        assert validate_certificate(r.certificate, trefoil())

    def test_tampered_rejected(self):
        r = certify(trefoil())
        obj = json.loads(r.certificate.to_json())
        for det0, detinf in ((2, 2), (1, 2)):
            # (1, 2) keeps the sum but swaps the children's determinants
            obj["det0"], obj["detInf"] = det0, detinf
            assert not validate_certificate(QACertificate.from_obj(obj),
                                            trefoil())

    def test_leaf_vs_nontrivial(self):
        assert not validate_certificate(QACertificate.unknot(), trefoil())

    def test_wrong_diagram(self):
        r = certify(trefoil())
        assert not validate_certificate(r.certificate, fig8())

    def test_json_roundtrip_exact(self):
        for d in (trefoil(), fig8(), compile_montesinos(0, [[2], [3], [7]])):
            cert = certify(d).certificate
            text = cert.to_json()
            assert QACertificate.from_json(text).to_json() == text


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
        # an R1 kink spliced in as crossing 0 shifts every other index
        base = compile_rational([2, -3, 2])
        shifted = [h + 4 for h in base.pairing]
        a, b = 5, shifted[1]
        pairing = [1, 0, a, b] + shifted
        pairing[a], pairing[b] = 2, 3
        d = Diagram(tuple(pairing))
        d.validate()
        cert = certify(d).certificate
        assert (cert.crossing, cert.dets) == (2, (16, 4, 12))
        out, ext = twist_extend(d, cert, 2, 2, sign=-1)
        assert determinant(out) == 20 and ext.dets[0] == 20
        assert validate_certificate(ext, out)

    def test_wrong_sign_rejected(self):
        r = certify(trefoil())
        p = r.certificate.crossing
        g = trefoil().black_graph()
        own = next(e.sign for e in g.edges if e.crossing == p)
        with pytest.raises(PreconditionViolated):
            twist_extend(trefoil(), r.certificate, p, 2, sign=-own)


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
