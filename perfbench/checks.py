"""Output checks.  Each returns None for a correct item or a reason.

The CLI report carries ``timings.total_ms``, which differs between two
runs of the same input (a known stdout nondeterminism).  Reports are
compared and fingerprinted with that field dropped.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "invariants_golden_seed0.json"
GOLDEN_SEED = 0
SQP_VERDICTS = {"SQP", "NotSQP", "Unknown"}


def report(stdout: str) -> dict:
    obj = json.loads(stdout)
    obj.pop("timings", None)
    return obj


_TOTAL_MS = re.compile(r'"total_ms": [-+.0-9eE]+')


def fingerprint(outputs, extra) -> str:
    """Digest of an execution's exit codes, stdout with timings dropped,
    and extra value; cheap enough to take after every execution."""
    h = hashlib.sha256(repr(extra).encode())
    for code, stdout in outputs:
        h.update(f"{code}\0".encode())
        h.update(_TOTAL_MS.sub("", stdout).encode())
    return h.hexdigest()[:16]


def _reports(outputs, commands):
    """Parse each (code, stdout); raise ValueError on a bad exit or body."""
    out = []
    for (code, stdout), cmd in zip(outputs, commands):
        if code != 0:
            raise ValueError(f"{cmd}: exit code {code}")
        out.append(report(stdout))
    return out


def check_invariants(item, execution, api, golden=None):
    inv, gen, sqp = _reports(execution.outputs,
                             ("invariants", "genus", "classify-sqp"))
    want = item.expect
    # the CLI prints integers of 2^53 and more as decimal strings
    if int(inv["determinant"]) != want["determinant"]:
        return f"determinant {inv['determinant']} != {want['determinant']}"
    if "components" in want and inv["components"] != want["components"]:
        return f"components {inv['components']} != {want['components']}"
    if not isinstance(inv.get("signature"), int):
        return "no signature"
    if "genus" not in gen:
        return "no genus field"
    if sqp.get("sqp", {}).get("verdict") not in SQP_VERDICTS:
        return "no SQP verdict"
    if golden is not None:
        got = [fingerprint([out], None) for out in execution.outputs]
        if golden.get(item.label) != got:
            return "report differs from the golden digest"
    return None


def check_audit(item, execution, api, golden=None):
    (oracle,) = _reports(execution.outputs, ("invariants --oracle",))
    code, ref_out = api.run_cli(["invariants", item.label])
    (ref,) = _reports([(code, ref_out)], ("invariants",))
    if oracle != ref:
        return "spanning-tree/Seifert-oracle report differs from Goeritz"
    if execution.extra != int(ref["determinant"]):
        return f"det_oracle {execution.extra} != {ref['determinant']}"
    return None


def check_certify(item, execution, api, golden=None):
    (rep,) = _reports(execution.outputs, ("certify-qa",))
    qa = rep["qa"]
    want = item.expect
    if qa["outcome"] != want["outcome"]:
        return f"outcome {qa['outcome']} != {want['outcome']}"
    if want["outcome"] != "Certified":
        if "certificate" in qa or not qa.get("reason"):
            return "a rejection must carry a reason and no certificate"
        if want.get("determinant") == 1 and "determinant 1" not in qa["reason"]:
            return f"unexpected reason {qa['reason']!r}"
        return None
    if qa.get("valid") is not True:
        return "certificate not marked valid"
    cert = api.qa.QACertificate.from_obj(qa["certificate"])
    if cert.dets[0] != want["determinant"]:
        return f"certificate det {cert.dets[0]} != {want['determinant']}"
    diagram = api.cli.to_diagram(api.cli.parse(item.label))
    if not api.qa.validate_certificate(cert, diagram):
        return "certificate does not replay"
    return None


CHECKS = {
    "invariants": check_invariants,
    "audit": check_audit,
    "certify": check_certify,
}


def load_golden(workload: str, seed: int):
    if workload == "invariants" and seed == GOLDEN_SEED and GOLDEN.exists():
        return json.loads(GOLDEN.read_text())
    return None
