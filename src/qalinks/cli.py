"""Command-line front end: notation parsing, invariant reports, QA
certification, SQP classification, identity replays, corpus generation.

Grammar (whitespace-insensitive)::

    link  := "M(" INT ";" slope {"," slope} ")"
           | "R(" slope ")"
           | "P(" INT {"," INT} ")"
           | "CF[" INT {"," INT} "]"
           | "PD[" tuple {"," tuple} "]"
    slope := INT "/" INT | INT

Exit codes: 0 success, 1 parse error, 2 budget exceeded, 3 precondition
violated.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from .cfrac import PreconditionViolated, Rational
from .diagram import Diagram, MalformedDiagram, from_pd
from .invariants import (
    determinant,
    det_spanning_trees,
    find_negative_orientation,
    find_positive_orientation,
    genus_certified,
    is_definite,
    mo_relations_check,
    signature,
)
from .montesinos import (
    MontesinosData,
    TwoBridge,
    compile_data,
    compile_rational,
    compile_two_bridge,
    montesinos_data,
    positive_orientation_verdict,
    sqp_verdict,
)
from .qa import certify, mirror_identity_check, prop224_check, validate_certificate


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


# ------------------------------------------------------------------ parsing

class _Scanner:
    def __init__(self, text: str):
        self.raw = text
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def accept(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def slope(self) -> Rational:
        num = self.integer()
        if self.accept("/"):
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", self.pos)
            return Rational(num, den)
        return Rational(num)

    def end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)


Parsed = Union[MontesinosData, TwoBridge, Diagram]


def parse(text: str) -> Parsed:
    s = _Scanner(text)
    s.skip_ws()
    if s.accept("M("):
        e = s.integer()
        s.expect(";")
        slopes = [s.slope()]
        while s.accept(","):
            slopes.append(s.slope())
        s.expect(")")
        s.end()
        return _montesinos_or_two_bridge(e, slopes, s)
    if s.accept("R("):
        q = s.slope()
        s.expect(")")
        s.end()
        if q.den < 1:
            raise ParseError("denominator must be positive", s.pos)
        return TwoBridge(q)
    if s.accept("P("):
        ps = [s.integer()]
        while s.accept(","):
            ps.append(s.integer())
        s.expect(")")
        s.end()
        for p in ps:
            if abs(p) < 2:
                raise ParseError(f"pretzel entry {p}: alpha must exceed 1",
                                 s.pos)
        return _montesinos_or_two_bridge(0, [Rational(1, p) for p in ps], s)
    if s.accept("CF["):
        entries = [s.integer()]
        while s.accept(","):
            entries.append(s.integer())
        s.expect("]")
        s.end()
        return compile_rational(entries)
    start = s.pos
    if s.accept("PD["):
        tuples = []
        while True:
            s.expect("(")
            vals = [s.integer()]
            while s.accept(","):
                vals.append(s.integer())
            s.expect(")")
            if len(vals) != 4:
                raise ParseError("PD tuples have four labels", s.pos)
            tuples.append(tuple(vals))
            if not s.accept(","):
                break
        s.expect("]")
        s.end()
        try:
            return from_pd(tuples)
        except MalformedDiagram as ex:
            raise ParseError(f"bad PD code: {ex}", start)
    raise ParseError("expected M(, R(, P(, CF[ or PD[", s.pos)


def _montesinos_or_two_bridge(e: int, slopes, s: _Scanner) -> Parsed:
    for q in slopes:
        if q.is_infinite or q.den == 1:
            raise ParseError(f"slope {q}: alpha must exceed 1", s.pos)
    if len(slopes) <= 2:
        total = Rational(e)
        for q in slopes:
            total = total + q
        if total == Rational(0):
            raise ParseError("degenerate two-bridge sum", s.pos)
        return TwoBridge(total.reciprocal())
    try:
        return montesinos_data(e, slopes)
    except PreconditionViolated as ex:
        raise ParseError(str(ex), s.pos)


def to_diagram(obj: Parsed) -> Diagram:
    if isinstance(obj, MontesinosData):
        return compile_data(obj)
    if isinstance(obj, TwoBridge):
        return compile_two_bridge(obj)
    return obj


def display(obj: Parsed) -> str:
    if isinstance(obj, Diagram):
        return f"diagram with {obj.n} crossings"
    return str(obj)


# ------------------------------------------------------------------ reports

@dataclass
class Request:
    command: str
    input: Optional[str] = None
    budget: int = 100000
    format: str = "json"
    seed: int = 0
    oracle: bool = False


def _num(x: int):
    """Integers as decimal strings when too large for consumers."""
    return x if abs(x) < 2 ** 53 else str(x)


def _chosen_orientation(d: Diagram) -> Diagram:
    return (find_positive_orientation(d) or find_negative_orientation(d)
            or d.oriented())


def _invariants_report(obj: Parsed, oracle: bool) -> dict:
    d = to_diagram(obj)
    rep: dict = {"input": display(obj), "components": d.components}
    if d.is_split():
        rep["determinant"] = 0
        return rep
    if oracle:
        rep["determinant"] = _num(det_spanning_trees(d.black_graph()))
    else:
        rep["determinant"] = _num(determinant(d))
    o = _chosen_orientation(d)
    rep["writhe"] = o.writhe()
    if oracle:
        from .seifert_oracle import signature_oracle
        rep["signature"] = signature_oracle(o)
    else:
        rep["signature"] = signature(o)
    cert = genus_certified(d)
    if cert is not None:
        rep["genus"] = {"value": cert.genus, "method": cert.method}
        rep["definite"] = is_definite(cert.genus, rep["signature"],
                                      d.components)
    return rep


def _certify_report(obj: Parsed, budget: int) -> tuple[dict, int]:
    d = to_diagram(obj)
    out = certify(d, budget)
    rep = {"input": display(obj), "qa": {"outcome": out.kind}}
    if out.certified:
        rep["qa"]["certificate"] = out.certificate.to_obj()
        rep["qa"]["valid"] = validate_certificate(out.certificate, d)
    elif out.reason:
        rep["qa"]["reason"] = out.reason
    code = 2 if out.kind == "BudgetExceeded" else 0
    return rep, code


def _classify_report(obj: Parsed) -> dict:
    rep = {"input": display(obj)}
    if isinstance(obj, MontesinosData):
        v = sqp_verdict(obj)
    else:
        v = positive_orientation_verdict(to_diagram(obj))
    rep["sqp"] = {"verdict": v.kind}
    if v.reason:
        rep["sqp"]["reason"] = v.reason
    if v.witness:
        rep["sqp"]["witness"] = v.witness
    return rep


def _genus_report(obj: Parsed) -> dict:
    d = to_diagram(obj)
    rep = {"input": display(obj)}
    cert = genus_certified(d)
    if cert is None:
        rep["genus"] = None
    else:
        rep["genus"] = {"value": cert.genus, "method": cert.method}
    return rep


def _validate_one(d: Diagram) -> dict:
    checks = {"mirror_identity": True, "conway_relations": True,
              "alternating_equivalence": None}
    for p in range(d.n):
        if not mirror_identity_check(d, p):
            checks["mirror_identity"] = False
    signed = find_positive_orientation(d) or find_negative_orientation(d)
    o = signed or d.oriented()
    for p in range(d.n):
        rep = mo_relations_check(o, p)
        if rep.proviso_ok and not (rep.det_identity and rep.sigma_relation
                                   and rep.e_relation):
            checks["conway_relations"] = False
    if d.is_alternating() and not d.is_split():
        cert = genus_certified(d)
        if cert is not None:
            sig = signature(o)
            definite = is_definite(cert.genus, sig, d.components)
            pos = signed is not None
            special = pos and signed.is_special()
            checks["alternating_equivalence"] = (definite == pos == special)
    return checks


def _validate_report(obj: Optional[Parsed], seed: int) -> tuple[dict, int]:
    results = []
    ok = True
    if obj is not None:
        checks = _validate_one(to_diagram(obj))
        results.append({"input": display(obj), "checks": checks})
        ok = all(v is not False for v in checks.values())
    else:
        for label in corpus_inputs(seed)[:40]:
            checks = _validate_one(to_diagram(parse(label)))
            results.append({"input": label, "checks": checks})
            ok = ok and all(v is not False for v in checks.values())
        for ts in ([[2], [3]], [[3], [3]], [[3], [5]], [[2], [5]]):
            from .montesinos import compile_montesinos
            d_half = compile_montesinos(0, ts + [[-2]])
            d_two = compile_montesinos(-2, ts)
            rep = prop224_check(
                d_half, d_two,
                ((d_half.n - 2, d_half.n - 1), (d_two.n - 2, d_two.n - 1)))
            results.append({"input": f"replacement pair {ts}",
                            "checks": {"replacement_identities": rep.ok}})
            ok = ok and rep.ok
    return {"validate": {"ok": ok, "results": results}}, 0 if ok else 3


# ------------------------------------------------------------------- corpus

def corpus_inputs(seed: int = 0) -> list[str]:
    """Deterministic list of 220 notations: every two-bridge slope with
    denominator at most 13, then a seeded sample of Montesinos forms with
    3 or 4 tangles, |e| <= 2 and alpha_i <= 5."""
    out = []
    for p in range(2, 14):
        for q in range(1, p):
            if gcd(q, p) == 1:
                out.append(f"R({q}/{p})")
    slopes = []
    for a in range(2, 6):
        for b in range(-a + 1, a):
            if b != 0 and gcd(abs(b), a) == 1:
                slopes.append((b, a))
    rng = random.Random(seed)
    seen = set()
    while len(out) < 220:
        r = rng.choice((3, 4))
        e = rng.randint(-2, 2)
        picks = tuple(rng.choice(slopes) for _ in range(r))
        key = (e, picks)
        if key in seen:
            continue
        seen.add(key)
        body = ", ".join(f"{b}/{a}" for b, a in picks)
        out.append(f"M({e}; {body})")
    return out


def _corpus_report(seed: int) -> dict:
    return {"corpus": corpus_inputs(seed)}


# --------------------------------------------------------------------- main

def run(req: Request) -> tuple[dict, int]:
    started = time.time()
    obj: Optional[Parsed] = None
    if req.input is not None:
        obj = parse(req.input)
    if req.command == "invariants":
        report, code = _invariants_report(obj, req.oracle), 0
    elif req.command == "certify-qa":
        report, code = _certify_report(obj, req.budget)
    elif req.command == "classify-sqp":
        report, code = _classify_report(obj), 0
    elif req.command == "genus":
        report, code = _genus_report(obj), 0
    elif req.command == "validate":
        report, code = _validate_report(obj, req.seed)
    elif req.command == "corpus":
        report, code = _corpus_report(req.seed), 0
    else:
        raise PreconditionViolated(f"unknown command {req.command}")
    report["timings"] = {"total_ms": round((time.time() - started) * 1000, 3)}
    return report, code


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            for i, v in enumerate(value):
                emit(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    emit("", report)
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qalinks",
        description="Exact link invariants, quasi-alternating certification "
                    "and strongly-quasipositive classification.")
    parser.add_argument("command",
                        choices=["invariants", "certify-qa", "classify-sqp",
                                 "genus", "validate", "corpus"])
    parser.add_argument("input", nargs="?",
                        help="link notation, or - to read from stdin")
    parser.add_argument("--budget", type=int, default=100000)
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--oracle", action="store_true",
                        help="use the audit routes (spanning-tree "
                             "determinants, Seifert-matrix signatures)")
    args = parser.parse_args(argv)
    if args.budget < 1:
        print("budget must be at least 1", file=sys.stderr)
        return 3
    text = args.input
    if text == "-":
        text = sys.stdin.read().strip()
    if text is None and args.command not in ("corpus", "validate"):
        print("this command needs an input", file=sys.stderr)
        return 1
    req = Request(args.command, text, args.budget, args.format,
                  args.seed, args.oracle)
    try:
        report, code = run(req)
    except ParseError as ex:
        print(str(ex), file=sys.stderr)
        return 1
    except PreconditionViolated as ex:
        print(f"precondition violated: {ex}", file=sys.stderr)
        return 3
    try:
        print(_render(report, args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so the
        # interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
