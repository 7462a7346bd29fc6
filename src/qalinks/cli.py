"""Command-line front end: notation parsing, invariant reports, QA
certification, SQP classification, identity replays, corpus generation.

Grammar (whitespace-insensitive)::

    link  := "M(" INT ";" slope {"," slope} ")"
           | "R(" slope ")"
           | "P(" INT {"," INT} ")"
           | "CF[" INT {"," INT} "]"
           | "PD[" tuple {"," tuple} "]"
    slope := INT "/" INT | INT

Exit codes: 0 success, 1 parse error (notation or command line), 2 budget
exceeded, 3 precondition violated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .cfrac import PreconditionViolated
from .diagram import Diagram, MalformedDiagram, from_pd
from .invariants import (
    determinant,
    det_and_signature,
    det_spanning_trees,
    genus_certified,
    is_definite,
    mo_relations_check,
    report_orientation,
)
from .montesinos import (
    MontesinosData,
    TwoBridge,
    compile_data,
    compile_montesinos,
    compile_rational,
    compile_two_bridge,
    montesinos_data,
    positive_orientation_verdict,
    sqp_verdict,
    two_bridge_slope,
)
from .qa import certify, mirror_identity_check, prop224_check, validate_certificate


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


# ------------------------------------------------------------------ parsing

# On str, \s is exactly str.isspace and \d exactly str.isdecimal, the
# digits int() reads
_SPACE = re.compile(r"\s*")
_INTEGER = re.compile(r"\s*([+-]?)(\d*)")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        self.pos = _SPACE.match(self.text, self.pos).end()

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
        m = _INTEGER.match(self.text, self.pos)
        start = m.start(1)
        if not m.group(2):
            raise ParseError("expected an integer", start)
        self.pos = m.end()
        return int(self.text[start:self.pos])

    def slope(self) -> Fraction:
        num = self.integer()
        if self.accept("/"):
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", self.pos)
            return Fraction(num, den)
        return Fraction(num)

    def items(self, read, close: str) -> list:
        """``read()``, again after each comma, then the ``close`` token."""
        out = [read()]
        while self.accept(","):
            out.append(read())
        self.expect(close)
        return out

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
        slopes = s.items(s.slope, ")")
        s.end()
        return _montesinos_or_two_bridge(e, slopes, s)
    if s.accept("R("):
        q = s.slope()
        s.expect(")")
        s.end()
        return TwoBridge(q)
    if s.accept("P("):
        ps = s.items(s.integer, ")")
        s.end()
        for p in ps:
            if abs(p) < 2:
                raise ParseError(f"pretzel entry {p}: alpha must exceed 1",
                                 s.pos)
        return _montesinos_or_two_bridge(0, [Fraction(1, p) for p in ps], s)
    if s.accept("CF["):
        entries = s.items(s.integer, "]")
        s.end()
        return compile_rational(entries)
    start = s.pos
    if s.accept("PD["):
        def crossing() -> tuple[int, ...]:
            s.expect("(")
            vals = s.items(s.integer, ")")
            if len(vals) != 4:
                raise ParseError("PD tuples have four labels", s.pos)
            return tuple(vals)

        tuples = s.items(crossing, "]")
        s.end()
        try:
            return from_pd(tuples)
        except MalformedDiagram as ex:
            raise ParseError(f"bad PD code: {ex}", start)
    raise ParseError("expected M(, R(, P(, CF[ or PD[", s.pos)


def _montesinos_or_two_bridge(e: int, slopes, s: _Scanner) -> Parsed:
    for q in slopes:
        if q.denominator == 1:
            raise ParseError(f"slope {q}: alpha must exceed 1", s.pos)
    if len(slopes) <= 2:
        slope = two_bridge_slope(e, slopes)
        if slope is None:
            raise ParseError("degenerate two-bridge sum", s.pos)
        return TwoBridge(slope)
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

def _num(x: int):
    """Integers as decimal strings when too large for consumers."""
    return x if abs(x) < 2 ** 53 else str(x)


def _invariants_report(obj: Parsed, oracle: bool) -> dict:
    d = to_diagram(obj)
    rep: dict = {"input": display(obj), "components": d.components}
    if d.is_split():
        rep["determinant"] = 0
        return rep
    o = report_orientation(d)
    if oracle:
        from .seifert_oracle import signature_oracle
        det, sig = det_spanning_trees(d.black_graph()), signature_oracle(o)
    else:
        det, sig = det_and_signature(o)
    rep["determinant"] = _num(det)
    rep["writhe"] = o.writhe()
    rep["signature"] = sig
    cert = genus_certified(o)
    if cert is not None:
        rep["genus"] = {"value": cert.genus, "method": cert.method}
        rep["definite"] = is_definite(cert.genus, sig, d.components)
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
    cert = genus_certified(report_orientation(to_diagram(obj)))
    genus = (None if cert is None
             else {"value": cert.genus, "method": cert.method})
    return {"input": display(obj), "genus": genus}


def _validate_one(d: Diagram) -> dict:
    checks = {"mirror_identity": True, "conway_relations": True,
              "alternating_equivalence": None}
    o = report_orientation(d)
    det_l, sig_l = (0, None) if d.is_split() else det_and_signature(o)
    # det L = det L0 + det Linf is the hypothesis of the sigma and e
    # relations (Manolescu-Ozsvath), not a consequence of them; no crossing
    # meets it when det L = 0, and a non-split alternating L has det L > 0
    if not det_l:
        sig_l = None
    for p in range(d.n):
        # det L0 and det Linf serve both checks; each determinant is its own
        # elimination, since taken from one factorization the mirror
        # identity would hold by algebra alone and test nothing
        d0, dinf = o.resolve_oriented(p)
        dets = (det_l, determinant(d0), determinant(dinf))
        if not mirror_identity_check(d, p, dets):
            checks["mirror_identity"] = False
        if det_l:
            rep = mo_relations_check(o, p, d0, dinf, dets, sig_l)
            if (rep.proviso_ok and rep.det_identity
                    and not (rep.sigma_relation and rep.e_relation)):
                checks["conway_relations"] = False
    if d.is_alternating() and not d.is_split():
        cert = genus_certified(o)
        if cert is not None:
            definite = is_definite(cert.genus, sig_l, d.components)
            pos = abs(o.writhe()) == o.n
            special = o.is_special()
            checks["alternating_equivalence"] = (definite == pos == special)
    return checks


def _validate_report(obj: Optional[Parsed], seed: int) -> tuple[dict, int]:
    if obj is not None:
        inputs = [(display(obj), obj)]
    else:
        # a stride, as the first 57 labels are seed-free two-bridge slopes
        inputs = [(label, parse(label)) for label in corpus_inputs(seed)[::5]]
    results = [{"input": label, "checks": _validate_one(to_diagram(o))}
               for label, o in inputs]
    if obj is None:
        for ts in ([[2], [3]], [[3], [3]], [[3], [5]], [[2], [5]]):
            d_half = compile_montesinos(0, ts + [[-2]])
            d_two = compile_montesinos(-2, ts)
            rep = prop224_check(
                d_half, d_two,
                ((d_half.n - 2, d_half.n - 1), (d_two.n - 2, d_two.n - 1)))
            results.append({"input": f"replacement pair {ts}",
                            "checks": {"replacement_identities": rep.ok}})
    ok = all(v is not False for r in results for v in r["checks"].values())
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

def run(command: str, text: Optional[str] = None, budget: int = 100000,
        seed: int = 0, oracle: bool = False) -> tuple[dict, int]:
    started = time.time()
    obj: Optional[Parsed] = None
    if text is not None:
        obj = parse(text)
    if command == "invariants":
        report, code = _invariants_report(obj, oracle), 0
    elif command == "certify-qa":
        report, code = _certify_report(obj, budget)
    elif command == "classify-sqp":
        report, code = _classify_report(obj), 0
    elif command == "genus":
        report, code = _genus_report(obj), 0
    elif command == "validate":
        report, code = _validate_report(obj, seed)
    elif command == "corpus":
        report, code = _corpus_report(seed), 0
    else:
        raise PreconditionViolated(f"unknown command {command}")
    report["timings"] = {"total_ms": round((time.time() - started) * 1000, 3)}
    return report, code


_ESCAPE = json.encoder.encode_basestring_ascii
_SCALARS = {
    str: _ESCAPE,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` for a report of
    str-keyed dicts, lists, tuples and finite scalars, in one loop over an
    explicit stack, so no report depth meets Python's recursion limit.
    The stack holds text to write, and (text, container, depth) for a
    container still to open; a scalar is written into the text before
    it is pushed."""
    pieces = []
    stack = [("", report, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        before, value, depth = item
        if isinstance(value, dict):
            entries = [(_ESCAPE(k) + ": ", v)
                       for k, v in sorted(value.items())]
            brackets = "{}"
        elif isinstance(value, (list, tuple)):
            entries = [("", v) for v in value]
            brackets = "[]"
        else:
            raise TypeError(f"{type(value).__name__} is not JSON")
        if not entries:
            pieces.append(before + brackets)
            continue
        pieces.append(before + brackets[0])
        stack.append("\n" + "  " * depth + brackets[1])
        inner = "\n" + "  " * (depth + 1)
        for i in range(len(entries) - 1, -1, -1):
            label, v = entries[i]
            text = ("," if i else "") + inner + label
            write = _SCALARS.get(type(v))
            stack.append(text + write(v) if write is not None
                         else (text, v, depth + 1))
    return "".join(pieces)


def _render_text(report) -> str:
    """One ``path: value`` line per scalar leaf, dict keys sorted and
    list items by index, in one loop over an explicit stack."""
    lines = []
    stack = [("", report)]
    while stack:
        prefix, value = stack.pop()
        if isinstance(value, dict):
            stack += [(f"{prefix}{k}.", value[k])
                      for k in sorted(value, reverse=True)]
        elif isinstance(value, list):
            stack += [(f"{prefix}{i}.", value[i])
                      for i in range(len(value) - 1, -1, -1)]
        else:
            lines.append(f"{prefix[:-1]}: {value}")
    return "\n".join(lines)


def _render(report: dict, fmt: str) -> str:
    return _render_json(report) if fmt == "json" else _render_text(report)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, the parse-error code; argparse's own is 2,
    which qalinks gives to an exceeded budget."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _ArgumentParser(
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
    # parse_intermixed_args formats the usage text on every call unless it
    # is set, which costs more than the parse itself; the text is the same
    parser.usage = parser.format_usage()[len("usage: "):]
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # intermixed: flags may come before or after the input
    args = _parser().parse_intermixed_args(argv)
    if args.budget < 1:
        print("budget must be at least 1", file=sys.stderr)
        return 3
    text = args.input
    if text == "-":
        text = sys.stdin.read().strip()
    if text is None and args.command not in ("corpus", "validate"):
        print("this command needs an input", file=sys.stderr)
        return 1
    try:
        report, code = run(args.command, text, args.budget, args.seed,
                           args.oracle)
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
