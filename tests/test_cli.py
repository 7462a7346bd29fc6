import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractions import Fraction
from qalinks import cli
from qalinks.cli import (
    ParseError,
    corpus_inputs,
    main,
    parse,
    run,
    to_diagram,
)
from qalinks.diagram import Diagram
from qalinks.invariants import (
    determinant,
    find_negative_orientation,
    find_positive_orientation,
)
from qalinks.montesinos import MontesinosData, TwoBridge

from test_canonical_key import relabel
from test_montesinos import bench_workloads


def _cli_env() -> dict:
    """The environment for a ``python -m qalinks.cli`` subprocess that
    imports qalinks from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestParse:
    def test_montesinos(self):
        m = parse("M(0; 1/2, 1/3, 1/7)")
        assert isinstance(m, MontesinosData)
        assert m.r == 3 and m.e == 0

    def test_whitespace_insensitive(self):
        a = parse("M(0;1/2,1/3,1/7)")
        b = parse("  M( 0 ;  1/2 ,1/3,  1/7 )  ")
        assert a == b

    def test_two_bridge(self):
        t = parse("R(2/5)")
        assert isinstance(t, TwoBridge)
        assert t.slope == Fraction(2, 5) and t.slope.denominator == 5

    def test_pretzel_sugar(self):
        m = parse("P(2, 3, 7)")
        assert isinstance(m, MontesinosData)
        assert m.slopes == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))

    def test_short_montesinos_routes_to_two_bridge(self):
        t = parse("M(0; 1/2, 1/3)")
        assert isinstance(t, TwoBridge)
        assert t.slope == Fraction(-1, 5)

    def test_two_strand_pretzel_is_a_torus_link(self):
        # P(a, b) is the (2, a + b) torus link
        for text in ("P(3,3)", "P(2,4)"):
            d = to_diagram(parse(text))
            assert determinant(d) == 6 and d.components == 2

    def test_cf(self):
        d = parse("CF[2, -2]")
        assert isinstance(d, Diagram)
        assert determinant(d) == 5

    def test_pd(self):
        d = parse("PD[(4,2,5,1),(6,4,1,3),(2,6,3,5)]")
        assert isinstance(d, Diagram)
        assert determinant(d) == 3

    def test_errors_carry_position(self):
        for text in ("", "Q(1)", "R(2/0)", "R(1/2", "P(1)", "M(0; 1/2, 1/3,)",
                     "PD[(1,2,3)]", "R(1/2) x"):
            with pytest.raises(ParseError):
                parse(text)

    def test_scanner_classes_are_the_str_predicates(self):
        # the scanner matches \s and \d; on every code point they are
        # str.isspace and str.isdecimal, which it tested one at a time
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", text) == [c for c in text if c.isspace()]
        assert re.findall(r"\d", text) == [c for c in text
                                            if c.isdecimal()]

    def test_unicode_space_between_tokens(self):
        assert parse("CF[2,\u20033]\u2003") == parse("CF[2, 3]")
        assert str(parse("M(\u20030;\u20031/2,1/3,\u20031/7)")) == \
            "M(0; 1/2, 1/3, 1/7)"

    def test_integer_tangle_rejected(self):
        with pytest.raises(ParseError):
            parse("M(0; 2, 1/3, 1/3)")


# Malformed notations and the one stderr line each prints, exit code 1
PARSE_ERRORS = (
    ("R(1/2", "position 5: expected ')'"),
    ("R(1/0)", "position 5: zero denominator"),
    ("CF[2,,3]", "position 5: expected an integer"),
    # a sign is part of its integer, so no space may follow it
    ("CF[2,- 3]", "position 5: expected an integer"),
    ("CF[]", "position 3: expected an integer"),
    ("M(0;)", "position 4: expected an integer"),
    # a digit that int() does not read
    ("CF[²]", "position 3: expected an integer"),
    ("M(0 1/2)", "position 4: expected ';'"),
    ("PD[(1,2,3,4)(5,6,7,8)]", "position 12: expected ']'"),
    ("PD[(1,2,3,4),]", "position 13: expected '('"),
    ("PD[]", "position 3: expected '('"),
    ("M(0; 1/2, -1/2)", "position 15: degenerate two-bridge sum"),
    ("P(0)", "position 4: pretzel entry 0: alpha must exceed 1"),
    ("  PD[(1,2,1,1)]",
     "position 2: bad PD code: arc label 1 appears 3 times"),
    # U+2003 EM SPACE is whitespace between tokens
    ("P(\u20032", "position 4: expected ')'"),
    ("CF[2,3]\u2003x", "position 8: trailing input"),
)


@pytest.mark.parametrize("text,message", PARSE_ERRORS)
def test_parse_error_message_and_position(capsys, text, message):
    assert main(["invariants", text]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error at {message}\n"


FUZZ_BASES = tuple(corpus_inputs(0)) + (
    "CF[2, -3, 4]", "P(3, -2, 5, 3)",
    "PD[(4,2,5,1),(6,4,1,3),(2,6,3,5)]",
    "PD[(4,2,5,1),(8,6,1,5),(6,3,7,4),(2,7,3,8)]",
)


@st.composite
def _one_edit(draw) -> str:
    """A base notation with one character edited at a drawn index:
    truncated there, deleted, duplicated or replaced."""
    text = draw(st.sampled_from(FUZZ_BASES))
    i = draw(st.integers(0, len(text) - 1))
    edit = draw(st.sampled_from(("truncate", "delete", "duplicate",
                                 "replace")))
    if edit == "truncate":
        return text[:i]
    if edit == "delete":
        return text[:i] + text[i + 1:]
    if edit == "duplicate":
        return text[:i + 1] + text[i:]
    return text[:i] + draw(st.sampled_from("0-,/;()[]²")) + text[i + 1:]


@given(_one_edit())
def test_edited_notation_ends_in_an_exit_code(text):
    assume(text != "-")  # reads stdin
    # every notation ends in a report or a documented exit code; an
    # argparse usage error (a text that reads as a flag) exits with its own
    for command in ("invariants", "classify-sqp", "certify-qa"):
        try:
            code = main([command, text, "--budget", "200"])
        except SystemExit as ex:
            code = ex.code
        assert code in (0, 1, 2, 3), (command, text)


class TestCommands:
    def test_invariants_json(self, capsys):
        assert main(["invariants", "R(2/3)"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["determinant"] == 3
        assert rep["signature"] == -2
        assert rep["genus"] == {"value": 1, "method": "alternating-reduced"}

    def test_invariants_oracle_agrees(self, capsys):
        assert main(["invariants", "M(0; 1/2, 1/3, 1/7)"]) == 0
        fast = json.loads(capsys.readouterr().out)
        assert main(["invariants", "M(0; 1/2, 1/3, 1/7)", "--oracle"]) == 0
        slow = json.loads(capsys.readouterr().out)
        assert fast["determinant"] == slow["determinant"] == 41
        assert fast["signature"] == slow["signature"]

    def test_certify_qa(self, capsys):
        assert main(["certify-qa", "R(2/3)"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["qa"]["outcome"] == "Certified"
        assert rep["qa"]["valid"] is True
        assert rep["qa"]["certificate"]["det"] == 3

    def test_integer_slope_is_a_certified_unknot(self, capsys):
        assert main(["invariants", "R(3)"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["determinant"] == 1 and rep["components"] == 1
        assert main(["certify-qa", "R(3)"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["qa"] == {"outcome": "Certified",
                             "certificate": "unknot", "valid": True}

    def test_budget_exit_code(self, capsys):
        assert main(["certify-qa", "M(0; 1/2, 1/3, 1/7)", "--budget", "2"]) == 2
        rep = json.loads(capsys.readouterr().out)
        assert rep["qa"]["outcome"] == "BudgetExceeded"

    def test_classify_sqp(self, capsys):
        assert main(["classify-sqp", "M(0; 1/2, 2/5, -2/5)"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["sqp"]["verdict"] == "NotSQP"
        assert rep["sqp"]["witness"]["genus"] == 2
        assert rep["sqp"]["witness"]["g4_bound"] == 1

    def test_genus(self, capsys):
        assert main(["genus", "P(2,3,7)"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["genus"]["value"] == 5

    def test_validate_single(self, capsys):
        assert main(["validate", "R(2/3)"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["validate"]["ok"] is True

    def test_validate_asks_conway_relations_only_where_det_sums(self, capsys):
        # det L = det L0 + det Linf, the hypothesis of the sigma and e
        # relations, fails at a crossing of P(-2, 3, 5) whose resolutions
        # both have nonzero determinant
        assert main(["validate", "P(-2,3,5)"]) == 0
        rep = json.loads(capsys.readouterr().out)
        checks = rep["validate"]["results"][0]["checks"]
        assert checks["conway_relations"] is True
        assert checks["mirror_identity"] is True

    def test_many_components_without_orientation_enumeration(
            self, capsys, no_orientation_enumeration):
        # 16 components: 2^15 orientations to try by enumeration
        label = "P(" + ", ".join(["2, -2"] * 8) + ")"
        reports = {}
        for command in ("invariants", "genus", "classify-sqp", "validate"):
            assert main([command, label]) == 0, command
            reports[command] = json.loads(capsys.readouterr().out)
        inv = reports["invariants"]
        assert (inv["components"], inv["writhe"], inv["signature"]) == \
            (16, 32, -16)
        assert reports["genus"]["genus"] == {"value": 1,
                                             "method": "positive-diagram"}
        assert reports["classify-sqp"]["sqp"] == {
            "verdict": "SQP", "reason": "PositiveOrientation"}
        assert reports["validate"]["validate"]["ok"] is True

    def test_validate_default_corpus(self):
        p = subprocess.run([sys.executable, "-m", "qalinks.cli", "validate"],
                           capture_output=True, text=True, env=_cli_env(),
                           timeout=120)
        assert p.returncode == 0, p.stdout[-2000:] + p.stderr
        assert "Traceback" not in p.stderr, p.stderr
        assert json.loads(p.stdout)["validate"]["ok"] is True

    @pytest.mark.parametrize("label", ["CF[2, -3, 3, -2, 2, -3, -3, 2]",
                                       "P(3, -2, 5, 3)"])
    def test_invariants_report_takes_one_elimination(self, monkeypatch,
                                                     capsys, label):
        # the determinant and the signature share one Goeritz matrix and
        # one symmetric elimination
        from qalinks import invariants
        calls = []

        def counting(name):
            original = getattr(invariants, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return counted

        for name in ("goeritz_matrix", "_bareiss"):
            monkeypatch.setattr(invariants, name, counting(name))
        assert main(["invariants", label]) == 0
        assert sorted(calls) == ["_bareiss", "goeritz_matrix"]
        assert isinstance(json.loads(capsys.readouterr().out)["signature"],
                          int)

    def test_validate_computes_det_of_the_link_once(self, monkeypatch,
                                                    capsys):
        # det L and sigma(L) come from one Goeritz matrix of the link
        from qalinks import invariants
        d = to_diagram(parse("P(3,-2,5,3)"))
        assert d.n == 13
        of_link = []
        original = invariants.goeritz_matrix

        def counted(x):
            of_link.append(x.pairing == d.pairing)
            return original(x)

        monkeypatch.setattr(invariants, "goeritz_matrix", counted)
        assert main(["validate", "P(3,-2,5,3)"]) == 0
        assert len(of_link) > 1 and sum(of_link) == 1

    def test_validate_takes_each_resolution_determinant_once(
            self, monkeypatch, capsys):
        # det L once, then per crossing det L0 and det Linf, shared by the
        # mirror identity and the Conway relations, and the mirror
        # identity's crossing change: at most 1 + 3n calls
        from qalinks import cli, invariants, qa
        calls = []
        original = invariants.determinant

        def counted(x):
            calls.append(x.pairing)
            return original(x)

        for module in (cli, invariants, qa):
            monkeypatch.setattr(module, "determinant", counted)
        assert main(["validate", "P(3,-2,5,3)"]) == 0
        assert len(calls) <= 1 + 3 * 13

    def test_long_continued_fraction(self):
        # 600 entries, n = 1500: deeper than the interpreter's recursion limit
        entries = ", ".join(["2, -3"] * 300)
        p = subprocess.run([sys.executable, "-m", "qalinks.cli", "invariants",
                            f"CF[{entries}]"],
                           capture_output=True, text=True, env=_cli_env(),
                           timeout=120)
        assert p.returncode == 0, p.stderr[-2000:]
        assert "Traceback" not in p.stderr, p.stderr[-2000:]
        assert json.loads(p.stdout)["input"] == "diagram with 1500 crossings"

    def test_parse_error_exit_code(self, capsys):
        assert main(["invariants", "R(2/0)"]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_bad_pd_points_at_the_code(self, capsys):
        # label 1 appears three times: a malformed diagram, reported where
        # the PD code starts
        assert main(["invariants", "  PD[(1,2,1,1)]"]) == 1
        err = capsys.readouterr().err
        assert "parse error at position 2" in err
        assert "arc label 1 appears 3 times" in err

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(" R(2/3) \n"))
        assert main(["invariants", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["determinant"] == 3

    def test_text_format(self, capsys):
        assert main(["invariants", "R(2/3)", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "determinant: 3" in out and "signature: -2" in out

    def test_flags_before_or_after_the_input(self, capsys):
        for flags in (["--oracle"], ["--budget", "5"],
                      ["--format", "text", "--oracle"]):
            outs = []
            for argv in (["invariants", *flags, "R(2/3)"],
                         ["invariants", "R(2/3)", *flags]):
                assert main(argv) == 0
                outs.append(re.sub(r'"?total_ms"?: [0-9.]+', "",
                                   capsys.readouterr().out))
            assert outs[0] == outs[1] and "determinant" in outs[0]

    def test_usage_errors_are_parse_errors(self):
        env = _cli_env()
        for args, code in ((["invariants", "--budget", "x", "R(2/3)"], 1),
                           (["invariants", "R(2/3)", "--budget", "x"], 1),
                           (["invariants", "R(2/3)", "R(2/5)"], 1),
                           (["no-such-command"], 1),
                           (["invariants", "--help"], 0)):
            p = subprocess.run([sys.executable, "-m", "qalinks.cli", *args],
                               capture_output=True, text=True, env=env,
                               timeout=60)
            assert p.returncode == code, (args, p.stderr)
            assert "Traceback" not in p.stderr, p.stderr
            assert ("usage: qalinks" in p.stderr + p.stdout), args

    def test_deterministic_output(self, capsys):
        # the raw stdout of two runs, with only the wall time taken out
        for argv in (["invariants", "M(1; 1/2, -2/5, 1/3)"],
                     ["certify-qa", "CF[2, -3, 2, -3]"]):
            outs = []
            for _ in range(2):
                assert main(argv) == 0
                outs.append(re.sub(r'"total_ms": [0-9.e+-]+', '"total_ms": ',
                                   capsys.readouterr().out))
            assert outs[0] == outs[1] and '"total_ms": \n' in outs[0]


# sha256 of `certify-qa LABEL` stdout with "timings" dropped: any change to
# candidate order, crossing indices or the certificate JSON shows here
CERTIFICATE_DIGESTS = (
    ("CF[2, -3, 2, -3]",
     "ec4e07cd87dc7ef931a093f3a7c0eaf849061b68ca47d4d93cc8b675256f5263"),
    ("CF[2, -2, 3, -2, 3, -3]",
     "88dceaabe298c51afc64200ead48ff86113776aee67886c21eb72d2f9d7ae5b9"),
    ("P(3, 3, 3)",
     "a5ad9a2b383a159a2d2ae51486e338401142ca9e7c341bd455a4c8ac4d6aa4ef"),
    ("P(3, 5, 3)",
     "37087d6691c6a3afe97a3b39288978297a89cbf9aa02c23a71637e183f55ea23"),
    ("M(0; 1/3, 5/7, 1/4)",
     "2343e16ab15f96fb2878f68930ef034ccf6d7d7938845b5724456f80b542d1da"),
    ("R(7/24)",
     "6ea2dd202ce5c8a7895c2c4f68c396d16097f24de95ef12cb26438ba377868ed"),
    ("R(23/60)",
     "fa273502f1ac1adec30c556343ebf0ffa6ad7c52e92d21ce8e8a99b822005460"),
    ("P(3, 3, -2, 3)",
     "676930658ff1dd044a7dff3b8ec985c76813ed8c9ab7922668cd8809bfffe298"),
    ("P(-2, 3, 5)",
     "5b058d15a5917fe41ae4b68a7c19ce70f4c832f42b1269210a0ab05f89a7fc38"),
)


class TestCertificateBytes:
    @pytest.mark.parametrize("label,digest", CERTIFICATE_DIGESTS)
    def test_certify_qa_stdout_is_pinned(self, capsys, label, digest):
        assert main(["certify-qa", label]) == 0
        rep = json.loads(capsys.readouterr().out)
        del rep["timings"]
        text = json.dumps(rep, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _recorded_reports(monkeypatch) -> list:
    """The reports ``main`` renders from now on, in order."""
    reports = []

    def recorded(*args):
        report, code = run(*args)
        reports.append(report)
        return report, code

    monkeypatch.setattr(cli, "run", recorded)
    return reports


def _emit_recursively(report) -> str:
    """The text format as a recursive walk, the renderer it replaced."""
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


def _certificate_chain_report(levels: int) -> dict:
    """A certify-qa report whose certificate is a chain of ``levels``
    internal nodes, each one level of object and one of array below the
    last."""
    node = "unknot"
    for k in range(levels):
        node = {"key": "loops:0;", "crossing": 0, "det": k + 2, "det0": 1,
                "detInf": k + 1, "children": ["unknot", node]}
    return {"input": "synthetic", "timings": {"total_ms": 0.5},
            "qa": {"outcome": "Certified", "certificate": node,
                   "valid": True}}


class TestRender:
    """stdout is ``json.dumps(report, indent=2, sort_keys=True)`` and a
    newline, byte for byte, from a renderer that takes no Python frame per
    level of the report."""

    def test_json_stdout_is_json_dumps_of_the_report(self, monkeypatch,
                                                     capsys):
        reports = _recorded_reports(monkeypatch)
        ladder = [item.label
                  for item in bench_workloads().GENERATORS["certify"](0)]
        runs = [[command, label]
                for label in corpus_inputs(0)[::5] + ladder
                for command in ("invariants", "genus", "classify-sqp",
                                "certify-qa", "validate")]
        for argv in runs + [["corpus"]]:
            main(argv)
            out = capsys.readouterr().out
            assert out == json.dumps(reports[-1], indent=2,
                                     sort_keys=True) + "\n", argv
        assert len(reports) == len(runs) + 1

    def test_text_stdout_is_the_recursive_walk(self, monkeypatch, capsys):
        reports = _recorded_reports(monkeypatch)
        for argv in (["invariants", "P(3, 5, 3)"], ["genus", "R(3/7)"],
                     ["classify-sqp", "M(0; 1/3, 1/3, -1/5)"],
                     ["certify-qa", "CF[2, -3, 2, -3]"],
                     ["validate", "R(5/12)"], ["corpus"]):
            main([*argv, "--format", "text"])
            out = capsys.readouterr().out
            assert out == _emit_recursively(reports[-1]) + "\n", argv

    def test_scalars_and_empty_containers(self):
        report = {"b": [1, -2.5, None, True, False, (3, (4,))], "a": {},
                  "c": [], "d": "quote \" and \u00e9\n", "e": [[], {}]}
        assert cli._render(report, "json") == json.dumps(
            report, indent=2, sort_keys=True)
        assert cli._render(report, "text") == _emit_recursively(report)

    def test_a_deep_certificate_renders_under_a_tight_recursion_limit(self):
        # 500 certificate levels nest objects and arrays over 1,000 deep;
        # the text format prints each level's path in full, so its size
        # grows with the square of the depth
        report = _certificate_chain_report(500)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            json_text = cli._render(report, "json")
            text = cli._render(report, "text")
            # the standard encoder takes two frames per level
            sys.setrecursionlimit(limit + 3000)
            assert json_text == json.dumps(report, indent=2, sort_keys=True)
        finally:
            sys.setrecursionlimit(limit)
        path = "qa.certificate." + "children.1." * 499
        assert f"\n{path}children.1: unknot\n" in text
        assert text.count("\n") + 1 == 6 * 500 + 5


def _stdout_digest(capsys, runs) -> str:
    """sha256 over the exit code and the stdout, "timings" dropped, of
    each ``main(argv)`` in ``runs``."""
    h = hashlib.sha256()
    for argv in runs:
        code = main(argv)
        rep = json.loads(capsys.readouterr().out)
        del rep["timings"]
        h.update(f"{code}\0".encode())
        h.update(json.dumps(rep, indent=2, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


# sha256 of the default ``validate --seed SEED`` run (see _stdout_digest)
VALIDATE_DIGESTS = {
    0: "181a9fa626985c18d4e3725da343a1467462c2d42fac1a563c4d6efde80b4c21",
    1: "923145afb17d8154b55f9fd2986ec1d37ce82bf03b5aa47d88df637a535b91c9",
}


class TestReportBytes:
    """Pinned stdout of the reports that read crossing types (special
    diagrams, the signature's Gordon-Litherland correction) and of
    ``classify-sqp``.  The default ``validate`` runs every fifth label of
    the seed's corpus, two-bridge slopes and Montesinos forms, so each seed
    prints its own report; ``validate LABEL`` covers the whole corpus."""

    @pytest.mark.parametrize("seed", sorted(VALIDATE_DIGESTS))
    def test_validate_default_run(self, capsys, seed):
        assert _stdout_digest(capsys, [["validate", "--seed", str(seed)]]) \
            == VALIDATE_DIGESTS[seed]

    def test_validate_seed_changes_the_report(self, capsys):
        inputs = []
        for seed in (0, 1):
            assert main(["validate", "--seed", str(seed)]) == 0
            rep = json.loads(capsys.readouterr().out)
            inputs.append([r["input"] for r in rep["validate"]["results"]])
        assert inputs[0] != inputs[1]
        assert any(label.startswith("M(") for label in inputs[0])
        assert VALIDATE_DIGESTS[0] != VALIDATE_DIGESTS[1]

    def test_validate_each_corpus_label(self, capsys):
        runs = [["validate", label] for label in corpus_inputs(0)]
        assert _stdout_digest(capsys, runs) == \
            "6cb631098319ea558cbc3d78e64fab062d0de4bcd12f4ee6adfa53b54b6c9811"

    def test_classify_sqp_each_corpus_label(self, capsys):
        runs = [["classify-sqp", label] for label in corpus_inputs(0)]
        assert _stdout_digest(capsys, runs) == \
            "aa9a61eac7802c08e58a5f37644b3cd053c3e0024c3e81d8a4a5e1cd6c32e28b"


# Alternating links whose first orientation has another genus than the
# sign-coherent one every report describes
FIRST_ORIENTATION_DIFFERS = ("P(2,2,2)", "P(2,2,2,2,2)", "P(2,2,2,2,2,2,2)",
                             "M(0; 1/4, 1/2, 1/2)", "M(-1; -1/3, -1/2, -1/4)")


class TestReportOrientation:
    def test_definite_iff_positive_or_negative_orientation(self):
        # criterion 05's equivalence, read from the invariants report
        labels = [label for label in corpus_inputs(0)
                  if to_diagram(parse(label)).is_alternating()]
        labels += [f"P({', '.join([str(a)] * k)})"
                   for k in range(3, 8) for a in (2, -2)]
        assert len(labels) == 70
        for label in labels:
            d = to_diagram(parse(label))
            signed = (find_positive_orientation(d)
                      or find_negative_orientation(d))
            rep, _ = run("invariants", label)
            assert rep["definite"] == (signed is not None), label

    def test_validate_where_the_first_orientation_differs(self, capsys):
        for label in FIRST_ORIENTATION_DIFFERS:
            assert main(["validate", label]) == 0, label
            rep = json.loads(capsys.readouterr().out)
            checks = rep["validate"]["results"][0]["checks"]
            assert checks["alternating_equivalence"] is True, label

    def test_pretzel_like_its_mirror(self):
        for label in ("P(2,2,2)", "P(-2,-2,-2)"):
            rep, _ = run("invariants", label)
            assert rep["genus"]["value"] == 0, label
            assert rep["definite"] is True, label


def pd_code(d: Diagram) -> str:
    """PD notation of a diagram without free loops: per crossing, its arcs
    counterclockwise from slot 1, an over-strand half-edge, as
    ``from_pd`` reads them; arc k is the k-th in half-edge order."""
    arc = {}
    for h, p in enumerate(d.pairing):
        arc.setdefault(min(h, p), len(arc) + 1)
    body = ",".join(
        "({},{},{},{})".format(*(arc[min(h, d.pairing[h])]
                                 for h in (4 * c + 1, 4 * c + 2, 4 * c + 3,
                                           4 * c)))
        for c in range(d.n))
    return f"PD[{body}]"


SMALL_CORPUS = [label for label in corpus_inputs(0)
                if to_diagram(parse(label)).n <= 12]


def orientation_fixed(d: Diagram) -> bool:
    """Whether the report orientation of d is fixed by the link up to
    reversing every component: a knot, or a positive or negative link."""
    return bool(d.components == 1 or find_positive_orientation(d)
                or find_negative_orientation(d))


class TestRelabeledPD:
    """The oracle's report is a function of the link, not of its labels."""

    @settings(max_examples=100)
    @given(st.data())
    def test_oracle_report_survives_relabeling(self, data):
        # crossings permuted, slots turned by even steps, and maybe the
        # diagram turned over: the plane reflected and every crossing
        # changed, a half turn in space, so the same link
        label = data.draw(st.sampled_from(SMALL_CORPUS))
        d = to_diagram(parse(label))
        perm = data.draw(st.permutations(range(d.n)))
        rot = data.draw(st.lists(st.sampled_from((0, 2)), min_size=d.n,
                                 max_size=d.n))
        turned = data.draw(st.booleans())
        moved = relabel(d, perm, rot, turned)
        if turned:
            moved = moved.mirror()
        code = pd_code(moved)
        assert to_diagram(parse(code)).pairing == moved.pairing
        ref, _ = run("invariants", label, oracle=True)
        rep, _ = run("invariants", code, oracle=True)
        assert rep["determinant"] == ref["determinant"], (label, code)
        if orientation_fixed(d):
            assert rep["signature"] == ref["signature"], (label, code)
        else:
            # each component's direction follows the labels, so compare
            # with the Goeritz route on the same orientation
            assert rep["signature"] == run("invariants", code)[0][
                "signature"], (label, code)

    def test_sample_holds_links_of_both_kinds(self):
        free = [label for label in SMALL_CORPUS
                if not orientation_fixed(to_diagram(parse(label)))]
        assert (len(SMALL_CORPUS), len(free)) == (76, 11)


class TestCorpus:
    def test_size_and_determinism(self):
        a = corpus_inputs(0)
        b = corpus_inputs(0)
        assert a == b
        assert len(a) >= 200
        assert len(set(a)) == len(a)

    def test_two_bridge_coverage(self):
        from math import gcd
        labels = set(corpus_inputs(0))
        want = sum(1 for p in range(2, 14) for q in range(1, p)
                   if gcd(q, p) == 1)
        assert want == 57
        got = sum(1 for s in labels if s.startswith("R("))
        assert got == 57

    def test_all_parse_and_compile(self):
        for label in corpus_inputs(0)[:80]:
            d = to_diagram(parse(label))
            d.validate()

    def test_seed_changes_sample(self):
        assert corpus_inputs(0) != corpus_inputs(1)

    def test_corpus_command(self, capsys):
        assert main(["corpus"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert len(rep["corpus"]) >= 200


class TestClosedPipe:
    def test_closed_stdout_gives_exit_code(self):
        p = subprocess.Popen([sys.executable, "-m", "qalinks.cli", "corpus"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=_cli_env())
        p.stdout.close()  # the reader goes away before any output
        err = p.stderr.read().decode()
        p.stderr.close()
        assert p.wait(timeout=60) == 0
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
