"""Seeded inputs for the benchmark workloads.

Each generator takes the run's seed and returns the items of one pass.
qalinks only ever sees an item's notation string.  Expected answers that
have a closed form are computed here with Python integers and fractions,
so the checks share no arithmetic with qalinks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
AUDIT_PANEL = DATA / "audit_panel.json"


@dataclass(frozen=True)
class Item:
    label: str                 # notation handed to qalinks
    family: str                # generator rung, for per-rung reading
    expect: dict = field(default_factory=dict)  # closed-form answers


# ------------------------------------------------------------ closed forms

def cf_det(entries) -> int:
    """det of the numerator closure of CF[c1, ..., ck] (minus convention):
    the continuant of the entries, i.e. alpha in beta/alpha."""
    n, d = 1, 0
    for c in reversed(entries):
        n, d = c * n - d, n
    return abs(n)


def pretzel_det(ps) -> int:
    return abs(sum(prod(ps[:i] + ps[i + 1:]) for i in range(len(ps))))


def pretzel_components(ps) -> int:
    even = sum(1 for p in ps if p % 2 == 0)
    if even == 0:
        return 1 if len(ps) % 2 else 2
    return 1 if even == 1 else even


def montesinos_det(e: int, slopes) -> int:
    """|alpha_1 ... alpha_r (e + sum beta_i / alpha_i)| for slopes (b, a)."""
    total = Fraction(e) + sum(Fraction(b, a) for b, a in slopes)
    return int(abs(total * prod(a for _, a in slopes)))


def _cf_label(entries) -> str:
    return "CF[" + ", ".join(map(str, entries)) + "]"


def _pretzel_label(ps) -> str:
    return "P(" + ", ".join(map(str, ps)) + ")"


def _montesinos_label(e: int, slopes) -> str:
    return f"M({e}; " + ", ".join(f"{b}/{a}" for b, a in slopes) + ")"


def _random_slope(rng: random.Random, alphas) -> tuple[int, int]:
    a = rng.choice(alphas)
    b = rng.choice([b for b in range(1, a) if gcd(a, b) == 1])
    return b, a


# ---------------------------------------------------------------- invariants
#
# The everyday path: big rational closures and pretzel/Montesinos forms.
# Every item sits on a fixed rung: a CF length, or a pretzel's strand and
# crossing count.  The items are drawn once, from a fixed generator seed:
# drawn per run seed, one rung's cost moved by up to 40% between seeds, and
# the median item latency, which falls between two rungs, moved with it.
# The run seed orders the pass and rewrites notation: it rotates each
# pretzel's strands and shifts Montesinos slopes as in audit.

INV_CF_LENGTHS = [10 + 70 * i // 23 for i in range(24)]   # 10..80 entries
INV_PRETZEL_SIZES = [(3 + i % 5, 10 + 190 * i // 9) for i in range(10)]
INV_MONTESINOS = 6                                       # small forms


def invariants_items(seed: int) -> list[Item]:
    draw = random.Random("invariants")
    rng = random.Random(f"invariants:{seed}")
    items = []
    for length in INV_CF_LENGTHS:
        signs = random.Random(f"cf-signs:{length}")
        mags = [2, 3] * (length // 2) + [2] * (length % 2)
        draw.shuffle(mags)
        entries = [m * signs.choice((1, -1)) for m in mags]
        det = cf_det(entries)
        items.append(Item(_cf_label(entries), f"cf{length}",
                          {"determinant": det,
                           "components": 1 if det % 2 else 2}))
    for k, total in INV_PRETZEL_SIZES:
        signs = random.Random(f"pretzel-signs:{k}:{total}")
        pattern = [signs.choice((1, -1)) for _ in range(k)]
        while True:
            sizes = [2] * k
            for _ in range(total - 2 * k):
                sizes[draw.randrange(k)] += 1
            ps = [s * sign for s, sign in zip(sizes, pattern)]
            if pretzel_det(ps):
                break
        turn = rng.randrange(k)
        items.append(Item(_pretzel_label(ps[turn:] + ps[:turn]),
                          f"pretzel{total}",
                          {"determinant": pretzel_det(ps),
                           "components": pretzel_components(ps)}))
    for _ in range(INV_MONTESINOS):
        while True:
            e = draw.randint(-2, 2)
            slopes = []
            for _ in range(draw.randint(3, 5)):
                b, a = _random_slope(draw, range(2, 12))
                slopes.append((b * draw.choice((1, -1)), a))
            if montesinos_det(e, slopes):
                break
        label = _shifted_montesinos(rng, _montesinos_label(e, slopes))
        items.append(Item(label,
                          f"montesinos{len(slopes)}",
                          {"determinant": montesinos_det(e, slopes)}))
    rng.shuffle(items)
    return items


# --------------------------------------------------------------------- audit
#
# A fixed panel of the default corpus corpus_inputs(0): up to three diagrams
# of each crossing count n <= 20 and one at each of n = 21, 25 and 30, the
# corpus's largest, in corpus order.  The spanning-tree route costs from
# 0.4 s to 9 s among corpus diagrams of one n >= 25, so a panel drawn per
# seed would make the pass time depend on the seed more than on the code:
# over the full corpora of seeds 0-5 the median item latency spreads 28%.
# The seed therefore orders the panel and rewrites every Montesinos label
# into an equivalent unnormalized notation (slope b/a + k with e - k), which
# qalinks must normalize back to the same diagram.

AUDIT_SMALL_PER_N = 3
AUDIT_LARGE_FROM = 21
AUDIT_LARGE_N = (21, 25, 30)


def build_audit_panel(corpus_inputs, crossings) -> list[dict]:
    """Select the panel from the default corpus; ``crossings`` maps a
    label to the crossing count of its compiled diagram."""
    taken: dict[int, int] = {}
    panel = []
    for label in corpus_inputs(0):
        n = crossings(label)
        cap = (AUDIT_SMALL_PER_N if n < AUDIT_LARGE_FROM
               else int(n in AUDIT_LARGE_N))
        if taken.get(n, 0) < cap:
            taken[n] = taken.get(n, 0) + 1
            panel.append({"label": label, "n": n})
    return panel


def _shifted_montesinos(rng: random.Random, label: str) -> str:
    head, body = label[2:-1].split(";")
    e = int(head)
    slopes = []
    for part in body.split(","):
        b, a = (int(x) for x in part.strip().split("/"))
        k = rng.randint(0, 2) * (1 if b > 0 else -1)
        slopes.append((b + k * a, a))
        e -= k
    return _montesinos_label(e, slopes)


def audit_items(seed: int) -> list[Item]:
    rng = random.Random(f"audit:{seed}")
    panel = json.loads(AUDIT_PANEL.read_text())
    items = []
    for row in panel:
        label = row["label"]
        if label.startswith("M("):
            label = _shifted_montesinos(rng, label)
        items.append(Item(label, f"n{row['n']}", {"n": row["n"]}))
    rng.shuffle(items)
    return items


# ------------------------------------------------------------------- certify
#
# A fixed ladder of QA inputs (reduced alternating diagrams, so the search
# must certify them) and inputs the search must reject.  A certificate has
# 2 det - 1 nodes, so an item's cost depends on which member of a rung it
# is, and a ladder drawn per seed would make the pass time depend on the
# seed.  The seed therefore orders the ladder and rewrites its notation:
# Montesinos labels as in audit, and R(b/a) as R(kb/ka), which qalinks
# reduces back to the same diagram.  The ladder has 41 items, so that ten
# lie beyond its p75 tail.

CERT_LADDER = [
    ("CF[2, -2]", "cf-alt4"), ("CF[3, -3]", "cf-alt6"),
    ("CF[2, -2, 2]", "cf-alt6"), ("CF[3, -2, 2]", "cf-alt7"),
    ("CF[2, -3, 3]", "cf-alt8"), ("CF[2, -2, 2, -2]", "cf-alt8"),
    ("CF[3, -3, 3]", "cf-alt9"),
    ("CF[2, -3]", "cf-alt5"), ("CF[3, -2]", "cf-alt5"),
    ("CF[2, -2, 3, -3]", "cf-alt10"), ("CF[2, -3, 2, -3]", "cf-alt10"),
    ("CF[3, -2, 2, -3]", "cf-alt10"), ("CF[3, -2, 3, -2]", "cf-alt10"),
    ("CF[3, -3, 2, -2]", "cf-alt10"),
    ("CF[2, -2, 3, -2, 3, -3]", "cf-alt15"),
    ("P(3, 3, 3)", "pretzel9"), ("P(5, 3, 3)", "pretzel11"),
    ("P(3, 5, 3)", "pretzel11"), ("P(3, 5, 5)", "pretzel13"),
    ("P(3, 3, 3, 3)", "pretzel12"), ("P(3, 3, 3, 3, 3)", "pretzel15"),
    ("M(0; 1/2, 1/3, 2/5)", "montesinos-alt9"),
    ("M(0; 1/3, 1/3, 1/4)", "montesinos-alt10"),
    ("M(0; 1/3, 5/7, 1/4)", "montesinos-alt12"),
    ("M(0; 1/3, 1/5, 5/7)", "montesinos-alt13"),
    ("M(0; 1/4, 1/4, 3/7)", "montesinos-alt13"),
    ("R(3/10)", "two-bridge6"), ("R(7/11)", "two-bridge6"),
    ("R(5/12)", "two-bridge6"), ("R(4/13)", "two-bridge7"),
    ("R(5/17)", "two-bridge7"), ("R(7/19)", "two-bridge7"),
    ("R(7/24)", "two-bridge8"), ("R(11/29)", "two-bridge8"),
    ("R(7/30)", "two-bridge9"),
    ("R(10/27)", "two-bridge8"), ("R(23/60)", "two-bridge10"),
]
CERT_NOT_QA = ["P(3, 3, -2, 3)", "M(0; 1/3, 1/3, -1/3)"]
CERT_DET_ONE = ["P(-2, 3, 5)", "P(-2, 3, 7)"]


def _ints(label: str) -> list[int]:
    return [int(x) for x in label[2:-1].replace(";", ",").split(",")]


def _certified_det(label: str) -> int:
    if label.startswith("CF["):
        return cf_det(_ints(label[1:]))
    if label.startswith("P("):
        return pretzel_det(_ints(label))
    if label.startswith("R("):
        return int(label[2:-1].split("/")[1])
    head, body = label[2:-1].split(";")
    slopes = [tuple(int(x) for x in part.split("/"))
              for part in body.split(",")]
    return montesinos_det(int(head), slopes)


def _renotated(rng: random.Random, label: str) -> str:
    if label.startswith("M("):
        return _shifted_montesinos(rng, label)
    if label.startswith("R("):
        b, a = (int(x) for x in label[2:-1].split("/"))
        k = rng.randint(1, 3)
        return f"R({k * b}/{k * a})"
    return label


def certify_items(seed: int) -> list[Item]:
    rng = random.Random(f"certify:{seed}")
    items = [Item(_renotated(rng, label), family,
                  {"outcome": "Certified",
                   "determinant": _certified_det(label)})
             for label, family in CERT_LADDER]
    items += [Item(_renotated(rng, label), "not-qa",
                   {"outcome": "NotCertifiedHere"}) for label in CERT_NOT_QA]
    items += [Item(label, "det-one",
                   {"outcome": "NotCertifiedHere", "determinant": 1})
              for label in CERT_DET_ONE]
    rng.shuffle(items)
    return items


GENERATORS = {
    "invariants": invariants_items,
    "audit": audit_items,
    "certify": certify_items,
}
