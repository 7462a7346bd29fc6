"""The early-abort canonical key against the string search it replaced,
kept here as the reference, and the key's invariance under relabeling,
slot rotation and reflection; the pruned search on symmetric maps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qalinks import diagram
from qalinks.cli import corpus_inputs, parse, to_diagram
from qalinks.diagram import UNKNOT, Diagram, MalformedDiagram


# ------------------------------------------------------------ reference

def _traversal_encoding(pairing, h0):
    """BFS relabeling starting from h0; crossings anchored so the discovery
    slot maps to 0 (under) or 1 (over), preserving under/over strands."""
    n = len(pairing) // 4
    order = {}
    offset = {}

    def norm(h):
        c = h // 4
        return order[c], (h % 4 - offset[c]) % 4

    c0 = h0 // 4
    order[c0] = 0
    s0 = h0 % 4
    offset[c0] = s0 if s0 % 2 == 0 else s0 - 1
    queue = [c0]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        for k in range(4):
            p = pairing[4 * c + (offset[c] + k) % 4]
            c2 = p // 4
            if c2 not in order:
                order[c2] = len(order)
                s2 = p % 4
                offset[c2] = s2 if s2 % 2 == 0 else s2 - 1
                queue.append(c2)
    if len(order) < n:
        for c in sorted(c for c in range(n) if c not in order):
            order[c] = len(order)
            offset[c] = 0
    edges = []
    for c in sorted(order, key=lambda c: order[c]):
        for k in range(4):
            edges.append(norm(pairing[4 * c + (offset[c] + k) % 4]))
    return ",".join(f"{a}.{b}" for a, b in edges)


def reflected(pairing):
    """The mirror image in the plane: slot s becomes slot -s."""
    def remap(h):
        return 4 * (h // 4) + (-h) % 4

    new = [0] * len(pairing)
    for h, p in enumerate(pairing):
        new[remap(h)] = remap(p)
    return tuple(new)


def reference_key(d):
    """The least encoding over all 4n starts of the map and its reflection,
    compared as strings."""
    if d.n == 0:
        return f"loops:{d.free_loops}".encode()
    best = None
    for pr in (d.pairing, reflected(d.pairing)):
        for h0 in range(4 * d.n):
            enc = _traversal_encoding(pr, h0)
            if best is None or enc < best:
                best = enc
    return (f"loops:{d.free_loops};" + best).encode()


# --------------------------------------------------------------- inputs

def corpus_diagrams(max_n=20):
    out = []
    for label in corpus_inputs(0):
        d = to_diagram(parse(label))
        if d.n <= max_n:
            out.append(d)
    return out


def disjoint_union(a, b):
    shift = len(a.pairing)
    pairing = a.pairing + tuple(p + shift for p in b.pairing)
    return Diagram(pairing, a.free_loops + b.free_loops)


def relabel(d, perm, rot, reflect):
    """Crossing c becomes perm[c]; slots turn by rot[c] (even, so under
    stays under), and by a reflection of the plane when ``reflect``."""
    def h_new(h):
        c, s = divmod(h, 4)
        s = (s + rot[c]) % 4
        if reflect:
            s = -s % 4
        return 4 * perm[c] + s

    pairing = [0] * len(d.pairing)
    for h, p in enumerate(d.pairing):
        pairing[h_new(h)] = h_new(p)
    return Diagram(tuple(pairing), d.free_loops)


CORPUS = corpus_diagrams()


# ---------------------------------------------------------------- tests

def test_corpus_keys_match_reference():
    assert len(CORPUS) >= 100
    for d in CORPUS:
        assert d.canonical_key() == reference_key(d)


def test_simplified_resolutions_match_reference():
    seen = 0
    for d in CORPUS[::10]:
        for c in range(d.n):
            for kind in ("zero", "infinity"):
                r = d.resolve(c, kind).simplify()
                assert r.canonical_key() == reference_key(r)
                seen += 1
    assert seen >= 300


def test_disconnected_and_free_loops_match_reference():
    # free loops only set the prefix; two pieces of crossings have no key
    small = [d for d in CORPUS if d.n <= 8][:6]
    cases = [UNKNOT, Diagram((), free_loops=3)]
    split = []
    for a in small:
        cases.append(Diagram(a.pairing, 2))
        for b in small:
            split.append(disjoint_union(a, b))
            split.append(disjoint_union(Diagram(b.pairing, 1), a))
    for d in cases:
        d.validate()
        assert d.canonical_key() == reference_key(d)
    for d in split:
        d.validate()
        with pytest.raises(MalformedDiagram):
            d.canonical_key()


def test_large_diagram_matches_reference():
    d = to_diagram(parse("CF[" + ", ".join(["2", "-3"] * 8) + "]"))
    assert d.n >= 30
    assert d.canonical_key() == reference_key(d)


@given(st.data())
def test_key_invariant_under_relabeling(data):
    d = data.draw(st.sampled_from(CORPUS))
    perm = data.draw(st.permutations(range(d.n)))
    rot = data.draw(st.lists(st.sampled_from((0, 2)),
                             min_size=d.n, max_size=d.n))
    reflect = data.draw(st.booleans())
    moved = relabel(d, perm, rot, reflect)
    moved.validate()
    assert moved.canonical_key() == d.canonical_key()


# ------------------------------------------------- the pruned key search

def pretzel_3(k):
    return to_diagram(parse("P(" + ", ".join(["3"] * k) + ")"))


FIG8 = to_diagram(parse("CF[2, -2]"))  # amphichiral: a reflection ties
SYMMETRIC = [pretzel_3(k) for k in range(2, 7)] + [FIG8]
SELF_UNIONS = [disjoint_union(d, d)
               for d in [FIG8, pretzel_3(2), pretzel_3(3)] + CORPUS[:4]]


@given(st.data())
def test_symmetric_maps_match_reference(data):
    d = data.draw(st.sampled_from(SYMMETRIC))
    perm = data.draw(st.permutations(range(d.n)))
    rot = data.draw(st.lists(st.sampled_from((0, 2)),
                             min_size=d.n, max_size=d.n))
    moved = relabel(d, perm, rot, data.draw(st.booleans()))
    moved.validate()
    assert moved.canonical_key() == reference_key(moved)


def merges(monkeypatch, d):
    """The ``flip`` of every class merge while d is keyed."""
    flips = []
    merge = diagram._merge_images

    def recorded(cls, ran, starts, a, b, flip):
        flips.append(flip)
        return merge(cls, ran, starts, a, b, flip)

    monkeypatch.setattr(diagram, "_merge_images", recorded)
    d.canonical_key()
    return flips


def test_ties_prune_on_connected_maps(monkeypatch):
    assert 1 in merges(monkeypatch, FIG8)  # the map and its reflection
    assert merges(monkeypatch, pretzel_3(6))


def test_split_maps_have_no_key():
    # a BFS leaves the other piece unnumbered, so no numbering is canonical
    for d in SELF_UNIONS:
        with pytest.raises(MalformedDiagram):
            d.canonical_key()


@given(st.sampled_from(SYMMETRIC + CORPUS), st.booleans())
def test_head_is_the_first_two_tokens(d, reflect):
    pairing = d._reflected_pairing() if reflect else d.pairing
    rank, _ = diagram._key_tables(d.n)
    for h0 in range(0, len(pairing), 2):
        run = diagram._encoding_below(pairing, h0, rank, None)
        assert diagram._head(pairing, h0, rank) == tuple(run.tokens[:2])
