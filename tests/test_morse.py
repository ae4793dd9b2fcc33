"""Matchings, acyclicity, collapses and collapse witnesses."""

import json
import random
from itertools import combinations

import pytest

from cutnerve import complexes as cx
from cutnerve import constructions as cons
from cutnerve import graphs as gr
from cutnerve import homology as hom
from cutnerve import morse
from cutnerve.errors import (
    InvalidCollapseError,
    InvalidMatchingError,
    InvalidParameterError,
)

from oracles import descent_collapse


def ladder_total_cut(n):
    return cons.total_cut_complex(gr.circular_ladder(n), n - 1)


def face_of(c, labels):
    return c.face_of_labels(labels)


def matching_corpus():
    rng = random.Random(41)
    out = [
        cx.full_simplex("abcd"),
        cx.simplex_boundary("abcd"),
        cons.total_cut_complex(gr.cycle(6), 2),
        cons.neighborhood_complex(gr.circular_ladder(4)),
    ]
    for _ in range(6):
        n = rng.randint(4, 6)
        gens = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, 4))))
            for _ in range(rng.randint(2, 5))
        ]
        out.append(cx.from_facets([f"v{i}" for i in range(n)], gens))
    return out


# -- element matchings -----------------------------------------------------------

def test_element_matching_full_simplex_is_perfect():
    c = cx.full_simplex("abcd")
    m = morse.element_matching(c, "a")
    assert len(m.pairs) * 2 == c.face_count()
    assert m.partner(()) == (0,)
    assert morse.critical_cells(c, m) == []


def test_ladder5_sequential_matching_critical_cells():
    c = ladder_total_cut(5)
    m = morse.element_matching_sequence(c, ["1+", "1-"])
    assert m.partner(()) == face_of(c, ["1+"])
    cells = morse.critical_cells(c, m)
    expected = sorted(
        face_of(c, ["1-", f"{j}+", f"{j}-"]) for j in range(2, 6)
    )
    assert cells == expected
    assert all(len(f) == 3 for f in cells)


def test_ladder7_sequential_matching_critical_count():
    c = ladder_total_cut(7)
    m = morse.element_matching_sequence(c, ["1+", "1-"])
    cells = morse.critical_cells(c, m)
    assert len(cells) == 6
    assert all(len(f) == 3 for f in cells)


def test_element_matching_sequence_is_iterated_element_matching():
    for c in matching_corpus():
        if c.is_void() or c.face_count() > 200:
            continue
        m = None
        for v in range(c.n_vertices):
            m = morse.element_matching(c, v, m)
        assert morse.element_matching_sequence(c, range(c.n_vertices)).pairs == m.pairs


def test_element_matching_unknown_vertex():
    with pytest.raises(InvalidParameterError):
        morse.element_matching(cx.full_simplex("ab"), "z")


# -- acyclicity --------------------------------------------------------------------

def test_empty_matching_acyclic():
    ok, witness = morse.is_acyclic(cx.simplex_boundary("abc"), morse.Matching([]))
    assert ok and witness is None


def test_sequential_matchings_acyclic_on_corpus():
    rng = random.Random(53)
    for c in matching_corpus():
        if c.is_void() or c.face_count() > 200:
            continue
        verts = list(range(c.n_vertices))
        rng.shuffle(verts)
        m = morse.element_matching_sequence(c, verts[: rng.randint(1, len(verts))])
        ok, _ = morse.is_acyclic(c, m)
        assert ok


def test_hand_built_cycle_detected():
    # square: vertices 1..4, edges 12, 23, 34, 14; match each vertex upward
    # around the loop so the V-path walks forever
    c = cx.from_facets("1234", [(0, 1), (1, 2), (2, 3), (0, 3)])
    m = morse.Matching([
        ((0,), (0, 1)),
        ((1,), (1, 2)),
        ((2,), (2, 3)),
        ((3,), (0, 3)),
    ])
    ok, witness = morse.is_acyclic(c, m)
    assert not ok
    assert witness is not None and len(witness) >= 4
    # the witness alternates matched pairs: re-walk it by hand
    lowers = witness[0::2]
    uppers = witness[1::2]
    for i, s in enumerate(lowers):
        assert m.partner(s) == uppers[i]
        nxt = lowers[(i + 1) % len(lowers)]
        assert set(nxt) < set(uppers[i]) or nxt == lowers[i]
    with pytest.raises(InvalidMatchingError):
        morse.critical_cells(c, m)


def test_matching_rejects_reused_faces():
    with pytest.raises(InvalidMatchingError):
        morse.Matching([((0,), (0, 1)), ((0,), (0, 2))])
    with pytest.raises(InvalidMatchingError):
        morse.Matching([((0,), (0, 1, 2))])


def test_morse_inequality_on_corpus():
    for c in matching_corpus():
        if c.is_void() or c.face_count() > 200:
            continue
        m = morse.element_matching_sequence(c, range(c.n_vertices))
        cells = morse.critical_cells(c, m)
        profile = hom.reduced_homology(c)
        by_dim = {}
        for f in cells:
            by_dim[len(f) - 1] = by_dim.get(len(f) - 1, 0) + 1
        for d in range(len(profile.betti)):
            assert by_dim.get(d, 0) >= profile.betti_number(d)


# -- free faces and collapses --------------------------------------------------------

def test_free_faces_of_edge():
    c = cx.full_simplex("ab")
    assert morse.free_faces(c) == [((0,), (0, 1)), ((1,), (0, 1))]


def test_free_faces_of_boundary_empty():
    assert morse.free_faces(cx.simplex_boundary("abcd")) == []


def test_ladder_neighborhood_free_faces():
    n = 5
    nc = cons.neighborhood_complex(gr.circular_ladder(n))
    free = set(morse.free_faces(nc))
    for i in range(1, n + 1):
        sp = face_of(nc, [f"{i}+", f"{(i + 1) % n + 1}+"])
        sm = face_of(nc, [f"{i}-", f"{(i + 1) % n + 1}-"])
        assert any(s == sp for s, _ in free)
        assert any(s == sm for s, _ in free)


def test_elementary_collapse_edge_to_point():
    c = cx.full_simplex("ab")
    out = morse.collapse_complex(c, [((0,), (0, 1))])
    assert out.facets == ((1,),)


def test_elementary_collapse_rejects_non_free():
    c = cx.simplex_boundary("abc")
    with pytest.raises(InvalidCollapseError):
        morse.collapse_complex(c, [((0,), (0, 1))])
    # the empty face is never collapsed
    with pytest.raises(InvalidCollapseError):
        morse.collapse_complex(cx.full_simplex("ab"), [((), (0,))])


def test_elementary_collapse_interval():
    # [a, abc] removes a, ab, ac and abc from the triangle, leaving the edge bc
    c = cx.full_simplex("abc")
    out = morse.collapse_complex(c, [((0,), (0, 1, 2))])
    assert out.facets == ((1, 2),)
    # with the extra edge ad, a also lies outside the interval
    c = cx.from_facets("abcd", [(0, 1, 2), (0, 3)])
    with pytest.raises(InvalidCollapseError):
        morse.collapse_complex(c, [((0,), (0, 1, 2))])
    with pytest.raises(InvalidCollapseError):
        morse.collapse_complex(c, [((0, 1), (0, 3))])


def test_collapse_preserves_homology():
    rng = random.Random(61)
    checked = 0
    for c in matching_corpus():
        if c.is_void():
            continue
        free = morse.free_faces(c)
        if not free:
            continue
        sigma, tau = free[rng.randrange(len(free))]
        out = morse.collapse_complex(c, [(sigma, tau)])
        assert out.face_count() == c.face_count() - 2
        assert hom.reduced_homology(out) == hom.reduced_homology(c)
        checked += 1
    assert checked >= 4


def test_squared_cycle_band_collapse():
    # collapsing the stated free pair of every facet leaves the cyclic band
    k = 3
    m = 3 * k + 1
    h = gr.induced_k_independent(gr.squared_cycle(m), k)
    nc = cons.neighborhood_complex(h)
    steps = []
    for i in range(1, m + 1):
        sigma = tuple(sorted(((i + k - 1) % m, (i + 2 * k) % m)))
        tau = tuple(sorted((i + d - 1) % m for d in range(k, 2 * k + 2)))
        steps.append((sigma, tau))
    out = morse.collapse_complex(nc, steps)
    expected = {
        tuple(sorted((i + d) % m for d in range(k + 1))) for i in range(m)
    }
    assert set(out.facets) == expected
    assert hom.reduced_homology(out) == hom.reduced_homology(nc)


# -- greedy collapse -------------------------------------------------------------------

def test_greedy_collapse_cones():
    rng = random.Random(67)
    for c in matching_corpus()[:6]:
        if c.is_void():
            continue
        coned = cx.cone(c, "apex")
        witness = morse.greedy_collapse(coned)
        assert witness.is_collapsible()
        assert morse.replay_collapse(coned, witness)


def test_greedy_collapse_star_total_cut():
    tc = cons.total_cut_complex(gr.star(5), 2)
    witness = morse.greedy_collapse(tc)
    assert witness.is_collapsible()
    assert morse.replay_collapse(tc, witness)


def cycle_cover_intersections(n, k):
    cover = cons.independent_cover(gr.cycle(n), k)
    for face in cons.nerve(cover).all_faces():
        if face:
            inter = cons.cover_intersection(cover, face)
            if inter.has_vertices():
                yield inter


def test_greedy_collapse_cycle_cover_intersections():
    for n, k in [(6, 2), (7, 2), (6, 3)]:
        for inter in cycle_cover_intersections(n, k):
            witness = morse.greedy_collapse(inter)
            assert witness.is_collapsible()
            assert morse.replay_collapse(inter, witness)


def dominated_vertex(c):
    """The least vertex with another vertex in every facet through it."""
    for v in c.vertex_support():
        common = set.intersection(*(set(f) for f in c.facets if v in f))
        if common - {v}:
            return v
    return None


def strong_core(c):
    """Delete dominated vertices until none is left."""
    v = dominated_vertex(c)
    while v is not None:
        c = cx.from_facets(c.labels, [tuple(u for u in f if u != v) for f in c.facets])
        v = dominated_vertex(c)
    return c


def test_greedy_collapse_differential_against_descent():
    # the strong-collapse prelude must not change a verdict of the plain
    # descent, and both witnesses must replay
    rng = random.Random(71)
    corpus = [c for c in matching_corpus() if not c.is_void()]
    corpus += [cx.cone(c, "apex") for c in corpus]
    for _ in range(300):
        n = rng.randint(3, 8)
        gens = [
            rng.sample(range(n), rng.randint(1, min(n, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        c = cx.from_facets([f"v{i}" for i in range(n)], gens)
        corpus.append(cx.cone(c, "apex") if rng.random() < 0.3 else c)
    verdicts = set()
    for c in corpus:
        witness = morse.greedy_collapse(c)
        steps, terminal, verdict = descent_collapse(c.facets)
        assert witness.verdict == verdict
        assert morse.replay_collapse(c, witness)
        by_hand = morse.CollapseWitness(steps, terminal, verdict)
        assert by_hand.steps_tried == len(steps)
        assert morse.replay_collapse(c, by_hand)
        verdicts.add(verdict)
    assert verdicts == {"collapsible", "unknown"}


def test_strong_collapse_cone_to_apex():
    coned = cx.cone(cx.simplex_boundary("abcd"), "w")
    witness = morse.greedy_collapse(coned)
    assert witness.is_collapsible()
    assert witness.terminal == ((coned.labels.index("w"),),)
    assert witness.steps_tried == len(witness.steps) == (coned.face_count() - 2) // 2
    assert morse.replay_collapse(coned, witness)


def test_strong_collapse_order():
    # a (dominated by c) goes first; its link cd lies in bcd and is dropped,
    # so c is then dominated by b, which the stale facet cd would hide
    c = cx.from_facets("abcde", [(0, 2, 3), (1, 2, 3), (1, 4)])
    witness = morse.greedy_collapse(c)
    assert witness.steps == (
        ((0, 3), (0, 2, 3)), ((0,), (0, 2)),
        ((2, 3), (1, 2, 3)), ((2,), (1, 2)),
        ((3,), (1, 3)),
        ((1,), (1, 4)),
    )
    assert witness.terminal == ((4,),)
    assert morse.replay_collapse(c, witness)


def test_greedy_collapse_past_the_strong_collapses():
    # the strong collapses of some thm-3-1 n=7 k=2 intersections stop at a
    # core with no dominated vertex, which the descent then collapses
    inter = next(c for c in cycle_cover_intersections(7, 2) if strong_core(c).face_count() > 2)
    witness = morse.greedy_collapse(inter)
    assert witness.is_collapsible()
    assert morse.replay_collapse(inter, witness)
    core = strong_core(inter)
    assert dominated_vertex(core) is None
    witness = morse.greedy_collapse(core)
    assert witness.is_collapsible()
    assert morse.replay_collapse(core, witness)
    assert witness.steps == descent_collapse(core.facets)[0]


def test_greedy_collapse_sphere_unknown():
    witness = morse.greedy_collapse(cx.simplex_boundary("abcd"))
    assert witness.verdict == "unknown"
    assert witness.steps == ()


def test_greedy_collapse_unknown_witnesses_replay():
    # two disjoint edges strand after one pair each; the witness keeps them
    c = cx.from_facets("abcd", [(0, 1), (2, 3)])
    witness = morse.greedy_collapse(c)
    assert witness.verdict == "unknown"
    assert witness.steps == (((0,), (0, 1)), ((2,), (2, 3)))
    assert witness.terminal == ((1,), (3,))
    assert morse.replay_collapse(c, witness)
    # every witness replays, collapsible or not
    for c in matching_corpus():
        if c.is_void():
            continue
        assert morse.replay_collapse(c, morse.greedy_collapse(c))


def test_witness_json_roundtrip():
    tc = cons.total_cut_complex(gr.star(4), 2)
    witness = morse.greedy_collapse(tc)
    text = witness.to_json(tc)
    assert json.loads(text)["steps_tried"] == len(witness.steps) > 0
    back = morse.CollapseWitness.from_json(tc, text)
    assert back == witness
    assert morse.replay_collapse(tc, back)


def test_replay_refuses_collapsible_two_points():
    # two points are not collapsible: a "collapsible" witness that stops at
    # both is refused, though its steps and terminal set are right
    two = cx.discrete_points("ab")
    doc = '{"verdict":"collapsible","steps":[],"terminal":[["a"],["b"]]}'
    assert not morse.replay_collapse(two, morse.CollapseWitness.from_json(two, doc))
    assert morse.replay_collapse(two, morse.CollapseWitness((), ((0,), (1,)), "unknown"))
    # the empty complex's witness has no terminal faces and stays valid
    empty = cx.empty_complex("a")
    assert morse.replay_collapse(empty, morse.greedy_collapse(empty))


def test_replay_refuses_unknown_one_vertex():
    edge = cx.full_simplex("ab")
    steps = (((1,), (0, 1)),)
    assert morse.replay_collapse(edge, morse.CollapseWitness(steps, ((0,),), "collapsible"))
    assert not morse.replay_collapse(edge, morse.CollapseWitness(steps, ((0,),), "unknown"))


def test_replay_refuses_unrecognised_verdict():
    edge = cx.full_simplex("ab")
    assert not morse.replay_collapse(edge, morse.CollapseWitness((((1,), (0, 1)),), ((0,),), "banana"))
    two = cx.discrete_points("ab")
    assert not morse.replay_collapse(two, morse.CollapseWitness((), ((0,), (1,)), "banana"))
