"""Matchings, acyclicity, collapses and collapse witnesses."""

import hashlib
import json
import random
import re
from collections import Counter
from itertools import combinations

import pytest

from cutnerve import complexes as cx
from cutnerve import constructions as cons
from cutnerve import graphs as gr
from cutnerve import homology as hom
from cutnerve import morse, verify
from cutnerve.errors import InvalidParameterError, ResourceLimitError

from oracles import (
    closure_element_matching,
    closure_of,
    cone,
    descent_collapse,
    discrete_points,
    empty_complex,
    face_count,
    from_facets,
    full_simplex,
    simplex_boundary,
    tuple_strong_collapse,
    v_path_cycle,
    void_complex,
)


def ladder_total_cut(n):
    return cons.total_cut_complex(gr.circular_ladder(n), n - 1)


def face_of(c, labels):
    """The vertex tuple of the face with these labels."""
    return cx.mask_face(c.face_of_labels(labels))


def tuple_pairs(pairs):
    """Mask pairs as vertex-tuple pairs sorted by (dimension, lower face),
    the order of the closure oracle."""
    return tuple(sorted(((cx.mask_face(s), cx.mask_face(t)) for s, t in pairs),
                        key=lambda p: (len(p[0]), p[0])))


def partner(pairs, face):
    """The vertex tuple matched with ``face`` by a list of mask pairs, or
    None when it is unmatched."""
    m = cx.face_mask(face)
    return next((cx.mask_face(s ^ t ^ m) for s, t in pairs if m in (s, t)), None)


def faces_of_cells(c, pairs):
    """The critical cells as vertex tuples, in the order reported."""
    return [cx.mask_face(f) for f in morse.critical_cells(c, pairs)]


def mask_pairs(pairs):
    return tuple((cx.face_mask(s), cx.face_mask(t)) for s, t in pairs)


def faces_of(masks):
    """Sorted vertex tuples of face masks."""
    return tuple(sorted(map(cx.mask_face, masks)))


def masks_of(faces):
    """Sorted masks of vertex tuples, as a witness's terminal."""
    return tuple(sorted(map(cx.face_mask, faces)))


def matching_corpus():
    rng = random.Random(41)
    out = [
        full_simplex("abcd"),
        simplex_boundary("abcd"),
        cons.total_cut_complex(gr.cycle(6), 2),
        cons.neighborhood_complex(gr.circular_ladder(4)),
    ]
    for _ in range(6):
        n = rng.randint(4, 6)
        gens = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, 4))))
            for _ in range(rng.randint(2, 5))
        ]
        out.append(from_facets([f"v{i}" for i in range(n)], gens))
    return out


# -- element matchings -----------------------------------------------------------

def random_complex(rng):
    n = rng.randint(2, 8)
    gens = [
        tuple(rng.sample(range(n), rng.randint(1, min(n, 6))))
        for _ in range(rng.randint(1, 6))
    ]
    return from_facets([f"v{i}" for i in range(n)], gens)


def assert_matches_closure_oracle(c, vertices):
    """The pairs, every face's partner and the critical cells of the
    sequence's matching are the closure oracle's."""
    m = morse.element_matching_sequence(c, vertices)
    expected = closure_element_matching(c, [c.labels.index(v) if isinstance(v, str) else v for v in vertices])
    assert tuple_pairs(m) == expected
    expected_partner = {f: g for s, t in expected for f, g in ((s, t), (t, s))}
    faces = c.all_faces()
    assert all(partner(m, f) == expected_partner.get(f) for f in faces)
    critical = [f for f in faces if f and f not in expected_partner]
    assert faces_of_cells(c, m) == sorted(critical, key=lambda f: (len(f), f))
    return m



def test_element_matching_full_simplex_is_perfect():
    c = full_simplex("abcd")
    m = assert_matches_closure_oracle(c, ["a"])
    assert len(m) * 2 == face_count(c)
    assert partner(m, ()) == (0,)
    assert morse.critical_cells(c, m) == []


def test_ladder5_sequential_matching_critical_cells():
    c = ladder_total_cut(5)
    m = morse.element_matching_sequence(c, ["1+", "1-"])
    assert partner(m, ()) == face_of(c, ["1+"])
    cells = faces_of_cells(c, m)
    expected = sorted(
        face_of(c, ["1-", f"{j}+", f"{j}-"]) for j in range(2, 6)
    )
    assert cells == expected
    assert all(len(f) == 3 for f in cells)


def test_ladder7_sequential_matching_critical_count():
    c = ladder_total_cut(7)
    m = morse.element_matching_sequence(c, ["1+", "1-"])
    cells = faces_of_cells(c, m)
    assert len(cells) == 6
    assert all(len(f) == 3 for f in cells)


def test_element_matching_sequence_is_iterated_element_matching():
    for c in matching_corpus():
        if c.void or face_count(c) > 200:
            continue
        m = ()
        for v in range(c.n_vertices):
            m = closure_element_matching(c, [v], m)
        assert tuple_pairs(morse.element_matching_sequence(c, range(c.n_vertices))) == m


def test_element_matching_unknown_vertex():
    # a vertex is a label or an int index in range; True is no vertex 1
    for v in ("z", 2, -1, True, 1.0, None):
        with pytest.raises(InvalidParameterError):
            morse.element_matching_sequence(full_simplex("ab"), [v])


def test_element_matching_sequence_matches_closure_oracle():
    # partial sequences in shuffled order; the recursion itself is also
    # checked on the same sequence, for its critical cells (the empty face
    # included) and its partner walk
    rng = random.Random(2027)
    for _ in range(300):
        c = random_complex(rng)
        verts = list(range(c.n_vertices))
        rng.shuffle(verts)
        seq = verts[: rng.randint(0, len(verts))]
        assert_matches_closure_oracle(c, seq)
        masks = [sum(1 << v for v in f) for f in c.facets]
        em = hom.ElementMatching(masks, seq)
        expected = closure_element_matching(c, seq)
        partner = {f: g for s, t in expected for f, g in ((s, t), (t, s))}
        as_face = lambda m: tuple(v for v in range(c.n_vertices) if m >> v & 1)
        assert sorted(map(as_face, em.cells)) == sorted(f for f in c.all_faces() if f not in partner)
        assert sorted(tuple(map(as_face, p)) for p in em.pairs()) == sorted(expected)
        for f in c.all_faces():
            up = em.partner(sum(1 << v for v in f))
            assert (None if up is None else as_face(up)) == partner.get(f)


def test_element_matching_sequence_edge_cases():
    c = cons.total_cut_complex(gr.cycle(6), 2)
    # a repeated vertex pairs nothing more the second time
    m = assert_matches_closure_oracle(c, ["3", "1", "1", "3"])
    assert tuple_pairs(m) == tuple_pairs(morse.element_matching_sequence(c, ["3", "1"]))
    # the empty sequence matches nothing, so every nonempty face is critical
    m = assert_matches_closure_oracle(c, [])
    assert len(m) == 0 and len(morse.critical_cells(c, m)) == 50
    # the empty complex has only the empty face, and the void complex none
    for c in (empty_complex("ab"), void_complex("ab")):
        m = assert_matches_closure_oracle(c, ["a", "b"])
        assert len(m) == 0 and morse.critical_cells(c, m) == []


def test_element_matching_sequence_charges_the_face_budget(monkeypatch):
    # TC(C6, 2) over the vertex 1 charges 161 units: 2 recursion nodes and
    # the 7 critical cells they carry; the leaf (del_1 A, lk_1 A), whose
    # faces are enumerated at the bound sum 2^|f| of 56 over del_1 A's four
    # facets and 48 over lk_1 A's six triangles; and the root's pairs, which
    # enumerate lk_1 A again for 48
    tc = cons.total_cut_complex(gr.cycle(6), 2)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "160")
    with pytest.raises(ResourceLimitError) as err:
        morse.element_matching_sequence(tc, ["1"])
    assert err.value.budget == 160
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "161")
    assert len(morse.element_matching_sequence(tc, ["1"])) == 22
    assert tc._closure is None


# -- acyclicity --------------------------------------------------------------------

def test_empty_matching_acyclic():
    assert len(morse.critical_cells(simplex_boundary("abc"), [])) == 6


def test_sequential_matchings_acyclic_on_corpus():
    rng = random.Random(53)
    for c in matching_corpus():
        if c.void or face_count(c) > 200:
            continue
        verts = list(range(c.n_vertices))
        rng.shuffle(verts)
        m = morse.element_matching_sequence(c, verts[: rng.randint(1, len(verts))])
        assert morse.critical_cells(c, m) is not None


def test_hand_built_cycle_detected():
    # square: vertices 1..4, edges 12, 23, 34, 14; match each vertex upward
    # around the loop so the V-path walks forever
    c = from_facets("1234", [(0, 1), (1, 2), (2, 3), (0, 3)])
    m = mask_pairs([
        ((0,), (0, 1)),
        ((1,), (1, 2)),
        ((2,), (2, 3)),
        ((3,), (0, 3)),
    ])
    witness = v_path_cycle(c, m)
    assert witness is not None and len(witness) >= 4
    # the witness alternates matched pairs: re-walk it by hand
    witness = [cx.mask_face(f) for f in witness]
    lowers = witness[0::2]
    uppers = witness[1::2]
    for i, s in enumerate(lowers):
        assert partner(m, s) == uppers[i]
        nxt = lowers[(i + 1) % len(lowers)]
        assert set(nxt) < set(uppers[i]) or nxt == lowers[i]
    assert morse.critical_cells(c, m) is None


def test_matching_rejects_reused_faces():
    c = full_simplex("abc")
    assert morse.critical_cells(c, mask_pairs([((0,), (0, 1)), ((0,), (0, 2))])) is None
    assert morse.critical_cells(c, mask_pairs([((0,), (0, 1, 2))])) is None
    # a pair outside the complex
    assert morse.critical_cells(full_simplex("ab"), mask_pairs([((0,), (0, 2))])) is None
    # a pair upside down, and a face paired with itself
    assert morse.critical_cells(c, mask_pairs([((0, 1), (0,))])) is None
    assert morse.critical_cells(c, mask_pairs([((0,), (0,))])) is None


def test_critical_cells_agrees_with_the_v_path_search_on_perturbed_matchings():
    # element matchings over seeded vertex orders, each then perturbed by
    # one to three seeded edits: drop a pair (still acyclic), repeat a pair
    # (a face twice), add a covering pair of faces of the closure (most often
    # a face twice), or swap in the V-path cycle R+x -> R+x+y -> R+y ->
    # R+y+z -> R+z -> R+z+x -> R+x on three vertices x, y, z of a face,
    # dropping the pairs that held its six faces; random additions alone
    # almost never close a cycle
    rng = random.Random(42)
    seen = Counter()
    for c in matching_corpus():
        faces = closure_of(c.facets)
        tops = sorted(f for f in faces if f)
        triangles = [f for f in tops if len(f) >= 3]
        for _ in range(40):
            verts = list(range(c.n_vertices))
            rng.shuffle(verts)
            pairs = list(morse.element_matching_sequence(c, verts[: rng.randint(0, len(verts))]))
            for _ in range(rng.randint(1, 3)):
                edit = rng.choice(("drop", "repeat", "add", "cycle"))
                if edit == "add" and tops:
                    t = rng.choice(tops)
                    pairs.append((cx.face_mask(t) ^ 1 << rng.choice(t), cx.face_mask(t)))
                elif edit == "cycle" and triangles:
                    t = rng.choice(triangles)
                    x, y, z = (1 << v for v in rng.sample(t, 3))
                    rest = cx.face_mask(t) ^ x ^ y ^ z
                    loop = [(rest | x, rest | x | y), (rest | y, rest | y | z), (rest | z, rest | z | x)]
                    taken = set().union(*loop)
                    pairs = [p for p in pairs if taken.isdisjoint(p)] + loop
                elif pairs:
                    pair = pairs.pop(rng.randrange(len(pairs)))
                    pairs += [pair, pair] if edit == "repeat" else []
            try:
                refusal = "cycle" if v_path_cycle(c, pairs) else None
            except ValueError:
                refusal = "malformed"
            seen[refusal] += 1
            cells = morse.critical_cells(c, pairs)
            if refusal:
                assert cells is None, (c, pairs)
            else:
                matched = {cx.mask_face(f) for pair in pairs for f in pair}
                expected = sorted(faces - matched - {()}, key=lambda f: (len(f), f))
                assert [cx.mask_face(f) for f in cells] == expected, (c, pairs)
    assert len(seen) == 3, seen


def test_morse_inequality_on_corpus():
    for c in matching_corpus():
        if c.void or face_count(c) > 200:
            continue
        m = morse.element_matching_sequence(c, range(c.n_vertices))
        cells = faces_of_cells(c, m)
        profile = hom.reduced_homology(c)
        by_dim = {}
        for f in cells:
            by_dim[len(f) - 1] = by_dim.get(len(f) - 1, 0) + 1
        for d in range(len(profile.betti)):
            assert by_dim.get(d, 0) >= profile.betti[d]


# -- collapses ------------------------------------------------------------------------

def free_pairs(c):
    """Every (sigma, tau) with sigma nonempty and tau its only coface, by
    subset enumeration over the closure."""
    faces = [f for f in c.all_faces() if f]
    out = []
    for s in faces:
        cofaces = [t for t in faces if len(t) == len(s) + 1 and set(s) < set(t)]
        if len(cofaces) == 1:
            out.append((s, cofaces[0]))
    return out


def collapsed(c, steps):
    """The complex left by ``steps``, which must all apply."""
    applied, left = morse.apply_collapses(c, (), mask_pairs(steps))
    assert applied == len(steps)
    return cx.SimplicialComplex(c.labels, left)


def test_ladder_neighborhood_free_faces():
    n = 5
    nc = cons.neighborhood_complex(gr.circular_ladder(n))
    for i in range(1, n + 1):
        for sign, other in (("+", "-"), ("-", "+")):
            sigma = nc.face_of_labels([f"{i}{sign}", f"{(i + 1) % n + 1}{sign}"])
            tau = nc.face_of_labels([f"{i}{sign}", f"{i % n + 1}{other}", f"{(i + 1) % n + 1}{sign}"])
            applied, left = morse.apply_collapses(nc, (), [(sigma, tau)])
            assert applied == 1 and sigma not in left and tau not in left


def test_elementary_collapse_edge_to_point():
    c = full_simplex("ab")
    applied, left = morse.apply_collapses(c, (), mask_pairs([((0,), (0, 1))]))
    assert (applied, faces_of(left)) == (1, ((1,),))


def test_elementary_collapse_rejects_non_free():
    # the applier stops at the first step that does not hold
    c = simplex_boundary("abc")
    faces = tuple(f for f in c.all_faces() if f)
    applied, left = morse.apply_collapses(c, (), mask_pairs([((0,), (0, 1))]))
    assert (applied, faces_of(left)) == (0, faces)
    # the empty face is never collapsed
    c = full_simplex("ab")
    applied, _ = morse.apply_collapses(c, (), mask_pairs([((), (0,)), ((0,), (0, 1))]))
    assert applied == 0
    # nor is a pair after one that failed
    c = full_simplex("abc")
    applied, left = morse.apply_collapses(
        c, (), mask_pairs([((0, 1), (0, 1, 2)), ((0,), (0, 1)), ((1,), (1, 2))]))
    assert applied == 1 and (1, 2) in faces_of(left)


def test_collapse_preserves_homology():
    rng = random.Random(61)
    checked = 0
    for c in matching_corpus():
        if c.void:
            continue
        free = free_pairs(c)
        if not free:
            continue
        sigma, tau = free[rng.randrange(len(free))]
        out = collapsed(c, [(sigma, tau)])
        assert face_count(out) == face_count(c) - 2
        assert hom.reduced_homology(out) == hom.reduced_homology(c)
        checked += 1
    assert checked >= 4


def interval_steps(sigma, tau):
    """The pair steps that remove {gamma : sigma <= gamma <= tau}: fix a
    vertex e of tau - sigma and pair each gamma from sigma up to tau - {e}
    with gamma + {e}, largest gamma first."""
    *extra, e = (v for v in tau if v not in sigma)
    return [
        (gamma, tuple(sorted(gamma + (e,))))
        for r in range(len(extra), -1, -1)
        for gamma in (tuple(sorted(sigma + add)) for add in combinations(extra, r))
    ]


def test_squared_cycle_band_collapse():
    # collapsing the interval from the stated free edge of every facet up to
    # the facet, one pair at a time, leaves the cyclic band
    k = 3
    m = 3 * k + 1
    h = gr.induced_k_independent(gr.squared_cycle(m), k)
    nc = cons.neighborhood_complex(h)
    steps = []
    for i in range(1, m + 1):
        sigma = tuple(sorted(((i + k - 1) % m, (i + 2 * k) % m)))
        tau = tuple(sorted((i + d - 1) % m for d in range(k, 2 * k + 2)))
        steps += interval_steps(sigma, tau)
    out = collapsed(nc, steps)
    expected = {
        tuple(sorted((i + d) % m for d in range(k + 1))) for i in range(m)
    }
    assert set(out.facets) == expected
    assert hom.reduced_homology(out) == hom.reduced_homology(nc)


# -- greedy collapse -------------------------------------------------------------------

def test_greedy_collapse_cones():
    rng = random.Random(67)
    for c in matching_corpus()[:6]:
        if c.void:
            continue
        coned = cone(c, "apex")
        witness = morse.greedy_collapse(coned)
        assert witness.is_collapsible()
        assert morse.replay_collapse(coned, witness)


def test_greedy_collapse_star_total_cut():
    tc = cons.total_cut_complex(gr.star(5), 2)
    witness = morse.greedy_collapse(tc)
    assert witness.is_collapsible()
    assert morse.replay_collapse(tc, witness)


def cycle_cover_intersections(n, k):
    """The intersections over the nonempty nerve faces of the thm-3-1 cover."""
    cover = cons.independent_cover(gr.cycle(n), k)
    for face in cover.nerve().all_faces():
        if face:
            yield cover.intersection(cx.face_mask(face))


def test_greedy_collapse_cycle_cover_intersections():
    for n, k in [(6, 2), (7, 2), (6, 3)]:
        for inter in cycle_cover_intersections(n, k):
            witness = morse.greedy_collapse(inter)
            assert witness.is_collapsible()
            assert morse.replay_collapse(inter, witness)


# sha256 over the witness JSON and the replay verdict of every non-cone
# nonempty nerve-face intersection of thm-3-1 at n = 4..9, k = 2, 3; a
# change to the search or the replay that alters a witness updates it
CYCLE_WITNESSES_SHA256 = "3cd26658ea49fda064915858e9e899443daad78f42d8d8e04fc7daa443ad5e53"


def test_cycle_cover_witnesses_are_pinned():
    digest, searched = hashlib.sha256(), 0
    for n in range(4, 10):
        for k in (2, 3):
            if 2 * k > n:
                continue
            cover = cons.independent_cover(gr.cycle(n), k)
            for face in sorted(filter(None, cx.closure_masks(cover.nerve().facet_masks()))):
                inter = cover.intersection(face)
                if verify._cone_apexes(inter):
                    continue
                witness = morse.greedy_collapse(inter)
                replayed = morse.replay_collapse(inter, witness)
                digest.update(f"{n},{k},{face}:{witness.to_json(inter)}:{replayed}\n".encode())
                searched += 1
    assert searched == 116
    assert digest.hexdigest() == CYCLE_WITNESSES_SHA256


def test_greedy_collapse_is_the_oracle_of_the_cone_apex():
    # thm-3-1 passes a cone intersection on its apex alone; the search must
    # find every such cone collapsible, with a witness that replays
    cones = []
    for k in (2, 3):
        for n in range(2 * k, 9):
            cones += [inter for inter in cycle_cover_intersections(n, k) if verify._cone_apexes(inter)]
    assert len(cones) == 379 + 222  # the cycle-collapse sizes, then n = 8, k = 2
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 7)
        apex = 1 << rng.randrange(n)
        facets = [rng.randrange(1 << n) | apex for _ in range(rng.randint(1, 6))]
        cones.append(cx.SimplicialComplex([str(v) for v in range(n)], facets))
    for c in cones:
        assert verify._cone_apexes(c)
        witness = morse.greedy_collapse(c)
        assert witness.is_collapsible(), c
        assert morse.replay_collapse(c, witness), c


def dominated_vertex(c):
    """The least vertex with another vertex in every facet through it."""
    for v in sorted(set().union(*c.facets)):
        common = set.intersection(*(set(f) for f in c.facets if v in f))
        if common - {v}:
            return v
    return None


def delete_vertex(c, v):
    return from_facets(c.labels, [tuple(u for u in f if u != v) for f in c.facets])


def strong_core(c):
    """Delete dominated vertices until none is left."""
    v = dominated_vertex(c)
    while v is not None:
        c = delete_vertex(c, v)
        v = dominated_vertex(c)
    return c


def test_greedy_collapse_differential_against_descent():
    # the strong-collapse prelude must not change a verdict of the plain
    # descent, and both witnesses must replay
    rng = random.Random(71)
    corpus = [c for c in matching_corpus() if not c.void]
    corpus += [cone(c, "apex") for c in corpus]
    for _ in range(300):
        n = rng.randint(3, 8)
        gens = [
            rng.sample(range(n), rng.randint(1, min(n, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        c = from_facets([f"v{i}" for i in range(n)], gens)
        corpus.append(cone(c, "apex") if rng.random() < 0.3 else c)
    verdicts = set()
    for c in corpus:
        witness = morse.greedy_collapse(c)
        steps, terminal, verdict = descent_collapse(c.facets)
        assert witness.verdict == verdict
        assert morse.replay_collapse(c, witness)
        # the dominations stop at a core that has no dominated vertex
        core = c
        for v, w in witness.dominations:
            core = delete_vertex(core, v)
        assert dominated_vertex(core) is None
        by_hand = morse.CollapseWitness(mask_pairs(steps), masks_of(terminal), verdict)
        assert by_hand.steps_tried == len(steps)
        assert morse.replay_collapse(c, by_hand)
        verdicts.add(verdict)
    assert verdicts == {"collapsible", "unknown"}


def test_strong_collapse_cone_to_apex():
    # four dominations reach the apex; no face closure is built for them
    coned = cone(simplex_boundary("abcd"), "w")
    witness = morse.greedy_collapse(coned)
    assert witness.is_collapsible()
    assert faces_of(witness.terminal) == ((coned.labels.index("w"),),)
    assert len(witness.dominations) == witness.steps_tried == 4
    assert witness.steps == ()
    assert coned._closure is None
    assert morse.replay_collapse(coned, witness)


def test_greedy_collapse_face_guard_is_exact(monkeypatch):
    # the guard counts the closure of the core the strong collapses leave,
    # the empty face included, and never the input's: the cone has 30
    # faces, but its core is the apex, whose closure has 2
    coned = cone(simplex_boundary("abcd"), "w")
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "1")
    with pytest.raises(ResourceLimitError):
        morse.greedy_collapse(coned)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "2")
    witness = morse.greedy_collapse(coned)
    assert witness.is_collapsible() and witness.steps == ()
    assert morse.replay_collapse(coned, witness)
    # a collapsible core with no dominated vertex (38 faces), with a
    # tetrahedron awxy that strong-collapses onto a: 52 faces in all
    c = from_facets("abcdefwxy", [(0, 1, 2), (1, 2, 3, 4), (0, 1, 3, 5), (0, 3, 4, 5), (2, 4, 5),
                                     (0, 6, 7, 8)])
    monkeypatch.delenv("CUTNERVE_FACE_BUDGET")
    assert len(c.all_faces()) == 52
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "37")
    with pytest.raises(ResourceLimitError):
        morse.greedy_collapse(c)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "38")
    witness = morse.greedy_collapse(c)
    assert witness.dominations == ((6, 0), (7, 0), (8, 0)) and len(witness.steps) == 18
    assert witness.is_collapsible() and morse.replay_collapse(c, witness)


def test_greedy_collapse_builds_no_input_closure():
    for inter in cycle_cover_intersections(7, 2):
        assert morse.greedy_collapse(inter).is_collapsible()
        assert inter._closure is None


def test_strong_collapse_order():
    # a (dominated by c) goes first; its link cd lies in bcd and is dropped,
    # so c is then dominated by b, which the stale facet cd would hide
    c = from_facets("abcde", [(0, 2, 3), (1, 2, 3), (1, 4)])
    witness = morse.greedy_collapse(c)
    assert witness.dominations == ((0, 2), (2, 1), (3, 1), (1, 4))
    assert witness.steps == ()
    assert faces_of(witness.terminal) == ((4,),)
    assert morse.replay_collapse(c, witness)


def test_strong_collapse_matches_tuple_oracle():
    # the bitmask strong collapses take the same dominations in the same
    # order as the tuple-and-set ones, and stop at the same core, given as
    # the sorted facet masks
    rng = random.Random(73)
    corpus = [
        cone(simplex_boundary("abcd"), "w"),
        from_facets("abcde", [(0, 2, 3), (1, 2, 3), (1, 4)]),
    ]
    corpus += [cone(c, "apex") for c in matching_corpus() if not c.void]
    for _ in range(300):
        n = rng.randint(2, 9)
        # some grounds put the vertices past bit 64
        shift = rng.choice((0, 0, 0, 60))
        gens = [
            [shift + v for v in rng.sample(range(n), rng.randint(1, min(n, 5)))]
            for _ in range(rng.randint(1, 7))
        ]
        c = from_facets([f"v{i}" for i in range(n + shift)], gens)
        corpus.append(cone(c, "apex") if rng.random() < 0.3 else c)
    for k in (2, 3):
        for n in range(2 * k, 9):
            corpus += cycle_cover_intersections(n, k)
    dominated = 0
    for c in corpus:
        got, want = [], []
        core = morse._strong_collapse(c.facet_masks(), got)
        expected = tuple_strong_collapse(c.facets, want)
        assert got == want, c.facets
        assert core == masks_of(expected), c.facets
        dominated += bool(got)
    assert dominated > len(corpus) // 2


def test_replay_checks_dominations():
    c = from_facets("abcdef", [(0, 2, 3), (1, 2, 3), (1, 4)])
    good = ((0, 2), (2, 1), (3, 1), (1, 4))
    assert morse.replay_collapse(c, morse.CollapseWitness((), masks_of([(4,)]), "collapsible", good))
    for dominations in [
        ((2, 1), (0, 2), (3, 1), (1, 4)),   # b misses the facet acd through c
        ((0, 0), (2, 1), (3, 1), (1, 4)),   # v == w
        ((0, 2), (0, 2), (2, 1), (3, 1), (1, 4)),   # a is already deleted
        ((5, 4), (0, 2), (2, 1), (3, 1), (1, 4)),   # f lies in no face
    ]:
        witness = morse.CollapseWitness((), masks_of([(4,)]), "collapsible", dominations)
        assert not morse.replay_collapse(c, witness), dominations
    # an isolated vertex f has the one link the empty face, which holds no w
    isolated = from_facets("abcdef", [(0, 2, 3), (1, 2, 3), (1, 4), (5,)])
    faces = masks_of(f for f in isolated.all_faces() if f)
    for w in range(6):
        assert morse.apply_collapses(isolated, [(5, w)], ()) == (0, faces), w
    # valid dominations cannot vouch for a wrong terminal
    assert not morse.replay_collapse(c, morse.CollapseWitness((), masks_of([(1,)]), "collapsible", good))
    assert not morse.replay_collapse(
        c, morse.CollapseWitness((), masks_of([(1,), (4,)]), "unknown", good[:3]))
    # a short domination list hands its core to the pair steps
    core = delete_vertex(c, 0)
    steps, terminal, verdict = descent_collapse(core.facets)
    assert verdict == "collapsible"
    steps, terminal = mask_pairs(steps), masks_of(terminal)
    assert morse.replay_collapse(c, morse.CollapseWitness(steps, terminal, verdict, ((0, 2),)))
    assert not morse.replay_collapse(c, morse.CollapseWitness(steps, terminal, verdict))


def test_greedy_collapse_past_the_strong_collapses():
    # the strong collapses of some thm-3-1 n=7 k=2 intersections stop at a
    # core with no dominated vertex, which the descent then collapses
    inter = next(c for c in cycle_cover_intersections(7, 2) if face_count(strong_core(c)) > 2)
    witness = morse.greedy_collapse(inter)
    assert witness.is_collapsible()
    assert morse.replay_collapse(inter, witness)
    core = strong_core(inter)
    assert dominated_vertex(core) is None
    witness = morse.greedy_collapse(core)
    assert witness.is_collapsible()
    assert morse.replay_collapse(core, witness)
    assert witness.steps == mask_pairs(descent_collapse(core.facets)[0])


def test_greedy_collapse_takes_the_least_free_pair_by_mask():
    # a core whose least free edge is (0, 3) by vertex tuple and (1, 2),
    # mask 0b00110, by mask: the heap is keyed on (dimension, mask)
    core = from_facets("abcde", [(0, 1, 2), (0, 1, 4), (0, 2, 3), (1, 3, 4), (2, 3, 4)])
    assert dominated_vertex(core) is None
    free = free_pairs(core)
    assert min(free)[0] == (0, 3)
    assert min(free, key=lambda p: mask_pairs([p])[0])[0] == (1, 2)
    witness = morse.greedy_collapse(core)
    assert not witness.dominations
    assert witness.steps[0] == mask_pairs([((1, 2), (0, 1, 2))])[0]
    assert witness.steps == mask_pairs(descent_collapse(core.facets)[0])
    assert morse.replay_collapse(core, witness)


def test_greedy_collapse_matches_descent_on_the_largest_cycle_intersection():
    # the largest thm-3-1 intersection at n=8 k=2 that is not a cone, with
    # 8,492 faces: past the dominations the search is the plain descent
    inter = max((c for c in cycle_cover_intersections(8, 2) if not verify._cone_apexes(c)), key=face_count)
    assert face_count(inter) == 8492
    witness = morse.greedy_collapse(inter)
    core = inter
    for v, w in witness.dominations:
        core = delete_vertex(core, v)
    assert dominated_vertex(core) is None
    steps, terminal, verdict = descent_collapse(core.facets)
    assert witness.steps == mask_pairs(steps)
    assert witness.terminal == masks_of(terminal)
    assert witness.verdict == verdict == "collapsible"
    assert morse.replay_collapse(inter, witness)


def test_replay_refuses_a_step_off_the_one_coface():
    # the edge ab of the full triangle abc has the one coface abc; a step
    # from ab applies only into abc
    c = from_facets("abcd", [(0, 1, 2), (2, 3)])
    faces = masks_of(f for f in c.all_faces() if f)
    ab = cx.face_mask((0, 1))
    for tau in [(0, 1),          # sigma itself
                (1, 2), (0,),    # faces that miss ab
                (0, 1, 2, 3),    # two vertices above ab
                (0, 1, 3)]:      # outside the complex
        assert morse.apply_collapses(c, (), [(ab, cx.face_mask(tau))]) == (0, faces), tau
    abc = cx.face_mask((0, 1, 2))
    assert morse.apply_collapses(c, (), [(ab, abc)]) == (1, tuple(f for f in faces if f not in (ab, abc)))
    # c lies in ac, bc and cd, so it is free in none of them, and a lies in
    # ab and ac, so it is not free in abc, their union
    for sigma, tau in [((2,), (0, 2)), ((2,), (1, 2)), ((2,), (2, 3)), ((0,), (0, 1, 2))]:
        assert morse.apply_collapses(c, (), [(cx.face_mask(sigma), cx.face_mask(tau))]) == (0, faces), tau


def test_checkers_share_no_code_with_the_search(monkeypatch):
    # critical_cells and the replay run with the element
    # matching recursion and the collapse search disabled; they may share
    # only the complexes primitives closure_masks and link_deletion
    c = ladder_total_cut(5)
    pairs = morse.element_matching_sequence(c, ["1+", "1-"])
    cells = morse.critical_cells(c, pairs)
    tc = next(c for c in cycle_cover_intersections(8, 2) if face_count(strong_core(c)) > 2)
    witness = morse.greedy_collapse(tc)
    assert witness.steps and witness.dominations

    def refuse(*args, **kwargs):
        raise AssertionError("a checker called the search")

    search = ("ElementMatching", "greedy_collapse", "_strong_collapse")
    # every private function of morse serves the search, so a new one
    # belongs on the list
    helpers = {name for name, f in vars(morse).items()
               if name[0] == "_" and getattr(f, "__module__", None) == morse.__name__}
    assert helpers <= set(search)
    for name in search:
        monkeypatch.setattr(morse, name, refuse)
    for name in ("ElementMatching", "_union", "_within"):
        monkeypatch.setattr(hom, name, refuse)
    assert morse.critical_cells(c, pairs) == cells
    assert morse.replay_collapse(tc, witness)
    assert morse.apply_collapses(tc, witness.dominations, witness.steps) == (witness.steps_tried, witness.terminal)


def test_greedy_collapse_sphere_unknown():
    witness = morse.greedy_collapse(simplex_boundary("abcd"))
    assert witness.verdict == "unknown"
    assert witness.steps == ()


def test_greedy_collapse_unknown_witnesses_replay():
    # two disjoint edges strand after one pair each; the witness keeps them
    c = from_facets("abcd", [(0, 1), (2, 3)])
    witness = morse.greedy_collapse(c)
    assert witness.verdict == "unknown"
    assert witness.dominations == ((0, 1), (2, 3))
    assert witness.steps == ()
    assert faces_of(witness.terminal) == ((1,), (3,))
    assert morse.replay_collapse(c, witness)
    # every witness replays, collapsible or not
    for c in matching_corpus():
        if c.void:
            continue
        assert morse.replay_collapse(c, morse.greedy_collapse(c))


def test_witness_json_roundtrip():
    tc = cons.total_cut_complex(gr.star(4), 2)
    witness = morse.greedy_collapse(tc)
    text = witness.to_json(tc)
    doc = json.loads(text)
    assert doc["steps_tried"] == len(witness.dominations) + len(witness.steps) > 0
    assert doc["dominations"] == [[tc.labels[v], tc.labels[w]] for v, w in witness.dominations]
    back = morse.CollapseWitness.from_json(tc, text)
    assert back == witness
    assert morse.replay_collapse(tc, back)


# a label that is a JSON array or object once reached the label map and
# raised a bare TypeError (unhashable type); it is refused like a bad label
# of a complex file, in a face, a step and a domination alike
NON_STRING_WITNESS_LABELS = [
    ('{"verdict":"collapsible","steps":[],"terminal":[[["a"]]]}', '["a"]'),
    ('{"verdict":"collapsible","steps":[],"terminal":[[{"a":0}]]}', '{"a": 0}'),
    ('{"verdict":"collapsible","steps":[[[["a"]],["a","b"]]],"terminal":[["b"]]}', '["a"]'),
    ('{"verdict":"collapsible","dominations":[[["a"],"b"]],"steps":[],"terminal":[["b"]]}', '["a"]'),
    ('{"verdict":"collapsible","dominations":[["a",{"b":1}]],"steps":[],"terminal":[["b"]]}', '{"b": 1}'),
]


@pytest.mark.parametrize("text, label", NON_STRING_WITNESS_LABELS)
def test_witness_refuses_labels_that_are_not_strings(text, label):
    with pytest.raises(InvalidParameterError, match=re.escape(f"vertex label {label} is not a string")):
        morse.CollapseWitness.from_json(full_simplex("ab"), text)


def test_replay_refuses_collapsible_two_points():
    # two points are not collapsible: a "collapsible" witness that stops at
    # both is refused, though its steps and terminal set are right
    two = discrete_points("ab")
    doc = '{"verdict":"collapsible","steps":[],"terminal":[["a"],["b"]]}'
    assert not morse.replay_collapse(two, morse.CollapseWitness.from_json(two, doc))
    assert morse.replay_collapse(two, morse.CollapseWitness((), masks_of([(0,), (1,)]), "unknown"))
    # the empty complex's witness has no terminal faces and stays valid
    empty = empty_complex("a")
    assert morse.replay_collapse(empty, morse.greedy_collapse(empty))


def test_replay_refuses_unknown_one_vertex():
    edge = full_simplex("ab")
    steps = mask_pairs([((1,), (0, 1))])
    assert morse.replay_collapse(edge, morse.CollapseWitness(steps, masks_of([(0,)]), "collapsible"))
    assert not morse.replay_collapse(edge, morse.CollapseWitness(steps, masks_of([(0,)]), "unknown"))


def test_replay_refuses_unrecognised_verdict():
    edge = full_simplex("ab")
    steps = mask_pairs([((1,), (0, 1))])
    assert not morse.replay_collapse(edge, morse.CollapseWitness(steps, masks_of([(0,)]), "banana"))
    two = discrete_points("ab")
    assert not morse.replay_collapse(two, morse.CollapseWitness((), masks_of([(0,), (1,)]), "banana"))
