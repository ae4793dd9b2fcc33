"""Neighborhood complexes, total cut complexes, covers, and nerves."""

import copy
import pickle
import random
import re
from functools import reduce
from itertools import combinations
from operator import and_, or_

import pytest

from cutnerve import complexes as cx
from cutnerve import constructions as cons
from cutnerve import graphs as gr
from cutnerve import homology as hom
from cutnerve.errors import InvalidParameterError, ResourceLimitError
from cutnerve.verify import SCENARIOS, corpus_graph

from oracles import (
    FullCover,
    brute_homology,
    closure_of,
    empty_complex,
    euler_characteristic_reduced,
    facet_label_family,
    from_facets,
    full_simplex,
    graph_of_edges,
    has_vertices,
    nonzero_betti,
    void_complex,
)


def small_graph_corpus():
    rng = random.Random(19)
    graphs = [gr.cycle(5), gr.cycle(6), gr.star(4), gr.prism(3), gr.circular_ladder(4)]
    for n in (5, 6, 7):
        for p in (30, 50):
            edges = [
                (a, b) for a in range(n) for b in range(a + 1, n)
                if rng.random() * 100 < p
            ]
            graphs.append(graph_of_edges([str(i) for i in range(n)], edges))
    return graphs


def part_faces(cover, i):
    """Nonempty faces of part i of the cover, explicitly."""
    return {f for f in cover.intersection(1 << i).all_faces() if f}


# -- neighborhood complexes ----------------------------------------------------

def test_neighborhood_of_triangle_is_circle():
    nc = cons.neighborhood_complex(gr.complete(3))
    assert facet_label_family(nc) == frozenset(
        {frozenset({"1", "2"}), frozenset({"2", "3"}), frozenset({"1", "3"})}
    )
    assert hom.reduced_homology(nc) == hom.HomologyProfile.wedge(1, 1)


def test_neighborhood_of_ladder_facets():
    nc = cons.neighborhood_complex(gr.circular_ladder(5))
    assert len(nc.facets) == 10
    assert all(len(f) == 3 for f in nc.facets)
    expected = set()
    for i in range(1, 6):
        expected.add(frozenset({f"{i}+", f"{i % 5 + 1}-", f"{(i + 1) % 5 + 1}+"}))
        expected.add(frozenset({f"{i}-", f"{i % 5 + 1}+", f"{(i + 1) % 5 + 1}-"}))
    assert facet_label_family(nc) == frozenset(expected)


def test_neighborhood_of_kneser52():
    nc = cons.neighborhood_complex(gr.kneser(5, 2))
    profile = hom.reduced_homology(nc)
    assert profile == hom.HomologyProfile.wedge(1, 11)


def test_neighborhood_edge_cases():
    edgeless = graph_of_edges(["a", "b"], [])
    nc = cons.neighborhood_complex(edgeless)
    assert nc == empty_complex(edgeless.labels)
    assert cons.neighborhood_complex(graph_of_edges([], [])).void
    # isolated vertices stay out of every face
    g = graph_of_edges(["a", "b", "c"], [(0, 1)])
    nc = cons.neighborhood_complex(g)
    assert nc.facets == ((0,), (1,))


def test_neighborhood_of_star():
    # center sees all leaves; leaves see only the center
    nc = cons.neighborhood_complex(gr.star(4))
    fams = facet_label_family(nc)
    assert frozenset({"1", "2", "3", "4"}) in fams
    assert frozenset({"c"}) in fams
    assert len(fams) == 2


def test_neighborhood_dimension_bound():
    for g in small_graph_corpus():
        nc = cons.neighborhood_complex(g)
        if not has_vertices(nc):
            continue
        maxdeg = max(g.degree(i) for i in range(g.n))
        assert nc.dimension() <= maxdeg - 1


def test_squared_cycle_neighborhood_dimension():
    for k in (3, 4):
        h = gr.induced_k_independent(gr.squared_cycle(3 * k + 1), k)
        nc = cons.neighborhood_complex(h)
        assert nc.dimension() == k + 1


# -- total cut complexes ---------------------------------------------------------

def test_total_cut_cycle6():
    tc = cons.total_cut_complex(gr.cycle(6), 2)
    assert len(tc.facets) == 9
    assert all(len(f) == 4 for f in tc.facets)
    assert tc.is_pure() and tc.dimension() == 3


def test_total_cut_void_below_threshold():
    assert cons.total_cut_complex(gr.cycle(3), 2).void
    assert cons.total_cut_complex(gr.cycle(5), 3).void


def test_total_cut_star_contractible():
    tc = cons.total_cut_complex(gr.star(5), 2)
    assert hom.reduced_homology(tc) == hom.HomologyProfile()


def test_total_cut_purity_and_facet_count():
    for g in small_graph_corpus():
        for k in (1, 2, 3):
            sets = gr.independent_sets(g, k)
            tc = cons.total_cut_complex(g, k)
            if not sets:
                assert tc.void
                continue
            assert len(tc.facets) == len(sets)
            assert tc.is_pure()
            assert tc.dimension() == g.n - k - 1


# -- covers and nerves ------------------------------------------------------------

def test_nerve_single_part_cover():
    cover = cons.Cover(full_simplex("abc"), ["a"], [0b1, 0b1, 0b1])
    assert facet_label_family(cover.nerve()) == frozenset({frozenset({"a"})})


def test_nerve_of_cycle_cover_equals_total_cut():
    for n, k in [(6, 2), (7, 2), (8, 2), (6, 3), (7, 3), (8, 3)]:
        cover = cons.independent_cover(gr.cycle(n), k)
        assert cover.nerve() == cons.total_cut_complex(gr.cycle(n), k)


def test_independent_cover_validity():
    for g in small_graph_corpus():
        for k in (2, 3):
            if not gr.independent_sets(g, k):
                with pytest.raises(InvalidParameterError, match=f"no independent {k}-sets: cannot build the cover"):
                    cons.independent_cover(g, k)
                continue
            cover = cons.independent_cover(g, k)
            assert len(cover.part_labels) == g.n
            # downward closure within nonempty faces, on a small part sample
            faces = part_faces(cover, 0)
            for f in list(faces)[:50]:
                for r in range(1, len(f)):
                    for sub in combinations(f, r):
                        assert sub in faces
            # every facet of the base lies in some part
            full = (1 << g.n) - 1
            for f in cover.base.facet_masks():
                assert reduce(and_, map(cover.held.__getitem__, cx.mask_face(f)), full), (g, k, f)


def test_independent_cover_base_is_the_neighborhood_complex_of_i_k():
    # the base is built from the neighbour masks of I_k(G), not from the
    # graph; it must equal N(I_k(G)) in labels and masks
    graphs = small_graph_corpus() + [corpus_graph(i, 2026) for i in range(60)]
    for g in graphs:
        for k in (2, 3):
            if not gr.independent_sets(g, k):
                continue
            base = cons.independent_cover(g, k).base
            expected = cons.neighborhood_complex(gr.induced_k_independent(g, k))
            assert base.labels == expected.labels and base.facet_masks() == expected.facet_masks(), (g, k)


def test_independent_cover_charges_the_vertex_pair_scan(monkeypatch):
    # C8 has 20 independent 2-sets, so 190 vertex pairs; the cover keeps the
    # guard without building I_2(C8) as a Graph
    c8, c8_again = gr.cycle(8), gr.cycle(8)

    def no_graph(*args):
        raise AssertionError("independent_cover built a Graph")

    monkeypatch.setattr(gr.Graph, "__init__", no_graph)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "189")
    with pytest.raises(ResourceLimitError, match="vertex-pair scan exceeded the configured budget of 189"):
        cons.independent_cover(c8, 2)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "190")
    assert cons.independent_cover(c8_again, 2).base.n_vertices == 20


def test_empty_cover_error():
    with pytest.raises(InvalidParameterError, match="no independent 2-sets: cannot build the cover"):
        cons.independent_cover(gr.complete(4), 2)


def test_cover_intersection_single_index_is_part():
    # from first principles: part i is the full subcomplex of N(I_k(G)) on
    # the independent k-sets that avoid i, generated by the sets N(S) minus
    # the k-sets through i
    for g in small_graph_corpus():
        for k in (2, 3):
            sets = [frozenset(s) for s in gr.independent_sets(g, k)]
            if not sets:
                continue
            cover = cons.independent_cover(g, k)
            vertex = {lab: j for j, lab in enumerate(cover.base.labels)}
            nbhd = {s: [t for t in sets if not s & t] for s in sets}
            for i in range(g.n):
                facets = [[vertex[gr.set_label(g, t)] for t in nbhd[s] if i not in t] for s in sets]
                assert cover.intersection(1 << i) == from_facets(cover.base.labels, facets), (g.labels, k, i)


def test_cover_intersection_all_indices_is_empty():
    # no independent pair of C6 avoids every vertex
    cover = cons.independent_cover(gr.cycle(6), 2)
    assert cover.intersection((1 << 6) - 1) == empty_complex(cover.base.labels)


def test_cover_intersection_agrees_with_explicit_faces_when_small():
    # the full-subcomplex reading is exact: the intersection over I has the
    # faces that every part of I has, on every index set of C6 at k = 2
    cover = cons.independent_cover(gr.cycle(6), 2)
    for m in range(1, 7):
        for idx in combinations(range(6), m):
            faces = {f for f in cover.intersection(cx.face_mask(idx)).all_faces() if f}
            assert faces == set.intersection(*(part_faces(cover, i) for i in idx)), idx


def test_cover_intersection_has_vertices_exactly_on_nerve_faces():
    # on the octahedron K_{2,2,2}, the path P3 (one isolated independent
    # pair), the star K_{1,3} (three) and the thm-3-1 cycle covers up to
    # n = 8, on every index set
    octahedron = graph_of_edges([str(i + 1) for i in range(6)], [
        (a, b) for a in range(6) for b in range(a + 1, 6)
        if {a, b} not in ({0, 5}, {1, 4}, {2, 3})
    ])
    path = graph_of_edges(["1", "2", "3"], [(0, 1), (1, 2)])
    covers = [cons.independent_cover(g, 2) for g in (octahedron, path, gr.star(3))]
    covers += [cons.independent_cover(gr.cycle(n), k) for k in (2, 3) for n in range(2 * k, 9)]
    for cover in covers:
        faces = cx.closure_masks(cover.nerve().facet_masks())
        for idx in range(1, 1 << len(cover.part_labels)):
            assert has_vertices(cover.intersection(idx)) == (idx in faces), (cover.part_labels, idx)


def test_cover_intersection_by_mask():
    cover = cons.independent_cover(gr.cycle(6), 2)
    oracle = FullCover(6, gr.cycle(6).edges(), 2)
    for idx in range(1, 1 << 6):
        assert set(cover.intersection(idx).all_faces()) == oracle.intersection_faces(cx.mask_face(idx))


def test_cover_index_sets_nonempty_and_in_range():
    # an index set is a nonempty int mask of the parts; nothing else reads
    # as one, not the index list of a part, nor a bool or a float
    cover = cons.independent_cover(gr.cycle(6), 2)
    for bad in (0, 1 << 6, 0b1000001, -1, True, 1.0, [1], (0, 2), None):
        with pytest.raises(InvalidParameterError, match="index set mask"):
            cover.intersection(bad)
    assert cover.intersection((1 << 6) - 1) == empty_complex(cover.base.labels)
    assert has_vertices(cover.intersection(1 << 5))


def test_cover_guards_shift_no_bit_out_of_range():
    # a held mask or an index set mask far out of range is refused by a
    # compare or a right shift, never by building 1 << mask
    base = full_simplex("ab")
    for huge in (1 << 4096, -(1 << 4096)):
        with pytest.raises(InvalidParameterError, match="one mask of the parts per base vertex"):
            cons.Cover(base, ["x", "y"], [0b11, huge])
    cover = cons.independent_cover(gr.cycle(6), 2)
    for huge in (1 << 4096, -(1 << 4096), 10**12):
        with pytest.raises(InvalidParameterError, match=re.escape(f"index set mask {huge!r} is not")):
            cover.intersection(huge)


def test_cover_intersection_shrinks_as_the_index_set_grows():
    # the intersection over I | {i} is a subcomplex of the one over I, on
    # every index set of the C7 cover at k = 2 and the C8 cover at k = 3
    for n, k in ((7, 2), (8, 3)):
        cover = cons.independent_cover(gr.cycle(n), k)
        faces = {idx: set(cover.intersection(idx).all_faces()) for idx in range(1, 1 << n)}
        for idx, inter in faces.items():
            for i in range(n):
                assert faces[idx | 1 << i] <= inter, (n, k, idx, i)


def random_full_covers(seed, count):
    """Covers of random bases by random parts, each drawn as a vertex mask
    and handed to the cover as the held mask of each base vertex."""
    rng = random.Random(seed)
    for _ in range(count):
        n, parts = rng.randint(1, 6), rng.randint(1, 6)
        faces = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
        base = cx.SimplicialComplex([str(v) for v in range(n)], faces)
        drawn = [rng.randrange(1 << n) for _ in range(parts)]
        held = [sum(1 << i for i, w in enumerate(drawn) if w >> v & 1) for v in range(n)]
        yield cons.Cover(base, [f"p{i}" for i in range(parts)], held)


def test_random_full_covers_against_brute_force():
    # the intersection over I has the faces of the base inside every part of
    # I; I is a nerve face when some part-wide vertex lies in a face
    for cover in random_full_covers(23, 200):
        faces = closure_of(cover.base.facets)
        parts = [{v for v, h in enumerate(cover.held) if h >> i & 1} for i in range(len(cover.part_labels))]
        nerve = cx.closure_masks(cover.nerve().facet_masks())
        used = set().union(*faces)
        for idx in range(1, 1 << len(cover.part_labels)):
            w = set.intersection(*(parts[i] for i in cx.mask_face(idx)))
            assert set(cover.intersection(idx).all_faces()) == {f for f in faces if w.issuperset(f)}
            assert (idx in nerve) == bool(w & used), (cover, idx)


def test_full_cover_against_first_principles_oracle():
    # the parts, the nerve and every intersection against FullCover: by
    # brute-force closure on the small corpus, and by facets on the 60
    # corpus graphs, whose closures reach 1.6 million faces
    instances = 0
    for corpus, by_closure in ((small_graph_corpus(), True), ([corpus_graph(i, 2026) for i in range(60)], False)):
        for g in corpus:
            for k in (2, 3):
                oracle = FullCover(g.n, g.edges(), k)
                if not oracle.sets:
                    continue
                instances += 1
                cover = cons.independent_cover(g, k)
                held = [{v for v, part in enumerate(oracle.parts) if j in part} for j in range(len(oracle.sets))]
                assert [set(cx.mask_face(h)) for h in cover.held] == held, (g, k)
                assert list(cover.nerve().facets) == oracle.nerve_facets(), (g, k)
                for idx in range(1, 1 << g.n):
                    inter = cover.intersection(idx)
                    if by_closure:
                        assert set(inter.all_faces()) == oracle.intersection_faces(cx.mask_face(idx)), (g, k, idx)
                    else:
                        assert list(inter.facets) == oracle.intersection_facets(cx.mask_face(idx)), (g, k, idx)
    assert instances == 136  # 19 small-corpus and 117 corpus instances


def test_nerve_law_on_corpus():
    # the nerve's facets are full ^ S over the independent k-sets S that are
    # no isolated vertex of I_k(G), so it equals the total cut complex
    # exactly when I_k(G) has no isolated vertex
    # (acceptance criterion 10 runs the same law on the 60 corpus graphs)
    equal = differ = 0
    for g in small_graph_corpus() + [graph_of_edges(["1", "2", "3"], [(0, 1), (1, 2)]), gr.star(3)]:
        for k in (2, 3):
            sets = [frozenset(s) for s in gr.independent_sets(g, k)]
            if not sets:
                continue
            kept = [s for s in sets if any(not s & t for t in sets)]
            nerve = cons.independent_cover(g, k).nerve()
            expected = [tuple(sorted(set(range(g.n)) - s)) for s in kept] or [()]
            assert list(nerve.facets) == sorted(expected), (g, k)
            same = nerve == cons.total_cut_complex(g, k)
            assert same == (len(kept) == len(sets)), (g, k)
            equal += same
            differ += not same
    assert (equal, differ) == (11, 11)


def test_octahedron_parts_meet_pairwise_but_not_as_a_triple():
    # complete tripartite K_{2,2,2} with classes {1,6}, {2,5}, {3,4}: the
    # parts of 4, 5 and 6 meet pairwise in one class each, and the three
    # classes are pairwise disjoint, so each pairwise intersection is one
    # point of a face; no class avoids all three, so the triple is no face
    # of the nerve, as of the total cut complex
    g = graph_of_edges([str(i + 1) for i in range(6)], [
        (a, b) for a in range(6) for b in range(a + 1, 6)
        if {a, b} not in ({0, 5}, {1, 4}, {2, 3})
    ])
    cover = cons.independent_cover(g, 2)
    assert cover.nerve() == cons.total_cut_complex(g, 2)
    for pair, point in (((3, 4), "{1,6}"), ((3, 5), "{2,5}"), ((4, 5), "{3,4}")):
        assert cover.intersection(cx.face_mask(pair)) == from_facets(cover.base.labels, [[cover.base.vertex(point)]])
    assert cover.intersection(cx.face_mask((3, 4, 5))) == empty_complex(cover.base.labels)


def test_star_cover_has_parts_but_no_face():
    # K_{1,3}: the three leaf pairs meet pairwise, so the base has three
    # vertices and no nonempty face; every part holds base vertices, yet
    # every intersection is the empty complex and so is the nerve
    g = gr.star(3)
    cover = cons.independent_cover(g, 2)
    assert cover.base == empty_complex(cover.base.labels) and cover.base.n_vertices == 3
    assert reduce(or_, cover.held) == (1 << g.n) - 1
    for idx in range(1, 1 << g.n):
        assert cover.intersection(idx) == empty_complex(cover.base.labels), idx
    assert cover.nerve() == empty_complex(g.labels) != cons.total_cut_complex(g, 2)


def test_cover_nerve_skips_base_vertices_in_no_face():
    # base on a, b, c with the one facet {a, b}: part y holds c alone, which
    # lies in no face, so y is no vertex of the nerve, and z, which holds b
    # and c, meets x in nothing
    base = from_facets("abc", [(0, 1)])
    cover = cons.Cover(base, "xyz", [0b001, 0b100, 0b110])
    assert facet_label_family(cover.nerve()) == frozenset({frozenset("x"), frozenset("z")})
    assert cover.intersection(0b010) == empty_complex("abc")
    assert cover.intersection(0b101) == empty_complex("abc")
    assert cover.intersection(0b100) == from_facets("abc", [(1,)])


def test_isolated_independent_set_breaks_nerve_equality():
    # path on three vertices: the single independent pair has no disjoint
    # partner, so it lies in no face and no index set meets; the nerve is
    # the empty complex, while the total cut complex has the facet {2}
    g = graph_of_edges(["1", "2", "3"], [(0, 1), (1, 2)])
    cover = cons.independent_cover(g, 2)
    assert cover.base == empty_complex(["{1,3}"])
    assert cover.nerve() == empty_complex(g.labels)
    assert facet_label_family(cons.total_cut_complex(g, 2)) == frozenset({frozenset({"2"})})


def test_isolated_independent_sets_are_the_base_vertices_in_no_face():
    # prop-4-10 reads the isolated vertices of I_k(G) off the base
    flagged = 0
    for g in small_graph_corpus() + [graph_of_edges(["1", "2", "3"], [(0, 1), (1, 2)]), gr.star(3)]:
        for k in (2, 3):
            sets = [frozenset(s) for s in gr.independent_sets(g, k)]
            if not sets:
                continue
            base = cons.independent_cover(g, k).base
            used = set().union(*base.facets)
            isolated = [all(a & b for b in sets if b is not a) for a in sets]
            assert [j not in used for j in range(len(sets))] == isolated, (g.labels, g.edges(), k)
            flagged += any(isolated)
    assert flagged >= 3


# -- cover validation ----------------------------------------------------------

def test_graphs_complexes_and_covers_copy_and_pickle():
    # each rebuilds through its constructor; the caches are not carried
    # over but rebuilt on demand, to the same values
    g = gr.cycle(5)
    gr.independent_sets(g, 2)
    nonempty = cons.total_cut_complex(g, 2)
    hom.reduced_homology(nonempty)
    nonempty.all_faces()
    values = [g, void_complex(), empty_complex(), nonempty, cons.independent_cover(g, 2)]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)
    twin = pickle.loads(pickle.dumps(nonempty))
    assert twin._homology is twin._closure is twin._bits is None
    assert hom.reduced_homology(twin) == hom.reduced_homology(nonempty)
    assert twin.all_faces() == nonempty.all_faces() and twin.facets == nonempty.facets
    twin = pickle.loads(pickle.dumps(g))
    assert twin._sets == {} and gr.independent_sets(twin, 2) == gr.independent_sets(g, 2)


def test_cover_rejects_duplicate_part_labels():
    base = full_simplex("ab")
    with pytest.raises(InvalidParameterError, match="unique"):
        cons.Cover(base, ["x", "x"], [0b11, 0b11])


def test_cover_rejects_void_base():
    with pytest.raises(InvalidParameterError, match="void"):
        cons.Cover(void_complex("ab"), ["x"], [0b11])


def test_cover_rejects_bad_part_masks():
    # one int mask of the parts per base vertex
    base = full_simplex("ab")
    for held in ([0b11], [0b11, 0b100], [0b11, -1], [0b11, True], [0b11, (0, 1)], [0b1, 0b1, 0b1]):
        with pytest.raises(InvalidParameterError, match="one mask of the parts per base vertex"):
            cons.Cover(base, ["x", "y"], held)
    assert cons.Cover(base, ["x", "y"], iter([0b01, 0])).held == (0b01, 0)


def dihedral(n):
    return [[(v + 1) % n for v in range(n)], [-v % n for v in range(n)]]


def test_cover_symmetries_accept_the_dihedral_generators():
    for k in (2, 3):
        for n in range(max(4, 2 * k), 10):
            cover = cons.independent_cover(gr.cycle(n), k)
            perms = cons.cover_symmetries(cover, iter(dihedral(n)))
            assert perms == [tuple(p) for p in dihedral(n)], (n, k)
            # the generators map the nerve onto itself
            nerve = cover.nerve()
            for perm in perms:
                assert sorted(cx.permute_mask(f, perm) for f in nerve.facet_masks()) == list(nerve.facet_masks())
    assert cons.cover_symmetries(cons.independent_cover(gr.cycle(6), 2), []) == []


def test_cover_symmetries_accept_ladder_symmetries():
    # CL_5 at k = 2: the rung rotation v -> v + 2 and the flip of each rung
    # v -> v ^ 1 are graph automorphisms, so both map the cover onto itself
    g = gr.circular_ladder(5)
    cover = cons.independent_cover(g, 2)
    rotation = [(v + 2) % 10 for v in range(10)]
    flip = [v ^ 1 for v in range(10)]
    assert cons.cover_symmetries(cover, [rotation, flip]) == [tuple(rotation), tuple(flip)]
    # a swap of two rung ends of different rungs is no automorphism
    assert cons.cover_symmetries(cover, [[2, 1, 0] + list(range(3, 10))]) == []


def test_held_masks_are_the_facets_of_the_total_cut_complex():
    # on C7, CL_4 and K_{1,4}, every thm-3-1 size and the 60 corpus graphs
    cases = [(gr.cycle(7), 2), (gr.circular_ladder(4), 2), (gr.star(4), 2)]
    cases += [(gr.cycle(p["n"]), p["k"]) for p in SCENARIOS["thm-3-1"].class_params["extended"]]
    corpus = [corpus_graph(i, 2026) for i in range(60)]
    cases += [(g, k) for g in corpus for k in (2, 3) if gr.independent_sets(g, k)]
    for g, k in cases:
        cover = cons.independent_cover(g, k)
        full = (1 << g.n) - 1
        # the k-set S lies in part v exactly when v is not in S
        assert list(cover.held) == [full ^ cx.face_mask(s) for s in gr.independent_sets(g, k)], (g, k)
        assert sorted(set(cover.held)) == list(cons.total_cut_complex(g, k).facet_masks()), (g, k)
        support = reduce(or_, cover.base.facet_masks())
        in_faces = sorted(h for v, h in enumerate(cover.held) if support >> v & 1)
        assert list(cover.nerve().facet_masks()) == (in_faces or [0]), (g, k)


def test_cover_symmetries_refuse_what_does_not_map_the_cover():
    g = gr.cycle(6)
    cover = cons.independent_cover(g, 2)
    rotation, reflection = dihedral(6)
    # swapping two adjacent cycle vertices moves {1,3} to {2,3}, no base vertex
    swap = [1, 0, 2, 3, 4, 5]
    for perms in ([swap], [rotation, swap], [reflection, swap]):
        assert cons.cover_symmetries(cover, perms) == []
    # not a permutation of the parts
    for bad in ([0, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6, 0]):
        assert cons.cover_symmetries(cover, [bad]) == []
    # a permutation of the wrong length, as for another graph
    assert cons.cover_symmetries(cover, [dihedral(7)[0]]) == []
    assert cons.cover_symmetries(cover, [dihedral(5)[1]]) == []
    # a forged part: part 1 (the vertex "2") loses the base vertex {1,3};
    # the reflection v -> 2 - v fixes both, so it still maps the cover
    assert cover.base.labels[0] == "{1,3}" and cover.held[0] >> 1 & 1
    held = list(cover.held)
    held[0] ^= 1 << 1
    forged = cons.Cover(cover.base, cover.part_labels, held)
    fixing = [2, 1, 0, 5, 4, 3]
    assert cons.cover_symmetries(forged, [fixing]) == [tuple(fixing)]
    for perms in ([rotation], [reflection], [fixing, rotation]):
        assert cons.cover_symmetries(forged, perms) == []
        assert cons.cover_symmetries(cover, perms) == list(map(tuple, perms))
    # a base bijection that does not carry the base's facets onto
    # themselves: the base loses the facet N({1,3}), which the reflection
    # fixes and the rotation moves
    dropped = cover.base.face_of_labels(["{2,4}", "{2,5}", "{2,6}", "{4,6}"])
    rest = [f for f in cover.base.facet_masks() if f != dropped]
    assert len(rest) == len(cover.base.facet_masks()) - 1
    forged = cons.Cover(cx.SimplicialComplex(cover.base.labels, rest), cover.part_labels, cover.held)
    assert cons.cover_symmetries(forged, [fixing]) == [tuple(fixing)]
    assert cons.cover_symmetries(forged, [rotation]) == []
    # two base vertices held by the same parts: the part masks no longer
    # name the base vertices, so even the identity is refused
    held = list(cover.held)
    held[1] = held[0]
    forged = cons.Cover(cover.base, cover.part_labels, held)
    assert forged.held[0] == forged.held[1]
    for perms in ([list(range(6))], [fixing], [rotation]):
        assert cons.cover_symmetries(forged, perms) == []
    # the same for two base vertices in no face and no part: every base
    # facet would still map onto itself, but the base action would not be
    # a bijection
    base = cx.SimplicialComplex(cover.base.labels + ("x", "y"), cover.base.facet_masks())
    forged = cons.Cover(base, cover.part_labels, cover.held + (0, 0))
    assert forged.held[-2:] == (0, 0)
    for perms in ([list(range(6))], [fixing], [rotation]):
        assert cons.cover_symmetries(forged, perms) == []
    # all given permutations or none: one bad permutation among good ones
    # refuses them all, and none given gives none
    assert cons.cover_symmetries(cover, [rotation, swap, reflection]) == []
    assert cons.cover_symmetries(cover, iter([])) == []


# -- spot check profiles through the construction stack ----------------------------

def test_prism_neighborhood_profile_refutation_is_oracle_backed():
    """Oracle basis for the profile that acceptance criterion 4 pins at n=4:
    the neighborhood complex of the induced 2-independent prism graph
    cannot be a 2-sphere.  The face counts alone give reduced Euler
    characteristic 7, and the dense oracle confirms the profile is seven
    2-spheres' worth of rank, in agreement with the production engine."""
    nb = cons.neighborhood_complex(gr.induced_k_independent(gr.prism(4), 2))
    assert nb.f_vector() == (1, 12, 66, 212, 306, 228, 84, 12)
    assert euler_characteristic_reduced(nb) == 7
    oracle = brute_homology(nb.facets)
    assert oracle["betti"] == {2: 7} and oracle["torsion"] == {}
    profile = hom.reduced_homology(nb)
    assert nonzero_betti(profile) == {2: 7} and not profile.torsion


def test_constructed_profiles_match_oracle():
    cases = [
        cons.total_cut_complex(gr.cycle(6), 2),
        cons.total_cut_complex(gr.star(4), 2),
        cons.neighborhood_complex(gr.stable_kneser(6, 2)),
    ]
    for c in cases:
        oracle = brute_homology(c.facets)
        profile = hom.reduced_homology(c)
        assert nonzero_betti(profile) == oracle["betti"]
