"""Neighborhood complexes, total cut complexes, covers, and nerves."""

import random
import re
from itertools import combinations

import pytest

from cutnerve import complexes as cx
from cutnerve import constructions as cons
from cutnerve import graphs as gr
from cutnerve import homology as hom
from cutnerve.errors import EmptyCoverError, InvalidFaceError, InvalidParameterError, ResourceLimitError
from cutnerve.verify import corpus_graph

from oracles import (
    TupleCover,
    brute_antichain,
    brute_homology,
    euler_characteristic_reduced,
    facet_star_generators,
    independent_cover_generators,
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
            graphs.append(gr.Graph([str(i) for i in range(n)], edges))
    return graphs


def tuple_cover(cover):
    """The tuple-and-frozenset oracle on a cover's own generators."""
    return TupleCover(cover.n_parts, [(cx.mask_face(f), cx.mask_face(h)) for f, h in cover.generators])


def part_faces(cover, i):
    """Nonempty faces of part i of the cover, explicitly."""
    return {f for f in cons.cover_intersection(cover, [i]).all_faces() if f}


# -- neighborhood complexes ----------------------------------------------------

def test_neighborhood_of_triangle_is_circle():
    nc = cons.neighborhood_complex(gr.complete(3))
    assert nc.facet_label_family() == frozenset(
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
    assert nc.facet_label_family() == frozenset(expected)


def test_neighborhood_of_kneser52():
    nc = cons.neighborhood_complex(gr.kneser(5, 2))
    profile = hom.reduced_homology(nc)
    assert profile == hom.HomologyProfile.wedge(1, 11)


def test_neighborhood_edge_cases():
    edgeless = gr.Graph(["a", "b"], [])
    nc = cons.neighborhood_complex(edgeless)
    assert nc == cx.empty_complex(edgeless.labels)
    assert cons.neighborhood_complex(gr.Graph([], [])).void
    # isolated vertices stay out of every face
    g = gr.Graph(["a", "b", "c"], [(0, 1)])
    nc = cons.neighborhood_complex(g)
    assert nc.facets == ((0,), (1,))


def test_neighborhood_of_star():
    # center sees all leaves; leaves see only the center
    nc = cons.neighborhood_complex(gr.star(4))
    fams = nc.facet_label_family()
    assert frozenset({"1", "2", "3", "4"}) in fams
    assert frozenset({"c"}) in fams
    assert len(fams) == 2


def test_neighborhood_dimension_bound():
    for g in small_graph_corpus():
        nc = cons.neighborhood_complex(g)
        if not nc.has_vertices():
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
    base = cx.full_simplex("abc")
    cover = cons.facet_star_cover(base, ["a"])
    nerve = cons.nerve(cover)
    assert nerve.facet_label_family() == frozenset({frozenset({"a"})})


def test_nerve_of_cycle_cover_equals_total_cut():
    for n, k in [(6, 2), (7, 2), (8, 2), (6, 3), (7, 3), (8, 3)]:
        cover = cons.independent_cover(gr.cycle(n), k)
        nerve = cons.nerve(cover)
        tc = cons.total_cut_complex(gr.cycle(n), k)
        assert nerve == tc


def test_nerve_of_prism_marker_cover_is_simplex_boundary():
    g = gr.prism(4)
    h2 = gr.induced_k_independent(g, 2)
    base = cons.neighborhood_complex(h2)
    markers = [gr.set_label(g, [2 * (i - 1), 2 * (i % 4) + 1]) for i in range(1, 5)]
    cover = cons.facet_star_cover(base, markers)
    nerve = cons.nerve(cover)
    assert nerve == cx.simplex_boundary(cover.part_labels)


def test_independent_cover_validity():
    for g in small_graph_corpus():
        for k in (2, 3):
            if not gr.independent_sets(g, k):
                with pytest.raises(EmptyCoverError):
                    cons.independent_cover(g, k)
                continue
            cover = cons.independent_cover(g, k)
            assert cover.n_parts == g.n
            # downward closure within nonempty faces, on a small part sample
            faces = part_faces(cover, 0)
            for f in list(faces)[:50]:
                for r in range(1, len(f)):
                    for sub in combinations(f, r):
                        assert sub in faces


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
    with pytest.raises(EmptyCoverError):
        cons.independent_cover(gr.complete(4), 2)


def test_cover_intersection_single_index_is_part():
    # from first principles: part i is generated by N(S) = {T : T and S are
    # disjoint} over the independent k-sets S that avoid i
    for g in small_graph_corpus():
        for k in (2, 3):
            sets = [frozenset(s) for s in gr.independent_sets(g, k)]
            if not sets:
                continue
            cover = cons.independent_cover(g, k)
            vertex = {lab: j for j, lab in enumerate(cover.base.labels)}
            nbhd = {s: [vertex[gr.set_label(g, t)] for t in sets if not s & t] for s in sets}
            for i in range(g.n):
                part = cx.from_facets(cover.base.labels, [nbhd[s] for s in sets if i not in s])
                assert cons.cover_intersection(cover, [i]) == part, (g.labels, k, i)


def test_cover_intersection_all_indices_void():
    cover = cons.independent_cover(gr.cycle(6), 2)
    assert cons.cover_intersection(cover, range(6)).void


def test_cover_intersection_agrees_with_explicit_faces_when_small():
    # generator reading is always contained in the raw face-set reading
    cover = cons.independent_cover(gr.cycle(6), 2)
    for m in (1, 2, 3):
        for idx in combinations(range(6), m):
            inter = cons.cover_intersection(cover, idx)
            if inter.void:
                continue
            raw = set.intersection(*(part_faces(cover, i) for i in idx))
            mine = {f for f in inter.all_faces() if f}
            assert mine <= raw


def test_raw_and_generator_readings_differ_and_are_flagged():
    """The two readings of a part intersection genuinely differ; the raw one
    would break the nerve/total-cut equality, so disagreements are tracked
    rather than hidden.  The 4-element index set below is the smallest cycle
    witness: each part contains the face through a different generator."""
    cover = cons.independent_cover(gr.cycle(6), 2)
    raw = tuple_cover(cover).raw_intersection_nonempty
    idx = (0, 1, 2, 3)
    assert cons.cover_intersection(cover, idx).void
    assert raw(idx)
    gaps = [
        idx2
        for m in range(1, 7)
        for idx2 in combinations(range(6), m)
        if raw(idx2) != cons.cover_intersection(cover, idx2).has_vertices()
    ]
    assert len(gaps) == 13  # frozen census for the 6-cycle cover at k=2


def test_octahedron_raw_reading_differs():
    # complete tripartite K_{2,2,2}: three pairwise disjoint nonedges make
    # every raw triple intersection nonempty while no generator is shared
    edges = [
        (a, b) for a in range(6) for b in range(a + 1, 6)
        if {a, b} not in ({0, 5}, {1, 4}, {2, 3})
    ]
    g = gr.Graph([str(i + 1) for i in range(6)], edges)
    cover = cons.independent_cover(g, 2)
    nerve = cons.nerve(cover)
    tc = cons.total_cut_complex(g, 2)
    assert nerve == tc
    idx = (3, 4, 5)
    assert tuple_cover(cover).raw_intersection_nonempty(idx)
    assert not cons.cover_intersection(cover, idx).has_vertices()


def test_cover_intersection_has_vertices_is_the_generator_reading():
    # on the covers of the reading tests above, and the thm-3-1 cycle
    # covers up to n = 8, on every index set
    octahedron = gr.Graph([str(i + 1) for i in range(6)], [
        (a, b) for a in range(6) for b in range(a + 1, 6)
        if {a, b} not in ({0, 5}, {1, 4}, {2, 3})
    ])
    path = gr.Graph(["1", "2", "3"], [(0, 1), (1, 2)])
    covers = [cons.independent_cover(octahedron, 2), cons.independent_cover(path, 2)]
    covers += [cons.independent_cover(gr.cycle(n), k) for k in (2, 3) for n in range(2 * k, 9)]
    for cover in covers:
        parts = range(cover.n_parts)
        for m in parts:
            for idx in combinations(parts, m + 1):
                expected = tuple_cover(cover).generated_nonempty(idx)
                assert cons.cover_intersection(cover, idx).has_vertices() == expected, (cover.part_labels, idx)
    for bad in ([], [cover.n_parts], [0, -1]):
        with pytest.raises(InvalidParameterError):
            cons.cover_intersection(cover, bad)


def reading_gap_by_index_sets(cover):
    """The reading gap as a per-index-set comparison of the oracle's readings."""
    oracle, parts = tuple_cover(cover), range(cover.n_parts)
    return sum(oracle.raw_intersection_nonempty(idx) != oracle.generated_nonempty(idx)
               for m in parts for idx in combinations(parts, m + 1))


def random_covers(seed, count):
    """Covers of random bases by random generators: each facet with random
    holders, then random faces, the empty face among them, with theirs."""
    rng = random.Random(seed)
    for _ in range(count):
        n, parts = rng.randint(1, 6), rng.randint(1, 6)
        faces = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))]
        base = cx.SimplicialComplex([str(v) for v in range(n)], faces)
        facets = base.facet_masks()
        generators = [(f, rng.randrange(1 << parts)) for f in facets]
        generators += [(rng.choice(facets) & rng.randrange(1 << n), rng.randrange(1 << parts))
                       for _ in range(rng.randint(0, 5))]
        yield cons.Cover(base, [f"p{i}" for i in range(parts)], generators)


def test_reading_gap_table_matches_the_index_set_readings():
    octahedron = gr.Graph([str(i + 1) for i in range(6)], [
        (a, b) for a in range(6) for b in range(a + 1, 6)
        if {a, b} not in ({0, 5}, {1, 4}, {2, 3})
    ])
    path = gr.Graph(["1", "2", "3"], [(0, 1), (1, 2)])
    covers = [cons.independent_cover(gr.cycle(n), k) for k in (2, 3) for n in range(max(4, 2 * k), 10)]
    covers += [cons.independent_cover(g, k) for g in small_graph_corpus() + [octahedron, path, gr.star(3)]
               for k in (2, 3) if gr.independent_sets(g, k)]
    covers += [cons.facet_star_cover(cx.full_simplex("abcd"), "abcd"),
               cons.Cover(cx.full_simplex("ab"), "xyz", [(0b11, 0b011), (0b11, 0b110)])]
    covers += random_covers(23, 200)
    gaps = []
    for cover in covers:
        gaps.append(reading_gap_by_index_sets(cover))
        assert cover.reading_gap() == gaps[-1], (cover.part_labels, cover.generators)
    assert gaps[:3] == [0, 10, 13]  # the 4-, 5- and 6-cycle covers at k = 2
    assert sum(map(bool, gaps)) > len(gaps) // 4


def test_reading_gap_table_is_bounded_by_the_face_budget(monkeypatch):
    cover = cons.independent_cover(gr.cycle(6), 2)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "63")
    with pytest.raises(ResourceLimitError):
        cover.reading_gap()
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "64")
    assert cover.reading_gap() == 13


def test_nerve_equals_total_cut_on_corpus():
    for g in small_graph_corpus():
        for k in (2, 3):
            if not gr.independent_sets(g, k):
                continue
            cover = cons.independent_cover(g, k)
            assert cons.nerve(cover) == cons.total_cut_complex(g, k)


def test_isolated_independent_set_keeps_nerve_equality():
    # path on three vertices: the single independent pair has no disjoint
    # partner, so the geometric reading would miss the facet; the generator
    # reading keeps the advertised equality
    g = gr.Graph(["1", "2", "3"], [(0, 1), (1, 2)])
    cover = cons.independent_cover(g, 2)
    nerve = cons.nerve(cover)
    tc = cons.total_cut_complex(g, 2)
    assert nerve == tc
    assert not tuple_cover(cover).raw_intersection_nonempty([1])  # no nonempty face anywhere


def test_isolated_independent_set_is_a_generator_with_the_empty_face():
    # prop-4-10 reads its isolated-set flag off the generators
    flagged = 0
    for g in small_graph_corpus() + [gr.Graph(["1", "2", "3"], [(0, 1), (1, 2)]), gr.star(3)]:
        for k in (2, 3):
            sets = [frozenset(s) for s in gr.independent_sets(g, k)]
            if not sets:
                continue
            cover = cons.independent_cover(g, k)
            isolated = [all(a & b for b in sets if b is not a) for a in sets]
            assert [face == 0 for face, _ in cover.generators] == isolated, (g.labels, g.edges(), k)
            flagged += any(isolated)
    assert flagged >= 3


def test_facet_star_cover_full_simplex():
    base = cx.full_simplex("abcd")
    cover = cons.facet_star_cover(base, list("abcd"))
    for i in range(4):
        assert cons.cover_intersection(cover, [i]) == base


def test_facet_star_cover_prism_intersections():
    g = gr.prism(4)
    base = cons.neighborhood_complex(gr.induced_k_independent(g, 2))
    markers = [gr.set_label(g, [2 * (i - 1), 2 * (i % 4) + 1]) for i in range(1, 5)]
    cover = cons.facet_star_cover(base, markers)
    # any three parts share a generator, all four do not
    for idx in combinations(range(4), 3):
        inter = cons.cover_intersection(cover, idx)
        assert inter.has_vertices()
    assert cons.cover_intersection(cover, range(4)).void
    # pairwise intersections are cones over the first marker
    for idx in combinations(range(4), 2):
        inter = cons.cover_intersection(cover, idx)
        apex = base.labels.index(cover.part_labels[idx[0]])
        assert all(apex in f for f in inter.facets)


def test_facet_star_cover_invalid_marker():
    with pytest.raises(InvalidParameterError):
        cons.facet_star_cover(cx.full_simplex("abc"), ["z"])
    for m in (5, 3, -1, True, 1.0, None):
        with pytest.raises(InvalidParameterError):
            cons.facet_star_cover(cx.full_simplex("abc"), [m])
    cover = cons.facet_star_cover(cx.full_simplex("abc"), [0, 2])
    assert cover.part_labels == ("a", "c")


# -- cover validation ----------------------------------------------------------

def test_cover_rejects_duplicate_part_labels():
    base = cx.full_simplex("ab")
    with pytest.raises(InvalidParameterError, match="unique"):
        cons.Cover(base, ["x", "x"], [(0b11, 0b11)])


def test_cover_rejects_void_base():
    with pytest.raises(InvalidParameterError, match="void"):
        cons.Cover(cx.void_complex("ab"), ["x"], [])


def test_cover_rejects_generator_outside_base():
    base = cx.from_facets("abc", [(0, 1), (1, 2)])
    with pytest.raises(InvalidFaceError):
        cons.Cover(base, ["x"], [(0b011, 0b1), (0b110, 0b1), (0b101, 0b1)])


def test_cover_rejects_holder_out_of_range():
    base = cx.full_simplex("ab")
    # parts {0, 2} of two, and a negative holder mask
    for holders in (0b101, -1):
        with pytest.raises(InvalidParameterError, match="out of range"):
            cons.Cover(base, ["x", "y"], [(0b11, holders)])


def test_cover_rejects_tuple_generators():
    # the old (vertex tuple, holder set) form names the generator, not a bit operation
    base = cx.full_simplex("ab")
    with pytest.raises(InvalidParameterError, match=r"generator \(\(0, 1\), \{0\}\)"):
        cons.Cover(base, ["x"], [((0, 1), {0})])
    with pytest.raises(InvalidParameterError, match="not a pair of int bitmasks"):
        cons.Cover(base, ["x"], [(0b11, {0})])


def test_cover_rejects_ungenerated_facet():
    base = cx.from_facets("abc", [(0, 1), (1, 2)])
    with pytest.raises(InvalidParameterError, match="not covered"):
        cons.Cover(base, ["x"], [(0b011, 0b1), (0b010, 0b1)])


def test_cover_index_sets_nonempty_and_in_range():
    cover = cons.independent_cover(gr.cycle(6), 2)
    for bad in ([], [6], [0, -1], [True], [1.0]):
        with pytest.raises(InvalidParameterError):
            cons.cover_intersection(cover, bad)
    # any iterable, read once; a repeated index counts once
    assert cons.cover_intersection(cover, iter([2, 0, 2])) == cons.cover_intersection(cover, [0, 2])
    assert cons.cover_intersection(cover, (i for i in (1, 1))) == cons.cover_intersection(cover, [1])


def test_cover_intersection_by_mask():
    cover = cons.independent_cover(gr.cycle(6), 2)
    for idx in range(1, 1 << 6):
        assert cover.intersection(idx) == cons.cover_intersection(cover, cx.mask_face(idx))
    for bad in (0, 1 << 6, -1, True):
        with pytest.raises(InvalidParameterError, match="index set mask"):
            cover.intersection(bad)


def dihedral(n):
    return [[(v + 1) % n for v in range(n)], [-v % n for v in range(n)]]


def test_cover_symmetries_accept_the_dihedral_generators():
    for k in (2, 3):
        for n in range(max(4, 2 * k), 10):
            g = gr.cycle(n)
            cover = cons.independent_cover(g, k)
            perms = cons.cover_symmetries(cover, g, k, iter(dihedral(n)))
            assert perms == [tuple(p) for p in dihedral(n)], (n, k)
            # the generators map the nerve onto itself
            nerve = cons.nerve(cover)
            for perm in perms:
                assert sorted(cx.permute_mask(f, perm) for f in nerve.facet_masks()) == list(nerve.facet_masks())
    g = gr.cycle(6)
    assert cons.cover_symmetries(cons.independent_cover(g, 2), g, 2, []) == []


def test_cover_symmetries_refuse_what_does_not_map_the_cover():
    g = gr.cycle(6)
    cover = cons.independent_cover(g, 2)
    rotation, reflection = dihedral(6)
    # swapping two adjacent cycle vertices moves {1,3} to {2,3}, no base vertex
    swap = [1, 0, 2, 3, 4, 5]
    for perms in ([swap], [rotation, swap], [reflection, swap]):
        assert cons.cover_symmetries(cover, g, 2, perms) == []
    # not a permutation of the vertices
    for bad in ([0, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6, 0]):
        assert cons.cover_symmetries(cover, g, 2, [bad]) == []
    # a base bijection that does not carry the generators onto themselves:
    # the generator of {1,3} loses part 1 (the vertex "2") from its holders;
    # the reflection v -> 2 - v fixes both, so it still maps the cover
    (face, holders), *rest = cover.generators
    assert cover.base.labels[0] == "{1,3}" and holders & 0b10
    forged = cons.Cover(cover.base, cover.part_labels, [(face, holders ^ 0b10)] + rest)
    fixing = [2, 1, 0, 5, 4, 3]
    assert cons.cover_symmetries(forged, g, 2, [fixing]) == [tuple(fixing)]
    for perms in ([rotation], [reflection], [fixing, rotation]):
        assert cons.cover_symmetries(forged, g, 2, perms) == []
        assert cons.cover_symmetries(cover, g, 2, perms) == list(map(tuple, perms))
    # the cover of another graph or another k
    assert cons.cover_symmetries(cover, gr.cycle(7), 2, [dihedral(7)[0]]) == []
    assert cons.cover_symmetries(cover, g, 3, [rotation]) == []


def test_cover_keeps_generators_that_share_a_face():
    # K_{1,3}: the three leaf pairs meet pairwise, so each has the empty
    # neighbourhood; keyed by face they would merge into one generator
    g = gr.star(3)
    cover = cons.independent_cover(g, 2)
    assert [face for face, _ in cover.generators] == [0, 0, 0]
    assert len({holders for _, holders in cover.generators}) == 3
    assert cons.nerve(cover) == cons.total_cut_complex(g, 2)
    # the same on a base with a nonempty shared face
    base = cx.full_simplex("ab")
    cover = cons.Cover(base, "xyz", [(0b11, 0b011), (0b11, 0b110)])
    assert len(cover.generators) == 2
    assert cons.nerve(cover).facet_label_family() == frozenset(
        {frozenset("xy"), frozenset("yz")}
    )
    assert cons.cover_intersection(cover, [0, 2]).void


def _oracle_covers():
    """The thm-3-1 covers (n <= 8, k = 2, 3) and the prism marker covers
    (n = 3..5), each with its tuple-and-frozenset oracle."""
    for k in (2, 3):
        for n in range(2 * k, 9):
            g = gr.cycle(n)
            yield cons.independent_cover(g, k), TupleCover(n, independent_cover_generators(n, g.edges(), k))
    for n in (3, 4, 5):
        g = gr.prism(n)
        base = cons.neighborhood_complex(gr.induced_k_independent(g, 2))
        labels = [gr.set_label(g, [2 * (i - 1), 2 * (i % n) + 1]) for i in range(1, n + 1)]
        markers = [base.labels.index(m) for m in labels]
        yield cons.facet_star_cover(base, labels), TupleCover(n, facet_star_generators(base.facets, markers))


def test_mask_cover_against_tuple_oracle():
    covers = 0
    for cover, oracle in _oracle_covers():
        covers += 1
        assert list(cons.nerve(cover).facets) == oracle.nerve_facets()
        gap = 0
        for m in range(1, cover.n_parts + 1):
            for idx in combinations(range(cover.n_parts), m):
                gens = oracle.intersection_generators(idx)
                inter = cons.cover_intersection(cover, idx)
                assert list(inter.facets) == brute_antichain(gens), idx
                assert inter.has_vertices() == oracle.generated_nonempty(idx), idx
                gap += oracle.raw_intersection_nonempty(idx) != oracle.generated_nonempty(idx)
        assert cover.reading_gap() == gap
    assert covers == 11


def test_cover_guards_shift_no_bit_out_of_range():
    base = cx.full_simplex("ab")
    # a holder mask for part 10**12 would itself be a 2**(10**12) integer;
    # part 4096 stands in for it
    for holders in (1 << 4096, -(1 << 4096)):
        message = "generator (0, 1) has a holder out of range"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            cons.Cover(base, ["x", "y"], [(0b11, holders)])
    cover = cons.independent_cover(gr.cycle(6), 2)
    for bad, part in (([-1], -1), ([10**12], 10**12), ([0, 10**12], 10**12)):
        message = f"part index {part} out of range"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            cons.cover_intersection(cover, bad)


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
    assert profile.nonzero() == {2: 7} and not profile.torsion


def test_constructed_profiles_match_oracle():
    cases = [
        cons.total_cut_complex(gr.cycle(6), 2),
        cons.total_cut_complex(gr.star(4), 2),
        cons.neighborhood_complex(gr.stable_kneser(6, 2)),
    ]
    for c in cases:
        oracle = brute_homology(c.facets)
        profile = hom.reduced_homology(c)
        assert profile.nonzero() == oracle["betti"]
