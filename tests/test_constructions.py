"""Neighborhood complexes, total cut complexes, covers, and nerves."""

import random
from itertools import combinations

import pytest

from cutnerve import complexes as cx
from cutnerve import constructions as cons
from cutnerve import graphs as gr
from cutnerve import homology as hom
from cutnerve.errors import EmptyCoverError, InvalidFaceError, InvalidParameterError

from oracles import brute_homology


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


def part_faces(cover, i):
    """Nonempty faces of part i of the cover, explicitly."""
    return {f for f in cons.cover_intersection(cover, [i]).all_faces() if f}


# -- neighborhood complexes ----------------------------------------------------

def test_neighborhood_of_triangle_is_circle():
    nc = cons.neighborhood_complex(gr.complete(3))
    assert nc.facet_label_family() == frozenset(
        {frozenset({"1", "2"}), frozenset({"2", "3"}), frozenset({"1", "3"})}
    )
    assert hom.reduced_homology(nc).is_sphere(1)


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
    assert nc.is_empty_complex()
    assert cons.neighborhood_complex(gr.Graph([], [])).is_void()
    # isolated vertices stay out of every face
    g = gr.Graph(["a", "b", "c"], [(0, 1)])
    nc = cons.neighborhood_complex(g)
    assert nc.vertex_support() == (0, 1)


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
        if nc.is_void() or nc.is_empty_complex():
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
    assert cons.total_cut_complex(gr.cycle(3), 2).is_void()
    assert cons.total_cut_complex(gr.cycle(5), 3).is_void()


def test_total_cut_star_contractible():
    tc = cons.total_cut_complex(gr.star(5), 2)
    assert hom.reduced_homology(tc).is_trivial()


def test_total_cut_purity_and_facet_count():
    for g in small_graph_corpus():
        for k in (1, 2, 3):
            sets = gr.independent_sets(g, k)
            tc = cons.total_cut_complex(g, k)
            if not sets:
                assert tc.is_void()
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
        assert cx.equals_labeled(nerve, tc)


def test_nerve_of_prism_marker_cover_is_simplex_boundary():
    g = gr.prism(4)
    h2 = gr.induced_k_independent(g, 2)
    base = cons.neighborhood_complex(h2)
    markers = [gr.set_label(g, [2 * (i - 1), 2 * (i % 4) + 1]) for i in range(1, 5)]
    cover = cons.facet_star_cover(base, markers)
    nerve = cons.nerve(cover)
    assert cx.equals_labeled(nerve, cx.simplex_boundary(cover.part_labels))


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
                assert cx.equals_labeled(cons.cover_intersection(cover, [i]), part), (g.labels, k, i)


def test_cover_intersection_all_indices_void():
    cover = cons.independent_cover(gr.cycle(6), 2)
    assert cons.cover_intersection(cover, range(6)).is_void()


def test_cover_intersection_agrees_with_explicit_faces_when_small():
    # generator reading is always contained in the raw face-set reading
    cover = cons.independent_cover(gr.cycle(6), 2)
    for m in (1, 2, 3):
        for idx in combinations(range(6), m):
            inter = cons.cover_intersection(cover, idx)
            if inter.is_void():
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
    idx = (0, 1, 2, 3)
    assert cons.cover_intersection(cover, idx).is_void()
    assert cover.raw_intersection_nonempty(idx)
    gaps = [
        idx2
        for m in range(1, 7)
        for idx2 in combinations(range(6), m)
        if cover.raw_intersection_nonempty(idx2)
        != cons.cover_intersection(cover, idx2).has_vertices()
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
    assert cx.equals_labeled(nerve, tc)
    idx = (3, 4, 5)
    assert cover.raw_intersection_nonempty(idx)
    assert not cons.cover_intersection(cover, idx).has_vertices()


def test_nerve_equals_total_cut_on_corpus():
    for g in small_graph_corpus():
        for k in (2, 3):
            if not gr.independent_sets(g, k):
                continue
            cover = cons.independent_cover(g, k)
            assert cx.equals_labeled(cons.nerve(cover), cons.total_cut_complex(g, k))


def test_isolated_independent_set_keeps_nerve_equality():
    # path on three vertices: the single independent pair has no disjoint
    # partner, so the geometric reading would miss the facet; the generator
    # reading keeps the advertised equality
    g = gr.Graph(["1", "2", "3"], [(0, 1), (1, 2)])
    cover = cons.independent_cover(g, 2)
    nerve = cons.nerve(cover)
    tc = cons.total_cut_complex(g, 2)
    assert cx.equals_labeled(nerve, tc)
    assert not cover.raw_intersection_nonempty([1])  # no nonempty face anywhere


def test_facet_star_cover_full_simplex():
    base = cx.full_simplex("abcd")
    cover = cons.facet_star_cover(base, list("abcd"))
    for i in range(4):
        assert cx.equals_labeled(cons.cover_intersection(cover, [i]), base)


def test_facet_star_cover_prism_intersections():
    g = gr.prism(4)
    base = cons.neighborhood_complex(gr.induced_k_independent(g, 2))
    markers = [gr.set_label(g, [2 * (i - 1), 2 * (i % 4) + 1]) for i in range(1, 5)]
    cover = cons.facet_star_cover(base, markers)
    # any three parts share a generator, all four do not
    for idx in combinations(range(4), 3):
        inter = cons.cover_intersection(cover, idx)
        assert inter.has_vertices()
    assert cons.cover_intersection(cover, range(4)).is_void()
    # pairwise intersections are cones over the first marker
    for idx in combinations(range(4), 2):
        inter = cons.cover_intersection(cover, idx)
        apex = base.labels.index(cover.part_labels[idx[0]])
        assert all(apex in f for f in inter.facets)


def test_facet_star_cover_invalid_marker():
    with pytest.raises(InvalidParameterError):
        cons.facet_star_cover(cx.full_simplex("abc"), ["z"])
    for m in (5, 3, -1):
        with pytest.raises(InvalidParameterError):
            cons.facet_star_cover(cx.full_simplex("abc"), [m])
    cover = cons.facet_star_cover(cx.full_simplex("abc"), [0, 2])
    assert cover.part_labels == ("a", "c")


# -- cover validation ----------------------------------------------------------

def test_cover_rejects_duplicate_part_labels():
    base = cx.full_simplex("ab")
    with pytest.raises(InvalidParameterError, match="unique"):
        cons.Cover(base, ["x", "x"], [((0, 1), {0, 1})])


def test_cover_rejects_void_base():
    with pytest.raises(InvalidParameterError, match="void"):
        cons.Cover(cx.void_complex("ab"), ["x"], [])


def test_cover_rejects_generator_outside_base():
    base = cx.from_facets("abc", [(0, 1), (1, 2)])
    with pytest.raises(InvalidFaceError):
        cons.Cover(base, ["x"], [((0, 1), {0}), ((1, 2), {0}), ((0, 2), {0})])


def test_cover_rejects_holder_out_of_range():
    base = cx.full_simplex("ab")
    for holders in ({0, 2}, {-1}):
        with pytest.raises(InvalidParameterError, match="out of range"):
            cons.Cover(base, ["x", "y"], [((0, 1), holders)])


def test_cover_rejects_ungenerated_facet():
    base = cx.from_facets("abc", [(0, 1), (1, 2)])
    with pytest.raises(InvalidParameterError, match="not covered"):
        cons.Cover(base, ["x"], [((0, 1), {0}), ((1,), {0})])


def test_cover_index_sets_nonempty_and_in_range():
    cover = cons.independent_cover(gr.cycle(6), 2)
    for bad in ([], [6], [0, -1]):
        with pytest.raises(InvalidParameterError):
            cons.cover_intersection(cover, bad)
        with pytest.raises(InvalidParameterError):
            cover.raw_intersection_nonempty(bad)


def test_cover_keeps_generators_that_share_a_face():
    # K_{1,3}: the three leaf pairs meet pairwise, so each has the empty
    # neighbourhood; keyed by face they would merge into one generator
    g = gr.star(3)
    cover = cons.independent_cover(g, 2)
    assert [face for face, _ in cover.generators] == [(), (), ()]
    assert len({holders for _, holders in cover.generators}) == 3
    assert cx.equals_labeled(cons.nerve(cover), cons.total_cut_complex(g, 2))
    # the same on a base with a nonempty shared face
    base = cx.full_simplex("ab")
    cover = cons.Cover(base, "xyz", [((0, 1), {0, 1}), ((0, 1), {1, 2})])
    assert len(cover.generators) == 2
    assert cons.nerve(cover).facet_label_family() == frozenset(
        {frozenset("xy"), frozenset("yz")}
    )
    assert cons.cover_intersection(cover, [0, 2]).is_void()


# -- spot check profiles through the construction stack ----------------------------

def test_prism_neighborhood_profile_refutation_is_oracle_backed():
    """Oracle basis for the profile that acceptance criterion 4 pins at n=4:
    the neighborhood complex of the induced 2-independent prism graph
    cannot be a 2-sphere.  The face counts alone give reduced Euler
    characteristic 7, and the dense oracle confirms the profile is seven
    2-spheres' worth of rank, in agreement with the production engine."""
    nb = cons.neighborhood_complex(gr.induced_k_independent(gr.prism(4), 2))
    assert nb.f_vector() == (1, 12, 66, 212, 306, 228, 84, 12)
    assert nb.euler_characteristic_reduced() == 7
    oracle = brute_homology(nb.facets)
    assert oracle["betti"] == {2: 7} and oracle["torsion"] == {}
    profile = hom.reduced_homology(nb)
    assert profile.nonzero() == {2: 7} and not profile.has_torsion()


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
