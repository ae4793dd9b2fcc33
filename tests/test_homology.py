"""Smith normal form against the dense oracle, and the Morse reduction of
reduced homology against the full-boundary SNF oracle."""

import copy
import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from cutnerve import complexes as cx
from cutnerve import constructions as cons
from cutnerve import graphs as gr
from cutnerve import homology as hom
from cutnerve import morse, verify
from cutnerve.errors import InvalidParameterError, ResourceLimitError
from cutnerve.verify import corpus_graph

from oracles import (
    RP2_FACETS,
    alexander_dual_homology,
    boundary_matrix,
    brute_homology,
    clique_facets,
    cone,
    corpus_edges,
    cycle_edges,
    dense_snf,
    discrete_points,
    divisibility_chain,
    empty_complex,
    euler_characteristic_reduced,
    face_count,
    facet_label_family,
    free_ranks,
    from_facets,
    full_simplex,
    graph_of_edges,
    has_vertices,
    join,
    join_ranks,
    nonzero_betti,
    prism_edges,
    simplex_boundary,
    snf_homology,
    star_edges,
    suspension,
    to_dense,
    void_complex,
)


def sparse_from_dense(rows):
    m = hom.SparseIntMatrix(len(rows), len(rows[0]) if rows else 0)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            m.set(r, c, v)
    return m


def random_dense(rng, nr, nc, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def profile_matches_oracle(c):
    profile = hom.reduced_homology(c)
    oracle = brute_homology(c.facets)
    assert nonzero_betti(profile) == oracle["betti"]
    assert {d: list(t) for d, t in profile.torsion} == oracle["torsion"]
    assert profile.minus_one_rank == oracle["minus_one"]


def homology_corpus():
    rng = random.Random(31)
    out = [
        simplex_boundary("ab"),
        simplex_boundary("abc"),
        simplex_boundary("abcd"),
        simplex_boundary("abcde"),
        full_simplex("abcd"),
        discrete_points("abcd"),
        empty_complex("ab"),
        from_facets([str(i) for i in range(6)], RP2_FACETS),
        cons.total_cut_complex(gr.cycle(6), 2),
        cons.total_cut_complex(gr.cycle(7), 2),
        cons.neighborhood_complex(gr.stable_kneser(6, 2)),
        cons.neighborhood_complex(gr.kneser(5, 2)),
    ]
    for _ in range(10):
        n = rng.randint(4, 7)
        gens = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
            for _ in range(rng.randint(2, 6))
        ]
        out.append(from_facets([f"v{i}" for i in range(n)], gens))
    return out


# -- Smith normal form ---------------------------------------------------------

def test_snf_worked_example():
    # gcd of entries 2, |det| = 8, so the chain is (2, 4)
    assert hom.smith_normal_form(sparse_from_dense([[2, 4], [6, 8]])) == (2, 4)
    assert dense_snf([[2, 4], [6, 8]]) == (2, 4)


def test_snf_zero_and_identity():
    assert hom.smith_normal_form(hom.SparseIntMatrix(3, 4)) == ()
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert hom.smith_normal_form(sparse_from_dense(eye)) == (1, 1, 1, 1, 1)


def test_snf_against_dense_oracle():
    rng = random.Random(42)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 7)
        dense = random_dense(rng, nr, nc)
        assert hom.smith_normal_form(sparse_from_dense(dense)) == dense_snf(dense)
    # no +-1 entries, so no column the heap pops holds a unit and every
    # pivot is a least entry; some rows and columns are zero
    stalled = []
    for _ in range(80):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        dense = [[rng.choice((0, 0, 2, -2, 3, -3, 4, 6, -6, 9, 12)) for _ in range(nc)]
                 for _ in range(nr)]
        dense[rng.randrange(nr)] = [0] * nc
        zero_col = rng.randrange(nc)
        for row in dense:
            row[zero_col] = 0
        stalled.append(dense)
    # a remainder moves the pivot: 6 - 4 leaves 2 in a column, in a row,
    # and in both
    stalled += [[[4], [6]], [[4, 6]], [[4, 6], [6, 4]], [[0, 4, 0], [6, 0, 10], [0, 10, 0]]]
    for dense in stalled:
        assert all(v not in (1, -1) for row in dense for v in row)
        assert hom.smith_normal_form(sparse_from_dense(dense)) == dense_snf(dense), dense
    assert hom.smith_normal_form(sparse_from_dense([[4], [6]])) == (2,)
    assert hom.smith_normal_form(sparse_from_dense([[4, 6]])) == (2,)
    # column 0 has no unit when the heap pops it and gets one only after the
    # first elimination, so the least-entry rule takes it
    assert hom.smith_normal_form(sparse_from_dense([[2, 1], [3, 1]])) == (1, 1)
    assert dense_snf([[2, 1], [3, 1]]) == (1, 1)


def transpose(rows):
    out = {}
    for r, row in rows.items():
        for c, v in row.items():
            out.setdefault(c, {})[r] = v
    return out


def test_set_keeps_maps_mirrored():
    m = hom.SparseIntMatrix(3, 3)
    m.set(0, 0, 2)
    m.set(0, 1, 3)
    m.set(2, 1, -1)
    m.set(2, 1, 5)
    assert m.rows == {0: {0: 2, 1: 3}, 2: {1: 5}}
    assert m.cols == transpose(m.rows)
    m.set(0, 0, 0)
    m.set(1, 1, 0)
    assert m.rows == {0: {1: 3}, 2: {1: 5}}
    assert m.cols == transpose(m.rows)
    m.set(0, 1, 0)
    assert m.rows == {2: {1: 5}}
    assert m.cols == {1: {2: 5}}
    with pytest.raises(InvalidParameterError):
        m.set(3, 0, 1)


def test_snf_leaves_argument_unchanged():
    rng = random.Random(7)
    matrices = []
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        dense = random_dense(rng, nr, nc, -3, 3)
        m = sparse_from_dense(dense)
        for _ in range(3):
            r, c = rng.randrange(nr), rng.randrange(nc)
            m.set(r, c, 0)
            dense[r][c] = 0
        assert hom.smith_normal_form(m) == dense_snf(dense)
        matrices.append(m)
    for c in homology_corpus():
        for d in range(c.dimension() + 1):
            matrices.append(boundary_matrix(c, d))
    for m in matrices:
        assert m.cols == transpose(m.rows)
        assert all(m.rows.values())
        before = (copy.deepcopy(m.rows), copy.deepcopy(m.cols))
        hom.smith_normal_form(m)
        assert (m.rows, m.cols) == before


def test_snf_divisibility_chain():
    rng = random.Random(17)
    for _ in range(25):
        dense = random_dense(rng, rng.randint(2, 5), rng.randint(2, 5), -20, 20)
        inv = hom.smith_normal_form(sparse_from_dense(dense))
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
    # the one gcd/lcm pass against the chain read off the prime exponents
    for _ in range(2000):
        values = [rng.choice([-1, 1]) * rng.randint(0, 360) for _ in range(rng.randint(0, 7))]
        assert hom._divisibility_chain(values) == divisibility_chain(values), values


def test_snf_invariance_permutation_transpose():
    rng = random.Random(99)
    for _ in range(15):
        nr, nc = rng.randint(2, 5), rng.randint(2, 6)
        dense = random_dense(rng, nr, nc)
        base = hom.smith_normal_form(sparse_from_dense(dense))
        rows = list(range(nr))
        cols = list(range(nc))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = [[dense[r][c] for c in cols] for r in rows]
        assert hom.smith_normal_form(sparse_from_dense(permuted)) == base
        transposed = [list(row) for row in zip(*dense)]
        assert hom.smith_normal_form(sparse_from_dense(transposed)) == base


# -- the oracle's boundary matrices -----------------------------------------------

def test_boundary_of_edge():
    c = from_facets("ab", [(0, 1)])
    m = boundary_matrix(c, 1)
    assert to_dense(m) == [[-1], [1]]


def test_boundary_squared_is_zero():
    for c in homology_corpus():
        if not has_vertices(c):
            continue
        for d in range(1, c.dimension() + 1):
            dense_low = to_dense(boundary_matrix(c, d - 1))
            dense_up = to_dense(boundary_matrix(c, d))
            for i in range(len(dense_low)):
                for j in range(len(dense_up[0]) if dense_up else 0):
                    s = sum(dense_low[i][k] * dense_up[k][j] for k in range(len(dense_up)))
                    assert s == 0


def test_boundary_rank_triangle():
    c = simplex_boundary("abc")
    assert len(hom.smith_normal_form(boundary_matrix(c, 1))) == 2


def test_boundary_on_void_rejected():
    with pytest.raises(InvalidParameterError, match="boundary matrices are undefined on the void complex"):
        boundary_matrix(void_complex("a"), 0)


# -- reduced homology ---------------------------------------------------------------

def test_spheres():
    for d in range(4):
        c = simplex_boundary([str(i) for i in range(d + 2)])
        assert hom.reduced_homology(c) == hom.HomologyProfile.wedge(d, 1)


def test_projective_plane_torsion():
    c = from_facets([str(i) for i in range(6)], RP2_FACETS)
    profile = hom.reduced_homology(c)
    assert profile.betti == ()
    assert profile.torsion == ((1, (2,)),)


def test_total_cut_c8_is_s4():
    c = cons.total_cut_complex(gr.cycle(8), 2)
    assert hom.reduced_homology(c) == hom.HomologyProfile.wedge(4, 1)


def test_against_dense_oracle_corpus():
    for c in homology_corpus():
        if face_count(c) <= 200:
            profile_matches_oracle(c)


def test_relabeling_invariance():
    rng = random.Random(5)
    for _ in range(5):
        n = 6
        gens = [tuple(sorted(rng.sample(range(n), rng.randint(1, 4)))) for _ in range(4)]
        labels = [f"v{i}" for i in range(n)]
        c1 = from_facets(labels, gens)
        perm = list(range(n))
        rng.shuffle(perm)
        c2 = from_facets(
            [labels[perm.index(i)] for i in range(n)],
            [tuple(sorted(perm[v] for v in f)) for f in gens],
        )
        assert hom.reduced_homology(c1) == hom.reduced_homology(c2)


def test_euler_characteristic_consistency():
    for c in homology_corpus():
        if c.void:
            continue
        profile = hom.reduced_homology(c)
        chi = sum((-1) ** d * b for d, b in enumerate(profile.betti))
        if profile.minus_one_rank:
            chi -= 1
        assert chi == euler_characteristic_reduced(c)


def test_void_and_empty_profiles():
    v = hom.reduced_homology(void_complex("ab"))
    assert v.void and v.betti == ()
    e = hom.reduced_homology(empty_complex("ab"))
    assert e.minus_one_rank == 1 and e.betti == ()


def test_profile_json_writes_every_field():
    for c in homology_corpus():
        p = hom.reduced_homology(c)
        doc = json.loads(p.to_json())
        torsion = [[d, t] for d, coeffs in p.torsion for t in coeffs]
        assert doc == {"betti": list(p.betti), "torsion": torsion, "minus_one": p.minus_one_rank, "void": p.void}
        assert p.to_dict() == doc


def test_profile_dict_is_its_json_form_and_the_claims_report_it():
    # torsion in two degrees (RP^2 * RP^2: Z/2 in degrees 3 and 4), the
    # empty complex's unit in degree -1 and the void complex
    rp2 = from_facets([str(i) for i in range(6)], RP2_FACETS)
    rp2b = from_facets([f"b{i}" for i in range(6)], RP2_FACETS)
    cases = [
        (join(rp2, rp2b), hom.HomologyProfile(torsion=((3, (2,)), (4, (2,))))),
        (empty_complex("ab"), hom.HomologyProfile(minus_one_rank=1)),
        (void_complex("ab"), hom.HomologyProfile(void=True)),
    ]
    expected = hom.HomologyProfile.wedge(2, 1)
    for c, profile in cases:
        assert hom.reduced_homology(c) == profile
        assert profile.to_dict() == json.loads(profile.to_json())
        check = verify._claim("claim", c, 2)
        assert check.verdict == "fail"
        assert check.expected == json.loads(expected.to_json()) == expected.to_dict()
        assert check.actual == json.loads(profile.to_json()) == profile.to_dict()
        # each call builds fresh lists, so a report cannot alias the
        # profile cached on the complex
        check.actual["betti"].append(1)
        assert hom.reduced_homology(c).to_dict() == json.loads(profile.to_json())


# -- differential corpus: Morse reduction against the full-boundary SNF ------------

# the oracle builds the closure; above this many faces (by the bound
# sum 2^|facet|) it takes seconds to minutes, so larger complexes are
# checked against a second vertex order instead
ORACLE_FACE_BOUND = 20_000


def reindexed(c, rng):
    """The same labelled complex with its vertices indexed in a shuffled
    order, so the element matching queries them in another order."""
    order = list(range(c.n_vertices))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    return from_facets([c.labels[v] for v in order], [[pos[v] for v in f] for f in c.facets])


def profile_against_snf(c, name):
    """The complex's profile, checked against the oracle after checking
    that computing it built no closure."""
    profile = hom.reduced_homology(c)
    assert c._closure is None, name
    assert profile == snf_homology(c), name
    return profile


def test_reduced_homology_matches_snf_on_random_complexes():
    rng = random.Random(2026)
    for i in range(300):
        n = rng.randint(4, 8)
        gens = [rng.sample(range(n), rng.randint(2, min(5, n))) for _ in range(rng.randint(2, 8))]
        c = from_facets([f"v{j}" for j in range(n)], gens)
        shuffled = reindexed(c, rng)
        assert facet_label_family(c) == facet_label_family(shuffled)
        assert profile_against_snf(c, i) == profile_against_snf(shuffled, i)


def test_reduced_homology_matches_snf_on_cones_joins_suspensions():
    rng = random.Random(11)
    rp2 = from_facets([f"p{i}" for i in range(6)], RP2_FACETS)
    assert profile_against_snf(rp2, "RP2") == hom.HomologyProfile(torsion=((1, (2,)),))
    circle = simplex_boundary("xyz")
    bases = [rp2, circle, discrete_points("abc"), empty_complex("e")]
    bases += seeded_random_complexes(12, 404, n_vertices=6)
    factors = [simplex_boundary(["c1", "c2", "c3"]), from_facets([f"q{j}" for j in range(6)], RP2_FACETS)]
    for i, base in enumerate(bases):
        profile_against_snf(cone(base, "apex"), ("cone", i))
        profile_against_snf(suspension(base), ("suspension", i))
        profile_against_snf(suspension(reindexed(base, rng)), ("suspension", i))
        profile_against_snf(join(base, factors[i % 2]), ("join", i))
    assert hom.reduced_homology(suspension(rp2)).torsion == ((2, (2,)),)
    assert hom.reduced_homology(join(rp2, circle)).torsion == ((3, (2,)),)


def test_reduced_homology_matches_snf_on_corpus_graphs():
    rng = random.Random(30)
    compared = 0
    for i in range(30):
        g = corpus_graph(i, 2026)
        for k in (2, 3):
            tc = cons.total_cut_complex(g, k)
            nb = cons.neighborhood_complex(gr.induced_k_independent(g, k))
            for c in (tc, nb):
                name = (i, k, "total cut" if c is tc else "neighborhood")
                profile = hom.reduced_homology(c)
                assert c._closure is None, name
                assert hom.reduced_homology(reindexed(c, rng)) == profile, name
                if c.void or sum(1 << len(f) for f in c.facets) <= ORACLE_FACE_BOUND:
                    assert profile == snf_homology(c), name
                    compared += 1
    assert compared == 114


@pytest.mark.parametrize("n", [4, 5])
def test_reduced_homology_matches_snf_on_prism_neighborhood(n):
    nb = cons.neighborhood_complex(gr.induced_k_independent(gr.prism(n), 2))
    profile_against_snf(nb, n)


def test_reduced_homology_charges_the_face_budget(monkeypatch):
    # TC(C6, 2) is S^2: 5 recursion nodes carrying 5 cells in all, and no
    # Morse boundary, so 10 units of work
    tc = cons.total_cut_complex(gr.cycle(6), 2)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "9")
    with pytest.raises(ResourceLimitError) as err:
        hom.reduced_homology(tc)
    assert err.value.budget == 9
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "10")
    assert hom.reduced_homology(tc) == hom.HomologyProfile.wedge(2, 1)
    assert tc._closure is None
    # the flow is charged too: RP^2 takes 18 units to its critical cells
    # in degrees 1 and 2, and 15 more for the faces its Morse boundary flows
    # through
    rp2 = from_facets([str(i) for i in range(6)], RP2_FACETS)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "32")
    with pytest.raises(ResourceLimitError):
        hom.reduced_homology(rp2)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "33")
    assert hom.reduced_homology(rp2).torsion == ((1, (2,)),)


def random_antichain(rng):
    """A sorted mask antichain over a ground set of 3 to 130 vertices, so
    that bits past 64 occur; () and (0,) included."""
    n = rng.choice((3, 6, 10, 70, 130))
    raw = [sum(1 << v for v in rng.sample(range(n), rng.randint(0, min(5, n)))) for _ in range(rng.randint(0, 7))]
    return cx.mask_antichain(raw), n


def test_split_and_union_against_mask_antichain():
    # lk_v and del_v of an antichain, and the union of two antichains, are
    # the maximal members of the raw families; every v of the support is
    # tried, and one outside it
    rng = random.Random(32)
    shapes = set()
    for _ in range(500):
        a, n = random_antichain(rng)
        b, _ = random_antichain(rng)
        # members shared by the two union arguments
        b = cx.mask_antichain(b + tuple(rng.sample(a, min(len(a), rng.randint(0, 2)))))
        shapes.add(a if a in ((), (0,)) else len(a))
        support = 0
        for f in a:
            support |= f
        for v in [v for v in range(n) if support >> v & 1] + [n + rng.randrange(3)]:
            bit = 1 << v
            lk, rest = cx.link_deletion(a, bit)
            assert lk == tuple(f ^ bit for f in a if f & bit), (a, v)
            assert rest == cx.mask_antichain(f & ~bit for f in a), (a, v)
        assert hom._union(a, b) == cx.mask_antichain(a + b) == hom._union(b, a), (a, b)
    assert {(), (0,)} <= shapes
    for a, b in (((), ()), ((0,), ()), ((0,), (0,)), ((0,), (1 << 70,)), ((1 << 70 | 1,), (1 << 70, 1))):
        assert hom._union(a, b) == cx.mask_antichain(a + b), (a, b)
    assert cx.link_deletion((0,), 1) == ((), (0,)) and cx.link_deletion((1,), 1) == ((0,), (0,))


def test_meet_against_mask_antichain():
    # the meet is the maximal pairwise ANDs; half the second antichains
    # absorb members of the first, so both the whole-first-antichain path
    # and the mixed one run
    rng = random.Random(34)
    whole = mixed = 0
    for _ in range(500):
        a, _ = random_antichain(rng)
        b, _ = random_antichain(rng)
        if rng.random() < 0.5:
            b = cx.mask_antichain(b + tuple(rng.sample(a, rng.randint(0, len(a)))))
        expected = cx.mask_antichain(f & g for f in a for g in b)
        assert hom._meet(a, b) == expected, (a, b)
        if a and all(f in map(f.__and__, b) for f in a):
            whole += 1
        elif b:
            mixed += 1
    assert whole > 50 and mixed > 50, (whole, mixed)
    for a, b in (((), ()), ((0,), ()), ((), (0,)), ((0,), (0,)), ((1 << 70 | 1,), (1 << 70, 1))):
        assert hom._meet(a, b) == cx.mask_antichain(f & g for f in a for g in b), (a, b)


@pytest.mark.parametrize("name, build, cells_work, homology_work, cells", [
    ("N(SG(7,2))", lambda: cons.neighborhood_complex(gr.stable_kneser(7, 2)), 62, 151, {2: 1, 3: 2}),
    ("N(I_2(prism 4))", lambda: cons.neighborhood_complex(gr.induced_k_independent(gr.prism(4), 2)),
     75, 75, {2: 7}),
    ("TC_6(CL_7)", lambda: cons.total_cut_complex(gr.circular_ladder(7), 6), 75, 75, {2: 6}),
])
def test_element_matching_accounting_is_pinned(name, build, cells_work, homology_work, cells):
    # the work charged to the critical cells and then to the Morse
    # boundary fixes where the face budget refuses; a change to the
    # recursion's nodes, prunes or charges moves these figures
    c = build()
    em = hom.ElementMatching(c.facet_masks(), range(c.n_vertices))
    assert em.work == cells_work, name
    hom._morse_homology(em)
    assert em.work == homology_work, name
    assert Counter(cell.bit_count() - 1 for cell in em.cells) == cells, name


def test_ladder_matching_certificate_is_pinned():
    # thm-4-4's certificate on CL_7: the element matching over 1+ then 1-
    tc = cons.total_cut_complex(gr.circular_ladder(7), 6)
    pairs = sorted(morse.element_matching_sequence(tc, ["1+", "1-"]))
    assert len(pairs) == 890
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == "a2163fd92028ade052a3390f9082f17ee76a4a168b6f3cf13e1d71a9f6a60881"


@pytest.mark.parametrize("n, index_cells, reversed_cells", [
    (7, {2: 1, 3: 2}, {3: 1}),
    (8, {3: 2, 4: 3}, {4: 1}),
])
def test_element_matching_order_on_stable_kneser_neighborhood(n, index_cells, reversed_cells):
    # the vertex sequence is the matching's one argument for its order: on
    # N(SG(n,2)) the reversed order leaves a single critical cell, the
    # index order cells in two degrees; neither leaves the empty face
    nc = cons.neighborhood_complex(gr.stable_kneser(n, 2))
    index_order = range(nc.n_vertices)
    for order, expected in ((index_order, index_cells), (reversed(index_order), reversed_cells)):
        em = hom.ElementMatching(nc.facet_masks(), order)
        assert Counter(cell.bit_count() - 1 for cell in em.cells) == expected


def assert_one_matching(facets, n, name):
    """The subset-lattice layout and the recursion over the index order
    leave the same critical cells and give every face of the closure the
    same partner."""
    lattice = hom.LatticeMatching(facets, n)
    recursion = hom.ElementMatching(facets, range(n))
    assert sorted(lattice.cells) == sorted(recursion.cells), name
    for face in cx.closure_masks(cx.mask_antichain(facets)):
        assert lattice.partner(face) == recursion.partner(face), (name, face)


def test_lattice_and_recursion_are_one_matching_on_random_antichains():
    rng = random.Random(47)
    sizes = set()
    for trial in range(300):
        n = rng.randint(0, 16)
        raw = [sum(1 << v for v in rng.sample(range(n), rng.randint(0, min(n, 7))))
               for _ in range(rng.randint(1, 8))]
        facets = cx.mask_antichain(raw)
        sizes.add(n)
        assert_one_matching(facets, n, (trial, facets))
    for facets, n in (((), 0), ((), 4), ((0,), 0), ((0,), 5)):
        assert_one_matching(facets, n, facets)
    assert {0, 16} <= sizes


def test_lattice_and_recursion_are_one_matching_on_named_complexes():
    named = {
        # cells in degrees 2 and 3, joined by a Morse boundary the flow builds
        "N(SG(7,2))": cons.neighborhood_complex(gr.stable_kneser(7, 2)),
        "N(SG(8,3))": cons.neighborhood_complex(gr.stable_kneser(8, 3)),
        "N(I_7(CL_8))": cons.neighborhood_complex(gr.induced_k_independent(gr.circular_ladder(8), 7)),
    }
    assert {name: c.n_vertices for name, c in named.items()} == {
        "N(SG(7,2))": 14, "N(SG(8,3))": 16, "N(I_7(CL_8))": 16}
    assert len(named["N(I_7(CL_8))"].facet_masks()) == 2
    for i in range(30):
        g = corpus_graph(i, 2026)
        for k in (2, 3):
            named[i, k, "total cut"] = cons.total_cut_complex(g, k)
            named[i, k, "neighborhood"] = cons.neighborhood_complex(gr.induced_k_independent(g, k))
    compared = 0
    for name, c in named.items():
        if c.n_vertices <= hom.LATTICE_VERTICES:
            assert_one_matching(c.facet_masks(), c.n_vertices, name)
            compared += 1
    assert compared == 110


def gate_spies(monkeypatch):
    """Replace both layouts with subclasses that record which one
    ``reduced_homology`` builds."""
    built = []

    def spy(layout):
        class Spy(layout):
            def __init__(self, *args):
                built.append(layout.__name__)
                super().__init__(*args)
        return Spy

    monkeypatch.setattr(hom, "LatticeMatching", spy(hom.LatticeMatching))
    monkeypatch.setattr(hom, "ElementMatching", spy(hom.ElementMatching))
    return built


def test_reduced_homology_takes_the_lattice_only_inside_the_gate(monkeypatch):
    built = gate_spies(monkeypatch)
    # 16 vertices: the lattice
    assert hom.reduced_homology(cons.neighborhood_complex(gr.stable_kneser(8, 3))) == hom.HomologyProfile.wedge(2, 1)
    assert built == ["LatticeMatching"]
    # N(C_17) is a 17-cycle, S^1 on 17 vertices: the recursion
    built.clear()
    n17 = cons.neighborhood_complex(gr.cycle(17))
    assert n17.n_vertices == 17
    assert hom.reduced_homology(n17) == hom.HomologyProfile.wedge(1, 1)
    assert built == ["ElementMatching"]
    # TC(C_6, 2) has 6 vertices: its 64 subsets fit a budget of 64, not 63
    for budget, layout in (("63", "ElementMatching"), ("64", "LatticeMatching")):
        built.clear()
        monkeypatch.setenv("CUTNERVE_FACE_BUDGET", budget)
        assert hom.reduced_homology(cons.total_cut_complex(gr.cycle(6), 2)) == hom.HomologyProfile.wedge(2, 1)
        assert built == [layout], budget


def test_lattice_matching_charges_its_subsets_and_the_flow(monkeypatch):
    # RP^2 on 6 vertices: 64 subsets, then 15 faces the Morse boundary
    # from degree 2 to degree 1 flows through
    rp2 = from_facets([str(i) for i in range(6)], RP2_FACETS)
    lattice = hom.LatticeMatching(rp2.facet_masks(), 6)
    assert lattice.work == 64
    assert hom._morse_homology(lattice).torsion == ((1, (2,)),)
    assert lattice.work == 64 + 15
    # a budget that fits the 64 subsets takes the lattice, which then
    # refuses below 79, though the recursion alone would need 33
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "78")
    with pytest.raises(ResourceLimitError):
        hom.reduced_homology(rp2)
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "79")
    assert hom.reduced_homology(rp2).torsion == ((1, (2,)),)


# the graphs of the desk claims about total cut complexes, with each
# family's edge-list definition
K2_TOTAL_CUT_FAMILIES = {
    "thm-1-4": (gr.cycle, cycle_edges),
    "thm-3-1": (gr.cycle, cycle_edges),
    "prop-3-3": (gr.cycle, cycle_edges),
    "thm-4-3": (gr.prism, prism_edges),
    "ex-4-9": (gr.star, star_edges),
}


def desk_k2_total_cut_graphs():
    """Every graph whose total cut complex at k = 2 a desk job makes a
    claim about, once each, with its labels and edge list."""
    out = {}
    for sid, (family, edges) in K2_TOTAL_CUT_FAMILIES.items():
        for params in verify.SCENARIOS[sid].class_params["desk"]:
            if params.get("k", 2) == 2:
                out[family.__name__, params["n"]] = family(params["n"]), edges(params["n"])
    corpus = verify.SCENARIOS["prop-4-10"].defaults
    for i in range(corpus["count"]):
        out["corpus", i] = corpus_graph(i, corpus["seed"]), corpus_edges(i, corpus["seed"])
    return out


def alexander_duality_misses() -> list:
    """The graphs of ``desk_k2_total_cut_graphs`` whose Δ_2^t(G) does not
    have the homology that Alexander duality reads off the clique complex
    Cl G.  A set sigma is outside Δ_2^t(G) exactly when V - sigma holds no
    independent pair, that is when V - sigma is a clique, so Cl G is the
    Alexander dual of Δ_2^t(G): β_i(Δ) = β_{n-i-3}(Cl G), and the torsion
    of H~_i(Δ) is that of H~_{n-i-4}(Cl G).  Δ is void exactly when G is
    complete, and then Cl G is the full simplex."""
    misses = []
    for name, (g, (labels, edges)) in desk_k2_total_cut_graphs().items():
        assert g == graph_of_edges(labels, edges), name
        tc, cliques = cons.total_cut_complex(g, 2), clique_facets(g.n, edges)
        if tc.void:
            dual_holds = tuple(range(g.n)) in cliques
        else:
            dual_holds = hom.reduced_homology(tc) == alexander_dual_homology(brute_homology(cliques), g.n)
        if not dual_holds:
            misses.append(name)
    return misses


def test_total_cut_complex_at_k2_is_alexander_dual_to_the_clique_complex():
    graphs = desk_k2_total_cut_graphs()
    assert len(graphs) == 6 + 3 + 3 + 60
    assert alexander_duality_misses() == []


def test_alexander_duality_pin_fails_on_a_shifted_facet(monkeypatch):
    # the first facet of each total cut complex moved one vertex along,
    # cyclically: on C_n it lands on another facet, so one facet is lost,
    # which a thick sphere such as Δ_2^t(C_6) survives, but not Δ_2^t(C_4),
    # two disjoint edges
    build = cons.total_cut_complex

    def shifted(g, k):
        masks = list(build(g, k).facet_masks())
        if masks:
            f = masks[0]
            masks[0] = (f << 1 | f >> g.n - 1) & (1 << g.n) - 1
        return cx.SimplicialComplex(g.labels, masks)

    monkeypatch.setattr(cons, "total_cut_complex", shifted)
    misses = alexander_duality_misses()
    assert {("cycle", 4), ("prism", 3), ("prism", 4), ("prism", 5)} <= set(misses), misses
    assert len(misses) == 39, misses


# -- wedge checks ----------------------------------------------------------------

def test_wedge_profile_examples():
    assert hom.reduced_homology(simplex_boundary("abc")) == hom.HomologyProfile.wedge(1, 1)
    tc = cons.total_cut_complex(gr.prism(3), 2)
    assert hom.reduced_homology(tc) == hom.HomologyProfile.wedge(2, 2)
    tc4 = cons.total_cut_complex(gr.circular_ladder(4), 3)
    assert hom.reduced_homology(tc4) == hom.HomologyProfile.wedge(2, 9)


def test_wedge_rejects_torsion_and_void():
    rp2 = from_facets([str(i) for i in range(6)], RP2_FACETS)
    assert hom.reduced_homology(rp2) != hom.HomologyProfile.wedge(1, 1)
    assert hom.reduced_homology(void_complex("a")) != hom.HomologyProfile.wedge(0, 0)
    assert hom.reduced_homology(full_simplex("abc")) == hom.HomologyProfile.wedge(3, 0)


# -- join identity -----------------------------------------------------------------

def join_ranks_hold(a, b) -> bool:
    """The free ranks of the join are the convolution of the factors'."""
    expected = join_ranks(free_ranks(hom.reduced_homology(a)), free_ranks(hom.reduced_homology(b)))
    return free_ranks(hom.reduced_homology(join(a, b))) == expected


def test_join_check_spheres():
    s0a, s0b = discrete_points("ab"), discrete_points("cd")
    assert join_ranks_hold(s0a, s0b)
    circle1 = simplex_boundary("abc")
    circle2 = simplex_boundary("xyz")
    joined = join(circle1, circle2)
    assert hom.reduced_homology(joined) == hom.HomologyProfile.wedge(3, 1)
    assert join_ranks_hold(circle1, circle2)
    assert join_ranks([0, 0, 1], [0, 0, 1]) == [0, 0, 0, 0, 1]


def test_join_ranks_with_torsion_factor():
    # torsion adds only torsion: RP^2 * S^0 is the suspension of RP^2, no
    # free rank anywhere and Z/2 one degree up; RP^2 * RP^2 has no free rank
    rp2 = from_facets([str(i) for i in range(6)], RP2_FACETS)
    s0 = discrete_points("xy")
    assert join_ranks_hold(rp2, s0)
    assert hom.reduced_homology(join(rp2, s0)).torsion == ((2, (2,)),)
    rp2b = from_facets([f"b{i}" for i in range(6)], RP2_FACETS)
    assert join_ranks_hold(rp2, rp2b)


def test_join_check_with_empty_complex_factor():
    # joining with the empty complex is the identity; the degree -1 unit
    # carries the convolution
    assert join_ranks_hold(empty_complex("e"), simplex_boundary("abc"))
    assert join_ranks([1], [0, 0, 1]) == [0, 0, 1]


def seeded_random_complexes(count, seed, n_vertices=5):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(3, n_vertices)
        gens = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
            for _ in range(rng.randint(2, 5))
        ]
        out.append(from_facets([f"s{seed}v{j}" for j in range(n)], gens))
    return out


def test_suspension_shift_on_seeded_complexes():
    for i, c in enumerate(seeded_random_complexes(20, 77)):
        before = hom.reduced_homology(c)
        after = hom.reduced_homology(suspension(c))
        assert after.minus_one_rank == 0
        shifted = {d + 1: b for d, b in nonzero_betti(before).items()}
        if before.minus_one_rank:
            shifted[0] = before.minus_one_rank
        assert nonzero_betti(after) == shifted
        shifted_torsion = tuple((d + 1, t) for d, t in before.torsion)
        assert after.torsion == shifted_torsion


def test_join_rank_identity_on_seeded_complexes():
    # torsion in a factor needs no exemption: every pair is checked
    for a, b in zip(seeded_random_complexes(20, 101), seeded_random_complexes(20, 202)):
        assert join_ranks_hold(a, b)
