"""Complex construction, closure, and the join/cone/link/skeleton operations."""

import json
import random
import re
import tracemalloc
from itertools import combinations

import pytest

from cutnerve import complexes as cx
from cutnerve import constructions as cons
from cutnerve import graphs as gr
from cutnerve.errors import InvalidParameterError, ResourceLimitError
from cutnerve.homology import HomologyProfile, reduced_homology

from oracles import (
    brute_antichain,
    closure_of,
    cone,
    discrete_points,
    empty_complex,
    euler_characteristic_reduced,
    face_count,
    facet_label_family,
    from_facets,
    full_simplex,
    has_vertices,
    join,
    link,
    simplex_boundary,
    skeleton,
    suspension,
    void_complex,
)


def random_complex(rng, n_vertices=6, n_gens=5):
    labels = [f"v{i}" for i in range(n_vertices)]
    gens = []
    for _ in range(n_gens):
        size = rng.randint(1, min(4, n_vertices))
        gens.append(tuple(sorted(rng.sample(range(n_vertices), size))))
    return from_facets(labels, gens)


def complex_corpus():
    rng = random.Random(11)
    out = [
        full_simplex("abc"),
        simplex_boundary("abcd"),
        discrete_points("abcde"),
        empty_complex("ab"),
        cons.total_cut_complex(gr.cycle(6), 2),
        cons.neighborhood_complex(gr.kneser(4, 2)),
    ]
    out.extend(random_complex(rng) for _ in range(8))
    return out


# -- construction -------------------------------------------------------------

def test_from_facets_absorption():
    c = from_facets("abc", [(0, 1), (1,)])
    assert c.facets == ((0, 1),)


def test_from_facets_void_and_empty():
    v = from_facets("ab", [])
    assert v.void and v != empty_complex("ab")
    e = from_facets("ab", [()])
    assert e == empty_complex("ab") and not e.void
    assert e.dimension() == -1


def test_mask_constructors_match_their_tuple_facets():
    # every constructor builds its facet masks directly; from_facets on the
    # vertex tuples is the oracle, past bit 64 too
    for n in range(71):
        labels = [f"v{i}" for i in range(n)]
        full = tuple(range(n))
        assert void_complex(labels) == from_facets(labels, [])
        assert empty_complex(labels) == from_facets(labels, [()])
        assert full_simplex(labels) == from_facets(labels, [full])
        assert discrete_points(labels) == from_facets(labels, [()] + [(v,) for v in full])
        if n:
            assert simplex_boundary(labels) == from_facets(labels, combinations(full, n - 1))
    assert cx.SimplicialComplex("ab", []).void
    assert cx.SimplicialComplex("ab", [0]).facet_masks() == (0,)
    assert discrete_points("").facet_masks() == (0,)
    with pytest.raises(InvalidParameterError, match="boundary needs at least one vertex"):
        simplex_boundary("")


def read_complex(labels, faces):
    """``SimplicialComplex.from_json`` on the JSON of ``labels`` and ``faces``."""
    return cx.SimplicialComplex.from_json(json.dumps({"vertices": list(labels), "facets": faces}))


def test_from_json_unknown_vertex():
    with pytest.raises(InvalidParameterError, match=re.escape("face (0, 5) references unknown vertex 5")):
        read_complex("ab", [[0, 5]])


def test_antichain_against_brute_force():
    # a complex stores the mask antichain of its faces: the tuple
    # constructor, the mask constructor and the brute-force antichain must
    # agree, and so must equality and hashing
    rng = random.Random(29)
    for _ in range(400):
        n = rng.choice((3, 6, 10, 70, 130))
        labels = [f"v{i}" for i in range(n)]
        faces = []
        for _ in range(rng.randint(0, 8)):
            # unsorted, with repeated vertices and the empty face
            face = tuple(rng.randrange(n) for _ in range(rng.randint(0, 5)))
            faces.append(face)
            if rng.random() < 0.3:
                faces.append(face[::-1])
        by_tuples = from_facets(labels, faces)
        by_masks = cx.SimplicialComplex(labels, map(cx.face_mask, faces))
        assert list(by_tuples.facets) == brute_antichain(faces), faces
        assert by_masks == by_tuples and hash(by_masks) == hash(by_tuples), faces
        assert by_masks.facet_masks() == tuple(sorted(map(cx.face_mask, by_masks.facets)))
        assert by_masks.void == (not faces) and has_vertices(by_masks) == any(faces)

    def antichain(faces):
        return list(from_facets([f"v{i}" for i in range(70)], faces).facets)

    assert antichain([(2, 1, 2)]) == [(1, 2)]
    assert antichain([(1, 2), (2, 1, 2)]) == [(1, 2)]
    assert antichain([(), ()]) == [()]
    assert antichain([]) == []
    assert antichain([(), (65,), (0,)]) == [(0,), (65,)]
    assert antichain([(64, 0), (0,), (0, 64, 64), (63, 64)]) == [(0, 64), (63, 64)]


def test_mask_antichain_edge_families_against_brute_force():
    # the cases a random family seldom hits: one size with duplicates (kept
    # whole, no containment scan), a nested chain, the empty face among
    # others, no face at all, and masks above bit 64
    rng = random.Random(31)

    def check(masks):
        expected = brute_antichain(map(cx.mask_face, masks))
        assert cx.mask_antichain(masks) == tuple(sorted(map(cx.face_mask, expected))), masks

    for _ in range(40):
        n, size = rng.choice(((8, 3), (12, 5), (90, 4), (140, 70)))
        family = [cx.face_mask(rng.sample(range(n), size)) for _ in range(rng.randint(30, 40))]
        family += rng.sample(family, 5)
        check(family)
        assert cx.mask_antichain(family) == tuple(sorted(set(family)))
        chain, m = [], 0
        for v in rng.sample(range(n), min(n, 12)):
            m |= 1 << v
            chain.append(m)
        check(chain)
        assert cx.mask_antichain(rng.sample(chain, len(chain))) == (m,)
        check(family + [0])
        check(family + chain + [0])
    check([])
    check([0])
    check([0, 0])
    check([0, 1 << 64, 1 << 64 | 1, 1 << 65 | 1 << 130, 1 << 130])
    assert cx.mask_antichain([]) == () and cx.mask_antichain([0, 0]) == (0,)
    assert cx.mask_antichain([1 << 64, 1 << 65, 1 << 64 | 1 << 65, 0]) == (1 << 64 | 1 << 65,)


def test_from_json_out_of_range_vertex():
    # the first bad vertex of the first face that holds one is named, after
    # a good face too; every face passes the type and repeat checks first
    c = read_complex([f"v{i}" for i in range(70)], [[69, 3], [68]])
    assert c.facets == ((3, 69), (68,))
    for faces, message in [
        ([[0, 1], [2, 3]], "face (2, 3) references unknown vertex 3"),
        ([[1], [0, -1, 2]], "face (0, -1, 2) references unknown vertex -1"),
        ([[1], [0, 5, -1]], "face (0, 5, -1) references unknown vertex 5"),
        ([[64]], "face (64,) references unknown vertex 64"),
        ([[5], [0, True]], "face [0, true] has true for a vertex index"),
        ([[5], [0, 0]], "face [0, 0] repeats a vertex index"),
    ]:
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            read_complex("abc", faces)


def test_vertex_guards_shift_no_bit_out_of_range():
    # a vertex of 10**12 must give its one-line error, never a 2**(10**12) mask
    for faces in ([[0, 10**12]], [[1], [10**12, 0]]):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match=re.escape(f"references unknown vertex {10**12}")):
                read_complex(("a", "b"), faces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, faces
    c = full_simplex("ab")
    with pytest.raises(InvalidParameterError, match="not a face"):
        link(c, (10**12,))
    # a mask that names a vertex outside the ground set is refused too
    for masks in ([0b100], [-1]):
        with pytest.raises(InvalidParameterError, match="outside 0..1"):
            cx.SimplicialComplex("ab", masks)


def test_face_of_labels_reads_labels_to_masks():
    # the label map is built once per complex; a repeated label is -1 and
    # an unknown one is refused, before and after the map exists
    labels = [f"v{i}" for i in range(200)]
    c = full_simplex(labels)
    with pytest.raises(InvalidParameterError, match="unknown vertex label 'w'"):
        c.face_of_labels(["v3", "w"])
    for face in ([], ["v3"], ["v199", "v0", "v70"]):
        assert c.face_of_labels(face) == cx.face_mask(labels.index(lab) for lab in face)
        assert c.labels_of_face(c.face_of_labels(face)) == tuple(sorted(face, key=labels.index))
    assert c.face_of_labels(["v3", "v3"]) == -1 and c.face_of_labels(["v70", "v1", "v70"]) == -1
    with pytest.raises(InvalidParameterError, match="unknown vertex label 'v200'"):
        c.face_of_labels(["v200"])
    assert full_simplex(labels[::-1]).face_of_labels(["v199"]) == 1


def test_equality_on_one_ground_agrees_with_label_families():
    # on one labels tuple, == compares facet masks and must hold exactly
    # when the label families agree; a permuted ground keeps the family,
    # and == tells the two grounds apart
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = random_complex(rng, n, rng.randint(1, 4))
        b = random_complex(rng, n, rng.randint(1, 4)) if rng.random() < 0.5 else a
        order = rng.sample(range(n), n)
        labels = [a.labels[i] for i in order]
        pos = {v: p for p, v in enumerate(order)}
        permuted = from_facets(labels, [[pos[v] for v in f] for f in b.facets])
        families = facet_label_family(a) == facet_label_family(b)
        assert (a == b) == families and (b == a) == families
        assert facet_label_family(permuted) == facet_label_family(b)
        assert (a == permuted) == (families and permuted.labels == a.labels)
    assert void_complex("ab") == void_complex("ab")
    assert void_complex("ab") != empty_complex("ab")


def test_from_facets_idempotent():
    for c in complex_corpus():
        again = from_facets(c.labels, c.facets) if not c.void else c
        assert again.facets == c.facets


# -- closure ------------------------------------------------------------------

def test_all_faces_simplex():
    c = full_simplex("abc")
    assert len(c.all_faces()) == 8
    assert () in c.all_faces()


def test_faces_of_dim_boundary():
    c = simplex_boundary("abc")
    assert sum(len(f) == 2 for f in c.all_faces()) == 3
    assert c.f_vector() == (1, 3, 3)


def test_closure_matches_subset_oracle():
    for c in complex_corpus():
        if c.void:
            continue
        assert set(c.all_faces()) == closure_of(c.facets)
        sizes = [len(f) for f in closure_of(c.facets)]
        assert c.f_vector() == tuple(map(sizes.count, range(max(sizes) + 1)))


def test_closure_masks_matches_subset_oracle(monkeypatch):
    # the one closure enumerator against the tuple oracle, on grounds with
    # bits past 64 too: the faces, and each face's link, the vertices v
    # outside it with f + v a face; a face budget equal to the face count
    # passes and one less raises
    rng = random.Random(89)
    for _ in range(200):
        n, shift = rng.randint(1, 9), rng.choice((0, 0, 60))
        gens = [[shift + v for v in rng.sample(range(n), rng.randint(0, min(4, n)))]
                for _ in range(rng.randint(1, 6))]
        c = from_facets([f"v{i}" for i in range(n + shift)], gens)
        expected = closure_of(c.facets)
        monkeypatch.setenv("CUTNERVE_FACE_BUDGET", str(len(expected)))
        faces = cx.closure_masks(c.facet_masks())
        assert sorted(map(cx.mask_face, faces)) == sorted(expected)
        for f, link in faces.items():
            face = set(cx.mask_face(f))
            assert cx.mask_face(link) == tuple(
                v for v in range(n + shift) if v not in face and tuple(sorted(face | {v})) in expected)
        monkeypatch.setenv("CUTNERVE_FACE_BUDGET", str(len(expected) - 1))
        with pytest.raises(ResourceLimitError) as err:
            cx.closure_masks(c.facet_masks())
        assert err.value.budget == len(expected) - 1
    # no face has no closure, and the empty face is its own
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "0")
    assert cx.closure_masks(()) == {}
    with pytest.raises(ResourceLimitError):
        cx.closure_masks((0,))
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "1")
    assert cx.closure_masks((0,)) == {0: 0}


def test_closure_masks_refuses_a_face_past_the_budget_unlisted(monkeypatch):
    # one 16-vertex facet has 2^16 faces: at a budget of 100 it is refused
    # before any of them is listed, so the enumeration holds next to nothing
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "100")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            cx.closure_masks(((1 << 16) - 1,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.what == "total face count" and err.value.budget == 100
    assert peak < 1 << 20


def test_closure_downward_closed():
    for c in complex_corpus():
        faces = set(c.all_faces())
        for f in faces:
            for r in range(len(f)):
                for sub in combinations(f, r):
                    assert sub in faces


def test_total_cut_c6_face_count_frozen():
    c = cons.total_cut_complex(gr.cycle(6), 2)
    assert face_count(c) == 51  # frozen from the subset-closure oracle


def test_budget_exceeded_names_budget(monkeypatch):
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "10")
    c = full_simplex("abcdefgh")
    with pytest.raises(ResourceLimitError) as err:
        c.all_faces()
    assert err.value.budget == 10


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "5")
    c = full_simplex("abcdef")
    with pytest.raises(ResourceLimitError):
        c.all_faces()


@pytest.mark.parametrize("raw", ["-3", "-1", "ten", "2.5", ""])
def test_budget_must_be_a_non_negative_integer(monkeypatch, raw):
    # zero is a budget (it refuses every nonempty closure); a negative or
    # non-integer value is refused where it is read, before any work
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", raw)
    with pytest.raises(InvalidParameterError, match="CUTNERVE_FACE_BUDGET must be a non-negative integer"):
        cx.face_budget()
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "0")
    assert cx.face_budget() == 0


# -- scalars ------------------------------------------------------------------

def test_dimension_and_purity():
    assert full_simplex("abcd").dimension() == 3
    assert simplex_boundary("abcd").is_pure()
    mixed = from_facets("abcd", [(0, 1, 2), (0, 3)])
    assert not mixed.is_pure()
    with pytest.raises(InvalidParameterError, match="the void complex has no dimension"):
        void_complex("ab").dimension()


def test_euler_characteristic_spheres():
    # frozen convention: reduced euler characteristic of S^d is (-1)^d
    for d in range(4):
        sphere = simplex_boundary([str(i) for i in range(d + 2)])
        chi = euler_characteristic_reduced(sphere)
        assert type(chi) is int and chi == (-1) ** d


def test_euler_characteristic_simplex_and_void():
    # exact arithmetic: an int for void, empty and nonempty complexes alike
    for c, expected in [
        (full_simplex("abcd"), 0),
        (void_complex("ab"), 0),
        (empty_complex("ab"), -1),
    ]:
        chi = euler_characteristic_reduced(c)
        assert type(chi) is int and chi == expected


def test_f_vector_boundary_of_3_simplex():
    assert simplex_boundary("abcd").f_vector() == (1, 4, 6, 4)


# -- join / cone / suspension -------------------------------------------------

def test_join_points_is_edge():
    e = join(full_simplex("a"), full_simplex("b"))
    assert e.facets == ((0, 1),)


def test_join_s0_s0_is_circle():
    s0a = discrete_points("ab")
    s0b = discrete_points("cd")
    c = join(s0a, s0b)
    assert len(c.facets) == 4
    assert reduced_homology(c) == HomologyProfile.wedge(1, 1)


def test_join_with_void_is_void():
    v = void_complex("xy")
    assert join(full_simplex("ab"), v).void


def test_join_label_collision():
    with pytest.raises(InvalidParameterError):
        join(full_simplex("ab"), full_simplex("bc"))


def test_join_with_empty_complex_is_identity():
    c = simplex_boundary("abc")
    j = join(c, empty_complex("z"))
    assert facet_label_family(j) == facet_label_family(c)


def test_join_commutative_associative_labeled():
    rng = random.Random(3)
    for _ in range(5):
        a = random_complex(rng, 3, 2)
        b = from_facets(
            ["w0", "w1", "w2"], [tuple(sorted(rng.sample(range(3), rng.randint(1, 2))))]
        )
        assert facet_label_family(join(a, b)) == facet_label_family(join(b, a))
    a = full_simplex("ab")
    b = discrete_points("cd")
    c = discrete_points("ef")
    assert join(join(a, b), c) == join(a, join(b, c))


def test_join_euler_identity():
    rng = random.Random(5)
    for _ in range(10):
        a = random_complex(rng, 4, 3)
        b = from_facets(
            ["z0", "z1", "z2", "z3"],
            [tuple(sorted(rng.sample(range(4), rng.randint(1, 3)))) for _ in range(2)],
        )
        lhs = euler_characteristic_reduced(join(a, b))
        rhs = -euler_characteristic_reduced(a) * euler_characteristic_reduced(b)
        assert lhs == rhs


def test_cone_contractible():
    rng = random.Random(9)
    for _ in range(5):
        c = random_complex(rng)
        coned = cone(c, "apex")
        assert reduced_homology(coned) == HomologyProfile()


def test_cone_apex_collision():
    with pytest.raises(InvalidParameterError):
        cone(full_simplex("ab"), "a")


def test_suspension_of_circle_is_sphere():
    s = suspension(simplex_boundary("abc"))
    assert reduced_homology(s) == HomologyProfile.wedge(2, 1)


# -- link ----------------------------------------------------------------------

def test_link_in_full_simplex():
    c = full_simplex("abcd")
    lk = link(c, (0,))
    assert facet_label_family(lk) == frozenset({frozenset("bcd")})


def test_link_of_empty_face_is_identity():
    c = simplex_boundary("abcd")
    assert link(c, ()) == c


def test_link_of_edge_in_sphere():
    c = simplex_boundary("abcd")
    lk = link(c, (0, 1))
    assert reduced_homology(lk) == HomologyProfile.wedge(0, 1)


def test_link_invalid_face():
    with pytest.raises(InvalidParameterError, match=re.escape("(0, 1) is not a face of the complex")):
        link(discrete_points("ab"), (0, 1))


def test_link_of_cone_apex():
    rng = random.Random(13)
    for _ in range(5):
        c = random_complex(rng, 5, 3)
        if c.void:
            continue
        coned = cone(c, "apex")
        apex = coned.labels.index("apex")
        assert facet_label_family(link(coned, (apex,))) == facet_label_family(c)


# -- skeleton --------------------------------------------------------------------

def test_skeleton_of_simplex_is_complete_graph():
    c = skeleton(full_simplex("abcde"), 1)
    assert facet_label_family(c) == frozenset(
        frozenset(p) for p in combinations("abcde", 2)
    )


def test_skeleton_at_dimension_is_identity():
    for c in complex_corpus():
        if c.void:
            continue
        assert skeleton(c, c.dimension()) == c


def test_skeleton_dimension_property():
    for c in complex_corpus():
        if not has_vertices(c):
            continue
        for d in range(-1, c.dimension() + 2):
            sk = skeleton(c, d)
            assert sk.dimension() == min(d, c.dimension())


def test_bipartite_skeleton_betti():
    # 1-skeleton of K_{4,4}: nine independent loops
    labels = [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)]
    c = from_facets(labels, [(i, 4 + j) for i in range(4) for j in range(4)])
    profile = reduced_homology(c)
    assert profile == HomologyProfile.wedge(1, 9)


# -- serialization ------------------------------------------------------------------

def test_complex_json_roundtrip():
    for c in complex_corpus():
        back = cx.SimplicialComplex.from_json(c.to_json())
        assert facet_label_family(back) == facet_label_family(c)
        assert back.to_json() == c.to_json()


@pytest.mark.parametrize("text, message", [
    ('{"vertices":["a","b"],"facets":[[0,true]]}', "face [0, true] has true for a vertex index"),
    ('{"vertices":["a","b"],"facets":[[0,"b"]]}', 'face [0, "b"] has "b" for a vertex index'),
    ('{"vertices":["a","b"],"facets":[[0,1.0]]}', "face [0, 1.0] has 1.0 for a vertex index"),
    ('{"vertices":[1,2],"facets":[[0,1]]}', "vertex label 1 is not a string"),
    ('{"vertices":["a",null],"facets":[[0]]}', "vertex label null is not a string"),
    ('{"vertices":["a"],"facets":[],"void":"no"}', '"void" is "no", not a JSON boolean'),
    ('{"vertices":["a"],"facets":[[0]],"void":0}', '"void" is 0, not a JSON boolean'),
    ('{"vertices":["a"],"facets":[],"void":null}', '"void" is null, not a JSON boolean'),
    ('{"vertices":["a"],"facets":[[0]],"void":true}', "the void complex has no facets"),
    ('{"vertices":["a"],"facets":[],"void":false}',
     'a non-void complex needs at least the empty face: "void": true or "facets": [[]]'),
    ('{"vertices":["a"],"facets":[]}', "a non-void complex needs at least the empty face"),
    # a string or an object iterates as characters or keys, so neither is an array
    ('{"vertices":"abc","facets":[[0,1],[2]],"void":false}', '"vertices" is "abc", not a JSON array'),
    ('{"vertices":{"a":1,"b":2},"facets":[[0,1]]}', '"vertices" is {"a": 1, "b": 2}, not a JSON array'),
    ('{"vertices":["a"],"facets":{},"void":true}', '"facets" is {}, not a JSON array'),
    ('{"vertices":["a"],"facets":[""]}', 'a face is "", not a JSON array'),
    ('{"vertices":["a"],"facets":[[0],{}]}', "a face is {}, not a JSON array"),
])
def test_complex_json_needs_int_vertices_and_string_labels(text, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        cx.SimplicialComplex.from_json(text)


def test_void_json_roundtrip():
    v = void_complex("ab")
    back = cx.SimplicialComplex.from_json(v.to_json())
    assert back.void
