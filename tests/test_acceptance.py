"""Acceptance suite: one test per criterion, exact integer checks throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Criterion 4 pins the reduced homology that the prism
neighborhood complexes actually have.  For n in {4, 5} that profile refutes
the registered claim of a sphere S^(n-2): the reduced Euler characteristic
from the face counts alone already differs from a sphere's, and at n = 4 a
discrete Morse matching gives the whole profile without Smith normal form.
"""

import time
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from cutnerve import complexes as cx
from cutnerve import constructions as cons
from cutnerve import graphs as gr
from cutnerve import homology as hom
from cutnerve import morse
from cutnerve import verify

from oracles import (
    RP2_FACETS,
    brute_homology,
    dense_snf,
    discrete_points,
    euler_characteristic_reduced,
    face_count,
    facet_label_family,
    free_ranks,
    from_facets,
    full_simplex,
    has_vertices,
    join,
    join_ranks,
    ladder_rule_witness,
    nonzero_betti,
    simplex_boundary,
    suspension,
)


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {tag} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_cycle_total_cut_spheres():
    t0 = time.perf_counter()
    for n, k in [(4, 2), (6, 2), (7, 2), (8, 2), (6, 3), (8, 3), (9, 3)]:
        tc = cons.total_cut_complex(gr.cycle(n), k)
        profile = hom.reduced_homology(tc)
        assert profile == hom.HomologyProfile.wedge(n - 2 * k, 1), (n, k, profile)
    for n, k in [(3, 2), (5, 3)]:
        assert cons.total_cut_complex(gr.cycle(n), k).void, (n, k)
    _report(1, True, f"cycle total cut profiles ({time.perf_counter() - t0:.1f}s)")


def test_criterion_02_stable_kneser_neighborhood_spheres():
    t0 = time.perf_counter()
    for n, k in [(4, 2), (6, 2), (7, 2), (8, 2), (6, 3), (8, 3)]:
        nc = cons.neighborhood_complex(gr.stable_kneser(n, k))
        profile = hom.reduced_homology(nc)
        assert profile == hom.HomologyProfile.wedge(n - 2 * k, 1), (n, k, profile)
    _report(2, True, f"stable Kneser neighborhood profiles ({time.perf_counter() - t0:.1f}s)")


def test_criterion_03_cycle_cover_nerve_and_collapses():
    # the full-subcomplex cover of N(SG(n, k)) meets both hypotheses of the
    # nerve lemma: its parts cover the base and every nonempty intersection
    # collapses, with a witness that replays; its nerve is the total cut
    # complex
    t0 = time.perf_counter()
    for n in range(4, 9):
        for k in (2, 3):
            if n < 2 * k:
                continue
            g = gr.cycle(n)
            cover = cons.independent_cover(g, k)
            nerve = cover.nerve()
            tc = cons.total_cut_complex(g, k)
            assert nerve == tc, (n, k)
            expected = gr.stable_kneser_facet_count(n, k)
            assert len(tc.facets) == expected, (n, k, len(tc.facets), expected)
            full = (1 << n) - 1
            for f in cover.base.facet_masks():
                assert reduce(and_, map(cover.held.__getitem__, cx.mask_face(f)), full), (n, k, f)
            for face in nerve.all_faces():
                if not face:
                    continue
                inter = cover.intersection(cx.face_mask(face))
                assert has_vertices(inter), (n, k, face)
                witness = morse.greedy_collapse(inter)
                assert witness.is_collapsible(), (n, k, face)
                assert morse.replay_collapse(inter, witness), (n, k, face)
    assert gr.stable_kneser_facet_count(6, 2) == 9
    _report(3, True, f"nerve equality, parts cover the base, replayed collapse witnesses ({time.perf_counter() - t0:.1f}s)")


# The reduced homology each prism neighborhood complex has.  n = 3 is the
# circle S^1 that the registered claim predicts; n = 4 and 5 refute its
# sphere S^(n-2) (README, "A known refuted claim").
PRISM_NEIGHBORHOOD_PROFILES = {
    3: hom.HomologyProfile.wedge(1, 1),
    4: hom.HomologyProfile.wedge(2, 7),
    5: hom.HomologyProfile(betti=(0, 0, 0, 2, 11)),
}
# Sizes that get the discrete Morse check.  At n = 5 the matching over
# 113,591 faces is slow and leaves critical cells in two degrees (2 and 11),
# so it bounds the profile there rather than giving it.
PRISM_MORSE_SIZES = (3, 4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_04_prism_neighborhood(n):
    t0 = time.perf_counter()
    g = gr.prism(n)
    nb = cons.neighborhood_complex(gr.induced_k_independent(g, 2))
    assert len(nb.facets) == n * (n - 1)
    assert nb.is_pure() and nb.dimension() == n * n - 3 * n + 2
    labels = [gr.set_label(g, [2 * (i - 1), 2 * (i % n)  + 1]) for i in range(1, n + 1)]
    markers = [nb.labels.index(m) for m in labels]
    # the marker stars read by their generators: each facet is held by the
    # markers it contains
    holders = [sum(1 << i for i, m in enumerate(markers) if m in f) for f in nb.facets]
    assert cx.SimplicialComplex(labels, holders) == simplex_boundary(labels)
    for a, b in combinations(markers, 2):
        inter = from_facets(nb.labels, [f for f in nb.facets if a in f and b in f])
        # a cone over the first marker
        assert has_vertices(inter) and all(a in f for f in inter.facets)
    expected = PRISM_NEIGHBORHOOD_PROFILES[n]
    # SNF-free evidence: chi~ from the face counts must match the profile's
    # alternating sum, and for n >= 4 it rules out the sphere S^(n-2)
    chi = euler_characteristic_reduced(nb)
    assert type(chi) is int
    assert chi == sum((-1) ** d * b for d, b in nonzero_betti(expected).items()), (n, chi)
    if n >= 4:
        assert chi != (-1) ** (n - 2), (n, chi)
    if n in PRISM_MORSE_SIZES:
        # element matchings over every vertex form an acyclic matching that
        # also pairs off the empty face; critical cells in a single degree d
        # leave a Morse complex with zero differentials, so H~_d = Z^cells
        matching = morse.element_matching_sequence(nb, range(nb.n_vertices))
        assert any(0 in pair for pair in matching)
        dims = Counter(c.bit_count() - 1 for c in morse.critical_cells(nb, matching))
        assert len(dims) == 1, (n, dict(dims))
        ((d, m),) = dims.items()
        assert expected == hom.HomologyProfile.wedge(d, m), (n, dict(dims))
    profile = hom.reduced_homology(nb)
    ok = profile == expected
    claim = "confirmed" if profile == hom.HomologyProfile.wedge(n - 2, 1) else "refuted"
    _report(
        4,
        ok,
        f"n={n}: facets/nerve/cones verified; profile {nonzero_betti(profile)} "
        f"vs expected {nonzero_betti(expected)}, chi~={chi}; sphere S^{n - 2} claim {claim} "
        f"({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_05_prism_total_cut_wedges():
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        tc = cons.total_cut_complex(gr.prism(n), 2)
        assert hom.reduced_homology(tc) == hom.HomologyProfile.wedge(2 * n - 4, n - 1), n
    _report(5, True, f"prism total cut wedges ({time.perf_counter() - t0:.1f}s)")


def test_criterion_06_ladder_total_cut():
    t0 = time.perf_counter()
    expected_counts = {5: 4, 7: 6, 4: 9, 6: 25}
    for n, m in expected_counts.items():
        tc = cons.total_cut_complex(gr.circular_ladder(n), n - 1)
        assert hom.reduced_homology(tc) == hom.HomologyProfile.wedge(2, m), n
        if n % 2:
            matching = morse.element_matching_sequence(tc, ["1+", "1-"])
            cells = morse.critical_cells(tc, matching)
            assert cells is not None, n
            expected = sorted(
                (tc.face_of_labels(["1-", f"{j}+", f"{j}-"]) for j in range(2, n + 1)), key=cx.mask_face
            )
            assert cells == expected, n
    # even n: X = Δ^A ∗ B and Y = Δ^B ∗ A built by joins on their own
    # grounds, an independent reference for thm-4-4's facet masks
    for n in (4, 6, 8):
        tc = cons.total_cut_complex(gr.circular_ladder(n), n - 1)
        a_labels = [f"{i}+" if i % 2 else f"{i}-" for i in range(1, n + 1)]
        b_labels = [f"{i}-" if i % 2 else f"{i}+" for i in range(1, n + 1)]
        x = join(full_simplex(a_labels), discrete_points(b_labels))
        y = join(full_simplex(b_labels), discrete_points(a_labels))
        fx, fy = facet_label_family(x), facet_label_family(y)
        assert fx | fy == facet_label_family(tc), n
        assert hom.reduced_homology(x) == hom.reduced_homology(y) == hom.HomologyProfile(), n
        skel = join(discrete_points(a_labels), discrete_points(b_labels))
        assert {p & q for p in fx for q in fy} == facet_label_family(skel), n
        assert hom.reduced_homology(skel) == hom.HomologyProfile.wedge(1, (n - 1) ** 2), n
        assert verify.run_scenario("thm-4-4", {"n": n}).verdict == "pass", n
    _report(6, True, f"ladder total cut wedges and certificates ({time.perf_counter() - t0:.1f}s)")


def test_criterion_07_ladder_neighborhood():
    t0 = time.perf_counter()
    for n in (5, 7):
        g = gr.circular_ladder(n)
        h = gr.induced_k_independent(g, n - 1)
        assert gr.isomorphism_witness_valid(h, g, ladder_rule_witness(g, h)), n
        nc = cons.neighborhood_complex(g)
        pairs = []
        for i in range(1, n + 1):
            pairs.append((
                nc.face_of_labels([f"{i}+", f"{(i + 1) % n + 1}+"]),
                nc.face_of_labels([f"{i}+", f"{i % n + 1}-", f"{(i + 1) % n + 1}+"]),
            ))
            pairs.append((
                nc.face_of_labels([f"{i}-", f"{(i + 1) % n + 1}-"]),
                nc.face_of_labels([f"{i}-", f"{i % n + 1}+", f"{(i + 1) % n + 1}-"]),
            ))
        # every stated pair is free in turn, and the 2n collapses leave a circle
        applied, left = morse.apply_collapses(nc, (), pairs)
        assert applied == 2 * n, n
        collapsed = cx.SimplicialComplex(nc.labels, left)
        assert hom.reduced_homology(collapsed) == hom.HomologyProfile.wedge(1, 1), n
    for n in (4, 6):
        h = gr.induced_k_independent(gr.circular_ladder(n), n - 1)
        nh = cons.neighborhood_complex(h)
        assert len(nh.facets) == 2, n
        assert not (set(nh.facets[0]) & set(nh.facets[1])), n
        assert hom.reduced_homology(nh) == hom.HomologyProfile.wedge(0, 1), n
    _report(7, True, f"ladder neighborhood checks ({time.perf_counter() - t0:.1f}s)")


def test_criterion_08_squared_cycle():
    t0 = time.perf_counter()
    for k in (3, 4):
        m = 3 * k + 1
        g = gr.squared_cycle(m)
        h = gr.induced_k_independent(g, k)
        assert h.n == m, k
        assert all(h.degree(i) == k + 2 for i in range(h.n)), k
        nb = cons.neighborhood_complex(h)
        assert nb.dimension() == k + 1, k
        expected_facets = {
            tuple(sorted((i + d) % m for d in range(k, 2 * k + 2))) for i in range(m)
        }
        assert set(nb.facets) == expected_facets, k
        assert hom.reduced_homology(nb) == hom.HomologyProfile.wedge(1, 1), k
        tc = cons.total_cut_complex(g, k)
        assert hom.reduced_homology(tc) == hom.HomologyProfile.wedge(3, 1), k
    _report(8, True, f"squared cycle checks ({time.perf_counter() - t0:.1f}s)")


def test_criterion_09_star_and_kneser():
    t0 = time.perf_counter()
    for n in (4, 5, 6):
        tc = cons.total_cut_complex(gr.star(n), 2)
        witness = morse.greedy_collapse(tc)
        assert witness.is_collapsible(), n
        assert morse.replay_collapse(tc, witness), n
    for n, (d, m) in [(5, (1, 11)), (6, (2, 19))]:
        nb = cons.neighborhood_complex(gr.kneser(n, 2))
        assert hom.reduced_homology(nb) == hom.HomologyProfile.wedge(d, m), n
    _report(9, True, f"star collapses and Kneser wedges ({time.perf_counter() - t0:.1f}s)")


def test_criterion_10_random_corpus_nerves():
    # the nerve's facets are full ^ S over the independent k-sets S that are
    # no isolated vertex of I_k(G), so it equals the total cut complex
    # exactly when I_k(G) has no isolated vertex
    t0 = time.perf_counter()
    instances = differ = 0
    for i in range(60):
        g = verify.corpus_graph(i, 2026)
        for k in (2, 3):
            sets = [frozenset(s) for s in gr.independent_sets(g, k)]
            if not sets:
                continue
            instances += 1
            kept = [s for s in sets if any(not s & t for t in sets)]
            nerve = cons.independent_cover(g, k).nerve()
            expected = sorted(tuple(sorted(set(range(g.n)) - s)) for s in kept) or [()]
            assert list(nerve.facets) == expected, (i, k)
            equal = nerve == cons.total_cut_complex(g, k)
            assert equal == (len(kept) == len(sets)), (i, k)
            differ += not equal
    assert (instances, differ) == (117, 49)
    _report(10, True, f"{instances} corpus instances, {differ} with an isolated independent set "
                      f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_11_engine_oracles():
    t0 = time.perf_counter()
    # dense oracle agreement on every small complex in a mixed corpus
    corpus = [
        simplex_boundary("abc"),
        simplex_boundary("abcd"),
        full_simplex("abcde"),
        discrete_points("abcd"),
        cons.total_cut_complex(gr.cycle(6), 2),
        cons.total_cut_complex(gr.cycle(6), 3),
        cons.neighborhood_complex(gr.stable_kneser(6, 2)),
        cons.neighborhood_complex(gr.circular_ladder(4)),
        from_facets([str(i) for i in range(6)], RP2_FACETS),
    ]
    import random

    rng = random.Random(2026)
    for _ in range(12):
        nv = rng.randint(4, 7)
        gens = [
            tuple(sorted(rng.sample(range(nv), rng.randint(1, 4))))
            for _ in range(rng.randint(2, 6))
        ]
        corpus.append(from_facets([f"v{i}" for i in range(nv)], gens))
    checked = 0
    for c in corpus:
        if face_count(c) > 200:
            continue
        oracle = brute_homology(c.facets)
        profile = hom.reduced_homology(c)
        assert nonzero_betti(profile) == oracle["betti"], c
        assert {d: list(t) for d, t in profile.torsion} == oracle["torsion"], c
        checked += 1
    assert checked >= 15
    # torsion witness
    rp2 = from_facets([str(i) for i in range(6)], RP2_FACETS)
    assert hom.reduced_homology(rp2).torsion == ((1, (2,)),)
    # suspension shift and join ranks on seeded complexes
    rng = random.Random(4096)
    complexes = []
    for _ in range(20):
        nv = rng.randint(3, 6)
        gens = [
            tuple(sorted(rng.sample(range(nv), rng.randint(1, 3))))
            for _ in range(rng.randint(2, 5))
        ]
        complexes.append(from_facets([f"w{i}" for i in range(nv)], gens))
    for c in complexes:
        before = hom.reduced_homology(c)
        after = hom.reduced_homology(suspension(c))
        shifted = {d + 1: b for d, b in nonzero_betti(before).items()}
        if before.minus_one_rank:
            shifted[0] = before.minus_one_rank
        assert nonzero_betti(after) == shifted
    # the join rank identity on every pair, torsion or not
    for a, b in zip(complexes[:10], complexes[10:]):
        b2 = from_facets([f"u{i}" for i in range(b.n_vertices)], b.facets)
        joined = hom.reduced_homology(join(a, b2))
        expected = join_ranks(free_ranks(hom.reduced_homology(a)), free_ranks(hom.reduced_homology(b2)))
        assert free_ranks(joined) == expected, (a, b2)
    # spot SNF smoke against the dense oracle
    assert dense_snf([[2, 4], [6, 8]]) == (2, 4)
    _report(11, True, f"{checked} oracle agreements, shifts, joins ({time.perf_counter() - t0:.1f}s)")
