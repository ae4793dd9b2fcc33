"""Graph families, independent-set enumeration, and isomorphism witnesses."""

import copy
import json
import pickle
import random
import tracemalloc
from itertools import combinations, permutations

import pytest

from cutnerve import graphs as gr
from cutnerve.errors import InvalidParameterError, ResourceLimitError
from cutnerve.verify import corpus_graph

from oracles import (
    circular_ladder_edges,
    complete_edges,
    corpus_edges,
    cycle_edges,
    exists_permutation_isomorphism,
    filter_independent_sets,
    graph_of_edges,
    is_two_stable,
    kneser_reference,
    ladder_rule_witness,
    pair_scan_k_independent,
    prism_edges,
    recursive_independent_sets,
    squared_cycle_edges,
    star_edges,
)


def small_corpus():
    """Assorted small graphs reused across invariant tests."""
    rng = random.Random(7)
    graphs = [
        gr.cycle(5), gr.cycle(7), gr.complete(4), gr.star(4),
        gr.prism(3), gr.prism(4), gr.circular_ladder(4), gr.circular_ladder(5),
        gr.squared_cycle(6), gr.kneser(5, 2), gr.stable_kneser(6, 2),
    ]
    for n in (5, 6, 7):
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
        graphs.append(graph_of_edges([str(i) for i in range(n)], edges))
    return graphs


# -- constructors -----------------------------------------------------------

def test_graph_refuses_bad_masks_and_rebuilds_from_its_masks():
    refused = [
        ("aa", [0, 0], "unique"),
        ("abc", [0b10, 0b01], "one neighbor mask per vertex"),
        ("ab", [0b10, 0b01, 0], "one neighbor mask per vertex"),
        ("ab", [0b10, True], "one neighbor mask per vertex"),
        ("ab", [0b10, 1.0], "one neighbor mask per vertex"),
        ("ab", [0b10, "1"], "one neighbor mask per vertex"),
        ("ab", [0b10, -4], "one neighbor mask per vertex"),
        ("ab", [0b110, 0b01], "one neighbor mask per vertex"),
        ("a", [0b1], "one neighbor mask per vertex"),
        ("ab", [0b11, 0b01], "one neighbor mask per vertex"),
        ("abc", [0b010, 0, 0], "symmetric"),
        ("abc", [0b110, 0b001, 0], "symmetric"),
    ]
    for labels, masks, message in refused:
        with pytest.raises(InvalidParameterError, match=message):
            gr.Graph(labels, masks)
    assert gr.Graph("", []).n == 0 and gr.Graph("ab", [2, 1]).edges() == [(0, 1)]
    for g in small_corpus():
        assert g.__reduce__() == (gr.Graph, (g.labels, g.adjacency_masks()))
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and twin.adjacency_masks() == g.adjacency_masks()


def test_cycle_triangle():
    g = gr.cycle(3)
    assert g.n == 3 and g.edge_count() == 3
    assert all(g.degree(i) == 2 for i in range(3))


def test_cycle_six_is_two_regular():
    g = gr.cycle(6)
    assert g.n == 6 and g.edge_count() == 6
    assert all(g.degree(i) == 2 for i in range(6))


def test_cycle_rejects_small_n():
    with pytest.raises(InvalidParameterError):
        gr.cycle(2)


def test_star_shape():
    g = gr.star(3)
    assert g.n == 4 and g.edge_count() == 3
    assert g.degree(0) == 3  # center "c"
    assert g.labels[0] == "c"


def test_squared_cycle_counts():
    g = gr.squared_cycle(10)
    assert g.n == 10 and g.edge_count() == 20
    assert all(g.degree(i) == 4 for i in range(10))
    with pytest.raises(InvalidParameterError):
        gr.squared_cycle(4)


def test_prism_counts():
    assert gr.prism(3).edge_count() == 9
    g5 = gr.prism(5)
    assert g5.edge_count() == 25
    # explicit edge set: two complete levels plus rungs
    expected = set()
    for i in range(1, 6):
        for j in range(i + 1, 6):
            expected.add(frozenset((f"{i}+", f"{j}+")))
            expected.add(frozenset((f"{i}-", f"{j}-")))
        expected.add(frozenset((f"{i}+", f"{i}-")))
    actual = {frozenset((g5.labels[a], g5.labels[b])) for a, b in g5.edges()}
    assert actual == expected
    with pytest.raises(InvalidParameterError):
        gr.prism(1)


def test_circular_ladder_counts():
    g = gr.circular_ladder(5)
    assert g.n == 10 and g.edge_count() == 15
    assert all(g.degree(i) == 3 for i in range(10))
    g3 = gr.circular_ladder(3)
    assert all(g3.degree(i) == 3 for i in range(6))


def test_kneser_examples():
    g = gr.kneser(5, 2)
    assert g.n == 10 and g.edge_count() == 15
    assert all(g.degree(i) == 3 for i in range(10))
    g42 = gr.kneser(4, 2)
    assert g42.edge_count() == 3  # perfect matching of complements
    assert all(g42.degree(i) == 1 for i in range(6))
    g31 = gr.kneser(3, 1)
    assert g31.n == 3 and g31.edge_count() == 3
    with pytest.raises(InvalidParameterError):
        gr.kneser(2, 3)


def test_stable_kneser_examples():
    assert gr.stable_kneser(6, 2).n == 9
    for k in (1, 2, 3):
        g = gr.stable_kneser(2 * k, k)
        assert g.n == 2 and g.edge_count() == 1
    g52 = gr.stable_kneser(5, 2)
    assert g52.n == 5 and g52.edge_count() == 5
    assert all(g52.degree(i) == 2 for i in range(5))  # a 5-cycle
    assert gr.stable_kneser(5, 3).n == 0  # below threshold: empty-graph signal


def test_stable_kneser_vertices_are_2_stable_sets():
    for n, k in [(6, 2), (7, 2), (8, 3), (9, 3)]:
        g = gr.stable_kneser(n, k)
        from itertools import combinations

        expected = {
            "{" + ",".join(map(str, c)) + "}"
            for c in combinations(range(1, n + 1), k)
            if is_two_stable(c, n)
        }
        assert set(g.labels) == expected


def test_stable_kneser_matches_oracle():
    # SG(n, k) is built as I_k of the ring on [n]; the oracle builds it from
    # the 2-stable subsets, including the degenerate rings at n = 1, 2
    for n in range(1, 11):
        for k in range(1, 5):
            assert gr.stable_kneser(n, k) == graph_of_edges(*kneser_reference(n, k, stable=True)), (n, k)


def test_kneser_matches_oracle():
    for n in range(1, 11):
        for k in range(1, min(n, 4) + 1):
            assert gr.kneser(n, k) == graph_of_edges(*kneser_reference(n, k, stable=False)), (n, k)


def test_induced_matches_stable_kneser_on_cycles():
    # I_k(C_n) = SG(n, k): the induced graph of the public n-cycle against
    # the 2-stable-subset reference and the SG(n, k) builder
    for n in range(3, 11):
        for k in range(1, n // 2 + 1):
            h = gr.induced_k_independent(gr.cycle(n), k)
            assert h == graph_of_edges(*kneser_reference(n, k, stable=True)), (n, k)
            assert h == gr.stable_kneser(n, k), (n, k)


# -- 2-stability --------------------------------------------------------------

def test_r_stable_examples():
    assert is_two_stable({1, 4}, 6)
    assert not is_two_stable({1, 2}, 6)
    assert not is_two_stable({1, 6}, 6)  # neighbours across the wrap
    assert is_two_stable({2}, 9)
    assert is_two_stable((), 5)
    labels = set(gr.stable_kneser(6, 2).labels)
    assert "{1,4}" in labels
    assert "{1,2}" not in labels and "{1,6}" not in labels
    assert gr.stable_kneser(9, 1).n == 9  # every singleton is 2-stable


def test_r_stable_matches_cycle_independence():
    from itertools import combinations

    for n in range(3, 10):
        edges = {frozenset((i, i % n + 1)) for i in range(1, n + 1)}
        for k in range(1, n + 1):
            independent = set()
            for c in combinations(range(1, n + 1), k):
                is_independent = all(frozenset(p) not in edges for p in combinations(c, 2))
                assert is_two_stable(c, n) == is_independent, (n, c)
                if is_independent:
                    independent.add("{" + ",".join(map(str, c)) + "}")
            assert set(gr.stable_kneser(n, k).labels) == independent, (n, k)


def test_constructors_symmetric_irreflexive():
    for g in small_corpus():
        masks = g.adjacency_masks()
        for i in range(g.n):
            assert not masks[i] >> i & 1
            for j in range(g.n):
                assert masks[i] >> j & 1 == masks[j] >> i & 1
    # each family, written as masks, is the graph of its edge-list definition
    for family, reference, sizes in (
        (gr.cycle, cycle_edges, range(3, 14)),
        (gr.complete, complete_edges, range(1, 10)),
        (gr.star, star_edges, range(1, 10)),
        (gr.squared_cycle, squared_cycle_edges, range(5, 14)),
        (gr.prism, prism_edges, range(2, 10)),
        (gr.circular_ladder, circular_ladder_edges, range(3, 10)),
    ):
        for n in sizes:
            assert family(n) == graph_of_edges(*reference(n)), (family.__name__, n)
    for i in range(200):
        assert corpus_graph(i, 2026) == graph_of_edges(*corpus_edges(i, 2026)), i


# -- independent sets -------------------------------------------------------

def test_mask_storage_against_edge_sets():
    # adjacency is stored as neighbor masks; every reading must match sets
    # built from the edge list, duplicates and reversed edges included
    rng = random.Random(47)
    for _ in range(120):
        n = rng.choice((1, 5, 9, 70))
        pairs = list(combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
        edges += [(j, i) for i, j in edges if rng.random() < 0.3]
        g = graph_of_edges([str(i) for i in range(n)], edges)
        nbrs = [set() for _ in range(n)]
        for i, j in edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        assert g.adjacency_masks() == tuple(sum(1 << j for j in s) for s in nbrs)
        assert g.edge_count() == len({frozenset(e) for e in edges})
        assert g.edges() == sorted({tuple(sorted(e)) for e in edges})
        for i in range(n):
            assert g.degree(i) == len(nbrs[i])
        for i, m in enumerate(g.adjacency_masks()):
            assert {j for j in range(m.bit_length()) if m >> j & 1} == nbrs[i]
        assert g == graph_of_edges(g.labels, g.edges()) and hash(g) == hash(graph_of_edges(g.labels, g.edges()))


def test_independent_sets_examples():
    assert gr.independent_sets(gr.complete(4), 2) == []
    sets = gr.independent_sets(gr.cycle(6), 3)
    assert sets == [(0, 2, 4), (1, 3, 5)]
    assert len(gr.independent_sets(gr.cycle(6), 2)) == 9
    assert len(gr.independent_sets(gr.squared_cycle(10), 3)) == 10


def test_independent_sets_against_subset_filter():
    for g in small_corpus():
        if g.n > 12:
            continue
        for k in range(0, 4):
            expected = filter_independent_sets(g.n, g.edges(), k)
            assert gr.independent_sets(g, k) == expected


def test_independent_sets_memo_returns_fresh_lists():
    for g in small_corpus():
        if g.n > 12:
            continue
        for k in range(0, 4):
            first = gr.independent_sets(g, k)
            second = gr.independent_sets(g, k)
            assert first == second == filter_independent_sets(g.n, g.edges(), k)
            assert first is not second
            # mutating one list leaves the memo, and so the next call, alone
            first.append((g.n,))
            if second:
                second[0] = ()
            assert gr.independent_sets(g, k) == filter_independent_sets(g.n, g.edges(), k)
    g = gr.cycle(7)
    zero = gr.independent_sets(g, 0)
    assert zero == [()]
    zero.clear()
    assert gr.independent_sets(g, 0) == [()]
    with pytest.raises(InvalidParameterError, match="k must be >= 0"):
        gr.independent_sets(g, -1)


def oracle_corpus():
    """The small corpus and the 60 registry corpus graphs of prop-4-10."""
    return small_corpus() + [corpus_graph(i, 2026) for i in range(60)]


def test_independent_sets_match_the_recursive_oracle():
    for g in oracle_corpus():
        for k in (2, 3):
            assert gr.independent_sets(g, k) == recursive_independent_sets(g.adjacency_masks(), k), (g, k)
    for g in small_corpus():
        for k in (0, 1, 4, 5):
            assert gr.independent_sets(g, k) == recursive_independent_sets(g.adjacency_masks(), k), (g, k)


def test_independent_sets_budget_counts_the_sets(monkeypatch):
    # refused at one less than the number of k-sets, listed at the number
    for g, k in ((gr.cycle(8), 2), (gr.cycle(9), 3), (gr.prism(4), 2), (gr.star(5), 4)):
        count = len(recursive_independent_sets(g.adjacency_masks(), k))
        monkeypatch.setenv("CUTNERVE_FACE_BUDGET", str(count - 1))
        with pytest.raises(ResourceLimitError, match="independent set count"):
            gr.independent_sets(graph_of_edges(g.labels, g.edges()), k)
        monkeypatch.setenv("CUTNERVE_FACE_BUDGET", str(count))
        assert len(gr.independent_sets(graph_of_edges(g.labels, g.edges()), k)) == count


def test_independent_sets_budget_ignores_prefixes(monkeypatch):
    # K_{3,3,3}: 9 independent pairs are prefixes of only 3 independent
    # triples, so any budget from 3 up lists the triples
    parts = [range(0, 3), range(3, 6), range(6, 9)]
    edges = [(a, b) for p, q in combinations(parts, 2) for a in p for b in q]
    labels = [str(i) for i in range(9)]
    assert len(recursive_independent_sets(graph_of_edges(labels, edges).adjacency_masks(), 2)) == 9
    for budget in range(3, 9):
        monkeypatch.setenv("CUTNERVE_FACE_BUDGET", str(budget))
        assert gr.independent_sets(graph_of_edges(labels, edges), 3) == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "2")
    with pytest.raises(ResourceLimitError, match="independent set count"):
        gr.independent_sets(graph_of_edges(labels, edges), 3)



def test_independent_sets_budget_stops_the_listing_early(monkeypatch):
    # C_1000 and the edgeless graph on 1000 vertices have about 500,000
    # independent pairs; at a budget of 100 the refusal comes after at most
    # budget + n pairs are listed, so the peak allocation stays far below
    # the ~36 MB that listing every pair takes
    monkeypatch.setenv("CUTNERVE_FACE_BUDGET", "100")
    for g in (gr.cycle(1000), graph_of_edges([str(i) for i in range(1000)], [])):
        g.adjacency_masks()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="independent set count"):
                gr.independent_sets(g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

# -- induced k-independent graphs -------------------------------------------

def test_induced_matches_the_pair_scan_oracle():
    for g in oracle_corpus():
        for k in (2, 3):
            h = gr.induced_k_independent(g, k)
            assert h == graph_of_edges(*pair_scan_k_independent(g.labels, g.adjacency_masks(), k)), (g, k)
            assert gr.k_independent_masks(g, k) == (list(h.labels), list(h.adjacency_masks()))


def test_induced_empty_when_no_sets():
    h = gr.induced_k_independent(gr.prism(4), 3)
    assert h.n == 0


# -- isomorphism witnesses ----------------------------------------------------

def test_induced_ladder_isomorphism():
    for n in (3, 5, 7, 9):
        g = gr.circular_ladder(n)
        h = gr.induced_k_independent(g, n - 1)
        w = ladder_rule_witness(g, h)
        assert gr.isomorphism_witness_valid(h, g, w), n
        # turning CL_n by one rung is an automorphism, so the map shifted by
        # one rung is a witness too; shifted by one vertex it breaks rungs
        assert gr.isomorphism_witness_valid(h, g, {a: (b + 2) % g.n for a, b in w.items()}), n
        assert not gr.isomorphism_witness_valid(h, g, {a: (b + 1) % g.n for a, b in w.items()}), n
        # not a bijection
        assert not gr.isomorphism_witness_valid(h, g, {**w, 0: w[1]}), n
        assert not gr.isomorphism_witness_valid(h, g, {a: b for a, b in w.items() if a}), n


def test_isomorphism_against_permutation_oracle():
    rng = random.Random(23)
    outcomes = set()
    for trial in range(14):
        n = rng.randint(3, 8) if trial < 4 else rng.randint(3, 6)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
        g = graph_of_edges([str(i) for i in range(n)], edges)
        # relabeled copy
        perm = list(range(n))
        rng.shuffle(perm)
        h_edges = [(perm[a], perm[b]) for a, b in edges]
        h = graph_of_edges([str(i) for i in range(n)], h_edges)
        assert gr.isomorphism_witness_valid(g, h, dict(enumerate(perm)))
        # a perturbed graph: drop or add one edge, then compare to the oracle
        other_edges = list(h_edges)
        if other_edges and rng.random() < 0.5:
            other_edges.pop(rng.randrange(len(other_edges)))
        else:
            candidates = [
                (a, b) for a in range(n) for b in range(a + 1, n)
                if (a, b) not in other_edges and (b, a) not in other_edges
            ]
            if candidates:
                other_edges.append(rng.choice(candidates))
        other = graph_of_edges([str(i) for i in range(n)], other_edges)
        if n > 6:
            continue
        # the checker, tried on every bijection, agrees with the oracle on
        # the relabeled copy and on the perturbed graph
        for target in (h, other):
            expected = exists_permutation_isomorphism(n, g.edges(), target.edges())
            found = any(
                gr.isomorphism_witness_valid(g, target, dict(enumerate(p)))
                for p in permutations(range(n))
            )
            assert found == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


# -- serialization ------------------------------------------------------------

def test_graph_json_roundtrip():
    for g in small_corpus():
        doc = json.loads(g.to_json())
        h = graph_of_edges(doc["vertices"], doc["edges"])
        # the JSON lists vertices in label order, so h may order them
        # differently from g; a second round trip must be exact
        assert g.to_json() == h.to_json()
        doc = json.loads(h.to_json())
        assert graph_of_edges(doc["vertices"], doc["edges"]) == h


def test_graph_json_deterministic_order():
    g = gr.prism(3)
    doc = json.loads(g.to_json())
    assert doc["vertices"] == sorted(doc["vertices"])
    assert doc["edges"] == sorted(doc["edges"])
