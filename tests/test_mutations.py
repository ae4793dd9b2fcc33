"""Every desk check can fail: one mutation per (scenario, check) name.

``MUTATIONS`` maps each (scenario, check) name of the desk report to a desk
job on which the check passes and to the smallest change, made through
``monkeypatch``, under which it misses there: a facet dropped, grown or
coned in a constructor, an edge or a vertex dropped from an induced graph,
two labels swapped, a part or an intersection of a cover changed, a
matching pair dropped or repeated, or a wrong side of a decomposition.  A
check that no such change can fail reads nothing the claim is about, and
has no place among the checks; a new check with no row fails
``test_every_desk_check_has_a_mutation``.
"""

from functools import reduce
from operator import and_

import pytest

from cutnerve import constructions, graphs, morse, verify
from cutnerve.complexes import SimplicialComplex
from cutnerve.graphs import Graph


def drop(masks):
    """The last facet dropped."""
    return masks[:-1]


def grow(masks):
    """The first facet given its least missing vertex."""
    return [masks[0] | ~masks[0] & masks[0] + 1] + masks[1:]


def coned(masks):
    """Vertex 0 put in every facet, which makes the complex a cone: a thick
    sphere keeps its homology when one facet goes, but a cone has none."""
    return [f | 1 for f in masks]


def without_apex(masks):
    """Every vertex that lies in all the facets taken out of each."""
    apexes = reduce(and_, masks)
    return [f & ~apexes for f in masks]


def facets(owner, name, change):
    """The complex that ``owner.name`` builds, with ``change`` applied to
    its facet masks."""
    build = getattr(owner, name)

    def built(*args):
        c = build(*args)
        return SimplicialComplex(c.labels, change(list(c.facet_masks())))

    return lambda monkeypatch: monkeypatch.setattr(owner, name, built)


def induced(change):
    """The induced k-independent graph, with ``change`` applied to its
    labels and neighbour masks."""
    build = graphs.induced_k_independent

    def built(g, k):
        h = build(g, k)
        return Graph(*change(list(h.labels), list(h.adjacency_masks())))

    return lambda monkeypatch: monkeypatch.setattr(graphs, "induced_k_independent", built)


def drop_edge(labels, masks):
    """The edge from vertex 0 to its least neighbour dropped."""
    u = (masks[0] & -masks[0]).bit_length() - 1
    masks[0] ^= 1 << u
    masks[u] ^= 1
    return labels, masks


def drop_vertex(labels, masks):
    """The last vertex dropped."""
    last = len(labels) - 1
    return labels[:last], [m & ~(1 << last) for m in masks[:last]]


def cover(change):
    """The cover of ``independent_cover``, with ``change`` applied to it."""
    build = constructions.independent_cover
    return lambda monkeypatch: monkeypatch.setattr(
        constructions, "independent_cover", lambda g, k: change(build(g, k)))


def base_facet_dropped(c):
    return constructions.Cover(SimplicialComplex(c.base.labels, drop(list(c.base.facet_masks()))),
                               c.part_labels, c.held)


def vertex_in_no_part(c):
    return constructions.Cover(c.base, c.part_labels, (0,) + c.held[1:])


def first_intersection_a_circle(monkeypatch):
    """The intersection over part 0 alone replaced by the hollow triangle
    on the base's first three vertices."""
    build = constructions.Cover.intersection

    def forced(c, idx):
        return SimplicialComplex(c.base.labels, [0b011, 0b110, 0b101]) if idx == 1 else build(c, idx)

    monkeypatch.setattr(constructions.Cover, "intersection", forced)


def matching(change):
    """The element matching's pairs, with ``change`` applied to them."""
    build = morse.element_matching_sequence
    return lambda monkeypatch: monkeypatch.setattr(
        morse, "element_matching_sequence", lambda c, vertices: change(build(c, vertices)))


def ladder_side_all_plus(monkeypatch):
    """A of thm-4-4 taken as every i+, in place of i+ and i- alternating."""
    monkeypatch.setattr(verify, "_ladder_side_a", lambda n: sum(1 << 2 * i for i in range(n)))


def ladder_side_short(monkeypatch):
    """A of thm-4-4 less its first vertex, so that X n Y is the 1-skeleton
    of K_{n-1,n+1}."""
    side = verify._ladder_side_a
    monkeypatch.setattr(verify, "_ladder_side_a", lambda n: side(n) & side(n) - 1)


def ladder_labels_swapped(monkeypatch):
    """The labels 1+ and 1- of the ladder's neighbourhood complex swapped."""
    build = constructions.neighborhood_complex

    def built(g):
        c = build(g)
        swap = {"1+": "1-", "1-": "1+"}
        return SimplicialComplex([swap.get(lab, lab) for lab in c.labels], c.facet_masks())

    monkeypatch.setattr(constructions, "neighborhood_complex", built)


TOTAL_CUT = "total_cut_complex"
NEIGHBORHOOD = "neighborhood_complex"

# (scenario, check) -> (the desk job, the mutation)
MUTATIONS = {
    ("ex-4-9", "kneser-neighborhood-wedge-profile"): ({"n": 4}, facets(constructions, NEIGHBORHOOD, drop)),
    ("ex-4-9", "star-total-cut-collapsible"): ({"n": 4}, facets(constructions, TOTAL_CUT, without_apex)),
    ("prop-3-3", "facet-count-formula"): ({"n": 4, "k": 2}, facets(constructions, TOTAL_CUT, drop)),
    ("prop-4-10", "nerve-equals-total-cut"): ({"count": 60, "seed": 2026}, facets(constructions, TOTAL_CUT, drop)),
    ("thm-1-3", "neighborhood-sphere-profile"): ({"n": 4, "k": 2}, facets(constructions, NEIGHBORHOOD, drop)),
    ("thm-1-4", "total-cut-sphere-profile"): ({"n": 4, "k": 2}, facets(constructions, TOTAL_CUT, drop)),
    ("thm-1-4", "void-below-threshold"): ({"n": 3, "k": 2}, facets(constructions, TOTAL_CUT, lambda m: [0])),
    ("thm-3-1", "intersections-collapsible"): ({"n": 5, "k": 2}, first_intersection_a_circle),
    ("thm-3-1", "neighborhood-sphere-profile"): ({"n": 4, "k": 2}, cover(base_facet_dropped)),
    ("thm-3-1", "nerve-equals-total-cut"): ({"n": 4, "k": 2}, facets(constructions.Cover, "nerve", drop)),
    ("thm-3-1", "parts-cover-base"): ({"n": 4, "k": 2}, cover(vertex_in_no_part)),
    ("thm-3-1", "total-cut-sphere-profile"): ({"n": 4, "k": 2}, facets(constructions, TOTAL_CUT, drop)),
    ("thm-4-2", "facet-count"): ({"n": 3}, facets(constructions, NEIGHBORHOOD, drop)),
    ("thm-4-2", "facet-dimension"): ({"n": 3}, facets(constructions, NEIGHBORHOOD, grow)),
    ("thm-4-2", "neighborhood-sphere-profile"): ({"n": 3}, facets(constructions, NEIGHBORHOOD, coned)),
    ("thm-4-3", "total-cut-wedge-profile"): ({"n": 3}, facets(constructions, TOTAL_CUT, drop)),
    ("thm-4-4", "critical-cells"): ({"n": 5}, matching(drop)),
    ("thm-4-4", "decomposition-union"): ({"n": 4}, ladder_side_all_plus),
    ("thm-4-4", "intersection-wedge-profile"): ({"n": 4}, ladder_side_short),
    ("thm-4-4", "sequential-matching-acyclic"): ({"n": 5}, matching(lambda pairs: pairs + pairs[-1:])),
    ("thm-4-4", "total-cut-wedge-profile"): ({"n": 4}, facets(constructions, TOTAL_CUT, drop)),
    ("thm-4-6", "collapsed-circle-profile"): ({"n": 5}, facets(constructions, NEIGHBORHOOD, coned)),
    ("thm-4-6", "induced-graph-isomorphic-to-ladder"): ({"n": 5}, induced(drop_edge)),
    ("thm-4-6", "neighborhood-profile"): ({"n": 4}, facets(constructions, NEIGHBORHOOD, drop)),
    ("thm-4-6", "stated-free-faces-present"): ({"n": 5}, ladder_labels_swapped),
    ("thm-4-6", "two-disjoint-simplex-facets"): ({"n": 4}, facets(constructions, NEIGHBORHOOD, grow)),
    ("thm-4-7", "total-cut-sphere-profile"): ({"k": 3}, facets(constructions, TOTAL_CUT, coned)),
    ("thm-4-8", "cyclic-window-facets"): ({"k": 3}, facets(constructions, NEIGHBORHOOD, drop)),
    ("thm-4-8", "dimension"): ({"k": 3}, facets(constructions, NEIGHBORHOOD, grow)),
    ("thm-4-8", "neighborhood-circle-profile"): ({"k": 3}, facets(constructions, NEIGHBORHOOD, coned)),
    ("thm-4-8", "regularity"): ({"k": 3}, induced(drop_edge)),
    ("thm-4-8", "vertex-count"): ({"k": 3}, induced(drop_vertex)),
}


def test_every_desk_check_has_a_mutation():
    desk = verify.run_all("desk")
    assert set(MUTATIONS) == {(r.scenario, c.name) for r in desk for c in r.checks}
    # each row's job is a desk job, and its check passes there unmutated
    verdicts = {(r.scenario, tuple(sorted(r.params.items())), c.name): c.verdict
                for r in desk for c in r.checks}
    for (scenario, check), (params, _) in MUTATIONS.items():
        assert verdicts[scenario, tuple(sorted(params.items())), check] == "pass", (scenario, check)


@pytest.mark.parametrize("scenario, check", sorted(MUTATIONS))
def test_each_mutation_drives_its_check_and_job_off_pass(monkeypatch, scenario, check):
    params, mutate = MUTATIONS[scenario, check]
    mutate(monkeypatch)
    report = verify.run_scenario(scenario, params)
    assert {c.name: c.verdict for c in report.checks}[check] != "pass"
    assert report.verdict != "pass"
