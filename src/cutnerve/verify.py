"""Scenario registry: every verified claim is a named scenario with typed
integer parameters, deterministic execution, and a machine-readable report.

Scenario ids are stable API tokens (also used by the CLI); each runner
builds the relevant complexes, executes its checks, and returns per-check
verdicts plus sha256 digests of the principal constructed artifacts, and
optionally informational figures (``metrics``) that decide no verdict.
Reports serialize without timings by default so that repeated runs are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from . import complexes as cx
from . import constructions as cons
from . import graphs as gr
from . import homology as hom
from . import morse
from .errors import GuardError, InvalidMatchingError, InvalidParameterError


@dataclass
class CheckResult:
    name: str
    verdict: str          # "pass" | "fail" | "unknown"
    expected: object = None
    actual: object = None


@dataclass
class Report:
    scenario: str
    params: dict
    checks: list[CheckResult] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    seconds: float = 0.0
    metrics: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        order = {"pass": 0, "unknown": 1, "fail": 2}
        worst = "pass"
        for c in self.checks:
            if order[c.verdict] > order[worst]:
                worst = c.verdict
        return worst

    def to_dict(self, include_timings: bool = False) -> dict:
        doc = {
            "scenario": self.scenario,
            "params": dict(sorted(self.params.items())),
            "verdict": self.verdict,
            "checks": [
                {
                    "name": c.name,
                    "verdict": c.verdict,
                    "expected": c.expected,
                    "actual": c.actual,
                }
                for c in self.checks
            ],
            "digests": dict(sorted(self.digests.items())),
            "metrics": dict(sorted(self.metrics.items())),
        }
        if include_timings:
            doc["seconds"] = round(self.seconds, 3)
        return doc

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True, separators=(",", ":"))


def _digest(complex_or_json) -> str:
    text = complex_or_json if isinstance(complex_or_json, str) else complex_or_json.to_json()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check(name: str, ok: bool, expected, actual, miss: str = "fail") -> CheckResult:
    """A check that passes when ``ok``; a miss is ``miss``, which is
    "unknown" for a semi-decision search that found no certificate."""
    return CheckResult(name, "pass" if ok else miss, expected, actual)


def _check_profile(name: str, profile: hom.HomologyProfile, expected: hom.HomologyProfile) -> CheckResult:
    return _check(name, profile == expected,
                  json.loads(expected.to_json()), json.loads(profile.to_json()))


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _guard(cond: bool, message: str):
    if not cond:
        raise GuardError(message)


def run_thm_1_4(params):
    n, k = params["n"], params["k"]
    _guard(3 <= n <= 12, f"thm-1-4 guard: 3 <= n <= 12, got n={n}")
    _guard(1 <= k <= 4, f"thm-1-4 guard: 1 <= k <= 4, got k={k}")
    tc = cons.total_cut_complex(gr.cycle(n), k)
    checks = []
    if n < 2 * k:
        checks.append(_check("void-below-threshold", tc.is_void(),
                             "void", "void" if tc.is_void() else "non-void"))
    else:
        checks.append(_check_profile(
            "total-cut-sphere-profile", hom.reduced_homology(tc), hom.HomologyProfile.sphere(n - 2 * k)))
    return checks, {"total_cut": _digest(tc)}


def run_thm_1_3(params):
    n, k = params["n"], params["k"]
    _guard(1 <= k <= 3, f"thm-1-3 guard: 1 <= k <= 3, got k={k}")
    _guard(2 * k <= n <= 9, f"thm-1-3 guard: 2k <= n <= 9, got n={n}")
    nc = cons.neighborhood_complex(gr.stable_kneser(n, k))
    checks = [_check_profile(
        "neighborhood-sphere-profile", hom.reduced_homology(nc), hom.HomologyProfile.sphere(n - 2 * k))]
    return checks, {"neighborhood": _digest(nc)}


def run_thm_3_1(params):
    n, k = params["n"], params["k"]
    _guard(1 <= k <= 3, f"thm-3-1 guard: 1 <= k <= 3, got k={k}")
    _guard(2 * k <= n <= 9, f"thm-3-1 guard: 2k <= n <= 9, got n={n}")
    g = gr.cycle(n)
    cover = cons.independent_cover(g, k)
    nerve_cx = cons.nerve(cover)
    tc = cons.total_cut_complex(g, k)
    equal = cx.equals_labeled(nerve_cx, tc)
    checks = [_check("nerve-equals-total-cut", equal,
                     "labeled equality", "equal" if equal else "different")]
    sphere = hom.HomologyProfile.sphere(n - 2 * k)
    checks.append(_check_profile("total-cut-sphere-profile", hom.reduced_homology(tc), sphere))
    # the cover's base is N(I_k(C_n)) = N(SG(n, k))
    checks.append(_check_profile(
        "neighborhood-sphere-profile", hom.reduced_homology(cover.base), sphere))
    # every geometrically nonempty intersection must collapse to a point;
    # the search is a semi-decision, so a stranded search is "unknown"
    unresolved = []
    tested = 0
    for face in nerve_cx.all_faces():
        if not face:
            continue
        inter = cons.cover_intersection(cover, face)
        if not inter.has_vertices():
            continue
        tested += 1
        witness = morse.greedy_collapse(inter)
        if not witness.is_collapsible():
            unresolved.append(list(face))
    checks.append(_check("intersections-collapsible", not unresolved,
                         {"collapsible": tested}, {"tested": tested, "unresolved": unresolved},
                         miss="unknown"))
    # index sets where the raw face-sharing reading disagrees with the
    # generator reading: a figure, not a check
    gaps = 0
    for m in range(1, n + 1):
        for idx in combinations(range(n), m):
            raw = cover.raw_intersection_nonempty(idx)
            char = cons.cover_intersection(cover, idx).has_vertices()
            if raw != char:
                gaps += 1
    return checks, {"nerve": _digest(nerve_cx), "total_cut": _digest(tc)}, {"raw-vs-generator-gap": gaps}


def run_prop_3_3(params):
    n, k = params["n"], params["k"]
    _guard(3 <= n <= 12, f"prop-3-3 guard: 3 <= n <= 12, got n={n}")
    _guard(1 <= k <= 4 and 2 * k <= n, f"prop-3-3 guard: 1 <= k <= 4 and n >= 2k, got k={k}")
    tc = cons.total_cut_complex(gr.cycle(n), k)
    expected = gr.stable_kneser_facet_count(n, k)
    actual = len(tc.facets)
    checks = [_check("facet-count-formula", actual == expected, expected, actual)]
    return checks, {"total_cut": _digest(tc)}


def _prism_markers(n: int):
    g = gr.prism(n)
    markers = []
    for i in range(1, n + 1):
        j = i % n + 1
        markers.append(gr.set_label(g, [2 * (i - 1), 2 * (j - 1) + 1]))
    return markers


def run_thm_4_2(params):
    n = params["n"]
    _guard(3 <= n <= 5, f"thm-4-2 guard: 3 <= n <= 5, got n={n}")
    g = gr.prism(n)
    h2 = gr.induced_k_independent(g, 2)
    nb = cons.neighborhood_complex(h2)
    dim_ok = nb.dimension() == n * n - 3 * n + 2 and nb.is_pure()
    checks = [
        _check("facet-count", len(nb.facets) == n * (n - 1), n * (n - 1), len(nb.facets)),
        _check("facet-dimension", dim_ok, n * n - 3 * n + 2, nb.dimension()),
    ]
    cover = cons.facet_star_cover(nb, _prism_markers(n))
    nerve_cx = cons.nerve(cover)
    boundary = cx.simplex_boundary(cover.part_labels)
    equal = cx.equals_labeled(nerve_cx, boundary)
    checks.append(_check("nerve-is-simplex-boundary", equal,
                         "boundary of (n-1)-simplex", "equal" if equal else "different"))
    cone_failures = []
    for pair in combinations(range(n), 2):
        inter = cons.cover_intersection(cover, pair)
        if not inter.has_vertices():
            cone_failures.append({"pair": list(pair), "reason": "empty"})
            continue
        # a cone over the first marker collapses to its apex
        apex = cover.base.labels.index(cover.part_labels[pair[0]])
        if not all(apex in f for f in inter.facets):
            cone_failures.append({"pair": list(pair), "reason": "not a cone"})
    checks.append(_check("pairwise-intersections-cone-collapse", not cone_failures,
                         "cone collapse witness per pair", cone_failures or "all witnessed"))
    checks.append(_check_profile(
        "neighborhood-sphere-profile", hom.reduced_homology(nb), hom.HomologyProfile.sphere(n - 2)))
    return checks, {"neighborhood": _digest(nb), "nerve": _digest(nerve_cx)}


def run_thm_4_3(params):
    n = params["n"]
    _guard(2 <= n <= 5, f"thm-4-3 guard: 2 <= n <= 5, got n={n}")
    tc = cons.total_cut_complex(gr.prism(n), 2)
    checks = [_check_profile(
        "total-cut-wedge-profile", hom.reduced_homology(tc),
        hom.HomologyProfile.wedge(2 * n - 4, n - 1))]
    return checks, {"total_cut": _digest(tc)}


def _ladder_plus(n: int, i: int) -> int:
    return 2 * ((i - 1) % n)


def _ladder_minus(n: int, i: int) -> int:
    return 2 * ((i - 1) % n) + 1


def _ladder_isomorphism(g: gr.Graph) -> dict[int, int]:
    """I_{n-1}(CL_n) -> CL_n for odd n: an independent (n-1)-set misses one
    rung p and goes to rung p's vertex on the side it takes at rung p + 1."""
    n = g.n // 2
    witness = {}
    for i, s in enumerate(gr.independent_sets(g, n - 1)):
        side = {v // 2: v % 2 for v in s}
        p = next(r for r in range(n) if r not in side)
        witness[i] = 2 * p + side[(p + 1) % n]
    return witness


def run_thm_4_4(params):
    n = params["n"]
    _guard(3 <= n <= 9, f"thm-4-4 guard: 3 <= n <= 9, got n={n}")
    g = gr.circular_ladder(n)
    tc = cons.total_cut_complex(g, n - 1)
    count = (n - 1) if n % 2 else (n - 1) ** 2
    checks = [_check_profile(
        "total-cut-wedge-profile", hom.reduced_homology(tc), hom.HomologyProfile.wedge(2, count))]
    digests = {"total_cut": _digest(tc)}
    if n % 2:
        matching = morse.element_matching_sequence(tc, ["1+", "1-"])
        try:
            cells = [list(tc.labels_of_face(c)) for c in morse.critical_cells(tc, matching)]
        except InvalidMatchingError:
            cells = None
        checks.append(_check("sequential-matching-acyclic", cells is not None, True, cells is not None))
        empty_partner = matching.partner(())
        checks.append(_check("empty-face-matched-with-first-vertex", empty_partner == (0,),
                             ["1+"], list(tc.labels_of_face(empty_partner or ()))))
        expected_cells = [list(tc.labels_of_face(c)) for c in sorted(
            tuple(sorted((1, _ladder_plus(n, j), _ladder_minus(n, j)))) for j in range(2, n + 1)
        )]
        checks.append(_check("critical-cells", cells == expected_cells, expected_cells, cells))
    else:
        a_labels = [f"{i}+" if i % 2 else f"{i}-" for i in range(1, n + 1)]
        b_labels = [f"{i}-" if i % 2 else f"{i}+" for i in range(1, n + 1)]
        x = cx.join(cx.full_simplex(a_labels), cx.discrete_points(b_labels))
        y = cx.join(cx.full_simplex(b_labels), cx.discrete_points(a_labels))
        union_ok = cx.equals_labeled(cx.union(x, y), tc)
        checks.append(_check("decomposition-union", union_ok, "X u Y = total cut", union_ok))
        for name, part in (("x-homology-trivial", x), ("y-homology-trivial", y)):
            trivial = hom.reduced_homology(part).is_trivial()
            checks.append(_check(name, trivial, True, trivial))
        inter = cx.intersection(x, y)
        bipartite_skeleton = cx.from_facets(
            tuple(a_labels) + tuple(b_labels),
            [(i, n + j) for i in range(n) for j in range(n)],
        )
        skel_ok = cx.equals_labeled(inter, bipartite_skeleton)
        checks.append(_check("intersection-is-bipartite-skeleton", skel_ok,
                             "1-skeleton of K_{n,n}", skel_ok))
        checks.append(_check_profile(
            "intersection-wedge-profile", hom.reduced_homology(inter),
            hom.HomologyProfile.wedge(1, (n - 1) ** 2)))
    return checks, digests


def run_thm_4_6(params):
    n = params["n"]
    _guard(3 <= n <= 9, f"thm-4-6 guard: 3 <= n <= 9, got n={n}")
    g = gr.circular_ladder(n)
    h = gr.induced_k_independent(g, n - 1)
    checks = []
    digests = {}
    if n % 2:
        valid = gr.isomorphism_witness_valid(h, g, _ladder_isomorphism(g))
        checks.append(_check("induced-graph-isomorphic-to-ladder", valid,
                             "witness bijection", "valid witness" if valid else "invalid witness"))
        nc = cons.neighborhood_complex(g)
        digests["neighborhood"] = _digest(nc)
        pairs = []
        for i in range(1, n + 1):
            sp = tuple(sorted((_ladder_plus(n, i), _ladder_plus(n, i + 2))))
            tp = tuple(sorted((_ladder_plus(n, i), _ladder_minus(n, i + 1), _ladder_plus(n, i + 2))))
            sm = tuple(sorted((_ladder_minus(n, i), _ladder_minus(n, i + 2))))
            tm = tuple(sorted((_ladder_minus(n, i), _ladder_plus(n, i + 1), _ladder_minus(n, i + 2))))
            pairs.append((sp, tp))
            pairs.append((sm, tm))
        free = set(morse.free_faces(nc))
        stated_free = all(p in free for p in pairs)
        checks.append(_check("stated-free-faces-present", stated_free,
                             2 * n, sum(p in free for p in pairs)))
        collapsed = morse.collapse_complex(nc, pairs)
        checks.append(_check_profile(
            "collapsed-circle-profile", hom.reduced_homology(collapsed),
            hom.HomologyProfile.sphere(1)))
    else:
        nh = cons.neighborhood_complex(h)
        digests["neighborhood"] = _digest(nh)
        two = len(nh.facets) == 2
        disjoint = two and not (set(nh.facets[0]) & set(nh.facets[1]))
        checks.append(_check("two-disjoint-simplex-facets", two and disjoint, 2, len(nh.facets)))
        checks.append(_check_profile(
            "neighborhood-profile", hom.reduced_homology(nh), hom.HomologyProfile.sphere(0)))
    return checks, digests


def run_thm_4_7(params):
    k = params["k"]
    _guard(3 <= k <= 5, f"thm-4-7 guard: 3 <= k <= 5, got k={k}")
    tc = cons.total_cut_complex(gr.squared_cycle(3 * k + 1), k)
    checks = [_check_profile(
        "total-cut-sphere-profile", hom.reduced_homology(tc), hom.HomologyProfile.sphere(3))]
    return checks, {"total_cut": _digest(tc)}


def run_thm_4_8(params):
    k = params["k"]
    _guard(3 <= k <= 5, f"thm-4-8 guard: 3 <= k <= 5, got k={k}")
    m = 3 * k + 1
    g = gr.squared_cycle(m)
    h = gr.induced_k_independent(g, k)
    checks = [_check("vertex-count", h.n == m, m, h.n)]
    regular = h.n > 0 and all(h.degree(i) == k + 2 for i in range(h.n))
    checks.append(_check("regularity", regular, k + 2, sorted({h.degree(i) for i in range(h.n)})))
    nb = cons.neighborhood_complex(h)
    checks.append(_check("dimension", nb.dimension() == k + 1, k + 1, nb.dimension()))
    expected_facets = {
        tuple(sorted((i + d) % m for d in range(k, 2 * k + 2))) for i in range(m)
    }
    actual_facets = set(nb.facets)
    checks.append(_check("cyclic-window-facets", expected_facets == actual_facets,
                         len(expected_facets), len(actual_facets)))
    checks.append(_check_profile(
        "neighborhood-circle-profile", hom.reduced_homology(nb), hom.HomologyProfile.sphere(1)))
    return checks, {"neighborhood": _digest(nb)}


def run_ex_4_9(params):
    n = params["n"]
    _guard(4 <= n <= 7, f"ex-4-9 guard: 4 <= n <= 7, got n={n}")
    tc = cons.total_cut_complex(gr.star(n), 2)
    witness = morse.greedy_collapse(tc)
    checks = [_check("star-total-cut-collapsible", witness.is_collapsible(),
                     "collapsible", witness.verdict, miss="unknown")]
    nb = cons.neighborhood_complex(gr.kneser(n, 2))
    checks.append(_check_profile(
        "kneser-neighborhood-wedge-profile", hom.reduced_homology(nb),
        hom.HomologyProfile.wedge(n - 4, n * n - 3 * n + 1)))
    return checks, {"total_cut": _digest(tc), "neighborhood": _digest(nb)}


def corpus_graph(index: int, seed: int) -> gr.Graph:
    """Erdos-Renyi style corpus member: sizes cycle through 5..9 and the edge
    probability alternates between 0.3 and 0.5; fully determined by
    (index, seed)."""
    rng = random.Random(1_000_003 * seed + index)
    n = 5 + index % 5
    p = 0.3 if index % 2 == 0 else 0.5
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return gr.Graph([str(v + 1) for v in range(n)], edges)


def run_prop_4_10(params):
    count = params["count"]
    seed = params["seed"]
    _guard(1 <= count <= 200, f"prop-4-10 guard: 1 <= count <= 200, got count={count}")
    instances = 0
    failures = []
    isolated_flags = 0
    for i in range(count):
        g = corpus_graph(i, seed)
        for k in (2, 3):
            sets = gr.independent_sets(g, k)
            if not sets:
                continue  # alpha(G) < k
            instances += 1
            cover = cons.independent_cover(g, k)
            nerve_cx = cons.nerve(cover)
            tc = cons.total_cut_complex(g, k)
            if not cx.equals_labeled(nerve_cx, tc):
                failures.append({"graph": i, "k": k})
            frozen = [frozenset(s) for s in sets]
            if any(all(a & b for b in frozen if b is not a) for a in frozen):
                isolated_flags += 1
    checks = [_check("nerve-equals-total-cut", not failures,
                     {"instances": instances, "failures": 0},
                     {"instances": instances, "failures": failures})]
    metrics = {"geometric-reading-divergence-flag":
               {"instances-with-isolated-independent-sets": isolated_flags}}
    return checks, {}, metrics


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    id: str
    description: str
    runner: object
    param_names: tuple[str, ...]
    class_params: dict
    defaults: dict = None


SCENARIOS: dict[str, Scenario] = {s.id: s for s in (
    Scenario(
        "thm-1-4",
        "total cut complex of a cycle is a sphere of dimension n-2k (void below n=2k)",
        run_thm_1_4, ("n", "k"),
        {
            "smoke": [{"n": 4, "k": 2}, {"n": 6, "k": 2}, {"n": 3, "k": 2}],
            "desk": [{"n": 4, "k": 2}, {"n": 6, "k": 2}, {"n": 7, "k": 2}, {"n": 8, "k": 2},
                     {"n": 6, "k": 3}, {"n": 8, "k": 3}, {"n": 9, "k": 3}, {"n": 3, "k": 2},
                     {"n": 5, "k": 3}],
            "extended": [{"n": 4, "k": 2}, {"n": 6, "k": 2}, {"n": 7, "k": 2}, {"n": 8, "k": 2},
                         {"n": 6, "k": 3}, {"n": 8, "k": 3}, {"n": 9, "k": 3}, {"n": 3, "k": 2},
                         {"n": 5, "k": 3}, {"n": 10, "k": 2}, {"n": 10, "k": 3},
                         {"n": 11, "k": 3}, {"n": 12, "k": 4}],
        },
    ),
    Scenario(
        "thm-1-3",
        "neighborhood complex of the stable Kneser graph is a sphere of dimension n-2k",
        run_thm_1_3, ("n", "k"),
        {
            "smoke": [{"n": 4, "k": 2}, {"n": 6, "k": 2}],
            "desk": [{"n": 4, "k": 2}, {"n": 6, "k": 2}, {"n": 7, "k": 2}, {"n": 8, "k": 2},
                     {"n": 6, "k": 3}, {"n": 8, "k": 3}],
            "extended": [{"n": 4, "k": 2}, {"n": 6, "k": 2}, {"n": 7, "k": 2}, {"n": 8, "k": 2},
                         {"n": 6, "k": 3}, {"n": 8, "k": 3}, {"n": 9, "k": 3}],
        },
    ),
    Scenario(
        "thm-3-1",
        "independent cover of the cycle: nerve equals the total cut complex, "
        "intersections collapse, both sides are spheres",
        run_thm_3_1, ("n", "k"),
        {
            "smoke": [{"n": 6, "k": 2}],
            "desk": [{"n": 4, "k": 2}, {"n": 5, "k": 2}, {"n": 6, "k": 2}, {"n": 7, "k": 2},
                     {"n": 8, "k": 2}, {"n": 6, "k": 3}, {"n": 7, "k": 3}, {"n": 8, "k": 3}],
            "extended": [{"n": 4, "k": 2}, {"n": 5, "k": 2}, {"n": 6, "k": 2}, {"n": 7, "k": 2},
                         {"n": 8, "k": 2}, {"n": 6, "k": 3}, {"n": 7, "k": 3}, {"n": 8, "k": 3},
                         {"n": 9, "k": 3}],
        },
    ),
    Scenario(
        "prop-3-3",
        "facet count of the cycle total cut complex matches (n/(n-k)) C(n-k,k)",
        run_prop_3_3, ("n", "k"),
        {
            "smoke": [{"n": 6, "k": 2}],
            "desk": [{"n": 4, "k": 2}, {"n": 5, "k": 2}, {"n": 6, "k": 2}, {"n": 7, "k": 2},
                     {"n": 8, "k": 2}, {"n": 6, "k": 3}, {"n": 7, "k": 3}, {"n": 8, "k": 3}],
            "extended": [{"n": 4, "k": 2}, {"n": 5, "k": 2}, {"n": 6, "k": 2}, {"n": 7, "k": 2},
                         {"n": 8, "k": 2}, {"n": 6, "k": 3}, {"n": 7, "k": 3}, {"n": 8, "k": 3},
                         {"n": 10, "k": 2}, {"n": 12, "k": 3}, {"n": 12, "k": 4}],
        },
    ),
    Scenario(
        "thm-4-2",
        "prism: neighborhood complex of the induced 2-independent graph, its "
        "marker cover, the simplex-boundary nerve, and the claimed sphere profile",
        run_thm_4_2, ("n",),
        {
            "smoke": [{"n": 3}],
            "desk": [{"n": 3}, {"n": 4}, {"n": 5}],
            "extended": [{"n": 3}, {"n": 4}, {"n": 5}],
        },
    ),
    Scenario(
        "thm-4-3",
        "prism total cut complex is a wedge of n-1 spheres of dimension 2n-4",
        run_thm_4_3, ("n",),
        {
            "smoke": [{"n": 3}],
            "desk": [{"n": 3}, {"n": 4}, {"n": 5}],
            "extended": [{"n": 2}, {"n": 3}, {"n": 4}, {"n": 5}],
        },
    ),
    Scenario(
        "thm-4-4",
        "circular ladder total cut complex: wedge profile plus the matching "
        "(odd) or decomposition (even) certificates",
        run_thm_4_4, ("n",),
        {
            "smoke": [{"n": 4}, {"n": 5}],
            "desk": [{"n": 4}, {"n": 5}, {"n": 6}, {"n": 7}],
            "extended": [{"n": 4}, {"n": 5}, {"n": 6}, {"n": 7}, {"n": 8}, {"n": 9}],
        },
    ),
    Scenario(
        "thm-4-6",
        "circular ladder neighborhood complexes: ladder isomorphism and circle "
        "profile (odd), two disjoint simplices (even)",
        run_thm_4_6, ("n",),
        {
            "smoke": [{"n": 4}, {"n": 5}],
            "desk": [{"n": 4}, {"n": 5}, {"n": 6}, {"n": 7}],
            "extended": [{"n": 4}, {"n": 5}, {"n": 6}, {"n": 7}, {"n": 8}, {"n": 9}],
        },
    ),
    Scenario(
        "thm-4-7",
        "squared cycle total cut complex is a 3-sphere",
        run_thm_4_7, ("k",),
        {
            "smoke": [{"k": 3}],
            "desk": [{"k": 3}, {"k": 4}],
            "extended": [{"k": 3}, {"k": 4}, {"k": 5}],
        },
    ),
    Scenario(
        "thm-4-8",
        "squared cycle induced graph: regularity, cyclic window facets, circle profile",
        run_thm_4_8, ("k",),
        {
            "smoke": [{"k": 3}],
            "desk": [{"k": 3}, {"k": 4}],
            "extended": [{"k": 3}, {"k": 4}, {"k": 5}],
        },
    ),
    Scenario(
        "ex-4-9",
        "star counterexample: collapsible total cut complex but a wedge for the "
        "Kneser neighborhood complex",
        run_ex_4_9, ("n",),
        {
            "smoke": [{"n": 5}],
            "desk": [{"n": 4}, {"n": 5}, {"n": 6}],
            "extended": [{"n": 4}, {"n": 5}, {"n": 6}, {"n": 7}],
        },
    ),
    Scenario(
        "prop-4-10",
        "seeded random graphs: the independent-cover nerve equals the total cut complex",
        run_prop_4_10, ("count", "seed"),
        {
            "smoke": [{"count": 10, "seed": 2026}],
            "desk": [{"count": 60, "seed": 2026}],
            "extended": [{"count": 120, "seed": 2026}],
        },
        defaults={"count": 60, "seed": 2026},
    ),
)}

SIZE_CLASSES = ("smoke", "desk", "extended")


def run_scenario(scenario_id: str, params: dict | None = None) -> Report:
    if scenario_id not in SCENARIOS:
        raise InvalidParameterError(
            f"unknown scenario {scenario_id!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    scenario = SCENARIOS[scenario_id]
    given = dict(params or {})
    unknown = set(given) - set(scenario.param_names)
    if unknown:
        raise InvalidParameterError(
            f"{scenario_id} does not take parameters {sorted(unknown)}; expects {scenario.param_names}"
        )
    merged = dict(scenario.defaults or {})
    merged.update(given)
    missing = set(scenario.param_names) - set(merged)
    if missing:
        raise InvalidParameterError(f"{scenario_id} needs parameters {sorted(missing)}")
    start = time.perf_counter()
    checks, digests, *metrics = scenario.runner(merged)
    return Report(scenario_id, merged, checks, digests, time.perf_counter() - start, *metrics)


def _run_one(args):
    scenario_id, params = args
    return run_scenario(scenario_id, params)


def run_all(size_class: str = "desk", workers: int = 1) -> list[Report]:
    if size_class not in SIZE_CLASSES:
        raise InvalidParameterError(f"size class must be one of {SIZE_CLASSES}, got {size_class!r}")
    jobs = []
    for sid in sorted(SCENARIOS):
        for params in SCENARIOS[sid].class_params[size_class]:
            jobs.append((sid, params))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_one, jobs))
    else:
        reports = [_run_one(j) for j in jobs]
    reports.sort(key=lambda r: (r.scenario, sorted(r.params.items())))
    return reports


def summary_table(reports: list[Report]) -> str:
    lines = []
    width = max(len(r.scenario) for r in reports) if reports else 10
    for r in reports:
        params = ",".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        lines.append(f"{r.scenario:<{width}}  {params:<24} {r.verdict}")
    return "\n".join(lines)
