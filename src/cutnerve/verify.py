"""Scenario registry: every verified claim is a named scenario with bounded
integer parameters, deterministic execution, and a machine-readable report.

Scenario ids are stable API tokens (also used by the CLI); each runner
builds the relevant complexes, executes its checks, and returns per-check
verdicts plus sha256 digests of the principal constructed artifacts, and
optionally informational figures (``metrics``) that decide no verdict.
Reports serialize without timings by default so that repeated runs are
byte-identical.
"""

from __future__ import annotations

import json
import random
import time
from functools import reduce
from itertools import combinations
from operator import and_, or_

from . import complexes as cx
from . import constructions as cons
from . import graphs as gr
from . import homology as hom
from . import morse
from .errors import InvalidParameterError
from .values import Value

# the interpreter's own SHA-256, as random.py takes sha512: hashlib is heavy
# to load, since it opens OpenSSL; the digests are the same
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class CheckResult(Value):
    """One check of a report; ``verdict`` is "pass", "fail" or "unknown"."""

    __slots__ = ("name", "verdict", "expected", "actual")

    def __init__(self, name: str, verdict: str, expected=None, actual=None):
        super().__init__(name, verdict, expected, actual)


class Report(Value):
    __slots__ = ("scenario", "params", "checks", "digests", "seconds", "metrics")

    def __init__(self, scenario: str, params: dict, checks: list[CheckResult] | None = None,
                 digests: dict | None = None, seconds: float = 0.0, metrics: dict | None = None):
        super().__init__(scenario, params, [] if checks is None else checks,
                         {} if digests is None else digests, seconds, {} if metrics is None else metrics)

    @property
    def verdict(self) -> str:
        """The worst check verdict: fail over unknown over pass."""
        return max((c.verdict for c in self.checks),
                   key=("pass", "unknown", "fail").index, default="pass")

    def to_dict(self, include_timings: bool = False) -> dict:
        doc = {
            "scenario": self.scenario,
            "params": dict(sorted(self.params.items())),
            "verdict": self.verdict,
            "checks": [{"name": c.name, "verdict": c.verdict, "expected": c.expected, "actual": c.actual}
                       for c in self.checks],
            "digests": dict(sorted(self.digests.items())),
            "metrics": dict(sorted(self.metrics.items())),
        }
        if include_timings:
            doc["seconds"] = round(self.seconds, 3)
        return doc

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True, separators=(",", ":"))


def _digest(c: cx.SimplicialComplex) -> str:
    return sha256(c.to_json().encode()).hexdigest()[:16]


def _check(name: str, ok: bool, expected, actual, miss: str = "fail") -> CheckResult:
    """A check that passes when ``ok``; a miss is ``miss``, which is
    "unknown" for a semi-decision search that found no certificate."""
    return CheckResult(name, "pass" if ok else miss, expected, actual)


def _claim(name: str, c: cx.SimplicialComplex, degree: int, count: int = 1) -> CheckResult:
    """The claim that ``c`` is a wedge of ``count`` spheres of dimension
    ``degree`` (one sphere by default), checked on its reduced homology."""
    profile, expected = hom.reduced_homology(c), hom.HomologyProfile.wedge(degree, count)
    return _check(name, profile == expected, expected.to_dict(), profile.to_dict())


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _guard(cond: bool, message: str):
    """A theorem hypothesis that ties two parameters; the registry's
    ``bounds`` guard each parameter alone."""
    if not cond:
        raise InvalidParameterError(message)


def run_thm_1_4(n, k):
    tc = cons.total_cut_complex(gr.cycle(n), k)
    checks = []
    if n < 2 * k:
        checks.append(_check("void-below-threshold", tc.void,
                             "void", "void" if tc.void else "non-void"))
    else:
        checks.append(_claim("total-cut-sphere-profile", tc, n - 2 * k))
    return checks, {"total_cut": _digest(tc)}


def run_thm_1_3(n, k):
    _guard(2 * k <= n, f"thm-1-3 guard: 2k <= n, got n={n}, k={k}")
    nc = cons.neighborhood_complex(gr.stable_kneser(n, k))
    checks = [_claim("neighborhood-sphere-profile", nc, n - 2 * k)]
    return checks, {"neighborhood": _digest(nc)}


def _cone_apexes(c: cx.SimplicialComplex) -> int:
    """The mask of the vertices in every facet of a complex with vertices.
    It is nonzero exactly on a cone, and a cone collapses to any of its
    apexes: a strong collapse keeps a cone a cone, and in a cone of two or
    more vertices some vertex is dominated (Barmak–Minian, DCG 2012)."""
    return reduce(and_, c.facet_masks())


def _collapsible(c: cx.SimplicialComplex) -> bool:
    """Certified collapsible: a cone, by its apex, or any other complex by
    a greedy witness that replays; a stranded search certifies nothing."""
    if _cone_apexes(c):
        return True
    witness = morse.greedy_collapse(c)
    return witness.is_collapsible() and morse.replay_collapse(c, witness)


def _dihedral(n: int) -> list[tuple[int, ...]]:
    """The rotation v -> v + 1 and the reflection v -> -v of C_n, which
    generate its dihedral group."""
    return [tuple((v + 1) % n for v in range(n)), tuple(-v % n for v in range(n))]


def _orbits(faces, perms):
    """The orbits of the masks ``faces``, a set closed under ``perms``,
    under the group the permutations generate: one list per orbit, in the
    order of the first member met, which leads its list."""
    seen = set()
    for face in faces:
        if face in seen:
            continue
        seen.add(face)
        orbit = [face]
        for m in orbit:  # the list grows as the orbit closes
            for perm in perms:
                image = cx.permute_mask(m, perm)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        yield orbit


def run_thm_3_1(n, k):
    _guard(2 * k <= n, f"thm-3-1 guard: 2k <= n, got n={n}, k={k}")
    g = gr.cycle(n)
    cover = cons.independent_cover(g, k)
    nerve_cx = cover.nerve()
    tc = cons.total_cut_complex(g, k)
    equal = nerve_cx == tc
    checks = [_check("nerve-equals-total-cut", equal,
                     "labeled equality", "equal" if equal else "different")]
    checks.append(_claim("total-cut-sphere-profile", tc, n - 2 * k))
    # the cover's base is N(I_k(C_n)) = N(SG(n, k))
    checks.append(_claim("neighborhood-sphere-profile", cover.base, n - 2 * k))
    # the nerve lemma (Björner, Handbook of Combinatorics 1995, Thm 10.6)
    # needs the parts to cover the base ...
    uncovered = [list(cover.base.labels_of_face(f)) for f in cover.base.facet_masks()
                 if not reduce(and_, map(cover.held.__getitem__, cx.mask_face(f)), (1 << n) - 1)]
    checks.append(_check("parts-cover-base", not uncovered,
                         "every base facet in a part", uncovered or "covered"))
    # ... and every nonempty intersection to be contractible: each must
    # collapse to a point, checked once per orbit of the dihedral group,
    # which acts on the cover; an orbit whose representative is not
    # certified is searched member by member, and a stranded search is
    # "unknown"
    faces = cx.closure_masks(nerve_cx.facet_masks()).keys() - {0}
    perms = cons.cover_symmetries(cover, _dihedral(n))
    unresolved = []
    for orbit in _orbits(sorted(faces), perms):
        if not _collapsible(cover.intersection(orbit[0])):
            unresolved += [orbit[0]] + [m for m in orbit[1:] if not _collapsible(cover.intersection(m))]
    unresolved = sorted(list(cx.mask_face(m)) for m in unresolved)
    checks.append(_check("intersections-collapsible", not unresolved,
                         {"collapsible": len(faces)}, {"tested": len(faces), "unresolved": unresolved},
                         miss="unknown"))
    # equal complexes have the same canonical JSON, so one digest serves both
    nerve_digest = _digest(nerve_cx)
    return checks, {"nerve": nerve_digest, "total_cut": nerve_digest if equal else _digest(tc)}


def run_prop_3_3(n, k):
    _guard(2 * k <= n, f"prop-3-3 guard: 2k <= n, got n={n}, k={k}")
    tc = cons.total_cut_complex(gr.cycle(n), k)
    expected = gr.stable_kneser_facet_count(n, k)
    actual = len(tc.facets)
    checks = [_check("facet-count-formula", actual == expected, expected, actual)]
    return checks, {"total_cut": _digest(tc)}


def _prism_markers(g: gr.Graph):
    """The labels of the markers {i+, (i+1)-}, i mod n, of the prism g = K_n x K_2."""
    n = g.n // 2
    markers = []
    for i in range(1, n + 1):
        j = i % n + 1
        markers.append(gr.set_label(g, [2 * (i - 1), 2 * (j - 1) + 1]))
    return markers


def run_thm_4_2(n):
    g = gr.prism(n)
    h2 = gr.induced_k_independent(g, 2)
    nb = cons.neighborhood_complex(h2)
    dim_ok = nb.dimension() == n * n - 3 * n + 2 and nb.is_pure()
    checks = [
        _check("facet-count", len(nb.facets) == n * (n - 1), n * (n - 1), len(nb.facets)),
        _check("facet-dimension", dim_ok, n * n - 3 * n + 2, nb.dimension()),
    ]
    # both checks below read each marker's star as the facets through the
    # marker, not as a subcomplex: the true intersections of the stars are
    # not acyclic at n >= 4 (README)
    labels = _prism_markers(g)
    markers = [nb.vertex(m) for m in labels]
    holders = [sum(1 << i for i, v in enumerate(markers) if f >> v & 1) for f in nb.facet_masks()]
    nerve_cx = cx.SimplicialComplex(labels, holders)
    equal = nerve_cx == cx.simplex_boundary(labels)
    checks.append(_check("generator-nerve-is-simplex-boundary", equal,
                         "boundary of (n-1)-simplex", "equal" if equal else "different"))
    # the facets through two markers make a cone over either, which
    # collapses to its apex, unless there is none
    cone_failures = [{"pair": [a, b], "reason": "empty"} for a, b in combinations(range(n), 2)
                     if not any(h >> a & 1 and h >> b & 1 for h in holders)]
    checks.append(_check("generator-pairwise-intersections-cone-collapse", not cone_failures,
                         "cone collapse witness per pair", cone_failures or "all witnessed"))
    checks.append(_claim("neighborhood-sphere-profile", nb, n - 2))
    return checks, {"neighborhood": _digest(nb), "nerve": _digest(nerve_cx)}


def run_thm_4_3(n):
    tc = cons.total_cut_complex(gr.prism(n), 2)
    checks = [_claim("total-cut-wedge-profile", tc, 2 * n - 4, n - 1)]
    return checks, {"total_cut": _digest(tc)}


def _ladder_side_a(n: int) -> int:
    """A of thm-4-4 for even n: i+ for odd i, i- for even i (bit 2i + i % 2, 0-based i)."""
    return sum(1 << (2 * i + i % 2) for i in range(n))


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


def run_thm_4_4(n):
    g = gr.circular_ladder(n)
    tc = cons.total_cut_complex(g, n - 1)
    count = (n - 1) if n % 2 else (n - 1) ** 2
    checks = [_claim("total-cut-wedge-profile", tc, 2, count)]
    digests = {"total_cut": _digest(tc)}
    if n % 2:
        pairs = morse.element_matching_sequence(tc, ["1+", "1-"])
        cells = morse.critical_cells(tc, pairs)
        cells = None if cells is None else [list(tc.labels_of_face(c)) for c in cells]
        checks.append(_check("sequential-matching-acyclic", cells is not None, True, cells is not None))
        empty_partner = dict(pairs).get(0, 0)
        checks.append(_check("empty-face-matched-with-first-vertex", empty_partner == 1,
                             ["1+"], list(tc.labels_of_face(empty_partner))))
        # the faces {1-, j+, j-}, whose labels run in index order
        expected_cells = [["1-", f"{j}+", f"{j}-"] for j in range(2, n + 1)]
        checks.append(_check("critical-cells", cells == expected_cells, expected_cells, cells))
    else:
        # X = Δ^A ∗ B and Y = Δ^B ∗ A as facet masks over tc's labels
        a = _ladder_side_a(n)
        b = a ^ ((1 << tc.n_vertices) - 1)
        x_facets = [a | 1 << v for v in cx.mask_face(b)]
        y_facets = [b | 1 << u for u in cx.mask_face(a)]
        x, y = cx.SimplicialComplex(tc.labels, x_facets), cx.SimplicialComplex(tc.labels, y_facets)
        union_ok = cx.SimplicialComplex(tc.labels, x_facets + y_facets) == tc
        checks.append(_check("decomposition-union", union_ok, "X u Y = total cut", union_ok))
        # both are cones, X over every vertex of A and Y over every vertex
        # of B, so X u Y is homotopy equivalent to the suspension of X n Y
        for name, part, apexes in (("x-cone-over-a", x, a), ("y-cone-over-b", y, b)):
            found = _cone_apexes(part)
            checks.append(_check(name, found == apexes, list(tc.labels_of_face(apexes)),
                                 list(tc.labels_of_face(found))))
        inter = cx.SimplicialComplex(tc.labels, [p & q for p in x_facets for q in y_facets])
        edges = [1 << u | 1 << v for u in cx.mask_face(a) for v in cx.mask_face(b)]
        skel_ok = inter == cx.SimplicialComplex(tc.labels, edges)
        checks.append(_check("intersection-is-bipartite-skeleton", skel_ok,
                             "1-skeleton of K_{n,n}", skel_ok))
        checks.append(_claim("intersection-wedge-profile", inter, 1, (n - 1) ** 2))
    return checks, digests


def run_thm_4_6(n):
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
        # the paper's pairs: {i s, (i+2) s} is free in its coface with (i+1) o
        pairs = []
        for i in range(1, n + 1):
            for s, o in ("+-", "-+"):
                sigma = nc.face_of_labels([f"{i}{s}", f"{(i + 1) % n + 1}{s}"])
                pairs.append((sigma, sigma | nc.face_of_labels([f"{i % n + 1}{o}"])))
        applied, left = morse.apply_collapses(nc, (), pairs)
        checks.append(_check("stated-free-faces-present", applied == 2 * n, 2 * n, applied))
        checks.append(_claim("collapsed-circle-profile", cx.SimplicialComplex(nc.labels, left), 1))
    else:
        nh = cons.neighborhood_complex(h)
        digests["neighborhood"] = _digest(nh)
        two = len(nh.facets) == 2
        disjoint = two and not (set(nh.facets[0]) & set(nh.facets[1]))
        checks.append(_check("two-disjoint-simplex-facets", two and disjoint, 2, len(nh.facets)))
        checks.append(_claim("neighborhood-profile", nh, 0))
    return checks, digests


def run_thm_4_7(k):
    tc = cons.total_cut_complex(gr.squared_cycle(3 * k + 1), k)
    checks = [_claim("total-cut-sphere-profile", tc, 3)]
    return checks, {"total_cut": _digest(tc)}


def run_thm_4_8(k):
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
    checks.append(_claim("neighborhood-circle-profile", nb, 1))
    return checks, {"neighborhood": _digest(nb)}


def run_ex_4_9(n):
    tc = cons.total_cut_complex(gr.star(n), 2)
    collapsible = _collapsible(tc)
    checks = [_check("star-total-cut-collapsible", collapsible,
                     "collapsible", "collapsible" if collapsible else "unknown", miss="unknown")]
    nb = cons.neighborhood_complex(gr.kneser(n, 2))
    checks.append(_claim("kneser-neighborhood-wedge-profile", nb, n - 4, n * n - 3 * n + 1))
    return checks, {"total_cut": _digest(tc), "neighborhood": _digest(nb)}


def corpus_graph(index: int, seed: int) -> gr.Graph:
    """Erdos-Renyi style corpus member: sizes cycle through 5..9 and the edge
    probability alternates between 0.3 and 0.5; fully determined by
    (index, seed)."""
    rng = random.Random(1_000_003 * seed + index)
    n = 5 + index % 5
    p = 0.3 if index % 2 == 0 else 0.5
    masks = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < p:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return gr.Graph([str(v + 1) for v in range(n)], masks)


def run_prop_4_10(count, seed):
    """The nerve of the full-subcomplex cover of N(I_k(G)) against the total
    cut complex, on a random corpus at k = 2, 3.  The nerve's facets are the
    masks full ^ S over the independent k-sets S that are no isolated vertex
    of I_k(G), and the total cut complex's are full ^ S over all of them, so
    the two are equal exactly when I_k(G) has no isolated vertex.  Each
    instance checks both halves of that law; the check catches a regression
    in those constructors, not a failure of the correspondence.  The metric
    counts the instances where the nerve differs from the total cut
    complex."""
    instances = differ = 0
    failures = []
    for i in range(count):
        g = corpus_graph(i, seed)
        for k in (2, 3):
            if not gr.independent_sets(g, k):
                continue  # alpha(G) < k
            cover = cons.independent_cover(g, k)
            instances += 1
            nerve_cx, tc = cover.nerve(), cons.total_cut_complex(g, k)
            # the base vertices in no face are the isolated vertices of I_k(G)
            unused = ((1 << cover.base.n_vertices) - 1) & ~reduce(or_, cover.base.facet_masks())
            isolated = {cover.held[j] for j in cx.mask_face(unused)}
            equal = nerve_cx == tc
            differ += not equal
            kept = [f for f in tc.facet_masks() if f not in isolated] or [0]
            if list(nerve_cx.facet_masks()) != kept or equal == bool(isolated):
                failures.append({"graph": i, "k": k})
    checks = [_check("nerve-equals-total-cut", not failures,
                     {"instances": instances, "failures": 0},
                     {"instances": instances, "failures": failures})]
    return checks, {}, {"nerve-differs-from-total-cut": differ}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SIZE_CLASSES = ("smoke", "desk", "extended")


class Scenario(Value):
    """``bounds`` maps each parameter to (least, greatest), or None for any
    int; ``jobs`` maps a size class to the jobs it adds to the smaller
    classes."""

    __slots__ = ("id", "runner", "bounds", "jobs", "defaults")

    def __init__(self, id: str, runner, bounds: dict, jobs: dict, defaults: dict | None = None):
        super().__init__(id, runner, bounds, jobs, defaults)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(self.bounds)

    @property
    def class_params(self) -> dict[str, list[dict]]:
        """The parameter dicts each size class runs: its own jobs and those
        of every smaller class."""
        runs, out = [], {}
        for size_class in SIZE_CLASSES:
            runs = out[size_class] = runs + self.jobs.get(size_class, [])
        return out


SCENARIOS: dict[str, Scenario] = {s.id: s for s in (
    Scenario("thm-1-4", run_thm_1_4, {"n": (3, 12), "k": (1, 4)}, {
        "smoke": [{"n": 4, "k": 2}, {"n": 6, "k": 2}, {"n": 3, "k": 2}],
        "desk": [{"n": 7, "k": 2}, {"n": 8, "k": 2}, {"n": 6, "k": 3}, {"n": 8, "k": 3},
                 {"n": 9, "k": 3}, {"n": 5, "k": 3}],
        "extended": [{"n": 10, "k": 2}, {"n": 10, "k": 3}, {"n": 11, "k": 3}, {"n": 12, "k": 4}],
    }),
    Scenario("thm-1-3", run_thm_1_3, {"k": (1, 3), "n": (2, 9)}, {
        "smoke": [{"n": 4, "k": 2}, {"n": 6, "k": 2}],
        "desk": [{"n": 7, "k": 2}, {"n": 8, "k": 2}, {"n": 6, "k": 3}, {"n": 8, "k": 3}],
        "extended": [{"n": 9, "k": 3}],
    }),
    Scenario("thm-3-1", run_thm_3_1, {"k": (1, 3), "n": (3, 9)}, {
        "smoke": [{"n": 6, "k": 2}],
        "desk": [{"n": 4, "k": 2}, {"n": 5, "k": 2}, {"n": 7, "k": 2}, {"n": 8, "k": 2},
                 {"n": 6, "k": 3}, {"n": 7, "k": 3}, {"n": 8, "k": 3}],
        "extended": [{"n": 9, "k": 3}],
    }),
    Scenario("prop-3-3", run_prop_3_3, {"n": (3, 12), "k": (1, 4)}, {
        "smoke": [{"n": 6, "k": 2}],
        "desk": [{"n": 4, "k": 2}, {"n": 5, "k": 2}, {"n": 7, "k": 2}, {"n": 8, "k": 2},
                 {"n": 6, "k": 3}, {"n": 7, "k": 3}, {"n": 8, "k": 3}],
        "extended": [{"n": 10, "k": 2}, {"n": 12, "k": 3}, {"n": 12, "k": 4}],
    }),
    Scenario("thm-4-2", run_thm_4_2, {"n": (3, 5)}, {"smoke": [{"n": 3}], "desk": [{"n": 4}, {"n": 5}]}),
    Scenario("thm-4-3", run_thm_4_3, {"n": (2, 5)}, {
        "smoke": [{"n": 3}], "desk": [{"n": 4}, {"n": 5}], "extended": [{"n": 2}],
    }),
    Scenario("thm-4-4", run_thm_4_4, {"n": (3, 9)}, {
        "smoke": [{"n": 4}, {"n": 5}], "desk": [{"n": 6}, {"n": 7}], "extended": [{"n": 8}, {"n": 9}],
    }),
    Scenario("thm-4-6", run_thm_4_6, {"n": (3, 9)}, {
        "smoke": [{"n": 4}, {"n": 5}], "desk": [{"n": 6}, {"n": 7}], "extended": [{"n": 8}, {"n": 9}],
    }),
    Scenario("thm-4-7", run_thm_4_7, {"k": (3, 5)}, {
        "smoke": [{"k": 3}], "desk": [{"k": 4}], "extended": [{"k": 5}],
    }),
    Scenario("thm-4-8", run_thm_4_8, {"k": (3, 5)}, {
        "smoke": [{"k": 3}], "desk": [{"k": 4}], "extended": [{"k": 5}],
    }),
    Scenario("ex-4-9", run_ex_4_9, {"n": (4, 7)}, {
        "smoke": [{"n": 5}], "desk": [{"n": 4}, {"n": 6}], "extended": [{"n": 7}],
    }),
    # it holds by construction, so one corpus size serves every class
    Scenario("prop-4-10", run_prop_4_10, {"count": (1, 200), "seed": None},
             {"smoke": [{"count": 60, "seed": 2026}]}, defaults={"count": 60, "seed": 2026}),
)}


def run_scenario(scenario_id: str, params: dict | None = None) -> Report:
    if scenario_id not in SCENARIOS:
        raise InvalidParameterError(
            f"unknown scenario {scenario_id!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    scenario = SCENARIOS[scenario_id]
    given = dict(params or {})
    unknown = set(given) - set(scenario.bounds)
    if unknown:
        raise InvalidParameterError(
            f"{scenario_id} does not take parameters {sorted(unknown)}; expects {scenario.param_names}"
        )
    merged = {**(scenario.defaults or {}), **given}
    missing = set(scenario.bounds) - set(merged)
    if missing:
        raise InvalidParameterError(f"{scenario_id} needs parameters {sorted(missing)}")
    for name, value in merged.items():
        if type(value) is not int:  # a bool is no parameter value either
            raise InvalidParameterError(f"{scenario_id} parameter {name!r} must be an integer, got {value!r}")
    for name, bound in scenario.bounds.items():
        value = merged[name]
        if bound and not bound[0] <= value <= bound[1]:
            raise InvalidParameterError(
                f"{scenario_id} guard: {bound[0]} <= {name} <= {bound[1]}, got {name}={value}")
    start = time.perf_counter()
    checks, digests, *metrics = scenario.runner(**merged)
    return Report(scenario_id, merged, checks, digests, time.perf_counter() - start, *metrics)


def run_all(size_class: str = "desk") -> list[Report]:
    if size_class not in SIZE_CLASSES:
        raise InvalidParameterError(f"size class must be one of {SIZE_CLASSES}, got {size_class!r}")
    reports = [run_scenario(sid, p) for sid in sorted(SCENARIOS)
               for p in SCENARIOS[sid].class_params[size_class]]
    reports.sort(key=lambda r: (r.scenario, sorted(r.params.items())))
    return reports


def summary_table(reports: list[Report]) -> str:
    lines = []
    width = max(len(r.scenario) for r in reports) if reports else 10
    for r in reports:
        params = ",".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        lines.append(f"{r.scenario:<{width}}  {params:<24} {r.verdict}")
    return "\n".join(lines)
