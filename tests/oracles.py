"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: dense matrices, full subset
enumeration, all-permutations search.  Nothing imports the algorithms under
test, so agreement is meaningful evidence.  The one exception is
``snf_homology``, the full-boundary path that ``reduced_homology`` replaced:
it shares only ``smith_normal_form``, which ``dense_snf`` checks in turn,
and none of the Morse reduction.  ``tuple_strong_collapse`` is likewise the
tuple-and-set strong collapse that the bitmask one replaced, and
``recursive_independent_sets`` and ``pair_scan_k_independent`` the
recursive enumeration and the O(N^2) pair scan that the flat enumeration
and the holder-mask adjacency of I_k(G) replaced, and ``v_path_cycle`` the
depth-first V-path search that the peel in ``morse.critical_cells``
replaced.  ``FullCover`` builds
the full-subcomplex cover of N(I_k(G)) from the k-subsets, on frozensets,
and its intersections by brute-force closure.  The complex
operations ``cone``, ``suspension``, ``link`` and ``skeleton`` and the face
counts, and ``facet_label_family``, which compares complexes by their
facets' labels, build test inputs and expected values on top of
``complexes``; no code under test calls them.  Nor does it call the named complexes
``void_complex``, ``empty_complex``, ``full_simplex``, ``simplex_boundary`` and
``discrete_points``, which build their masks directly, nor ``from_facets``
and ``join``, which build complexes from vertex tuples and as joins.  ``graph_of_edges``
builds a ``Graph`` from an edge list, which the library itself never does,
and the ``*_edges`` functions give the edge-list definitions of the graph
families and of the draw of ``verify.corpus_graph``, which the graphs built
from masks are checked against.  ``clique_facets`` lists a clique complex
from an edge list by testing every vertex subset, and
``alexander_dual_homology`` turns its ``brute_homology`` into that of its
Alexander dual, which for the clique complex of G is the total cut complex
Δ_2^t(G).
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations, permutations

from cutnerve import complexes as cx
from cutnerve.errors import InvalidParameterError
from cutnerve.graphs import Graph
from cutnerve.homology import HomologyProfile, SparseIntMatrix, smith_normal_form


# ---------------------------------------------------------------------------
# dense textbook Smith normal form
# ---------------------------------------------------------------------------

def dense_snf(matrix: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix, textbook
    elimination with minimal-absolute-value pivoting."""
    a = [row[:] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    diag = []
    while True:
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            # reduce column
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        done = False
            if not done:
                continue
            # reduce row
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        done = False
            if done:
                break
        diag.append(abs(a[t][t]))
        t += 1
        if t >= m or t >= n:
            # leftover block may still be nonzero
            leftover = any(a[i][j] for i in range(t, m) for j in range(t, n))
            assert not leftover
            break
    # enforce divisibility
    changed = True
    while changed:
        changed = False
        for x in range(len(diag)):
            for y in range(x + 1, len(diag)):
                if diag[y] % diag[x]:
                    from math import gcd

                    g = gcd(diag[x], diag[y])
                    diag[x], diag[y] = g, diag[x] * diag[y] // g
                    changed = True
    return tuple(sorted(d for d in diag if d))


# ---------------------------------------------------------------------------
# homology from full boundary matrices, via the sparse SNF
# ---------------------------------------------------------------------------

def divisibility_chain(values) -> tuple[int, ...]:
    """The invariant factors of the nonzero ``values`` by prime exponents:
    each prime's exponents, sorted ascending and right-aligned, give its
    power in d_1 | d_2 | ... ."""
    vals = [abs(v) for v in values if v]
    chain = [1] * len(vals)
    primes = {p for v in vals for p in range(2, v + 1) if v % p == 0 and all(p % q for q in range(2, p))}
    for p in primes:
        exps = []
        for v in vals:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            exps.append(e)
        for i, e in enumerate(sorted(exps)):
            chain[i] *= p ** e
    return tuple(chain)


def boundary_matrix(c, d: int):
    """The boundary operator of a ``SimplicialComplex`` from d-chains to
    (d-1)-chains, with the orientation induced by sorted vertex order.
    Degree 0 maps vertices onto the empty face (the augmentation), which is
    what makes the homology reduced."""
    if c.void:
        raise InvalidParameterError("boundary matrices are undefined on the void complex")
    return boundary_from_faces(faces_by_dim(c), d)


def faces_by_dim(c) -> dict[int, list]:
    """The faces of a ``SimplicialComplex``, grouped by dimension, each
    group in lexicographic order."""
    by_dim: dict[int, list] = {}
    for f in c.all_faces():
        by_dim.setdefault(len(f) - 1, []).append(f)
    return by_dim


def boundary_from_faces(by_dim: dict[int, list], d: int):
    lower = by_dim.get(d - 1, [])
    upper = by_dim.get(d, [])
    m = SparseIntMatrix(len(lower), len(upper))
    index = {f: i for i, f in enumerate(lower)}
    rows, cols = m.rows, m.cols
    for c, f in enumerate(upper):
        for pos in range(len(f)):
            r = index[f[:pos] + f[pos + 1:]]
            v = -1 if pos % 2 else 1
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
    return m


def snf_homology(c) -> HomologyProfile:
    """Reduced homology of a ``SimplicialComplex`` from the Smith normal
    form of every boundary matrix of its closure."""
    if c.void:
        return HomologyProfile(void=True)
    by_dim = faces_by_dim(c)
    top = max(by_dim)
    invariants = {d: smith_normal_form(boundary_from_faces(by_dim, d)) for d in range(top + 1)}
    invariants[top + 1] = ()
    free = [
        len(by_dim[d]) - len(invariants.get(d, ())) - len(invariants[d + 1])
        for d in range(-1, top + 1)
    ]
    torsion = []
    for d in range(top):
        coeffs = tuple(v for v in invariants[d + 1] if v > 1)
        if coeffs:
            torsion.append((d, coeffs))
    return HomologyProfile(
        betti=tuple(_trim(free[1:])), torsion=tuple(torsion), minus_one_rank=free[0]
    )


def to_dense(matrix) -> list[list[int]]:
    """Dense rows of a sparse matrix with ``nrows``, ``ncols`` and a
    ``rows`` map {row: {col: value}}."""
    out = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for r, row in matrix.rows.items():
        for c, v in row.items():
            out[r][c] = v
    return out


# ---------------------------------------------------------------------------
# named complexes, complex operations and face counts
# ---------------------------------------------------------------------------

def from_facets(labels, faces):
    """The complex generated by the vertex tuples ``faces``, each in any
    order and a repeated vertex counted once: [] gives the void complex and
    [()] the empty complex."""
    return cx.SimplicialComplex(labels, [sum(1 << v for v in set(f)) for f in faces])


def join(a, b):
    """A * B on the labels of A followed by those of B, which must be
    disjoint: its facets are the unions of a facet of each, so a join with
    the void complex is void."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise InvalidParameterError(f"join requires disjoint labels, shared: {sorted(overlap)}")
    off = a.n_vertices
    masks = [fa | fb << off for fa in a.facet_masks() for fb in b.facet_masks()]
    return cx.SimplicialComplex(a.labels + b.labels, masks)


def nonzero_betti(profile) -> dict[int, int]:
    """The nonzero free ranks of a homology profile by degree."""
    return {d: b for d, b in enumerate(profile.betti) if b}


def void_complex(labels=()):
    return cx.SimplicialComplex(labels, [])


def empty_complex(labels=()):
    return cx.SimplicialComplex(labels, [0])


def full_simplex(labels):
    labels = tuple(labels)
    return cx.SimplicialComplex(labels, [(1 << len(labels)) - 1])


def simplex_boundary(labels):
    """Boundary of the full simplex on the given labels."""
    labels = tuple(labels)
    if not labels:
        raise InvalidParameterError("boundary needs at least one vertex")
    full = (1 << len(labels)) - 1
    return cx.SimplicialComplex(labels, [full ^ 1 << v for v in range(len(labels))])


def discrete_points(labels):
    """One vertex per label; the empty complex on no labels."""
    labels = tuple(labels)
    return cx.SimplicialComplex(labels, [0] + [1 << v for v in range(len(labels))])


def facet_label_family(c) -> frozenset:
    """The facets as label sets, so complexes over different grounds or
    label orders compare."""
    return frozenset(frozenset(c.labels[v] for v in f) for f in c.facets)


def has_vertices(c) -> bool:
    """True when the complex contains at least one nonempty face."""
    return c.facet_masks() not in ((), (0,))


def face_count(c) -> int:
    """Every face of the closure, the empty face included."""
    return len(c.all_faces())


def euler_characteristic_reduced(c) -> int:
    """chi~ = -1 + sum_{d>=0} (-1)^d f_d; 0 for the void complex."""
    # position i of the f-vector counts faces of dimension i - 1; the sign
    # stays an int (``(-1) ** -1`` would be the float -1.0)
    return sum(count if i % 2 else -count for i, count in enumerate(c.f_vector()))


def cone(a, apex: str):
    if apex in a.labels:
        raise InvalidParameterError(f"apex label {apex!r} already a vertex")
    return join(a, full_simplex([apex]))


def suspension(a, poles: tuple[str, str] = ("susp+", "susp-")):
    lo, hi = poles
    if lo == hi:
        raise InvalidParameterError("suspension poles must differ")
    for p in poles:
        if p in a.labels:
            raise InvalidParameterError(f"pole label {p!r} already a vertex")
    return join(a, discrete_points(poles))


def link(a, face):
    """Link of a face: tau with tau disjoint from sigma and sigma U tau a face."""
    sigma = tuple(sorted(set(face)))
    if sigma not in a.all_faces():
        raise InvalidParameterError(f"{sigma} is not a face of the complex")
    s = cx.face_mask(sigma)
    return cx.SimplicialComplex(a.labels, [f ^ s for f in a.facet_masks() if f & s == s])


def skeleton(a, d: int):
    """All faces of dimension at most d."""
    if d < -1:
        raise InvalidParameterError(f"skeleton dimension must be >= -1, got {d}")
    if a.void:
        return void_complex(a.labels)
    return from_facets(a.labels, [c for f in a.facets for c in combinations(f, min(len(f), d + 1))])


# ---------------------------------------------------------------------------
# homology from facet lists, via the dense SNF
# ---------------------------------------------------------------------------

def closure_of(facets) -> set[tuple[int, ...]]:
    """Downward closure including the empty face."""
    faces: set[tuple[int, ...]] = set()
    for f in facets:
        f = tuple(sorted(set(f)))
        for r in range(len(f) + 1):
            faces.update(combinations(f, r))
    return faces


def brute_homology(facets) -> dict:
    """Reduced homology: {"betti": {d: rank}, "torsion": {d: [coeffs]}}.

    Uses the augmented chain complex (vertices map onto the empty face) and
    the dense SNF above.  Intended for small complexes only."""
    faces = closure_of(facets)
    if not faces:
        return {"betti": {}, "torsion": {}, "minus_one": 0}
    by_dim: dict[int, list] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for d in by_dim:
        by_dim[d].sort()
    top = max(by_dim)
    if top == -1:
        return {"betti": {}, "torsion": {}, "minus_one": 1}
    ranks = {0: 1}
    snfs = {}
    for d in range(1, top + 1):
        lower = by_dim.get(d - 1, [])
        upper = by_dim.get(d, [])
        index = {f: i for i, f in enumerate(lower)}
        dense = [[0] * len(upper) for _ in range(len(lower))]
        for c, f in enumerate(upper):
            for pos in range(len(f)):
                dense[index[f[:pos] + f[pos + 1:]]][c] = -1 if pos % 2 else 1
        inv = dense_snf(dense) if lower and upper else ()
        snfs[d] = inv
        ranks[d] = len(inv)
    ranks[top + 1] = 0
    betti = {}
    torsion = {}
    for d in range(top + 1):
        b = len(by_dim.get(d, [])) - ranks[d] - ranks[d + 1]
        if b:
            betti[d] = b
        coeffs = [v for v in snfs.get(d + 1, ()) if v > 1]
        if coeffs:
            torsion[d] = coeffs
    return {"betti": betti, "torsion": torsion, "minus_one": 0}


def clique_facets(n: int, edges) -> list[tuple[int, ...]]:
    """The clique complex of the graph on range(n) with the index pairs
    ``edges``: every vertex set whose members are pairwise adjacent, the
    empty set included, found by testing each of the 2^n subsets."""
    edge_set = {frozenset(e) for e in edges}
    return [s for r in range(n + 1) for s in combinations(range(n), r)
            if all(frozenset(p) in edge_set for p in combinations(s, 2))]


def alexander_dual_homology(h: dict, n: int) -> HomologyProfile:
    """The reduced homology of the Alexander dual {sigma : V - sigma not in
    K} of a complex K on n vertices, neither void nor the full simplex, from
    K's ``brute_homology``.  By Alexander duality H~_i of the dual is
    H~^(n-i-3)(K), and by universal coefficients that has the free rank of
    H~_(n-i-3)(K) and the torsion of H~_(n-i-4)(K)."""
    ranks = {-1: h["minus_one"], **h["betti"]}
    torsion = h["torsion"]
    return HomologyProfile(
        betti=tuple(_trim([ranks.get(n - i - 3, 0) for i in range(n)])),
        torsion=tuple((i, tuple(torsion[n - i - 4])) for i in range(-1, n) if n - i - 4 in torsion),
        minus_one_rank=ranks.get(n - 2, 0),
    )


def free_ranks(profile) -> list[int]:
    """Free ranks of a homology profile (anything with ``minus_one_rank``
    and ``betti``) from degree -1 up, trailing zeros dropped."""
    return _trim([profile.minus_one_rank, *profile.betti])


def join_ranks(ranks_a, ranks_b) -> list[int]:
    """Free ranks of the reduced homology of a join A * B from those of A
    and B, each listed from degree -1 up: the empty complex is [1] and two
    points are [0, 1].

    The join is the suspension of the smash product, so by the Kunneth
    formula rank H~_r(A * B) is the sum over p + q = r - 1 of
    rank H~_p(A) * rank H~_q(B); torsion in a factor adds only torsion.
    Listed from degree -1, that is a plain convolution."""
    out = [0] * (len(ranks_a) + len(ranks_b))
    for i, a in enumerate(ranks_a):
        for j, b in enumerate(ranks_b):
            out[i + j] += a * b
    return _trim(out)


def _trim(ranks: list[int]) -> list[int]:
    while ranks and ranks[-1] == 0:
        ranks.pop()
    return ranks


# ---------------------------------------------------------------------------
# collapse search without strong collapses
# ---------------------------------------------------------------------------

def descent_collapse(facets):
    """The plain collapse descent: repeatedly take the least free pair by
    (dimension, mask) on a lazy heap, the mask of a face being the sum of
    2^v over its vertices v, until one vertex is left or no pair is free.
    Returns (steps, terminal, verdict) with verdict "collapsible" or
    "unknown"."""
    faces = {f for f in closure_of(facets) if f}
    cof: dict[tuple, set] = {f: set() for f in faces}
    for f in faces:
        for pos in range(len(f)):
            sub = f[:pos] + f[pos + 1:]
            if sub:
                cof[sub].add(f)
    def entry(s):
        return len(s), sum(1 << v for v in s), s, next(iter(cof[s]))

    heap = [entry(s) for s, ts in cof.items() if len(ts) == 1]
    heapq.heapify(heap)
    steps = []
    while len(faces) > 1 and heap:
        _, _, sigma, tau = heapq.heappop(heap)
        if sigma not in faces or cof[sigma] != {tau}:
            continue
        steps.append((sigma, tau))
        faces.discard(sigma)
        faces.discard(tau)
        for g in (sigma, tau):
            for pos in range(len(g)):
                sub = g[:pos] + g[pos + 1:]
                if sub in faces:
                    cof[sub].discard(g)
                    if len(cof[sub]) == 1:
                        heapq.heappush(heap, entry(sub))
    verdict = "collapsible" if len(faces) == 1 else "unknown"
    return tuple(steps), tuple(sorted(faces)), verdict


# ---------------------------------------------------------------------------
# strong collapses and antichains on tuples and sets
# ---------------------------------------------------------------------------

def tuple_strong_collapse(facets, dominations: list) -> list[tuple]:
    """The strong collapses on tuples and index sets: remove dominated
    vertices from the facet list until none is left, appending (v, w) to
    ``dominations`` for each; return the core's facets.

    Vertex v is dominated by w != v when w lies in every facet through v.
    The least dominated v goes first, with its least dominating w; the
    facets through v then lose v, and a link that lies in a remaining facet
    is no longer maximal."""
    facets = dict(enumerate(facets))
    through: dict[int, set] = {}
    for i, f in facets.items():
        for u in f:
            through.setdefault(u, set()).add(i)
    next_id = len(facets)
    # only a removal changes whether a vertex is dominated, and only for the
    # vertices of the removed star, so each is checked again only then
    pending = set(through)
    while pending:
        v = min(pending)
        pending.discard(v)
        ids = through[v]
        w = next(
            (u for u in facets[next(iter(ids))] if u != v and ids <= through[u]),
            None,
        )
        if w is None:
            continue
        dominations.append((v, w))
        del through[v]
        links = []
        for i in ids:
            f = facets.pop(i)
            for u in f:
                if u != v:
                    through[u].discard(i)
                    pending.add(u)
            links.append(tuple(u for u in f if u != v))
        for g in sorted(links, key=len, reverse=True):
            if not set.intersection(*(through[u] for u in g)):
                facets[next_id] = g
                for u in g:
                    through[u].add(next_id)
                next_id += 1
    return list(facets.values())


def brute_antichain(faces) -> list[tuple[int, ...]]:
    """Inclusion-maximal members of ``faces`` as sorted tuples, by comparing
    every pair of vertex sets."""
    sets = {frozenset(f) for f in faces}
    return sorted(tuple(sorted(s)) for s in sets if not any(s < t for t in sets))


# ---------------------------------------------------------------------------
# element matching on the closure
# ---------------------------------------------------------------------------

def closure_element_matching(c, vertices, pairs=()) -> tuple:
    """The element matching of the complex ``c`` over the vertex indices
    ``vertices`` in turn, extending the matched pairs ``pairs``: each vertex
    v pairs every unmatched face sigma without v with sigma + v when that
    face is unmatched too, scanning sigma in (dimension, vertex tuple) order
    over the whole closure.  Returns the pairs sorted by (dimension, lower
    face)."""
    faces = closure_of(c.facets)
    order = sorted(faces, key=lambda f: (len(f), f))
    pairs = list(pairs)
    taken = {f for pair in pairs for f in pair}
    for v in vertices:
        for sigma in order:
            if v in sigma or sigma in taken:
                continue
            tau = tuple(sorted(sigma + (v,)))
            if tau in faces and tau not in taken:
                pairs.append((sigma, tau))
                taken.update((sigma, tau))
    return tuple(sorted(pairs, key=lambda p: (len(p[0]), p[0])))


def v_path_cycle(c, pairs):
    """The depth-first V-path search that ``morse.critical_cells``'s peel
    replaced.  Each pair must be a covering pair (sigma, sigma + v) of faces
    of the complex ``c``, tested against its facets, and no face may lie in
    two pairs; ValueError otherwise.

    V-paths live inside one dimension layer: from an up-matched face sigma
    step to any other facet of its matched coface that is up-matched too.
    Returns None when no V-path closes a cycle, else one cycle, whose faces
    alternate lower and upper faces of the pairs."""
    up: dict[int, int] = {}
    matched: set[int] = set()
    for s, t in pairs:
        if s & t != s or (s ^ t).bit_count() != 1:
            raise ValueError(f"({cx.mask_face(s)}, {cx.mask_face(t)}) is not a covering pair")
        if t not in map(t.__and__, c.facet_masks()):
            raise ValueError(f"pair ({cx.mask_face(s)}, {cx.mask_face(t)}) uses faces outside the complex")
        for f in (s, t):
            if f in matched:
                raise ValueError(f"face {cx.mask_face(f)} appears in two pairs")
            matched.add(f)
        up[s] = t

    def neighbors(s):
        tau = rest = up[s]
        out = []
        while rest:
            low = rest & -rest
            rest ^= low
            if tau ^ low != s and tau ^ low in up:
                out.append(tau ^ low)
        return out

    # a face is on ``path`` (True) or done (False)
    on_path: dict[int, bool] = {}
    for start in up:
        if start in on_path:
            continue
        on_path[start] = True
        path, its = [start], [iter(neighbors(start))]
        while path:
            nxt = next(its[-1], None)
            if nxt is None:
                on_path[path.pop()] = False
                its.pop()
            elif on_path.get(nxt):
                # a back edge closes the loop from nxt along the path
                return [f for s in path[path.index(nxt):] for f in (s, up[s])]
            elif nxt not in on_path:
                on_path[nxt] = True
                path.append(nxt)
                its.append(iter(neighbors(nxt)))
    return None


# ---------------------------------------------------------------------------
# the full-subcomplex cover of N(I_k(G)), from first principles
# ---------------------------------------------------------------------------

class FullCover:
    """The cover of N(I_k(G)) by full subcomplexes on frozensets: the base
    vertices are the independent k-sets, found by filtering all k-subsets,
    and W_v holds the sets that avoid the graph vertex v, found by scanning
    them."""

    def __init__(self, n: int, edges, k: int):
        self.sets = [frozenset(s) for s in filter_independent_sets(n, edges, k)]
        self.parts = [frozenset(j for j, s in enumerate(self.sets) if v not in s) for v in range(n)]
        # the facets of N(I_k(G)) to be: N(S), the sets disjoint from S
        self.neighborhoods = [frozenset(j for j, t in enumerate(self.sets) if not s & t) for s in self.sets]
        self._closure = None

    def meet(self, idx) -> frozenset:
        """W_I: the sets that every part of ``idx`` holds."""
        return frozenset.intersection(*(self.parts[v] for v in idx))

    def intersection_faces(self, idx) -> set[tuple[int, ...]]:
        """Every face of the intersection over ``idx``: the brute-force
        closure of N(I_k(G)), restricted to the faces inside W_I."""
        if self._closure is None:
            self._closure = closure_of(self.neighborhoods)
        w = self.meet(idx)
        return {f for f in self._closure if w.issuperset(f)}

    def intersection_facets(self, idx) -> list[tuple[int, ...]]:
        """The facets of the same complex, the maximal sets N(S) & W_I, for
        bases whose closure is too large to list."""
        w = self.meet(idx)
        return brute_antichain(nb & w for nb in self.neighborhoods)

    def nerve_facets(self) -> list[tuple[int, ...]]:
        """The maximal sets of parts that share a base vertex lying in a
        face of N(I_k(G)); [()] when no base vertex does."""
        used = frozenset().union(*self.neighborhoods)
        return brute_antichain([tuple(v for v, w in enumerate(self.parts) if t in w) for t in used] or [()])


def orbit_closure(mask: int, perms) -> frozenset[int]:
    """The orbit of the bitmask ``mask`` under the group the permutations
    ``perms`` generate: every permutation applied to the whole set until it
    stops growing."""
    orbit = {mask}
    while True:
        grown = orbit | {cx.permute_mask(m, perm) for m in orbit for perm in perms}
        if grown == orbit:
            return frozenset(orbit)
        orbit = grown


# ---------------------------------------------------------------------------
# graph oracles
# ---------------------------------------------------------------------------

def graph_of_edges(labels, edges) -> Graph:
    """The graph on ``labels`` with the index pairs ``edges``, each pair in
    either order and repeats allowed."""
    masks = [0] * len(labels)
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return Graph(labels, masks)


def _numbered(n: int) -> list[str]:
    return [str(i + 1) for i in range(n)]


def _two_level(n: int) -> list[str]:
    """i+ is vertex 2(i - 1) and i- vertex 2(i - 1) + 1."""
    return [f"{i}{s}" for i in range(1, n + 1) for s in "+-"]


def cycle_edges(n: int):
    return _numbered(n), [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n: int):
    return _numbered(n), list(combinations(range(n), 2))


def star_edges(n: int):
    """Centre "c" joined to the leaves 1..n."""
    return ["c"] + _numbered(n), [(0, i) for i in range(1, n + 1)]


def squared_cycle_edges(n: int):
    """The n-cycle plus the chords between vertices two apart."""
    return _numbered(n), [(i, (i + d) % n) for d in (1, 2) for i in range(n)]


def prism_edges(n: int):
    """K_n on the i+, K_n on the i-, and the rungs i+ i-."""
    levels = [(2 * i + s, 2 * j + s) for i, j in combinations(range(n), 2) for s in (0, 1)]
    return _two_level(n), levels + [(2 * i, 2 * i + 1) for i in range(n)]


def circular_ladder_edges(n: int):
    """The n-cycle on the i+, the n-cycle on the i-, and the rungs i+ i-."""
    cycles = [(2 * i + s, 2 * ((i + 1) % n) + s) for i in range(n) for s in (0, 1)]
    return _two_level(n), cycles + [(2 * i, 2 * i + 1) for i in range(n)]


def corpus_edges(index: int, seed: int):
    """The draw of ``verify.corpus_graph``: on n = 5 + index % 5 vertices,
    each pair in lexicographic order is an edge when its one random draw
    falls below p = 0.3 (even index) or 0.5 (odd index)."""
    rng = random.Random(1_000_003 * seed + index)
    n = 5 + index % 5
    p = 0.3 if index % 2 == 0 else 0.5
    return _numbered(n), [e for e in combinations(range(n), 2) if rng.random() < p]


def filter_independent_sets(n: int, edges, k: int) -> list[tuple[int, ...]]:
    """Independent k-sets by filtering all C(n, k) subsets."""
    edge_set = {frozenset(e) for e in edges}
    out = []
    for c in combinations(range(n), k):
        if all(frozenset(p) not in edge_set for p in combinations(c, 2)):
            out.append(c)
    return out


def recursive_independent_sets(masks, k: int) -> list[tuple[int, ...]]:
    """Independent k-sets of the graph with neighbour masks ``masks``, in
    lexicographic order, by one recursive call per prefix: the least
    candidate first, each choice dropping its neighbours, while enough
    candidates remain."""
    out = []

    def extend(prefix: tuple, cand: int):
        if len(prefix) == k:
            out.append(prefix)
            return
        while cand.bit_count() >= k - len(prefix):
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            extend(prefix + (v,), cand & ~masks[v])

    extend((), (1 << len(masks)) - 1)
    return out


def pair_scan_k_independent(labels, masks, k: int):
    """I_k of the graph with vertex labels ``labels`` and neighbour masks
    ``masks``, as (labels, edges): the independent k-sets from
    ``recursive_independent_sets``, labelled "{a,b}" in index order, and an
    edge for each disjoint pair found by scanning all pairs."""
    sets = recursive_independent_sets(masks, k)
    set_masks = [sum(1 << v for v in s) for s in sets]
    edges = [(a, b) for a, b in combinations(range(len(sets)), 2) if not set_masks[a] & set_masks[b]]
    return ["{" + ",".join(labels[v] for v in s) + "}" for s in sets], edges


def is_two_stable(subset, n: int) -> bool:
    """No two elements of the subset of [n] are neighbours on the n-cycle:
    every pair x < y has 2 <= y - x <= n - 2."""
    return all(2 <= y - x <= n - 2 for x, y in combinations(sorted(subset), 2))


def kneser_reference(n: int, k: int, stable: bool):
    """SG(n, k) when ``stable``, else KG(n, k), as (labels, edges): the
    2-stable (or all) k-subsets of [n] in lexicographic order, labelled
    "{1,3}", with an edge between each two disjoint ones."""
    subsets = [c for c in combinations(range(1, n + 1), k) if not stable or is_two_stable(c, n)]
    labels = ["{" + ",".join(map(str, c)) + "}" for c in subsets]
    edges = [
        (i, j) for i, j in combinations(range(len(subsets)), 2)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return labels, edges


def exists_permutation_isomorphism(n, edges_g, edges_h) -> bool:
    """All-permutations isomorphism oracle on edge sets over range(n)."""
    eg = {frozenset(e) for e in edges_g}
    eh = {frozenset(e) for e in edges_h}
    if len(eg) != len(eh):
        return False
    for perm in permutations(range(n)):
        if {frozenset((perm[a], perm[b])) for a, b in eg} == eh:
            return True
    return False


def ladder_rule_witness(g, h) -> dict[int, int]:
    """The rule map from h = I_{n-1}(CL_n) to g = CL_n for odd n, read off
    the labels: a set "{1+,2-,...}" that misses rung i goes to the vertex of
    rung i on the side that the set takes at rung i + 1."""
    n = g.n // 2
    witness = {}
    for a, label in enumerate(h.labels):
        side = {m[:-1]: m[-1] for m in label.strip("{}").split(",")}
        i = next(r for r in range(1, n + 1) if str(r) not in side)
        witness[a] = g.labels.index(f"{i}{side[str(i % n + 1)]}")
    return witness


RP2_FACETS = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]
