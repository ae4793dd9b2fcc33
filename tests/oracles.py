"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: dense matrices, full subset
enumeration, all-permutations search.  Nothing imports the algorithms under
test, so agreement is meaningful evidence.
"""

from __future__ import annotations

import heapq
from itertools import combinations, permutations


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


def to_dense(matrix) -> list[list[int]]:
    """Dense rows of a sparse matrix with ``nrows``, ``ncols`` and a
    ``rows`` map {row: {col: value}}."""
    out = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for r, row in matrix.rows.items():
        for c, v in row.items():
            out[r][c] = v
    return out


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
    (dimension, vertex tuple) on a lazy heap, until one vertex is left or
    no pair is free.  Returns (steps, terminal, verdict) with verdict
    "collapsible" or "unknown"."""
    faces = {f for f in closure_of(facets) if f}
    cof: dict[tuple, set] = {f: set() for f in faces}
    for f in faces:
        for pos in range(len(f)):
            sub = f[:pos] + f[pos + 1:]
            if sub:
                cof[sub].add(f)
    heap = [(len(s), s, next(iter(ts))) for s, ts in cof.items() if len(ts) == 1]
    heapq.heapify(heap)
    steps = []
    while len(faces) > 1 and heap:
        _, sigma, tau = heapq.heappop(heap)
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
                        heapq.heappush(heap, (len(sub), sub, next(iter(cof[sub]))))
    verdict = "collapsible" if len(faces) == 1 else "unknown"
    return tuple(steps), tuple(sorted(faces)), verdict


# ---------------------------------------------------------------------------
# graph oracles
# ---------------------------------------------------------------------------

def filter_independent_sets(n: int, edges, k: int) -> list[tuple[int, ...]]:
    """Independent k-sets by filtering all C(n, k) subsets."""
    edge_set = {frozenset(e) for e in edges}
    out = []
    for c in combinations(range(n), k):
        if all(frozenset(p) not in edge_set for p in combinations(c, 2)):
            out.append(c)
    return out


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
