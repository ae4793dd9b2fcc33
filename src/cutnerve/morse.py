"""Discrete Morse matchings, elementary collapses, and collapsibility search.

The face poset includes the empty face: it is covered by every vertex, so a
perfect matching on a full simplex pairs the empty face with the apex and no
artificial critical 0-cell survives.  Reported critical cells and free faces
exclude the empty face; collapses stop at a single vertex.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect
from dataclasses import dataclass
from itertools import combinations

from .complexes import SimplicialComplex, from_facets
from .errors import (
    InvalidCollapseError,
    InvalidMatchingError,
    InvalidParameterError,
    VoidComplexError,
)


class Matching:
    """A partial matching on covering pairs (sigma, sigma + {v}) of the face
    poset; no face belongs to two pairs."""

    __slots__ = ("pairs", "_partner")

    def __init__(self, pairs):
        partner: dict[tuple, tuple] = {}
        canon = []
        for sigma, tau in pairs:
            sigma, tau = tuple(sigma), tuple(tau)
            if len(tau) != len(sigma) + 1 or not set(sigma) < set(tau):
                raise InvalidMatchingError(f"({sigma}, {tau}) is not a covering pair")
            for f in (sigma, tau):
                if f in partner:
                    raise InvalidMatchingError(f"face {f} appears in two pairs")
            partner[sigma] = tau
            partner[tau] = sigma
            canon.append((sigma, tau))
        canon.sort(key=lambda p: (len(p[0]), p[0]))
        object.__setattr__(self, "pairs", tuple(canon))
        object.__setattr__(self, "_partner", partner)

    def __setattr__(self, name, value):
        raise AttributeError("Matching is immutable")

    def __len__(self):
        return len(self.pairs)

    def is_matched(self, face) -> bool:
        return tuple(face) in self._partner

    def partner(self, face):
        return self._partner.get(tuple(face))

    def matched_up(self, face):
        """The coface this face is matched with, if it is the lower face."""
        p = self._partner.get(tuple(face))
        if p is not None and len(p) == len(face) + 1:
            return p
        return None


def _resolve_vertex(cx: SimplicialComplex, v) -> int:
    if isinstance(v, str):
        if v not in cx.labels:
            raise InvalidParameterError(f"unknown vertex {v!r}")
        return cx.labels.index(v)
    if not (0 <= v < cx.n_vertices):
        raise InvalidParameterError(f"vertex index {v} out of range")
    return v


def element_matching(cx: SimplicialComplex, v, matching: Matching | None = None) -> Matching:
    """Extend ``matching`` by pairing sigma with sigma + {v} wherever both
    are faces and both are still unmatched.  The result does not depend on
    the processing order for a fixed v."""
    return _extend_matching(cx, [v], matching)


def element_matching_sequence(cx: SimplicialComplex, vertices) -> Matching:
    return _extend_matching(cx, vertices, None)


def _extend_matching(cx: SimplicialComplex, vertices, matching: Matching | None) -> Matching:
    """Apply ``element_matching`` for each vertex in turn, building the face
    set and its (dimension, face) order once for the whole sequence."""
    vis = [_resolve_vertex(cx, v) for v in vertices]
    faces = cx.all_faces()
    face_set = set(faces)
    order = sorted(faces, key=lambda f: (len(f), f))
    pairs = list(matching.pairs) if matching else []
    taken = {f for pair in pairs for f in pair}
    for vi in vis:
        for sigma in order:
            if vi in sigma or sigma in taken:
                continue
            tau = tuple(sorted(sigma + (vi,)))
            if tau in face_set and tau not in taken:
                pairs.append((sigma, tau))
                taken.add(sigma)
                taken.add(tau)
    return Matching(pairs)


def is_acyclic(cx: SimplicialComplex, matching: Matching):
    """Check the modified Hasse diagram for directed cycles.

    V-paths live inside one dimension layer: from an up-matched d-face sigma
    step to any other d-face of its matched coface.  Returns (True, None) or
    (False, cycle) where the cycle alternates lower and upper faces."""
    faces = set(cx.all_faces())
    for s, t in matching.pairs:
        if s not in faces or t not in faces:
            raise InvalidMatchingError(f"pair ({s}, {t}) uses faces outside the complex")
    by_dim: dict[int, list[tuple]] = {}
    for s, t in matching.pairs:
        by_dim.setdefault(len(s), []).append(s)
    for d, nodes in sorted(by_dim.items()):
        up = {s: matching.matched_up(s) for s in nodes}
        color: dict[tuple, int] = {}
        parent: dict[tuple, tuple] = {}

        def neighbors(s):
            tau = up[s]
            out = []
            for pos in range(len(tau)):
                s2 = tau[:pos] + tau[pos + 1:]
                if s2 != s and s2 in up:
                    out.append(s2)
            return out

        for start in nodes:
            if color.get(start):
                continue
            stack = [(start, iter(neighbors(start)))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color.get(nxt) == 1:
                        # back edge: walk parents to reconstruct the loop
                        cyc = [nxt]
                        cur = node
                        while cur != nxt:
                            cyc.append(cur)
                            cur = parent[cur]
                        cyc.reverse()
                        witness = []
                        for s in cyc:
                            witness.append(s)
                            witness.append(up[s])
                        return False, witness
                    if color.get(nxt) is None:
                        color[nxt] = 1
                        parent[nxt] = node
                        stack.append((nxt, iter(neighbors(nxt))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
    return True, None


def critical_cells(cx: SimplicialComplex, matching: Matching) -> list[tuple]:
    """Unmatched nonempty faces, sorted by (dimension, vertex tuple)."""
    ok, witness = is_acyclic(cx, matching)
    if not ok:
        raise InvalidMatchingError(f"matching contains a directed cycle: {witness}")
    out = [
        f
        for f in cx.all_faces()
        if f and not matching.is_matched(f)
    ]
    out.sort(key=lambda f: (len(f), f))
    return out


# ---------------------------------------------------------------------------
# collapses
# ---------------------------------------------------------------------------

def _coface_map(faces: set) -> dict[tuple, set]:
    cof: dict[tuple, set] = {f: set() for f in faces}
    for f in faces:
        if len(f) >= 2:
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1:]
                if sub in cof:
                    cof[sub].add(f)
    return cof


def free_faces(cx: SimplicialComplex) -> list[tuple[tuple, tuple]]:
    """All pairs (sigma, tau) where the nonempty face sigma lies in exactly
    one other face, its unique coface tau of one dimension higher."""
    if cx.is_void():
        raise VoidComplexError("free faces are undefined on the void complex")
    faces = {f for f in cx.all_faces() if f}
    cof = _coface_map(faces)
    out = [(s, next(iter(ts))) for s, ts in cof.items() if len(ts) == 1]
    out.sort(key=lambda p: (len(p[0]), p[0]))
    return out


def _remove_pair(faces: set, cof: dict, sigma, tau) -> list[tuple]:
    """Remove the free pair (sigma, tau) from ``faces`` and from the coface
    sets of their facets.  Returns the faces whose coface sets shrank."""
    faces.discard(sigma)
    faces.discard(tau)
    touched = []
    for g in (sigma, tau):
        if len(g) >= 2:
            for pos in range(len(g)):
                sub = g[:pos] + g[pos + 1:]
                if sub in faces:
                    cof[sub].discard(g)
                    touched.append(sub)
    return touched


def _collapse_interval(faces: set, cof: dict, sigma, tau):
    """Remove {gamma : sigma <= gamma <= tau} as pair steps: fix a vertex e
    of tau - sigma and pair each gamma from sigma up to tau - {e} with
    gamma + {e}, largest gamma first, checking each pair free."""
    if sigma not in faces or tau not in faces:
        raise InvalidCollapseError(f"({sigma}, {tau}): not faces of the complex")
    if not set(sigma) < set(tau):
        raise InvalidCollapseError(f"({sigma}, {tau}): not a nested pair")
    *extra, e = (v for v in tau if v not in sigma)
    for r in range(len(extra), -1, -1):
        for add in combinations(extra, r):
            gamma = tuple(sorted(sigma + add))
            up = tuple(sorted(gamma + (e,)))
            if cof[gamma] != {up}:
                other = min(cof[gamma] - {up})
                raise InvalidCollapseError(f"{sigma} is not free: also contained in {other}")
            _remove_pair(faces, cof, gamma, up)


@dataclass(frozen=True)
class CollapseWitness:
    """A replayable sequence of elementary collapses.

    ``verdict`` is "collapsible" when the terminal subcomplex is a single
    vertex, otherwise "unknown" (the search is a semi-decision)."""

    steps: tuple[tuple[tuple, tuple], ...]
    terminal: tuple[tuple, ...]
    verdict: str

    @property
    def steps_tried(self) -> int:
        return len(self.steps)

    def is_collapsible(self) -> bool:
        return self.verdict == "collapsible"

    def to_json(self, cx: SimplicialComplex) -> str:
        doc = {
            "verdict": self.verdict,
            "steps_tried": self.steps_tried,
            "steps": [
                [list(cx.labels_of_face(s)), list(cx.labels_of_face(t))]
                for s, t in self.steps
            ],
            "terminal": [list(cx.labels_of_face(f)) for f in self.terminal],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(cx: SimplicialComplex, text: str) -> "CollapseWitness":
        doc = json.loads(text)
        steps = tuple(
            (cx.face_of_labels(s), cx.face_of_labels(t)) for s, t in doc["steps"]
        )
        terminal = tuple(sorted(cx.face_of_labels(f) for f in doc["terminal"]))
        return CollapseWitness(steps, terminal, doc["verdict"])


def replay_collapse(cx: SimplicialComplex, witness: CollapseWitness) -> bool:
    """Re-run the witness from scratch, checking the free-face condition at
    every step, the terminal face set at the end, and that the verdict is
    "collapsible" exactly when that set is one vertex ("unknown" otherwise).
    The checker keeps its own coface bookkeeping, so it shares no code with
    the search."""
    if witness.verdict != ("collapsible" if len(witness.terminal) == 1 else "unknown"):
        return False
    faces = {f for f in cx.all_faces() if f}
    cof: dict[tuple, set] = {f: set() for f in faces}
    for f in faces:
        if len(f) >= 2:
            for pos in range(len(f)):
                cof[f[:pos] + f[pos + 1:]].add(f)
    for sigma, tau in witness.steps:
        if sigma not in faces or tau not in faces:
            return False
        if cof[sigma] != {tau}:
            return False
        faces.discard(sigma)
        faces.discard(tau)
        for g in (sigma, tau):
            if len(g) >= 2:
                for pos in range(len(g)):
                    sub = g[:pos] + g[pos + 1:]
                    if sub in faces:
                        cof[sub].discard(g)
    return tuple(sorted(faces)) == witness.terminal


def _strong_collapse(facets, faces: set, steps: list) -> None:
    """Remove dominated vertices, appending the pair steps to ``steps`` and
    discarding their faces from ``faces``, until no vertex is dominated.

    Vertex v is dominated by w != v when w lies in every facet through v.
    For the least dominated v and its least dominating w, each face tau
    through v that misses w is paired with tau + {w}, highest dimension
    first: every larger face through tau has gone by then, so each pair is
    free when it is taken.  The facets through v then lose v."""
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
        rests = set()
        for i in ids:
            rest = tuple(u for u in facets[i] if u != v and u != w)
            for r in range(len(rest) + 1):
                rests.update(combinations(rest, r))
        order = sorted(rests)
        order.sort(key=len, reverse=True)
        pairs = []
        for rest in order:
            p = bisect(rest, v)
            tau = rest[:p] + (v,) + rest[p:]
            q = bisect(tau, w)
            pairs.append((tau, tau[:q] + (w,) + tau[q:]))
        steps.extend(pairs)
        faces.difference_update(*pairs)
        del through[v]
        links = []
        for i in ids:
            f = facets.pop(i)
            for u in f:
                if u != v:
                    through[u].discard(i)
                    pending.add(u)
            links.append(tuple(u for u in f if u != v))
        # a link that lies in a remaining facet is no longer maximal
        for g in sorted(links, key=len, reverse=True):
            if not set.intersection(*(through[u] for u in g)):
                facets[next_id] = g
                for u in g:
                    through[u].add(next_id)
                next_id += 1


def greedy_collapse(cx: SimplicialComplex) -> CollapseWitness:
    """Collapse toward a single vertex: strong collapses first, then one
    descent that always takes the least free pair by (dimension, vertex
    tuple).

    The strong collapses remove dominated vertices (Barmak–Minian) from the
    facet list, each as pair steps.  The descent runs on a lazy heap over
    the faces left: coface counts only decrease, so popped entries validate
    cheaply.  Each step removes two faces, so the face guard on the closure
    bounds the search.  A search that strands yields verdict "unknown" with
    its steps and the faces left, which replay like any other witness.
    Collapsibility is NP-complete in general, so "unknown" is not a
    refutation."""
    if cx.is_void():
        raise VoidComplexError("cannot collapse the void complex")
    faces = {f for f in cx.all_faces() if f}
    if not faces:
        return CollapseWitness((), (), "unknown")
    steps = []
    _strong_collapse(cx.facets, faces, steps)
    cof = _coface_map(faces)
    heap = [(len(s), s, next(iter(ts))) for s, ts in cof.items() if len(ts) == 1]
    heapq.heapify(heap)
    while len(faces) > 1 and heap:
        _, sigma, tau = heapq.heappop(heap)
        if sigma not in faces or cof[sigma] != {tau}:
            continue
        steps.append((sigma, tau))
        for sub in _remove_pair(faces, cof, sigma, tau):
            if len(cof[sub]) == 1:
                heapq.heappush(heap, (len(sub), sub, next(iter(cof[sub]))))
    verdict = "collapsible" if len(faces) == 1 else "unknown"
    return CollapseWitness(tuple(steps), tuple(sorted(faces)), verdict)


def collapse_complex(cx: SimplicialComplex, steps) -> SimplicialComplex:
    """Apply a sequence of collapses and return the result.  Each step
    (sigma, tau) removes every face between the free nonempty face sigma
    and its unique maximal coface tau: exactly the pair when dim tau =
    dim sigma + 1, else the whole interval (an even face count, and a
    composite of single-step collapses, so the homotopy type is unchanged
    either way)."""
    faces = {f for f in cx.all_faces() if f}
    cof = _coface_map(faces)
    for sigma, tau in steps:
        _collapse_interval(faces, cof, tuple(sorted(sigma)), tuple(sorted(tau)))
    return from_facets(cx.labels, faces if faces else [()])
