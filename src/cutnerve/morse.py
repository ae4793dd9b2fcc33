"""Discrete Morse matchings, elementary collapses, and collapsibility search.

The face poset includes the empty face: it is covered by every vertex, so a
perfect matching on a full simplex pairs the empty face with the apex and no
artificial critical 0-cell survives.  Reported critical cells and collapse
steps exclude the empty face; collapses stop at a single vertex.  Element
matchings come from the recursion in ``homology``; ``is_acyclic`` and
``critical_cells`` replay a matching on the closure, sharing no code with it.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .complexes import SimplicialComplex, face_budget, from_facets, from_masks
from .errors import InvalidMatchingError, InvalidParameterError, VoidComplexError
from .homology import ElementMatching


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


def element_matching_sequence(cx: SimplicialComplex, vertices) -> Matching:
    """The element matching over ``vertices`` in turn, a repeated vertex
    dropped (it pairs nothing more): the pairs of ``ElementMatching`` with
    the sequence first in its bit order.  Each mask becomes a vertex tuple
    by one table lookup per byte, sorted unless the order already is."""
    seq = list(dict.fromkeys(_resolve_vertex(cx, v) for v in vertices))
    order = seq + sorted(set(range(cx.n_vertices)).difference(seq))
    bit = {v: 1 << i for i, v in enumerate(order)}
    facets = [sum(bit[v] for v in f) for f in cx.facets]
    pairs = ElementMatching(facets, face_budget(), (1 << len(seq)) - 1).pairs()
    masks = [m for pair in pairs for m in pair]
    faces = [()] * len(masks)
    for shift in range(0, len(order), 8):
        table = [()]
        for v in order[shift:shift + 8]:
            table += [t + (v,) for t in table]
        faces = [f + table[m >> shift & 255] for f, m in zip(faces, masks)]
    if order != sorted(order):
        faces = [tuple(sorted(f)) for f in faces]
    return Matching(zip(faces[::2], faces[1::2]))


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


@dataclass(frozen=True)
class CollapseWitness:
    """A replayable collapse certificate: strong collapses ``dominations``,
    each (v, w) deleting a vertex v that w != v dominates (a sequence of
    elementary collapses, by Barmak–Minian), then the free pairs ``steps``
    on the core left, ending at the faces ``terminal``.  ``verdict`` is
    "collapsible" when that is a single vertex, otherwise "unknown"."""

    steps: tuple[tuple[tuple, tuple], ...]
    terminal: tuple[tuple, ...]
    verdict: str
    dominations: tuple[tuple[int, int], ...] = ()

    @property
    def steps_tried(self) -> int:
        return len(self.dominations) + len(self.steps)

    def is_collapsible(self) -> bool:
        return self.verdict == "collapsible"

    def to_json(self, cx: SimplicialComplex) -> str:
        doc = {
            "verdict": self.verdict,
            "steps_tried": self.steps_tried,
            "dominations": [[cx.labels[v], cx.labels[w]] for v, w in self.dominations],
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
        dominations = tuple(
            (cx.face_of_labels([v])[0], cx.face_of_labels([w])[0])
            for v, w in doc.get("dominations", ())
        )
        steps = tuple(
            (cx.face_of_labels(s), cx.face_of_labels(t)) for s, t in doc["steps"]
        )
        terminal = tuple(sorted(cx.face_of_labels(f) for f in doc["terminal"]))
        return CollapseWitness(steps, terminal, doc["verdict"], dominations)


def apply_collapses(cx: SimplicialComplex, dominations, steps) -> tuple[int, tuple[tuple, ...]]:
    """Apply strong collapses, then free pairs, on facets and coface sets of
    their own, sharing no collapse code with the search: each domination
    (v, w) needs v != w, v still a vertex and w in every facet through v;
    each step (sigma, tau) on the closure of the core left needs the
    nonempty face sigma free in tau.  Stops at the first that does not
    hold; returns how many were applied and the nonempty faces left."""
    facets = {frozenset(f) for f in cx.facets}
    applied = 0
    for v, w in dominations:
        star = [f for f in facets if v in f]
        if v == w or not star or not all(w in f for f in star):
            steps = ()  # nothing applies after a failed step
            break
        facets.difference_update(star)
        links = {f - {v} for f in star}
        facets |= {g for g in links if not any(g < h for h in facets | links)}
        applied += 1
    core = from_facets(cx.labels, [tuple(sorted(f)) for f in facets])
    faces = {f for f in core.all_faces() if f}
    cof: dict[tuple, set] = {f: set() for f in faces}
    for f in faces:
        if len(f) >= 2:
            for pos in range(len(f)):
                cof[f[:pos] + f[pos + 1:]].add(f)
    for sigma, tau in steps:
        # a coface set holds only faces still present
        if sigma not in faces or cof[sigma] != {tau}:
            break
        faces.discard(sigma)
        faces.discard(tau)
        for g in (sigma, tau):
            for pos in range(len(g)):
                sub = g[:pos] + g[pos + 1:]
                if sub in faces:
                    cof[sub].discard(g)
        applied += 1
    return applied, tuple(sorted(faces))


def replay_collapse(cx: SimplicialComplex, witness: CollapseWitness) -> bool:
    """Replay the witness with ``apply_collapses``: every domination and
    step must apply and leave exactly the faces ``terminal``, and the
    verdict be "collapsible" exactly when that is one vertex."""
    if witness.verdict != ("collapsible" if len(witness.terminal) == 1 else "unknown"):
        return False
    applied, left = apply_collapses(cx, witness.dominations, witness.steps)
    return applied == witness.steps_tried and left == witness.terminal


def _strong_collapse(facets, dominations: list) -> list[int]:
    """Remove dominated vertices from a list of facet bitmasks until none is
    left, appending (v, w) to ``dominations`` for each; return the core's
    facet bitmasks.

    Vertex v is dominated by w != v when w lies in every facet through v,
    that is in the AND over v's star.  The least dominated v goes first,
    with its least dominating w; the facets through v then lose v, and a
    link that lies in a remaining facet is no longer maximal."""
    facets = list(facets)
    # only a removal changes whether a vertex is dominated, and only for the
    # vertices of the removed star, so each is checked again only then
    pending = reduce(or_, facets, 0)
    while pending:
        bit = pending & -pending
        pending ^= bit
        star = [f for f in facets if f & bit]
        common = reduce(and_, star) ^ bit
        if not common:
            continue
        dominations.append((bit.bit_length() - 1, (common & -common).bit_length() - 1))
        facets = [f for f in facets if not f & bit]
        # the links are an antichain, as the star is, so only the remaining
        # facets can hold one
        for g in (f ^ bit for f in star):
            pending |= g
            if g not in map(g.__and__, facets):
                facets.append(g)
    return facets


def greedy_collapse(cx: SimplicialComplex) -> CollapseWitness:
    """Collapse toward a single vertex: strong collapses on the facet list,
    then one descent that always takes the least free pair by (dimension,
    vertex tuple) on a lazy heap over the faces of the core's closure.

    Only the core's closure is built.  The face guard stays exact on the
    input's closure, which is materialized only when the bound sum 2^|f|
    over the facets exceeds the budget; each step removes two faces, so
    the guard bounds the search.  A search that strands yields verdict
    "unknown" with its dominations, steps and the faces left, which replay
    like any other witness.  Collapsibility is NP-complete in general, so
    "unknown" is not a refutation."""
    if cx.is_void():
        raise VoidComplexError("cannot collapse the void complex")
    if sum(1 << f.bit_count() for f in cx.facet_masks()) > face_budget():
        cx.all_faces()
    dominations = []
    core = _strong_collapse(cx.facet_masks(), dominations)
    faces = {f for f in from_masks(cx.labels, core).all_faces() if f}
    cof = _coface_map(faces)
    heap = [(len(s), s, next(iter(ts))) for s, ts in cof.items() if len(ts) == 1]
    heapq.heapify(heap)
    steps = []
    while len(faces) > 1 and heap:
        _, sigma, tau = heapq.heappop(heap)
        if sigma not in faces or cof[sigma] != {tau}:
            continue
        steps.append((sigma, tau))
        for sub in _remove_pair(faces, cof, sigma, tau):
            if len(cof[sub]) == 1:
                heapq.heappush(heap, (len(sub), sub, next(iter(cof[sub]))))
    verdict = "collapsible" if len(faces) == 1 else "unknown"
    return CollapseWitness(tuple(steps), tuple(sorted(faces)), verdict, tuple(dominations))

