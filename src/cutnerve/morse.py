"""Discrete Morse matchings, elementary collapses, and collapsibility search.

Faces are vertex bitmasks in the complex's own bit order; labels appear only
in witness JSON.  The face poset includes the empty face: it is covered by
every vertex, so a perfect matching on a full simplex pairs the empty face
with the apex and no artificial critical 0-cell survives.  Reported
critical cells and collapse steps exclude the empty face; collapses stop at
a single vertex.  Element matchings come from the recursion in
``homology``; ``critical_cells``, the one matching check, tests a list of
pairs against the closure, sharing no code with it, and answers None for
pairs that are not an acyclic matching.  The collapse search and
``apply_collapses``, its replay, each delete a dominated vertex with
``link_deletion`` and read the faces with their links from
``closure_masks``: a face is free when its link is one vertex v, and its one
coface is the face plus v.
"""

from __future__ import annotations

import heapq
import json
from functools import reduce
from operator import and_, or_

from .complexes import SimplicialComplex, closure_masks, link_deletion, mask_face
from .errors import InvalidParameterError, json_array, json_object
from .homology import ElementMatching
from .values import Value


def element_matching_sequence(cx: SimplicialComplex, vertices) -> list[tuple[int, int]]:
    """The pairs (sigma, sigma + v) of the element matching over
    ``vertices`` in turn, each a label or an index; a repeated vertex is
    dropped (it pairs nothing more)."""
    order = dict.fromkeys(map(cx.vertex, vertices))
    return ElementMatching(cx.facet_masks(), order).pairs()


def critical_cells(cx: SimplicialComplex, pairs) -> list[int] | None:
    """The unmatched nonempty faces of the closure, sorted by (dimension,
    vertex tuple), when ``pairs`` is an acyclic matching on its face poset;
    None otherwise.  Each pair must be a covering pair (sigma, sigma + v) of
    faces of the closure, and no face may lie in two pairs.  The closure is
    built before any pair is judged, so past the face budget this raises
    ResourceLimitError whatever the pairs.

    V-paths live inside one dimension layer: from an up-matched face sigma
    step to any other facet of its matched coface that is up-matched too.
    Peeling the up-matched faces that no step enters, as in Kahn's
    topological sort, leaves a face exactly when a V-path cycle exists."""
    faces = closure_masks(cx.facet_masks()).keys()
    up = dict(pairs)
    matched = set().union(*pairs)
    if len(matched) != 2 * len(pairs) or not all(
            t in faces and s & t == s and (s ^ t).bit_count() == 1 for s, t in up.items()):
        return None
    # the other facets of t = s + v are t less a vertex of s
    steps: dict[int, list[int]] = {}
    entered = dict.fromkeys(up, 0)
    for s, t in up.items():
        out = steps[s] = []
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            if t ^ low in up:
                out.append(t ^ low)
                entered[t ^ low] += 1
    # the list grows while it is walked: each face joins once no step enters it
    free = [s for s, k in entered.items() if not k]
    for s in free:
        for f in steps[s]:
            entered[f] -= 1
            if not entered[f]:
                free.append(f)
    if len(free) < len(up):
        return None
    return sorted(faces - matched - {0}, key=lambda f: (f.bit_count(), mask_face(f)))


# ---------------------------------------------------------------------------
# collapses
# ---------------------------------------------------------------------------

class CollapseWitness(Value):
    """A replayable collapse certificate: strong collapses ``dominations``,
    each (v, w) deleting a vertex v that w != v dominates (a sequence of
    elementary collapses, by Barmak–Minian), then the free pairs ``steps``
    of face masks on the core left, ending at the sorted face masks
    ``terminal``.  ``verdict`` is "collapsible" when that is a single
    vertex, otherwise "unknown"."""

    __slots__ = ("steps", "terminal", "verdict", "dominations")

    def __init__(self, steps: tuple[tuple[int, int], ...], terminal: tuple[int, ...], verdict: str,
                 dominations: tuple[tuple[int, int], ...] = ()):
        super().__init__(steps, terminal, verdict, dominations)

    @property
    def steps_tried(self) -> int:
        return len(self.dominations) + len(self.steps)

    def is_collapsible(self) -> bool:
        return self.verdict == "collapsible"

    def to_json(self, cx: SimplicialComplex) -> str:
        """Faces as label lists; ``terminal`` in vertex-tuple order."""
        def labels(face):
            return list(cx.labels_of_face(face))

        doc = {
            "verdict": self.verdict,
            "steps_tried": self.steps_tried,
            "dominations": [[cx.labels[v], cx.labels[w]] for v, w in self.dominations],
            "steps": [[labels(s), labels(t)] for s, t in self.steps],
            "terminal": [labels(f) for f in sorted(self.terminal, key=mask_face)],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(cx: SimplicialComplex, text: str) -> "CollapseWitness":
        """Read a witness; a face that repeats a label is no face of any
        complex, so it becomes the mask -1, which no step or terminal
        matches.  Faces, steps, dominations and their lists must be JSON
        arrays, a step two faces and a domination two labels; a verdict
        other than "collapsible" or "unknown", or a ``steps_tried`` that is
        not the count of dominations and steps, is malformed too."""
        doc = json_object(json.loads(text), "a witness", ("steps", "terminal", "verdict"))

        def mask(face):
            return cx.face_of_labels(json_array(face, "a witness face"))

        dominations = tuple(
            tuple(cx.face_of_labels([lab]).bit_length() - 1 for lab in json_array(pair, "a domination", 2))
            for pair in json_array(doc.get("dominations", []), '"dominations"')
        )
        steps = tuple(tuple(map(mask, json_array(step, "a step", 2)))
                      for step in json_array(doc["steps"], '"steps"'))
        terminal = tuple(sorted(map(mask, json_array(doc["terminal"], '"terminal"'))))
        verdict = doc["verdict"]
        if verdict not in ("collapsible", "unknown"):
            raise InvalidParameterError(f'verdict {json.dumps(verdict)} is not "collapsible" or "unknown"')
        witness = CollapseWitness(steps, terminal, verdict, dominations)
        tried = doc.get("steps_tried", witness.steps_tried)
        if type(tried) is not int or tried != witness.steps_tried:
            raise InvalidParameterError(
                f"steps_tried {json.dumps(tried)} is not the {witness.steps_tried} dominations and steps")
        return witness


def apply_collapses(cx: SimplicialComplex, dominations, steps) -> tuple[int, tuple[int, ...]]:
    """Apply strong collapses, then free pairs, on facets and links of their
    own, sharing no collapse code with the search: each domination (v, w)
    deletes v by ``link_deletion`` and needs w in every link of v, of which
    there must be one; each step (sigma, tau) of face masks on the closure
    of the core left needs the nonempty face sigma free in tau: the link of
    sigma is one vertex v and tau is sigma plus v.  Stops at the first that
    does not hold; returns how many were applied and the sorted masks of
    the nonempty faces left."""
    facets = cx.facet_masks()
    applied = 0
    for v, w in dominations:
        # a link never holds v, so this also refuses v == w and a v in no facet
        links, rest = link_deletion(facets, 1 << v)
        if not links or not all(g >> w & 1 for g in links):
            steps = ()  # nothing applies after a failed step
            break
        facets = rest
        applied += 1
    # the nonempty faces still present, each with its link
    links = closure_masks(facets)
    links.pop(0, None)
    for sigma, tau in steps:
        link = links.get(sigma, 0)
        if link.bit_count() != 1 or tau != sigma | link:
            break
        del links[sigma], links[tau]
        # removing a face g clears v in the link of each of its facets g - v
        for g in (sigma, tau):
            rest = g
            while rest:
                low = rest & -rest
                rest ^= low
                if g ^ low in links:
                    links[g ^ low] ^= low
        applied += 1
    return applied, tuple(sorted(links))


def replay_collapse(cx: SimplicialComplex, witness: CollapseWitness) -> bool:
    """Replay the witness with ``apply_collapses``: every domination and
    step must apply and leave exactly the faces ``terminal``, and the
    verdict be "collapsible" exactly when that is one vertex."""
    if witness.verdict != ("collapsible" if len(witness.terminal) == 1 else "unknown"):
        return False
    applied, left = apply_collapses(cx, witness.dominations, witness.steps)
    return applied == witness.steps_tried and left == witness.terminal


def _strong_collapse(facets, dominations: list) -> tuple[int, ...]:
    """Remove dominated vertices from a sorted antichain of facet bitmasks
    until none is left, appending (v, w) to ``dominations`` for each;
    return the core's facet bitmasks as the sorted antichain that
    ``link_deletion`` leaves.

    Vertex v is dominated by w != v when w lies in every facet through v,
    that is in the AND over v's star.  The least dominated v goes first,
    with its least dominating w, and is deleted."""
    # only a removal changes whether a vertex is dominated, and only for the
    # vertices of the removed star, so each is checked again only then
    pending = reduce(or_, facets, 0)
    while pending:
        bit = pending & -pending
        pending ^= bit
        common = reduce(and_, [f for f in facets if f & bit]) ^ bit
        if not common:
            continue
        dominations.append((bit.bit_length() - 1, (common & -common).bit_length() - 1))
        links, facets = link_deletion(facets, bit)
        pending |= reduce(or_, links)
    return facets


def greedy_collapse(cx: SimplicialComplex) -> CollapseWitness:
    """Collapse toward a single vertex: strong collapses on the facet list,
    then one descent that always takes the least free pair by (dimension,
    mask) on a lazy heap over the faces of the core's closure.  Each face
    keeps its link, so a face whose link is one vertex v is free in the
    face plus v.

    Only the core's closure is built, and the face budget guards it alone:
    the strong collapses scan only the stored facets, and each step of the
    descent removes two faces of that closure, so the budget bounds the
    search.  A search that strands yields verdict "unknown" with its
    dominations, steps and the faces left, which replay like any other
    witness.  Collapsibility is NP-complete in general, so "unknown" is not
    a refutation."""
    if cx.void:
        raise InvalidParameterError("cannot collapse the void complex")
    dominations = []
    core = _strong_collapse(cx.facet_masks(), dominations)
    # the nonempty faces still present, each with its link
    links = closure_masks(core)
    links.pop(0, None)
    heap = [(s.bit_count(), s) for s, link in links.items() if link.bit_count() == 1]
    heapq.heapify(heap)
    steps = []
    while len(links) > 1 and heap:
        _, sigma = heapq.heappop(heap)
        # a link only shrinks, so each face enters the heap at most once, and
        # an entry is stale when its face is gone or has no coface left
        link = links.get(sigma)
        if not link:
            continue
        tau = sigma | link
        steps.append((sigma, tau))
        del links[sigma], links[tau]
        # removing a face g clears v in the link of each of its facets g - v
        for g in (sigma, tau):
            rest = g
            while rest:
                low = rest & -rest
                rest ^= low
                sub = g ^ low
                if sub in links:
                    link = links[sub] = links[sub] ^ low
                    if link.bit_count() == 1:
                        heapq.heappush(heap, (sub.bit_count(), sub))
    verdict = "collapsible" if len(links) == 1 else "unknown"
    return CollapseWitness(tuple(steps), tuple(sorted(links)), verdict, tuple(dominations))
