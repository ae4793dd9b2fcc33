"""Reduced simplicial homology over the integers, from the facet list alone.

The chain complex is augmented: the boundary of every vertex is the empty
face, so degree-0 homology is already reduced and a d-sphere shows a single
Z in degree d.  All arithmetic uses Python integers, so intermediate entry
growth and torsion are exact.

Homology comes from discrete Morse theory (Forman, *Morse theory for cell
complexes*, Adv. Math. 1998).  The acyclic matching is Jonsson's element
matching (*Simplicial Complexes of Graphs*, LNM 1928, 2008): each vertex v
of a vertex sequence in turn pairs every unmatched face sigma without v
with sigma + v when that face is unmatched too.  Homology takes every
vertex, in index order, with the empty face among the faces.

The one matching has two layouts.  On at most ``LATTICE_VERTICES`` (16)
vertices, when the 2^n vertex subsets fit the face budget,
``LatticeMatching`` lays it out on the subset lattice: a set of faces is
one int of 2^n bits, and the closure and each vertex's pairs are whole-
lattice shift-and-AND passes (Björklund, Husfeldt, Kaski and Koivisto,
*Fourier meets Möbius*, STOC 2007).  Otherwise ``ElementMatching``
computes it as Forman's decision tree (*Morse theory and evasiveness*,
Combinatorica 2000), by a link/deletion recursion on relative pairs of
facet lists, which enumerates no face beyond the ones the Morse boundary
flows through; a face's partner comes from walking the face down the same
memoized recursion.  On the desk and extended complexes the lattice is the
faster at every size up to 16 vertices, and the recursion at 18 and 20.

The Morse boundary is built only between two adjacent degrees that both
hold critical cells, by gradient flow over Z with each face's image
computed once per degree.  The Smith normal form of each such matrix gives
ranks and torsion; where no two occupied degrees are adjacent, every Morse
boundary is zero and the critical counts are the homology.  The lattice's
2^n subsets, or the recursion nodes and the critical cells they carry, and
the faces the flow visits are charged against the face budget.

The Smith normal form is one sparse elimination on two mirrored value maps,
row -> column -> value and column -> row -> value.  Each round picks a
pivot and clears the pivot's column, then its row, with one routine:
subtract floor-division multiples of the pivot line from every other line,
and when remainders are left, move the pivot to the least of them.
Clearing a row is the same routine with the two maps swapped.  The pivot's
absolute value falls at every move, so each pivot ends alone in its row and
column and its absolute value is a diagonal entry.

The pivot rule takes the columns in index order, and in each the entry of
least (absolute value, row length, row index): a unit clears its column in
one sweep, and the shortest row brings the least fill-in.  The non-unit
diagonal is normalized into a divisibility chain at the end; the invariant
factors are unique, so the pivot order cannot affect results.
"""

from __future__ import annotations

import json
import math
from functools import cache

from .complexes import SimplicialComplex, closure_masks, face_budget, link_deletion, mask_antichain
from .errors import InvalidParameterError, ResourceLimitError
from .values import Value

# complexes on at most this many vertices take the subset-lattice layout of
# the element matching; past it 2^n bits cost more than the recursion
LATTICE_VERTICES = 16


class SparseIntMatrix:
    """Integer matrix stored as two mirrored value maps, ``rows[r][c]`` and
    ``cols[c][r]``.  Neither map keeps an empty line."""

    __slots__ = ("nrows", "ncols", "rows", "cols")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, dict[int, int]] = {}

    def set(self, r: int, c: int, v: int):
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise InvalidParameterError(f"entry ({r},{c}) outside {self.nrows}x{self.ncols}")
        if v == 0:
            row = self.rows.get(r)
            if row and c in row:
                col = self.cols[c]
                del row[c], col[r]
                if not row:
                    del self.rows[r]
                if not col:
                    del self.cols[c]
            return
        self.rows.setdefault(r, {})[c] = v
        self.cols.setdefault(c, {})[r] = v

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())


def _clear_line(lines: dict, mirror: dict, p: int, c: int) -> int:
    """Zero line ``c`` of ``mirror`` outside the pivot ``(p, c)`` by
    subtracting floor-division multiples of line ``p`` of ``lines`` from
    every other line.  Each remainder left is smaller than the pivot in
    absolute value, so the pivot moves to the least of them and the sweep
    repeats.  ``lines`` and ``mirror`` are the two views of one matrix (rows
    and columns, in either order); both are kept in step.  Returns the final
    pivot line."""
    while True:
        pline = lines[p]
        for r in [r for r in mirror[c] if r != p]:
            line = lines[r]
            q = line[c] // pline[c]
            for cc, v in pline.items():
                nv = line.get(cc, 0) - q * v
                if nv:
                    line[cc] = nv
                    mirror[cc][r] = nv
                elif cc in line:
                    del line[cc], mirror[cc][r]
            if not line:
                del lines[r]
        rest = [r for r in mirror[c] if r != p]
        if not rest:
            return p
        p = min(rest, key=lambda r: (abs(mirror[c][r]), r))


def _divisibility_chain(values: list[int]) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... of the nonzero ``values``: row
    i takes gcd and lcm with each later value, so after it ``vals[i]``
    divides every later one."""
    vals = [abs(v) for v in values if v]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            a, b = vals[i], vals[j]
            if b % a:
                g = math.gcd(a, b)
                vals[i], vals[j] = g, a * b // g
    return tuple(vals)


def smith_normal_form(m: SparseIntMatrix) -> tuple[int, ...]:
    """Diagonal invariants d_1 | d_2 | ... | d_r of the matrix; r = rank."""
    rows = {r: dict(row) for r, row in m.rows.items()}
    cols = {c: dict(col) for c, col in m.cols.items()}
    ones = 0
    rest: list[int] = []
    # an emptied column is in no row, so no later sweep fills it again
    for first in sorted(cols):
        while first in cols:
            col = cols[first]
            p, c = min(col, key=lambda r: (abs(col[r]), len(rows[r]), r)), first
            while len(rows[p]) > 1 or len(cols[c]) > 1:
                p = _clear_line(rows, cols, p, c)
                c = _clear_line(cols, rows, c, p)
            v = abs(rows.pop(p)[c])
            del cols[c]
            if v == 1:
                ones += 1
            else:
                rest.append(v)
    return (1,) * ones + _divisibility_chain(rest)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

class HomologyProfile(Value):
    """Reduced integer homology: free ranks per dimension and torsion
    coefficients (sorted divisibility chains) per dimension.

    ``minus_one_rank`` is 1 exactly for the empty complex, whose augmented
    chain complex has one leftover Z in degree -1.  The void complex carries
    the empty profile with ``void`` set.  A profile is trimmed (no trailing
    zero rank, no empty torsion entry), so it is compared by equality:
    ``== wedge(d, m)`` (a sphere is ``wedge(d, 1)``), and
    ``== HomologyProfile()`` for homology-trivial.
    """

    __slots__ = ("betti", "torsion", "minus_one_rank", "void")

    def __init__(self, betti: tuple[int, ...] = (), torsion: tuple[tuple[int, tuple[int, ...]], ...] = (),
                 minus_one_rank: int = 0, void: bool = False):
        super().__init__(betti, torsion, minus_one_rank, void)

    def to_dict(self) -> dict:
        """The profile as the JSON object ``to_json`` writes, in fresh lists."""
        return {
            "betti": list(self.betti),
            "minus_one": self.minus_one_rank,
            "torsion": [[d, c] for d, coeffs in self.torsion for c in coeffs],
            "void": self.void,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def wedge(d: int, m: int) -> "HomologyProfile":
        if m == 0:
            return HomologyProfile()
        betti = [0] * (d + 1)
        betti[d] = m
        return HomologyProfile(betti=tuple(betti))


def _trim(betti: list[int]) -> tuple[int, ...]:
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def reduced_homology(cx: SimplicialComplex) -> HomologyProfile:
    """Exact reduced homology profile of the complex, from its facets alone."""
    if cx._homology is not None:
        return cx._homology
    if cx.void:
        profile = HomologyProfile(void=True)
    else:
        n = cx.n_vertices
        if n <= LATTICE_VERTICES and 1 << n <= face_budget():
            matching = LatticeMatching(cx.facet_masks(), n)
        else:
            matching = ElementMatching(cx.facet_masks(), range(n))
        profile = _morse_homology(matching)
    object.__setattr__(cx, "_homology", profile)
    return profile


def _morse_homology(matching: "_Matching") -> HomologyProfile:
    """Homology of the Morse complex: the critical cells by degree, with the
    Morse boundary built only between two occupied adjacent degrees.  Degree
    -1 holds the empty face when it is critical, which is the empty
    complex's leftover rank."""
    by_dim: dict[int, list[int]] = {}
    for cell in matching.cells:
        by_dim.setdefault(cell.bit_count() - 1, []).append(cell)
    invariants = {
        d: smith_normal_form(matching.differential(cells, by_dim[d - 1]))
        for d, cells in by_dim.items()
        if d - 1 in by_dim
    }
    free = {
        d: len(cells) - len(invariants.get(d, ())) - len(invariants.get(d + 1, ()))
        for d, cells in by_dim.items()
    }
    torsion = []
    for d in sorted(by_dim):
        coeffs = tuple(v for v in invariants.get(d + 1, ()) if v > 1)
        if coeffs:
            torsion.append((d, coeffs))
    top = max(by_dim, default=-1)
    return HomologyProfile(
        betti=_trim([free.get(d, 0) for d in range(top + 1)]),
        torsion=tuple(torsion),
        minus_one_rank=free.get(-1, 0),
    )


# ---------------------------------------------------------------------------
# the Morse boundary by gradient flow, shared by both layouts
# ---------------------------------------------------------------------------

def _boundary(face: int) -> list[tuple[int, int]]:
    """(incidence, facet) pairs of a face: dropping its i-th vertex in index
    order has incidence (-1)^i."""
    out = []
    rest, sign = face, 1
    while rest:
        low = rest & -rest
        out.append((sign, face ^ low))
        rest ^= low
        sign = -sign
    return out


class _Matching:
    """What the two layouts of the element matching share: the work charged
    against the face budget, and the Morse boundary by gradient flow.  A
    layout sets ``cells``, ``budget`` and ``work`` and answers ``partner``."""

    def _charge(self, units: int):
        self.work += units
        if self.work > self.budget:
            raise ResourceLimitError("Morse reduction work", self.budget)

    def differential(self, upper: list[int], lower: list[int]) -> SparseIntMatrix:
        """The Morse boundary from the critical cells ``upper`` to the
        critical cells ``lower`` one degree down, by gradient flow over Z:
        the boundary of each upper cell, with each face replaced by its
        image in the lower cells.  A face's image is computed once, so the
        flow visits each face of the degree at most once."""
        row = {c: i for i, c in enumerate(lower)}
        image: dict[int, dict[int, int]] = {}
        m = SparseIntMatrix(len(lower), len(upper))
        for col, cell in enumerate(upper):
            total: dict[int, int] = {}
            for sign, face in _boundary(cell):
                self._flow(face, row, image)
                for r, x in image[face].items():
                    total[r] = total.get(r, 0) + sign * x
            for r, x in total.items():
                m.set(r, col, x)
        return m

    def _flow(self, face: int, row: dict, image: dict):
        """Fill ``image`` for the face: itself when critical, nothing when
        it is matched down, and when it is matched up with tau, -[tau : face]
        times the sum of [tau : g] times the image of every other facet g
        of tau.  Acyclicity makes the order a DAG; a cycle would leave an
        image missing and raise KeyError instead of looping."""
        up: dict[int, int] = {}
        stack = [face]
        while stack:
            f = stack[-1]
            if f in image:
                stack.pop()
                continue
            if f not in up:
                self._charge(1)
                if f in row:
                    image[f] = {row[f]: 1}
                    continue
                tau = up[f] = self.partner(f)
                if tau < f:
                    image[f] = {}
                    continue
                todo = [g for _, g in _boundary(tau) if g != f and g not in image]
                if todo:
                    stack.extend(todo)
                    continue
            stack.pop()
            signs = {g: s for s, g in _boundary(up[f])}
            eps = signs.pop(f)
            acc: dict[int, int] = {}
            for g, s in signs.items():
                for r, x in image[g].items():
                    acc[r] = acc.get(r, 0) - eps * s * x
            image[f] = {r: x for r, x in acc.items() if x}


# ---------------------------------------------------------------------------
# the element matching on the subset lattice
# ---------------------------------------------------------------------------

@cache
def _lows(n: int) -> tuple[int, ...]:
    """Per vertex v < n, the subset-lattice set of the faces without v: bit
    i is set exactly when vertex v is not in face i, over the 2^n faces.
    Each is a period of 2^(v+1) bits doubled up to 2^n bits.  They are
    kept per n: ``reduced_homology`` asks for n <= 16 alone, and n = 16
    keeps 16 ints of 8 KB."""
    size, out = 1 << n, []
    for v in range(n):
        s = 1 << v
        low, width = (1 << s) - 1, 2 * s
        while width < size:
            low |= low << width
            width *= 2
        out.append(low)
    return tuple(out)


class LatticeMatching(_Matching):
    """The element matching over the index order, the one ``ElementMatching``
    computes with order ``range(n)``, laid out on the subset lattice of the
    n vertices: a set of faces is one int of 2^n bits, bit i for the face
    whose mask is i.

    The closure u is the facets' bits after n passes of ``u |= (u >> 2^v)
    & low_v``, low_v the faces without v: each pass adds every face less v.
    The matching is n more passes over the unmatched faces u, v in index
    order: ``p = u & (u >> 2^v) & low_v`` is every unmatched sigma without
    v whose sigma + v is unmatched too, and both leave u.  What is left of
    u is the critical cells.  Each face is matched by one pass, whose p
    holds the face less v; a ``bytes`` copy of each nonzero p answers
    ``partner`` with one byte read per pass.

    The lattice is charged its 2^n faces, and the gradient flow one unit
    per face it visits, against the face budget."""

    def __init__(self, facets, n: int):
        self.budget = face_budget()
        self.work = 0
        self._charge(1 << n)
        lows = _lows(n)
        size = (1 << n) + 7 >> 3
        bits = bytearray(size)
        for f in facets:
            bits[f >> 3] |= 1 << (f & 7)
        u = int.from_bytes(bits, "little")
        for v, low in enumerate(lows):
            u |= u >> (1 << v) & low
        self.passes: list[tuple[int, bytes]] = []
        for v, low in enumerate(lows):
            bit = 1 << v
            p = u & u >> bit & low
            if p:
                u ^= p | p << bit
                self.passes.append((bit, p.to_bytes(size, "little")))
        self.cells = cells = []
        while u:
            top = u.bit_length() - 1
            cells.append(top)
            u ^= 1 << top

    def partner(self, face: int) -> int | None:
        """The face matched with a face of the complex, or None when it is
        critical: face - v or face + v, for the v whose pass holds the
        face less v."""
        for bit, p in self.passes:
            low = face & ~bit
            if p[low >> 3] >> (low & 7) & 1:
                return face ^ bit
        return None


# ---------------------------------------------------------------------------
# the element matching, by link/deletion recursion on facet lists
# ---------------------------------------------------------------------------

def _within(face: int, facets) -> bool:
    """The face lies in one of the facets (``map`` keeps the scan in C)."""
    return face in map(face.__and__, facets)


def _union(p: tuple, q: tuple) -> tuple:
    """The maximal faces of two sorted antichains together, sorted: a
    member of ``p`` is dropped when it lies in a member of ``q``, equal
    ones included, and a member of ``q`` when it lies in a kept member of
    ``p``."""
    if not p:
        return q
    if not q:
        return p
    kept = [f for f in p if f not in map(f.__and__, q)]
    kept += [g for g in q if g not in map(g.__and__, kept)]
    kept.sort()
    return tuple(kept)


def _meet(p: tuple, q: tuple) -> tuple:
    """The maximal faces f & g over f in ``p`` and g in ``q``, two sorted
    antichains, sorted.  A member of ``p`` that lies in a member of ``q`` is
    its own largest AND and is kept as it is, so when every member does,
    the meet is ``p``; otherwise the kept members and the ANDs of the
    others go through ``mask_antichain``."""
    kept, rest = [], []
    for f in p:
        (kept if f in map(f.__and__, q) else rest).append(f)
    if not rest:
        return p
    return mask_antichain(kept + [f & g for f in rest for g in q])


class _Node:
    """A recursion node: the pair (a, b) at vertex v.  Once expanded it
    holds lk_v a and del_v b, which decide a face's partner here, and its
    two children, None when pruned; then the critical cells below it."""

    __slots__ = ("a", "b", "v", "lk_a", "del_b", "with_v", "without_v", "cells")

    def __init__(self, a: tuple, b: tuple, v: int):
        self.a, self.b, self.v = a, b, v
        self.lk_a = self.cells = None


class ElementMatching(_Matching):
    """The element matching of a complex over the vertex sequence ``order``:
    each v of it in turn pairs every unmatched face sigma without v with
    sigma + v when that face is unmatched too.  It is acyclic (Jonsson, LNM
    1928), and it is computed on facet lists only.

    A node is a relative pair (A, B) of facet lists of bitmasks, B inside A,
    at v, the first vertex of ``order`` in A's support.  The faces still
    unmatched under the node are the faces of A that are not in B, each
    joined with the node's path face: the vertices taken on the way down.
    Deciding v pairs rho + v with rho wherever rho lies in lk_v A but not in
    B, and leaves two children, neither with v in its support:

    - with v: (lk_v A meet del_v B, lk_v B), whose cells gain v;
    - without v: (del_v A, lk_v A join del_v B).

    A node is pruned when A lies in B.  At a leaf no vertex of ``order`` is
    left, and the faces of A outside B, joined with its path face, are
    critical; with every vertex in ``order``, that is the empty face alone.
    Nodes, and pruned pairs, are memoized on (A, B), so the recursion is a
    DAG.  A node's expansion splits A and B with ``link_deletion``, unites
    lk_v A with del_v B directly and takes their meet as lk_v A itself when
    every member of it lies in a member of del_v B; only a meet with other
    members goes through ``mask_antichain``.

    Every node is charged one unit of work, an inner node one more per
    critical cell below it, and the gradient flow one per face it visits;
    listing a leaf's cells or a node's pairs is charged the bound sum 2^|f|
    over the facets it enumerates.  The work may not exceed the face budget."""

    def __init__(self, facets, order):
        self.budget = face_budget()
        self.order = tuple(order)
        self.work = 0
        self.nodes: dict[tuple, _Node | None] = {}
        self.root = self._node(mask_antichain(facets), ())
        self.cells = self._critical_cells() if self.root else []

    def _node(self, a: tuple, b: tuple) -> _Node | None:
        """The node of the pair (a, b), or None when the pair is pruned; a
        pruned pair is memoized as None, uncharged.  A leaf has vertex -1."""
        key = a, b
        node = self.nodes.get(key, False)
        if node is not False:
            return node
        for f in a:
            if f not in map(f.__and__, b):
                break
        else:
            self.nodes[key] = None
            return None
        self._charge(1)
        support = 0
        for f in a:
            support |= f
        for v in self.order:
            if support >> v & 1:
                break
        else:
            v = -1
        node = self.nodes[key] = _Node(a, b, v)
        return node

    def _expand(self, node: _Node):
        bit = 1 << node.v
        lk_a, del_a = link_deletion(node.a, bit)
        lk_b, del_b = link_deletion(node.b, bit)
        node.lk_a, node.del_b = lk_a, del_b
        node.with_v = self._node(_meet(lk_a, del_b), lk_b)
        node.without_v = self._node(del_a, _union(lk_a, del_b))

    def _critical_cells(self) -> list[int]:
        """Post-order over the DAG: a node's cells are its with-v child's
        cells plus v, then its without-v child's cells."""
        stack = [self.root]
        while stack:
            node = stack[-1]
            if node.cells is not None:
                stack.pop()
            elif node.v < 0:
                node.cells = self._faces_outside(node.a, node.b)
            elif node.lk_a is None:
                self._expand(node)
                stack.extend(k for k in (node.with_v, node.without_v) if k is not None)
            else:
                bit = 1 << node.v
                found = [c | bit for c in node.with_v.cells] if node.with_v else []
                if node.without_v:
                    found += node.without_v.cells
                self._charge(len(found))
                node.cells = found
        return self.root.cells

    def _faces_outside(self, facets, others) -> list[int]:
        """The faces of ``facets`` that lie in no member of ``others``."""
        self._charge(sum(1 << f.bit_count() for f in facets + others))
        # the charge bounds both closures, so their own guard never fires
        return list(closure_masks(facets).keys() - closure_masks(others))

    def pairs(self) -> list[tuple[int, int]]:
        """Every matched pair: on each path down to a node at v, (rho + path,
        rho + path + v) for each face rho of lk_v A outside del_v B."""
        out, stack = [], [(self.root, 0)] if self.root else []
        while stack:
            node, path = stack.pop()
            if node.v >= 0:
                bit = 1 << node.v
                out += [(r | path, r | path | bit) for r in self._faces_outside(node.lk_a, node.del_b)]
                stack += [(k, p) for k, p in ((node.with_v, path | bit), (node.without_v, path)) if k]
        return out

    def partner(self, face: int) -> int | None:
        """The face matched with a face of the complex, or None when it is
        critical: walk the face down the nodes it is unmatched in.  With v
        in the face, rho + v pairs down with rho unless rho lies in B, that
        is in del_v B; without v, the face pairs up when it lies in lk_v A
        (it is not in del_v B, being unmatched)."""
        node, rest = self.root, face
        while node.v >= 0:
            bit = 1 << node.v
            if rest & bit:
                rest ^= bit
                if not _within(rest, node.del_b):
                    return face ^ bit
                node = node.with_v
            elif _within(rest, node.lk_a):
                return face | bit
            else:
                node = node.without_v
        return None
