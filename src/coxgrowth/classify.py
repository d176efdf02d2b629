"""Recognition of finite standard parabolic subgroups by diagram shape.

The connected diagrams of finite Coxeter groups form a short catalog, so a
subgroup is finite exactly when every connected component of its induced
diagram is isomorphic (as an edge-labelled graph) to a catalog entry.
Matching runs a degree/label prefilter and then an explicit isomorphism
search.  :func:`classify` decides one subset this way and is the reference.

Consumers that need every subset (the growth table, the spherical subsets)
read one incremental pass, :func:`classify_all`, which visits the masks in
increasing order.  The components of T are those of T minus its top
generator, with the ones adjacent to that generator merged into one, and T
is spherical exactly when T minus its top generator and the merged
component are.  A merged component smaller than T is an earlier mask, so
only a connected T reaches the catalog match, and only when all its maximal
proper subsets are spherical.  That is one match per such connected subset
(the n(n+1)/2 intervals of A_n; the points and pairs of the free and
right-angled families) instead of a diagram search per subset: all 65 536
subsets of A_16 are classified in under half a second.

Nothing here is cached: each call classifies afresh, and the caller keeps
what it needs.  The growth table holds the ``(infos, spherical)`` pair of
its system; other callers classify once per request and pass the result
down.

Each catalog family carries one datum, its degrees d_1, ..., d_n (the
degrees of the basic invariants).  Everything used downstream derives from
them: the number of positive roots sum(d_i - 1), which is the length of the
longest element, and the group order prod(d_i).  Entries small enough to
enumerate (every type of order up to 10^5, E6, F4 and H4 included) are
re-derived by the word oracle in the test suite; the remaining values (E7,
E8, large A/B/D) are trusted catalog data, as noted in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .coxeter import INFINITY, CoxeterMatrix, Mask, bits_of, diagram_components, mask_of


@dataclass(frozen=True)
class ComponentType:
    """One connected component of a finite-type diagram."""

    label: str            # "A", "B", "D", "E6", "E7", "E8", "F4", "H3", "H4", "I2"
    rank: int
    parameter: int        # dihedral order m for I2, else 0
    mask: Mask
    degrees: tuple        # degrees of the basic invariants, ascending

    @property
    def positive_roots(self) -> int:
        return sum(d - 1 for d in self.degrees)

    @property
    def order(self) -> int:
        return prod(self.degrees)


@dataclass(frozen=True)
class FiniteTypeInfo:
    """Classification result for one generator subset."""

    finite: bool
    components: tuple
    longest_length: int   # sum of positive-root counts; None when infinite
    order: int            # product of component orders; None when infinite
    degrees: tuple = None  # all components' degrees, ascending; None when infinite


_INFINITE = FiniteTypeInfo(False, (), None, None)


def _path(labels):
    return tuple((i, i + 1, m) for i, m in enumerate(labels))


_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
}


def degrees_of(label: str, rank: int, parameter: int = 0) -> tuple:
    """Degrees of the basic invariants of one finite irreducible type, ascending."""
    if label == "A":
        return tuple(range(2, rank + 2))
    if label == "B":
        return tuple(range(2, 2 * rank + 1, 2))
    if label == "D":
        return tuple(sorted(tuple(range(2, 2 * rank - 1, 2)) + (rank,)))
    if label == "I2":
        return (2, parameter)
    return _EXCEPTIONAL_DEGREES[label]


def _candidate_diagrams(n):
    """Catalog diagrams at rank n >= 3 as (label, edges)."""
    yield ("A", _path((3,) * (n - 1)))
    yield ("B", _path((3,) * (n - 2) + (4,)))
    if n >= 4:
        yield ("D", ((0, 2, 3), (1, 2, 3)) + tuple((i, i + 1, 3) for i in range(2, n - 1)))
    if n == 3:
        yield ("H3", _path((5, 3)))
    if n == 4:
        yield ("F4", _path((3, 4, 3)))
        yield ("H4", _path((5, 3, 3)))
    if n == 6:
        yield ("E6", _path((3, 3, 3, 3)) + ((2, 5, 3),))
    if n == 7:
        yield ("E7", _path((3, 3, 3, 3, 3)) + ((2, 6, 3),))
    if n == 8:
        yield ("E8", _path((3, 3, 3, 3, 3, 3)) + ((2, 7, 3),))


def _isomorphic(n, edges, cand_edges):
    """Exact isomorphism of two edge-labelled graphs on n vertices.

    ``edges`` maps (a, b) with a < b to the label; ``cand_edges`` is a tuple
    of (a, b, label).  Both graphs here are trees with the same label
    multiset, so the backtracking search is tiny.
    """
    cand = {}
    cadj = [[] for _ in range(n)]
    for a, b, m in cand_edges:
        cand[(min(a, b), max(a, b))] = m
        cadj[a].append((b, m))
        cadj[b].append((a, m))

    adj = [[] for _ in range(n)]
    for (a, b), m in edges.items():
        adj[a].append((b, m))
        adj[b].append((a, m))

    def profile(neighbors):
        return sorted(m for _, m in neighbors)

    cand_profiles = [profile(cadj[v]) for v in range(n)]
    profiles = [profile(adj[v]) for v in range(n)]
    if sorted(cand_profiles) != sorted(profiles):
        return False

    assignment = [None] * n       # candidate vertex -> component vertex
    used = [False] * n

    def place(k):
        if k == n:
            return True
        for v in range(n):
            if used[v] or profiles[v] != cand_profiles[k]:
                continue
            ok = True
            for u, m in cadj[k]:
                if u < k:
                    w = assignment[u]
                    key = (min(v, w), max(v, w))
                    if edges.get(key) != m:
                        ok = False
                        break
            if ok:
                assignment[k] = v
                used[v] = True
                if place(k + 1):
                    return True
                used[v] = False
        return False

    return place(0)


def _match_component(matrix, comp):
    """Match one connected component against the catalog; None if infinite."""
    verts = bits_of(comp)
    n = len(verts)
    if n == 1:
        return ComponentType("A", 1, 0, comp, degrees_of("A", 1))

    local = {v: i for i, v in enumerate(verts)}
    edges = {}
    for ai, a in enumerate(verts):
        for b in verts[ai + 1:]:
            m = matrix.orders[a][b]
            if m is INFINITY:
                return None
            if m >= 3:
                edges[(local[a], local[b])] = m

    if n == 2:
        m = next(iter(edges.values()))
        if m == 3:
            return ComponentType("A", 2, 0, comp, degrees_of("A", 2))
        if m == 4:
            return ComponentType("B", 2, 0, comp, degrees_of("B", 2))
        return ComponentType("I2", 2, m, comp, degrees_of("I2", 2, m))

    if len(edges) != n - 1:        # finite-type diagrams are trees
        return None
    labels = sorted(edges.values())
    for label, cand_edges in _candidate_diagrams(n):
        if sorted(m for _, _, m in cand_edges) != labels:
            continue
        if _isomorphic(n, edges, cand_edges):
            return ComponentType(label, n, 0, comp, degrees_of(label, n))
    return None


def classify(matrix: CoxeterMatrix, subset: Mask) -> FiniteTypeInfo:
    """Decide finiteness of the parabolic subgroup on ``subset``.

    For a finite subgroup the result carries the component decomposition,
    the degrees of all components, and from them the longest element length
    (the positive-root count sum(d - 1)) and the group order (prod(d)).
    """
    if subset & ~matrix.full_mask:
        raise ValueError("subset is not within the generator set")
    matched = []
    for comp in diagram_components(matrix, subset):
        ct = _match_component(matrix, comp)
        if ct is None:
            return _INFINITE
        matched.append(ct)
    degrees = tuple(sorted(d for c in matched for d in c.degrees))
    return FiniteTypeInfo(True, tuple(matched), sum(d - 1 for d in degrees),
                          prod(degrees), degrees)


def classify_all(matrix: CoxeterMatrix) -> tuple:
    """``(infos, spherical)``: ``infos[T] == classify(matrix, T)`` for every mask
    T, and the spherical masks in increasing order; one incremental pass (see
    the module docstring).
    """
    rank = matrix.rank
    neighbours = [mask_of(w for w in range(rank) if w != v and
                          (matrix.orders[v][w] is INFINITY or matrix.orders[v][w] >= 3))
                  for v in range(rank)]
    infos = [FiniteTypeInfo(True, (), 0, 1, ())]
    for subset in range(1, 1 << rank):
        top = subset.bit_length() - 1
        rest = infos[subset ^ (1 << top)]
        if not rest.finite:
            infos.append(_INFINITE)
            continue
        merged = 1 << top
        place = 0                     # components of T before the merged one
        for c in rest.components:     # ordered by least generator
            if c.mask & neighbours[top]:
                merged |= c.mask
            elif merged == 1 << top:
                place += 1
        if merged == subset:          # T is connected: match it, once
            ct = None
            if all(infos[subset ^ (1 << v)].finite for v in bits_of(subset)):
                ct = _match_component(matrix, subset)
            infos.append(_INFINITE if ct is None else FiniteTypeInfo(
                True, (ct,), ct.positive_roots, ct.order, ct.degrees))
            continue
        head = infos[merged]              # the merged component, an earlier mask
        if not head.finite:
            infos.append(_INFINITE)
            continue
        other = infos[subset ^ merged]    # the remaining components
        infos.append(FiniteTypeInfo(
            True, other.components[:place] + head.components + other.components[place:],
            other.longest_length + head.longest_length, other.order * head.order,
            tuple(sorted(other.degrees + head.degrees))))
    return tuple(infos), tuple(t for t, info in enumerate(infos) if info.finite)


def spherical_subsets(matrix: CoxeterMatrix) -> tuple:
    """All subsets generating finite subgroups, in increasing mask order.

    Always contains 0 and every singleton.  Downward closed: any subset of a
    spherical set is spherical.
    """
    return classify_all(matrix)[1]
