"""Recognition of finite standard parabolic subgroups by diagram shape.

The connected diagrams of finite Coxeter groups form a short catalog, so a
subgroup is finite exactly when every connected component of its induced
diagram is isomorphic (as an edge-labelled graph) to a catalog entry.  The
catalog is a list of shapes, so a component is matched by reading its shape:
a path is named by its label sequence, a tree with one branch node by the
lengths of its three arms, and anything else is infinite
(:func:`_match_component`).  :func:`classify` decides one subset this way
and is the reference.

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


_PATHS = {(5, 3): "H3", (5, 3, 3): "H4", (3, 4, 3): "F4"}   # beyond A_n and B_n
_FORKS = {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}  # beyond D_n


def _match_component(matrix, comp):
    """Match one connected component against the catalog; None if infinite.

    Coxeter's classification (Humphreys, *Reflection Groups and Coxeter
    Groups*, 1990, 2.4-2.7) lists the finite types by shape.  One node is
    A1.  Two nodes joined by m are A2 (m = 3), B2 (m = 4) or I2(m) (m >= 5),
    and infinite for m = INFINITY.  On n >= 3 nodes the diagram is infinite
    unless it is a tree (n - 1 edges) with every label at most 5 and no node
    of degree 4 or more, and then it is finite exactly when it is

    - a path whose labels, read from the end that gives the larger sequence
      (a lone 4 or 5 at an end comes first), are (3, ..., 3) for A_n,
      (4, 3, ..., 3) for B_n, (5, 3) for H3, (5, 3, 3) for H4 or (3, 4, 3)
      for F4; or
    - a tree with one branch node and every label 3, whose three arms,
      sorted by their number of nodes, are (1, 1, k) for D_{k+3}, or
      (1, 2, 2), (1, 2, 3), (1, 2, 4) for E6, E7, E8.
    """
    verts = bits_of(comp)
    n = len(verts)
    orders = matrix.orders
    if n == 1:
        return ComponentType("A", 1, 0, comp, degrees_of("A", 1))
    if n == 2:
        m = orders[verts[0]][verts[1]]
        if m is INFINITY:
            return None
        label, parameter = {3: ("A", 0), 4: ("B", 0)}.get(m, ("I2", m))
        return ComponentType(label, 2, parameter, comp, degrees_of(label, 2, parameter))

    adj = {v: {} for v in verts}          # node -> {neighbour: label}
    labels = []
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            m = orders[a][b]
            if m is INFINITY or m > 5:
                return None
            if m >= 3:
                adj[a][b] = adj[b][a] = m
                labels.append(m)
    if len(labels) != n - 1:
        return None

    def arm(prev, v):
        """Labels from the edge prev-v on to the end of the arm through v."""
        seq = [adj[prev][v]]
        while len(adj[v]) == 2:
            prev, v = v, next(w for w in adj[v] if w != prev)
            seq.append(adj[prev][v])
        return tuple(seq)

    branches = [v for v in verts if len(adj[v]) > 2]
    if not branches:
        end = next(v for v in verts if len(adj[v]) == 1)
        seq = arm(end, next(iter(adj[end])))
        seq = max(seq, seq[::-1])
        if seq == (3,) * (n - 1):
            label = "A"
        elif seq == (4,) + (3,) * (n - 2):
            label = "B"
        else:
            label = _PATHS.get(seq)
    elif len(branches) == 1 and len(adj[branches[0]]) == 3 and max(labels) == 3:
        centre = branches[0]
        arms = sorted(len(arm(centre, v)) for v in adj[centre])
        label = "D" if arms[:2] == [1, 1] else _FORKS.get(tuple(arms))
    else:
        return None
    return None if label is None else ComponentType(label, n, 0, comp, degrees_of(label, n))


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
