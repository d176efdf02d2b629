"""Simplex censuses of the chamber systems attached to a Coxeter system.

Three combinatorial models share one piece of coset bookkeeping: a simplex is
a coset w * W_T together with kind-specific type data, and it is recorded by
the canonical word of the coset's unique shortest element.

* ``"coxeter"`` -- the chamber is a full simplex; simplices are cosets
  w * W_T over ALL proper subsets T, with dimension |S| - |T| - 1.
* ``"davis"``  -- the chamber is spanned by barycentres of spherical-type
  faces; a simplex is a coset w * W_{T0} together with a strict chain
  T0 < T1 < ... < Tk of spherical subsets, with dimension k and type the
  chain minimum T0.  Only defined for infinite groups (a finite group's
  chamber would include the missing top face).
* ``"tits"``   -- spherical-type faces only; simplices are cosets w * W_T
  over spherical proper T, weighted by the LONGEST chamber length.

The length value of a record is length(shortest representative) for coxeter
and davis, and length(shortest) + longest_length(T) for tits (the longest
element of the coset).  ``euler_series`` collects sum (-1)^dim t^length over
all records; the per-type slices have exact closed forms in terms of the
growth table.

A coset w * W_T is recorded at its shortest element u, and u is shortest
exactly when its right descent set misses T, so the records at u depend on u
only through its length and descent mask.  The counters -- ``census_by_type``,
the one-pass API that fills every type's slice and record count at once and
attaches its closed form for comparison, and ``euler_series`` (the total) --
therefore walk the (length, descent-mask) classes of the ball and take each
class once, weighted by its size.  Only ``enumerate_simplices`` walks the
census record by record, because its records carry the canonical word of
each coset.

The class walk needs only two numbers per type: the signed sum of (-1)^dim
over its faces and their number.  A coxeter or tits type has one face; for
davis the numbers are e_T and c_T, the signed sum and the count of the
spherical chains starting at T, which :func:`chain_sums` counts by a
recursion without listing a chain.  The chains are listed only for the
record walk, and the tests hold the two walks to each other.

Each public call classifies its system once (:func:`classify_all`; the
census-by-type calls read the classification of the one growth table they
build) and passes that down; nothing is cached between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import classify_all, spherical_subsets
from .coxeter import CoxeterMatrix, Mask, format_subset, submasks
from .growth import GrowthTable, _nerve_coefficients, _sign
from .oracle import WordOracle, coset_components
from .ratfunc import RatFunc, series_expand

KINDS = ("coxeter", "davis", "tits")


@dataclass(frozen=True)
class SimplexRecord:
    kind: str
    rep: tuple            # canonical word of the coset's shortest element
    type_mask: Mask       # T for coxeter/tits; the chain minimum for davis
    chain: tuple          # davis only: the full chain of subset masks, else None
    dim: int
    length_value: int


def spherical_chains(spherical: tuple) -> tuple:
    """All strict chains T0 < T1 < ... < Tk of the given spherical subsets
    (in increasing mask order, as :func:`spherical_subsets` lists them), as
    mask tuples, grouped by T0 in that order."""
    chains_from = {}
    for i in range(len(spherical) - 1, -1, -1):    # a strict superset is a larger mask
        t = spherical[i]
        out = [(t,)]
        for u in spherical[i + 1:]:
            if u & t == t:
                out.extend((t,) + c for c in chains_from[u])
        chains_from[t] = out
    return tuple(c for t in spherical for c in chains_from[t])


def chain_sums(spherical: tuple) -> dict:
    """{T: (e_T, c_T)} for the given spherical subsets (in increasing mask
    order, as :func:`spherical_subsets` lists them), in that order, over the
    strict chains T = T0 < T1 < ... < Tk of them: e_T = sum (-1)^k and c_T
    is their number.

    A chain from T is T alone or T followed by a chain from a strict
    superset U, so e_T = 1 - sum_{U > T} e_U and c_T = 1 + sum_{U > T} c_U,
    and one pass from the top counts them without listing a chain.  By
    P. Hall's theorem e_T = (-1)^{|T|} chi_T; the recursion does not use
    it, so each can check the other.
    """
    signed, counts = {}, {}
    for i in range(len(spherical) - 1, -1, -1):    # a strict superset is a larger mask
        t = spherical[i]
        above = [u for u in spherical[i + 1:] if u & t == t]
        signed[t] = 1 - sum(signed[u] for u in above)
        counts[t] = 1 + sum(counts[u] for u in above)
    return {t: (signed[t], counts[t]) for t in spherical}


def valid_type_masks(matrix: CoxeterMatrix, kind: str) -> list:
    """The subset types a record of this kind can carry."""
    return _valid_types(matrix, kind, spherical_subsets(matrix))


def _valid_types(matrix: CoxeterMatrix, kind: str, spherical: tuple) -> list:
    full = matrix.full_mask
    if kind == "coxeter":
        return [t for t in range(full + 1) if t != full]
    if kind == "davis":
        return list(spherical)
    if kind == "tits":
        return [t for t in spherical if t != full]
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _resolve(matrix: CoxeterMatrix, kind: str, horizon, oracle, classified):
    """Check a census request; return (valid types, horizon, oracle).

    ``classified`` is the system's ``classify_all(matrix)``.  For a finite
    group with kind "coxeter" or "tits" the horizon may be omitted and
    defaults to the longest element length, so the whole (finite) complex is
    covered.  Kind "davis" requires an infinite group.
    """
    infos, spherical = classified
    types = _valid_types(matrix, kind, spherical)
    info = infos[matrix.full_mask]
    if kind == "davis" and info.finite:
        raise ValueError("the davis chamber model is only defined for infinite groups")
    if horizon is None:
        if not info.finite:
            raise ValueError("a horizon is required for an infinite group")
        horizon = info.longest_length
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if oracle is None:
        oracle = WordOracle(matrix)
    return types, horizon, oracle


def _faces(matrix: CoxeterMatrix, kind: str, classified) -> dict:
    """Each valid type's faces, in valid-type order: type -> (shift,
    ((chain, dim), ...)).

    A face of type T recorded at a chamber u has length value length(u) +
    shift, the same shift for every face of T: 0 for coxeter and davis, the
    longest length of W_T for tits.  Davis faces are the spherical chains
    starting at T, listed here for the record walk only; the class walk
    counts them by :func:`chain_sums`.  The other kinds have one face per
    type, with no chain.
    """
    infos, spherical = classified
    if kind == "davis":
        chains = {}
        for chain in spherical_chains(spherical):
            chains.setdefault(chain[0], []).append((chain, len(chain) - 1))
        return {t: (0, tuple(c)) for t, c in chains.items()}
    return {t: (infos[t].longest_length if kind == "tits" else 0,
                ((None, matrix.rank - t.bit_count() - 1),))
            for t in _valid_types(matrix, kind, spherical)}


def _types_at(matrix: CoxeterMatrix, kind: str, descents: Mask, faces: dict):
    """The types recorded at a chamber with these descents: the valid types
    inside the complement of the descent set."""
    free = matrix.full_mask & ~descents
    types = submasks(free) if kind == "coxeter" else faces
    return (t for t in types if t & free == t and t in faces)


def _simplices(matrix: CoxeterMatrix, kind: str, horizon: int, oracle: WordOracle,
               classified):
    """Yield (rep id, type_mask, chain, dim, length_value) for every simplex of
    the census with length value <= horizon, in no particular order.

    A coset of type T is recorded by its shortest element u, recognized by its
    descent set missing T entirely (Bjorner-Brenti, *Combinatorics of Coxeter
    Groups*, 2.4), so the types at u are the submasks of the complement of its
    descent set.  The arguments are those returned by :func:`_resolve`, and
    the classification it read.
    """
    faces = _faces(matrix, kind, classified)
    for k in range(horizon + 1):
        for i in oracle.sphere_ids(k):
            for t in _types_at(matrix, kind, oracle.descents(i), faces):
                shift, chains = faces[t]
                if k + shift <= horizon:
                    for chain, dim in chains:
                        yield i, t, chain, dim, k + shift


def _class_totals(matrix: CoxeterMatrix, kind: str, horizon: int, oracle: WordOracle,
                  classified):
    """Every type's census slice and record count, from the (length, descent
    mask) classes of the ball rather than its elements, in valid-type order.

    The records of type T at a chamber depend on the chamber only through
    its length k and descent mask d (see :func:`_simplices`), so a class of
    n chambers adds n * sum (-1)^dim over T's faces to T's slice at k +
    shift, and n * (number of faces) to its record count.
    """
    if kind == "davis":
        folded = {t: (0, e, c) for t, (e, c) in chain_sums(classified[1]).items()}
    else:
        folded = {t: (shift, sum(_sign(dim) for _, dim in chains), len(chains))
                  for t, (shift, chains) in _faces(matrix, kind, classified).items()}
    slices = {t: [0] * (horizon + 1) for t in folded}
    counts = dict.fromkeys(folded, 0)
    for k in range(horizon + 1):
        for d, n in oracle.descent_counts(k).items():
            for t in _types_at(matrix, kind, d, folded):
                shift, signed, size = folded[t]
                if k + shift <= horizon:
                    slices[t][k + shift] += signed * n
                    counts[t] += size * n
    return slices, counts


def enumerate_simplices(matrix: CoxeterMatrix, kind: str, horizon: int = None,
                        oracle: WordOracle = None) -> list:
    """All simplex records with length value <= horizon, sorted deterministically.

    The horizon may be omitted for a finite group with kind "coxeter" or
    "tits"; kind "davis" requires an infinite group.
    """
    classified = classify_all(matrix)
    _, horizon, oracle = _resolve(matrix, kind, horizon, oracle, classified)
    records = [SimplexRecord(kind, oracle.word(i), *rest)
               for i, *rest in _simplices(matrix, kind, horizon, oracle, classified)]
    records.sort(key=lambda r: (r.length_value, r.type_mask, r.chain or (), r.rep))
    return records


def euler_series(matrix: CoxeterMatrix, kind: str, horizon: int = None,
                 oracle: WordOracle = None) -> list:
    """Coefficients of sum (-1)^dim t^length over the census, up to the horizon."""
    classified = classify_all(matrix)
    _, horizon, oracle = _resolve(matrix, kind, horizon, oracle, classified)
    slices, _ = _class_totals(matrix, kind, horizon, oracle, classified)
    coeffs = [0] * (horizon + 1)
    for census in slices.values():
        for length, c in enumerate(census):
            coeffs[length] += c
    return coeffs


@dataclass(frozen=True)
class TypeCensus:
    """One type's census slice next to its closed form."""

    kind: str
    type_mask: Mask
    census: tuple
    closed_form: RatFunc
    closed_series: tuple
    records: int          # number of simplex records of this type in the census

    @property
    def matches(self) -> bool:
        return self.census == self.closed_series


def _type_census(table: GrowthTable, kind: str, horizon: int, t: Mask,
                 census: list, records: int, chis: dict) -> TypeCensus:
    """Attach type t's closed form (see :func:`census_by_type`), read from the
    system's table, to its slice; ``chis`` holds the nerve coefficients (kind
    "davis" only).

    Every kind's closed form is coeff * t^shift * W / W_T, built as one
    fraction: the shift is 0, or m_T for tits, since W_T is a palindromic
    polynomial of degree m_T, so W_T(1/t) = t^{-m_T} * W_T(t).
    """
    rank = table.matrix.rank
    w = table.series()
    wt = table.series(t)
    size = t.bit_count()
    coeff = chis[t] * _sign(size) if kind == "davis" else _sign(rank - size - 1)
    shift = wt.num.degree if kind == "tits" else 0
    closed = RatFunc((coeff * w.num * wt.den).shifted(shift), w.den * wt.num)
    return TypeCensus(kind, t, tuple(census), closed,
                      tuple(series_expand(closed, horizon)), records)


def census_by_type(matrix: CoxeterMatrix, kind: str, horizon: int = None,
                   oracle: WordOracle = None) -> list:
    """Every valid type's census slice, with its exact closed form attached,
    from one pass over the census; in :func:`valid_type_masks` order.

    Closed forms (W the full series, W_T the subset series, S the generators):

        coxeter:  (-1)^{|S|-|T|-1} * W(t) / W_T(t)
        davis:    (-1)^{|T|} chi_T * W(t) / W_T(t)
        tits:     (-1)^{|S|-|T|-1} * W(t) / W_T(1/t)
    """
    table = GrowthTable(matrix)
    classified = (table.infos, table.spherical)
    types, horizon, oracle = _resolve(matrix, kind, horizon, oracle, classified)
    slices, counts = _class_totals(matrix, kind, horizon, oracle, classified)
    chis = _nerve_coefficients(matrix.rank, table.spherical) if kind == "davis" else None
    return [_type_census(table, kind, horizon, t, slices[t], counts[t], chis)
            for t in types]


# ---------------------------------------------------------------------------
# face-length criterion and panel unions
# ---------------------------------------------------------------------------

@dataclass
class FaceLengthReport:
    kind: str
    horizon: int
    chambers_checked: int
    simplices_checked: int
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def check_face_length_drop(matrix: CoxeterMatrix, kind: str, horizon: int = None,
                           oracle: WordOracle = None) -> FaceLengthReport:
    """Check, for every chamber w in the ball, and every face of that chamber:

        length(face) < length(w)   <=>   type(face) meets the descent set of w

    where length(face) is the length of the shortest chamber containing the
    face, computed independently as the minimum over the face's coset piece
    inside the ball (reachable by right multiplications, never through
    descent-set reasoning).
    """
    if kind not in ("coxeter", "davis"):
        raise ValueError("the face-length criterion applies to kinds 'coxeter' and 'davis'")
    classified = classify_all(matrix)
    types, horizon, oracle = _resolve(matrix, kind, horizon, oracle, classified)
    # the ball's ids are 0, 1, ... in ShortLex order, so by length
    lengths = [k for k, size in enumerate(oracle.sphere_sizes(horizon)) for _ in range(size)]
    if kind == "coxeter":
        weighted_types = [(t, 1) for t in types]
    else:
        weighted_types = [(t, c) for t, (_, c) in chain_sums(classified[1]).items()]

    report = FaceLengthReport(kind=kind, horizon=horizon,
                              chambers_checked=len(lengths), simplices_checked=0)
    for t, weight in weighted_types:
        comp = coset_components(oracle, horizon, t)
        comp_min = {}
        for cid, length in zip(comp, lengths):
            cur = comp_min.get(cid)
            if cur is None or length < cur:
                comp_min[cid] = length
        for i, (cid, length) in enumerate(zip(comp, lengths)):
            face_length = comp_min[cid]
            drops = face_length < length
            meets = oracle.descents(i) & t != 0
            report.simplices_checked += weight
            if drops != meets:
                report.counterexamples.append(
                    f"chamber {oracle.word(i)}, type {format_subset(t)}: "
                    f"face length {face_length} vs chamber length {length}, "
                    f"descent intersection {'nonempty' if meets else 'empty'}")
    return report


def panel_union_euler(matrix: CoxeterMatrix, kind: str, subset: Mask) -> int:
    """Euler characteristic of the union of panels Y_s, s in ``subset``,
    inside one chamber of the given kind.

    A face belongs to the union exactly when its type meets ``subset``.  For
    kind "davis" every subset of ``subset`` must be spherical (equivalently,
    ``subset`` itself is), which holds for every descent set.
    """
    if kind not in ("coxeter", "davis"):
        raise ValueError("panel unions live in the chamber models 'coxeter' and 'davis'")
    full = matrix.full_mask
    if subset & ~full:
        raise ValueError("subset is not within the generator set")
    rank = matrix.rank
    if kind == "coxeter":
        return sum(_sign(rank - t.bit_count() - 1)
                   for t in submasks(full, proper=True) if t & subset)
    infos, spherical = classify_all(matrix)
    if infos[full].finite:
        raise ValueError("the davis chamber model is only defined for infinite groups")
    if not infos[subset].finite:
        raise ValueError("davis panel unions need every subset of the set to be spherical")
    return sum(e for t, (e, _) in chain_sums(spherical).items() if t & subset)
