"""Simplex censuses of the chamber systems attached to a Coxeter system.

Three combinatorial models share one piece of coset bookkeeping: a simplex is
a coset w * W_T together with kind-specific type data, and it is recorded at
the coset's unique shortest element.

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
exactly when its right descent set misses T (Bjorner-Brenti, *Combinatorics
of Coxeter Groups*, 2.4).  So the records of type T at u depend on u only
through its length and descent mask, and :func:`_weights` gives what they
are worth at any such chamber: a length shift, the signed sum of (-1)^dim
over them and their number.  The census is a weighted class walk:
``census_by_type`` (every type's slice and record count in one pass, with
its closed form attached for comparison) and ``euler_series`` (the total)
take each (length, descent-mask) class of the ball once, weighted by its
size and by that table, which the face-length check and the panel unions
also read.  The element-level reference, which walks the records one by
one from per-element descent sets and listed chains, lives in the tests.

Each public call classifies its system once (:func:`classify_all`; the
census-by-type calls read the classification of the one growth table they
build) and passes that down; nothing is cached between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import classify_all
from .coxeter import CoxeterMatrix, Mask, format_subset, submasks
from .growth import GrowthTable, _nerve_coefficients, _sign
from .oracle import WordOracle, _checked_oracle, coset_components
from .ratfunc import RatFunc, series_expand

KINDS = ("coxeter", "davis", "tits")


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
    return list(_weights(matrix, kind, classify_all(matrix)))


def _weights(matrix: CoxeterMatrix, kind: str, classified) -> dict:
    """What the records of each valid type T at one chamber u are worth, in
    valid-type order: T -> (shift, signed, count).

    They have length value length(u) + shift; signed is the sum of (-1)^dim
    over them and count is their number:

        coxeter:  every proper T            (0, (-1)^{|S|-|T|-1}, 1)
        tits:     every spherical proper T  (m_T, (-1)^{|S|-|T|-1}, 1)
        davis:    every spherical T         (0, e_T, c_T)

    with m_T the longest length of W_T and e_T, c_T from :func:`chain_sums`.
    ``classified`` is the system's ``classify_all(matrix)``; kind "coxeter"
    does not read it.
    """
    rank, full = matrix.rank, matrix.full_mask
    if kind == "coxeter":
        return {t: (0, _sign(rank - t.bit_count() - 1), 1) for t in range(full)}
    if kind == "tits":
        infos, spherical = classified
        return {t: (infos[t].longest_length, _sign(rank - t.bit_count() - 1), 1)
                for t in spherical if t != full}
    if kind == "davis":
        return {t: (0, e, c) for t, (e, c) in chain_sums(classified[1]).items()}
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _resolve(matrix: CoxeterMatrix, kind: str, horizon, oracle, classified):
    """Check a census request; return (weights, horizon, oracle).

    ``classified`` is the system's ``classify_all(matrix)``.  For a finite
    group with kind "coxeter" or "tits" the horizon may be omitted and
    defaults to the longest element length, so the whole (finite) complex is
    covered.  Kind "davis" requires an infinite group.
    """
    weights = _weights(matrix, kind, classified)
    info = classified[0][matrix.full_mask]
    if kind == "davis" and info.finite:
        raise ValueError("the davis chamber model is only defined for infinite groups")
    if horizon is None:
        if not info.finite:
            raise ValueError("a horizon is required for an infinite group")
        horizon = info.longest_length
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return weights, horizon, _checked_oracle(matrix, oracle)


def _class_totals(matrix: CoxeterMatrix, kind: str, horizon: int, oracle: WordOracle,
                  weights: dict):
    """Every type's census slice and record count, in valid-type order, from
    the (length, descent mask) classes of the ball rather than its elements.

    A class of n chambers of length k records every type T inside the
    complement of its descents, so it adds n * signed to T's slice at k +
    shift and n * count to T's record count (see :func:`_weights`).
    """
    slices = {t: [0] * (horizon + 1) for t in weights}
    counts = dict.fromkeys(weights, 0)
    for k in range(horizon + 1):
        for d, n in oracle.descent_counts(k).items():
            free = matrix.full_mask & ~d
            for t in submasks(free) if kind == "coxeter" else weights:
                if t & free == t and t in weights:
                    shift, signed, count = weights[t]
                    if k + shift <= horizon:
                        slices[t][k + shift] += signed * n
                        counts[t] += count * n
    return slices, counts


def euler_series(matrix: CoxeterMatrix, kind: str, horizon: int = None,
                 oracle: WordOracle = None) -> list:
    """Coefficients of sum (-1)^dim t^length over the census, up to the horizon."""
    classified = classify_all(matrix)
    weights, horizon, oracle = _resolve(matrix, kind, horizon, oracle, classified)
    slices, _ = _class_totals(matrix, kind, horizon, oracle, weights)
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
                 census: list, records: int, chis: dict, quotients: dict) -> TypeCensus:
    """Attach type t's closed form (see :func:`census_by_type`), read from the
    system's table apart from :func:`_weights`, to its slice; ``chis`` holds
    the nerve coefficients (kind "davis" only).

    Every kind's closed form is coeff * t^shift * W / W_T: the shift is 0, or
    m_T for tits, since W_T is a palindromic polynomial of degree m_T, so
    W_T(1/t) = t^{-m_T} * W_T(t).  ``quotients`` keeps the reduced W / W_T
    per W_T met in the call; its denominator is nonzero at t = 0 (W / W_T is
    a power series), so scaling by coeff * t^shift needs no second gcd.
    """
    wt = table.series(t)
    if wt not in quotients:
        w = table.series()
        quotients[wt] = RatFunc(w.num * wt.den, w.den * wt.num)
    base = quotients[wt]
    size = t.bit_count()
    coeff = chis[t] * _sign(size) if kind == "davis" else _sign(table.matrix.rank - size - 1)
    shift = wt.num.degree if kind == "tits" else 0
    closed = RatFunc.from_coprime((coeff * base.num).shifted(shift), base.den)
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
    weights, horizon, oracle = _resolve(matrix, kind, horizon, oracle, classified)
    slices, counts = _class_totals(matrix, kind, horizon, oracle, weights)
    chis = _nerve_coefficients(matrix.rank, table.spherical) if kind == "davis" else None
    quotients = {}
    return [_type_census(table, kind, horizon, t, slices[t], counts[t], chis, quotients)
            for t in weights]


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
    descent-set reasoning).  Each type counts its ``count`` faces per chamber
    (see :func:`_weights`).
    """
    if kind not in ("coxeter", "davis"):
        raise ValueError("the face-length criterion applies to kinds 'coxeter' and 'davis'")
    classified = classify_all(matrix)
    weights, horizon, oracle = _resolve(matrix, kind, horizon, oracle, classified)
    # the ball's ids are 0, 1, ... in ShortLex order, so by length
    lengths = [k for k, size in enumerate(oracle.sphere_sizes(horizon)) for _ in range(size)]

    report = FaceLengthReport(kind=kind, horizon=horizon,
                              chambers_checked=len(lengths), simplices_checked=0)
    for t, (_, _, count) in weights.items():
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
            report.simplices_checked += count
            if drops != meets:
                report.counterexamples.append(
                    f"chamber {oracle.word(i)}, type {format_subset(t)}: "
                    f"face length {face_length} vs chamber length {length}, "
                    f"descent intersection {'nonempty' if meets else 'empty'}")
    return report


def panel_union_euler(matrix: CoxeterMatrix, kind: str, subset: Mask) -> int:
    """Euler characteristic of the union of panels Y_s, s in ``subset``,
    inside one chamber of the given kind.

    A face belongs to the union exactly when its type meets ``subset``, so
    the union's Euler characteristic is the sum of ``signed`` (see
    :func:`_weights`) over those types.  For kind "davis" every subset of
    ``subset`` must be spherical (equivalently, ``subset`` itself is), which
    holds for every descent set.
    """
    if kind not in ("coxeter", "davis"):
        raise ValueError("panel unions live in the chamber models 'coxeter' and 'davis'")
    full = matrix.full_mask
    if subset & ~full:
        raise ValueError("subset is not within the generator set")
    classified = None               # the coxeter weights read no classification
    if kind == "davis":
        classified = classify_all(matrix)
        if classified[0][full].finite:
            raise ValueError("the davis chamber model is only defined for infinite groups")
        if not classified[0][subset].finite:
            raise ValueError("davis panel unions need every subset of the set to be spherical")
    return sum(signed for t, (_, signed, _) in _weights(matrix, kind, classified).items()
               if t & subset)
