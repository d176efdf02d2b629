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
all records, and ``census_by_type`` sets each type's slice of it next to its
exact closed form, read from the growth table's ``quotient`` W / W_T.

A coset w * W_T is recorded at its shortest element u, and u is shortest
exactly when its right descent set misses T (Bjorner-Brenti, *Combinatorics
of Coxeter Groups*, 2.4).  So the census is coset counts, then weights:
:func:`_coset_counts`, which knows no kind, counts the chambers of each
length whose descents miss T (the series of W / W_T) by one superset-sum
transform of the ball's (length, descent-mask) classes, and
:func:`_weighted` weights them by :func:`_weights`, the one table of what
the records of type T at such a chamber are worth, which the face-length
check and the panel unions also read.  The element-level reference walks the
records one by one in the tests.

Each public call first checks its request (:func:`_resolve`, or
:func:`_check_kind` where it takes no horizon), which classifies the whole
generator set and no other subset, so a refused request costs no census
work.  Whether the census then classifies every subset is decided by the
weights alone (:func:`_weights`): kind "coxeter" classifies nothing more,
and kinds "tits" and "davis" classify their system once
(:func:`classify_all`), or, in :func:`census_by_type`, read the
classification of the one growth table it builds.  Nothing is cached
between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import classify, classify_all
from .coxeter import CoxeterMatrix, Mask, format_subset, superset_sums
from .growth import GrowthTable, _nerve_coefficients, _sign
from .oracle import WordOracle, _built_sizes, _checked_oracle, coset_components
from .ratfunc import Poly, RatFunc, series_expand

KINDS = ("coxeter", "davis", "tits")
LEMMA_KINDS = ("coxeter", "davis")    # the chamber models; the lemma checks take these


def chain_sums(spherical: tuple) -> dict:
    """{T: (e_T, c_T)} for the given spherical subsets (in increasing mask
    order, as :func:`spherical_subsets` lists them), in that order, over the
    strict chains T = T0 < T1 < ... < Tk of them: e_T = sum (-1)^k and c_T
    is their number.

    A chain from T is T alone or T followed by a chain from a strict
    superset U, so e_T = 1 - sum_{U > T} e_U and c_T = 1 + sum_{U > T} c_U:
    one :func:`superset_sums` of each per size of T, from the largest down.
    By P. Hall's theorem e_T = (-1)^{|T|} chi_T; the recursion does not use
    it, so each can check the other.
    """
    signed, by_size = [0] * (1 << spherical[-1].bit_length()), {}
    counts = signed.copy()
    for t in spherical:
        by_size.setdefault(t.bit_count(), []).append(t)
    for size in sorted(by_size, reverse=True):    # only larger sets hold values yet
        above_signed, above_counts = superset_sums(signed.copy()), superset_sums(counts.copy())
        for t in by_size[size]:
            signed[t], counts[t] = 1 - above_signed[t], 1 + above_counts[t]
    return {t: (signed[t], counts[t]) for t in spherical}


def _weights(matrix: CoxeterMatrix, kind: str, classified=None) -> dict:
    """What the records of each valid type T at one chamber u are worth, in
    valid-type order: T -> (shift, signed, count).

    They have length value length(u) + shift; signed is the sum of (-1)^dim
    over them and count is their number:

        coxeter:  every proper T            (0, (-1)^{|S|-|T|-1}, 1)
        tits:     every spherical proper T  (m_T, (-1)^{|S|-|T|-1}, 1)
        davis:    every spherical T         (0, e_T, c_T)

    with m_T the longest length of W_T and e_T, c_T from :func:`chain_sums`.
    ``kind`` has passed :func:`_check_kind`.  This is the one place that
    decides whether a census needs the system's classification: kind
    "coxeter" reads none, and kinds "tits" and "davis" read ``classified``,
    the system's ``classify_all(matrix)``, running it here when none is
    given.
    """
    rank, full = matrix.rank, matrix.full_mask
    if kind == "coxeter":
        return {t: (0, _sign(rank - t.bit_count() - 1), 1) for t in range(full)}
    infos, spherical = classified or classify_all(matrix)
    if kind == "tits":
        return {t: (infos[t].longest_length, _sign(rank - t.bit_count() - 1), 1)
                for t in spherical if t != full}
    return {t: (0, e, c) for t, (e, c) in chain_sums(spherical).items()}


def _check_kind(matrix: CoxeterMatrix, kind: str, kinds: tuple = KINDS):
    """Refuse a kind outside ``kinds``, and kind "davis" on a finite group;
    return the classification of the whole generator set."""
    if kind not in kinds:
        raise ValueError(f"kind must be one of {kinds}, got {kind!r}")
    info = classify(matrix, matrix.full_mask)
    if kind == "davis" and info.finite:
        raise ValueError("the davis chamber model is only defined for infinite groups")
    return info


def _resolve(matrix: CoxeterMatrix, kind: str, horizon, oracle, kinds: tuple = KINDS):
    """Check a census request before any census work; return (horizon, oracle).

    Past :func:`_check_kind`: for a finite group the horizon may be omitted
    and defaults to the longest element length, so the whole (finite)
    complex is covered; an infinite group needs one.  The horizon must be
    nonnegative and the oracle built for ``matrix``.
    """
    info = _check_kind(matrix, kind, kinds)
    if horizon is None:
        if not info.finite:
            raise ValueError("a horizon is required for an infinite group")
        horizon = info.longest_length
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return horizon, _checked_oracle(matrix, oracle)


def _coset_counts(matrix: CoxeterMatrix, horizon: int, oracle: WordOracle, types) -> dict:
    """T -> [number of chambers of length k whose descents miss T, k <= horizon]
    for the masks T in ``types``, in their order: the series of W / W_T.

    A class of n chambers of length k and descents d counts for the T inside
    F = S - d: one :func:`superset_sums` over the classes placed at their F,
    each length k in the ``width``-bit digit at bit width * k.  No count
    exceeds the ball's size, which ``width`` bits hold, so no digit overflows.
    """
    full = matrix.full_mask
    width = sum(oracle.sphere_sizes(horizon)).bit_length()
    packed = [0] * (full + 1)
    for k in range(horizon + 1):
        for d, n in oracle.descent_counts(k).items():
            packed[full & ~d] += n << width * k
    sums = superset_sums(packed)
    digit = (1 << width) - 1
    return {t: [sums[t] >> width * k & digit for k in range(horizon + 1)] for t in types}


def _weighted(series, shift: int, weight: int, horizon: int) -> list:
    """weight * t^shift * series, for a series given up to t^horizon."""
    return ([0] * shift + [weight * c for c in series])[:horizon + 1]


def euler_series(matrix: CoxeterMatrix, kind: str, horizon: int = None,
                 oracle: WordOracle = None) -> list:
    """Coefficients of sum (-1)^dim t^length over the census, up to the horizon:
    the column sums of the types' slices."""
    horizon, oracle = _resolve(matrix, kind, horizon, oracle)
    weights = _weights(matrix, kind)
    counts = _coset_counts(matrix, horizon, oracle, weights)
    slices = [_weighted(counts[t], shift, signed, horizon)
              for t, (shift, signed, _) in weights.items()]
    return [sum(column) for column in zip([0] * (horizon + 1), *slices)]


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


def census_by_type(matrix: CoxeterMatrix, kind: str, horizon: int = None,
                   oracle: WordOracle = None) -> list:
    """Every valid type's census slice next to its exact closed form, in
    valid-type order.  Closed forms (W the full series, W_T the subset
    series, S the generators):

        coxeter:  (-1)^{|S|-|T|-1} * W(t) / W_T(t)
        davis:    (-1)^{|T|} chi_T * W(t) / W_T(t)
        tits:     (-1)^{|S|-|T|-1} * W(t) / W_T(1/t)

    Each is coeff * t^shift * W / W_T, with W / W_T the table's
    ``quotient(T)`` and the shift read from the table, not from
    :func:`_weights`: 0, or the degree of ``series(T)`` for tits, since W_T
    is a palindromic polynomial of degree m_T.  So both sides of the check
    are :func:`_weighted` series: of the type's coset counts, and of
    W / W_T, expanded once per distinct W_T; the types of one (W_T, coeff)
    share one closed form and one closed series.
    """
    horizon, oracle = _resolve(matrix, kind, horizon, oracle)
    table = GrowthTable(matrix)
    weights = _weights(matrix, kind, (table.infos, table.spherical))
    counts = _coset_counts(matrix, horizon, oracle, weights)
    chis = _nerve_coefficients(matrix.rank, table.spherical) if kind == "davis" else None
    # expansions: W / W_T -> its series to the horizon; W / W_T is a power
    # series, its denominator nonzero at t = 0, so scaling it needs no second
    # gcd; closed_forms: (W / W_T, coeff) -> the closed form and its series
    expansions, closed_forms, result = {}, {}, []
    for t, (shift, signed, count) in weights.items():
        quotient, size = table.quotient(t), t.bit_count()
        coeff = chis[t] * _sign(size) if kind == "davis" else _sign(matrix.rank - size - 1)
        if (quotient, coeff) not in closed_forms:
            if quotient not in expansions:
                expansions[quotient] = series_expand(quotient, horizon)
            closed_shift = table.series(t).num.degree if kind == "tits" else 0
            num = Poly([coeff * c for c in quotient.num.coeffs]).shifted(closed_shift)
            closed = _weighted(expansions[quotient], closed_shift, coeff, horizon)
            closed_forms[quotient, coeff] = RatFunc.from_coprime(num, quotient.den), tuple(closed)
        result.append(TypeCensus(kind, t, tuple(_weighted(counts[t], shift, signed, horizon)),
                                 *closed_forms[quotient, coeff],
                                 sum(_weighted(counts[t], shift, count, horizon))))
    return result


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
    face, computed independently from the face's coset piece inside the ball
    (reachable by right multiplications, never through descent-set
    reasoning): the length of the piece's first id, one of its shortest
    elements (see :func:`coset_components`).  Each type counts its ``count``
    faces per chamber (see :func:`_weights`).
    """
    horizon, oracle = _resolve(matrix, kind, horizon, oracle, LEMMA_KINDS)
    # the ball's ids are 0, 1, ... in ShortLex order, so by length
    lengths = [k for k, size in enumerate(_built_sizes(oracle, horizon)) for _ in range(size)]

    report = FaceLengthReport(kind=kind, horizon=horizon,
                              chambers_checked=len(lengths), simplices_checked=0)
    for t, (_, _, count) in _weights(matrix, kind).items():
        face_lengths = []           # per piece, met first at its first id
        for i, (cid, length) in enumerate(zip(coset_components(oracle, horizon, t), lengths)):
            if cid == len(face_lengths):
                face_lengths.append(length)
            face_length = face_lengths[cid]
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
    _check_kind(matrix, kind, LEMMA_KINDS)
    if subset & ~matrix.full_mask:
        raise ValueError("subset is not within the generator set")
    if kind == "davis" and not classify(matrix, subset).finite:
        raise ValueError("davis panel unions need every subset of the set to be spherical")
    return sum(signed for t, (_, signed, _) in _weights(matrix, kind).items() if t & subset)
