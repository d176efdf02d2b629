"""Growth series of standard parabolic subgroups, assembled exactly.

The table is filled bottom-up over subsets ordered by size.  The trivial
subgroup has series 1; every larger subset T is solved for out of the
alternating sum of reciprocal subseries S(T) = sum_{U < T} (-1)^{|U|} / W_U:

    finite W_T, longest length m:   W_T = (t^m - (-1)^{|T|}) / S(T)
    infinite W_T:                   1 / W_T = (-1)^{|T|+1} * S(T)

Finiteness comes from the diagram classifier, never from the series.  A zero
divisor in either branch is structurally impossible and raises
:class:`InvariantViolation` instead of silently producing nonsense.

``verify_identity`` re-assembles both sides of four classical identities
from the finished table (S below is the full generator set, Sph the family
of subsets generating finite subgroups, m the longest element length):

    1:  sum_{T <= S} (-1)^{|T|} / W_T(t)          == 0            (W infinite)
    2:  sum_{T <= S} (-1)^{|T|} / W_T(t)          == t^m / W(t)   (W finite)
    3:  sum_{T in Sph} (-1)^{|T|} chi_T / W_T(t)  == 1 / W(t)
    4:  sum_{T in Sph} (-1)^{|T|} / W_T(t)        == 1 / W(1/t)

Identity 1 (or 2, for finite groups) is the one the construction inverts, so
its check is flagged "holds by construction"; identities 3 and 4 never enter
the construction and are independent checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .classify import classify, spherical_subsets
from .coxeter import CoxeterMatrix, Mask, submasks
from .ratfunc import (Poly, RatFunc, RF_ZERO, format_ratfunc,
                      substitute_inverse)


class InvariantViolation(RuntimeError):
    """The growth recursion produced something structurally impossible."""


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


class GrowthTable:
    """Growth series of every standard parabolic subgroup of one system."""

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self._series = {0: RatFunc(1)}
        self._inverse = {0: RatFunc(1)}
        for subset in sorted(range(1, 1 << matrix.rank), key=lambda T: (T.bit_count(), T)):
            info = classify(matrix, subset)
            acc = RF_ZERO
            for sub in submasks(subset, proper=True):
                acc = acc + _sign(sub.bit_count()) * self._inverse[sub]
            size = subset.bit_count()
            if info.finite:
                if not acc:
                    raise InvariantViolation(
                        f"zero alternating sum below finite subset {subset:#x}")
                m = info.longest_length
                series = RatFunc(Poly.t_power(m) - _sign(size)) / acc
                if not series.is_polynomial or series.num.degree != m:
                    raise InvariantViolation(
                        f"finite subset {subset:#x} did not produce a degree-{m} polynomial")
            else:
                inverse = _sign(size + 1) * acc
                if not inverse:
                    raise InvariantViolation(
                        f"zero reciprocal series at infinite subset {subset:#x}")
                series = inverse.reciprocal()
            self._series[subset] = series
            self._inverse[subset] = series.reciprocal()

    def series(self, subset: Mask = None) -> RatFunc:
        if subset is None:
            subset = self.matrix.full_mask
        return self._series[subset]


@lru_cache(maxsize=None)
def growth_table(matrix: CoxeterMatrix) -> GrowthTable:
    return GrowthTable(matrix)


def growth_series(matrix: CoxeterMatrix, subset: Mask = None) -> RatFunc:
    """Growth series of the parabolic subgroup on ``subset`` (default: the whole group)."""
    return growth_table(matrix).series(subset)


# ---------------------------------------------------------------------------
# nerve data
# ---------------------------------------------------------------------------

def nerve_coefficient(matrix: CoxeterMatrix, subset: Mask) -> int:
    """Alternating count sum_{U >= subset, U spherical} (-1)^{|U|}.

    Defined here only for spherical subsets, which is where it is consumed.
    """
    if not classify(matrix, subset).finite:
        raise ValueError("nerve coefficient is only defined for spherical subsets")
    total = 0
    for u in spherical_subsets(matrix):
        if u & subset == subset:
            total += _sign(u.bit_count())
    return total


@dataclass(frozen=True)
class NerveLink:
    """Link of a spherical simplex in the nerve: all strictly larger spherical subsets."""

    base: Mask
    simplices: tuple   # spherical supersets U > base; dimension |U| - |base| - 1

    def euler_characteristic(self) -> int:
        base_size = self.base.bit_count()
        return sum(_sign(u.bit_count() - base_size - 1) for u in self.simplices)


def nerve_link(matrix: CoxeterMatrix, subset: Mask) -> NerveLink:
    if not classify(matrix, subset).finite:
        raise ValueError("nerve link is only defined for spherical subsets")
    ups = tuple(u for u in spherical_subsets(matrix)
                if u & subset == subset and u != subset)
    return NerveLink(base=subset, simplices=ups)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    identity: int
    applicable: bool
    holds: bool          # None when not applicable
    by_construction: bool
    lhs: RatFunc         # None when not applicable
    rhs: RatFunc
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.applicable and not self.holds

    def describe(self) -> str:
        if not self.applicable:
            return f"identity {self.identity}: not applicable ({self.note})"
        verdict = "holds" if self.holds else "FAILS"
        tag = " (by construction)" if self.by_construction else ""
        return (f"identity {self.identity}: {verdict}{tag}   "
                f"lhs = {format_ratfunc(self.lhs)}   rhs = {format_ratfunc(self.rhs)}")


def verify_identity(matrix: CoxeterMatrix, which: int) -> IdentityReport:
    """Check one of the four alternating-sum identities as exact rational functions."""
    if which not in (1, 2, 3, 4):
        raise ValueError("identity number must be 1, 2, 3 or 4")
    table = growth_table(matrix)
    full = matrix.full_mask
    info = classify(matrix, full)
    w_full = table.series(full)

    if which in (1, 2):
        want_finite = (which == 2)
        if info.finite != want_finite:
            note = ("the group is finite" if info.finite else "the group is infinite")
            return IdentityReport(which, False, None, False, None, None, note)
        lhs = RF_ZERO
        for subset in submasks(full):
            lhs = lhs + _sign(subset.bit_count()) * table.series(subset).reciprocal()
        if which == 1:
            rhs = RF_ZERO
        else:
            rhs = RatFunc(Poly.t_power(info.longest_length)) / w_full
        return IdentityReport(which, True, lhs == rhs, True, lhs, rhs,
                              "inverted to build the full-group entry")

    lhs = RF_ZERO
    for subset in spherical_subsets(matrix):
        term = _sign(subset.bit_count()) * table.series(subset).reciprocal()
        if which == 3:
            term = term * nerve_coefficient(matrix, subset)
        lhs = lhs + term
    if which == 3:
        rhs = w_full.reciprocal()
    else:
        rhs = substitute_inverse(w_full).reciprocal()
    return IdentityReport(which, True, lhs == rhs, False, lhs, rhs)


def verify_identities(matrix: CoxeterMatrix) -> list:
    """Reports for all four identities, in order."""
    return [verify_identity(matrix, k) for k in (1, 2, 3, 4)]
