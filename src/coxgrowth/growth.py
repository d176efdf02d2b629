"""Growth series of standard parabolic subgroups, assembled exactly.

The table is built by inverting the alternating sum of reciprocal subseries
S(T) = sum_{U < T} (-1)^{|U|} / W_U, one subset T at a time:

    finite W_T, longest length m:   W_T = (t^m - (-1)^{|T|}) / S(T)
    infinite W_T:                   1 / W_T = (-1)^{|T|+1} * S(T)

Finiteness and m come from the diagram classifier, never from the series.

All of this runs over one common denominator.  A finite W_T is a product of
cyclotomic polynomials Phi_k (k >= 2), Phi_k occurring once per degree of
W_T divisible by k (Solomon 1966), so every 1/W_T, and every signed sum of
them, is N_T / L for an integer polynomial N_T and the one denominator

    L = prod_k Phi_k^{e_k},   e_k = max over spherical T of #{degrees of T divisible by k},

built per table from the classifier's degree tuples.  The recursion then
adds plain integer coefficient vectors (no gcd anywhere): an infinite entry
is N_T = (-1)^{|T|+1} * acc with acc = L * S(T), and a finite entry is
N_T = acc / (t^m - (-1)^{|T|}) followed by W_T = L / N_T.  Both divisions
must be exact in Z[t] and W_T must have degree m; a zero acc, an inexact
division or a wrong degree is structurally impossible and raises
:class:`InvariantViolation` instead of returning nonsense.  The degrees only
size L: no entry is ever set from Solomon's product formula.

Subsets are visited in increasing mask order, which lists every subset
before its supersets.  The sums over proper subsets are formed by a
divide-and-conquer over the bits: a block of masks sharing their high bits
is solved as its lower half (next bit clear), whose subset sums are then
added into the upper half before it is solved, and each block hands its
own subset sums back up.  That is n * 2^n vector additions in place of one
per (subset, proper subset) pair, 3^n.  ``series(T)`` canonicalises one
entry, once, when it is asked for.

``verify_identity`` re-assembles both sides of four classical identities
from the finished table (S below is the full generator set, Sph the family
of subsets generating finite subgroups, m the longest element length), each
side summed over L and canonicalised once:

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
from operator import add

from .classify import classify, spherical_subsets
from .coxeter import CoxeterMatrix, Mask
from .ratfunc import P_ONE, Poly, RatFunc, RF_ZERO, format_ratfunc, substitute_inverse


class InvariantViolation(RuntimeError):
    """The growth recursion produced something structurally impossible."""


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


def _cyclotomic(k: int, known: dict) -> Poly:
    """Phi_k, from t^k - 1 over the Phi_d of its proper divisors (memoised in ``known``)."""
    if k not in known:
        phi = Poly.t_power(k) - 1
        for d in range(1, k // 2 + 1):
            if k % d == 0:
                phi = phi.exact_div(_cyclotomic(d, known))
        known[k] = phi
    return known[k]


def _common_denominator(degree_tuples) -> Poly:
    """L = prod_k Phi_k^{e_k}: the least common multiple of the prod_i [d_i]_t."""
    exponents = {}
    for degrees in degree_tuples:
        counts = {}
        for d in degrees:
            for k in range(2, d + 1):
                if d % k == 0:
                    counts[k] = counts.get(k, 0) + 1
        for k, c in counts.items():
            exponents[k] = max(exponents.get(k, 0), c)
    known = {}
    out = P_ONE
    for k in sorted(exponents):
        phi = _cyclotomic(k, known)
        for _ in range(exponents[k]):
            out = out * phi
    return out


def _add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def _divide_binomial(acc: list, m: int, sign: int):
    """acc / (t^m - sign) as a coefficient list of the same length, or None if inexact."""
    rem = list(acc)
    quot = [0] * len(acc)
    for k in range(len(acc) - 1, m - 1, -1):
        c = rem[k]
        if c:
            quot[k - m] = c
            rem[k - m] += sign * c
    return None if any(rem[:m]) else quot


class GrowthTable:
    """Growth series of every standard parabolic subgroup of one system.

    ``denominator`` is the common denominator L; entry T is held as the
    signed numerator (-1)^{|T|} N_T of 1/W_T = N_T / L, a coefficient list
    of length deg L + 1.
    """

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        infos = [classify(matrix, T) for T in range(1 << matrix.rank)]
        self.denominator = _common_denominator({i.degrees for i in infos if i.finite})
        self._signed = [None] * len(infos)
        self._polynomials = {0: P_ONE}    # W_T of every finite T
        self._series = {}
        width = len(self.denominator.coeffs)
        self._block(0, matrix.rank, [[0] * width] * len(infos), infos)

    def _block(self, base: Mask, k: int, incoming: list, infos: list) -> list:
        """Solve the masks base | x, x < 2^k, and return their subset sums.

        ``incoming[x]`` is the sum of the signed numerators of the subsets of
        base | x that lie outside the block; the result's entry x is the sum
        over the subsets of base | x inside it.
        """
        if k == 0:
            self._signed[base] = self._solve(base, incoming[0], infos[base])
            return [self._signed[base]]
        half = 1 << (k - 1)
        low = self._block(base, k - 1, incoming[:half], infos)
        high = self._block(base | half, k - 1,
                           list(map(_add, incoming[half:], low)), infos)
        return low + list(map(_add, low, high))

    def _solve(self, subset: Mask, acc: list, info) -> list:
        """Signed numerator of one entry from the sum ``acc`` over its proper subsets."""
        if subset == 0:
            return list(self.denominator.coeffs)
        sign = _sign(subset.bit_count())
        if not info.finite:
            if not any(acc):
                raise InvariantViolation(
                    f"zero reciprocal series at infinite subset {subset:#x}")
            return [-c for c in acc]
        if not any(acc):
            raise InvariantViolation(
                f"zero alternating sum below finite subset {subset:#x}")
        m = info.longest_length
        numerator = _divide_binomial(acc, m, sign)
        series = None
        if numerator is not None:
            try:
                series = self.denominator.exact_div(Poly(numerator))
            except ValueError:
                pass
        if series is None or series.degree != m:
            raise InvariantViolation(
                f"finite subset {subset:#x} did not produce a degree-{m} polynomial")
        self._polynomials[subset] = series
        return numerator if sign > 0 else [-c for c in numerator]

    def _numerator(self, subset: Mask) -> Poly:
        """N_T, with 1 / W_T = N_T / L."""
        sign = _sign(subset.bit_count())
        return Poly(c * sign for c in self._signed[subset])

    def series(self, subset: Mask = None) -> RatFunc:
        if subset is None:
            subset = self.matrix.full_mask
        if subset & ~self.matrix.full_mask:
            raise ValueError("subset is not within the generator set")
        if subset not in self._series:
            if subset in self._polynomials:
                self._series[subset] = RatFunc(self._polynomials[subset])
            else:
                self._series[subset] = RatFunc(self.denominator, self._numerator(subset))
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

def nerve_coefficients(matrix: CoxeterMatrix) -> dict:
    """chi_T = sum_{U >= T, U spherical} (-1)^{|U|} for every spherical T, as
    {T: chi_T} in :func:`spherical_subsets` order.

    One superset-sum (zeta) transform over all 2^n masks: after the pass for
    bit i, entry T holds the sum over the U >= T that differ from T only in
    bits 0..i.  That is n * 2^(n-1) additions, not one scan of the spherical
    subsets per subset.
    """
    sph = spherical_subsets(matrix)
    size = 1 << matrix.rank
    acc = [0] * size
    for u in sph:
        acc[u] = _sign(u.bit_count())
    step = 1
    while step < size:
        for base in range(0, size, 2 * step):
            acc[base:base + step] = map(add, acc[base:base + step],
                                        acc[base + step:base + 2 * step])
        step *= 2
    return {t: acc[t] for t in sph}


def nerve_coefficient(matrix: CoxeterMatrix, subset: Mask) -> int:
    """chi_T for one spherical subset T; see :func:`nerve_coefficients`.

    Defined here only for spherical subsets, which is where it is consumed.
    """
    if not classify(matrix, subset).finite:
        raise ValueError("nerve coefficient is only defined for spherical subsets")
    return nerve_coefficients(matrix)[subset]


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
    signed = table._signed

    def over_denominator(terms):
        total = [0] * len(table.denominator.coeffs)
        for term in terms:
            total = _add(total, term)
        return RatFunc(Poly(total), table.denominator)

    if which in (1, 2):
        want_finite = (which == 2)
        if info.finite != want_finite:
            note = ("the group is finite" if info.finite else "the group is infinite")
            return IdentityReport(which, False, None, False, None, None, note)
        lhs = over_denominator(signed)
        if which == 1:
            rhs = RF_ZERO
        else:
            rhs = RatFunc(table._numerator(full).shifted(info.longest_length),
                          table.denominator)
        return IdentityReport(which, True, lhs == rhs, True, lhs, rhs,
                              "inverted to build the full-group entry")

    if which == 3:
        lhs = over_denominator([c * chi for c in signed[T]]
                               for T, chi in nerve_coefficients(matrix).items())
    else:
        lhs = over_denominator(signed[T] for T in spherical_subsets(matrix))
    reciprocal = RatFunc(table._numerator(full), table.denominator)
    rhs = reciprocal if which == 3 else substitute_inverse(reciprocal)
    return IdentityReport(which, True, lhs == rhs, False, lhs, rhs)


def verify_identities(matrix: CoxeterMatrix) -> list:
    """Reports for all four identities, in order."""
    return [verify_identity(matrix, k) for k in (1, 2, 3, 4)]
