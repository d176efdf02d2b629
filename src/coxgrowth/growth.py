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
adds integer coefficient vectors (no gcd anywhere): an infinite entry is
N_T = (-1)^{|T|+1} * acc with acc = L * S(T), and a finite entry is
N_T = acc / (t^m - (-1)^{|T|}) followed by W_T = L / N_T.  Both divisions
must be exact in Z[t] and W_T must have degree m; a zero acc, an inexact
division or a wrong degree is structurally impossible and raises
:class:`InvariantViolation` instead of returning nonsense.  The degrees only
size L: no entry is ever set from Solomon's product formula.

Subsets are visited in increasing mask order, which lists every subset
before its supersets.  The sums over proper subsets are formed by a
divide-and-conquer over the bits (Yates' subset-sum transform, run as the
entries are solved): a block of masks sharing their high bits is solved as
its lower half (next bit clear), whose subset sums are then added into the
upper half before it is solved, and each block hands its own subset sums
back up.  That is about n * 2^n vector additions in place of one per
(subset, proper subset) pair, 3^n.  Only lower halves' sums are ever read,
so the top block and its chain of upper halves form none, and each frees
its lower half's sums before its upper half recurses; ``verify`` on A_16
peaks near 100 MB resident (CPython 3.11, x86-64).  The halving stops at
leaf blocks of 2^K masks, K = ``_LEAF_BITS``: a leaf is solved in one flat
loop, each entry's sum being what came in from outside the block plus the
block's entries on its proper submasks, listed once for the module.  A leaf
makes 3^K - 2^K additions where halving it would make K 2^(K-1), and a
rank-n build makes 2^(n-K+1) - 1 block calls (one below rank K) instead of
2^(n+1) - 1 (a call per mask and per halving).

Packed numerators.  Each coefficient vector is held as one Python int, its
value at t = 2^k (Kronecker substitution; k = 64 bits to start), so every
vector addition of the recursion is one bignum addition.  Decoding the
balanced base-2^k digits is exact only while every |coefficient| is below
2^(k-1), so each entry carries a proven bound: the exact max |coefficient|
of a decoded finite numerator, and the sum of the bounds for every sum.  The
bound is checked before every decode and every zero test; a table whose
bounds outgrow the digits is rebuilt at twice the width, and no entry is
read from a digit that may have overflowed.  The identity sums add packed
terms in runs whose bounds fit and decode each run.  A decode is one
``to_bytes`` and one ``struct`` unpack of the whole value, into
little-endian limbs of the largest of 8, 4, 2 and 1 bytes that divides the
digit width; the limbs of each digit are joined, and the offset taken off,
by C-level ``map``, with no slice or call per digit.

Packed divisions.  A finite entry's two divisions run on the packed ints
themselves, as integer divisions at B = 2^k: N_T = acc // (B^m - sign) and
W_T = L // N_T.  An exact polynomial division stays exact at t = B, so a
nonzero remainder proves it inexact (:class:`InvariantViolation`).  A zero
remainder proves it exact only with a bound: when 2 max|N_T| < 2^(k-1)
the balanced digits of N_T * (t^m - sign) are its coefficients, so they are
acc's, and when ||N_T||_1 max|W_T| < 2^(k-1) those of W_T * N_T are L's.
A failed bound is an overflow like any other, and the table is rebuilt
wider; only N_T and W_T are decoded, for these bounds and for the
``RatFunc``.

One division per distinct numerator.  Subsets of the same finite type have
the same acc, so a finite entry's two divisions, their bounds, its degree-m
test and its ``RatFunc`` W_T are memoised on (acc, m, (-1)^{|T|}) for the
length of the build.  The same input gives the
same verdict, so each verdict is reached once per distinct key: a failing
one raises at the first subset that meets it, and the memo holds only
entries that passed.  Every subset of one finite series holds the one W_T
object.  A_16 needs 296 such divisions for its 65 536 entries, and holds
297 W_T objects with the empty one.

Canonical forms without a gcd.  gcd(p, L) = prod_k Phi_k^{min(e_k, v_k)},
v_k the multiplicity of Phi_k in p, so trial division by L's own factors
cancels it (:func:`~coxgrowth.ratfunc.cancel_factors`), and the coprime
pair needs only content and sign normalised.  ``series(T)`` of an infinite
T and the left side of every identity are reduced this way; ``series(T)``
canonicalises one infinite entry, once, when it is asked for.

The table is the one owner of every subgroup series: W_T is ``series(T)``
and W / W_T is ``quotient(T)``, one object per distinct W_T.  A finite W_T
is prod_k Phi_k^{#{i : k | d_i}} (Solomon), so its quotient cancels by
trial division of W's numerator by the table's own Phi_k, the factors of L
keyed by k, with those multiplicities: no cyclotomic polynomial is built
after the denominator.  An infinite W_T takes a gcd.  The table also keeps
the ``(infos, spherical)`` classification that built it (one
:func:`~coxgrowth.classify.classify_all` pass, one info object per type),
and nothing is cached
across tables.  Keep the object to reuse it;
:func:`growth_series` builds one for a single answer.

``verify_identity`` re-assembles both sides of four classical identities
from a finished table (S below is the full generator set, Sph the family
of subsets generating finite subgroups, m the longest element length), each
left side summed over L and canonicalised once, each right side read off the
canonical W = ``series()`` by swapping its numerator and denominator:

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
from functools import cached_property
from itertools import repeat
from operator import add, lshift, sub
from struct import Struct

from .classify import classify_all, spherical_subsets
from .coxeter import CoxeterMatrix, Mask, superset_sums
from .ratfunc import (P_ONE, Poly, RatFunc, RF_ZERO, cancel_factors, cyclotomic,
                      format_ratfunc, substitute_inverse)

# Bytes per packed coefficient of a new table; a table whose bounds outgrow
# them is rebuilt at twice the width.
_DIGIT_BYTES = 8

# GrowthTable._block solves a block of at most 2^_LEAF_BITS masks in one flat
# loop over proper submasks instead of halving it down to single masks.  A
# leaf of 2^K masks makes 3^K - 2^K bignum additions where the halving makes
# K 2^(K-1), but saves its 2^(K+1) - 2 Python calls and their list slices.
# Measured (CPython 3.11, 2-core x86-64, min of 60): building the twelve
# rank-5..8 benchmark ladder tables takes 8.7, 7.7, 7.15 and 7.0 ms at
# K = 1, 2, 3, 4, and K = 3..5 are level on A_12, the 12-cycle and A_14;
# K = 4 keeps the submask table at 16 entries.
_LEAF_BITS = 4

# _PROPER_SUBMASKS[x]: the proper submasks of x, ascending, for x < 2^_LEAF_BITS.
_PROPER_SUBMASKS = tuple(tuple(y for y in range(x) if y & x == y)
                         for x in range(1 << _LEAF_BITS))


class InvariantViolation(RuntimeError):
    """The growth recursion produced something structurally impossible."""


class _Overflow(ArithmeticError):
    """A coefficient bound does not fit the digits of a packing."""


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


def _multiplicities(degrees) -> dict:
    """k -> #{degrees divisible by k}, k >= 2: the multiplicity of Phi_k in
    prod_i [d_i]_t (Solomon)."""
    counts = {}
    for d in degrees:
        for k in range(2, d + 1):
            if d % k == 0:
                counts[k] = counts.get(k, 0) + 1
    return counts


def _cyclotomic_factors(degree_tuples) -> dict:
    """The factors of L, k -> (Phi_k, e_k) with k ascending and
    e_k = max over the tuples of #{degrees divisible by k}."""
    exponents = {}
    for degrees in degree_tuples:
        for k, c in _multiplicities(degrees).items():
            exponents[k] = max(exponents.get(k, 0), c)
    return {k: (cyclotomic(k), exponents[k]) for k in sorted(exponents)}


def _common_denominator(factors) -> Poly:
    """L = prod_k Phi_k^{e_k}, from the factors of :func:`_cyclotomic_factors`:
    the least common multiple of the prod_i [d_i]_t."""
    out = P_ONE
    for phi, e in factors.values():
        for _ in range(e):
            out = out * phi
    return out


class _Packing:
    """Coefficient lists of one length as single ints (Kronecker substitution).

    The list c packs to sum_i c_i 2^(8 w i), its value at t = 2^(8 w) for
    ``w`` bytes per digit.  Packing is additive, so sums of packed values are
    exact; decoding the balanced digits is exact, and a packed value is 0
    exactly when the list is, as long as every |c_i| < 2^(8 w - 1).  Callers
    carry a bound on max |c_i| with each value, and :meth:`check` raises
    :class:`_Overflow` before a decode or zero test that it does not cover.
    """

    def __init__(self, count: int, width: int):
        self.count = count
        self.width = width
        self.half = 1 << (8 * width - 1)
        self.offset = int.from_bytes(self.half.to_bytes(width, "little") * count, "little")
        # digits are decoded as little-endian limbs of the largest size dividing the width
        limb, code = next((size, code) for size, code in ((8, "Q"), (4, "I"), (2, "H"), (1, "B"))
                          if width % size == 0)
        self._limbs = Struct(f"<{count * width // limb}{code}")
        self._per_digit = width // limb
        self._limb_bits = 8 * limb

    def check(self, bound: int):
        if bound >= self.half:
            raise _Overflow(f"coefficient bound {bound} exceeds {8 * self.width}-bit "
                            f"balanced digits")

    def pack(self, coeffs: list) -> tuple:
        """(packed value, max |c|) of a list of ``count`` coefficients."""
        bound = max(map(abs, coeffs))
        self.check(bound)
        half, width = self.half, self.width
        raw = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
        return int.from_bytes(raw, "little") - self.offset, bound

    def unpack(self, value: int, bound: int) -> list:
        """The coefficient list of a packed value whose coefficients are bounded by ``bound``."""
        self.check(bound)
        return self.digits(value)

    def digits(self, value: int) -> list:
        """The ``count`` balanced digits of ``value``: its coefficient list
        only once a bound proves it; :class:`_Overflow` if they do not reach."""
        try:
            raw = (value + self.offset).to_bytes(self.count * self.width, "little")
        except OverflowError:
            raise _Overflow(f"{value:#x} has no {self.count} balanced "
                            f"{8 * self.width}-bit digits") from None
        limbs, step = self._limbs.unpack(raw), self._per_digit
        digits = limbs[step - 1::step]
        for j in range(step - 2, -1, -1):      # the lower limbs, most significant first
            digits = map(add, map(lshift, digits, repeat(self._limb_bits)), limbs[j::step])
        return list(map(sub, digits, repeat(self.half)))


class GrowthTable:
    """Growth series of every standard parabolic subgroup of one system.

    ``denominator`` is the common denominator L; entry T is held as the
    signed numerator (-1)^{|T|} N_T of 1/W_T = N_T / L, packed into one int,
    together with a bound on its coefficients.  ``series(T)`` and
    ``quotient(T)`` give W_T and W / W_T.  ``infos`` and ``spherical`` are
    the system's classification, as :func:`classify_all` returns it.
    """

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self.infos, self.spherical = classify_all(matrix)
        self._factors = _cyclotomic_factors({i.degrees for i in self.infos if i.finite})
        self.denominator = _common_denominator(self._factors)
        width = _DIGIT_BYTES
        while True:
            try:
                self._build(_Packing(len(self.denominator.coeffs), width))
                return
            except _Overflow:
                width *= 2

    def _build(self, packing: _Packing):
        self._packing = packing
        size = len(self.infos)
        self._signed = [None] * size           # packed signed numerators
        self._bounds = [None] * size           # a bound on each one's coefficients
        self._series = {0: RatFunc.from_coprime(P_ONE, P_ONE)}  # T -> W_T, shared if finite
        self._quotients = {}                   # W_T -> W / W_T
        self._checked = {}                     # (acc, m, sign) -> finite entry, for the build only
        self._block(0, self.matrix.rank, [0] * size, [0] * size, False)
        del self._checked

    def _block(self, base: Mask, k: int, incoming: list, bounds: list, sums: bool = True):
        """Solve the masks base | x, x < 2^k; return their subset sums and
        bounds if ``sums``, else None.

        ``incoming[x]`` is the sum of the signed numerators of the subsets of
        base | x that lie outside the block, and ``bounds[x]`` bounds its
        coefficients; the result's entry x is the sum over the subsets of
        base | x inside it.  The block consumes both lists.  Only the lower
        halves' sums are read, so the top call and its chain of upper halves
        ask for none, and each frees its lower sums before its upper half
        recurses.  A block of at most 2^_LEAF_BITS masks is a leaf, solved
        without halving: the sum below base | x is ``incoming[x]`` plus the
        entries base | y over the proper submasks y of x.
        """
        if k <= _LEAF_BITS:                    # a leaf: one flat loop over proper submasks
            signed, bound_of, infos = self._signed, self._bounds, self.infos
            values, value_bounds = [], []      # the block's entries, as solved
            value, value_bound = values.__getitem__, value_bounds.__getitem__
            inside, inside_bounds = [], []
            for x, proper in zip(range(1 << k), _PROPER_SUBMASKS):
                below, below_bound = sum(map(value, proper)), sum(map(value_bound, proper))
                subset = base | x
                self._solve(subset, incoming[x] + below, bounds[x] + below_bound, infos[subset])
                entry, entry_bound = signed[subset], bound_of[subset]
                values.append(entry)
                value_bounds.append(entry_bound)
                if sums:
                    inside.append(below + entry)
                    inside_bounds.append(below_bound + entry_bound)
            return (inside, inside_bounds) if sums else None
        half = 1 << (k - 1)
        low, low_bounds = self._block(base, k - 1, incoming[:half], bounds[:half])
        del incoming[:half], bounds[:half]
        incoming[:] = map(add, incoming, low)
        bounds[:] = map(add, bounds, low_bounds)
        if not sums:
            del low, low_bounds
            self._block(base | half, k - 1, incoming, bounds, False)
            return None
        high, high_bounds = self._block(base | half, k - 1, incoming, bounds)
        low.extend(map(add, low[:half], high))
        low_bounds.extend(map(add, low_bounds[:half], high_bounds))
        return low, low_bounds

    def _solve(self, subset: Mask, acc: int, bound: int, info):
        """Signed numerator of one entry from the packed sum ``acc`` over its proper subsets."""
        if subset == 0:
            self._signed[0], self._bounds[0] = self._packing.pack(self.denominator.coeffs)
            return
        self._packing.check(bound)
        if not info.finite:
            if not acc:
                raise InvariantViolation(
                    f"zero reciprocal series at infinite subset {subset:#x}")
            self._signed[subset], self._bounds[subset] = -acc, bound
            return
        if not acc:
            raise InvariantViolation(
                f"zero alternating sum below finite subset {subset:#x}")
        m = info.longest_length
        sign = _sign(subset.bit_count())
        key = (acc, m, sign)
        if key not in self._checked:
            self._checked[key] = self._divide(acc, m, sign, subset)
        self._signed[subset], self._bounds[subset], self._series[subset] = self._checked[key]

    def _divide(self, acc: int, m: int, sign: int, subset: Mask) -> tuple:
        """(signed numerator, its bound, W_T) of a finite entry with sum ``acc``,
        first met at ``subset``, W_T the one ``RatFunc`` every subset of this
        series shares.

        Both divisions run on the packed ints, B = 2^(8 w) the digit base:
        N_T = acc // (B^m - sign) and W_T = L // N_T.  The digits of acc and
        L are their coefficients (their bounds are checked), so a zero
        remainder with small digits is the polynomial identity: when
        2 max|N_T| < half, the digits of N_T * (t^m - sign) are balanced,
        so they are those of acc;
        when ||N_T||_1 max|W_T| < half, those of W_T * N_T are those of L.
        A nonzero remainder means the polynomial division is inexact too, and
        it, or a W_T not of degree m, raises :class:`InvariantViolation`; a
        bound that fails raises :class:`_Overflow`, and the table is rebuilt
        wider.
        """
        packing = self._packing
        numerator, rest = divmod(acc, (1 << (8 * packing.width * m)) - sign)
        if rest:
            raise InvariantViolation(f"the sum below finite subset {subset:#x} is not "
                                     f"divisible by t^{m} - ({sign})")
        coeffs = packing.digits(numerator)
        top = max(map(abs, coeffs))
        packing.check(2 * top)
        quotient, rest = divmod(self._signed[0], numerator)
        if rest:
            raise InvariantViolation(f"the numerator of finite subset {subset:#x} "
                                     f"does not divide the common denominator")
        w_coeffs = packing.digits(quotient)
        packing.check(sum(map(abs, coeffs)) * max(map(abs, w_coeffs)))
        series = RatFunc.from_coprime(Poly(w_coeffs), P_ONE)
        if series.num.degree != m:
            raise InvariantViolation(
                f"finite subset {subset:#x} did not produce a degree-{m} polynomial")
        return sign * numerator, top, series

    def _numerator(self, subset: Mask) -> Poly:
        """N_T, with 1 / W_T = N_T / L."""
        sign = _sign(subset.bit_count())
        coeffs = self._packing.unpack(self._signed[subset], self._bounds[subset])
        return Poly(c * sign for c in coeffs)

    def _sum(self, weights) -> Poly:
        """sum of w * (-1)^{|T|} N_T over the pairs (T, w) of ``weights``.

        Terms are added packed while the sum of their bounds fits a digit,
        and each such run is decoded into the total.
        """
        packing = self._packing
        total = [0] * packing.count
        run, run_bound = 0, 0
        for subset, w in weights:
            value, bound = w * self._signed[subset], abs(w) * self._bounds[subset]
            if run_bound + bound >= packing.half:
                total = list(map(add, total, packing.unpack(run, run_bound)))
                run, run_bound = 0, 0
                if bound >= packing.half:
                    total = list(map(add, total, (w * c for c in packing.unpack(
                        self._signed[subset], self._bounds[subset]))))
                    continue
            run += value
            run_bound += bound
        return Poly(map(add, total, packing.unpack(run, run_bound)))

    def _over_denominator(self, numerator: Poly) -> RatFunc:
        """numerator / L, canonical: gcd(numerator, L) is found among L's factors."""
        return RatFunc.from_coprime(*cancel_factors(numerator, self._factors.values()))

    def series(self, subset: Mask = None) -> RatFunc:
        if subset is None:
            subset = self.matrix.full_mask
        if subset & ~self.matrix.full_mask:
            raise ValueError("subset is not within the generator set")
        if subset not in self._series:            # an infinite W_T, canonicalised once
            reciprocal = self._over_denominator(self._numerator(subset))
            self._series[subset] = RatFunc.from_coprime(reciprocal.den, reciprocal.num)
        return self._series[subset]

    def quotient(self, subset: Mask) -> RatFunc:
        """W / W_T, canonical, one object per distinct W_T.

        A finite W_T = prod_k Phi_k^{#{i : k | d_i}} (Solomon) cancels
        against W's numerator by trial division by the table's own Phi_k,
        with no gcd and no new cyclotomic polynomial; an infinite W_T takes
        a gcd.
        """
        wt = self.series(subset)
        if wt not in self._quotients:
            w, info = self.series(), self.infos[subset]
            if info.finite:
                factors = [(self._factors[k][0], c)
                           for k, c in _multiplicities(info.degrees).items()]
                num, rest = cancel_factors(w.num, factors)
                self._quotients[wt] = RatFunc.from_coprime(num, w.den * rest)
            else:
                self._quotients[wt] = RatFunc(w.num * wt.den, w.den * wt.num)
        return self._quotients[wt]


def growth_series(matrix: CoxeterMatrix, subset: Mask = None) -> RatFunc:
    """Growth series of the parabolic subgroup on ``subset`` (default: the whole group),
    from a table built for this call."""
    return GrowthTable(matrix).series(subset)


# ---------------------------------------------------------------------------
# nerve data
# ---------------------------------------------------------------------------

def nerve_coefficients(matrix: CoxeterMatrix) -> dict:
    """chi_T = sum_{U >= T, U spherical} (-1)^{|U|} for every spherical T, as
    {T: chi_T} in :func:`spherical_subsets` order."""
    return _nerve_coefficients(matrix.rank, spherical_subsets(matrix))


def _nerve_coefficients(rank: int, spherical: tuple) -> dict:
    """:func:`nerve_coefficients` from the spherical subsets of a rank-``rank``
    system, by one superset-sum transform over all 2^n masks."""
    signs = [0] * (1 << rank)
    for u in spherical:
        signs[u] = _sign(u.bit_count())
    sums = superset_sums(signs)
    return {t: sums[t] for t in spherical}


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

    @cached_property
    def sides(self) -> tuple:
        """The formatted lhs and rhs, formatted once."""
        return format_ratfunc(self.lhs), format_ratfunc(self.rhs)

    def describe(self) -> str:
        if not self.applicable:
            return f"identity {self.identity}: not applicable ({self.note})"
        verdict = "holds" if self.holds else "FAILS"
        tag = " (by construction)" if self.by_construction else ""
        lhs, rhs = self.sides
        return f"identity {self.identity}: {verdict}{tag}   lhs = {lhs}   rhs = {rhs}"


def verify_identity(table: GrowthTable, which: int) -> IdentityReport:
    """Check one of the four alternating-sum identities, as exact rational
    functions, against the table of one system."""
    if which not in (1, 2, 3, 4):
        raise ValueError("identity number must be 1, 2, 3 or 4")
    full = table.matrix.full_mask
    info = table.infos[full]

    if which in (1, 2):
        want_finite = (which == 2)
        if info.finite != want_finite:
            note = ("the group is finite" if info.finite else "the group is infinite")
            return IdentityReport(which, False, None, False, None, None, note)
        lhs = table._over_denominator(table._sum((T, 1) for T in range(full + 1)))
        if which == 1:
            rhs = RF_ZERO
        else:
            w = table.series()
            rhs = RatFunc.from_coprime(w.den.shifted(info.longest_length), w.num)
        return IdentityReport(which, True, lhs == rhs, True, lhs, rhs,
                              "inverted to build the full-group entry")

    if which == 3:
        lhs = table._sum(_nerve_coefficients(table.matrix.rank, table.spherical).items())
    else:
        lhs = table._sum((T, 1) for T in table.spherical)
    lhs = table._over_denominator(lhs)
    w = table.series()
    reciprocal = RatFunc.from_coprime(w.den, w.num)
    rhs = reciprocal if which == 3 else substitute_inverse(reciprocal)
    return IdentityReport(which, True, lhs == rhs, False, lhs, rhs)


def verify_identities(matrix: CoxeterMatrix) -> list:
    """Reports for all four identities, in order, from one table."""
    table = GrowthTable(matrix)
    return [verify_identity(table, k) for k in (1, 2, 3, 4)]
