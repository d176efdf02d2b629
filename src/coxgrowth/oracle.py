"""Exact enumeration of group elements: a ShortLex table and a Tits-cone check.

Word oracle.  Every element gets an integer id, assigned in ShortLex order
(by length, then lexicographically by canonical word, the ShortLex-least
reduced word), and stores two things: its right descent mask and a row of
``rank`` ids giving its right multiple by each generator.  Nothing else is
kept per element; the one other list is the frontier, the ids of the last
sphere built, which the next sphere grows from.  Each id is one int object,
shared by its parent's row, its children's rows and the frontier.  The
parent of an element v, the one its canonical word reaches a letter
earlier, is the v*t of smallest id over its descents t (see below), so
:meth:`WordOracle.word` rebuilds a canonical word from the parent chain
only when a caller asks for one, and :meth:`WordOracle.id_of` turns a word
into an id by walking the table from the identity.  Elements are
addressed by id only: multiplication (:meth:`WordOracle.times`) and descent
sets are table lookups, and callers that iterate ids
(:meth:`WordOracle.sphere_ids`, :meth:`WordOracle.descents`), count a
sphere's descent masks (:meth:`WordOracle.descent_counts`) or collect the
ball's distinct masks (:meth:`WordOracle.ball_masks`) build no word at all.

Sphere k + 1 is built from sphere k alone.  Walk sphere k in ShortLex order;
for an element w and an ascent s, the element v = w*s has s as a descent with
v*s = w.  For t != s with m = m(s, t) finite, s and t are both descents of v
exactly when v = x*w0(s, t) with lengths adding (the rank-2 parabolic facts,
Bjorner-Brenti, *Combinatorics of Coxeter Groups*, ch. 2), that is, when w
steps down by t, s, t, ... for m - 1 steps, each letter a descent of the
element it leaves.  Then v*t is reached by climbing back from the bottom x
along the alternating word of length m - 1 ending in s, over up-edges already
in the table.  The canonical word of v is the least of canonical(v*t) + (t,)
over its descents t, so v is new exactly when w has the smallest id among
those v*t; otherwise the earlier v*t already points at v.  New elements are
therefore created in ShortLex order with canonical word canonical(w) + (s,),
and no braid class is ever formed.

The walk for a t that is not a descent of w stops at its first step, so only
the t in D(w) are walked, and most ascents need no walk at all.  Which walks
those are depends on w only through its descent mask, so each mask's plan is
worked out once per oracle, the first time the mask is met: per ascent s, the
walks of the t in D(w) with m(s, t) finite, each as the m - 2 letters it
steps down by after t and the m - 1 it climbs back by.  Call s a free ascent
of w when its walk list is empty: no t with m(s, t) finite (m = 2 included)
is a descent of w.  That answer is exact: a second descent t of v = w*s
would force v = x*w0(s, t) with lengths adding, so w = v*s would end in the
alternating word of length m - 1 ending in t, and t would be a descent of
w.  So v has the single descent s, w is the only element one step below it,
v is new, and its row is blank but for w at s.  On a free product every
ascent is free.

The outermost sphere a count asks for is counted, not built.  Sizes, descent
counts and the ball's masks read no row of the sphere at the horizon, so
:meth:`WordOracle.sphere_sizes`, :meth:`WordOracle.descent_counts` and
:meth:`WordOracle.ball_masks` build the spheres below it and decide the
sphere after the last one built by the same walks, writing nothing: a free
ascent counts once per frontier element with its descent mask, and only
the elements with a walked ascent are walked.  The count is kept until the
oracle grows.  :meth:`WordOracle.sphere_ids`, :meth:`WordOracle.times` and
:meth:`WordOracle.id_of` build spheres, and the callers that read the table
(:func:`coset_components` and the checks built on it,
:func:`cross_check_oracles`) build their whole ball first, so no sphere is
counted and then built.

Geometric oracle.  :class:`GeometricOracle` enumerates the same balls through
the contragredient action of W on the Tits cone, in exact integer arithmetic,
and shares no code with the table; :func:`cross_check_oracles` compares
their sphere sizes and every element's descent set.  Element w is stored as
the n numbers y_t = <w^-1 x, alpha_t> for x = (1, ..., 1); y_t is the
coefficient sum of the root w(alpha_t), so the right descents of w are the
t with y_t < 0, and no y_t is ever 0.  The coefficients lie in Z[c] for
c = 2cos(pi/M), M the lcm of the finite orders m >= 4 (plain integers when
there is none); a sign is decided by interval evaluation on a rational
bracket of c, halved until the sign is certain.  Only the last layer's
vectors are kept; each layer of the ball is three flat lists, the parent's
index in the layer before, the letter and the descent mask of each element,
with no object per element beyond their ints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from math import lcm

from .classify import classify
from .coxeter import INFINITY, CoxeterMatrix, Mask, bits_of, format_subset
from .ratfunc import cyclotomic

Word = tuple


class WordOracle:
    """Exhaustive ShortLex enumeration for one Coxeter system, by table lookup."""

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self.rank = matrix.rank
        orders = matrix.orders
        # per generator s, per t != s with m = m(s, t) finite (m = 2 included):
        # (t, its bit, the m - 2 letters s, t, s, ... the walk steps down by
        # after its first step by t, the m - 1 letters it climbs back by)
        self._walks = [[(t, 1 << t, ((s, t) * m)[:m - 2], ((s, t) * m)[m - 2:2 * m - 3])
                        for t, m in enumerate(orders[s]) if t != s and m is not INFINITY]
                       for s in range(self.rank)]
        # descent mask -> per ascent s: (s, its bit, s - rank, the walks whose
        # t is a descent); built the first time the mask is met
        self._plans = {}
        self._descents = [0]          # id -> right descent mask
        self._table = [-1] * self.rank  # id * rank + s -> id of w*s; -1 until built
        self._starts = [0, 1]         # sphere k holds the ids starts[k] .. starts[k+1] - 1
        self._frontier = [0]          # the ids of the last sphere, as the table's int objects
        self._counted = None          # _count() of the sphere after the last built, once asked for

    # -- the table -------------------------------------------------------------

    def _extend(self):
        """Build the next sphere from the last one (see the module docstring)."""
        rank, plans = self.rank, self._plans
        descents, table = self._descents, self._table
        append = descents.append
        blank = [-1] * rank
        new = len(descents)               # the id the next new element gets
        frontier = []
        grow = frontier.append
        for w in self._frontier:
            dw = descents[w]
            plan = plans.get(dw)
            if plan is None:
                plan = self._plan(dw)
            row = w * rank
            for s, bit, back, walks in plan:
                if not walks:
                    # a free ascent: v = w*s is new with descent set {s}, and
                    # its row, the table's last, is blank but for w at s
                    append(bit)
                    table += blank
                    table[back] = w
                    table[row + s] = new
                    grow(new)
                    new += 1
                    continue
                v = -1
                mask = bit
                down = blank.copy()           # v's table row: v*t at its descents t
                down[s] = w
                for t, tbit, downs, ups in walks:
                    x = table[row + t]        # first step down by t
                    for a in downs:
                        if not descents[x] >> a & 1:
                            break
                        x = table[x * rank + a]
                    else:
                        for a in ups:
                            x = table[x * rank + a]
                        if x < w:
                            v = table[x * rank + t]
                            break
                        mask |= tbit
                        down[t] = x
                if v < 0:
                    v = new
                    new += 1
                    append(mask)
                    table += down
                    grow(v)
                table[row + s] = v
        self._frontier = frontier
        self._starts.append(new)
        self._counted = None

    def _build(self, k: int) -> bool:
        """Build the spheres up to k, or up to the first empty one (a finite
        group ends there); return whether sphere k is built."""
        starts = self._starts
        while len(starts) <= k + 1 and starts[-1] != starts[-2]:
            self._extend()
        return k + 1 < len(starts)

    def _plan(self, d: Mask) -> list:
        """The plan of descent mask d, kept for the next element that has it."""
        rank, walks_of = self.rank, self._walks
        plan = self._plans[d] = [(s, 1 << s, s - rank,
                                  [walk for walk in walks_of[s] if d >> walk[0] & 1])
                                 for s in range(rank) if not d >> s & 1]
        return plan

    def _count(self) -> Counter:
        """Descent mask -> number of elements of the sphere after the last one
        built: :meth:`_extend`'s walks, reading the table and writing nothing."""
        rank, plans, descents, table = self.rank, self._plans, self._descents, self._table
        start, stop = self._starts[-2:]
        counts = Counter()
        walked = {}                   # frontier mask -> (bit, walks) of its walked ascents
        for dw, n in Counter(islice(descents, start, stop)).items():
            plan = plans.get(dw)
            if plan is None:
                plan = self._plan(dw)
            for _, bit, _, walks in plan:
                if walks:
                    walked.setdefault(dw, []).append((bit, walks))
                else:
                    counts[bit] += n  # a free ascent: new, with descent set {s}
        if not walked:
            return counts
        get = counts.get
        for w, dw in enumerate(islice(descents, start, stop), start):
            ascents = walked.get(dw)
            if ascents is None:
                continue
            row = w * rank
            for mask, walks in ascents:
                for t, tbit, downs, ups in walks:
                    x = table[row + t]
                    for a in downs:
                        if not descents[x] >> a & 1:
                            break
                        x = table[x * rank + a]
                    else:
                        for a in ups:
                            x = table[x * rank + a]
                        if x < w:
                            break     # v = w*s is the earlier x's child
                        mask |= tbit
                else:
                    counts[mask] = get(mask, 0) + 1
        return counts

    def _sphere_counts(self, k: int) -> Counter:
        """Descent mask -> number of elements of length k, with the spheres
        below k built and sphere k counted unless it is built already.  Past
        the end of a finite group the last sphere built is empty, and so is
        the count."""
        if k < 0:
            raise ValueError("length must be nonnegative")
        self._build(k - 1)
        starts = self._starts
        if k + 1 < len(starts):
            return Counter(islice(self._descents, starts[k], starts[k + 1]))
        if self._counted is None:
            self._counted = self._count()
        return self._counted

    # -- ids -------------------------------------------------------------------

    def _check_id(self, i: int):
        if not 0 <= i < len(self._descents):
            raise ValueError(f"element id {i} is not in the table built so far "
                             f"({len(self._descents)} ids)")

    def times(self, i: int, s: int) -> int:
        """Id of (element i) * s, building the next sphere if it is needed."""
        if not 0 <= s < self.rank:
            raise ValueError(f"generator {s} is out of range for rank {self.rank}")
        self._check_id(i)
        j = self._table[i * self.rank + s]
        if j < 0:
            # i lies in the outermost sphere built and s is one of its ascents
            self._extend()
            j = self._table[i * self.rank + s]
        return j

    def id_of(self, word) -> int:
        """Id of the element a word spells; the word need not be reduced."""
        i = 0
        for s in word:
            i = self.times(i, s)
        return i

    def sphere_ids(self, k: int) -> range:
        """Ids of the elements of length exactly k, in ShortLex order."""
        if k < 0:
            raise ValueError("length must be nonnegative")
        if self._build(k):
            return range(self._starts[k], self._starts[k + 1])
        return range(0)

    def word(self, i: int) -> Word:
        """Canonical word of element i, rebuilt along its parent chain."""
        self._check_id(i)
        rank, descents, table = self.rank, self._descents, self._table
        letters = []
        while i:
            # the parent is the i*t of smallest id over the descents t of i,
            # each of them shorter than i
            row, d, parent = i * rank, descents[i], i
            for t in range(rank):
                if d >> t & 1 and table[row + t] < parent:
                    parent, s = table[row + t], t
            letters.append(s)
            i = parent
        letters.reverse()
        return tuple(letters)

    def descents(self, i: int) -> Mask:
        """Right descent mask of element i."""
        self._check_id(i)
        return self._descents[i]

    def descent_counts(self, k: int) -> Counter:
        """Descent mask -> number of elements of length k with that mask."""
        return self._sphere_counts(k).copy()

    def ball_masks(self, horizon: int) -> set:
        """The distinct descent masks of the elements of length at most ``horizon``."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        last = self._sphere_counts(horizon)
        starts = self._starts
        inner = starts[min(horizon, len(starts) - 1)]    # the ids of length below the horizon
        return set(islice(self._descents, inner)).union(last)

    def sphere_sizes(self, horizon: int) -> list:
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        last = sum(self._sphere_counts(horizon).values())
        return [len(self.sphere_ids(k)) for k in range(horizon)] + [last]

    def subgroup_elements(self, subset: Mask) -> list:
        """Canonical words (in parent letters) of the parabolic subgroup on ``subset``.

        Only valid for spherical subsets; enumeration walks ascents inside the
        subset, which stays inside the subgroup because every reduced word of
        an element uses the same letters.
        """
        if not classify(self.matrix, subset).finite:
            raise ValueError(f"subset {format_subset(subset)} generates an infinite subgroup")
        gens = bits_of(subset)
        members = [()]
        layer = [0]
        while layer:
            new = set()
            for i in layer:
                d = self._descents[i]
                for s in gens:
                    if not (d >> s) & 1:
                        new.add(self.times(i, s))
            layer = sorted(new)      # ids are in ShortLex order
            members.extend(self.word(i) for i in layer)
        return members


def _built_sizes(oracle: WordOracle, horizon: int) -> list:
    """Sphere sizes up to the horizon with the whole ball built, for callers
    that read its table: the outermost sphere is then not counted first."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    oracle.sphere_ids(horizon)
    return oracle.sphere_sizes(horizon)


def _checked_oracle(matrix: CoxeterMatrix, oracle: WordOracle = None) -> WordOracle:
    """``oracle`` if it was built for ``matrix``, or a new word oracle for it."""
    if oracle is None:
        return WordOracle(matrix)
    if oracle.matrix != matrix:
        raise ValueError("the oracle was built for another Coxeter system")
    return oracle


# ---------------------------------------------------------------------------
# coset structure
# ---------------------------------------------------------------------------

@dataclass
class CosetReport:
    """Outcome of the coset decomposition check for one (subset, horizon)."""

    subset: Mask
    horizon: int
    complete_cosets: int
    skipped_cosets: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def coset_components(oracle: WordOracle, horizon: int, subset: Mask) -> list:
    """Partition the length-``horizon`` ball into connected pieces of right
    cosets w * W_subset.

    Returns the component number of every id of the ball (its ids are 0, 1,
    ... in ShortLex order).  Pieces are numbered 0, 1, ... in the order of
    their first ids, so a piece's first id is one of its shortest elements.
    Edges are right multiplications by subset generators that stay inside
    the ball.  A piece containing every element of its coset is the whole
    coset (cosets are connected under these moves); pieces cut by the
    horizon are proper subsets.
    """
    if subset & ~oracle.matrix.full_mask:
        raise ValueError("subset is not within the generator set")
    sizes = _built_sizes(oracle, horizon)
    size = sum(sizes)
    inner = size - sizes[-1]          # the ids of length below the horizon
    gens = bits_of(subset)
    comp = [-1] * size
    next_id = 0
    for start in range(size):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = next_id
        while stack:
            i = stack.pop()
            d = oracle.descents(i)
            for s in gens:
                # an ascent from the horizon leaves the ball: never multiply past it
                if i < inner or (d >> s) & 1:
                    j = oracle.times(i, s)
                    if comp[j] < 0:
                        comp[j] = next_id
                        stack.append(j)
        next_id += 1
    return comp


def coset_decomposition_check(matrix: CoxeterMatrix, subset: Mask, horizon: int,
                              oracle: WordOracle = None) -> CosetReport:
    """Verify coset structure inside the length-``horizon`` ball.

    Every right coset of the (spherical) subgroup on ``subset`` that lies
    fully inside the ball must contain a unique shortest element u, and its
    members must be exactly {u*v} with length(u*v) = length(u) + length(v)
    over the subgroup elements v.  Cosets cut by the horizon are skipped and
    counted.
    """
    info = classify(matrix, subset)
    if not info.finite:
        raise ValueError("coset check requires a spherical subset")
    oracle = _checked_oracle(matrix, oracle)
    members = oracle.subgroup_elements(subset)
    # the ball's ids are 0, 1, ... in ShortLex order, so by length
    lengths = [k for k, size in enumerate(_built_sizes(oracle, horizon)) for _ in range(size)]
    groups = {}
    for i, cid in enumerate(coset_components(oracle, horizon, subset)):
        groups.setdefault(cid, []).append(i)

    report = CosetReport(subset=subset, horizon=horizon,
                         complete_cosets=0, skipped_cosets=0)
    for ids in groups.values():
        if len(ids) != info.order:
            report.skipped_cosets += 1
            continue
        shortest = lengths[ids[0]]      # the piece's first id, one of its shortest
        mins = [i for i in ids if lengths[i] == shortest]
        if len(mins) != 1:
            report.violations.append(
                f"coset {sorted(oracle.word(i) for i in ids)} has {len(mins)} shortest elements")
            continue
        u = mins[0]
        rebuilt = set()
        for v in members:
            x = u
            for s in v:
                x = oracle.times(x, s)
            # x outside the ball is outside the coset, which the last test reports
            if x < len(lengths) and lengths[x] != shortest + len(v):
                report.violations.append(
                    f"length not additive: u={oracle.word(u)} v={v} gives length {lengths[x]}")
            rebuilt.add(x)
        if rebuilt != set(ids):
            report.violations.append(
                f"coset of u={oracle.word(u)} does not match u * subgroup")
        report.complete_cosets += 1
    return report


# ---------------------------------------------------------------------------
# exact cross-check: the contragredient action on the Tits cone
# ---------------------------------------------------------------------------

def _chebyshev_next(cur: list, prev: list) -> list:
    """D_{j+1} = c*D_j - D_{j-1}, for coefficient lists in c."""
    out = [0] + cur
    for i, v in enumerate(prev):
        out[i] -= v
    return out


def _minimal_polynomial(big_m: int) -> list:
    """Coefficients, constant term first, of the minimal polynomial P of
    c = 2cos(pi/M), M >= 2.

    z = exp(i pi/M) is a primitive 2M-th root of unity with c = z + 1/z, and
    Phi_2M is palindromic of degree 2d, so Phi_2M(z) / z^d is
    a_0 + sum_{j=1..d} a_j (z^j + z^-j), where z^j + z^-j = D_j(c) for
    D_0 = 2, D_1 = c, D_j = c*D_{j-1} - D_{j-2}.  P is monic of degree
    d = phi(2M)/2, the degree of Q(c) over Q.
    """
    phi = cyclotomic(2 * big_m).coeffs
    d = (len(phi) - 1) // 2
    out = [phi[d]] + [0] * d
    prev, cur = [2], [0, 1]
    for j in range(1, d + 1):
        for i, v in enumerate(cur):
            out[i] += phi[d + j] * v
        prev, cur = cur, _chebyshev_next(cur, prev)
    return out


def _scaled_value(coeffs: list, num: int, k: int) -> int:
    """2^(k*deg) * p(num / 2^k): an integer with the sign of p there (Horner)."""
    acc = 0
    for i, a in enumerate(reversed(coeffs)):
        acc = acc * num + (a << k * i)
    return acc


class _CosineRing:
    """Z[c] for c = 2cos(pi/M), M >= 4, with exact signs.

    An element is the tuple of its d = deg P integer coordinates on 1, c,
    ..., c^(d-1), reduced modulo the minimal polynomial P.  The roots of P
    are the 2cos(j pi/M) with j prime to 2M, so c is the largest, and a
    rational x lies above c exactly when P and all its derivatives are
    positive at x: then P(x + h) = sum_j P^(j)(x) h^j / j! > 0 for all
    h >= 0; and above c every derivative is positive, because by Rolle the
    roots of each derivative of the real-rooted P lie below c.  The bracket
    (lo, lo + 1) / 2^k of c starts at (1, 2) (c >= 2cos(pi/4) > 1) and is
    halved by that test (once it is narrower than the gap from c to the next
    root, P changes sign across it); a sign that interval evaluation on the
    bracket cannot decide halves it again.  That ends, because a nonzero
    element of Z[c] is a nonzero real number.
    """

    INITIAL_BITS = 32       # bracket width 2^-32 before any sign is asked for

    def __init__(self, big_m: int):
        self.big_m = big_m
        self.poly = _minimal_polynomial(big_m)
        self.degree = len(self.poly) - 1
        derivatives = [self.poly]
        while len(derivatives[-1]) > 1:
            derivatives.append([i * a for i, a in enumerate(derivatives[-1])][1:])
        self._derivatives = derivatives
        self._k, self._lo = 0, 1
        while self._k < self.INITIAL_BITS:
            self._refine()

    @property
    def bracket(self) -> tuple:
        """(lo numerator, hi numerator, k): lo / 2^k < c < hi / 2^k."""
        return self._lo, self._lo + 1, self._k

    def _refine(self):
        """Halve the bracket, keeping the half that holds c."""
        k, mid = self._k + 1, 2 * self._lo + 1
        above = all(_scaled_value(p, mid, k) > 0 for p in self._derivatives)
        self._k, self._lo = k, 2 * self._lo if above else mid
        d = self.degree
        lo, hi = self._lo, self._lo + 1
        # c^i on the bracket, all scaled by 2^(k*(d-1))
        self._lows = [lo ** i << k * (d - 1 - i) for i in range(d)]
        self._highs = [hi ** i << k * (d - 1 - i) for i in range(d)]

    def reduce(self, coeffs) -> tuple:
        """The element with the given coefficients on 1, c, c^2, ..."""
        rem = list(coeffs)
        d, poly = self.degree, self.poly
        for top in range(len(rem) - 1, d - 1, -1):
            a = rem[top]
            if a:
                for i, p in enumerate(poly):
                    rem[top - d + i] -= a * p
        return tuple(rem[:d]) + (0,) * (d - len(rem))

    def cosine(self, m: int) -> tuple:
        """2cos(pi/m) = D_{M/m}(c), for m dividing M."""
        prev, cur = [2], [0, 1]
        for _ in range(self.big_m // m - 1):
            prev, cur = cur, _chebyshev_next(cur, prev)
        return self.reduce(cur)

    def times(self, a) -> list:
        """Multiplication by a as sparse rows: row i lists (j, entry) with
        coordinate i of a*y = sum of entry * y_j."""
        d = self.degree
        cols = [self.reduce([0] * j + list(a)) for j in range(d)]
        return [[(j, col[i]) for j, col in enumerate(cols) if col[i]] for i in range(d)]

    def sign(self, a) -> int:
        """Sign of a nonzero element (+1 or -1)."""
        if min(a) >= 0:
            if max(a) > 0:
                return 1             # c > 0
        elif max(a) <= 0:
            return -1
        if not any(a):
            raise ValueError("zero has no sign")
        while True:
            low = high = 0
            for v, lo, hi in zip(a, self._lows, self._highs):
                if v > 0:
                    low += v * lo
                    high += v * hi
                elif v < 0:
                    low += v * hi
                    high += v * lo
            if low > 0:
                return 1
            if high < 0:
                return -1
            self._refine()


class GeometricOracle:
    """Breadth-first search over the contragredient action, in exact arithmetic.

    Element w is the vector y = w^-1 x, x = (1, ..., 1), in the coordinates
    y_t = <y, alpha_t> (see the module docstring).  Right multiplication by
    s maps y to s y: y_t += c_st y_s for t != s, then y_s = -y_s, where
    c_st = 2cos(pi/m(s, t)) is 0, 1 or 2 for m = 2, 3 or inf, and otherwise
    an element of Z[c] (:class:`_CosineRing`), each coordinate then being d
    consecutive integers.  x lies inside the fundamental chamber, so distinct
    elements have distinct vectors and deduplication compares exact tuples.
    The descents of w are the s with y_s < 0, so BFS steps only along
    ascents, and a new element can coincide only with one of its own layer.
    An element w whose one descent is s has w*s as its only element one step
    below, so it is reached once: in integer arithmetic, where the child's
    mask is known before the deduplication, only children with two or more
    descents are deduplicated.
    """

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self.rank = n = matrix.rank
        orders = matrix.orders
        big = {m for row in orders for m in row if m is not INFINITY and m >= 4}
        self.ring = ring = _CosineRing(lcm(*big)) if big else None
        d = ring.degree if ring else 1
        self._couplings = []          # per s: (t, c_st) with c_st != 0
        for s in range(n):
            row = []
            for t in range(n):
                m = orders[s][t]
                if t == s or m == 2:
                    continue
                # an int, or the rows of multiplication by 2cos(pi/m) in Z[c]
                row.append((t, 2 if m is INFINITY else 1 if m == 3
                            else ring.times(ring.cosine(m))))
            self._couplings.append(row)
        self._identity = ((1,) + (0,) * (d - 1)) * n

    def layers(self, horizon: int) -> list:
        """Per-length ``(parents, letters, masks)`` lists, up to the horizon.

        Element i of layer k + 1 is element ``parents[i]`` of layer k times
        the generator ``letters[i]``, with descent mask ``masks[i]``; layer 0
        holds the identity as ``([-1], [-1], [0])``.  Layers past the end of
        a finite group are three empty lists.

        A step by s changes only y_s and the y_t coupled to s, so the child's
        mask is the parent's with s set and the coupled bits decided afresh.
        """
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        n, ring, couplings = self.rank, self.ring, self._couplings
        if ring is not None:
            d, sign = ring.degree, ring.sign
        # descent mask -> per ascent s: (s, couplings of s, the parent's bits
        # the step keeps, with s set)
        ascents_of = {}
        frontier = [self._identity]
        out = [([-1], [-1], [0])]
        for _ in range(horizon):
            parents, letters, masks = layer = [], [], []
            nxt, seen = [], set()
            for p, (y, dy) in enumerate(zip(frontier, out[-1][2])):
                ascents = ascents_of.get(dy)
                if ascents is None:
                    ascents = ascents_of[dy] = [
                        (s, couplings[s],
                         dy & ~sum(1 << t for t, _ in couplings[s]) | 1 << s)
                        for s in range(n) if not dy >> s & 1]
                for s, coupled, mask in ascents:
                    child = list(y)
                    if ring is None:
                        v = y[s]
                        for t, c in coupled:
                            u = child[t] = y[t] + c * v
                            if u < 0:
                                mask |= 1 << t
                        child[s] = -v
                        child = tuple(child)
                        # a child whose one descent is s has one element below
                        # it, this parent, so only the others can repeat
                        if mask & (mask - 1):
                            if child in seen:
                                continue
                            seen.add(child)
                    else:
                        v = y[s * d:(s + 1) * d]
                        for t, c in coupled:
                            base = t * d
                            if c.__class__ is int:
                                for i in range(d):
                                    child[base + i] += c * v[i]
                            else:
                                for i, row in enumerate(c, base):
                                    for j, e in row:
                                        child[i] += e * v[j]
                        child[s * d:(s + 1) * d] = [-x for x in v]
                        child = tuple(child)
                        if child in seen:
                            continue
                        seen.add(child)
                        # signs in Z[c] cost more: decided for new elements only
                        for t, _ in coupled:
                            u = child[t * d:(t + 1) * d]
                            if min(u) < 0 and sign(u) < 0:   # no negative coordinate: positive
                                mask |= 1 << t
                    nxt.append(child)
                    parents.append(p)
                    letters.append(s)
                    masks.append(mask)
            out.append(layer)
            frontier = nxt
            if not masks:
                break
        while len(out) <= horizon:
            out.append(([], [], []))
        return out

    def sphere_sizes(self, horizon: int) -> list:
        return [len(masks) for _, _, masks in self.layers(horizon)]


@dataclass
class CrossCheckReport:
    """Agreement between the word oracle and the Tits-cone representation."""

    horizon: int
    symbolic_sizes: list
    numeric_sizes: list
    descent_mismatches: list

    @property
    def passed(self) -> bool:
        return self.symbolic_sizes == self.numeric_sizes and not self.descent_mismatches


def cross_check_oracles(matrix: CoxeterMatrix, horizon: int,
                        oracle: WordOracle = None) -> CrossCheckReport:
    """Compare sphere sizes and per-element descent sets between the two oracles.

    Each element of the geometric BFS is matched with the word oracle's
    element spelled by the same letters; a mismatch is recorded as
    (canonical word, word-oracle mask, geometric mask).
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    oracle = _checked_oracle(matrix, oracle)
    # with the ball built, every geometric parent (length below the horizon)
    # has its full row in the table, so the walk reads the table directly
    sizes = _built_sizes(oracle, horizon)
    rank, table, descents = oracle.rank, oracle._table, oracle._descents
    layers = GeometricOracle(matrix).layers(horizon)
    mismatches = []
    ids = [0]
    for k, (parents, letters, masks) in enumerate(layers):
        if k:
            ids = [table[ids[p] * rank + s] for p, s in zip(parents, letters)]
        # the layer's masks compared as two lists; element by element on a mismatch
        if [descents[i] for i in ids] != masks:
            mismatches += [(oracle.word(i), descents[i], numeric)
                           for i, numeric in zip(ids, masks) if numeric != descents[i]]
    return CrossCheckReport(
        horizon=horizon,
        symbolic_sizes=sizes,
        numeric_sizes=[len(masks) for _, _, masks in layers],
        descent_mismatches=mismatches,
    )
