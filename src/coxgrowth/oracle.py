"""Exact enumeration of group elements: a ShortLex table and a Tits-cone check.

Word oracle.  Every element gets an integer id, assigned in ShortLex order
(by length, then lexicographically by canonical word, the ShortLex-least
reduced word), and stores three things: its last letter (one byte), its
right descent mask, and a row of ``rank`` ids giving its right multiple by
each generator.  Nothing else is kept per element.  The parent of an
element, the one its canonical word reaches a letter earlier, is the table
entry at its last letter, so :meth:`WordOracle.word` rebuilds a canonical
word from the parent chain only when a caller asks for one, and a word is
turned into an id by walking the table from the identity.  Multiplication
and descent sets are table lookups, and callers that iterate ids
(:meth:`WordOracle.sphere_ids`, :meth:`WordOracle.descents`) or count a
sphere's descent masks (:meth:`WordOracle.descent_counts`) build no word at
all.

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

Geometric oracle.  :class:`GeometricOracle` enumerates the same balls through
the contragredient action of W on the Tits cone, in exact integer arithmetic,
and shares no code with the table; :func:`cross_check_oracles` compares
their sphere sizes and every element's descent set.  Element w is stored as
the n numbers y_t = <w^-1 x, alpha_t> for x = (1, ..., 1); y_t is the
coefficient sum of the root w(alpha_t), so the right descents of w are the
t with y_t < 0, and no y_t is ever 0.  The coefficients lie in Z[c] for
c = 2cos(pi/M), M the lcm of the finite orders m >= 4 (plain integers when
there is none); a sign is decided by interval evaluation on a rational
bracket of c, halved until the sign is certain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from math import lcm

from .classify import classify
from .coxeter import INFINITY, CoxeterMatrix, Mask, bits_of, format_subset
from .growth import _cyclotomic

Word = tuple


class OracleHorizonError(RuntimeError):
    """An enumeration is out of reach: a finite group was not exhausted
    within the requested length."""


class WordOracle:
    """Exhaustive ShortLex enumeration for one Coxeter system, by table lookup."""

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self.rank = matrix.rank
        orders = matrix.orders
        # per generator s: the (t, m(s, t)) with t != s and a finite order
        self._partners = [[(t, orders[s][t]) for t in range(self.rank)
                           if t != s and orders[s][t] is not INFINITY]
                          for s in range(self.rank)]
        self._last = bytearray(1)     # id -> last letter of its canonical word (0 for e)
        self._descents = [0]          # id -> right descent mask
        self._table = [-1] * self.rank  # id * rank + s -> id of w*s; -1 until built
        self._starts = [0, 1]         # sphere k holds the ids starts[k] .. starts[k+1] - 1
        self._exhausted = False

    # -- the table -------------------------------------------------------------

    def _extend(self):
        """Build the next sphere from the last one (see the module docstring)."""
        rank = self.rank
        partners = self._partners
        last, descents, table = self._last, self._descents, self._table
        for w in range(self._starts[-2], self._starts[-1]):
            dw = descents[w]
            row = w * rank
            for s in range(rank):
                if dw >> s & 1:
                    continue
                v = -1
                mask = 1 << s
                down = [-1] * rank            # v's table row: v*t at its descents t
                down[s] = w
                for t, m in partners[s]:
                    x, a, b = w, t, s
                    for _ in range(m - 1):
                        if not descents[x] >> a & 1:
                            break
                        x = table[x * rank + a]
                        a, b = b, a
                    else:
                        for _ in range(m - 1):
                            x = table[x * rank + a]
                            a, b = b, a
                        if x < w:
                            v = table[x * rank + t]
                            break
                        mask |= 1 << t
                        down[t] = x
                if v < 0:
                    v = len(descents)
                    last.append(s)
                    descents.append(mask)
                    table += down
                table[row + s] = v
        self._starts.append(len(descents))
        if self._starts[-1] == self._starts[-2]:
            self._exhausted = True

    def _times(self, i: int, s: int) -> int:
        """Id of (element i) * s, building the next sphere if it is needed."""
        if not 0 <= s < self.rank:
            raise ValueError(f"generator {s} is out of range for rank {self.rank}")
        j = self._table[i * self.rank + s]
        if j < 0:
            # i lies in the outermost sphere built and s is one of its ascents
            self._extend()
            j = self._table[i * self.rank + s]
        return j

    def _id(self, word) -> int:
        """Id of the element a word spells; the word need not be reduced."""
        i = 0
        for s in word:
            i = self._times(i, s)
        return i

    # -- ids -------------------------------------------------------------------

    def sphere_ids(self, k: int) -> range:
        """Ids of the elements of length exactly k, in ShortLex order."""
        if k < 0:
            raise ValueError("length must be nonnegative")
        while len(self._starts) <= k + 1 and not self._exhausted:
            self._extend()
        if k + 1 < len(self._starts):
            return range(self._starts[k], self._starts[k + 1])
        return range(0)

    def word(self, i: int) -> Word:
        """Canonical word of element i, rebuilt along its parent chain."""
        if not 0 <= i < len(self._descents):
            raise ValueError(f"element id {i} is not in the table built so far "
                             f"({len(self._descents)} ids)")
        rank, last, table = self.rank, self._last, self._table
        letters = []
        while i:
            s = last[i]
            letters.append(s)
            i = table[i * rank + s]
        letters.reverse()
        return tuple(letters)

    def descents(self, i: int) -> Mask:
        """Right descent mask of element i."""
        if not 0 <= i < len(self._descents):
            raise ValueError(f"element id {i} is not in the table built so far "
                             f"({len(self._descents)} ids)")
        return self._descents[i]

    def descent_counts(self, k: int) -> Counter:
        """Descent mask -> number of elements of length k with that mask."""
        ids = self.sphere_ids(k)
        return Counter(islice(self._descents, ids.start, ids.stop))

    # -- normal forms --------------------------------------------------------

    def canonical(self, word) -> Word:
        """ShortLex-least reduced word of the element the word spells."""
        return self.word(self._id(word))

    def descent_mask(self, word) -> Mask:
        """Right descents: generators ending some reduced word of the element."""
        return self._descents[self._id(word)]

    def right_multiply(self, word, s: int) -> Word:
        """Canonical word of w*s, in either length direction."""
        return self.word(self._times(self._id(word), s))

    # -- sphere enumeration --------------------------------------------------

    def sphere(self, k: int) -> list:
        """Canonical words of length exactly k, sorted."""
        return [self.word(i) for i in self.sphere_ids(k)]

    def sphere_sizes(self, horizon: int) -> list:
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        return [len(self.sphere_ids(k)) for k in range(horizon + 1)]

    def ball(self, horizon: int) -> dict:
        """Canonical word -> length, for all elements of length <= horizon."""
        return {self.word(i): k for k in range(horizon + 1) for i in self.sphere_ids(k)}

    def full_histogram(self, limit: int = 64) -> list:
        """Sphere sizes of a finite group, enumerated to exhaustion.

        Raises OracleHorizonError if the group is not exhausted by ``limit``.
        """
        sizes = []
        for k in range(limit + 1):
            size = len(self.sphere_ids(k))
            if not size:
                return sizes
            sizes.append(size)
        raise OracleHorizonError(f"group not exhausted within length {limit}")

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
                        new.add(self._times(i, s))
            layer = sorted(new)      # ids are in ShortLex order
            members.extend(self.word(i) for i in layer)
        return members


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


def _coset_pieces(oracle: WordOracle, horizon: int, subset: Mask) -> list:
    """Component number of every id of the length-``horizon`` ball, whose ids
    are 0, 1, ...; see :func:`coset_components`."""
    sizes = oracle.sphere_sizes(horizon)
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
                    j = oracle._times(i, s)
                    if comp[j] < 0:
                        comp[j] = next_id
                        stack.append(j)
        next_id += 1
    return comp


def coset_components(oracle: WordOracle, ball: dict, subset: Mask) -> dict:
    """Partition a ball into connected pieces of right cosets w * W_subset.

    Returns canonical word -> component id.  Edges are right multiplications
    by subset generators that stay inside the ball.  A piece containing every
    element of its coset is the whole coset (cosets are connected under these
    moves); pieces cut by the horizon are proper subsets.
    """
    comp = _coset_pieces(oracle, max(ball.values(), default=0), subset)
    return {oracle.word(i): c for i, c in enumerate(comp)}


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
    if oracle is None:
        oracle = WordOracle(matrix)
    members = oracle.subgroup_elements(subset)
    ball = oracle.ball(horizon)
    comp = coset_components(oracle, ball, subset)
    groups = {}
    for w, cid in comp.items():
        groups.setdefault(cid, []).append(w)

    report = CosetReport(subset=subset, horizon=horizon,
                         complete_cosets=0, skipped_cosets=0)
    for words in groups.values():
        if len(words) != info.order:
            report.skipped_cosets += 1
            continue
        shortest = min(len(w) for w in words)
        mins = [w for w in words if len(w) == shortest]
        if len(mins) != 1:
            report.violations.append(
                f"coset {sorted(words)} has {len(mins)} shortest elements")
            continue
        u = mins[0]
        rebuilt = set()
        for v in members:
            x = u
            for s in v:
                x = oracle.right_multiply(x, s)
            if len(x) != len(u) + len(v):
                report.violations.append(
                    f"length not additive: u={u} v={v} gives length {len(x)}")
            rebuilt.add(x)
        if rebuilt != set(words):
            report.violations.append(
                f"coset of u={u} does not match u * subgroup")
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
    phi = _cyclotomic(2 * big_m, {}).coeffs
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

    def _step(self, y: tuple, s: int) -> tuple:
        out = list(y)
        if self.ring is None:
            v = y[s]
            for t, c in self._couplings[s]:
                out[t] += c * v
            out[s] = -v
            return tuple(out)
        d = self.ring.degree
        v = y[s * d:(s + 1) * d]
        for t, c in self._couplings[s]:
            base = t * d
            if c.__class__ is int:
                for i in range(d):
                    out[base + i] += c * v[i]
            else:
                for i, row in enumerate(c, base):
                    for j, e in row:
                        out[i] += e * v[j]
        out[s * d:(s + 1) * d] = [-x for x in v]
        return tuple(out)

    def _mask(self, y: tuple) -> Mask:
        if self.ring is None:
            return sum(1 << t for t, v in enumerate(y) if v < 0)
        d, sign = self.ring.degree, self.ring.sign
        mask = 0
        for t in range(self.rank):
            v = y[t * d:(t + 1) * d]
            if min(v) < 0 and sign(v) < 0:      # no negative coordinate: positive
                mask |= 1 << t
        return mask

    def layers(self, horizon: int) -> list:
        """Per-length lists of (parent, letter, descent mask), up to the horizon.

        Entry i of layer k + 1 is entry ``parent`` of layer k times the
        generator ``letter``; layer 0 holds the identity as (None, None, 0).
        Layers past the end of a finite group are empty.
        """
        frontier = [self._identity]
        out = [[(None, None, 0)]]
        for _ in range(horizon):
            layer, nxt, seen = [], [], set()
            for p, (y, (_, _, d)) in enumerate(zip(frontier, out[-1])):
                for s in range(self.rank):
                    if d >> s & 1:
                        continue
                    child = self._step(y, s)
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
                        layer.append((p, s, self._mask(child)))
            out.append(layer)
            frontier = nxt
            if not layer:
                break
        while len(out) <= horizon:
            out.append([])
        return out

    def sphere_sizes(self, horizon: int) -> list:
        return [len(layer) for layer in self.layers(horizon)]


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
    if oracle is None:
        oracle = WordOracle(matrix)
    layers = GeometricOracle(matrix).layers(horizon)
    mismatches = []
    ids = []
    for layer in layers:
        ids = [0 if p is None else oracle._times(ids[p], s) for p, s, _ in layer]
        for i, (_, _, numeric) in zip(ids, layer):
            symbolic = oracle.descents(i)
            if numeric != symbolic:
                mismatches.append((oracle.word(i), symbolic, numeric))
    return CrossCheckReport(
        horizon=horizon,
        symbolic_sizes=oracle.sphere_sizes(horizon),
        numeric_sizes=[len(layer) for layer in layers],
        descent_mismatches=mismatches,
    )
