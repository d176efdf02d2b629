"""Exact enumeration of group elements by ShortLex normal forms.

Every element gets an integer id, assigned in ShortLex order (by length, then
lexicographically by canonical word), and stores three things: its canonical
word (the ShortLex-least reduced word), its right descent mask, and a row of
``rank`` ids giving its right multiple by each generator.  Multiplication and
descent sets are table lookups; nothing is stored beyond O(rank) per element
besides the canonical word itself.

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

Braid classes (the closure of a reduced word under replacing an alternating
factor ``stst...`` of length m(s, t) by ``tsts...``) remain available on
demand through :meth:`WordOracle.braid_class`, as an independent reference
whose size is capped; blowing the cap raises :class:`OracleHorizonError`.

A second, numerically independent oracle drives the standard reflection
representation in floating point (:class:`GeometricOracle`); it is used only
to cross-check sphere sizes and descent sets at short lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi

from .classify import classify
from .coxeter import INFINITY, CoxeterMatrix, Mask, bits_of, format_subset

Word = tuple

DEFAULT_CLASS_CAP = 1_000_000


class OracleHorizonError(RuntimeError):
    """An enumeration is out of reach: a braid class outgrew its cap, or a
    finite group was not exhausted within the requested length."""


def _alternating(s, t, m):
    return tuple(s if i % 2 == 0 else t for i in range(m))


class WordOracle:
    """Exhaustive ShortLex enumeration for one Coxeter system, by table lookup."""

    def __init__(self, matrix: CoxeterMatrix, class_cap: int = DEFAULT_CLASS_CAP):
        self.matrix = matrix
        self.rank = matrix.rank
        self.class_cap = class_cap
        orders = matrix.orders
        # per generator s: the (t, m(s, t)) with t != s and a finite order
        self._partners = [[(t, orders[s][t]) for t in range(self.rank)
                           if t != s and orders[s][t] is not INFINITY]
                          for s in range(self.rank)]
        self._words = [()]            # id -> canonical word
        self._descents = [0]          # id -> right descent mask
        self._table = [-1] * self.rank  # id * rank + s -> id of w*s; -1 until built
        self._index = {(): 0}         # canonical word -> id
        self._starts = [0, 1]         # sphere k holds the ids starts[k] .. starts[k+1] - 1
        self._exhausted = False

    # -- the table -------------------------------------------------------------

    def _extend(self):
        """Build the next sphere from the last one (see the module docstring)."""
        rank = self.rank
        partners = self._partners
        words, descents, table, index = self._words, self._descents, self._table, self._index
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
                    v = len(words)
                    word = words[w] + (s,)
                    words.append(word)
                    descents.append(mask)
                    index[word] = v
                    table += down
                table[row + s] = v
        self._starts.append(len(words))
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
        word = tuple(word)
        i = self._index.get(word)
        if i is None:
            i = 0
            for s in word:
                i = self._times(i, s)
        return i

    # -- braid classes and normal forms ------------------------------------

    def braid_class(self, word) -> frozenset:
        """All words braid-equivalent to the given one: for a reduced word, all
        reduced words of its element.  Computed on demand, not stored; raises
        :class:`OracleHorizonError` past ``class_cap`` words."""
        patterns = {}
        for s in range(self.rank):
            for t, m in self._partners[s]:
                patterns[(s, t)] = (_alternating(s, t, m), _alternating(t, s, m))
        word = tuple(word)
        seen = {word}
        frontier = [word]
        while frontier:
            nxt = []
            for u in frontier:
                length = len(u)
                for i in range(length - 1):
                    pat = patterns.get((u[i], u[i + 1]))
                    if pat is None:
                        continue
                    old, new = pat
                    m = len(old)
                    if i + m <= length and u[i:i + m] == old:
                        v = u[:i] + new + u[i + m:]
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
            if len(seen) > self.class_cap:
                raise OracleHorizonError(
                    f"braid class of a word of length {len(word)} exceeds cap {self.class_cap}"
                )
            frontier = nxt
        return frozenset(seen)

    def canonical(self, word) -> Word:
        """ShortLex-least reduced word of the element the word spells."""
        return self._words[self._id(word)]

    def descent_mask(self, word) -> Mask:
        """Right descents: generators ending some reduced word of the element."""
        return self._descents[self._id(word)]

    def right_multiply(self, word, s: int) -> Word:
        """Canonical word of w*s, in either length direction."""
        return self._words[self._times(self._id(word), s)]

    # -- sphere enumeration --------------------------------------------------

    def sphere(self, k: int) -> list:
        """Canonical words of length exactly k, sorted."""
        while len(self._starts) <= k + 1 and not self._exhausted:
            self._extend()
        if k + 1 < len(self._starts):
            return self._words[self._starts[k]:self._starts[k + 1]]
        return []

    def sphere_sizes(self, horizon: int) -> list:
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        return [len(self.sphere(k)) for k in range(horizon + 1)]

    def ball(self, horizon: int) -> dict:
        """Canonical word -> length, for all elements of length <= horizon."""
        out = {}
        for k in range(horizon + 1):
            for w in self.sphere(k):
                out[w] = k
        return out

    def full_histogram(self, limit: int = 64) -> list:
        """Sphere sizes of a finite group, enumerated to exhaustion.

        Raises OracleHorizonError if the group is not exhausted by ``limit``.
        """
        sizes = []
        for k in range(limit + 1):
            layer = self.sphere(k)
            if not layer:
                return sizes
            sizes.append(len(layer))
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
            members.extend(self._words[i] for i in layer)
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


def coset_components(oracle: WordOracle, ball: dict, subset: Mask) -> dict:
    """Partition a ball into connected pieces of right cosets w * W_subset.

    Returns canonical word -> component id.  Edges are right multiplications
    by subset generators that stay inside the ball.  A piece containing every
    element of its coset is the whole coset (cosets are connected under these
    moves); pieces cut by the horizon are proper subsets.
    """
    comp = {}
    gens = bits_of(subset)
    horizon = max(ball.values(), default=0)
    next_id = 0
    for start in ball:
        if start in comp:
            continue
        stack = [start]
        comp[start] = next_id
        while stack:
            w = stack.pop()
            d = oracle.descent_mask(w)
            for s in gens:
                # an ascent from the horizon leaves the ball: never multiply past it
                if len(w) < horizon or (d >> s) & 1:
                    v = oracle.right_multiply(w, s)
                    if v not in comp:
                        comp[v] = next_id
                        stack.append(v)
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
# numeric cross-check: the reflection representation in floating point
# ---------------------------------------------------------------------------

class GeometricOracle:
    """BFS over the standard reflection representation, double precision.

    The bilinear form has B(a_s, a_t) = -cos(pi / m(s, t)), with -1 for pairs
    with no relation.  A generator s is a right descent of w exactly when the
    column w(a_s) has all coordinates <= 0 (tolerance 1e-8).  Deduplication
    rounds matrix entries, which is safe at the short lengths this oracle is
    meant for.  numpy is imported here rather than with the package, so the
    commands that never cross-check do not load it.
    """

    def __init__(self, matrix: CoxeterMatrix, tol: float = 1e-8):
        import numpy as np

        self.matrix = matrix
        self.rank = matrix.rank
        self.tol = tol
        n = self.rank
        form = np.ones((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                m = matrix.orders[i][j]
                form[i, j] = -1.0 if m is INFINITY else -cos(pi / m)
        self.form = form
        self.gens = []
        for s in range(n):
            g = np.eye(n)
            g[s, :] -= 2.0 * form[s, :]
            self.gens.append(g)

    def _key(self, mat):
        # adding 0.0 folds -0.0 into +0.0, which tobytes() would distinguish
        return (mat.round(6) + 0.0).tobytes()

    def descent_mask(self, mat) -> Mask:
        d = 0
        for s, top in enumerate(mat.max(axis=0).tolist()):
            if top <= self.tol:
                d |= 1 << s
        return d

    def layers(self, horizon: int) -> list:
        """Per-length lists of (matrix, witness word) pairs, up to the horizon."""
        import numpy as np

        identity = np.eye(self.rank)
        seen = {self._key(identity)}
        out = [[(identity, ())]]
        for _ in range(horizon):
            layer = []
            for mat, word in out[-1]:
                d = self.descent_mask(mat)
                for s in range(self.rank):
                    if (d >> s) & 1:
                        continue
                    child = mat @ self.gens[s]
                    key = self._key(child)
                    if key not in seen:
                        seen.add(key)
                        layer.append((child, word + (s,)))
            out.append(layer)
            if not layer:
                break
        while len(out) <= horizon:
            out.append([])
        return out

    def sphere_sizes(self, horizon: int) -> list:
        return [len(layer) for layer in self.layers(horizon)]


@dataclass
class CrossCheckReport:
    """Agreement between the word oracle and the numeric representation."""

    horizon: int
    symbolic_sizes: list
    numeric_sizes: list
    descent_mismatches: list

    @property
    def passed(self) -> bool:
        return self.symbolic_sizes == self.numeric_sizes and not self.descent_mismatches


def cross_check_oracles(matrix: CoxeterMatrix, horizon: int,
                        oracle: WordOracle = None) -> CrossCheckReport:
    """Compare sphere sizes and per-element descent sets between the two oracles."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if oracle is None:
        oracle = WordOracle(matrix)
    geo = GeometricOracle(matrix)
    layers = geo.layers(horizon)
    mismatches = []
    for k, layer in enumerate(layers):
        for mat, word in layer:
            numeric = geo.descent_mask(mat)
            symbolic = oracle.descent_mask(word)
            if numeric != symbolic:
                mismatches.append((word, symbolic, numeric))
    return CrossCheckReport(
        horizon=horizon,
        symbolic_sizes=oracle.sphere_sizes(horizon),
        numeric_sizes=[len(layer) for layer in layers],
        descent_mismatches=mismatches,
    )
