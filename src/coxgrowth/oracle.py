"""Brute-force enumeration of group elements by reduced words.

An element is represented by its canonical reduced word: the lexicographically
least member of the braid class, i.e. the closure of one reduced word under
replacing an alternating factor ``stst...`` of length m(s, t) by ``tsts...``
(pairs with no relation admit no move).  Two reduced words name the same
element exactly when they are braid-connected, so the class minimum is a
sound normal form; no linear algebra is involved.  Class sizes are capped,
and blowing the cap raises :class:`OracleHorizonError` rather than returning
anything partial.

A second, numerically independent oracle drives the standard reflection
representation in floating point (:class:`GeometricOracle`); it is used only
to cross-check sphere sizes and descent sets at short lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi

import numpy as np

from .classify import classify
from .coxeter import INFINITY, CoxeterMatrix, Mask, bits_of, format_subset

Word = tuple

DEFAULT_CLASS_CAP = 1_000_000


class OracleHorizonError(RuntimeError):
    """A braid class outgrew the configured cap; the enumeration is out of reach."""


def _alternating(s, t, m):
    return tuple(s if i % 2 == 0 else t for i in range(m))


class WordOracle:
    """Exhaustive word enumeration for one Coxeter system, with memoized braid classes."""

    def __init__(self, matrix: CoxeterMatrix, class_cap: int = DEFAULT_CLASS_CAP):
        self.matrix = matrix
        self.rank = matrix.rank
        self.class_cap = class_cap
        self._patterns = {}
        for s in range(self.rank):
            for t in range(self.rank):
                if s == t:
                    continue
                m = matrix.orders[s][t]
                if m is INFINITY:
                    continue
                self._patterns[(s, t)] = (_alternating(s, t, m), _alternating(t, s, m))
        self._canon = {(): ()}
        self._classes = {(): frozenset({()})}
        self._descents = {(): 0}
        self._spheres = [[()]]
        self._exhausted = False

    # -- braid classes and normal forms ------------------------------------

    def braid_class(self, word) -> frozenset:
        """All reduced words of the element of the given reduced word."""
        word = tuple(word)
        canon = self._canon.get(word)
        if canon is not None:
            return self._classes[canon]
        seen = {word}
        frontier = [word]
        while frontier:
            nxt = []
            for u in frontier:
                length = len(u)
                for i in range(length - 1):
                    pat = self._patterns.get((u[i], u[i + 1]))
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
        cls = frozenset(seen)
        canon = min(cls)
        for u in cls:
            self._canon[u] = canon
        self._classes[canon] = cls
        return cls

    def canonical(self, word) -> Word:
        """ShortLex-least reduced word of the element (all class members share a length)."""
        word = tuple(word)
        canon = self._canon.get(word)
        if canon is None:
            self.braid_class(word)
            canon = self._canon[word]
        return canon

    def descent_mask(self, word) -> Mask:
        """Right descents: generators ending some reduced word of the element."""
        w = self.canonical(word)
        d = self._descents.get(w)
        if d is None:
            d = 0
            for u in self._classes[w]:
                if u:
                    d |= 1 << u[-1]
            self._descents[w] = d
        return d

    def right_multiply(self, word, s: int) -> Word:
        """Canonical word of w*s, in either length direction."""
        w = self.canonical(word)
        if not (self.descent_mask(w) >> s) & 1:
            return self.canonical(w + (s,))
        for u in self._classes[w]:
            if u[-1] == s:
                return self.canonical(u[:-1])
        raise AssertionError("descent generator without a witnessing reduced word")

    # -- sphere enumeration --------------------------------------------------

    def _extend(self):
        prev = self._spheres[-1]
        new = set()
        for w in prev:
            d = self.descent_mask(w)
            for s in range(self.rank):
                if not (d >> s) & 1:
                    new.add(self.canonical(w + (s,)))
        if new:
            self._spheres.append(sorted(new))
        else:
            self._exhausted = True

    def sphere(self, k: int) -> list:
        """Canonical words of length exactly k, sorted."""
        while len(self._spheres) <= k and not self._exhausted:
            self._extend()
        return self._spheres[k] if k < len(self._spheres) else []

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
        subset, which stays inside the subgroup because braid moves never
        enlarge the letter support of a word.
        """
        if not classify(self.matrix, subset).finite:
            raise ValueError(f"subset {format_subset(subset)} generates an infinite subgroup")
        gens = bits_of(subset)
        members = [()]
        layer = [()]
        while layer:
            new = set()
            for w in layer:
                d = self.descent_mask(w)
                for s in gens:
                    if not (d >> s) & 1:
                        new.add(self.canonical(w + (s,)))
            layer = sorted(new)
            members.extend(layer)
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
            for s in gens:
                v = oracle.right_multiply(w, s)
                if len(v) <= horizon and v not in comp:
                    # v is in the ball: lengths change by exactly one
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
    meant for.
    """

    def __init__(self, matrix: CoxeterMatrix, tol: float = 1e-8):
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
        return (np.round(mat, 6) + 0.0).tobytes()

    def descent_mask(self, mat) -> Mask:
        d = 0
        for s in range(self.rank):
            if np.max(mat[:, s]) <= self.tol:
                d |= 1 << s
        return d

    def layers(self, horizon: int) -> list:
        """Per-length lists of (matrix, witness word) pairs, up to the horizon."""
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
    """Agreement between the rewriting oracle and the numeric representation."""

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
