"""Coxeter systems: symmetric order matrices, generator subsets as bitmasks.

A system is encoded by its rank and the symmetric table of pairwise orders
``m[i][j]``: the diagonal is 1, and for ``i != j`` the entry is an integer
``>= 2`` or :data:`INFINITY` (no relation between the two generators).
Generator subsets are plain ints used as bitmasks; the rank is capped at 16
so that full subset enumeration stays cheap.

On-disk format (UTF-8 text, one directive per line, ``#`` starts a comment):

    rank N          first directive, 1 <= N <= 16
    m I J K         1 <= I < J <= N, K an integer >= 2 or "inf"

N, I, J and K are ASCII decimal digits: no sign, no ``_`` and no other
Unicode digit.  A leading UTF-8 byte-order mark is skipped.

Pairs never mentioned default to order 2 (the generators commute).  The
canonical serializer emits the rank line followed by the non-default pairs
in lexicographic (I, J) order.  Generators are 1-based in files and 0-based
everywhere in code.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable

RANK_CAP = 16

Mask = int


class _Infinity:
    """The order of a generator pair with no relation.

    Deliberately not a number: any arithmetic on it raises, and identity
    comparison (``m is INFINITY``) is the supported test.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INFINITY = _Infinity()


class CoxParseError(ValueError):
    """A Coxeter matrix file is malformed; the message names the line."""


@dataclass(frozen=True)
class CoxeterMatrix:
    """Immutable symmetric order matrix.  Rank 0 (no generators) is allowed."""

    rank: int
    orders: tuple

    def __post_init__(self):
        if not 0 <= self.rank <= RANK_CAP:
            raise ValueError(f"rank must be between 0 and {RANK_CAP}, got {self.rank}")
        if len(self.orders) != self.rank:
            raise ValueError("orders table does not match rank")
        for i, row in enumerate(self.orders):
            if len(row) != self.rank:
                raise ValueError(f"row {i} has wrong length")
            for j, m in enumerate(row):
                if i == j:
                    if m != 1:
                        raise ValueError(f"diagonal entry ({i},{j}) must be 1")
                elif m is INFINITY:
                    continue
                elif not isinstance(m, int) or isinstance(m, bool) or m < 2:
                    raise ValueError(f"entry ({i},{j}) must be an int >= 2 or INFINITY")
        for i in range(self.rank):
            for j in range(i):
                if self.orders[i][j] is not self.orders[j][i] and self.orders[i][j] != self.orders[j][i]:
                    raise ValueError(f"orders not symmetric at ({i},{j})")

    @property
    def full_mask(self) -> Mask:
        return (1 << self.rank) - 1


def coxeter_matrix(rank: int, pairs=None) -> CoxeterMatrix:
    """Build a matrix from ``{(i, j): order}`` with 0-based indices.

    Unspecified off-diagonal pairs default to 2.
    """
    table = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for (i, j), m in (pairs or {}).items():
        if not (0 <= i < rank and 0 <= j < rank):
            raise ValueError(f"pair ({i}, {j}) is out of range for rank {rank}")
        if i == j:
            raise ValueError("cannot set a diagonal order")
        table[i][j] = m
        table[j][i] = m
    return CoxeterMatrix(rank, tuple(tuple(row) for row in table))


# ---------------------------------------------------------------------------
# bitmask helpers
# ---------------------------------------------------------------------------

def bits_of(mask: Mask) -> list:
    """Indices set in the mask, ascending."""
    if mask < 0:
        raise ValueError(f"mask must be nonnegative, got {mask}")
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mask_of(indices: Iterable[int]) -> Mask:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def superset_sums(values: list) -> list:
    """values[T] := the sum of values[U] over the masks U >= T, in place and
    returned, for 2^n values indexed by mask: the zeta transform (Yates 1937).

    A pass adds one slice per offset while 2 * step^2 < 2^n, and one slice per
    block after that: the sums are the same, only the Python loop is short.
    """
    size, step = len(values), 1
    if not size or size & (size - 1):
        raise ValueError(f"need 2^n values, got {size}")
    while step < size:
        if 2 * step * step < size:
            for lo in range(step):
                values[lo::2 * step] = map(add, values[lo::2 * step], values[lo + step::2 * step])
        else:
            for base in range(0, size, 2 * step):
                values[base:base + step] = map(add, values[base:base + step],
                                               values[base + step:base + 2 * step])
        step *= 2
    return values


def format_subset(mask: Mask) -> str:
    """Human-readable 1-based subset, e.g. ``{1,3}``."""
    return "{" + ",".join(str(i + 1) for i in bits_of(mask)) + "}"


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _integer(token: str, lineno: int, message: str) -> int:
    """The value of a token of ASCII decimal digits, else CoxParseError with
    the line number and ``message`` (``int`` alone takes a sign, ``_`` and
    any Unicode digit)."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise CoxParseError(f"line {lineno}: {message}: {token!r}")


def parse_coxeter_file(text: str) -> CoxeterMatrix:
    """Parse the ``rank`` / ``m I J K`` format; raise CoxParseError with a line number.

    Numbers are ASCII decimal digits only, and one leading byte-order mark
    is skipped.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    rank = None
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "rank":
            if rank is not None:
                raise CoxParseError(f"line {lineno}: duplicate rank directive")
            if len(tokens) != 2:
                raise CoxParseError(f"line {lineno}: expected 'rank N'")
            rank = _integer(tokens[1], lineno, "rank is not an integer")
            if not 1 <= rank <= RANK_CAP:
                raise CoxParseError(f"line {lineno}: rank must be between 1 and {RANK_CAP}")
        elif tokens[0] == "m":
            if rank is None:
                raise CoxParseError(f"line {lineno}: 'm' directive before 'rank'")
            if len(tokens) != 4:
                raise CoxParseError(f"line {lineno}: expected 'm I J K'")
            i = _integer(tokens[1], lineno, "generator indices are not integers")
            j = _integer(tokens[2], lineno, "generator indices are not integers")
            if not (1 <= i < j <= rank):
                raise CoxParseError(f"line {lineno}: need 1 <= I < J <= {rank}")
            if tokens[3] == "inf":
                k = INFINITY
            else:
                k = _integer(tokens[3], lineno, "order is not an integer or 'inf'")
                if k < 2:
                    raise CoxParseError(f"line {lineno}: pairwise order must be >= 2")
            key = (i - 1, j - 1)
            if key in pairs and pairs[key] != k and pairs[key] is not k:
                raise CoxParseError(f"line {lineno}: contradictory duplicate for pair {i} {j}")
            pairs[key] = k
        else:
            raise CoxParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if rank is None:
        raise CoxParseError("missing 'rank' directive")
    return coxeter_matrix(rank, pairs)


def serialize_coxeter(matrix: CoxeterMatrix) -> str:
    """Canonical text form: rank line, then non-default pairs in (I, J) order."""
    lines = [f"rank {matrix.rank}"]
    for i in range(matrix.rank):
        for j in range(i + 1, matrix.rank):
            m = matrix.orders[i][j]
            if m == 2:
                continue
            lines.append(f"m {i + 1} {j + 1} {'inf' if m is INFINITY else m}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# diagram components
# ---------------------------------------------------------------------------

def diagram_components(matrix: CoxeterMatrix, subset: Mask) -> list:
    """Connected components of the diagram induced on ``subset``.

    Edges are pairs with order >= 3 or INFINITY.  Components are returned as
    masks, ordered by their least generator.
    """
    if subset & ~matrix.full_mask:
        raise ValueError("subset is not within the generator set")
    todo = bits_of(subset)
    seen = set()
    components = []
    for start in todo:
        if start in seen:
            continue
        stack = [start]
        comp = 0
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp |= 1 << v
            for w in todo:
                if w not in seen:
                    m = matrix.orders[v][w]
                    if m is INFINITY or m >= 3:
                        stack.append(w)
        components.append(comp)
    return components
