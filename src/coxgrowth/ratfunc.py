"""Exact univariate polynomials and rational functions over the integers.

Polynomials are dense integer coefficient tuples indexed by degree, with no
trailing zeros (the zero polynomial is the empty tuple).  Rational functions
are always held in canonical form:

* numerator and denominator are coprime as polynomials over Q,
* the integer contents of numerator and denominator are coprime,
* the lowest-order nonzero coefficient of the denominator is positive.

The canonical form is unique, so ``==`` is plain structural comparison.
The constructor reaches it through a polynomial gcd.  Where the pair is
known to be coprime already, :meth:`RatFunc.from_coprime` normalises only
content and sign; :func:`cancel_factors` supplies such a pair without a gcd
when one side is a product of known irreducible factors, such as the
cyclotomic common denominator of a growth table.  Everything runs on
Python's unbounded ints, series extraction included: its recurrence
divides by the denominator's constant term in Z and stops at the first
coefficient that is not an integer.  ``Fraction`` is used only for
evaluation, which takes an int or a Fraction and raises ``TypeError`` on a
float, and in the message about a series coefficient that is not an
integer; it is imported only there.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from operator import add, sub


def _exact_point(x):
    """Raise ``TypeError`` unless x is an int or a Fraction: no float, or
    other inexact number, may feed an exact evaluation."""
    if not isinstance(x, int):
        from fractions import Fraction

        if not isinstance(x, Fraction):
            raise TypeError(f"exact evaluation needs an int or a Fraction, "
                            f"not {type(x).__name__}")


class Poly:
    """Dense integer polynomial in one variable t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> "Poly":
        return cls((c,))

    @classmethod
    def t_power(cls, k: int) -> "Poly":
        """The monomial t^k."""
        return cls((0,) * k + (1,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self or not other:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at x (int or Fraction); exact."""
        _exact_point(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "Poly":
        g = self.content()
        if g <= 1:
            return self
        return Poly(tuple(c // g for c in self.coeffs))

    def shifted(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if not self or k == 0:
            return self
        return Poly((0,) * k + self.coeffs)

    def reversed(self) -> "Poly":
        """t^degree * p(1/t)."""
        return Poly(tuple(reversed(self.coeffs)))

    def exact_div(self, other: "Poly") -> "Poly":
        """Quotient self / other when the division is exact over Z; else ValueError."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return Poly()
        rem = list(self.coeffs)
        d = other.coeffs
        dd = len(d) - 1
        dn = len(rem) - 1
        if dn < dd:
            raise ValueError("polynomial division is not exact")
        quot = [0] * (dn - dd + 1)
        terms = [(i, di) for i, di in enumerate(d) if di]
        for k in range(dn - dd, -1, -1):
            lead = rem[k + dd]
            if lead % d[-1]:
                raise ValueError("polynomial division is not exact")
            c = lead // d[-1]
            quot[k] = c
            if c:
                for i, di in terms:
                    rem[k + i] -= c * di
        if any(rem):
            raise ValueError("polynomial division is not exact")
        return Poly(quot)

    def __repr__(self):
        return f"Poly({self.coeffs!r})"

    def __str__(self):
        return format_poly(self)


P_ZERO = Poly()
P_ONE = Poly((1,))


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """A scalar multiple of (a mod b) with integer arithmetic only."""
    db = b.degree
    lcb = b.coeffs[-1]
    r = a
    while r and r.degree >= db:
        shift = r.degree - db
        r = r * lcb - b.shifted(shift) * r.coeffs[-1]
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd over Z[t] with positive leading coefficient."""
    a = a.primitive()
    b = b.primitive()
    while b:
        a, b = b, _pseudo_rem(a, b).primitive()
    if a and a.coeffs[-1] < 0:
        a = -a
    return a


class RatFunc:
    """Reduced ratio of integer polynomials; canonical, so ``==`` is exact."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = Poly.constant(num)
        if den is None:
            den = P_ONE
        elif isinstance(den, int):
            den = Poly.constant(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        self._normalise(num, den)

    @classmethod
    def from_coprime(cls, num: Poly, den: Poly) -> "RatFunc":
        """num / den for polynomials already coprime over Q; no gcd is taken.

        Only the integer content and the sign are normalised, so the result
        equals ``RatFunc(num, den)`` exactly when the precondition holds.
        """
        if not den:
            raise ZeroDivisionError("zero denominator")
        out = cls.__new__(cls)
        out._normalise(num, den)
        return out

    def _normalise(self, num: Poly, den: Poly):
        """Store a pair coprime over Q with coprime contents and the sign convention."""
        if not num:
            self.num = P_ZERO
            self.den = P_ONE
            return
        c = gcd(num.content(), den.content())
        if c > 1:
            num = Poly(tuple(x // c for x in num.coeffs))
            den = Poly(tuple(x // c for x in den.coeffs))
        low = next(x for x in den.coeffs if x != 0)
        if low < 0:
            num = -num
            den = -den
        self.num = num
        self.den = den

    @classmethod
    def t_power(cls, k: int) -> "RatFunc":
        return cls(Poly.t_power(k))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def reciprocal(self) -> "RatFunc":
        if not self.num:
            raise ZeroDivisionError("reciprocal of the zero rational function")
        return RatFunc(self.den, self.num)

    def __call__(self, x):
        """Exact evaluation at x (int or Fraction); raises on a pole."""
        from fractions import Fraction

        den = self.den(x)
        if den == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return Fraction(self.num(x), den) if isinstance(x, int) else self.num(x) / den

    def __repr__(self):
        return f"RatFunc({self.num.coeffs!r}, {self.den.coeffs!r})"

    def __str__(self):
        return format_ratfunc(self)


RF_ZERO = RatFunc(0)


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Poly)):
        return RatFunc(x)
    return NotImplemented


def series_expand(r: RatFunc, n: int) -> list:
    """First n+1 power-series coefficients of r at t = 0, as exact ints.

    Requires the denominator to be nonzero at t = 0; raises ValueError with
    "not a power series at 0" otherwise, and also when a coefficient is not
    an integer (cannot happen for growth series).
    """
    if n < 0:
        raise ValueError("series length must be nonnegative")
    den = r.den.coeffs
    if den[0] == 0:
        raise ValueError("not a power series at 0 (denominator vanishes)")
    num = r.num.coeffs
    d0 = den[0]
    out = []
    for k in range(n + 1):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        q, rem = divmod(c, d0)
        if rem:
            from fractions import Fraction

            raise ValueError(f"series coefficient of t^{k} is not an integer: "
                             f"{Fraction(c, d0)}")
        out.append(q)
    return out


def substitute_inverse(r: RatFunc) -> RatFunc:
    """The rational function r(1/t), with powers of t cleared.

    An involution on nonzero inputs; maps 0 to 0.
    """
    if not r.num:
        return RF_ZERO
    dn, dd = r.num.degree, r.den.degree
    num = r.num.reversed()
    den = r.den.reversed()
    if dd >= dn:
        num = num.shifted(dd - dn)
    else:
        den = den.shifted(dn - dd)
    # r is canonical, so num and den share no root.  Reversal maps each
    # nonzero root to its inverse and leaves neither side divisible by t, and
    # the shift puts powers of t on one side only: the pair stays coprime.
    return RatFunc.from_coprime(num, den)


def cyclotomic(k: int) -> Poly:
    """Phi_k, the k-th cyclotomic polynomial, by the Moebius product

        Phi_k(t) = prod_{e | rad k} (t^{k/e} - 1)^{mu(e)}

    over the divisors e of rad k, the product of the distinct primes of k,
    with the Moebius function mu (Moebius inversion of
    t^k - 1 = prod_{d | k} Phi_d; Lang, *Algebra*, VI.3).  For k > 1 the
    mu(e) sum to 0, so the product is also prod (1 - t^{k/e})^{mu(e)}, whose
    factors are units of Z[[t]].  It is formed modulo t^(n+1), n = phi(k) =
    deg Phi_k: each factor is a sparse multiply by 1 - t^d, or an exact
    division by it (a prefix sum with stride d), in O(n) steps, and a
    factor with d > n is 1 there.
    """
    if k == 1:
        return Poly((-1, 1))
    primes, rest, p = [], k, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        primes.append(rest)
    n = k
    for p in primes:
        n = n // p * (p - 1)
    divisors = [(1, 1)]                     # (e, mu(e)) for e | rad k
    for p in primes:
        divisors += [(e * p, -mu) for e, mu in divisors]
    coeffs = [1] + [0] * n
    for e, mu in divisors:
        d = k // e
        if d > n:
            continue
        if mu > 0:
            coeffs[d:] = map(sub, coeffs[d:], coeffs[:-d])
        elif d * d <= n:                    # few strides: a prefix sum along each
            for r in range(d):
                coeffs[r::d] = accumulate(coeffs[r::d])
        else:                               # few blocks of d: add each to the next
            for j in range(d, n + 1, d):
                coeffs[j:j + d] = map(add, coeffs[j:j + d], coeffs[j - d:j])
    return Poly(coeffs)


def cancel_factors(p: Poly, factors) -> tuple:
    """``(p / g, F / g)`` for F = prod f^e over the pairs (f, e) of ``factors``
    and g = gcd(p, F), by trial division: no gcd is taken.

    Each f must be primitive and irreducible over Q, and no two may be
    associates (the cyclotomic polynomials Phi_k are); then
    g = prod f^min(e, v_f(p)), and the two results are coprime over Q.
    """
    rest = P_ONE
    for f, e in factors:
        kept = e
        while kept:
            try:
                p = p.exact_div(f)
            except ValueError:
                break
            kept -= 1
        for _ in range(kept):
            rest = rest * f
    return p, rest


def format_poly(p: Poly) -> str:
    """Readable form like ``1 + 2*t + 2*t^2 + t^3``; the zero polynomial is ``0``."""
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "t" if mag == 1 else f"{mag}*t"
        else:
            body = f"t^{k}" if mag == 1 else f"{mag}*t^{k}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def format_ratfunc(r: RatFunc) -> str:
    return f"({format_poly(r.num)}) / ({format_poly(r.den)})"
