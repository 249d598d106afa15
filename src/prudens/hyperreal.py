"""Exact arithmetic in Q[e], e a positive infinitesimal, truncated at a degree bound.

Values are polynomials ``c0 + c1*e + ... + cD*e^D`` with rational
coefficients, ordered lexicographically by ascending degree.  This is the
unique total order in which ``0 < e < r`` for every positive rational ``r``,
so a value is positive iff its lowest nonzero coefficient is positive.

All arithmetic is exact.  An operation whose result would need a term of
degree above the bound raises :class:`DegreeOverflow`; nothing is ever
silently truncated, since truncation can flip comparisons.

``scaled`` is the one place where rationals become integers over their
common denominator, for the simplex, the payoff rows, the LP answers
and the beliefs.
"""

import math
import re
from fractions import Fraction


class HyperrealError(Exception):
    pass


class DegreeOverflow(HyperrealError):
    """A product would carry a term above the configured degree bound."""


class NegativeInput(HyperrealError):
    """An operand violated a sign precondition."""


class ZeroDenominator(HyperrealError):
    """Ratio test against a zero denominator."""


def as_fraction(x):
    """x as a Fraction.  Raises TypeError, naming x, unless x is an int or
    a Fraction: a float is never exact data."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def scaled(values):
    """A list of rationals (Fractions or ints) as integers over their
    least common denominator: (ints, den) with ``ints[k] / den ==
    values[k]``; ``[]`` gives ``([], 1)``."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


class Hyperreal:
    """Immutable truncated polynomial in one positive infinitesimal.

    ``coeffs[k]`` is the rational coefficient of ``e^k``.  Canonical form:
    trailing zero coefficients are stripped, the zero value is the empty
    tuple.  ``degree_bound`` is the largest admissible degree; two values
    can be combined only if their bounds agree.
    """

    __slots__ = ("coeffs", "degree_bound")

    def __init__(self, coeffs=(), degree_bound=8):
        coeffs = [as_fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if degree_bound < 0:
            raise ValueError("degree bound must be >= 0")
        if len(coeffs) > degree_bound + 1:
            raise DegreeOverflow(
                "degree %d exceeds bound %d" % (len(coeffs) - 1, degree_bound))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "degree_bound", degree_bound)

    def __setattr__(self, name, value):
        raise AttributeError("Hyperreal is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q, degree_bound=8):
        return cls((as_fraction(q),), degree_bound)

    @classmethod
    def zero(cls, degree_bound=8):
        return cls((), degree_bound)

    @classmethod
    def one(cls, degree_bound=8):
        return cls((Fraction(1),), degree_bound)

    @classmethod
    def epsilon(cls, degree_bound=8, power=1):
        if power < 1:
            raise ValueError("power must be >= 1")
        return cls((Fraction(0),) * power + (Fraction(1),), degree_bound)

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def leading_degree(self):
        """Smallest k with a nonzero coefficient, or None for the zero value."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def degree(self):
        """Largest k with a nonzero coefficient, or None for the zero value."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def standard_part(self):
        """The unique rational infinitely close to this (limited) value."""
        return self.coefficient(0)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Hyperreal):
            if other.degree_bound != self.degree_bound:
                raise ValueError("degree bound mismatch: %d vs %d"
                                 % (self.degree_bound, other.degree_bound))
            return other
        if isinstance(other, (int, Fraction)):
            return Hyperreal((as_fraction(other),), self.degree_bound)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Hyperreal(out, self.degree_bound)

    __radd__ = __add__

    def __neg__(self):
        return Hyperreal([-c for c in self.coeffs], self.degree_bound)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Hyperreal((), self.degree_bound)
        # over a field, deg(a*b) = deg(a) + deg(b) exactly
        if len(a) + len(b) - 2 > self.degree_bound:
            raise DegreeOverflow(
                "product degree %d exceeds bound %d"
                % (len(a) + len(b) - 2, self.degree_bound))
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Hyperreal(out, self.degree_bound)

    __rmul__ = __mul__

    # -- order --------------------------------------------------------

    def compare(self, other):
        """Lexicographic comparison by ascending degree: -1, 0, or +1."""
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        for k in range(max(len(a), len(b))):
            ca = a[k] if k < len(a) else 0
            cb = b[k] if k < len(b) else 0
            if ca < cb:
                return -1
            if ca > cb:
                return 1
        return 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Hyperreal((as_fraction(other),), self.degree_bound)
        if not isinstance(other, Hyperreal):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        # A value equal to a rational hashes as that rational, as __eq__
        # requires.
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- text ---------------------------------------------------------

    def render(self):
        """Report syntax: ``c0 + c1*e + c2*e^2`` with rationals as ``p/q``."""
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                unit = "e" if k == 1 else "e^%d" % k
                body = unit if mag == 1 else "%s*%s" % (mag, unit)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    __str__ = render

    def __repr__(self):
        return "Hyperreal(%r, degree_bound=%d)" % (self.coeffs, self.degree_bound)


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<coef>\d+(?:/\d+)?)?\*?(?P<unit>e(?:\^(?P<pow>\d+))?)?$")


def parse_hyperreal(text, degree_bound=8):
    """Parse the ``render`` syntax back into a value.

    Accepts e.g. ``0``, ``1/2``, ``1 - e``, ``3*e^2 + 1``, ``-e``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty hyperreal literal")
    # normalize "a - b" / "a + b" into signed tokens
    s = s.replace("- ", "-").replace("+ ", "+")
    tokens = s.split()
    coeffs = {}
    for tok in tokens:
        m = _TERM_RE.match(tok)
        if not m or (m.group("coef") is None and m.group("unit") is None):
            raise ValueError("bad hyperreal term %r in %r" % (tok, text))
        sign = -1 if m.group("sign") == "-" else 1
        coef_s = m.group("coef")
        unit = m.group("unit")
        try:
            coef = sign * Fraction(coef_s or 1)
        except ZeroDivisionError:
            raise ValueError("zero denominator in hyperreal term %r in %r"
                             % (tok, text)) from None
        if unit is None:
            k = 0
        else:
            k = int(m.group("pow")) if m.group("pow") else 1
        coeffs[k] = coeffs.get(k, Fraction(0)) + coef
    top = max(coeffs) if coeffs else 0
    out = [coeffs.get(k, Fraction(0)) for k in range(top + 1)]
    return Hyperreal(out, degree_bound)


# -- predicates -------------------------------------------------------

def infinitely_greater(x, y):
    """True iff x > n*y for every natural n (both operands must be >= 0).

    Equivalent to the ratio test ``ratio_st_is_zero(y, x)`` whenever x > 0.
    """
    if x < 0 or y < 0:
        raise NegativeInput("infinitely_greater requires nonnegative operands")
    if x.is_zero():
        return False
    if y.is_zero():
        return True
    return x.leading_degree() < y.leading_degree()


def ratio_st_is_zero(numerator, denominator):
    """Whether st(numerator/denominator) = 0, decided without dividing.

    Requires denominator > 0 and numerator >= 0.  For positive operands the
    standard part of the quotient vanishes exactly when the numerator's
    leading degree is strictly larger.
    """
    if denominator.is_zero():
        raise ZeroDenominator("ratio against zero denominator")
    if denominator < 0:
        raise NegativeInput("denominator must be positive")
    if numerator < 0:
        raise NegativeInput("numerator must be nonnegative")
    if numerator.is_zero():
        return True
    return numerator.leading_degree() > denominator.leading_degree()
