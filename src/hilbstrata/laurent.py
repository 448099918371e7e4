"""Exact sparse Laurent polynomials in one variable t.

A polynomial is a map {exponent: coefficient} with integer (arbitrary
precision) coefficients and integer exponents of either sign.  Zero
coefficients are never stored, so two values are equal iff their term
maps are equal, and the zero polynomial is the empty map.  One loop,
add_shifted (self + c * t^k * other for any int c), combines two term
maps: +, -, *, exact division and the q-series factor steps run on it.

This is the universal value type of the package: E-polynomials, their
duals, Gaussian binomials and every strata/series coefficient are
LaurentPoly values.  No floating point anywhere.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class LaurentPoly:
    """Immutable sparse Laurent polynomial in t with int coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        data: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            if coeff:
                data[exp] = data.get(exp, 0) + coeff
                if not data[exp]:
                    del data[exp]
        self._terms = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return _raw({0: 1})

    @classmethod
    def const(cls, c: int) -> LaurentPoly:
        return _raw({0: c} if c else {})

    @classmethod
    def t_power(cls, exp: int, coeff: int = 1) -> LaurentPoly:
        """The monomial coeff * t^exp."""
        return _raw({exp: coeff} if coeff else {})

    # -- inspection ----------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms as (exponent, coefficient) pairs, exponent ascending."""
        return iter(sorted(self._terms.items()))

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def degree(self) -> int:
        """Top exponent; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def eval_at_one(self) -> int:
        """Sum of all coefficients (the Euler-characteristic specialization)."""
        return sum(self._terms.values())

    def is_unit_monomial(self) -> bool:
        """True iff the value is +-t^k for some k."""
        return len(self._terms) == 1 and abs(next(iter(self._terms.values()))) == 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        return self.add_shifted(_coerce(other), 0)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        return self.add_shifted(_coerce(other), 0, -1)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        """The sum of c * t^e * (longer operand) over the shorter one's terms."""
        other = _coerce(other)
        short, long = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        out = ZERO
        for e, c in short._terms.items():
            out = out.add_shifted(long, e, c)
        return out

    __rmul__ = __mul__

    def add_shifted(self, other: LaurentPoly, k: int, sign: int = 1) -> LaurentPoly:
        """self + sign * t^k * other, for any int sign: the package's one
        loop that combines two term maps.  +, -, * and exact_div run on it,
        and so do the q-series factor steps, where it builds one term map
        instead of three (the shift, the sign, the sum)."""
        if not other._terms or not sign:
            return self
        out = dict(self._terms)
        for e, c in other._terms.items():
            e += k
            s = out.get(e, 0) + sign * c
            if s:
                out[e] = s
            else:
                del out[e]
        return _raw(out)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by the monomial t^k."""
        if not k:
            return self
        return _raw({e + k: c for e, c in self._terms.items()})

    def invert_variable(self) -> LaurentPoly:
        """Substitute t -> 1/t (exponent negation)."""
        return _raw({-e: c for e, c in self._terms.items()})

    def exact_div(self, divisor: LaurentPoly) -> LaurentPoly:
        """Exact division; raises InexactDivisionError if a remainder is left.

        Works for Laurent divisors: both operands are shifted so the
        divisor becomes an ordinary polynomial, then long division runs
        from the top degree over the integers.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly()
        dtop = divisor.degree()
        dlead = divisor._terms[dtop]
        rem = self
        quo: dict[int, int] = {}
        # Quotient valuation is fixed by the two valuations; anything below
        # it in the remainder can never be cancelled, so stop early there.
        floor_exp = min(self._terms) - min(divisor._terms) + dtop
        while rem:
            top = rem.degree()
            lead = rem._terms[top]
            if top < floor_exp or lead % dlead:
                raise InexactDivisionError(f"{self} is not divisible by {divisor}")
            c = lead // dlead
            quo[top - dtop] = c
            rem = rem.add_shifted(divisor, top - dtop, -c)
        return _raw(quo)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if len(self._terms) <= 1 and set(self._terms) <= {0}:
            # constants compare equal to ints, so they must hash alike
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- rendering / parsing ---------------------------------------------

    def __str__(self) -> str:
        """Canonical string, descending degree: "t^4+2*t^3-t"."""
        return self._render(_CSV_TAILS)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def latex(self) -> str:
        """LaTeX-style cell, e.g. "t^4+2 t^3-t" with braces on long exponents."""
        return self._render(_LATEX_TAILS)

    def _render(self, tails: _Tails) -> str:
        """Descending degree, each term's sign from its int; one leading "+" dropped."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            tail, unit = tails[e]
            if c == 1:
                parts.append("+" + unit)
            elif c == -1:
                parts.append("-" + unit)
            elif c > 0:
                parts.append(f"+{c}{tail}")
            else:
                parts.append(f"{c}{tail}")
        text = "".join(parts)
        return text[1:] if text[0] == "+" else text

    @classmethod
    def from_string(cls, text: str) -> LaurentPoly:
        """Parse the canonical rendering (both "2*t^3" and "2 t^3" accepted);
        every term after the first needs its sign, so "1 2" and "t2" raise.
        Braces are read only around an exponent, as in "t^{10}"."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial string")
        terms = list(_TERM_RE.finditer(s))
        if "".join(m[0] for m in terms) != s or not all(m["sign"] for m in terms[1:]):
            raise ValueError(f"cannot parse polynomial string {text!r}")
        return cls((0 if m["const"] else int(m["exp"] or m["braced"] or 1),
                    int(m["sign"] + (m["coeff"] or m["const"] or "1"))) for m in terms)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """{"terms": [[exp, "coeff"], ...]} ascending, coefficients as strings."""
        return {"terms": [[e, str(c)] for e, c in self.items()]}

    @classmethod
    def from_json(cls, obj: dict) -> LaurentPoly:
        """Read to_json's terms: int exponents, and int or decimal-string
        coefficients; any other term raises ValueError."""
        terms = obj["terms"]
        if not all(isinstance(t, (list, tuple)) and len(t) == 2 and type(t[0]) is int
                   and (type(t[1]) is int or isinstance(t[1], str) and _DECIMAL_RE.fullmatch(t[1]))
                   for t in terms):
            raise ValueError(f"malformed JSON polynomial terms {terms!r}")
        return cls((e, int(c)) for e, c in terms)


def _raw(terms: dict[int, int]) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    return p


class _Tails(dict):
    """One rendering style's memo e -> (tail, unit), filled on demand: tail
    is mul + var ("" at e = 0) and unit is var ("1" at e = 0)."""

    def __init__(self, mul: str, brace: bool):
        super().__init__()
        self.mul, self.brace = mul, brace

    def __missing__(self, e: int) -> tuple[str, str]:
        if self.brace and (e >= 10 or e < 0):
            var = "t^{%d}" % e
        else:
            var = "t" if e == 1 else f"t^{e}"
        entry = self[e] = ("", "1") if e == 0 else (self.mul + var, var)
        return entry


# CSV style "2*t^3"; LaTeX style "2 t^3", braced when e >= 10 or e < 0
_CSV_TAILS = _Tails("*", brace=False)
_LATEX_TAILS = _Tails(" ", brace=True)


def _coerce(value: LaurentPoly | int) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to LaurentPoly")


# one term: a sign, then a coefficient ("2*" or "2 ") or none and t with a
# bare or braced exponent or none, or else a constant
_TERM_RE = re.compile(r"(?P<sign>[+-]?)(?:(?:(?P<coeff>\d+)[* ]?)?t"
                      r"(?:\^(?P<exp>-?\d+)|\^\{(?P<braced>-?\d+)\})?|(?P<const>\d+))",
                      re.ASCII)
# a JSON coefficient string, as to_json writes it
_DECIMAL_RE = re.compile(r"-?[0-9]+")


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


@lru_cache(maxsize=None)
def gauss_binomial(m: int, a: int) -> LaurentPoly:
    """Gaussian binomial coefficient [m, a] as an exact polynomial in t.

    It is 1 for a = 0, 0 for a > m, and otherwise entry a of row m of
    the q-Pascal triangle [m, a] = [m-1, a-1] + t^a [m-1, a], which
    equals prod_{i=0}^{a-1} (1 - t^{m-i}) / (1 - t^{i+1}).  This is the
    E-polynomial of the Grassmannian of a-planes in m-space.
    """
    if m < 0 or a < 0:
        raise ValueError("gauss_binomial needs nonnegative arguments")
    if a == 0:
        return ONE
    if a > m:
        return ZERO
    return _q_pascal_row(m)[a]


@lru_cache(maxsize=None)
def _q_pascal_row(m: int) -> tuple[LaurentPoly, ...]:
    """[m, 0], ..., [m, m] for m >= 1: the cached row m - 1 extended by one
    add_shifted per entry, no products and no division.  The rows below m
    are read bottom-up, so each is built once, from its cached
    predecessor, and no call recurses more than one row deep."""
    row = (ONE,)
    for i in range(1, m):
        row = _q_pascal_row(i)
    return (ONE, *(row[a - 1].add_shifted(row[a], a) for a in range(1, m)), ONE)
