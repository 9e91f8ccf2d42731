"""Weights of sl(n) in shifted coordinates, with exact rational entries.

A weight is stored as the coordinate vector of lambda+rho in the epsilon
basis.  Because the epsilon_i sum to zero, two coordinate vectors that
differ by a common additive constant describe the same weight; equality and
hashing go through a canonical representative whose last entry is 0.

No floating point is used anywhere: entries are ``fractions.Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import LengthMismatchError, ParseError

Rational = Fraction

# Groups: sign, integer part, fraction digits, numerator, denominator.
# ASCII: a bare \d also matches any Unicode digit, such as "١".
_TOKEN = re.compile(r"([+-]?)(?:(\d+)(?:\.(\d+))?|(\d+)/(\d+))", re.ASCII)


def parse_rational(token: str) -> Fraction:
    """Parse an integer, a fraction ``a/b`` or an exact decimal ``d.ddd``.

    The token is matched once and the ``Fraction`` built from its parts,
    converted as ``Fraction(token)`` converts them: a decimal is
    ``int(whole)·10^k + int(frac)`` over ``10^k``, so each part, not the
    whole token, is held to Python's digit limit.

    >>> parse_rational("3.5")
    Fraction(7, 2)
    >>> parse_rational("-11/10")
    Fraction(-11, 10)
    """
    token = token.strip()
    m = _TOKEN.fullmatch(token)
    if m is None:
        raise ParseError(f"not a rational token: {token!r}")
    sign, whole, frac, num, den = m.groups()
    try:
        if whole is None:
            n, d = int(num), int(den)
        elif frac is None:
            n, d = int(whole), 1
        else:
            d = 10 ** len(frac)
            n = int(whole) * d + int(frac)
    except ValueError:
        # Python refuses to convert integer strings past its digit limit.
        shown = token if len(token) <= 40 else f"{token[:20]}...{token[-8:]}"
        raise ParseError(
            f"number too long ({len(token)} characters): {shown!r}"
        ) from None
    if d == 0:
        raise ParseError(f"zero denominator: {token!r}")
    return Fraction(-n if sign == "-" else n, d)


def congruence_key(e: Fraction | int) -> tuple[int, int]:
    """The class of e modulo Z: two entries differ by an integer exactly
    when their keys are equal.

    A ``Fraction`` is kept in lowest terms, so e and e + k share a
    denominator and their numerators agree modulo it.

    >>> congruence_key(Fraction(-7, 2)) == congruence_key(Fraction(5, 2))
    True
    >>> congruence_key(Fraction(1, 3)) == congruence_key(Fraction(2, 3))
    False
    """
    return e.numerator % e.denominator, e.denominator


def parse_weight(text: str) -> "Weight":
    """Parse a comma-separated lambda+rho coordinate vector."""
    parts = text.split(",")
    if len(parts) == 1 and not parts[0].strip():
        raise ParseError("empty weight")
    return Weight(parse_rational(p) for p in parts)


class Weight:
    """Coordinates of lambda+rho, considered modulo a common constant shift."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Fraction | int]):
        entries = tuple(
            e if type(e) is Fraction else Fraction(e) for e in entries
        )
        if not entries:
            raise ValueError("a weight needs at least one entry")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"Weight({', '.join(str(e) for e in self.entries)})"

    def canonicalize(self) -> "Weight":
        """The shift-equivalent representative whose last entry is 0."""
        c = self.entries[-1]
        if c == 0:
            return self
        return Weight(e - c for e in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        if self.n != other.n:
            return False
        return self.canonicalize().entries == other.canonicalize().entries

    def __hash__(self) -> int:
        return hash(self.canonicalize().entries)

    def is_integral(self) -> bool:
        """True iff all pairwise entry differences are integers."""
        first = congruence_key(self.entries[0])
        return all(congruence_key(e) == first for e in self.entries)

    def is_antidominant(self) -> bool:
        """True iff integrally comparable entries weakly increase, that is,
        iff each congruence class is weakly increasing."""
        last: dict[tuple[int, int], Fraction] = {}
        for e in self.entries:
            k = congruence_key(e)
            if k in last and last[k] > e:
                return False
            last[k] = e
        return True

    def shift(self, c: Fraction | int) -> "Weight":
        return Weight(e + c for e in self.entries)

    def to_strings(self) -> list[str]:
        return [str(e) for e in self.entries]


class PQContext(NamedTuple("PQContext", [("p", int), ("q", int)])):
    """The signature (p, q) of su(p,q); pairs with weights of length p+q."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p < 1 or q < 1:
            raise ValueError("p and q must be positive")
        return tuple.__new__(cls, (p, q))

    @property
    def n(self) -> int:
        return self.p + self.q

    def check(self, w: Weight) -> None:
        if self.n != w.n:
            raise LengthMismatchError(
                f"weight has {w.n} entries but p+q={self.n}",
                weight_length=w.n, p=self.p, q=self.q,
            )


def pq_dominance_violation(w: Weight, ctx: PQContext) -> tuple[int, int] | None:
    """First pair (i, j), 1-based, violating (p,q)-dominance, or None.

    Dominance requires entries to strictly decrease with integer gaps within
    positions 1..p and within positions p+1..p+q; adjacent pairs suffice.
    """
    ctx.check(w)
    es = w.entries
    for lo, hi in ((0, ctx.p), (ctx.p, ctx.n)):
        key = congruence_key(es[lo])
        for i in range(lo, hi - 1):
            a, b = es[i], es[i + 1]
            # Equal keys mean equal denominators, so numerators order a, b.
            if not (congruence_key(b) == key and a.numerator > b.numerator):
                return (i + 1, i + 2)
    return None


def is_pq_dominant(w: Weight, ctx: PQContext) -> bool:
    return pq_dominance_violation(w, ctx) is None


def add_z_zeta(w: Weight, ctx: PQContext, z: Fraction | int) -> Weight:
    """Add z to the first p entries (z times the weight with p ones, q zeros)."""
    ctx.check(w)
    z = Fraction(z)
    return Weight(
        e + z if i < ctx.p else e for i, e in enumerate(w.entries)
    )
