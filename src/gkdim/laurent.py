"""Laurent polynomials in one variable v with integer coefficients."""

from __future__ import annotations

from typing import Iterator, Mapping


class LaurentPoly:
    """Immutable Laurent polynomial, stored as {exponent: coefficient}.

    Zero coefficients are never stored; the zero polynomial has no terms and
    its ``degree`` is None.

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
    True
    >>> p.degree
    1
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] = ()):
        cleaned = {int(e): int(c) for e, c in dict(coeffs).items() if c != 0}
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self.coeffs,)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def v(cls, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int | None:
        """Largest exponent with nonzero coefficient; None for zero."""
        return max(self.coeffs) if self.coeffs else None

    def __getitem__(self, exp: int) -> int:
        return self.coeffs.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self.coeffs.items())

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(out)

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def only_negative_exponents(self) -> bool:
        """True iff the polynomial lies in v^-1 Z[v^-1]."""
        return all(e < 0 for e in self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            else:
                mag = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    parts.append(mag)
                elif c == -1:
                    parts.append(f"-{mag}")
                else:
                    parts.append(f"{c}*{mag}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})
