"""The generic Hecke algebra of S_n over Z[v, v^-1], the reference the
oracle's int-indexed KL basis and structure-constant table are tested
against.

`LaurentPoly` is an immutable Laurent polynomial and `HeckeElement` a
combination of the T_w over it.  `multiply` and `bar_involution` follow the
defining relations T_w T_w' = T_{ww'} when lengths add and
(T_s + v^-1)(T_s - v) = 0, and `kl_expand` expands an element in the KL
basis by triangular elimination against `kl_element`, which reads C_w off
`gkdim.hecke.kl_basis_element`.  Nothing here is fast, and nothing in
`gkdim` imports it.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from gkdim.hecke import kl_basis_element
from gkdim.permutations import Permutation


class LaurentPoly:
    """Immutable Laurent polynomial, stored as {exponent: coefficient}.

    Zero coefficients are never stored: the constructor drops them, and is
    the only place that does, so arithmetic only accumulates.  The zero
    polynomial has no terms and its ``degree`` is None.

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
    True
    >>> p.degree
    1
    >>> LaurentPoly({1: 3, 0: -1, -2: -1})
    3*v - 1 - v^-2
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
            out[e] = out.get(e, 0) + c
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
                out[e] = out.get(e, 0) + c1 * c2
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
_V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})


class HeckeElement:
    """A finite Z[v,v^-1]-linear combination of the T_w basis of S_n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Permutation, LaurentPoly] = ()):
        cleaned = {w: p for w, p in dict(terms).items() if p}
        if any(w.n != n for w in cleaned):
            raise ValueError("terms of mixed rank")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("HeckeElement is immutable")

    def __reduce__(self):
        return HeckeElement, (self.n, self.terms)

    @classmethod
    def t(cls, w: Permutation) -> "HeckeElement":
        return cls(w.n, {w: LaurentPoly.one()})

    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        return cls(n)

    def coeff(self, w: Permutation) -> LaurentPoly:
        return self.terms.get(w, LaurentPoly.zero())

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("size mismatch")
        out = dict(self.terms)
        for w, p in other.terms.items():
            out[w] = out.get(w, LaurentPoly.zero()) + p
        return HeckeElement(self.n, out)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.n, {w: -p for w, p in self.terms.items()})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def scale(self, c: LaurentPoly | int) -> "HeckeElement":
        return HeckeElement(self.n, {w: p * c for w, p in self.terms.items()})

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"HeckeElement(n={self.n}, 0)"
        parts = [
            f"({p})*T{w.one_line}"
            for w, p in sorted(
                self.terms.items(), key=lambda t: (t[0].length(), t[0].one_line)
            )
        ]
        return " + ".join(parts)


def _left_mul_gen(i: int, elt: HeckeElement) -> HeckeElement:
    """T_{s_i} * elt."""
    out: dict[Permutation, LaurentPoly] = {}

    def add(w, p):
        out[w] = out.get(w, LaurentPoly.zero()) + p

    for w, p in elt.terms.items():
        sw = w.s_times(i)
        add(sw, p)
        if sw.length() < w.length():
            add(w, p * _V_MINUS_VINV)
    return HeckeElement(elt.n, out)


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """The bilinear product determined by the defining relations."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    result = HeckeElement.zero(a.n)
    for x, px in a.terms.items():
        part = b
        for i in reversed(x.reduced_word()):
            part = _left_mul_gen(i, part)
        result = result + part.scale(px)
    return result


def bar_involution(a: HeckeElement) -> HeckeElement:
    """The ring involution with v -> v^-1 and T_w -> (T_{w^-1})^-1."""
    result = HeckeElement.zero(a.n)
    for w, p in a.terms.items():
        # (T_{w^-1})^-1 = T_{s_1}^-1 ... T_{s_k}^-1 along a reduced word of w,
        # and T_s^-1 = T_s + (v^-1 - v).
        part = HeckeElement.t(Permutation.identity(a.n))
        for i in reversed(w.reduced_word()):
            part = _left_mul_gen(i, part) - part.scale(_V_MINUS_VINV)
        result = result + part.scale(p.bar())
    return result


def kl_element(w: Permutation) -> HeckeElement:
    """C_w as a HeckeElement, from `kl_basis_element` at any rank."""
    cw = kl_basis_element(w, rank_bound=w.n)
    return HeckeElement(w.n, {y: LaurentPoly(p) for y, p in cw.items()})


def kl_expand(elt: HeckeElement) -> dict[Permutation, LaurentPoly]:
    """Coefficients of elt in the KL basis (triangular elimination).  Like
    kl_basis_element, it builds the whole KL basis of rank elt.n."""
    out: dict[Permutation, LaurentPoly] = {}
    rest = elt
    while rest.terms:
        w = max(rest.terms, key=lambda p: (p.length(), p.one_line))
        c = rest.terms[w]
        out[w] = c
        rest = rest - kl_element(w).scale(c)
    return out
