"""Hecke algebra of S_n over Z[v, v^-1] and the definitional a-function.

The algebra is generated by T_w with T_w T_w' = T_{ww'} when lengths add and
(T_s + v^-1)(T_s - v) = 0.  The Kazhdan-Lusztig basis element C_w is the
unique bar-invariant element congruent to T_w modulo sum of v^-1 Z[v^-1] T_y.
Writing C_x C_y = sum_z h_{x,y,z} C_z, the a-function is

    a(z) = max over x, y of deg h_{x,y,z}.

This module computes a(z) literally from that definition.  It exists as an
independent small-rank oracle for the tableau-based a-value, so nothing here
may depend on Robinson-Schensted theory.  Ranks are gated by a configurable
bound (default 5): the full structure-constant table is the hot path.  It is
built once per rank by sparse products against the right multiplications by
the generators C_s, one dict of nonzero {degree: coeff} entries per matrix
cell, and it needs nothing beyond the standard library.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import RankBoundError
from .laurent import LaurentPoly
from .permutations import Permutation

DEFAULT_RANK_BOUND = 5

_V = LaurentPoly({1: 1})
_VINV = LaurentPoly({-1: 1})
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
        if isinstance(c, int):
            c = LaurentPoly({0: c})
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


def _right_mul_gen(elt: HeckeElement, i: int) -> HeckeElement:
    """elt * T_{s_i}."""
    out: dict[Permutation, LaurentPoly] = {}

    def add(w, p):
        out[w] = out.get(w, LaurentPoly.zero()) + p

    for w, p in elt.terms.items():
        ws = w.times_s(i)
        add(ws, p)
        if ws.length() < w.length():
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


def _check_rank(n: int, rank_bound: int) -> None:
    if n > rank_bound:
        raise RankBoundError(
            f"oracle limited to rank {rank_bound}, got n={n}",
            n=n, rank_bound=rank_bound,
        )


@lru_cache(maxsize=None)
def _kl_element(w: Permutation) -> HeckeElement:
    n = w.n
    descents = w.right_descents()
    if not descents:
        return HeckeElement.t(w)
    i = descents[-1]
    shorter = _kl_element(w.times_s(i))
    # C_{w'} C_s in the T basis, with C_s = T_s + v^-1.
    d = _right_mul_gen(shorter, i) + shorter.scale(_VINV)
    # Strip constant terms at shorter elements, longest first, so the result
    # is congruent to T_w modulo strictly negative powers of v.
    for length in range(w.length() - 1, -1, -1):
        for y in [y for y in d.terms if y.length() == length]:
            c = d.terms[y][0]
            if c:
                d = d - _kl_element(y).scale(c)
    assert d.coeff(w) == LaurentPoly.one()
    assert all(p.only_negative_exponents() for y, p in d.terms.items() if y != w)
    return d


def kl_basis_element(
    w: Permutation, *, rank_bound: int = DEFAULT_RANK_BOUND
) -> HeckeElement:
    """The Kazhdan-Lusztig basis element C_w (bar-invariant, and congruent
    to T_w modulo strictly negative v-powers)."""
    _check_rank(w.n, rank_bound)
    return _kl_element(w)


def kl_expand(elt: HeckeElement) -> dict[Permutation, LaurentPoly]:
    """Coefficients of elt in the KL basis (triangular elimination)."""
    out: dict[Permutation, LaurentPoly] = {}
    rest = elt
    while rest.terms:
        w = max(rest.terms, key=lambda p: (p.length(), p.one_line))
        c = rest.terms[w]
        out[w] = c
        rest = rest - _kl_element(w).scale(c)
    return out


# --- bulk structure-constant degrees -------------------------------------
#
# Writing R_y for the matrix [h_{x,y,z}]_{x,z}, the expansions
#   C_x C_s   = (v + v^-1) C_x                      if xs < x
#   C_x C_s   = C_{xs} + sum_{zs<z} mu(z,x) C_z     if xs > x
# give R_{y's} = R_{y'} R_s - sum_{zs<z} mu(z,y') R_z, so the whole table
# follows from products against the sparse R_s.  Elements are indexed by
# their position in the length order, and a matrix is stored sparsely as one
# row per x: a dict {z: {degree: coeff}} holding only the nonzero entries.

_Row = dict[int, dict[int, int]]


def _polymat_mul(
    a: list[_Row], b: list[_Row], minus: Sequence[tuple[list[_Row], int]] = ()
) -> list[_Row]:
    """a*b - sum of m*c over (c, m) in minus, for sparse matrices of Laurent
    polynomials: row x of a*b is sum over k of a[x][k] * b[k]."""
    out = []
    for x, row in enumerate(a):
        acc: _Row = {}
        for k, p in row.items():
            for z, q in b[k].items():
                cell = acc.get(z)
                if cell is None:
                    cell = acc[z] = {}
                for d1, c1 in p.items():
                    for d2, c2 in q.items():
                        d = d1 + d2
                        cell[d] = cell.get(d, 0) + c1 * c2
        for c, m in minus:
            for z, poly in c[x].items():
                cell = acc.setdefault(z, {})
                for d, coeff in poly.items():
                    cell[d] = cell.get(d, 0) - m * coeff
        nonzero: _Row = {}
        for z, poly in acc.items():
            poly = {d: coeff for d, coeff in poly.items() if coeff}
            if poly:
                nonzero[z] = poly
        out.append(nonzero)
    return out


def _all_perms_by_length(n: int) -> list[Permutation]:
    from itertools import permutations as iperm

    perms = [Permutation(p) for p in iperm(range(1, n + 1))]
    perms.sort(key=lambda p: (p.length(), p.one_line))
    return perms


_table_lock = threading.Lock()


@lru_cache(maxsize=None)
def _a_table(n: int) -> dict[tuple[int, ...], int]:
    with _table_lock:
        return _build_a_table(n)


def _build_a_table(n: int) -> dict[tuple[int, ...], int]:
    perms = _all_perms_by_length(n)
    index = {w: k for k, w in enumerate(perms)}
    size = len(perms)
    descents = [set(w.right_descents()) for w in perms]

    # mu pairs, grouped by the longer element
    mu: list[list[tuple[int, int]]] = []
    for w in perms:
        cw = _kl_element(w)
        mu.append(
            [(index[y], p[-1]) for y, p in cw.terms.items() if y != w and p[-1]]
        )

    # right multiplication by C_s, one sparse matrix per generator
    r_s: list[list[_Row]] = []
    for i in range(1, n):
        rows: list[_Row] = []
        for xi, x in enumerate(perms):
            if i in descents[xi]:
                rows.append({xi: {-1: 1, 1: 1}})
            else:
                row: _Row = {index[x.times_s(i)]: {0: 1}}
                for z, m in mu[xi]:
                    if i in descents[z]:
                        row[z] = {0: m}
                rows.append(row)
        r_s.append(rows)

    r: list[list[_Row] | None] = [None] * size
    r[0] = [{x: {0: 1}} for x in range(size)]
    for k, w in enumerate(perms):
        if r[k] is not None:
            continue
        i = max(descents[k])
        shorter = index[w.times_s(i)]
        minus = [(r[z], m) for z, m in mu[shorter] if i in descents[z]]
        r[k] = _polymat_mul(r[shorter], r_s[i - 1], minus)

    best = [-1] * size
    for mat in r:
        for row in mat:
            for z, poly in row.items():
                d = max(poly)
                if d > best[z]:
                    best[z] = d
    return {w.one_line: best[index[w]] for w in perms}


def a_function_definitional(
    z: Permutation, *, rank_bound: int = DEFAULT_RANK_BOUND
) -> int:
    """max deg h_{x,y,z} over all x, y, straight from the KL basis."""
    _check_rank(z.n, rank_bound)
    return _a_table(z.n)[z.one_line]
