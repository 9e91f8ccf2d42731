"""Hecke algebra of S_n over Z[v, v^-1] and the definitional a-function.

The algebra is generated by T_w with T_w T_w' = T_{ww'} when lengths add and
(T_s + v^-1)(T_s - v) = 0.  The Kazhdan-Lusztig basis element C_w is the
unique bar-invariant element congruent to T_w modulo sum of v^-1 Z[v^-1] T_y.
Writing C_x C_y = sum_z h_{x,y,z} C_z, the a-function is

    a(z) = max over x, y of deg h_{x,y,z}.

This module computes a(z) literally from that definition.  It exists as an
independent small-rank oracle for the tableau-based a-value, so nothing here
may depend on Robinson-Schensted theory.  Ranks are gated by a configurable
bound (default 5).

The KL basis is built once per rank, with S_n indexed by position in the
length order: C_w = C_{w'} C_s - (constant terms at shorter y, stripped
longest first) along the last right descent s of w, each C_w a dict
{y: {degree: coeff}} of its nonzero T_y coefficients.  HeckeElements are
made from it only on request.  The structure-constant table is the hot
path.  It is built by sparse products against the right multiplications by
the generators C_s, one dict of nonzero {degree: coeff} entries per matrix
cell.  Each R_y = [h_{x,y,z}]_{x,z} is folded into the per-column maximum
degree as soon as it is built and dropped after the last product that reads
it.  Nothing here needs more than the standard library.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import permutations
from typing import Mapping, NamedTuple, Sequence

from .errors import RankBoundError
from .laurent import LaurentPoly
from .permutations import Permutation

DEFAULT_RANK_BOUND = 5

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


# --- the KL basis, int-indexed --------------------------------------------
#
# Elements of S_n are indexed by their position in the length order, ties
# broken by one-line notation.  An element of the algebra is a dict
# {y: {degree: coeff}} holding the nonzero coefficients of the T_y; the same
# shape serves as one sparse row {z: {degree: coeff}} of a matrix below.

_Row = dict[int, dict[int, int]]


class _KLBasis(NamedTuple):
    perms: tuple[Permutation, ...]  # in the length order
    index: dict[tuple[int, ...], int]  # one-line notation -> position
    rmul: tuple[tuple[int, ...], ...]  # rmul[k][i]: position of w_k s_{i+1}
    basis: tuple[_Row, ...]  # basis[k]: C_{w_k} in the T basis


def _add_shifted(acc: _Row, y: int, poly: dict[int, int], c: int, shift: int) -> None:
    """acc[y] += c * v^shift * poly."""
    cell = acc.setdefault(y, {})
    for d, coeff in poly.items():
        e = d + shift
        cell[e] = cell.get(e, 0) + c * coeff


def _last_descent(rmul: Sequence[Sequence[int]], k: int) -> int:
    """The last right descent i of w_k (w_k s_{i+1} is shorter), 0-based.
    Positions follow the length order, so w s is shorter iff it comes first."""
    return max(i for i, ws in enumerate(rmul[k]) if ws < k)


@lru_cache(maxsize=None)
def _kl_basis(n: int) -> _KLBasis:
    # permutations() is lexicographic and sorted() is stable, so this is the
    # length order with ties broken by one-line notation.
    perms = tuple(sorted(map(Permutation, permutations(range(1, n + 1))),
                         key=Permutation.length))
    index = {w.one_line: k for k, w in enumerate(perms)}
    rmul = tuple(
        tuple(index[w.times_s(i).one_line] for i in range(1, n)) for w in perms
    )
    basis: list[_Row] = [{0: {0: 1}}]
    for k in range(1, len(perms)):
        i = _last_descent(rmul, k)
        # C_{w'} C_s in the T basis, with w' = w s and C_s = T_s + v^-1.
        d: _Row = {}
        for y, p in basis[rmul[k][i]].items():
            ys = rmul[y][i]
            _add_shifted(d, ys, p, 1, 0)
            if ys < y:
                # T_y T_s = T_{ys} + (v - v^-1) T_y when ys is shorter
                _add_shifted(d, y, p, 1, 1)
                _add_shifted(d, y, p, -1, -1)
            _add_shifted(d, y, p, 1, -1)
        # Strip constant terms at shorter elements, longest first, so the
        # result is congruent to T_w modulo strictly negative powers of v.
        # Subtracting c C_y touches only y and shorter elements, which come
        # later; since C_y - T_y lies in v^-1 Z[v^-1], it changes no other
        # constant term, so the order does not change the result.
        for y in range(k - 1, -1, -1):
            c = d.get(y, {}).get(0)
            if c:
                for z, q in basis[y].items():
                    _add_shifted(d, z, q, -c, 0)
        cw: _Row = {}
        for y, p in d.items():
            p = {e: coeff for e, coeff in p.items() if coeff}
            if p:
                cw[y] = p
        _check_kl_element(perms, k, cw)
        basis.append(cw)
    return _KLBasis(perms, index, rmul, tuple(basis))


def _check_kl_element(perms: Sequence[Permutation], k: int, cw: _Row) -> None:
    w = perms[k].one_line
    if cw.get(k) != {0: 1}:
        raise RuntimeError(
            f"C_w for w={w}: coefficient of T_w is {LaurentPoly(cw.get(k, {}))}, not 1"
        )
    for y, p in cw.items():
        if y != k and max(p) >= 0:
            raise RuntimeError(
                f"C_w for w={w}: coefficient {LaurentPoly(p)} of "
                f"T_y for y={perms[y].one_line} has a non-negative exponent"
            )


@lru_cache(maxsize=None)
def _kl_element(w: Permutation) -> HeckeElement:
    kl = _kl_basis(w.n)
    cw = kl.basis[kl.index[w.one_line]]
    return HeckeElement(w.n, {kl.perms[y]: LaurentPoly(p) for y, p in cw.items()})


def kl_basis_element(
    w: Permutation, *, rank_bound: int = DEFAULT_RANK_BOUND
) -> HeckeElement:
    """The Kazhdan-Lusztig basis element C_w (bar-invariant, and congruent
    to T_w modulo strictly negative v-powers).

    The first lookup at rank n builds all n! basis elements of S_n: about
    0.02 s at rank 5 and 0.45 s at rank 6.  Raising rank_bound past 6
    makes that first lookup build all 5040 (rank 7) or more."""
    _check_rank(w.n, rank_bound)
    return _kl_element(w)


def kl_expand(elt: HeckeElement) -> dict[Permutation, LaurentPoly]:
    """Coefficients of elt in the KL basis (triangular elimination).  Like
    kl_basis_element, it builds the whole KL basis of rank elt.n."""
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
# follows from products against the sparse R_s.  A matrix is stored sparsely
# as one row per x, indexed as in the KL basis: a dict {z: {degree: coeff}}
# holding only the nonzero entries.


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


_table_lock = threading.Lock()


@lru_cache(maxsize=None)
def _a_table(n: int) -> dict[tuple[int, ...], int]:
    with _table_lock:
        return _build_a_table(n)


def _build_a_table(n: int) -> dict[tuple[int, ...], int]:
    kl = _kl_basis(n)
    rmul = kl.rmul
    size = len(kl.perms)

    # mu pairs (z, mu(z, w)): the v^-1 coefficients of C_w, grouped by w
    mu = [
        [(z, p[-1]) for z, p in cw.items() if z != k and p.get(-1)]
        for k, cw in enumerate(kl.basis)
    ]

    # right multiplication by C_s, one sparse matrix per generator
    r_s: list[list[_Row]] = []
    for i in range(n - 1):
        rows: list[_Row] = []
        for x in range(size):
            xs = rmul[x][i]
            if xs < x:
                rows.append({x: {-1: 1, 1: 1}})
            else:
                row: _Row = {xs: {0: 1}}
                for z, m in mu[x]:
                    if rmul[z][i] < z:
                        row[z] = {0: m}
                rows.append(row)
        r_s.append(rows)

    # Each R_{w_k} is built from R_{w_k s} and its mu-partners along the last
    # right descent s.  Record the last step that reads each R_y, so that it
    # can be dropped right after; only the largest degree per column is kept.
    steps = []
    last_read: dict[int, int] = {}
    for k in range(1, size):
        i = _last_descent(rmul, k)
        shorter = rmul[k][i]
        minus = [(z, m) for z, m in mu[shorter] if rmul[z][i] < z]
        steps.append((k, i, shorter, minus))
        last_read[shorter] = k
        for z, _ in minus:
            last_read[z] = k

    best = [-1] * size

    def fold(mat: list[_Row]) -> None:
        for row in mat:
            for z, poly in row.items():
                d = max(poly)
                if d > best[z]:
                    best[z] = d

    r: list[list[_Row] | None] = [None] * size
    r[0] = [{x: {0: 1}} for x in range(size)]
    fold(r[0])
    for k, i, shorter, minus in steps:
        mat = _polymat_mul(r[shorter], r_s[i], [(r[z], m) for z, m in minus])
        fold(mat)
        if k in last_read:
            r[k] = mat
        for y in (shorter, *(z for z, _ in minus)):
            if last_read[y] == k:
                r[y] = None
    return {w.one_line: best[k] for k, w in enumerate(kl.perms)}


def a_function_definitional(
    z: Permutation, *, rank_bound: int = DEFAULT_RANK_BOUND
) -> int:
    """max deg h_{x,y,z} over all x, y, straight from the KL basis."""
    _check_rank(z.n, rank_bound)
    return _a_table(z.n)[z.one_line]
