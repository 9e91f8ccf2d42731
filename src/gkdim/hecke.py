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
{y: {degree: coeff}} of its nonzero T_y coefficients.  With each C_w the
basis records that descent and the values mu(z, w), the v^-1 coefficients
of C_w.  HeckeElements are made from it only on request.  The
structure-constant table is the hot path, and it replays that record.  Each
R_y = [h_{x,y,z}]_{x,z} is built along the descent recorded for y, by
right-multiplying a shorter R_{y'} by a generator C_s in place, row by row,
from the KL basis's w*s table and mu values; no matrix of C_s is formed and
no general matrix product runs.  Each matrix cell is one int, its Laurent
polynomial p packed as p(2^B) 2^(B D), with D = l(w0) and B derived from an
a-priori bound on the coefficients, so the largest degree is read off the
bit length.  Each R_y is folded into the per-column maximum degree as soon
as it is built and dropped after the last step that reads it.  Nothing here
needs more than the standard library.
"""

from __future__ import annotations

import threading
from functools import lru_cache, wraps
from itertools import permutations
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import InvariantError, RankBoundError
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
# {y: {degree: coeff}} holding the nonzero coefficients of the T_y.

_Row = dict[int, dict[int, int]]


class _KLBasis(NamedTuple):
    perms: tuple[Permutation, ...]  # in the length order
    index: dict[tuple[int, ...], int]  # one-line notation -> position
    rmul: tuple[tuple[int, ...], ...]  # rmul[k][i]: position of w_k s_{i+1}
    basis: tuple[_Row, ...]  # basis[k]: C_{w_k} in the T basis
    # descent[k]: the last right descent i of w_k (w_k s_{i+1} is shorter),
    # 0-based, along which C_{w_k} is built; -1 for the identity
    descent: tuple[int, ...]
    # mu[k]: the pairs (z, mu(z, w_k)), z < k, for the v^-1 terms of C_{w_k}
    mu: tuple[tuple[tuple[int, int], ...], ...]


def _add_shifted(acc: _Row, y: int, poly: dict[int, int], c: int, shift: int) -> None:
    """acc[y] += c * v^shift * poly."""
    cell = acc.setdefault(y, {})
    for d, coeff in poly.items():
        e = d + shift
        cell[e] = cell.get(e, 0) + c * coeff


def _once_per_rank(build):
    """Cache build(n) per rank.  The lock is taken outside the cache, so a
    caller that waits on another thread's first build then reads that one."""
    cached = lru_cache(maxsize=None)(build)
    lock = threading.Lock()

    @wraps(build)
    def get(n: int):
        with lock:
            return cached(n)

    get.cache_clear = cached.cache_clear
    return get


@_once_per_rank
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
    descent = [-1]
    mu: list[tuple[tuple[int, int], ...]] = [()]
    for k in range(1, len(perms)):
        # The last right descent i: w_k s_{i+1} is shorter, so in the length
        # order it comes first.
        i = max(j for j, ws in enumerate(rmul[k]) if ws < k)
        # C_{w'} C_s in the T basis, with w' = w s and C_s = T_s + v^-1.
        d: _Row = {}
        for y, p in basis[rmul[k][i]].items():
            ys = rmul[y][i]
            # T_y C_s = T_{ys} + v T_y if ys is shorter, else T_{ys} + v^-1 T_y
            _add_shifted(d, ys, p, 1, 0)
            _add_shifted(d, y, p, 1, 1 if ys < y else -1)
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
        descent.append(i)
        # The coefficient of T_w is 1, just checked, so every v^-1 term is a
        # mu(z, w) with z < k.
        mu.append(tuple((z, p[-1]) for z, p in cw.items() if -1 in p))
    return _KLBasis(perms, index, rmul, tuple(basis), tuple(descent), tuple(mu))


def _check_kl_element(perms: Sequence[Permutation], k: int, cw: _Row) -> None:
    w = perms[k].one_line
    if cw.get(k) != {0: 1}:
        coefficient = LaurentPoly(cw.get(k, {}))
        raise InvariantError(
            f"C_w for w={w}: coefficient of T_w is {coefficient}, not 1",
            w=list(w), coefficient=str(coefficient), expected="1",
        )
    for y, p in cw.items():
        if y != k and max(p) >= 0:
            raise InvariantError(
                f"C_w for w={w}: coefficient {LaurentPoly(p)} of "
                f"T_y for y={perms[y].one_line} has a non-negative exponent",
                w=list(w), y=list(perms[y].one_line),
                coefficient=str(LaurentPoly(p)), max_exponent=max(p),
            )


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
#   C_j C_s   = (v + v^-1) C_j                      if js < j
#   C_j C_s   = C_{js} + sum_{zs<z} mu(z,j) C_z     if js > j
# give R_{y's} = R_{y'} C_s - sum_{zs<z} mu(z,y') R_z.  Row x of R_{y'} C_s
# comes straight from those expansions: an entry p at column j adds
# (v + v^-1) p to column j if js < j, and otherwise p to column js and
# mu(z,j) p to each column z with zs < z.  The table replays the KL basis's
# record: R_y is built along the descent s that C_y was built along, and
# the mu values are the ones the basis read off each C_w.  A matrix is
# stored sparsely as one row per x, indexed as in the KL basis: a dict
# {z: cell} holding only the nonzero entries.
#
# A cell packs the Laurent polynomial p into one int, P = p(2^B) 2^(B D), so
# the recursion needs only integer operations: P + Q, m * P, and
# (P << B) + (P >> B) for (v + v^-1) p.  Both widths come from proofs:
# - D = l(w0).  Each step shifts degrees by at most one and subtracts only
#   shorter R_z, so the degrees of R_y lie within +-l(y).  Only R_y with
#   y != w0 are multiplied by v^-1; their degrees are at least 1 - D, so
#   their P are multiples of 2^B and P >> B is exact.
# - B = bound.bit_length() + 2, with bound an a-priori bound on |coeff| over
#   every cell (see _table_plan).  While every |coeff| < 2^(B-2), p = 0 iff
#   P == 0, and a nonzero P with largest degree t has a bit length (of |P|)
#   in [B (t + D), B (t + D) + B - 2], so t = P.bit_length() // B - D.


class _TablePlan(NamedTuple):
    # (k, i, shorter, minus): R_{w_k} from R_shorter, shorter = w_k s_{i+1},
    # less m * R_z for (z, m) in minus
    steps: list[tuple[int, int, int, list[tuple[int, int]]]]
    last_read: dict[int, int]  # y -> the last step k that reads R_y
    bound: int  # bounds |coeff| in every cell of every R_y
    d: int  # l(w0), the degree offset of a packed cell

    @property
    def b(self) -> int:
        return self.bound.bit_length() + 2


def _table_plan(kl: _KLBasis) -> _TablePlan:
    rmul = kl.rmul
    mu = kl.mu
    size = len(kl.perms)
    gens = range(len(rmul[0]))

    # Each R_{w_k} is built from R_{w_k s} and its mu-partners along the
    # descent s that C_{w_k} was built along.  Record the last step that
    # reads each R_y, so that it can be dropped right after.
    steps = []
    last_read: dict[int, int] = {}
    for k in range(1, size):
        i = kl.descent[k]
        shorter = rmul[k][i]
        minus = [(z, m) for z, m in mu[shorter] if rmul[z][i] < z]
        steps.append((k, i, shorter, minus))
        last_read[shorter] = k
        for z, _ in minus:
            last_read[z] = k

    # The column weights of right multiplication by C_s: column z (zs < z)
    # holds v + v^-1 from j = z, 1 from j = zs and mu(z,j) from each j with
    # js > j.  A coefficient of R_{y'} C_s is at most the largest column
    # weight times the largest |coeff| of R_{y'}.
    weight = [[3 if rmul[z][i] < z else 0 for z in range(size)] for i in gens]
    for j, cw in enumerate(mu):
        for i in gens:
            if rmul[j][i] > j:
                for z, m in cw:
                    if rmul[z][i] < z:
                        weight[i][z] += abs(m)
    col_weight = [max(w) for w in weight]
    largest = [1] * size
    for k, i, shorter, minus in steps:
        largest[k] = col_weight[i] * largest[shorter] + sum(
            abs(m) * largest[z] for z, m in minus
        )
    n = kl.perms[0].n
    return _TablePlan(steps, last_read, max(largest), n * (n - 1) // 2)


def _structure_matrices(
    kl: _KLBasis, plan: _TablePlan
) -> Iterator[tuple[int, list[dict[int, int]]]]:
    """Yield (k, R_{w_k}) with packed cells, in the order they are built.
    Each R_y is dropped after the last step that reads it."""
    rmul = kl.rmul
    mu = kl.mu
    last_read = plan.last_read
    b = plan.b
    # times_s[i][j]: position of w_j s_{i+1}
    times_s = [[w[i] for w in rmul] for i in range(len(rmul[0]))]
    r: list[list[dict[int, int]] | None] = [None] * len(rmul)
    one = 1 << (b * plan.d)
    r[0] = [{x: one} for x in range(len(rmul))]
    yield 0, r[0]
    for k, i, shorter, minus in plan.steps:
        ts = times_s[i]
        subtract = [(r[z], m) for z, m in minus]
        mat = []
        for x, row in enumerate(r[shorter]):
            acc: dict[int, int] = {}
            get = acc.get
            for j, p in row.items():
                js = ts[j]
                if js < j:
                    acc[j] = get(j, 0) + (p << b) + (p >> b)
                else:
                    acc[js] = get(js, 0) + p
                    for z, m in mu[j]:
                        if ts[z] < z:
                            acc[z] = get(z, 0) + m * p
            for c, m in subtract:
                for z, p in c[x].items():
                    acc[z] = get(z, 0) - m * p
            mat.append({z: p for z, p in acc.items() if p})
        if k in last_read:
            r[k] = mat
        for y in (shorter, *(z for z, _ in minus)):
            if last_read[y] == k:
                r[y] = None
        yield k, mat


def _top_degree(bits: int, b: int, d: int) -> int:
    """The largest degree of a nonzero packed cell P = p(2^b) 2^(b d) whose
    coefficients all have |coeff| < 2^(b-2), from bits = P.bit_length()."""
    return bits // b - d


@_once_per_rank
def _a_table(n: int) -> dict[tuple[int, ...], int]:
    kl = _kl_basis(n)
    plan = _table_plan(kl)
    # A larger largest degree means a longer packed cell, so keeping the
    # longest bit length per column z keeps its largest degree.
    best = [0] * len(kl.perms)
    for _, mat in _structure_matrices(kl, plan):
        for row in mat:
            for z, p in row.items():
                bits = p.bit_length()
                if bits > best[z]:
                    best[z] = bits
    return {
        w.one_line: _top_degree(best[k], plan.b, plan.d)
        for k, w in enumerate(kl.perms)
    }


def a_function_definitional(
    z: Permutation, *, rank_bound: int = DEFAULT_RANK_BOUND
) -> int:
    """max deg h_{x,y,z} over all x, y, straight from the KL basis."""
    _check_rank(z.n, rank_bound)
    return _a_table(z.n)[z.one_line]
