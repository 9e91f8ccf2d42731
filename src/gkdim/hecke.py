"""The Kazhdan-Lusztig basis of the Hecke algebra of S_n over Z[v, v^-1],
and the definitional a-function.

The algebra is generated by T_w with T_w T_w' = T_{ww'} when lengths add and
(T_s + v^-1)(T_s - v) = 0.  The Kazhdan-Lusztig basis element C_w is the
unique bar-invariant element congruent to T_w modulo sum of v^-1 Z[v^-1] T_y.
Writing C_x C_y = sum_z h_{x,y,z} C_z, the a-function is

    a(z) = max over x, y of deg h_{x,y,z}.

This module computes a(z) literally from that definition.  It exists as an
independent small-rank oracle for the tableau-based a-value, so nothing here
may depend on Robinson-Schensted theory.  Ranks are gated by a configurable
bound (default 5).

The KL basis is built once per rank, with S_n as one-line tuples indexed
by position in the length order: C_w = C_{w'} C_s - (constant terms at
shorter y) along the last right descent s of w, each C_w a dict
{y: {degree: coeff}} of its nonzero T_y coefficients.  Two symmetries save
most of that work and about 70% of the table's.  The diagram automorphism
T_w -> T_{w*}, w* = w0 w w0, is a ring automorphism and T_w -> T_{w^-1} a
ring anti-automorphism; both commute with the bar involution, so they map
C_w to C_{w*} and to C_{w^-1} (Kazhdan-Lusztig, "Representations of
Coxeter groups and Hecke algebras", 1979).  So when w*, w^-1 or (w^-1)*
comes earlier in the length order, C_w is that element with its T_y
relabelled.  With each C_w the
basis records the last right descent and the values mu(z, w), the v^-1
coefficients of C_w.  kl_basis_element hands out one C_w as a
{Permutation: {degree: coeff}} mapping, the only place this module makes
Permutation objects.  The generic algebra (T_w products, the bar
involution, expansion in the KL basis) is not here: the tests keep it, as
the reference this basis and table are checked against.  The
structure-constant table is the hot path, and it replays that record.
Each R_y = [h_{x,y,z}]_{x,z} is built along the descent recorded for y, by
right-multiplying a shorter R_{y'} by a generator C_s in place, row by
row, from the KL basis's table of w s and its mu values; no matrix of
C_s is formed and no general matrix product runs.  Row x of every R_y
depends only on row x of shorter ones.  The two symmetries give
h_{x*,y*,z*} = h_{x,y,z} and h_{y^-1,x^-1,z^-1} = h_{x,y,z}, so R_y is
built only in the rows x that come no later than x* and have l(x) >= l(y),
about 30% of all pairs at ranks 5 and 6, and columns z*, z^-1 and (z^-1)*
stand in for the pairs left out of column z.  Each matrix cell is one int,
its Laurent polynomial p packed as p(2^B) 2^(B D), with D = l(w0) and B
bounded from the KL basis by positivity, so the largest degree is read off
the bit length, which is folded into the per-column maximum as each row is
built.  Each R_y is dropped after the last step that reads it.  Nothing
here needs more than the standard library.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import lru_cache, wraps
from itertools import permutations
from typing import Iterator, NamedTuple, Sequence

from .errors import InvariantError, RankBoundError, _integers
from .permutations import Permutation, _inverse, _inversions

DEFAULT_RANK_BOUND = 5


def _check_rank(n: int, rank_bound: int) -> None:
    (rank_bound,) = _integers((rank_bound,), "rank_bound must be an integer")
    if n > rank_bound:
        raise RankBoundError(
            f"oracle limited to rank {rank_bound}, got n={n}",
            n=n, rank_bound=rank_bound,
        )


# --- the KL basis, int-indexed --------------------------------------------
#
# Elements of S_n are one-line tuples, indexed by their position in the
# length order, ties broken by one-line notation; Permutation objects are
# made only by kl_basis_element.  An element of the algebra is a dict
# {y: {degree: coeff}} holding the nonzero coefficients of the T_y.

_Row = dict[int, dict[int, int]]


class _KLBasis(NamedTuple):
    perms: tuple[tuple[int, ...], ...]  # one-line tuples, in the length order
    index: dict[tuple[int, ...], int]  # one-line notation -> position
    rmul: tuple[tuple[int, ...], ...]  # rmul[k][i]: position of w_k s_{i+1}
    star: tuple[int, ...]  # star[k]: position of w0 w_k w0
    inverse: tuple[int, ...]  # inverse[k]: position of w_k^-1
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
    perms = tuple(sorted(permutations(range(1, n + 1)), key=_inversions))
    index = {w: k for k, w in enumerate(perms)}
    # w s_{i+1} swaps the entries at positions i+1 and i+2.
    rmul = tuple(
        tuple(index[w[:i] + (w[i + 1], w[i]) + w[i + 2:]] for i in range(n - 1))
        for w in perms
    )
    # w0 w w0 sends i to n+1 - w(n+1-i).
    star = tuple(index[tuple(n + 1 - v for v in reversed(w))] for w in perms)
    inverse = tuple(index[_inverse(w)] for w in perms)
    star_inverse = tuple(star[y] for y in inverse)
    basis: list[_Row] = [{0: {0: 1}}]
    descent = [-1]
    mu: list[tuple[tuple[int, int], ...]] = [()]
    for k in range(1, len(perms)):
        # The last right descent i: w_k s_{i+1} is shorter, so in the length
        # order it comes first.
        i = max(j for j, ws in enumerate(rmul[k]) if ws < k)
        # C_w is C_{w*}, C_{w^-1} or C_{(w^-1)*} with each T_y relabelled
        # T_{y*}, T_{y^-1} or T_{(y^-1)*}.  All three have the length of w,
        # so the first of them in the length order may be built already.
        twin = min(star[k], inverse[k], star_inverse[k])
        if twin < k:
            relabel = (star if twin == star[k]
                       else inverse if twin == inverse[k] else star_inverse)
            cw: _Row = {relabel[y]: p for y, p in basis[twin].items()}
        else:
            # C_{w'} C_s in the T basis, with w' = w s and C_s = T_s + v^-1.
            d: _Row = {}
            for y, p in basis[rmul[k][i]].items():
                ys = rmul[y][i]
                # T_y C_s = T_{ys} + v T_y if ys is shorter, else
                # T_{ys} + v^-1 T_y
                _add_shifted(d, ys, p, 1, 0)
                _add_shifted(d, y, p, 1, 1 if ys < y else -1)
            # Strip the constant terms at shorter elements, so the result is
            # congruent to T_w modulo strictly negative powers of v.  Since
            # C_y - T_y lies in v^-1 Z[v^-1], subtracting c C_y clears the
            # constant term at y and changes no other, so the terms to strip
            # are read off the product once, before any subtraction.
            for y, c in [(y, p[0]) for y, p in d.items() if y < k and p.get(0)]:
                for z, q in basis[y].items():
                    _add_shifted(d, z, q, -c, 0)
            cw = {}
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
    return _KLBasis(perms, index, rmul, star, inverse, tuple(basis),
                    tuple(descent), tuple(mu))


def _poly_text(p: dict[int, int]) -> str:
    """A Laurent polynomial {degree: coeff} as text, highest degree first:
    "0", "3*v - 1 - v^-2".  Zero coefficients are left out."""
    parts = []
    for e in sorted((e for e, c in p.items() if c), reverse=True):
        c = p[e]
        if e == 0:
            parts.append(f"{c}")
        else:
            mag = "v" if e == 1 else f"v^{e}"
            parts.append(mag if c == 1 else f"-{mag}" if c == -1 else f"{c}*{mag}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _check_kl_element(perms: Sequence[tuple[int, ...]], k: int, cw: _Row) -> None:
    w = perms[k]
    if cw.get(k) != {0: 1}:
        coefficient = _poly_text(cw.get(k, {}))
        raise InvariantError(
            f"C_w for w={w}: coefficient of T_w is {coefficient}, not 1",
            w=list(w), coefficient=coefficient, expected="1",
        )
    for y, p in cw.items():
        if y != k and max(p) >= 0:
            coefficient = _poly_text(p)
            raise InvariantError(
                f"C_w for w={w}: coefficient {coefficient} of "
                f"T_y for y={perms[y]} has a non-negative exponent",
                w=list(w), y=list(perms[y]),
                coefficient=coefficient, max_exponent=max(p),
            )


def kl_basis_element(
    w: Permutation, *, rank_bound: int = DEFAULT_RANK_BOUND
) -> dict[Permutation, dict[int, int]]:
    """The Kazhdan-Lusztig basis element C_w (bar-invariant, and congruent
    to T_w modulo strictly negative v-powers), as {y: {degree: coeff}}: the
    nonzero coefficient of each T_y, with its zero coefficients left out.
    The mapping is the caller's own copy.

    The first lookup at rank n builds all n! basis elements of S_n, about
    a third of them by a product (44 of 120 at rank 5, 229 of 720 at rank
    6) and the rest by relabelling one built before.  Raising rank_bound
    past 6 makes that first lookup build all 5040 (rank 7) or more."""
    _check_rank(w.n, rank_bound)
    kl = _kl_basis(w.n)
    perms = kl.perms
    return {Permutation(perms[y]): dict(p)
            for y, p in kl.basis[kl.index[w.one_line]].items()}


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
# stored sparsely as one row per x: a dict {z: cell}, indexed as in the KL
# basis, holding only the nonzero entries.
#
# Row x of R_{y's} reads only row x of R_{y'} and of each R_z, so any set of
# rows can be built alone.  The table keeps only the rows x with x <= x*,
# in the KL basis's order, where x* = w0 x w0: one row per orbit of x -> x*,
# 1, 2, 4, 16, 64 and 384 rows at ranks 1-6 against n!.  Of those, R_y is
# built only in the rows with l(x) >= l(y): a suffix of the kept rows, since
# they are in the length order.  The pairs left out follow from the built
# ones by two symmetries (Kazhdan-Lusztig 1979), both commuting with the bar
# involution:
# - T_w -> T_{w*} is a ring automorphism mapping C_w to C_{w*}, so
#   h_{x*,y*,z*} = h_{x,y,z}.  It turns a row x > x* into the kept row x*.
# - T_w -> T_{w^-1} is a ring anti-automorphism mapping C_w to C_{w^-1};
#   applied to C_x C_y = sum_z h_{x,y,z} C_z it gives
#   h_{y^-1,x^-1,z^-1} = h_{x,y,z}.  It turns a pair with l(y) > l(x) into
#   one with l(y) < l(x), since inversion keeps lengths.
# So every pair (x, y) is a built pair or the image of one under x -> x*,
# (x, y) -> (y^-1, x^-1) or both, and h_{x,y,z} is a built h at z, z*, z^-1
# or (z^-1)*.  Conversely each built h in those columns is an h_{x',y',z}.
# So the largest degree in column z over all pairs is the largest over the
# built pairs in columns z, z*, z^-1 and (z^-1)*.
#
# A cell packs the Laurent polynomial p into one int, P = p(2^B) 2^(B D), so
# the recursion needs only integer operations: P + Q, m * P, and
# (P << B) + (P >> B) for (v + v^-1) p.  Both widths come from proofs:
# - D = l(w0).  Each step shifts degrees by at most one and subtracts only
#   shorter R_z, so the degrees of R_y lie within +-l(y).  Only R_y with
#   y != w0 are multiplied by v^-1; their degrees are at least 1 - D, so
#   their P are multiples of 2^B and P >> B is exact.
# - B = (c c).bit_length() + 2 (see _cell_width).  Setting v = 1 and
#   T_w -> 1 is a ring map, so c_x c_y = sum_z h_{x,y,z}(1) c_z, where c_w
#   is the sum of the T-coefficients of C_w.  In type A the coefficients of
#   every C_w and every h_{x,y,z} are >= 0 (Kazhdan-Lusztig 1979; Lusztig,
#   "Cells in affine Weyl groups", 1985), and c_z >= 1, so every
#   coefficient of h_{x,y,z} is at most h_{x,y,z}(1) <= c_x c_y <= c^2,
#   with c the largest c_w: 12 bits at rank 4, 17 at rank 5, 24 at rank 6.
#   While every |coeff| < 2^(B-2), p = 0 iff P == 0, and a nonzero P with
#   largest degree t has a bit length (of |P|) in [B (t + D), B (t + D) +
#   B - 2], so t = P.bit_length() // B - D.


def _cell_width(kl: _KLBasis) -> int:
    c = max(sum(sum(p.values()) for p in cw.values()) for cw in kl.basis)
    return (c * c).bit_length() + 2


def _structure_matrices(
    kl: _KLBasis, b: int, best: list[int]
) -> Iterator[tuple[int, list[dict[int, int]]]]:
    """Yield (k, R_{w_k}) with cells packed at width b, in the order they
    are built, and raise best[z] to the bit length of each cell built in
    column z.  Each R_{w_k} holds the rows x with x <= kl.star[x] and
    l(x) >= l(w_k), in increasing order.  Each R_y is dropped after the
    last step that reads it."""
    rmul = kl.rmul
    mu = kl.mu
    size = len(rmul)
    # (k, i, shorter, minus): R_{w_k} from R_shorter, shorter = w_k s_{i+1},
    # less m * R_z for (z, m) in minus; last_read[y] is the last step k that
    # reads R_y, so that it can be dropped right after.
    steps = []
    last_read: dict[int, int] = {}
    length = [0] * size
    for k in range(1, size):
        i = kl.descent[k]
        shorter = rmul[k][i]
        length[k] = length[shorter] + 1
        minus = [(z, m) for z, m in mu[shorter] if rmul[z][i] < z]
        steps.append((k, i, shorter, minus))
        last_read[shorter] = k
        for z, _ in minus:
            last_read[z] = k
    kept = [x for x, xs in enumerate(kl.star) if x <= xs]
    # R_{w_k} holds the kept rows from first[k] on: the kept rows are in the
    # length order, so those with l(x) >= l(w_k) are a suffix.
    kept_length = [length[x] for x in kept]
    first = [bisect_left(kept_length, t) for t in length]
    # times_s[i][j]: position of w_j s_{i+1}
    times_s = [[w[i] for w in rmul] for i in range(len(rmul[0]))]
    r: list[list[dict[int, int]] | None] = [None] * size
    one = 1 << (b * length[-1])
    for x in kept:
        best[x] = one.bit_length()
    r[0] = [{x: one} for x in kept]
    yield 0, r[0]
    for k, i, shorter, minus in steps:
        ts = times_s[i]
        lo = first[k]
        # R_shorter and every R_z hold the rows of R_{w_k} and more, since
        # l(z) < l(shorter) < l(w_k).
        subtract = [(r[z][lo - first[z]:], m) for z, m in minus]
        mat = []
        for x, row in enumerate(r[shorter][lo - first[shorter]:]):
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
            built = {}
            for z, p in acc.items():
                if p:
                    built[z] = p
                    bits = p.bit_length()
                    if bits > best[z]:
                        best[z] = bits
            mat.append(built)
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
    b = _cell_width(kl)
    # A larger largest degree means a longer packed cell, so keeping the
    # longest bit length per column z keeps its largest degree.
    best = [0] * len(kl.perms)
    for _ in _structure_matrices(kl, b, best):
        pass
    # Columns z*, z^-1 and (z^-1)* of the built pairs stand in for column z
    # of the others.
    star, inverse = kl.star, kl.inverse
    best = [max(best[z], best[star[z]], best[y], best[star[y]])
            for z, y in enumerate(inverse)]
    d = n * (n - 1) // 2
    return {w: _top_degree(best[k], b, d) for k, w in enumerate(kl.perms)}


def a_function_definitional(
    z: Permutation, *, rank_bound: int = DEFAULT_RANK_BOUND
) -> int:
    """max deg h_{x,y,z} over all x, y, straight from the KL basis."""
    _check_rank(z.n, rank_bound)
    return _a_table(z.n)[z.one_line]
