"""GK dimensions and associated varieties for su(p,q) highest weights.

A (p,q)-dominant weight has strictly decreasing integer-gap entries within
positions 1..p (black) and p+1..p+q (white).  In the integral case the
insertion tableau has at most two columns, GKdim = m(n-m) with m the second
column length, and m is computed four independent ways: straight insertion,
the two-at-a-time deletion recursion, the white/black ball signature (read
off one merge of the two decreasing halves) with its pair-removal count, and
the v-exponent in the xy=v rewriting algebra.  Integrality is tested by
comparing congruence keys (``weights.congruence_key``), never by subtracting.
In the non-integral case GKdim = pq.  Orbit data: dim of the k-th orbit
closure is k(n-k), and the orbit index is m, or min(p,q) when non-integral.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import (
    DomainError,
    InvariantError,
    NotIntegralError,
    NotPQDominantError,
    OutsideUnitaryIntervalError,
    ZRangeBoundError,
    _integers,
)
from .tableaux import insertion_tableau
from .weights import (
    PQContext,
    Weight,
    _Z_EXACT,
    _exact,
    add_z_zeta,
    congruence_key,
    pq_dominance_violation,
)


def _halves(w: Weight, ctx: PQContext) -> tuple[list[int], list[int]] | None:
    """w's black and white numerators, or None when w is not integral across
    the split; refuses a weight that is not (p,q)-dominant.  Dominance makes
    each half one congruence class, so the first black's and first white's
    keys decide integrality, and an integral weight's entries share one
    denominator, so its numerators order them, ties included."""
    bad = pq_dominance_violation(w, ctx)
    if bad is not None:
        raise NotPQDominantError(
            f"entries {bad[0]} and {bad[1]} violate (p,q)-dominance",
            i=bad[0], j=bad[1], p=ctx.p, q=ctx.q,
        )
    es = w.entries
    if congruence_key(es[0]) != congruence_key(es[ctx.p]):
        return None
    return [e.numerator for e in es[: ctx.p]], [e.numerator for e in es[ctx.p :]]


def _integral_halves(w: Weight, ctx: PQContext) -> tuple[list[int], list[int]]:
    """`_halves` for the entry points that need an integral weight."""
    halves = _halves(w, ctx)
    if halves is None:
        raise NotIntegralError(
            "weight is not integral across the (p,q) split",
            i=1, j=ctx.p + 1,
        )
    return halves


class BallSignature(NamedTuple("BallSignature", [("runs", tuple[int, ...])])):
    """Alternating white/black run lengths (a1, b1, ..., ar, br).

    Interior runs are positive; only the leading white run and trailing
    black run may vanish.
    """

    __slots__ = ()

    def __new__(cls, runs: Iterable[int]):
        rs = _integers(runs, "run lengths must be integers")
        if len(rs) < 2 or len(rs) % 2:
            raise ValueError("signature needs even length 2r with r >= 1")
        if min(rs) < 0:
            raise ValueError("run lengths must be nonnegative")
        if 0 in rs[1:-1]:
            raise ValueError("interior run lengths must be positive")
        return tuple.__new__(cls, (rs,))

    @property
    def white_runs(self) -> tuple[int, ...]:
        return self.runs[0::2]

    @property
    def black_runs(self) -> tuple[int, ...]:
        return self.runs[1::2]

    @property
    def white_total(self) -> int:
        return sum(self.white_runs)

    @property
    def black_total(self) -> int:
        return sum(self.black_runs)

    def balls(self) -> tuple[str, ...]:
        """The line of balls, 'w'/'b', left to right."""
        out: list[str] = []
        for k, run in enumerate(self.runs):
            out.extend(("w" if k % 2 == 0 else "b") * run)
        return tuple(out)

    def __repr__(self) -> str:
        return f"BallSignature{self.runs}"


def xi_signature(w: Weight, ctx: PQContext) -> BallSignature:
    """The run-length signature of an integral (p,q)-dominant weight.

    Both halves are strictly decreasing, so one merge sorts the entries
    decreasingly, with a white before a black it ties with; the runs of
    colors in that line are the signature.  Each step takes the longest
    stretch of whites at or above the next black, then the longest stretch
    of blacks above the next white.  The first white run and the last black
    run may be empty; every other run holds at least one ball.
    """
    return _merged_signature(*_integral_halves(w, ctx))


def _merged_signature(blacks: list[int], whites: list[int]) -> BallSignature:
    """The merge of `xi_signature`, from the numerators of an integral
    (p,q)-dominant weight's black and white entries."""
    p, q = len(blacks), len(whites)
    runs: list[int] = []
    i = j = 0
    while i < p or j < q:
        start = j
        while j < q and (i == p or whites[j] >= blacks[i]):
            j += 1
        runs.append(j - start)
        start = i
        while i < p and (j == q or blacks[i] > whites[j]):
            i += 1
        runs.append(i - start)
    return BallSignature(runs)


def ball_model_m(xi: BallSignature) -> int:
    """Removable adjacent white-black pairs, by the run recursion
    G_{k+1} = G_k + min(a_1+...+a_{k+1} - G_k, b_{k+1}), G_1 = min(a1, b1)."""
    a = xi.white_runs
    b = xi.black_runs
    g = min(a[0], b[0])
    total_a = a[0]
    for k in range(1, len(a)):
        total_a += a[k]
        g += min(total_a - g, b[k])
    return g


def second_column_by_deletion(w: Weight, ctx: PQContext) -> list[Fraction]:
    """Second-column entries of the insertion tableau, top to bottom,
    via the deletion recursion.

    While the joined sequence is not strictly decreasing, one black and at
    least one white entry are deleted; the emitted entry is the lowest
    surviving white bound (the k-th white when the last black fits below
    white k, the last white when even it is too big)."""
    _integral_halves(w, ctx)
    blacks = list(w.entries[: ctx.p])
    whites = list(w.entries[ctx.p :])
    column: list[Fraction] = []
    while blacks and whites and blacks[-1] <= whites[0]:
        if blacks[-1] <= whites[-1]:
            column.append(whites[-1])
            del whites[-1]
            del blacks[-1]
        else:
            k = sum(1 for x in whites if x >= blacks[-1])
            column.append(whites[k - 1])
            del whites[k - 1 :]
            del blacks[-1]
    return column


class AlgebraWord(
    NamedTuple("AlgebraWord", [("factors", tuple[tuple[str, int], ...])])
):
    """A word in the letters x, y with nonnegative exponents."""

    __slots__ = ()

    def __new__(cls, factors: Iterable[tuple[str, int]]):
        fs = [(str(l), e) for l, e in factors]
        exponents = _integers((e for _, e in fs), "exponents must be integers")
        fs = tuple(zip((l for l, _ in fs), exponents))
        if any(l not in ("x", "y") or e < 0 for l, e in fs):
            raise ValueError("factors must be ('x'|'y', exponent >= 0)")
        return tuple.__new__(cls, (fs,))

    @classmethod
    def from_signature(cls, xi: BallSignature) -> "AlgebraWord":
        """x^{a1} y^{b1} ... x^{ar} y^{br}: white balls as x, black as y."""
        letters = ("x", "y")
        return cls((letters[k % 2], run) for k, run in enumerate(xi.runs))


class NormalForm(NamedTuple):
    """The canonical form v^m y^s x^t in the algebra with relation xy = v."""

    v_exp: int
    y_exp: int
    x_exp: int


def algebra_normal_form(word: AlgebraWord) -> NormalForm:
    """Rewrite a word to v^m y^s x^t by contracting adjacent xy into v.

    >>> algebra_normal_form(AlgebraWord([("x", 3), ("y", 2), ("x", 1),
    ...     ("y", 1), ("x", 1), ("y", 1), ("x", 1)]))
    NormalForm(v_exp=4, y_exp=0, x_exp=2)
    """
    m = s = t = 0
    for letter, e in word.factors:
        if letter == "x":
            t += e
        else:
            c = min(t, e)
            m += c
            t -= c
            s += e - c
    return NormalForm(v_exp=m, y_exp=s, x_exp=t)


def ball_transform_equivalent(xi1: BallSignature, xi2: BallSignature) -> bool:
    """Whether xi2 is reachable from xi1 by the two local ball moves
    (wbb <-> bwb and wwb <-> wbw at any position).

    The moves say (wb)b = b(wb) and w(wb) = (wb)w: the pair wb commutes
    with each ball.  Removing pairs one at a time and commuting each to the
    middle takes every line to b^s (wb)^m w^t, with m its removable-pair
    count.  Both sides of each move are equal in the bicyclic monoid
    (wb = 1), where a line is b^s w^t, so the moves keep m.  Two lines with
    the same ball counts are therefore equivalent exactly when they have
    the same m, and the answer costs one `ball_model_m` per line.
    """
    if (xi1.white_total, xi1.black_total) != (xi2.white_total, xi2.black_total):
        raise DomainError(
            "signatures have different ball counts",
            counts1=(xi1.white_total, xi1.black_total),
            counts2=(xi2.white_total, xi2.black_total),
        )
    return ball_model_m(xi1) == ball_model_m(xi2)


class HermitianReport(NamedTuple):
    p: int
    q: int
    integral: bool
    m: int
    second_column: tuple[Fraction, ...] | None
    xi: BallSignature | None
    gk_dimension: int
    orbit_index: int
    orbit_dimension: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "integral": self.integral,
            "m": self.m,
            "second_column": (
                None
                if self.second_column is None
                else [str(e) for e in self.second_column]
            ),
            "xi": None if self.xi is None else list(self.xi.runs),
            "gk_dimension": self.gk_dimension,
            "orbit_index": self.orbit_index,
            "orbit_dimension": self.orbit_dimension,
        }


def gk_pq(w: Weight, ctx: PQContext) -> HermitianReport:
    """GK dimension and orbit data of a (p,q)-dominant weight.

    Integral case: m is computed from the insertion tableau and from the
    ball model, which must agree.  Non-integral case: GKdim = pq and the
    orbit index is min(p,q).

    Unlike the points of the z-line, which insert ints, `gk_pq` inserts the
    weight's `Fraction`s.  Int keys here would make it much faster at large
    n, but perfbench checks each large-n round afterwards with its own
    quadratic su(p,q) insertion, about 0.23 s a round, and a `gk_pq` call
    is about 96% of a round (median 311 ms against 3 x 3.76 ms for the
    sl(n) calls).  A much faster `gk_pq` would fit several hundred rounds
    into a 30-s run and make checking them take minutes, until the
    benchmark caps its rounds.  A strictly decreasing weight builds one row
    per entry and costs O(n^2) comparisons: `gk_pq` takes 0.4-0.6, 1.5-2.1
    and 4.9-7.3 s at n = 1000, 2000 and 4000, and `gk_dimension`, which
    inserts ints, about 0.07, 0.2-0.3 and 0.85 s (2 vCPU, Python 3.11.7).
    """
    halves = _halves(w, ctx)
    integral = halves is not None
    second = xi = None
    m = min(ctx.p, ctx.q)
    if integral:
        # Dominance makes each half one congruence class and the split joins
        # them, so the whole weight is the one class to insert.
        second, xi, m = _two_route_check(w.entries, *halves, w, ctx)
    n = ctx.n
    return HermitianReport(
        p=ctx.p, q=ctx.q, integral=integral, m=m, second_column=second, xi=xi,
        gk_dimension=m * (n - m) if integral else ctx.p * ctx.q,
        orbit_index=m, orbit_dimension=m * (n - m),
    )


def _two_route_check(
    seq: Iterable, blacks: list[int], whites: list[int],
    w: Weight, ctx: PQContext, z: Fraction | int = 0,
) -> tuple[tuple, BallSignature, int]:
    """(second column, signature, m) of the integral (p,q)-dominant weight
    add_z_zeta(w, ctx, z), given its black and white numerators and, as
    seq, its entries or any keys that order them the same way.

    m is read off the insertion tableau of seq and from the ball model,
    which must agree, and the paper proves the tableau has at most two
    columns.  The shifted weight is built only to name it in an error.
    """
    rows = insertion_tableau(seq).rows
    width = len(rows[0])
    second = tuple(r[1] for r in rows if len(r) > 1)
    xi = _merged_signature(blacks, whites)
    m = ball_model_m(xi)
    if width <= 2 and m == len(second):
        return second, xi, m
    shifted = add_z_zeta(w, ctx, z)
    where = f"gk_pq of {shifted} for (p,q)=({ctx.p},{ctx.q})"
    fields = dict(
        function="gk_pq", weight=shifted.to_strings(), p=ctx.p, q=ctx.q
    )
    if width > 2:
        raise InvariantError(
            f"{where}: insertion tableau has {width} columns, at most 2 "
            f"expected",
            **fields, first_row_length=width,
        )
    raise InvariantError(
        f"{where}: tableau and ball model disagree: second column of length "
        f"{len(second)}, ball model m = {m} from {xi}",
        **fields, tableau_m=len(second), ball_model_m=m, xi=list(xi.runs),
    )


def associated_variety(w: Weight, ctx: PQContext) -> tuple[int, int]:
    """(orbit index, orbit dimension) of the associated variety closure."""
    report = gk_pq(w, ctx)
    return report.orbit_index, report.orbit_dimension


class UnitaryInterval(NamedTuple):
    """Unitarity region on the line z -> weight + z*(1,..,1,0,..,0):
    all real z up to max(p', q') plus the integers up to p'+q'-1."""

    p_prime: int
    q_prime: int

    @property
    def threshold_real(self) -> int:
        return max(self.p_prime, self.q_prime)

    @property
    def threshold_int(self) -> int:
        return self.p_prime + self.q_prime - 1

    def contains(self, z: Fraction | int) -> bool:
        z = _exact(z, _Z_EXACT)
        if z <= self.threshold_real:
            return True
        return z.denominator == 1 and z <= self.threshold_int

    def to_json(self) -> dict:
        return {
            "p_prime": self.p_prime,
            "q_prime": self.q_prime,
            "threshold_real": self.threshold_real,
            "threshold_int": self.threshold_int,
        }


def unitary_interval(tilde_w: Weight, ctx: PQContext) -> UnitaryInterval:
    """Thresholds from the head/tail runs of consecutive integers.

    p' counts how many leading entries descend by exactly 1; q' the same for
    the trailing entries of the white half.  Requires a (p,q)-dominant
    weight with first entry equal to last.
    """
    _integral_halves(tilde_w, ctx)
    es = tilde_w.entries
    if es[0] != es[-1]:
        raise DomainError(
            "first and last entries must coincide",
            first=str(es[0]), last=str(es[-1]),
        )
    p_prime = 1
    while p_prime < ctx.p and es[p_prime - 1] - es[p_prime] == 1:
        p_prime += 1
    q_prime = 1
    while q_prime < ctx.q and es[-q_prime - 1] - es[-q_prime] == 1:
        q_prime += 1
    return UnitaryInterval(p_prime=p_prime, q_prime=q_prime)


def unitary_gkdim(tilde_w: Weight, ctx: PQContext, z: Fraction | int) -> int:
    """GK dimension at a unitary point z, by the closed form; cross-checked
    against the full computation on the shifted weight."""
    return _unitary_gkdim(tilde_w, ctx, unitary_interval(tilde_w, ctx), z)


def _unitary_gkdim(
    tilde_w: Weight, ctx: PQContext, interval: UnitaryInterval, z: Fraction | int
) -> int:
    """`unitary_gkdim` given interval = unitary_interval(tilde_w, ctx), which
    has checked that tilde_w, and so each weight on its z-line, is dominant."""
    z = _exact(z, _Z_EXACT)
    if not interval.contains(z):
        raise OutsideUnitaryIntervalError(
            f"z={z} is outside the unitary interval",
            z=str(z), **interval.to_json(),
        )
    p, q, n = ctx.p, ctx.q, ctx.n
    if z.denominator != 1 or z < max(p, q):
        value = p * q
    else:
        value = int(z + 1) * int(n - z - 1)
    # The shifted weight's integrality is read off its own first black and
    # first white, as `_halves` reads tilde_w's, so the closed form meets an
    # independent computation.
    es = tilde_w.entries
    actual = p * q
    if congruence_key(es[0] + z) == congruence_key(es[p]):
        blacks = [e.numerator for e in es[:p]]
        whites = [e.numerator for e in es[p:]]
        actual = _z_point_gk(tilde_w, ctx, blacks, whites, z)
    if actual != value:
        raise InvariantError(
            f"unitary_gkdim of {tilde_w} for (p,q)=({p},{q}) at z={z}: "
            f"closed form {value} disagrees with direct computation {actual}",
            function="unitary_gkdim", weight=tilde_w.to_strings(), p=p, q=q,
            z=str(z), closed_form=value, direct=actual,
        )
    return value


def _z_point_gk(
    tilde_w: Weight, ctx: PQContext, blacks: list[int], whites: list[int],
    z: Fraction | int,
) -> int:
    """GK dimension at an integral point z of tilde_w's z-line.

    blacks and whites are tilde_w's numerators over their one denominator
    d.  tilde_w is integral too, so z is an integer, and adding it to a
    black e = b/d gives (b + z*d)/d, still in lowest terms: the shifted
    weight's numerators are the shifted blacks and the unchanged whites,
    and no `Weight` is built.
    """
    shift = int(z * tilde_w.entries[0].denominator)
    shifted = [b + shift for b in blacks]
    _, _, m = _two_route_check(
        shifted + whites, shifted, whites, tilde_w, ctx, z
    )
    return m * (ctx.n - m)


# Each point of a z-series is one su(p,q) insertion and ball-model check.
Z_RANGE_BOUND = 1000


def gkdim_series(
    tilde_w: Weight, ctx: PQContext, z_from: int, z_to: int
) -> list[tuple[int, int]]:
    """(z, GKdim) for integer z in [z_from, z_to].

    The values are guaranteed weakly decreasing in z and, for integral
    weights, zero beyond the gap threshold; both are asserted.  A range of
    more than Z_RANGE_BOUND points is refused before any computation.

    Each point of an integral line costs one insertion of the shifted
    weight's n int numerators (O(n^2) comparisons at worst, as `gk_pq`'s)
    and one O(n) ball-model check; it builds no `Weight`, `Fraction` or
    `HermitianReport`.  A non-integral line gives pq at every point with no
    insertion.
    """
    z_from, z_to = _integers((z_from, z_to), "z_from and z_to must be integers")
    halves = _halves(tilde_w, ctx)
    if z_from > z_to:
        raise DomainError("empty range", z_from=z_from, z_to=z_to)
    if z_to - z_from + 1 > Z_RANGE_BOUND:
        raise ZRangeBoundError(
            f"series limited to {Z_RANGE_BOUND} points, "
            f"got {z_to - z_from + 1}",
            z_from=z_from, z_to=z_to, z_range_bound=Z_RANGE_BOUND,
        )
    # Adding an integer z to the first p entries keeps each half's
    # congruence key and order, so every weight on the line is dominant, as
    # tilde_w is, and integral across the split exactly when tilde_w is.
    if halves is not None:
        series = [
            (z, _z_point_gk(tilde_w, ctx, *halves, z))
            for z in range(z_from, z_to + 1)
        ]
    else:
        series = [(z, ctx.p * ctx.q) for z in range(z_from, z_to + 1)]
    for (z0, g0), (z1, g1) in zip(series, series[1:]):
        if g0 < g1:
            raise InvariantError(
                f"gkdim_series of {tilde_w} for (p,q)=({ctx.p},{ctx.q}): "
                f"series is not weakly decreasing: GK dimension {g0} at "
                f"z={z0} but {g1} at z={z1}; values {[g for _, g in series]}",
                function="gkdim_series", weight=tilde_w.to_strings(),
                p=ctx.p, q=ctx.q, z=z0, gk_dimension=g0, next_z=z1,
                next_gk_dimension=g1,
            )
    if halves is not None:
        threshold = tilde_w.entries[ctx.p] - tilde_w.entries[ctx.p - 1] + 1
        for z, g in series:
            if z > threshold and g != 0:
                raise InvariantError(
                    f"gkdim_series of {tilde_w} for (p,q)=({ctx.p},{ctx.q}): "
                    f"GK dimension {g} at z={z}, expected 0 beyond threshold "
                    f"{threshold}",
                    function="gkdim_series", weight=tilde_w.to_strings(),
                    p=ctx.p, q=ctx.q, z=z, gk_dimension=g, expected=0,
                    threshold=str(threshold),
                )
    return series
