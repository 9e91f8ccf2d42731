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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    InvariantError,
    NotIntegralError,
    NotPQDominantError,
    OutsideUnitaryIntervalError,
    ZRangeBoundError,
)
from .tableaux import insertion_tableau
from .weights import (
    PQContext,
    Weight,
    add_z_zeta,
    congruence_key,
    pq_dominance_violation,
)


def _require_pq_dominant(w: Weight, ctx: PQContext) -> None:
    bad = pq_dominance_violation(w, ctx)
    if bad is not None:
        raise NotPQDominantError(
            f"entries {bad[0]} and {bad[1]} violate (p,q)-dominance",
            i=bad[0], j=bad[1], p=ctx.p, q=ctx.q,
        )


def _integral_across_split(w: Weight, ctx: PQContext) -> bool:
    return congruence_key(w.entries[0]) == congruence_key(w.entries[ctx.p])


def _require_integral_dominant(w: Weight, ctx: PQContext) -> None:
    _require_pq_dominant(w, ctx)
    if not _integral_across_split(w, ctx):
        raise NotIntegralError(
            "weight is not integral across the (p,q) split",
            i=1, j=ctx.p + 1,
        )


@dataclass(frozen=True)
class BallSignature:
    """Alternating white/black run lengths (a1, b1, ..., ar, br).

    Interior runs are positive; only the leading white run and trailing
    black run may vanish.
    """

    runs: tuple[int, ...]

    def __init__(self, runs: Iterable[int]):
        rs = tuple(int(x) for x in runs)
        if len(rs) < 2 or len(rs) % 2:
            raise ValueError("signature needs even length 2r with r >= 1")
        if any(x < 0 for x in rs):
            raise ValueError("run lengths must be nonnegative")
        if any(x == 0 for x in rs[1:-1]):
            raise ValueError("interior run lengths must be positive")
        object.__setattr__(self, "runs", rs)

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
    _require_integral_dominant(w, ctx)
    return _merged_signature(w, ctx)


def _merged_signature(w: Weight, ctx: PQContext) -> BallSignature:
    """The merge of `xi_signature`, for a weight already known to be
    integral and (p,q)-dominant."""
    # All entries share one congruence key, hence one denominator, so their
    # numerators order them.
    blacks = [e.numerator for e in w.entries[: ctx.p]]
    whites = [e.numerator for e in w.entries[ctx.p :]]
    p, q = ctx.p, ctx.q
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


def ball_model_m_by_simulation(xi: BallSignature) -> int:
    """Removable adjacent white-black pairs by literal repeated removal."""
    removed = 0
    stack: list[str] = []
    for ball in xi.balls():
        if ball == "b" and stack and stack[-1] == "w":
            stack.pop()
            removed += 1
        else:
            stack.append(ball)
    return removed


def second_column_by_deletion(w: Weight, ctx: PQContext) -> list[Fraction]:
    """Second-column entries of the insertion tableau, top to bottom,
    via the deletion recursion.

    While the joined sequence is not strictly decreasing, one black and at
    least one white entry are deleted; the emitted entry is the lowest
    surviving white bound (the k-th white when the last black fits below
    white k, the last white when even it is too big)."""
    _require_integral_dominant(w, ctx)
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


@dataclass(frozen=True)
class AlgebraWord:
    """A word in the letters x, y with nonnegative exponents."""

    factors: tuple[tuple[str, int], ...]

    def __init__(self, factors: Iterable[tuple[str, int]]):
        fs = tuple((str(l), int(e)) for l, e in factors)
        if any(l not in ("x", "y") or e < 0 for l, e in fs):
            raise ValueError("factors must be ('x'|'y', exponent >= 0)")
        object.__setattr__(self, "factors", fs)

    @classmethod
    def from_signature(cls, xi: BallSignature) -> "AlgebraWord":
        """x^{a1} y^{b1} ... x^{ar} y^{br}: white balls as x, black as y."""
        letters = ("x", "y")
        return cls((letters[k % 2], run) for k, run in enumerate(xi.runs))


@dataclass(frozen=True)
class NormalForm:
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


_REWRITES = (("wbb", "bwb"), ("wwb", "wbw"))


def ball_transform_equivalent(xi1: BallSignature, xi2: BallSignature) -> bool:
    """Whether xi2 is reachable from xi1 by the two local ball moves
    (wbb <-> bwb and wwb <-> wbw at any position)."""
    if (xi1.white_total, xi1.black_total) != (xi2.white_total, xi2.black_total):
        raise DomainError(
            "signatures have different ball counts",
            counts1=(xi1.white_total, xi1.black_total),
            counts2=(xi2.white_total, xi2.black_total),
        )
    start = "".join(xi1.balls())
    goal = "".join(xi2.balls())
    seen = {start}
    frontier = [start]
    while frontier:
        if goal in seen:
            return True
        nxt = []
        for state in frontier:
            for a, b in _REWRITES:
                for pat, rep in ((a, b), (b, a)):
                    i = state.find(pat)
                    while i != -1:
                        new = state[:i] + rep + state[i + 3 :]
                        if new not in seen:
                            seen.add(new)
                            nxt.append(new)
                        i = state.find(pat, i + 1)
        frontier = nxt
    return goal in seen


@dataclass(frozen=True)
class HermitianReport:
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
    """
    _require_pq_dominant(w, ctx)
    return _dominant_gk_pq(w, ctx)


def _dominant_gk_pq(w: Weight, ctx: PQContext) -> HermitianReport:
    """The body of `gk_pq`, for a weight already known to be (p,q)-dominant."""
    n = ctx.n
    second = xi = None
    m = min(ctx.p, ctx.q)
    integral = _integral_across_split(w, ctx)
    if integral:
        # Dominance makes each half one congruence class and the split joins
        # them, so the whole weight is the one class to insert.
        second = insertion_tableau(w.entries).column(2)
        xi = _merged_signature(w, ctx)
        m = ball_model_m(xi)
        if m != len(second):
            raise InvariantError(
                f"gk_pq of {w} for (p,q)=({ctx.p},{ctx.q}): tableau and ball "
                f"model disagree: second column of length {len(second)}, "
                f"ball model m = {m} from {xi}",
                function="gk_pq", weight=w.to_strings(), p=ctx.p, q=ctx.q,
                tableau_m=len(second), ball_model_m=m, xi=list(xi.runs),
            )
    return HermitianReport(
        p=ctx.p, q=ctx.q, integral=integral, m=m, second_column=second, xi=xi,
        gk_dimension=m * (n - m) if integral else ctx.p * ctx.q,
        orbit_index=m, orbit_dimension=m * (n - m),
    )


def associated_variety(w: Weight, ctx: PQContext) -> tuple[int, int]:
    """(orbit index, orbit dimension) of the associated variety closure."""
    report = gk_pq(w, ctx)
    return report.orbit_index, report.orbit_dimension


@dataclass(frozen=True)
class UnitaryInterval:
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
        z = Fraction(z)
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
    _require_integral_dominant(tilde_w, ctx)
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
    z = Fraction(z)
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
    actual = _dominant_gk_pq(add_z_zeta(tilde_w, ctx, z), ctx).gk_dimension
    if actual != value:
        raise InvariantError(
            f"unitary_gkdim of {tilde_w} for (p,q)=({p},{q}) at z={z}: "
            f"closed form {value} disagrees with direct computation {actual}",
            function="unitary_gkdim", weight=tilde_w.to_strings(), p=p, q=q,
            z=str(z), closed_form=value, direct=actual,
        )
    return value


# Each point of a z-series is one full su(p,q) computation.
Z_RANGE_BOUND = 1000


def gkdim_series(
    tilde_w: Weight, ctx: PQContext, z_from: int, z_to: int
) -> list[tuple[int, int]]:
    """(z, GKdim) for integer z in [z_from, z_to].

    The values are guaranteed weakly decreasing in z and, for integral
    weights, zero beyond the gap threshold; both are asserted.  A range of
    more than Z_RANGE_BOUND points is refused before any computation.
    """
    _require_pq_dominant(tilde_w, ctx)
    if z_from > z_to:
        raise DomainError("empty range", z_from=z_from, z_to=z_to)
    if z_to - z_from + 1 > Z_RANGE_BOUND:
        raise ZRangeBoundError(
            f"series limited to {Z_RANGE_BOUND} points, "
            f"got {z_to - z_from + 1}",
            z_from=z_from, z_to=z_to, z_range_bound=Z_RANGE_BOUND,
        )
    # Adding z to the first p entries keeps each half's congruence key and
    # order, so every weight on the line is dominant, as tilde_w is.
    series = [
        (z, _dominant_gk_pq(add_z_zeta(tilde_w, ctx, z), ctx).gk_dimension)
        for z in range(z_from, z_to + 1)
    ]
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
    if _integral_across_split(tilde_w, ctx):
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
