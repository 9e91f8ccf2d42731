"""Shared construction helpers for the test suite."""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import combinations

import pytest

from gkdim import BallSignature, PQContext, Weight


def check_value_type(cls, args: tuple, kwargs: dict, text: str) -> None:
    """The contract every value type keeps: positional and keyword
    construction give equal values with equal hashes, the repr is `text`,
    and no attribute can be assigned, neither a field nor a new name."""
    value = cls(*args)
    assert value == cls(**kwargs)
    assert hash(value) == hash(cls(**kwargs))
    assert repr(value) == text
    for name in (next(iter(kwargs)), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


def check_value_error(make, message: str) -> None:
    """make() raises a ValueError whose text is exactly `message`."""
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def reference_schensted(seq):
    """(P rows, Q rows, added boxes) by plain Schensted row insertion.

    Each row is scanned left to right for the first entry strictly larger
    than the one being inserted, and both tableaux are rebuilt as tuples
    after every entry.
    """
    p, q, boxes = (), (), []
    for k, x in enumerate(seq, start=1):
        rows = [list(r) for r in p]
        i = 0
        while True:
            if i == len(rows):
                rows.append([x])
                box = (i + 1, 1)
                break
            row = rows[i]
            bigger = [j for j, e in enumerate(row) if e > x]
            if not bigger:
                row.append(x)
                box = (i + 1, len(row))
                break
            x, row[bigger[0]] = row[bigger[0]], x
            i += 1
        p = tuple(tuple(r) for r in rows)
        q_rows = [list(r) for r in q]
        if box[0] > len(q_rows):
            q_rows.append([k])
        else:
            q_rows[box[0] - 1].append(k)
        q = tuple(tuple(r) for r in q_rows)
        boxes.append(box)
    return p, q, boxes


class Counted:
    """An entry that adds one to `calls[0]` for every rich comparison made
    with it on the left; the entries of one word share one `calls` list.
    Comparing two `Counted`s runs exactly one of their methods, so the
    count is the number of comparisons a routine makes between entries."""

    __slots__ = ("value", "calls")

    def __init__(self, value, calls: list[int]):
        self.value = value
        self.calls = calls

    def _compare(op):
        def compare(self, other):
            self.calls[0] += 1
            return op(self.value, other.value)

        return compare

    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)
    __eq__ = _compare(operator.eq)
    __ne__ = _compare(operator.ne)
    del _compare


def counted_word(values) -> tuple[list[Counted], list[int]]:
    """values as `Counted` entries, and the one-item list counting their
    comparisons."""
    calls = [0]
    return [Counted(v, calls) for v in values], calls


def signature_from_balls(balls: str) -> BallSignature:
    """Run-length signature of a ball line like 'wwbwb'."""
    runs = [0]
    expect_white = True
    for ball in balls:
        is_white = ball == "w"
        if is_white == expect_white:
            runs[-1] += 1
        else:
            runs.append(1)
            expect_white = is_white
    if expect_white:  # line ended on a white run: trailing black run is 0
        runs.append(0)
    if len(runs) < 2:
        runs.append(0)
    return BallSignature(runs)


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


_REWRITES = (("wbb", "bwb"), ("wwb", "wbw"))


def reachable_lines(start: str) -> set[str]:
    """Every ball line reachable from `start` (like 'wwbwb') by the two
    local moves wbb <-> bwb and wwb <-> wbw, by breadth-first search.  The
    reference for ``ball_transform_equivalent``; the set grows exponentially
    with the line length."""
    seen = {start}
    frontier = [start]
    while frontier:
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
    return seen


def weight_from_pattern(
    colors: tuple[str, ...], ties: frozenset[int], base: int = 0
) -> tuple[Weight, PQContext]:
    """A canonical integral (p,q)-dominant weight realizing a ball line.

    ``colors`` is the line left to right ('b'/'w'); ``ties`` holds indices i
    where ball i (white) shares its value with ball i+1 (black).  Values
    descend by 1 except across a tie.
    """
    values = [base]
    for i in range(1, len(colors)):
        step = 0 if (i - 1) in ties else 1
        values.append(values[-1] - step)
    blacks = [v for v, c in zip(values, colors) if c == "b"]
    whites = [v for v, c in zip(values, colors) if c == "w"]
    ctx = PQContext(len(blacks), len(whites))
    return Weight(blacks + whites), ctx


def all_patterns(n: int):
    """Every (ball line, tie set) pattern for integral (p,q)-dominant
    weights of rank n, over all splits p+q=n with p, q >= 1.

    Any such weight sorts into one of these lines with ties exactly at
    white-black adjacencies, so the patterns cover all value tuples from a
    fixed integer window.
    """
    for p in range(1, n):
        for black_positions in combinations(range(n), p):
            colors = tuple(
                "b" if i in black_positions else "w" for i in range(n)
            )
            adjacencies = [
                i
                for i in range(n - 1)
                if colors[i] == "w" and colors[i + 1] == "b"
            ]
            for r in range(1 << len(adjacencies)):
                ties = frozenset(
                    adjacencies[k]
                    for k in range(len(adjacencies))
                    if r >> k & 1
                )
                yield colors, ties


def random_dominant_weight(
    rng: random.Random,
    n: int,
    *,
    integral: bool = True,
    max_gap: int = 3,
) -> tuple[Weight, PQContext]:
    """A random (p,q)-dominant weight; cross-shift optionally non-integral."""
    p = rng.randint(1, n - 1)
    q = n - p
    start = Fraction(rng.randint(-5, 5))
    if not integral:
        start += Fraction(1, rng.choice([2, 3, 7]))
    blacks = [start]
    for _ in range(p - 1):
        blacks.append(blacks[-1] - rng.randint(1, max_gap))
    whites = [Fraction(rng.randint(-5, 5))]
    for _ in range(q - 1):
        whites.append(whites[-1] - rng.randint(1, max_gap))
    return Weight(blacks + whites), PQContext(p, q)


def random_tilde_weight(
    rng: random.Random, n: int, max_gap: int = 3
) -> tuple[Weight, PQContext]:
    """A random integral (p,q)-dominant weight whose first entry equals its
    last (the base point of the z-line)."""
    p = rng.randint(1, n - 1)
    q = n - p
    c = rng.randint(-4, 4)
    blacks = [c]
    for _ in range(p - 1):
        blacks.append(blacks[-1] - rng.randint(1, max_gap))
    whites_rev = [c]
    for _ in range(q - 1):
        whites_rev.append(whites_rev[-1] + rng.randint(1, max_gap))
    whites = list(reversed(whites_rev))
    return Weight(blacks + whites), PQContext(p, q)


def reference_xi_signature(w: Weight, ctx: PQContext) -> BallSignature:
    """The ball signature by the inductive run count, the reference for the
    merge in ``xi_signature``.

    The first white run holds the whites >= the top black, each black run
    the blacks below the previous white run but above the next white, and
    so on; a white tied with a black counts to the white's left.  It does
    not check (p,q)-dominance or integrality, so a weight that is not
    (p,q)-dominant can reach its two run checks.
    """
    blacks = w.entries[: ctx.p]
    whites = w.entries[ctx.p :]
    p, q = ctx.p, ctx.q

    a1 = sum(1 for x in whites if x >= blacks[0])
    if a1 < q:
        b1 = sum(1 for x in blacks if x > whites[a1])
    else:
        b1 = p
    runs = [a1, b1]
    wi, bi = a1, b1
    while True:
        if bi > p:
            a_next = 0
        elif bi == p:
            a_next = sum(1 for x in whites[wi:] if x < blacks[p - 1])
        else:
            a_next = sum(
                1 for x in whites[wi:] if blacks[bi] <= x < blacks[bi - 1]
            )
        wj = wi + a_next
        if wj > q:
            b_next = 0
        elif wj == q:
            b_next = sum(1 for x in blacks[bi:] if x <= whites[q - 1])
        else:
            if wj < 1:  # a leading empty white run only happens once
                raise RuntimeError(
                    f"inductive run count of {w} for (p,q)=({p},{q}): an "
                    f"empty white run after the first, with runs {tuple(runs)}"
                )
            b_next = sum(
                1 for x in blacks[bi:] if whites[wj] < x <= whites[wj - 1]
            )
        if a_next == 0 and b_next == 0:
            break
        runs.extend((a_next, b_next))
        wi, bi = wj, bi + b_next
    sig = BallSignature(runs)
    if sig.white_total != q or sig.black_total != p:
        raise RuntimeError(
            f"inductive run count of {w} for (p,q)=({p},{q}): runs "
            f"{sig.runs} hold {sig.white_total} whites and "
            f"{sig.black_total} blacks"
        )
    return sig
