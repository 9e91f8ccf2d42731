"""Permutations of S_n in one-line notation.

Covers the group operations, inversion length, the Robinson-Schensted pair,
parabolic longest elements realizing a given shape, and the minimal-length
permutation sorting a weight into antidominant position.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import NotIntegralError, _integers
from .tableaux import Shape, Tableau, insertion_tableau, rs_pair

if TYPE_CHECKING:
    # Imported in act_on, which builds one: the oracle never loads weights.
    from .weights import Weight


class Permutation:
    """An element of S_n as the tuple (sigma(1), ..., sigma(n))."""

    __slots__ = ("one_line",)

    def __init__(self, one_line: Iterable[int]):
        ol = _integers(one_line, "one-line entries must be integers")
        if sorted(ol) != list(range(1, len(ol) + 1)):
            raise ValueError(f"not a permutation of 1..{len(ol)}: {ol}")
        object.__setattr__(self, "one_line", ol)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        return Permutation, (self.one_line,)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, _rank(n) + 1))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(range(_rank(n), 0, -1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        n = _rank(n)
        i = _check_index(i, n, "position")
        j = _check_index(j, n, "position")
        ol = list(range(1, n + 1))
        ol[i - 1], ol[j - 1] = ol[j - 1], ol[i - 1]
        return cls(ol)

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[_check_index(i, self.n, "position") - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.one_line)

    def __repr__(self) -> str:
        return f"Permutation{self.one_line}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.one_line == other.one_line

    def __hash__(self) -> int:
        return hash(self.one_line)

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.one_line[v - 1] for v in other.one_line)

    __mul__ = compose

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.one_line))

    def length(self) -> int:
        """Number of inversions; 0 for the identity, n(n-1)/2 for the longest."""
        return _inversions(self.one_line)

    def right_descents(self) -> list[int]:
        """Indices i with sigma(i) > sigma(i+1), i.e. sigma*s_i shorter."""
        ol = self.one_line
        return [i + 1 for i in range(len(ol) - 1) if ol[i] > ol[i + 1]]

    def times_s(self, i: int) -> "Permutation":
        """Right multiplication by the adjacent transposition s_i."""
        i = _check_index(i, self.n - 1, "generator")
        ol = list(self.one_line)
        ol[i - 1], ol[i] = ol[i], ol[i - 1]
        return Permutation(ol)

    def s_times(self, i: int) -> "Permutation":
        """Left multiplication by s_i (swaps the values i and i+1)."""
        i = _check_index(i, self.n - 1, "generator")
        ol = [i + 1 if v == i else i if v == i + 1 else v for v in self.one_line]
        return Permutation(ol)

    def reduced_word(self) -> list[int]:
        """A reduced word sigma = s_{i1} ... s_{ik}, stripped off the right."""
        word: list[int] = []
        cur = list(self.one_line)
        changed = True
        while changed:
            changed = False
            for i in range(len(cur) - 1):
                if cur[i] > cur[i + 1]:
                    cur[i], cur[i + 1] = cur[i + 1], cur[i]
                    word.append(i + 1)
                    changed = True
        word.reverse()
        return word

    def act_on(self, w: Weight) -> Weight:
        """The coordinate action: entry i of w lands at position sigma(i)."""
        from .weights import Weight

        if self.n != w.n:
            raise ValueError("size mismatch")
        out = [None] * w.n
        for i, v in enumerate(self.one_line):
            out[v - 1] = w.entries[i]
        return Weight(out)


def _rank(n: int) -> int:
    return _integers((n,), "n must be an integer")[0]


def _check_index(i: int, top: int, what: str) -> int:
    """i as an int, if it is an integer in 1..top."""
    (i,) = _integers((i,), f"{what} index must be an integer")
    if not 1 <= i <= top:
        raise ValueError(f"{what} index must be in 1..{top}, got {i}")
    return i


def _inversions(one_line: tuple[int, ...]) -> int:
    """The length of a permutation in one-line notation: its number of
    inversions."""
    return sum(a > b for i, a in enumerate(one_line) for b in one_line[i + 1:])


def _inverse(one_line: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse in one-line notation, from the position of each value."""
    position = [0] * len(one_line)
    for i, v in enumerate(one_line, start=1):
        position[v - 1] = i
    return tuple(position)


def rs_of_permutation(a: Permutation) -> tuple[Tableau, Tableau]:
    """The standard tableau pair (P, Q) of the one-line sequence."""
    return rs_pair(a.one_line)


def a_value_of_permutation(a: Permutation) -> int:
    """Column statistic of the insertion tableau shape."""
    return insertion_tableau(a.one_line).a_value()


def parabolic_longest(s: Shape, n: int) -> Permutation:
    """Longest element of the parabolic subgroup whose generator set omits
    s_k exactly at the partial sums k of the column sizes.

    The blocks have the column sizes as lengths, so the element reverses
    each consecutive block of positions.
    """
    if s.size != _rank(n):
        raise ValueError(f"shape has {s.size} boxes, expected {n}")
    ol: list[int] = []
    start = 1
    for c in s.column_sizes:
        ol.extend(range(start + c - 1, start - 1, -1))
        start += c
    return Permutation(ol)


def minimal_antidominant_permutation(w: Weight) -> Permutation:
    """The unique shortest permutation moving w to antidominant position.

    Realized by stable ranking: sigma(i) is the rank of entry i when the
    entries are sorted increasingly with ties broken by position.
    """
    if not w.is_integral():
        raise NotIntegralError(
            "minimal antidominant permutation requires an integral weight",
            entries=w.to_strings(),
        )
    order = sorted(range(w.n), key=lambda i: (w.entries[i], i))
    ol = [0] * w.n
    for rank, i in enumerate(order, start=1):
        ol[i] = rank
    return Permutation(ol)
