"""Young tableaux, Schensted row insertion and column statistics.

Entries may be any totally ordered values: ``Fraction``s, ``int``s or
``str``s, compared as they are given.  ``Shape`` and ``Tableau`` are
immutable one-field ``NamedTuple``s.  `insertion_tableau` builds the
insertion tableau P of a sequence and `rs_pair` builds P with its recording
tableau Q; both fold `_row_insert` over mutable rows and validate the result
once, in the ``Tableau`` constructor.  `_relabel` maps the entries of a built
tableau without validating it again.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import ge, gt
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import _integers

# Any totally ordered value; the library inserts `Fraction`s and ints.
Entry = Any


class Shape(NamedTuple("Shape", [("column_sizes", tuple[int, ...])])):
    """A partition, viewed through its column sizes.

    >>> Shape.from_row_lengths([2, 2, 1]).column_sizes
    (3, 2)
    >>> Shape((3, 2)).row_lengths
    (2, 2, 1)
    """

    __slots__ = ()

    def __new__(cls, column_sizes: Iterable[int]):
        return tuple.__new__(cls, (_partition(column_sizes, "column sizes"),))

    @classmethod
    def from_row_lengths(cls, rows: Sequence[int]) -> "Shape":
        return cls(_conjugate(_partition(rows, "row lengths")))

    @property
    def row_lengths(self) -> tuple[int, ...]:
        return _conjugate(self.column_sizes)

    @property
    def size(self) -> int:
        return sum(self.column_sizes)

    def column_statistic(self) -> int:
        """Sum of c*(c-1)/2 over the column sizes c.

        This is n(lambda) = sum of (i-1)*lambda_i over the row lengths
        lambda_i, since each box in row i adds i-1 to the pairs of its
        column (Macdonald, Symmetric Functions and Hall Polynomials,
        I (1.6)).  `Tableau.a_value` reads it off the row lengths that way.

        >>> Shape.from_row_lengths([2, 2, 1]).column_statistic()
        4
        """
        return sum(c * (c - 1) // 2 for c in self.column_sizes)

    def __repr__(self) -> str:
        return f"Shape{self.column_sizes}"


def _partition(parts: Iterable[int], noun: str) -> tuple[int, ...]:
    """parts as ints, if positive and weakly decreasing, else a ValueError."""
    parts = _integers(parts, f"{noun} must be integers")
    if any(c <= 0 for c in parts):
        raise ValueError(f"{noun} must be positive")
    if any(map(gt, parts[1:], parts)):
        raise ValueError(f"{noun} must weakly decrease")
    return parts


def _conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate of the partition p: how many parts exceed 0, 1, 2, ..."""
    return tuple(sum(c > i for c in p) for i in range(max(p, default=0)))


class Tableau(NamedTuple("Tableau", [("rows", "tuple[tuple[Entry, ...], ...]")])):
    """A semistandard Young tableau (weakly increasing rows, strictly
    increasing columns, row lengths weakly decreasing)."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Sequence[Entry]] = ()):
        rows = tuple(map(tuple, rows))
        _validate(rows)
        return tuple.__new__(cls, (rows,))

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def shape(self) -> Shape:
        return Shape.from_row_lengths([len(r) for r in self.rows])

    def a_value(self) -> int:
        """The column statistic of the shape, read off the row lengths as
        n(lambda) = sum of (i-1)*lambda_i (Macdonald I (1.6)), with no `Shape`.

        >>> Tableau([[1, 2], [3, 4], [5]]).a_value()
        4
        """
        return sum(i * len(r) for i, r in enumerate(self.rows))

    def column(self, j: int) -> tuple[Entry, ...]:
        """Entries of the j-th column (1-indexed), top to bottom."""
        (j,) = _integers((j,), "column index must be an integer")
        if j < 1:
            raise ValueError(f"column index must be at least 1, got {j}")
        return tuple(r[j - 1] for r in self.rows if len(r) >= j)

    def is_standard(self) -> bool:
        """Entries are exactly 1..k, so, being distinct, they strictly
        increase along the rows as well as down the columns."""
        flat = sorted(e for r in self.rows for e in r)
        return flat == list(range(1, len(flat) + 1))

    def __repr__(self) -> str:
        return f"Tableau({[list(r) for r in self.rows]!r})"

    def pretty(self) -> str:
        """One row per line, entries space-separated, left-justified."""
        cells = [[str(e) for e in r] for r in self.rows]
        width = max((len(c) for r in cells for c in r), default=0)
        return "\n".join(" ".join(c.ljust(width) for c in r).rstrip() for r in cells)

    def to_json_rows(self) -> list[list[str]]:
        return [[str(e) for e in r] for r in self.rows]


def _row_insert(rows: list[list[Entry]], x: Entry) -> tuple[int, int]:
    """Schensted row insertion of x into mutable rows, in place.

    The inserted value bumps the leftmost entry strictly bigger than it;
    equal entries are passed over, so repeats extend rows rightwards.
    Returns the 1-indexed (row, column) of the added box.

    >>> rows = [[2, 5], [3]]
    >>> _row_insert(rows, 2), rows
    ((2, 2), [[2, 2], [3, 5]])
    """
    for i, row in enumerate(rows, start=1):
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return i, j + 1
        x, row[j] = row[j], x
    rows.append([x])
    return len(rows), 1


def _validate(rows: Sequence[Sequence[Entry]]) -> None:
    for i, r in enumerate(rows):
        if not r:
            raise ValueError("empty tableau row")
        if any(map(gt, r, r[1:])):
            raise ValueError(f"row {i + 1} is not weakly increasing")
    for i in range(len(rows) - 1):
        if len(rows[i]) < len(rows[i + 1]):
            raise ValueError("row lengths must weakly decrease")
        # The longer upper row is cut to the lower row's length by map.
        if any(map(ge, rows[i], rows[i + 1])):
            raise ValueError(f"column not strictly increasing at row {i + 2}")


def insertion_tableau(seq: Iterable[Entry]) -> Tableau:
    """Insertion tableau P of a sequence, with no recording tableau.

    This is the one P-only builder: `gk_dimension`, `gk_pq` and
    `a_value_of_permutation` all call it.  Each entry costs one ``bisect``
    per row it passes, so a strictly decreasing sequence, which builds one
    row per entry, costs O(n^2) comparisons; `hermitian.gk_pq` gives the
    timings, for `Fraction`s and for ints.

    >>> insertion_tableau([3, 5, 2, 2, 1]).rows
    ((1, 2), (2, 5), (3,))
    >>> insertion_tableau("bca").rows
    (('a', 'c'), ('b',))
    """
    rows: list[list[Entry]] = []
    for x in seq:
        _row_insert(rows, x)
    return Tableau(rows)


def _relabel(t: Tableau, label: Callable[[Entry], Entry]) -> Tableau:
    """t with each entry e replaced by label(e), not validated again.

    Contract: label is strictly increasing on t's entries, that is, e < f
    implies label(e) < label(f).  Such a map carries a semistandard tableau
    to a semistandard tableau of the same shape, so no second validation is
    needed.

    >>> _relabel(insertion_tableau([2, 0, 2, 1]), "xyz".__getitem__).rows
    (('x', 'y'), ('z', 'z'))
    """
    return tuple.__new__(Tableau, (tuple(tuple(map(label, r)) for r in t.rows),))


def rs_pair(seq: Iterable[Entry]) -> tuple[Tableau, Tableau]:
    """Insertion tableau P and standard recording tableau Q of a sequence.

    >>> p, q = rs_pair([3, 5, 2, 2, 1])
    >>> p.rows
    ((1, 2), (2, 5), (3,))
    >>> q.rows
    ((1, 2), (3, 4), (5,))
    """
    p_rows: list[list[Entry]] = []
    q_rows: list[list[int]] = []
    for k, x in enumerate(seq, start=1):
        i, _ = _row_insert(p_rows, x)
        if i > len(q_rows):
            q_rows.append([k])
        else:
            q_rows[i - 1].append(k)
    return Tableau(p_rows), Tableau(q_rows)
