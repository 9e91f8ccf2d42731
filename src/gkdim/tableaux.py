"""Young tableaux, Schensted row insertion and column statistics.

Entries are ``Fraction``s or ``int``s.  Tableaux are immutable; insertion
returns a new tableau together with the 1-indexed (row, column) of the added
box.  Each tableau is validated once, by its constructor.  When all its
entries share one denominator, as the entries of one congruence class do,
the checks compare numerators, which are ints; otherwise they compare values.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

Entry = Fraction | int


class Shape:
    """A partition, viewed through its column sizes.

    >>> Shape.from_row_lengths([2, 2, 1]).column_sizes
    (3, 2)
    >>> Shape((3, 2)).row_lengths
    (2, 2, 1)
    """

    __slots__ = ("column_sizes",)

    def __init__(self, column_sizes: Iterable[int]):
        cs = tuple(int(c) for c in column_sizes)
        if any(c <= 0 for c in cs):
            raise ValueError("column sizes must be positive")
        if any(cs[i] < cs[i + 1] for i in range(len(cs) - 1)):
            raise ValueError("column sizes must weakly decrease")
        object.__setattr__(self, "column_sizes", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Shape is immutable")

    @classmethod
    def from_row_lengths(cls, rows: Sequence[int]) -> "Shape":
        cols = []
        j = 0
        while True:
            c = sum(1 for r in rows if r > j)
            if c == 0:
                break
            cols.append(c)
            j += 1
        return cls(cols)

    @property
    def row_lengths(self) -> tuple[int, ...]:
        cs = self.column_sizes
        return tuple(
            sum(1 for c in cs if c > i) for i in range(cs[0] if cs else 0)
        )

    @property
    def size(self) -> int:
        return sum(self.column_sizes)

    def column_statistic(self) -> int:
        """Sum of c*(c-1)/2 over the column sizes c."""
        return sum(c * (c - 1) // 2 for c in self.column_sizes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Shape):
            return NotImplemented
        return self.column_sizes == other.column_sizes

    def __hash__(self) -> int:
        return hash(self.column_sizes)

    def __repr__(self) -> str:
        return f"Shape{self.column_sizes}"


class Tableau:
    """A semistandard Young tableau (weakly increasing rows, strictly
    increasing columns, row lengths weakly decreasing)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[Entry]] = ()):
        rows = tuple(tuple(r) for r in rows)
        _validate(rows)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def shape(self) -> Shape:
        return Shape.from_row_lengths([len(r) for r in self.rows])

    def column(self, j: int) -> tuple[Entry, ...]:
        """Entries of the j-th column (1-indexed), top to bottom."""
        return tuple(r[j - 1] for r in self.rows if len(r) >= j)

    def insert(self, x: Entry) -> tuple["Tableau", tuple[int, int]]:
        """Schensted row insertion.

        The inserted value bumps the leftmost entry strictly bigger than it;
        equal entries are passed over, so repeats extend rows rightwards.

        >>> t, box = Tableau([[2, 5], [3]]).insert(2)
        >>> t.rows, box
        (((2, 2), (3, 5)), (2, 2))
        """
        rows = [list(r) for r in self.rows]
        box = _row_insert(rows, x)
        return Tableau(rows), box

    def is_standard(self) -> bool:
        """Rows and columns strictly increase and entries are exactly 1..k."""
        flat = sorted(e for r in self.rows for e in r)
        if flat != list(range(1, len(flat) + 1)):
            return False
        return all(
            r[j] < r[j + 1] for r in self.rows for j in range(len(r) - 1)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

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

    Returns the 1-indexed (row, column) of the added box.
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
    # A Fraction is in lowest terms with a positive denominator, so entries
    # sharing one denominator are ordered by their numerators, which compare
    # as ints instead of through Fraction's Python-level comparison.
    if len({e.denominator for r in rows for e in r}) == 1:
        rows = [[e.numerator for e in r] for r in rows]
    for i, r in enumerate(rows):
        if not r:
            raise ValueError("empty tableau row")
        if any(r[j] > r[j + 1] for j in range(len(r) - 1)):
            raise ValueError(f"row {i + 1} is not weakly increasing")
    for i in range(len(rows) - 1):
        if len(rows[i]) < len(rows[i + 1]):
            raise ValueError("row lengths must weakly decrease")
        if any(rows[i][j] >= rows[i + 1][j] for j in range(len(rows[i + 1]))):
            raise ValueError(f"column not strictly increasing at row {i + 2}")


def insertion_tableau(seq: Iterable[Entry]) -> Tableau:
    """Insertion tableau P of a sequence, with no recording tableau.

    >>> insertion_tableau([3, 5, 2, 2, 1]).rows
    ((1, 2), (2, 5), (3,))
    """
    rows: list[list[Entry]] = []
    for x in seq:
        _row_insert(rows, x)
    return Tableau(rows)


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
