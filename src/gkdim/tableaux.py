"""Young tableaux, Schensted row insertion and column statistics.

Entries are ``Fraction``s or ``int``s.  ``Shape`` and ``Tableau`` are
immutable one-field ``NamedTuple``s; insertion returns a new tableau and the
1-indexed (row, column) of the added box.  Each tableau is validated once.
The constructor validates the rows it is given.  When all their entries share
one denominator, as the entries of one congruence class do, the checks compare
numerators, which are ints; otherwise they compare values.

`_keyed_insertion_tableau` inserts int keys in place of the entries they
stand for, validates the int rows, and relabels each key by its entry without
validating again.  Its contract: equal keys stand for equal entries, and
keys compare as their entries do, so the relabelling is strictly
order-preserving and carries a semistandard tableau of keys to a semistandard
tableau of entries with the same shape.  The numerators of one congruence
class are such keys, since its entries share one reduced denominator (Knuth
1970, standardization), and ``bisect_right`` on ints keeps Schensted's rule
that an inserted entry passes over equal ones.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import ge, gt
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    # In annotations only, so a caller that inserts ints, as the oracle
    # does, never loads `fractions`.
    from fractions import Fraction

    Entry = Fraction | int


class Shape(NamedTuple("Shape", [("column_sizes", tuple[int, ...])])):
    """A partition, viewed through its column sizes.

    >>> Shape.from_row_lengths([2, 2, 1]).column_sizes
    (3, 2)
    >>> Shape((3, 2)).row_lengths
    (2, 2, 1)
    """

    __slots__ = ()

    def __new__(cls, column_sizes: Iterable[int]):
        cs = tuple(int(c) for c in column_sizes)
        if any(c <= 0 for c in cs):
            raise ValueError("column sizes must be positive")
        if any(cs[i] < cs[i + 1] for i in range(len(cs) - 1)):
            raise ValueError("column sizes must weakly decrease")
        return tuple.__new__(cls, (cs,))

    @classmethod
    def from_row_lengths(cls, rows: Sequence[int]) -> "Shape":
        return cls(
            sum(1 for r in rows if r > j) for j in range(max(rows, default=0))
        )

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


class Tableau(NamedTuple("Tableau", [("rows", "tuple[tuple[Entry, ...], ...]")])):
    """A semistandard Young tableau (weakly increasing rows, strictly
    increasing columns, row lengths weakly decreasing)."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Sequence[Entry]] = ()):
        rows = tuple(map(tuple, rows))
        _validate(_comparison_rows(rows))
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


def _comparison_rows(
    rows: Sequence[Sequence[Entry]],
) -> Sequence[Sequence[Entry]]:
    """Rows ordered as `rows` are, as ints where that is cheap to see.

    A Fraction is in lowest terms with a positive denominator, so entries
    sharing one denominator are ordered by their numerators, which compare
    as ints instead of through Fraction's Python-level comparison.  Rows of
    ints are their own numerators and are returned as they are.  Only rows
    that start with an int are tested for that, so rows of Fractions pay
    for one type check."""
    if rows and rows[0] and type(rows[0][0]) is int and all(
            type(e) is int for r in rows for e in r):
        return rows
    if len({e.denominator for r in rows for e in r}) == 1:
        return [[e.numerator for e in r] for r in rows]
    return rows


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

    Each entry costs one ``bisect`` per row it passes, so a strictly
    decreasing sequence, which builds one row per entry, costs O(n^2)
    comparisons: 0.3-0.6, 1.5-2.1 and 4.9-7.3 s for n = 1000, 2000 and 4000
    `Fraction`s (2 vCPU, Python 3.11.7), and about 0.07, 0.2-0.3 and 0.85 s
    through int keys, as `gk_dimension` inserts.

    >>> insertion_tableau([3, 5, 2, 2, 1]).rows
    ((1, 2), (2, 5), (3,))
    """
    rows: list[list[Entry]] = []
    for x in seq:
        _row_insert(rows, x)
    return Tableau(rows)


def _keyed_insertion_tableau(
    keys: Sequence[int], entries: Sequence[Entry]
) -> Tableau:
    """Insertion tableau P of `entries`, computed on their int `keys`.

    ``keys[i]`` stands for ``entries[i]``, under the contract in the module
    docstring.  The int rows are validated once; the tableau of entries is
    built from them without a second validation.

    >>> from fractions import Fraction as F
    >>> e = [F(7, 2), F(1, 2), F(7, 2), F(-1, 2)]
    >>> _keyed_insertion_tableau([x.numerator for x in e], e).rows
    ((Fraction(-1, 2), Fraction(7, 2)), (Fraction(1, 2),), (Fraction(7, 2),))
    """
    rows: list[list[int]] = []
    for k in keys:
        _row_insert(rows, k)
    _validate(rows)
    label = dict(zip(keys, entries)).__getitem__
    return tuple.__new__(Tableau, (tuple(tuple(map(label, r)) for r in rows),))


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
