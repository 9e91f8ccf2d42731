"""GK dimension of a simple highest weight sl(n)-module, for any weight.

The entries of lambda+rho split into congruence classes modulo Z; Schensted
insertion of each class subsequence yields one tableau per class, and

    GKdim = n(n-1)/2 - sum of column statistics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .tableaux import Tableau, _relabel, insertion_tableau
from .weights import Weight


class CongruenceClass(NamedTuple):
    """Positions (1-based, increasing) whose entries differ by integers,
    with the entry subsequence in original order."""

    indices: tuple[int, ...]
    entries: tuple[Fraction, ...]


def congruence_decomposition(w: Weight) -> list[CongruenceClass]:
    """Partition of the positions, ordered by first occurrence."""
    return [c for c, _ in _split(w)]


def _split(w: Weight) -> list[tuple[CongruenceClass, list[int]]]:
    """Each congruence class of w, by first occurrence, with its entries'
    numerators.

    Each entry's numerator and denominator are read once; the class key is
    `weights.congruence_key` of the entry, computed from them.
    """
    # Dicts keep insertion order, so classes come out by first occurrence.
    classes: dict[tuple[int, int], tuple[list[int], list[Fraction], list[int]]] = {}
    for pos, e in enumerate(w.entries, start=1):
        num, den = e.numerator, e.denominator
        key = (num % den, den)
        cls = classes.get(key)
        if cls is None:
            classes[key] = ([pos], [e], [num])
        else:
            cls[0].append(pos)
            cls[1].append(e)
            cls[2].append(num)
    return [
        (CongruenceClass(tuple(i), tuple(e)), keys)
        for i, e, keys in classes.values()
    ]


def tableau_collection(w: Weight) -> list[Tableau]:
    """The insertion tableau of each congruence class, in class order."""
    return list(gk_dimension(w).tableaux)


def a_value(w: Weight) -> int:
    """Total column statistic over the tableau collection."""
    return gk_dimension(w).a_value


class GKReport(NamedTuple):
    n: int
    nu0: int
    a_value: int
    gk_dimension: int
    integral: bool
    classes: tuple[CongruenceClass, ...]
    tableaux: tuple[Tableau, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "nu0": self.nu0,
            "a_value": self.a_value,
            "gk_dimension": self.gk_dimension,
            "integral": self.integral,
            "classes": [
                {"indices": list(c.indices), "tableau": t.to_json_rows()}
                for c, t in zip(self.classes, self.tableaux)
            ],
        }


def gk_dimension(w: Weight) -> GKReport:
    """Full report: n, n(n-1)/2, the a-value and the GK dimension.

    The a-value is the column statistic of each tableau, summed.  It is read
    off the row lengths as n(lambda) = sum of (i-1)*lambda_i, which equals
    the sum of C(c, 2) over the column sizes c (Macdonald I (1.6)); see
    `Tableau.a_value`.

    Each class is inserted as its entries' numerators, which are ints: the
    entries of one class share one reduced denominator, so their numerators
    order them, ties included (Knuth 1970, standardization).  The tableau of
    numerators is then relabelled by the class's own `Fraction`s, a strictly
    increasing map (`tableaux._relabel`), so no `Fraction` is compared and
    each class is validated once.  Each class costs the int comparisons
    bounded in `insertion_tableau`'s docstring; a strictly decreasing class
    of n entries, which builds n rows, costs O(n^2).
    """
    split = _split(w)
    tableaux: list[Tableau] = []
    for c, keys in split:
        label = dict(zip(keys, c.entries)).__getitem__
        tableaux.append(_relabel(insertion_tableau(keys), label))
    total = sum(t.a_value() for t in tableaux)
    nu0 = w.n * (w.n - 1) // 2
    return GKReport(
        n=w.n,
        nu0=nu0,
        a_value=total,
        gk_dimension=nu0 - total,
        integral=len(split) == 1,
        classes=tuple(c for c, _ in split),
        tableaux=tuple(tableaux),
    )
