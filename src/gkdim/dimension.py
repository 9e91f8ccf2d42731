"""GK dimension of a simple highest weight sl(n)-module, for any weight.

The entries of lambda+rho split into congruence classes modulo Z; Schensted
insertion of each class subsequence yields one tableau per class, and

    GKdim = n(n-1)/2 - sum of column statistics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .tableaux import Tableau, _relabel, insertion_tableau
from .weights import Weight, congruence_key


class CongruenceClass(NamedTuple):
    """Positions (1-based, increasing) whose entries differ by integers,
    with the entry subsequence in original order."""

    indices: tuple[int, ...]
    entries: tuple[Fraction, ...]


def congruence_decomposition(w: Weight) -> list[CongruenceClass]:
    """Partition of the positions, ordered by first occurrence."""
    # Dicts keep insertion order, so classes come out by first occurrence.
    classes: dict[tuple[int, int], tuple[list[int], list[Fraction]]] = {}
    for pos, e in enumerate(w.entries, start=1):
        key = congruence_key(e)
        cls = classes.get(key)
        if cls is None:
            classes[key] = ([pos], [e])
        else:
            cls[0].append(pos)
            cls[1].append(e)
    return [CongruenceClass(tuple(i), tuple(e)) for i, e in classes.values()]


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
    each class is validated once.  Insertion costs one ``bisect`` per row an
    entry passes, so a strictly decreasing class of n entries, which builds
    n rows, costs O(n^2) int comparisons: about 0.07, 0.2-0.3 and 0.85 s at
    n = 1000, 2000 and 4000 (2 vCPU, Python 3.11.7).
    """
    classes = congruence_decomposition(w)
    tableaux: list[Tableau] = []
    for c in classes:
        keys = [e.numerator for e in c.entries]
        label = dict(zip(keys, c.entries)).__getitem__
        tableaux.append(_relabel(insertion_tableau(keys), label))
    total = sum(t.a_value() for t in tableaux)
    nu0 = w.n * (w.n - 1) // 2
    return GKReport(
        n=w.n,
        nu0=nu0,
        a_value=total,
        gk_dimension=nu0 - total,
        integral=len(classes) == 1,
        classes=tuple(classes),
        tableaux=tuple(tableaux),
    )
