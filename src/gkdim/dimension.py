"""GK dimension of a simple highest weight sl(n)-module, for any weight.

The entries of lambda+rho split into congruence classes modulo Z; Schensted
insertion of each class subsequence yields one tableau per class, and

    GKdim = n(n-1)/2 - sum of column statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .tableaux import Tableau, rs_pair
from .weights import Weight


@dataclass(frozen=True)
class CongruenceClass:
    """Positions (1-based, increasing) whose entries differ by integers,
    with the entry subsequence in original order."""

    indices: tuple[int, ...]
    entries: tuple[Fraction, ...]


def congruence_decomposition(w: Weight) -> list[CongruenceClass]:
    """Partition of the positions, ordered by first occurrence."""
    classes: list[tuple[list[int], list[Fraction]]] = []
    for pos, e in enumerate(w.entries, start=1):
        for idx, ents in classes:
            if (e - ents[0]).denominator == 1:
                idx.append(pos)
                ents.append(e)
                break
        else:
            classes.append(([pos], [e]))
    return [CongruenceClass(tuple(i), tuple(e)) for i, e in classes]


def tableau_collection(w: Weight) -> list[Tableau]:
    """The insertion tableau of each congruence class, in class order."""
    return list(gk_dimension(w).tableaux)


def a_value(w: Weight) -> int:
    """Total column statistic over the tableau collection."""
    return gk_dimension(w).a_value


@dataclass(frozen=True)
class GKReport:
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
    """Full report: n, n(n-1)/2, the a-value and the GK dimension."""
    classes = congruence_decomposition(w)
    tableaux = tuple(rs_pair(c.entries)[0] for c in classes)
    total = sum(t.shape().column_statistic() for t in tableaux)
    nu0 = w.n * (w.n - 1) // 2
    return GKReport(
        n=w.n,
        nu0=nu0,
        a_value=total,
        gk_dimension=nu0 - total,
        integral=w.is_integral(),
        classes=tuple(classes),
        tableaux=tableaux,
    )
