"""Answer checks, run after the timed phase.

sl(n) answers are compared with a small Schensted insertion kept here, which
shares no code with the program.  su(p,q) answers must agree across all four
of the paper's computations of m.  Each check returns None for a correct
answer or a one-line reason.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from fractions import Fraction


def parse_entries(line: str) -> list[Fraction]:
    return [Fraction(t) for t in line.split(",")]


def reference_classes(entries) -> list[tuple[list[int], list[list[Fraction]]]]:
    """(1-based positions, insertion tableau rows) per congruence class,
    classes ordered by first occurrence."""
    classes: list[tuple[Fraction, list[int], list[list[Fraction]]]] = []
    for pos, e in enumerate(entries, start=1):
        for base, positions, rows in classes:
            if (e - base).denominator == 1:
                break
        else:
            base, positions, rows = e, [], []
            classes.append((base, positions, rows))
        positions.append(pos)
        x = e
        for row in rows:
            j = bisect_right(row, x)
            if j == len(row):
                row.append(x)
                break
            x, row[j] = row[j], x
        else:
            rows.append([x])
    return [(positions, rows) for _, positions, rows in classes]


def column_statistic(rows) -> int:
    width = len(rows[0]) if rows else 0
    sizes = [sum(1 for r in rows if len(r) > j) for j in range(width)]
    return sum(c * (c - 1) // 2 for c in sizes)


def reference_gk(entries) -> int:
    n = len(entries)
    a = sum(column_statistic(rows) for _, rows in reference_classes(entries))
    return n * (n - 1) // 2 - a


def _strings(rows) -> list[list[str]]:
    return [[str(e) for e in r] for r in rows]


def check_sl(entries, obj: dict) -> str | None:
    """A `gkdim` answer (the JSON of a GK report) against the reference."""
    if "error" in obj:
        return f"unexpected error {obj['error'].get('code')}"
    n = len(entries)
    classes = reference_classes(entries)
    nu0 = n * (n - 1) // 2
    a = sum(column_statistic(rows) for _, rows in classes)
    got_classes = obj.get("classes", [])
    if sum(sum(len(r) for r in c["tableau"]) for c in got_classes) != n:
        return "tableau sizes do not sum to n"
    if obj.get("gk_dimension") != obj.get("nu0", 0) - obj.get("a_value", 0):
        return "gk_dimension != n(n-1)/2 - a"
    expected = {"n": n, "nu0": nu0, "a_value": a, "gk_dimension": nu0 - a,
                "integral": len(classes) == 1}
    for key, value in expected.items():
        if obj.get(key) != value:
            return f"{key}: got {obj.get(key)!r}, reference {value!r}"
    if len(got_classes) != len(classes):
        return f"{len(got_classes)} classes, reference {len(classes)}"
    for got, (positions, rows) in zip(got_classes, classes):
        if got["indices"] != positions or got["tableau"] != _strings(rows):
            return f"tableau of class at {positions} differs from reference"
    return None


def check_pq(gk, entries, p: int, q: int, obj: dict) -> str | None:
    """A `hermitian` answer: all four computations of m must agree."""
    if "error" in obj:
        return f"unexpected error {obj['error'].get('code')}"
    n = p + q
    if (entries[0] - entries[p]).denominator != 1:
        r = min(p, q)
        expected = {"integral": False, "m": r, "second_column": None, "xi": None,
                    "gk_dimension": p * q, "orbit_index": r,
                    "orbit_dimension": r * (n - r)}
        if reference_gk(entries) != p * q:
            return "reference GK dimension of a non-integral split is not pq"
    else:
        (_, rows), = reference_classes(entries)
        second = [row[1] for row in rows if len(row) > 1]
        w, ctx = gk.Weight(entries), gk.PQContext(p, q)
        deletion = gk.second_column_by_deletion(w, ctx)
        xi = gk.xi_signature(w, ctx)
        m_ball = gk.ball_model_m(xi)
        m_algebra = gk.algebra_normal_form(gk.AlgebraWord.from_signature(xi)).v_exp
        m = len(second)
        if deletion != second:
            return "deletion recursion disagrees with the reference tableau"
        if m_ball != m or m_algebra != m:
            return f"m: tableau {m}, ball model {m_ball}, algebra {m_algebra}"
        expected = {"integral": True, "m": m, "second_column": [str(e) for e in second],
                    "xi": list(xi.runs), "gk_dimension": m * (n - m),
                    "orbit_index": m, "orbit_dimension": m * (n - m)}
    if (obj.get("p"), obj.get("q")) != (p, q):
        return "wrong (p, q) in answer"
    for key, value in expected.items():
        if obj.get(key) != value:
            return f"{key}: got {obj.get(key)!r}, expected {value!r}"
    return None


def check_error(code: str, obj: dict) -> str | None:
    got = obj.get("error", {}).get("code") if isinstance(obj.get("error"), dict) else None
    return None if got == code else f"expected error {code}, got {got or 'an answer'}"


def _shifted(entries, p: int, z) -> list[Fraction]:
    return [e + z if i < p else e for i, e in enumerate(entries)]


def check_series(entries, p: int, q: int, z_range, obj: dict) -> str | None:
    """Weakly decreasing, zero past the cross gap, and equal to the reference."""
    if "error" in obj:
        return f"unexpected error {obj['error'].get('code')}"
    zs = list(range(z_range[0], z_range[1] + 1))
    series = obj.get("series", [])
    if [s.get("z") for s in series] != zs:
        return "series does not cover the z-range"
    values = [s["gk_dimension"] for s in series]
    if any(values[k] < values[k + 1] for k in range(len(values) - 1)):
        return "series is not weakly decreasing"
    if (entries[0] - entries[p]).denominator == 1:
        gap = entries[p] - entries[p - 1] + 1
        if any(v for z, v in zip(zs, values) if z > gap):
            return "series is nonzero past the cross gap"
    for z, v in zip(zs, values):
        if v != reference_gk(_shifted(entries, p, z)):
            return f"GK dimension at z={z} differs from reference"
    return None


def check_unitary(entries, p: int, q: int, z: Fraction, obj: dict) -> str | None:
    """Thresholds from the head/tail runs, and the closed form at z."""
    if "error" in obj:
        return f"unexpected error {obj['error'].get('code')}"
    n = p + q
    p_prime = 1
    while p_prime < p and entries[p_prime - 1] - entries[p_prime] == 1:
        p_prime += 1
    q_prime = 1
    while q_prime < q and entries[-q_prime - 1] - entries[-q_prime] == 1:
        q_prime += 1
    if z.denominator != 1 or z < max(p, q):
        closed = p * q
    else:
        closed = int(z + 1) * int(n - z - 1)
    expected = {"p_prime": p_prime, "q_prime": q_prime,
                "threshold_real": max(p_prime, q_prime),
                "threshold_int": p_prime + q_prime - 1,
                "z": str(z), "gk_dimension": closed}
    for key, value in expected.items():
        if obj.get(key) != value:
            return f"{key}: got {obj.get(key)!r}, expected {value!r}"
    if reference_gk(_shifted(entries, p, z)) != closed:
        return "closed form differs from the reference GK dimension"
    return None


def check_oracle(rank: int, returncode: int, stdout: str) -> str | None:
    """`verify-oracle` must report ok with no discrepancies at every rank."""
    if returncode != 0:
        return f"verify-oracle exited with {returncode}"
    try:
        obj = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "verify-oracle printed no JSON"
    ranks = obj.get("ranks", [])
    if obj.get("ok") is not True:
        return "verify-oracle reported ok=false"
    if [r.get("n") for r in ranks] != list(range(1, rank + 1)):
        return "verify-oracle did not check every rank"
    for r in ranks:
        if r.get("checked") != math.factorial(r["n"]) or r.get("discrepancies"):
            return f"rank {r['n']}: discrepancies {r.get('discrepancies')}"
    return None
