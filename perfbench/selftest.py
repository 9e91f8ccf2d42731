"""Self-test of the answer checks: runs one small round of each workload,
injects wrong answers, and requires that each one is counted as failed, so
that failed_ratio rises from 0.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import work


class _Answer:
    """A stand-in report whose JSON is given."""

    def __init__(self, obj: dict):
        self._obj = obj

    def to_json(self) -> dict:
        return self._obj


def _edit(line: str, change) -> str:
    obj = json.loads(line)
    change(obj)
    return json.dumps(obj)


def _bump_series(obj):
    obj["series"][-1]["gk_dimension"] += 1


def _lower_first_entry(obj):
    row = obj["classes"][0]["tableau"][0]
    row[0] = str(Fraction(row[0]) - 1)


def _cli_injections(records):
    """Five wrong lines: one per kind of answer, and a wrong error code."""
    bad = copy.deepcopy(records)
    by_kind = {r["argv"][0]: r for r in bad}
    gkdim, herm = by_kind["gkdim"], by_kind["hermitian"]
    # a consistent but wrong report: gk = nu0 - a still holds
    gkdim["outputs"][0] = _edit(gkdim["outputs"][0], lambda o: o.update(
        a_value=o["a_value"] + 1, gk_dimension=o["gk_dimension"] - 1))
    ok = herm["expect"].index("ok")
    herm["outputs"][ok] = _edit(herm["outputs"][ok], lambda o: o.update(m=o["m"] + 1))
    err = herm["expect"].index("not-pq-dominant")
    herm["outputs"][err] = _edit(herm["outputs"][err],
                                 lambda o: o["error"].update(code="not-integral"))
    by_kind["series"]["outputs"][0] = _edit(by_kind["series"]["outputs"][0], _bump_series)
    unitary = by_kind["unitary"]
    unitary["outputs"][0] = _edit(unitary["outputs"][0],
                                  lambda o: o.update(gk_dimension=o["gk_dimension"] + 1))
    return bad, 5


def _large_injections(records):
    """A wrong tableau entry and a wrong m."""
    bad = [dict(r) for r in records]  # reports are immutable; they are replaced
    sl = next(r for r in bad if r["kind"] == "sl")
    pq = next(r for r in bad if r["kind"] == "pq")
    obj = sl["report"].to_json()
    _lower_first_entry(obj)
    sl["report"] = _Answer(obj)
    obj = pq["report"].to_json()
    obj["m"] += 1
    pq["report"] = _Answer(obj)
    return bad, 2


def _oracle_injections(records):
    """ok=false, a discrepancy, and a failing exit code."""
    good = records[0]
    obj = json.loads(good["stdout"])
    not_ok = dict(obj, ok=False)
    mismatch = copy.deepcopy(obj)
    mismatch["ranks"][-1]["discrepancies"] = [[2, 1]]
    bad = [dict(good, stdout=json.dumps(not_ok)),
           dict(good, stdout=json.dumps(mismatch)),
           dict(good, code=2)]
    return bad, 3


def run(gk, launcher) -> int:
    workloads = [
        (work.CliBatch(gk, 0), _cli_injections, None),
        (work.LargeN(gk, 0), _large_injections, None),
        (work.Oracle(launcher), _oracle_injections, [4]),
    ]
    ok = True
    for workload, inject, prepared in workloads:
        records = workload.execute(prepared or workload.prepare(0))
        attempted = workload.answers(records)
        clean = len(workload.check(records))
        bad, expected = inject(records)
        caught = len(workload.check(bad))
        passed = clean == 0 and caught == expected
        ok &= passed
        print(f"{workload.name:10} clean failed_ratio {clean / attempted:.4f}  "
              f"after {expected} injected: {caught / workload.answers(bad):.4f} "
              f"({caught} caught)  {'ok' if passed else 'FAILED'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
