"""The three workloads: how a round runs, how its answers are checked, and
which end-to-end numbers it yields.

A run repeats whole rounds until `--seconds` have passed, so every run does
the same mix of work.  Input generation happens between rounds and is not
timed.  Between timed operations, `Pace` samples the host's speed; every
record carries the time `t` of its midpoint, so that its latency can be
scaled by the host's speed at that moment.  Everything runs in this process,
one call at a time, except the cold children (set-up and oracle), which
launcher.py starts one at a time.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import answers
import inputs


def median_ms(ns_values) -> float:
    return statistics.median(ns_values) / 1e6


CHILD_TIMEOUT_S = 150.0

# The reported times are scaled to a host of fixed speed: a time is
# multiplied by a reference time over the median of the NEAREST samples of a
# fixed reference job taken closest to its midpoint.  In-process work is
# scaled by a chunk of Python work (REFERENCE_NS), a cold process by a cold
# process that imports a fixed set of standard modules (COLD_REFERENCE_NS).
REFERENCE_NS = 4_000_000
COLD_REFERENCE_NS = 150_000_000
NEAREST = 4
# The chunk's fixed weight: 60 entries in two classes, for answers.py's
# Schensted insertion.
_PACE_WEIGHT = inputs.sl_entries(random.Random("pace"), 60, 2, 40)
COLD_REFERENCE_ARGV = [sys.executable, "-c",
                       "import json, fractions, decimal, argparse, email.parser, "
                       "xml.dom.minidom, http.client, unittest, sqlite3, ctypes, ssl"]


def reference_chunk() -> int:
    """Fixed work that shares no code with the program; returns its ns.

    Half of it is an integer loop and half Schensted insertion of Fractions
    with JSON output.  The host's fast phases speed the first up less than
    the program, and the second more; their sum follows the program.
    """
    start = perf_counter_ns()
    x = 0
    for i in range(16_000):
        x = (x + i * i) % 1_000_003
    for _ in range(4):
        rows = [rows for _, rows in answers.reference_classes(_PACE_WEIGHT)]
        json.dumps([[[str(e) for e in row] for row in r] for r in rows])
    return perf_counter_ns() - start


class Pace:
    """The host's speed over a run, from a reference job timed between the
    timed operations.

    A shared host's speed shifts by up to a factor of two within a minute,
    and the program slows down with it; scaling each time by the speed
    measured around it keeps those shifts out of the metrics, while a change
    to the program moves them as before.  `measure` runs the reference job
    once and returns its ns.
    """

    def __init__(self, measure, reference_ns: int):
        self.measure = measure
        self.reference_ns = reference_ns
        self.times: list[int] = []
        self.durations: list[int] = []
        self.spent_ns = 0  # wall time of all samples, measure()'s overhead included

    def sample(self) -> None:
        start = perf_counter_ns()
        duration = self.measure()
        end = perf_counter_ns()
        self.times.append((start + end) // 2)
        self.durations.append(duration)
        self.spent_ns += end - start

    def scale(self, t_ns: int) -> float:
        i = bisect_left(self.times, t_ns)
        near = self.durations[max(0, i - NEAREST // 2): i + NEAREST // 2]
        return self.reference_ns / statistics.median(near)


class Launcher:
    """Client of launcher.py, which starts every timed child process so that
    the children's peak RSS is their own."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # Every timed child's time is scaled by cold reference children
        # started around it.
        self.pace = Pace(lambda: self.spawn(COLD_REFERENCE_ARGV)["wall_ns"],
                         COLD_REFERENCE_NS)

    def spawn(self, argv, stdin_text: str = "", timeout: float = CHILD_TIMEOUT_S) -> dict:
        self._proc.stdin.write(json.dumps({"argv": argv, "stdin": stdin_text,
                                           "timeout": timeout}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        result = json.loads(line)
        if "error" in result:
            raise RuntimeError(f"child {argv[1:]} failed: {result['error']}")
        return result

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _LineSource:
    """stdin for the CLI: hands out one line at a time, stamping each read."""

    def __init__(self, lines, tracer=None):
        self._lines = iter(lines)
        self._tracer = tracer
        self.stamps: list[int] = []

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._lines)
        if self._tracer is not None:
            self._tracer.op += 1
        self.stamps.append(perf_counter_ns())
        return line + "\n"


class _LineSink:
    """stdout for the CLI: keeps the text, stamping each completed line."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[int] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        for _ in range(text.count("\n")):
            self.stamps.append(perf_counter_ns())
        return len(text)

    def flush(self) -> None:
        pass

    def lines(self) -> list[str]:
        return "".join(self.parts).splitlines()


class CliBatch:
    """One closed-loop caller driving `gkdim.cli.main` over in-memory streams.

    An answer is one output line.  Light answers are the `gkdim`,
    `hermitian` and `unitary` lines, heavy answers the `series` lines.
    """

    name = "cli-batch"
    cold = False  # answers come from this process

    def __init__(self, gk, seed: int):
        self.gk = gk
        self.seed = seed

    def prepare(self, rnd: int):
        return inputs.cli_round(self.seed, rnd)

    def execute(self, prepared, tracer=None, pace=None) -> list[dict]:
        records = []
        cli = sys.modules["gkdim.cli"]
        for argv, lines, expect in prepared:
            if pace is not None:
                pace.sample()
            source, sink = _LineSource(lines, tracer), _LineSink()
            saved = sys.stdin, sys.stdout, sys.stderr
            sys.stdin, sys.stdout, sys.stderr = source, sink, _LineSink()
            error = None
            start = perf_counter_ns()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash fails every line of the invocation
                code, error = None, repr(exc)
            finally:
                end = perf_counter_ns()
                stderr = sys.stderr
                sys.stdin, sys.stdout, sys.stderr = saved
            outputs = sink.lines()
            if tracer is not None:
                tracer.counts["cli.lines"] += len(outputs)
                tracer.counts["cli.error_lines"] += sum(1 for o in outputs
                                                        if o.startswith('{"error"'))
            latencies = [w - r for r, w in zip(source.stamps, sink.stamps)]
            records.append({"argv": argv, "lines": lines, "expect": expect,
                            "outputs": outputs, "latencies": latencies, "code": code,
                            "stderr": "".join(stderr.parts), "error": error,
                            "t": (start + end) // 2})
        return records

    @staticmethod
    def answers(records) -> int:
        return sum(len(r["lines"]) for r in records)

    def _check_line(self, argv, line, expect, output) -> str | None:
        obj = json.loads(output)
        if expect != "ok":
            return answers.check_error(expect, obj)
        entries = answers.parse_entries(line)
        if argv[0] == "gkdim":
            return answers.check_sl(entries, obj)
        p, q = (int(t) for t in argv[argv.index("--pq") + 1].split(","))
        if argv[0] == "hermitian":
            return answers.check_pq(self.gk, entries, p, q, obj)
        if argv[0] == "series":
            return answers.check_series(entries, p, q, inputs.Z_RANGE, obj)
        z = Fraction(next(a for a in argv if a.startswith("--z=")).removeprefix("--z="))
        return answers.check_unitary(entries, p, q, z, obj)

    def check(self, records) -> list[str]:
        failures = []
        for r in records:
            expected_code = 2 if any(e != "ok" for e in r["expect"]) else 0
            if r["error"] or r["code"] != expected_code or r["stderr"]:
                failures.append(f"{r['argv'][0]}: exit {r['code']} {r['error'] or r['stderr']}")
            for k, line in enumerate(r["lines"]):
                if k >= len(r["outputs"]):
                    failures.append(f"{r['argv'][0]}: no answer for {line}")
                    continue
                try:
                    reason = self._check_line(r["argv"], line, r["expect"][k], r["outputs"][k])
                except Exception as exc:  # malformed answer
                    reason = f"check raised {exc!r}"
                if reason:
                    failures.append(f"{r['argv'][0]} {line}: {reason}")
        return failures

    @staticmethod
    def canonical(records) -> list[str]:
        return [o for r in records for o in r["outputs"]]

    @staticmethod
    def latencies(records, scale) -> tuple[list[float], list[float]]:
        light, heavy = [], []
        for r in records:
            k = scale(r["t"])
            (heavy if r["argv"][0] == "series" else light).extend(x * k for x in r["latencies"])
        return light, heavy

    def setup_child(self):
        """A cold `gkdim --batch` on the first line of round 0, and the check
        of its answer."""
        _, lines, _ = self.prepare(0)[0]
        entries = answers.parse_entries(lines[0])
        return ([sys.executable, "-m", "gkdim.cli", "gkdim", "--batch"], lines[0] + "\n",
                lambda out: answers.check_sl(entries, json.loads(out)))


class LargeN:
    """Library calls at n=1000: gk_dimension (light) and gk_pq (heavy)."""

    name = "large-n"
    cold = False

    def __init__(self, gk, seed: int):
        self.gk = gk
        self.seed = seed

    def prepare(self, rnd: int):
        gk = self.gk
        return [(kind, entries, pq, gk.Weight(entries),
                 gk.PQContext(*pq) if pq else None)
                for kind, entries, pq in inputs.large_round(self.seed, rnd)]

    def execute(self, prepared, tracer=None, pace=None) -> list[dict]:
        gk = self.gk
        records = []
        for kind, entries, pq, weight, ctx in prepared:
            if pace is not None:
                pace.sample()
            if tracer is not None:
                tracer.op += 1
            error = None
            start = perf_counter_ns()
            try:
                report = gk.gk_dimension(weight) if kind == "sl" else gk.gk_pq(weight, ctx)
            except Exception as exc:  # counted as a failed answer
                report, error = None, repr(exc)
            end = perf_counter_ns()
            records.append({"kind": kind, "entries": entries, "pq": pq, "report": report,
                            "error": error, "latency": end - start, "t": (start + end) // 2})
        return records

    @staticmethod
    def answers(records) -> int:
        return len(records)

    def check(self, records) -> list[str]:
        failures = []
        for r in records:
            if r["error"]:
                failures.append(f"{r['kind']} call raised {r['error']}")
                continue
            obj = r["report"].to_json()
            try:
                if r["kind"] == "sl":
                    reason = answers.check_sl(r["entries"], obj)
                else:
                    reason = answers.check_pq(self.gk, r["entries"], *r["pq"], obj)
            except Exception as exc:  # malformed answer
                reason = f"check raised {exc!r}"
            if reason:
                failures.append(f"{r['kind']} n={len(r['entries'])}: {reason}")
        return failures

    @staticmethod
    def canonical(records) -> list[str]:
        return [json.dumps(r["report"].to_json() if r["report"] else r["error"],
                           sort_keys=True) for r in records]

    @staticmethod
    def latencies(records, scale) -> tuple[list[float], list[float]]:
        light = [r["latency"] * scale(r["t"]) for r in records if r["kind"] == "sl"]
        heavy = [r["latency"] * scale(r["t"]) for r in records if r["kind"] == "pq"]
        return light, heavy

    def setup_child(self):
        """A cold interpreter that parses and answers the first sl(n) call."""
        _, entries, _ = inputs.large_round(self.seed, 0)[0]
        code = ("import sys, gkdim; w = gkdim.parse_weight(sys.stdin.readline()); "
                "print(gkdim.gk_dimension(w).gk_dimension, flush=True)")
        expected = str(answers.reference_gk(entries))
        return ([sys.executable, "-c", code], ",".join(str(e) for e in entries) + "\n",
                lambda out: None if out == expected else f"GK dimension {out}, reference {expected}")


class Oracle:
    """Cold `gkdim verify-oracle` children: rank 4 (light) and rank 5 (heavy).

    The oracle's caches live only as long as one process, so every user
    invocation pays for the whole table; each child is timed from spawn to
    exit, and its peak RSS comes from wait4.
    """

    name = "oracle"
    cold = True  # answers come from cold children

    def __init__(self, launcher: Launcher):
        self.launcher = launcher  # the oracle has no inputs, so it takes no seed

    def prepare(self, rnd: int):
        return list(inputs.ORACLE_RANKS)

    def execute(self, prepared, tracer=None, pace=None) -> list[dict]:
        records = []
        for rank in prepared:
            if pace is not None:
                pace.sample()
            start = perf_counter_ns()
            child = self.launcher.spawn([sys.executable, "-m", "gkdim.cli",
                                         "verify-oracle", "--rank", str(rank)])
            records.append({"rank": rank, "latency": child["wall_ns"],
                            "rss_kb": child["rss_kb"], "code": child["code"],
                            "stdout": child["stdout"],
                            "t": (start + perf_counter_ns()) // 2})
        return records

    @staticmethod
    def answers(records) -> int:
        return len(records)

    @staticmethod
    def check(records) -> list[str]:
        failures = []
        for r in records:
            reason = answers.check_oracle(r["rank"], r["code"], r["stdout"])
            if reason:
                failures.append(f"rank {r['rank']}: {reason}")
        return failures

    @staticmethod
    def canonical(records) -> list[str]:
        return [r["stdout"].strip() for r in records]

    @staticmethod
    def latencies(records, scale) -> tuple[list[float], list[float]]:
        heavy_rank = max(inputs.ORACLE_RANKS)
        light = [r["latency"] * scale(r["t"]) for r in records if r["rank"] != heavy_rank]
        heavy = [r["latency"] * scale(r["t"]) for r in records if r["rank"] == heavy_rank]
        return light, heavy

    def setup_child(self):
        """Import only: the oracle's set-up is loading the package."""
        return ([sys.executable, "-c", "import gkdim.cli; print('ready', flush=True)"], "",
                lambda out: None if out == "ready" else f"import printed {out!r}")


def run_rounds(workload, seconds: float | None = None, rounds: int | None = None,
               tracer=None, between=None, pace=None):
    """Execute whole rounds: for `seconds`, or exactly `rounds` of them.

    `between(elapsed seconds)` runs before each round, untimed; `pace` is
    sampled before each operation.  Returns (records of each round,
    (midpoint ns, busy ns) of each round); busy time excludes `between`, the
    pace samples and the generation of each round's inputs.
    """
    by_round, rounds_ns, rnd = [], [], 0
    begin = perf_counter_ns()
    deadline = begin + int((seconds or 0) * 1e9)
    while (rnd < rounds) if rounds is not None else (rnd == 0 or perf_counter_ns() < deadline):
        if between is not None:
            between((perf_counter_ns() - begin) / 1e9)
        prepared = workload.prepare(rnd)
        spent = pace.spent_ns if pace is not None else 0
        start = perf_counter_ns()
        by_round.append(workload.execute(prepared, tracer, pace))
        end = perf_counter_ns()
        if pace is not None:
            spent = pace.spent_ns - spent
        rounds_ns.append(((start + end) // 2, end - start - spent))
        rnd += 1
    return by_round, rounds_ns
