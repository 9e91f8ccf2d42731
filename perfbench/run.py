"""The gkdim benchmark: three seeded workloads, answer checks, and a traced
per-layer run.

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run it from anywhere inside a checkout; the program is imported from the
checkout's `src/`, never from an installed copy, and nothing is built.

Workloads (parameters in inputs.py, reasons in BENCHMARK.json):
  cli-batch  one closed-loop caller drives gkdim.cli.main over in-memory
             stdin/stdout: rounds of `gkdim`, `hermitian`, `series` and
             `unitary` --batch invocations.
  large-n    library calls at n=1000: gk_dimension and gk_pq.
  oracle     cold `gkdim verify-oracle` children, rank 4 and rank 5.

--trace 0 measures whole rounds for --seconds and reports the end-to-end
metrics; every metric is defined for every workload.  Every time is scaled
to a host of fixed speed (work.Pace): a fixed reference job is timed between
the timed operations, a Python chunk for in-process work and a cold child
for cold processes, and each time is multiplied by the job's reference time
over its median time around it.  The unscaled values go to the run record.
  setup_s           median, over 7 fresh interpreters spread over the run,
                    of the time from spawn to the workload's first answer
                    (oracle: to the end of `import gkdim.cli`).  One untimed
                    interpreter runs first so that bytecode caches exist.
  throughput_per_s  answers per second of busy time; an answer is an output
                    line (cli-batch), a library call (large-n) or an oracle
                    report (oracle).
  light_p50_ms      median latency of the cheap answers: gkdim, hermitian
                    and unitary lines; gk_dimension calls; rank-4 children.
  heavy_p50_ms      median latency of the costly answers: series lines;
                    gk_pq calls; rank-5 children.
  peak_rss_mb       median peak RSS (from wait4) of cold processes answering
                    the workload: the set-up children for cli-batch and
                    large-n, the rank-5 children for oracle.  This process
                    is never measured: it holds the benchmark's own records.
--trace 1 runs a fixed number of rounds untraced, then the same rounds with
every layer wrapped (spans.py), and reports the per-layer metrics named in
BENCHMARK.json; end-to-end metrics never come from a traced run.

Every answer is checked after the timed phase (answers.py).  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A full record, and in a traced run every span, is written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import inputs
import spans
import work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("cli-batch", "large-n", "oracle")
SETUP_REPS = 7
IMPORT_REPS = 3
# Rounds of a traced run, fixed so that counts repeat exactly across runs
# and commits: 4 to 10 s of untraced work each at the first baseline.
TRACE_ROUNDS = {"cli-batch": 40, "large-n": 3, "oracle": 1}
CHECK_PHASE = ("hermitian.second_column_by_deletion", "hermitian.algebra_normal_form")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="inject wrong answers and check that they are caught")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def import_program():
    """Import gkdim from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    import gkdim
    import gkdim.cli  # noqa: F401  (the cli-batch and oracle entry point)

    if SRC.resolve() not in Path(gkdim.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported gkdim from {gkdim.__file__}, not {SRC}")
    return gkdim


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine(gk) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    numpy = sys.modules.get("numpy")
    kernels = sys.modules.get("gkdim.kernels")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "gkdim_version": getattr(gk, "__version__", None),
        "numpy_version": getattr(numpy, "__version__", None),
        "kernel_backend": kernels.backend_name() if kernels else None,
    }


def pace_summary(pace) -> dict | None:
    """A reference job's times over the run, so that slow and fast phases of
    the host can be seen."""
    ms = sorted(d / 1e6 for d in pace.durations)
    if not ms:
        return None
    return {"count": len(ms), "min": ms[0], "median": statistics.median(ms), "max": ms[-1],
            "reference": pace.reference_ns / 1e6}


def make_workload(name: str, gk, seed: int, launcher):
    if name == "cli-batch":
        return work.CliBatch(gk, seed)
    if name == "large-n":
        return work.LargeN(gk, seed)
    return work.Oracle(launcher)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def unscaled(_t_ns: int) -> float:
    return 1.0


def measured_run(workload, launcher, seconds: float, chunk) -> dict:
    argv, stdin_text, check = workload.setup_child()
    launcher.spawn(argv, stdin_text)  # untimed: leaves bytecode caches behind
    cold = launcher.pace
    setup = []

    def between_rounds(elapsed_s: float) -> None:
        # Set-up children are spread over the run, so that they meet the
        # same slow and fast phases of a shared machine as the rounds do.
        while len(setup) < SETUP_REPS and elapsed_s >= len(setup) * seconds / SETUP_REPS:
            cold.sample()
            start = perf_counter_ns()
            child = launcher.spawn(argv, stdin_text)
            setup.append(dict(child, t=(start + perf_counter_ns()) // 2))
            cold.sample()

    pace = cold if workload.cold else chunk
    by_round, rounds_ns = work.run_rounds(workload, seconds=seconds, between=between_rounds,
                                          pace=pace)
    between_rounds(float("inf"))
    records = [r for rs in by_round for r in rs]
    setup_ns = [c["first_ns"] if c["first_ns"] is not None else c["wall_ns"] for c in setup]
    failures = []
    for child in setup:
        first = child["stdout"].splitlines()[0] if child["stdout"] else ""
        reason = check(first) if child["code"] == 0 and first else f"exit {child['code']}"
        if reason:
            failures.append(f"setup answer: {reason}")
    if workload.name == "oracle":
        heavy_rank = max(inputs.ORACLE_RANKS)
        rss_kb = statistics.median(r["rss_kb"] for r in records if r["rank"] == heavy_rank)
    else:
        rss_kb = statistics.median(c["rss_kb"] for c in setup)
    count = workload.answers(records)
    failures += workload.check(records)
    metrics = {}
    for kind, scale, setup_scale in (("unscaled", unscaled, unscaled),
                                     ("scaled", pace.scale, cold.scale)):
        light, heavy = workload.latencies(records, scale)
        scaled_busy = sum(busy * scale(t) for t, busy in rounds_ns)
        metrics[kind] = {
            "setup_s": statistics.median(x * setup_scale(c["t"])
                                         for x, c in zip(setup_ns, setup)) / 1e9,
            "throughput_per_s": count / (scaled_busy / 1e9),
            "light_p50_ms": work.median_ms(light),
            "heavy_p50_ms": work.median_ms(heavy),
            "peak_rss_mb": rss_kb / 1024,
        }
    everything = sorted(light + heavy)  # scaled, from the last pass above
    info = {
        "rounds": len(by_round), "busy_s": sum(busy for _, busy in rounds_ns) / 1e9,
        "samples": {"setup": len(setup_ns), "light": len(light), "heavy": len(heavy),
                    "reference_chunk": len(chunk.durations),
                    "cold_reference": len(cold.durations)},
        "unscaled": metrics["unscaled"],
        "setup_s_all": [t / 1e9 for t in setup_ns],
        "answer_p50_ms": work.median_ms(everything),
        "answer_p99_ms": (statistics.quantiles(everything, n=100)[98] / 1e6
                          if len(everything) >= 1000 else None),
        "answers_sha256_round0": digest(workload.canonical(by_round[0])),
    }
    return {"metrics": metrics["scaled"], "attempted": count + len(setup_ns),
            "failures": failures, "info": info, "spans": None}


def import_times(env) -> dict:
    """Median cumulative import times of gkdim and numpy, from -X importtime."""
    runs = []
    subprocess.run([sys.executable, "-c", "import gkdim"], env=env, timeout=60,
                   capture_output=True)
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gkdim"],
                              env=env, capture_output=True, text=True, timeout=60)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1])
        runs.append(cumulative)
    return {f"import.{name}_us": statistics.median(r.get(name, 0) for r in runs)
            for name in ("gkdim", "numpy")}


def _check_phase(workload, records) -> tuple[list[str], dict]:
    """Check answers with the check-phase functions traced on their own."""
    tracer = spans.Tracer()
    tracer.install()
    start = perf_counter_ns()
    try:
        failures = workload.check(records)
    finally:
        tracer.uninstall()
    layer = tracer.metrics(perf_counter_ns() - start)
    return failures, {f"check.{name.split('.', 1)[1]}.self_s": layer[f"{name}.self_s"]
                      for name in CHECK_PHASE}


def traced_run(workload, env) -> dict:
    rounds = TRACE_ROUNDS[workload.name]
    if workload.name == "oracle":
        rank = max(workload.prepare(0))
        child = [sys.executable, str(HERE / "oracle_child.py"), "--rank", str(rank)]
        results = []
        for extra in ([], ["--trace"]):
            proc = subprocess.run(child + extra, env=env, capture_output=True, text=True,
                                  timeout=work.CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"oracle child failed: {proc.stderr.strip()[-500:]}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        reference, traced = results
        records = [{"rank": rank, "code": r["code"], "stdout": r["stdout"]} for r in results]
        failures = workload.check(records)
        layer = traced["metrics"]
        layer.update({f"check.{name.split('.', 1)[1]}.self_s": 0.0 for name in CHECK_PHASE})
        ratio = traced["wall_ns"] / reference["wall_ns"]
        dump, canonical = traced["spans"], workload.canonical(records[:1])
    else:
        ref_rounds, ref_ns = work.run_rounds(workload, rounds=rounds)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_rounds, traced_ns = work.run_rounds(workload, rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        ref_busy = sum(busy for _, busy in ref_ns)
        traced_busy = sum(busy for _, busy in traced_ns)
        layer = tracer.metrics(traced_busy)
        records = [r for rs in ref_rounds + traced_rounds for r in rs]
        failures, check_layer = _check_phase(workload, records)
        layer.update(check_layer)
        ratio = traced_busy / ref_busy
        dump, canonical = tracer.dump(), workload.canonical(ref_rounds[0])
    layer["trace.overhead_ratio"] = ratio
    layer.update(import_times(env))
    info = {"rounds": rounds, "answers_sha256_round0": digest(canonical)}
    return {"metrics": layer, "attempted": workload.answers(records),
            "failures": failures, "info": info, "spans": dump}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gkdim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'gkdim'}; "
                         "run from a checkout of the repository")
    env = child_env()
    # The launcher starts before the program is imported, so it stays small.
    with work.Launcher(env) as launcher:
        gk = import_program()
        if args.self_test:
            import selftest

            return selftest.run(gk, launcher)
        end_to_end, per_layer = declared_metrics()
        workload = make_workload(args.workload, gk, args.seed, launcher)
        chunk = work.Pace(work.reference_chunk, work.REFERENCE_NS)
        if args.trace:
            chunk.sample()
            result = traced_run(workload, env)
            chunk.sample()
        else:
            result = measured_run(workload, launcher, args.seconds, chunk)
        paces = {"reference_chunk_ms": pace_summary(chunk),
                 "cold_reference_ms": pace_summary(launcher.pace)}
        record_machine = machine(gk)

    units = per_layer if args.trace else end_to_end
    if set(result["metrics"]) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ set(units))}")
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    failed = len(result["failures"])
    attempted = result["attempted"]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": record_machine,
              **paces,
              "parameters": inputs.parameters()[args.workload],
              "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
              "failures": result["failures"][:50], "info": result["info"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if result["spans"] is not None:
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as f:
            json.dump(result["spans"], f)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['info']['rounds']}")
    print(f"answers {attempted}  failed {failed}  failed_ratio {failed / attempted:.6f}")
    for reason in result["failures"][:10]:
        print(f"  FAILED {reason}")
    print(f"answers sha256 (round 0) {result['info']['answers_sha256_round0']}")
    for name, m in metrics.items():
        print(f"  {name:48} {m['value']:>14.6g} {m['unit']}")
    print(f"machine {json.dumps(record['machine'])}")
    for name, summary in paces.items():
        print(f"{name} {json.dumps(summary)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
