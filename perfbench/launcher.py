"""Starts the benchmark's timed child processes from a process that stays small.

Linux carries a process's peak RSS into every child it forks, across exec,
so wait4 would report at least the benchmark process's own peak (the
program, its inputs and its records) for each child.  This process imports
only the standard library, starts every timed child, and waits for it.

It reads one JSON request per line on stdin,
``{"argv": [...], "stdin": "...", "timeout": seconds}``, and answers each with
one JSON line: the ns from spawn to the child's first line of output and to
its exit, the child's peak RSS in kB, its exit code and its stdout, or
``{"error": ...}``.  Children inherit this process's environment.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from time import perf_counter_ns


def spawn(argv: list[str], stdin_text: str, timeout: float) -> dict:
    """Run one child to its exit; a child that outlives `timeout` is killed."""
    start = perf_counter_ns()
    deadline = start + int(timeout * 1e9)
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        proc.stdin.write(stdin_text.encode())
        proc.stdin.close()
        fd, chunks, first = proc.stdout.fileno(), [], None
        while True:
            left = deadline - perf_counter_ns()
            if left <= 0 or not select.select([fd], [], [], left / 1e9)[0]:
                raise TimeoutError(f"{argv[1:]} ran longer than {timeout} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if first is None and b"\n" in chunk:
                first = perf_counter_ns() - start
        _, status, usage = os.wait4(proc.pid, 0)
        end = perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return {"first_ns": first, "wall_ns": end - start, "rss_kb": usage.ru_maxrss,
            "code": proc.returncode, "stdout": b"".join(chunks).decode()}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        try:
            result = spawn(request["argv"], request["stdin"], request["timeout"])
        except (OSError, TimeoutError) as exc:
            result = {"error": repr(exc)}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
