"""One cold oracle check in a fresh interpreter, for the traced oracle run.

    python3 perfbench/oracle_child.py --rank 5 [--trace]

The oracle's caches are per process, so the traced run and its untraced
reference each need a process of their own.  Both first ask for every C_w
of S_1..S_rank through the public `kl_basis_element`, which gives the KL
basis its own span, then run `verify-oracle --rank <rank>` through
`gkdim.cli.main`, whose first a-function call per rank builds the table.
Prints one JSON object: the wall time of that work, the CLI's exit code and
output, and with --trace the per-layer metrics and every span.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from itertools import permutations
from pathlib import Path
from time import perf_counter_ns

import spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rank", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import gkdim
    import gkdim.cli

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.op = 1
    out, saved = io.StringIO(), sys.stdout
    start = perf_counter_ns()
    try:
        for n in range(1, args.rank + 1):
            for one_line in permutations(range(1, n + 1)):
                gkdim.hecke.kl_basis_element(gkdim.Permutation(one_line),
                                             rank_bound=args.rank)
        sys.stdout = out
        code = sys.modules["gkdim.cli"].main(["verify-oracle", "--rank", str(args.rank)])
    finally:
        sys.stdout = saved
        wall = perf_counter_ns() - start
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_ns": wall, "code": code, "stdout": out.getvalue()}
    if tracer is not None:
        lines = out.getvalue().splitlines()
        tracer.counts["cli.lines"] += len(lines)
        tracer.counts["cli.error_lines"] += sum(1 for line in lines
                                                if line.startswith('{"error"'))
        result["metrics"] = tracer.metrics(wall)
        result["spans"] = tracer.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
