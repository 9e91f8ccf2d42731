"""In-memory span tracer that wraps the program's public functions from outside.

Each wrapped function records one span per call: name, start and end
(``perf_counter_ns``), the index of the enclosing span (-1 at top level) and
the operation id the harness set before the call.  Self time is computed as
the span closes: its duration minus the durations of its direct children.
A function is wrapped in every ``gkdim`` module namespace that holds it, so
``hermitian.gk_dimension`` and ``cli.gk_dimension`` record the same span as
``dimension.gk_dimension``.  Nothing under ``src/`` is changed; ``uninstall``
puts every original back.

Wrap points whose module or attribute no longer exists are skipped, and
their metrics read 0: the benchmark outlives deletions such as that of
``gkdim.kernels``.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# (span name, defining module, attribute path).  Called through every
# namespace that holds the same object.
SPAN_POINTS = (
    ("cli", "gkdim.cli", "main"),
    ("weights.parse_weight", "gkdim.weights", "parse_weight"),
    ("weights.pq_dominance_violation", "gkdim.weights", "pq_dominance_violation"),
    ("weights.add_z_zeta", "gkdim.weights", "add_z_zeta"),
    ("dimension.congruence_decomposition", "gkdim.dimension", "congruence_decomposition"),
    ("dimension.gk_dimension", "gkdim.dimension", "gk_dimension"),
    ("tableaux.rs_pair", "gkdim.tableaux", "rs_pair"),
    ("tableaux.insert", "gkdim.tableaux", "Tableau.insert"),
    ("hermitian.gk_pq", "gkdim.hermitian", "gk_pq"),
    ("hermitian.xi_signature", "gkdim.hermitian", "xi_signature"),
    ("hermitian.ball_model_m", "gkdim.hermitian", "ball_model_m"),
    ("hermitian.second_column_by_deletion", "gkdim.hermitian", "second_column_by_deletion"),
    ("hermitian.algebra_normal_form", "gkdim.hermitian", "algebra_normal_form"),
    ("hermitian.gkdim_series", "gkdim.hermitian", "gkdim_series"),
    ("hermitian.unitary_interval", "gkdim.hermitian", "unitary_interval"),
    ("hermitian.unitary_gkdim", "gkdim.hermitian", "unitary_gkdim"),
    ("permutations.a_value_of_permutation", "gkdim.permutations", "a_value_of_permutation"),
    ("hecke.kl_basis_element", "gkdim.hecke", "kl_basis_element"),
    # The first call per rank builds the structure-constant table; it is
    # recorded as "hecke.a_table", later calls (cache lookups) under this name.
    ("hecke.a_function_definitional", "gkdim.hecke", "a_function_definitional"),
    ("kernels.polymat_matmul", "gkdim.kernels", "polymat_matmul"),
)
A_TABLE = "hecke.a_table"
BOOKKEEPING = "trace.bookkeeping"

# Counted, not timed: these run millions of times inside the KL basis.
COUNT_POINTS = (
    ("laurent.mul", "gkdim.laurent", "LaurentPoly.__mul__"),
    ("laurent.mul", "gkdim.laurent", "LaurentPoly.__rmul__"),
    ("laurent.add", "gkdim.laurent", "LaurentPoly.__add__"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, _, _ in SPAN_POINTS] + [A_TABLE, BOOKKEEPING]))
COUNT_NAMES = ("cli.lines", "cli.error_lines", "dimension.classes",
               "tableaux.entries_inserted", "laurent.mul", "laurent.add",
               "kernels.polymat_matmul.bytes_computed",
               "kernels.polymat_matmul.operand_cells",
               "kernels.polymat_matmul.operand_nonzero")


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value), or None if absent."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, op, self_ns)
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list[int]] = []  # [span index, child ns, op at open]
        self._restore: list[tuple[object, str, object]] = []
        self._ranks_built: set[int] = set()

    # -- recording ---------------------------------------------------------

    def _open(self) -> list[int]:
        frame = [len(self.spans), 0, self.op]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, frame, name: str, start: int, end: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = end - start
        self.spans[frame[0]] = (name, start, end, parent[0] if parent else -1,
                                frame[2], dur - frame[1])
        if parent:
            parent[1] += dur

    def _span_wrapper(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame = tracer._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, label, start, perf_counter_ns())
            if after is not None:
                frame = tracer._open()
                start = perf_counter_ns()
                try:
                    after(args, result)
                finally:
                    tracer._close(frame, BOOKKEEPING, start, perf_counter_ns())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-call counts taken from arguments and results --------------------

    def _after_congruence(self, args, classes):
        self.counts["dimension.classes"] += len(classes)

    def _after_rs_pair(self, args, pair):
        self.counts["tableaux.entries_inserted"] += pair[0].size

    def _after_matmul(self, args, out):
        a, b = args[0], args[1]
        self.counts["kernels.polymat_matmul.bytes_computed"] += out.nbytes
        self.counts["kernels.polymat_matmul.operand_cells"] += a.size + b.size
        self.counts["kernels.polymat_matmul.operand_nonzero"] += int(
            (a != 0).sum() + (b != 0).sum())

    def _a_function_name(self, args):
        n = args[0].n
        if n in self._ranks_built:
            return "hecke.a_function_definitional"
        self._ranks_built.add(n)
        return A_TABLE

    # -- installation --------------------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            return
        original = found[2]
        wrapper = make(original)
        targets = [(found[0], found[1])]
        if "." not in path:
            targets += [(mod, path) for key, mod in list(sys.modules.items())
                        if (key == "gkdim" or key.startswith("gkdim."))
                        and mod is not found[0]
                        and getattr(mod, path, None) is original]
        for owner, attr in targets:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        after = {"dimension.congruence_decomposition": self._after_congruence,
                 "tableaux.rs_pair": self._after_rs_pair,
                 "kernels.polymat_matmul": self._after_matmul}
        for name, module, path in SPAN_POINTS:
            label = self._a_function_name if name == "hecke.a_function_definitional" else name
            self._patch(module, path,
                        lambda fn, label=label, name=name:
                        self._span_wrapper(label, fn, after.get(name)))
        for name, module, path in COUNT_POINTS:
            self._patch(module, path, lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, wall_ns: int) -> dict[str, float]:
        """Per-layer self times and counts; checks that self times plus the
        time no span covers add up to the traced wall time."""
        self_ns = Counter()
        calls = Counter()
        top_ns = 0
        for name, start, end, parent, _op, own in self.spans:
            self_ns[name] += own
            calls[name] += 1
            if parent == -1:
                top_ns += end - start
        uncovered = wall_ns - top_ns
        if sum(self_ns.values()) + uncovered != wall_ns or uncovered < 0:
            raise RuntimeError("span self times do not add up to the traced wall time")
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_ns[name] / 1e9
            out[f"{name}.calls"] = calls[name]
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        cells = out.pop("kernels.polymat_matmul.operand_cells")
        nonzero = out.pop("kernels.polymat_matmul.operand_nonzero")
        out["kernels.polymat_matmul.operand_nnz_ratio"] = nonzero / cells if cells else 0.0
        out["laurent.mul.calls"] = out.pop("laurent.mul")
        out["laurent.add.calls"] = out.pop("laurent.add")
        out["trace.wall_s"] = wall_ns / 1e9
        out["trace.uncovered_s"] = uncovered / 1e9
        return out

    def dump(self) -> dict:
        """Every span, for writing out when the run ends."""
        names = {name: k for k, name in enumerate(SPAN_NAMES)}
        return {
            "names": list(SPAN_NAMES),
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
            "spans": [[names[s[0]], *s[1:]] for s in self.spans],
            "counts": dict(self.counts),
        }
