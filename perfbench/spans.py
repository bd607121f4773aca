"""Spans and counters around nodaltrade's public functions, installed from outside.

The tracer replaces a public function by a wrapper wherever a nodaltrade
module binds it, including names bound by ``from`` imports (for example
``node_trade.restricted_inverse_apply`` and ``loop_matrix.loop_number``),
and puts the originals back on ``uninstall``.  No file of the program
changes.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time covered by its child
spans, so the self times of all spans in an operation add up to the time
the operation spent inside wrapped functions.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute path) of each public function that gets a span.
TIMED = (
    ("pairings", "enumerate_pairings"),
    ("pairings", "loop_number"),
    ("linalg", "mat_vec"),
    ("linalg", "nullspace"),
    ("linalg", "rank"),
    ("linalg", "left_kernel"),
    ("loop_matrix", "build_loop_matrix"),
    ("loop_matrix", "LoopMatrix.apply"),
    ("loop_matrix", "isotypic_component"),
    ("loop_matrix", "decompose_isotypic"),
    ("loop_matrix", "restricted_inverse_apply"),
    ("loop_matrix", "eigenspace_decomposition"),
    ("tensor_oracle", "all_form_tensors"),
    ("tensor_oracle", "all_diagonal_multivectors"),
    ("tensor_oracle", "diagonal_insertion_matrix"),
    ("tensor_oracle", "invariant_map_rank"),
    ("node_trade", "InvariantTensor.from_coordinates"),
    ("node_trade", "contract_with_all_diagonals"),
    ("node_trade", "recover"),
    ("cohomology", "split_node"),
    ("cohomology", "divisor_reduce"),
    ("stable_graphs", "enumerate_splittings"),
    ("stable_graphs", "degeneration_rhs"),
    ("plane_counts", "kontsevich_nd"),
    ("case_study", "compute_lhs"),
    ("case_study", "compute_rhs_total"),
    ("case_study", "compute_contribution"),
    ("case_study", "elliptic_demo"),
)

# Functions called so often, or so cheaply, that only their calls are counted.
COUNTED = (
    ("partitions", "content_product"),
    ("partitions", "hook_dimension"),
    ("tensor_oracle", "contract"),
    ("stable_graphs", "graph_isomorphic"),
    ("plane_counts", "lookup"),
    ("rationals", "format_rational"),
)

# Dense coefficients visited by one expansion: N pairings times dim^(2n) slots.
DENSE_COEFFS = "tensor_oracle.dense_coeffs"
_EXPANDER = "node_trade.InvariantTensor.from_coordinates"


def metric_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class Tracer:
    """Records spans (op, id, parent, name, start, end, self) and call counts."""

    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((self.op, span_id, parent, name, start, end, duration - frame[1]))
                if name == _EXPANDER:
                    n, space = args[0], args[1]
                    self.counts[DENSE_COEFFS] += _double_factorial(n) * space.dim ** (2 * n)

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever an imported nodaltrade module binds it."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("nodaltrade.")]
        for targets, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module, path in targets:
                owner = sys.modules[f"nodaltrade.{module}"]
                name = metric_name(module, path)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(make(name, raw.__func__))
                    else:
                        wrapped = make(name, raw)
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
                    continue
                original = getattr(owner, path)
                wrapped = make(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def absorb(self, op, dump: dict) -> None:
        """Add the spans and counts of a traced child process as operation `op`."""
        for _, span_id, parent, name, start, end, self_s in dump["spans"]:
            self.spans.append((op, span_id, parent, name, start, end, self_s))
        self.counts.update(dump["counts"])

    def top_level_seconds(self, ops) -> float:
        """Time the given operations spent inside wrapped functions."""
        ops = set(ops)
        return sum(end - start for op, _, parent, _, start, end, _ in self.spans
                   if parent is None and op in ops)

    def totals(self, ops) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name over the given operations."""
        ops = set(ops)
        calls, self_s = Counter(), Counter()
        for op, _, _, name, _, _, own in self.spans:
            if op in ops:
                calls[name] += 1
                self_s[name] += own
        return calls, self_s


def _double_factorial(n: int) -> int:
    result = 1
    for i in range(1, 2 * n, 2):
        result *= i
    return result
