"""In-memory spans around the library's public functions.

The tracer wraps a function where its callers look it up. The library's
modules bind names at import time (``from .zeta_core import zeta_gb``),
so patching only the defining module would miss every such caller.
``Tracer.install`` therefore replaces the function object in every
``zetagb`` module namespace that holds it.

A span records its name, start, end, parent span and op id in flat
arrays. Start and end are on-CPU time of the process, all its threads
included, as the benchmark's op timings are, so other tenants of the
machine do not inflate them. (Op timings also add waited-for children;
spans leave out that extra system call.) Spans stay in memory until ``write`` dumps them at the end of
the run. A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array

# (defining module, public function, span name); the span name is the
# prefix of the layer's metrics. The library calls the public ``em_tail``
# only from ``q_gb``; ``zeta_gb`` uses a private copy of the tail.
LAYERS = (
    ("zetagb.zeta_core", "dirichlet_partial_sum", "zeta_core.dirichlet_partial_sum"),
    ("zetagb.zeta_core", "zeta_gb", "zeta_core.zeta_gb"),
    ("zetagb.zeta_core", "em_tail", "zeta_core.em_tail"),
    ("zetagb.zeta_core", "remainder_bound", "zeta_core.remainder_bound"),
    ("zetagb.zeta_core", "auto_params", "zeta_core.auto_params"),
    ("zetagb.qfunction", "q_gb", "qfunction.q_gb"),
    ("zetagb.qfunction", "consistency_identity", "qfunction.consistency_identity"),
    ("zetagb.zero_scan", "refine_zero", "zero_scan.refine_zero"),
    ("zetagb.zero_scan", "scan_critical_line", "zero_scan.scan_critical_line"),
    ("zetagb.zero_scan", "rectangle_winding", "zero_scan.rectangle_winding"),
    ("zetagb.audit", "audit_range", "audit.audit_range"),
    ("zetagb.audit", "audit_zero", "audit.audit_zero"),
    ("zetagb.audit", "factorization_check", "audit.factorization_check"),
    ("zetagb.audit", "q_variation", "audit.q_variation"),
    ("zetagb.audit", "render_text", "audit.render_text"),
    ("zetagb.serialize", "dumps", "serialize.dumps"),
)

SETUP_LAYERS = (
    ("zetagb.bernoulli", "build_table", "bernoulli.build_table"),
    ("zetagb.cli", "run", "cli.run"),
)


def _terms(args, kwargs, result) -> float:
    cutoff = args[1] if len(args) > 1 else kwargs["cutoff_n"]
    return float(cutoff - 1)


def _winding_base_nodes(args, kwargs, result) -> float:
    # Boundary nodes the phase walk starts from: each side is cut into
    # max(4, ceil(length / 0.25)) segments. Evaluations beyond these are
    # adaptive splits.
    rect = args[0] if args else kwargs["rect"]
    sides = (rect.sigma_max - rect.sigma_min, rect.t_max - rect.t_min) * 2
    return float(sum(max(4, math.ceil(side / 0.25)) + 1 for side in sides))


NOTES = {
    "zeta_core.dirichlet_partial_sum": _terms,
    "zero_scan.refine_zero": lambda args, kwargs, result: float(result.refine_iterations),
    "zero_scan.scan_critical_line": lambda args, kwargs, result: float(len(result)),
    "zero_scan.rectangle_winding": _winding_base_nodes,
    "serialize.dumps": lambda args, kwargs, result: float(len(result.encode())),
}


class Tracer:
    """Flat-array span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.note = array("d")
        self.errors: dict[int, str] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, note=None):
        nid = self._name_id(name)
        clock = time.process_time_ns
        name_of, start, end, parent, ops, notes = (
            self.name_of, self.start, self.end, self.parent, self.op, self.note
        )
        stack, errors, tracer = self._stack, self.errors, self

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            notes.append(0.0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                errors[idx] = type(exc).__name__
                raise
            end[idx] = clock()
            stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers) -> None:
        """Wrap each layer's function in every zetagb namespace bound to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "zetagb" or n.startswith("zetagb.")]
        for module_name, attr, span_name in layers:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original, NOTES.get(span_name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))
        self.attach()

    def attach(self) -> None:
        """Put the installed wrappers in place (cheap; done per op)."""
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def detach(self) -> None:
        """Restore the original functions."""
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    def aggregate(self) -> dict:
        """Per-name calls, total and self time, note sums, errors, and
        counts of direct children by (parent name, child name)."""
        n = len(self.start)
        names, name_of, parent = self.names, self.name_of, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_ns = [0] * n
        pairs: dict[str, int] = {}
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += dur[i]
                key = f"{names[name_of[p]]}>{names[name_of[i]]}"
                pairs[key] = pairs.get(key, 0) + 1
        table = {name: {"calls": 0, "ns": 0, "self_ns": 0, "note": 0.0, "errors": {}} for name in names}
        for i in range(n):
            row = table[names[name_of[i]]]
            row["calls"] += 1
            row["ns"] += dur[i]
            row["self_ns"] += dur[i] - child_ns[i]
            row["note"] += self.note[i]
        for i, err in self.errors.items():
            errs = table[names[name_of[i]]]["errors"]
            errs[err] = errs.get(err, 0) + 1
        return {"layers": table, "children": pairs, "spans": n}

    def write(self, path) -> None:
        """Dump every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span,name,start_cpu_ns,end_cpu_ns,parent,op,note,error\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]},{self.note[i]!r},{self.errors.get(i, '')}\n"
                )
