"""Outside-in tracer: wraps package functions from the benchmark's side.

A function is replaced on its defining module *and* on every ``coring_lab``
module that bound it with ``from .x import name``; patching the defining
module alone misses every call made through such a binding.  Methods are
patched on their class, which every caller shares.

Spans (name, parent index, start, end) stay in memory until ``summary`` is
called.  A span's self time is its duration minus the durations of its
direct children.  Counters are plain call counts or sizes, recorded at the
same boundaries; they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (span name, module, attribute); "Class.method" patches the class.
SPANS = (
    ("entwining.instance_from_json", "coring_lab.entwining", "instance_from_json"),
    ("entwining.build_coring", "coring_lab.entwining", "build_coring"),
    ("entwining.verify_entwining", "coring_lab.entwining", "verify_entwining"),
    ("entwining.sharp_ring", "coring_lab.entwining", "SharpRing.__init__"),
    ("algebra.verify_algebra", "coring_lab.algebra", "verify_algebra"),
    ("algebra.hom_module", "coring_lab.algebra", "hom_module"),
    ("algebra.balanced_tensor", "coring_lab.algebra", "balanced_tensor"),
    ("coalgebra.verify_coalgebra", "coring_lab.coalgebra", "verify_coalgebra"),
    ("coalgebra.convolution", "coring_lab.coalgebra", "convolution"),
    ("coring.verify_coring", "coring_lab.coring", "verify_coring"),
    ("coring.default_comodule_witnesses", "coring_lab.coring", "default_comodule_witnesses"),
    ("coring.coinvariants", "coring_lab.coring", "coinvariants"),
    ("coring.dual_action", "coring_lab.coring", "dual_action"),
    ("coring.hom_comodule", "coring_lab.coring", "hom_comodule"),
    ("morita.build_context", "coring_lab.morita", "build_context"),
    ("morita.check_theorem_surj", "coring_lab.morita", "check_theorem_surj"),
    ("morita.check_theorem_Cfinite", "coring_lab.morita", "check_theorem_Cfinite"),
    ("morita.omega_and_lambda", "coring_lab.morita", "omega_and_lambda"),
    ("morita.map_report", "coring_lab.morita", "map_report"),
    ("galois.structure_report", "coring_lab.galois", "structure_report"),
    ("galois.beta", "coring_lab.galois", "beta"),
    ("galois.psi_M", "coring_lab.galois", "psi_M"),
    ("cleft.find_cleft", "coring_lab.cleft", "find_cleft"),
    ("cleft.normal_basis_check", "coring_lab.cleft", "normal_basis_check"),
    ("cleft.check_theorem_main", "coring_lab.cleft", "check_theorem_main"),
    ("cleft.check_theorem_xcase", "coring_lab.cleft", "check_theorem_xcase"),
    ("cleft.search_invertible", "coring_lab.cleft", "search_invertible"),
    ("cli.full_verify", "coring_lab.cli", "full_verify"),
    ("cli.run_analysis", "coring_lab.cli", "run_analysis"),
    ("cli.to_json", "coring_lab.cli", "AnalysisReport.to_json"),
    ("exactla.kron", "coring_lab.exactla", "kron"),
    ("exactla.mul", "coring_lab.exactla", "DenseMatrix.mul"),
    ("exactla.row_reduce", "coring_lab.exactla", "row_reduce"),
)

# Count-only boundaries: too hot for a span each, or only counted.
COUNTS = (
    ("exactla.matrices", "coring_lab.exactla", "DenseMatrix.__init__"),
    ("exactla.row_reduce.calls.q", "coring_lab.exactla", "_row_reduce_q"),
    ("exactla.row_reduce.calls.fp", "coring_lab.exactla", "_row_reduce_fp"),
    ("exactla.subspace_builder.inserts", "coring_lab.exactla", "SubspaceBuilder.insert"),
    ("exactla.kernel.calls", "coring_lab.exactla", "kernel"),
)

# Pipeline stages reported per instance: inclusive seconds of top-level spans
# and of the spans run_analysis opens directly.
STAGES = ("cli.full_verify", "cli.run_analysis",
          "coring.default_comodule_witnesses",
          "morita.build_context", "galois.structure_report",
          "morita.check_theorem_surj", "morita.check_theorem_Cfinite",
          "cleft.find_cleft", "cleft.normal_basis_check")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index, start, end]
        self.stack = []      # indices of open spans
        self.counts = Counter()
        self.max_matrix_entries = 0

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        before = getattr(self, "_before_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)
        return wrapper

    # -- per-boundary extras --------------------------------------------------
    def _after_exactla_kron(self, args, out):
        self.counts["exactla.kron.entries"] += out.rows * out.cols

    def _after_cleft_search_invertible(self, args, out):
        if out.status == "found":
            self.counts["cleft.search_invertible.found"] += 1

    def _before_exactla_matrices(self, args):
        size = args[2] * args[3]   # (self, field, rows, cols, entries)
        self.counts["exactla.entries_normalized"] += size
        if size > self.max_matrix_entries:
            self.max_matrix_entries = size

    def _before_exactla_kernel_calls(self, args):
        # search_invertible tests each candidate with one kernel() call
        if self.stack and self.spans[self.stack[-1]][0] == "cleft.search_invertible":
            self.counts["cleft.search_invertible.trials"] += 1

    # -- installation ---------------------------------------------------------
    def install(self):
        for name, module, attr in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._span(name, fn))
        for name, module, attr in COUNTS:
            self._patch(module, attr, lambda fn, name=name: self._count(name, fn))

    def _patch(self, module_name, attr, make):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            return
        orig = getattr(module, attr)
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "coring_lab" and not mod_name.startswith("coring_lab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    # -- results --------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name self seconds and call counts, counters, and the inclusive
        seconds of each pipeline stage."""
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_s = Counter()
        calls = Counter()
        stages = Counter()
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child_time[i]
            calls[name] += 1
            if name in STAGES and (parent < 0 or
                                   self.spans[parent][0] == "cli.run_analysis"):
                stages[name] += t1 - t0
        metrics = {}
        for name in calls:
            metrics[name + ".s"] = self_s[name]
            metrics[name + ".calls"] = calls[name]
        metrics.update(self.counts)
        metrics["exactla.max_matrix_entries"] = self.max_matrix_entries
        return {"metrics": metrics, "stages": dict(stages)}
