"""Per-layer tracing from outside the library.

The tracer replaces public entkit functions by wrappers that record one
span per call: (name, start, end, parent span, job id, raised).  A function
that another module imported by name (``from .states import partial_trace``)
is replaced in every namespace that holds it, so calls are caught in the
caller's namespace too.  Spans stay in memory and are written out at the
end; self time is a span's duration minus that of its direct children.
No entkit layer has a queue, so there is no waiting time to report.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYERS = ("cli", "states", "invariants", "polytope", "stellar", "uniformity", "codes", "mps")

# Functions with their own per-layer metrics (calls, s, self_s, errors).
REPORTED = (
    "cli.main",
    "states.read_state_file", "states.partial_trace", "states.write_state_file",
    "invariants.canonical_form3", "invariants.tangle_report", "invariants.lu_invariants",
    "invariants.slocc_classify3", "invariants.hyperdeterminant3",
    "invariants.concurrence_tangle_mixed",
    "polytope.local_spectra", "polytope.polygon_check",
    "uniformity.q_measure", "uniformity.k_uniform_level", "uniformity.apply_pauli_string",
    "codes.knill_laflamme_check", "codes.min_distance",
    "stellar.symmetric_from_pure", "stellar.to_constellation", "stellar.degeneracy_type",
    "stellar.classify_sym",
    "mps.dmrg_ground_state", "mps.from_dense", "mps.truncate", "mps.to_dense",
    "mps.write_mps_file", "mps.read_mps_file",
)

# Other functions the CLI reaches through its module aliases.  They are
# traced so that their time counts for their own layer, not for cli.main.
ALSO_TRACED = (
    "polytope.w_pyramid_test", "polytope.polytope_vertices",
    "stellar.form_invariants", "stellar.form_from_sym",
    "codes.read_code_file", "codes.hamming_code", "codes.repetition_code", "codes.encode",
    "mps.entanglement_entropy", "mps.check_canonical",
    "mps.ising_hamiltonian", "mps.heisenberg_hamiltonian",
)

COUNTERS = (   # name, unit
    ("codes.kl.errors", "count"),
    ("codes.kl.gram_macs", "computed_MAC"),
    ("mps.dmrg.sweeps", "count"),
    ("mps.dmrg.local_solves", "count"),
    ("mps.dmrg.local_dim_max", "count"),
)


def _count_kl(counters, args, result):
    n = result.num_errors
    counters["codes.kl.errors"] += n
    counters["codes.kl.gram_macs"] += n * n * args[0].dim   # errors^2 x dim, computed


def _count_dmrg(counters, args, result):
    tensors = result.mps.tensors
    counters["mps.dmrg.sweeps"] += result.num_sweeps
    counters["mps.dmrg.local_solves"] += 2 * (len(tensors) - 1) * result.num_sweeps
    counters["mps.dmrg.local_dim_max"] = max(counters["mps.dmrg.local_dim_max"],
                                             *(t.shape[0] * t.shape[1] * t.shape[2]
                                               for t in tensors))


ON_RESULT = {"codes.knill_laflamme_check": _count_kl, "mps.dmrg_ground_state": _count_dmrg}


class Tracer:
    def __init__(self):
        self.spans = []       # (name, start, end, parent index, job, raised)
        self.counters = dict.fromkeys((name for name, _ in COUNTERS), 0)
        self.job = None
        self._stack = []
        self._patches = []

    def install(self) -> None:
        """Wrap every traced function in every entkit namespace that holds it."""
        layers = {m: importlib.import_module(f"entkit.{m}") for m in LAYERS}
        namespaces = [importlib.import_module("entkit"), *layers.values()]
        for name in REPORTED + ALSO_TRACED:
            layer, fname = name.split(".")
            original = getattr(layers[layer], fname, None)
            if not callable(original):
                continue      # a later version may drop the function
            wrapper = self._wrap(original, name)
            for mod in namespaces:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    self._patches.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patches):
            setattr(mod, fname, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        spans, stack, on_result = self.spans, self._stack, ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job, raised)
            if on_result is not None:
                on_result(self.counters, args, result)
            return result
        return wrapper

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, errors; per-layer self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_fn = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0}
                  for name in REPORTED + ALSO_TRACED}
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            row = per_fn[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            row["errors"] += raised
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for name, row in per_fn.items():
            per_layer[name.split(".")[0]] += row["self_s"]
        return {"functions": per_fn, "layers": per_layer, "counters": dict(self.counters)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "raised": raised}) + "\n")
