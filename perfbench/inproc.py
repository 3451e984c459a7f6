"""In-process children of the benchmark: the set-up probe and the traced replay.

    python3 perfbench/inproc.py setup CONFIG OUT.json
    python3 perfbench/inproc.py trace CONFIG OUT.json

`setup` does what a fresh interpreter must do before any analysis starts:
import semicascade.cli, load the config, build the partition, the transfer
matrix, the transition graph and the test bank. The parent times it from
spawn to exit.

`trace` runs `cli.main(["run", CONFIG])` with a span (name, start, end,
parent) around every public call into a layer, named after its module.
Spans stay in memory and are written to OUT.json at the end, together with
counters read off the layers' results and a timing of one operator step.

Only the standard library is imported before the `cli.import` span, so
that span holds the whole import of the package and its dependencies.
"""

import functools
import json
import sys
import time

# (module, function, span name); a function missing from the package is
# skipped, and its metrics read 0
SPANNED = [
    ("cli", "load_config", "cli.load_config"),
    ("cli", "run_analyses", "cli.run_analyses"),
    ("ulam", "build_partition", "ulam.build_partition"),
    ("ulam", "build_transfer_matrix", "ulam.build_transfer_matrix"),
    ("ulam", "sample_test_bank", "ulam.sample_test_bank"),
    ("topology", "graph_from_transfer", "topology.graph_from_transfer"),
    ("topology", "minimal_invariant_sets", "topology.minimal_invariant_sets"),
    ("topology", "unique_minimal_set_check", "topology.unique_minimal_set_check"),
    ("topology", "proximality_graph", "topology.proximality_graph"),
    ("topology", "transitivity_defect", "topology.transitivity_defect"),
    ("ergodic", "convergence_diagnostic", "ergodic.convergence_diagnostic"),
    ("ergodic", "apply_schedules_batch", "ergodic.apply_schedules_batch"),
    ("ergodic", "kernel_projection_estimate", "ergodic.kernel_projection_estimate"),
    ("ergodic", "limit_measure_per_point", "ergodic.limit_measure_per_point"),
    ("measures", "stationary_measures", "measures.stationary_measures"),
    ("tame", "tameness_profile", "tame.tameness_profile"),
    ("tame", "covering_profile", "tame.covering_profile"),
    ("simplex", "solve_minimax_on_simplex", "simplex.solve_minimax_on_simplex"),
    ("systems", "orbit_batch", "systems.orbit_batch"),
    ("systems", "periodic_orbits", "systems.periodic_orbits"),
]
STEP_SAMPLES = 200


class Tracer:
    """Spans as [id, name, start, end, parent] lists, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name):
        span = [len(self.spans), name, time.perf_counter(), None,
                self.stack[-1] if self.stack else None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span):
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, on_result):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            on_result(name, result)
            return result
        return spanned


def _rebind(package, old, new):
    # replace the function wherever a module of the package binds it, so that
    # calls through `from x import f` and module-internal calls are spanned too
    for modname, mod in list(sys.modules.items()):
        if modname == package or modname.startswith(package + "."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def _counter(counters):
    def add(key, value):
        counters[key] = counters.get(key, 0) + value

    def record(name, result):
        try:
            read(name, result)
        except (AttributeError, TypeError):
            pass  # a result without the field: its counter reads 0

    def read(name, result):
        if name == "ulam.build_transfer_matrix":
            counters["tm"] = result
        elif name == "topology.minimal_invariant_sets":
            counters["topology.n_sccs"] = int(result.n_sccs)
        elif name == "measures.stationary_measures":
            add("measures.stationary_iterations", int(sum(result.iterations)))
        elif name == "tame.covering_profile":
            add("tame.covering_centers", int(sum(result.counts)))
        elif name == "simplex.solve_minimax_on_simplex":
            add("simplex.solves", 1)
            add("simplex.pivots", int(result.iterations))
        elif name == "ergodic.kernel_projection_estimate":
            counters["kernel"] = result
    return record


def _environment():
    from semicascade import _kernels
    return {"use_numba": bool(getattr(_kernels, "USE_NUMBA", False)),
            "blas_threads": _blas_threads()}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup(config_path, out_path):
    import semicascade.cli as cli
    from semicascade import topology, ulam

    config = cli.load_config(config_path)
    spec, part = config["spec"], config["partition"]
    partition = ulam.build_partition(spec, part["cells_per_axis"],
                                     part["samples_per_cell"], seed=config["seed"])
    tm = ulam.build_transfer_matrix(partition, spec)
    topology.graph_from_transfer(tm)
    ulam.sample_test_bank(partition, config["banks"]["test_functions"])
    with open(out_path, "w") as fh:
        json.dump(_environment(), fh)


def trace(config_path, out_path):
    tracer = Tracer()
    span = tracer.open("cli.import")
    import semicascade.cli as cli
    tracer.close(span)
    import importlib
    import numpy as np

    counters = {}
    record = _counter(counters)
    for module, func, name in SPANNED:
        mod = importlib.import_module("semicascade." + module)
        fn = getattr(mod, func, None)
        if fn is not None:
            _rebind("semicascade", fn, tracer.wrap(fn, name, record))
    # the dense projection takes one residual norm per round, plus one before
    # the first round and one for the final idempotency check
    norm = getattr(importlib.import_module("semicascade.ergodic"), "_inf_norm", None)
    if norm is not None:
        def counted(mat):
            counters["norms"] = counters.get("norms", 0) + 1
            return norm(mat)
        _rebind("semicascade", norm, counted)

    span = tracer.open("cli.main")
    status = cli.main(["run", config_path])
    tracer.close(span)
    after_main = time.perf_counter()

    tm = counters.pop("tm", None)
    step_us = 0.0
    if tm is not None:
        from semicascade import ulam
        mu = np.full(tm.n_cells, 1.0 / tm.n_cells)
        samples = []
        for _ in range(STEP_SAMPLES):
            t0 = time.perf_counter()
            ulam.apply_transfer(tm, mu)
            samples.append(time.perf_counter() - t0)
        step_us = sorted(samples)[len(samples) // 2] * 1e6
        counters["ulam.nnz"] = int(tm.matrix.nnz)
    kernel = counters.pop("kernel", None)
    norms = counters.pop("norms", 0)
    if kernel is not None:
        counters["ergodic.kernel_projection_rounds"] = (
            norms - 2 if norms >= 2 else int(getattr(kernel, "rounds", 0)))
        q = getattr(kernel, "q", None)
        if q is not None:
            np.save(out_path + ".q.npy", q)
            counters["kernel_cells"] = int(q.shape[0])
    environment = _environment()
    # work done here after cli.main is not part of the traced run's time
    post_s = time.perf_counter() - after_main
    with open(out_path, "w") as fh:
        json.dump({"status": status, "spans": tracer.spans, "counters": counters,
                   "step_us": step_us, "post_s": post_s,
                   "environment": environment}, fh)


if __name__ == "__main__":
    mode, config_arg, out_arg = sys.argv[1:4]
    {"setup": setup, "trace": trace}[mode](config_arg, out_arg)
