"""Process entry of `python -m semicascade` and the `semicascade` script.

`run` defers numpy's unused submodules, imports the CLI, which loads numpy
and the modules every run reads (systems and ulam), and then freezes the
heap with `gc.freeze`. The CLI imports each analysis module where it first
runs, so a run loads only the analyses it was given. The transfer matrix is
numpy CSR arrays, and scipy.sparse is imported only where a sparse product
runs in a loop or a sparse solve runs: a walk over
ulam.SMALL_WALK_ENTRY_STEPS, a stationary loop that must iterate, the LU of
cells that reach two classes, or a graph too large for the Python search. A
run that needs none of these loads no scipy.

Deferral: `import scipy.sparse` reaches scipy's vendored array-api-compat,
whose `clone_module("numpy")` calls `hasattr` on every name in
`dir(numpy)`. numpy loads its submodules lazily through a PEP 562
`__getattr__`, so each `hasattr` imports one: `numpy.f2py` (with
`charset_normalizer`), `numpy.testing` (with `unittest`, `email` and
`socket`), `numpy.ma` and a few more, 101 modules that no run uses.
`defer_numpy_submodules` binds each of DEFERRED_NUMPY_SUBMODULES on numpy
as an `importlib.util.LazyLoader` module first, so the `hasattr` finds an
attribute and executes nothing; the first real attribute access loads the
whole module as before. With numpy 2.4.6 and scipy 1.17.1 on a 2-core
x86-64 host, a doubling-map convergence run at 4096 cells whose walk
imports scipy.sparse loads 357 modules instead of 458 (446 instead of 547
for the cat map at 256 x 256 cells, minimal sets only, whose graph is
large enough for topology to import scipy.sparse.csgraph). Without scipy,
rotation-walk's all-analyses run loads 243 modules and peaks at 32.4 MB,
against 359 modules and 42.9 MB with scipy.sparse imported.

Freeze: the tens of thousands of objects the import leaves behind move to
the permanent generation, so neither a full collection during the run nor
interpreter shutdown walks them again. A run that imports scipy.sparse
does so after the freeze; its objects stay collectable, and a second
freeze after `main` did not make a walk that imported it faster.

Outputs do not change. `cli.main` called in-process (tests, library
callers) defers nothing and touches neither the collector nor fd 1.
"""

import gc
import importlib.util
import os
import sys

# numpy's lazily loaded submodules that no run uses. numpy.random, fft,
# typing and linalg are left alone: scipy uses them while it imports.
DEFERRED_NUMPY_SUBMODULES = ("f2py", "testing", "ma", "polynomial", "ctypeslib",
                             "rec", "char")


def defer_numpy_submodules():
    """Register a lazy module for each unloaded DEFERRED_NUMPY_SUBMODULES entry."""
    import numpy

    for short in DEFERRED_NUMPY_SUBMODULES:
        name = "numpy." + short
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        # numpy's __getattr__ runs `import numpy.x as x`, which reads the
        # attribute back off numpy: unbound, that recurses forever
        setattr(numpy, short, module)


def run():
    defer_numpy_submodules()
    from .cli import main

    gc.freeze()
    status = main()
    try:
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError:  # cli.main has reported it; the exit flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(run())
