"""The three benchmark workloads and their seeded `semicascade run` configs.

Every config spells out every field, so a change to the CLI defaults does
not change what a workload computes. The seed moves only inputs that leave
the cost of the run unchanged (see README.md, "What the seed changes").
"""

import random

GOLDEN = 0.6180339887498949
SCHEMA = "semicascade-config-v1"

ALL_ANALYSES = ["convergence", "unique_minimal_set", "proximality", "measures",
                "tameness", "covering", "kernel_projection", "limit_measures"]

# why: one line each, copied into BENCHMARK.json
WORKLOADS = {
    "rotation-walk": {
        "why": "golden rotation at 64 cells with all 8 analyses: bound by "
               "transfer-operator walk steps",
        "analyses": ALL_ANALYSES,
        # residual_idem of the iterated-squaring projection is 2e-4 here
        "known_fault": "kernel_projection",
    },
    "northsouth-projection": {
        "why": "north_south at 1024 cells: dense kernel projection is ~99% "
               "of the run and no operator walk happens",
        "analyses": ["unique_minimal_set", "measures", "kernel_projection"],
        "known_fault": None,
    },
    "torus-wildness": {
        "why": "cat map at 128x128 cells: orbit diagnostics in tame, simplex "
               "and topology, plus a 16k-cell SCC and stationary solve",
        "analyses": ["unique_minimal_set", "measures", "proximality",
                     "tameness", "covering"],
        "known_fault": None,
    },
}


def _base(system, cells, analyses, probe, seed, output_dir):
    return {
        "schema": SCHEMA,
        "system": system,
        "partition": {"cells_per_axis": cells, "samples_per_cell": 3},
        "analyses": list(analyses),
        "horizons": {"orbit_n": 4096,
                     "schedule_lengths": [64, 128, 256, 512, 1024, 2048, 4096],
                     "proximality_horizon": 1024, "covering_horizon": 256},
        "tolerances": {"tol": 1e-2, "eps": 1e-3, "support_threshold": 1e-12},
        "banks": {"test_functions": 8, "grid_size": 256},
        "options": {"max_period": 2, "proximality_points": 100,
                    "tameness_k_max": 6, "tameness_strategy": "fixed",
                    "covering_eps": [0.5, 0.2, 0.1, 0.05, 0.02],
                    "kernel_rounds": 64, "convergence_probe": probe,
                    "limit_probe_count": 16},
        "seed": seed,
        "output_dir": output_dir,
    }


def make_config(workload, seed, output_dir):
    """Config dict for one workload; the same seed always gives the same dict."""
    if workload not in WORKLOADS:
        raise KeyError("unknown workload %r (have: %s)"
                       % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s/%d" % (workload, seed))
    config_seed = seed % (1 << 31)
    analyses = WORKLOADS[workload]["analyses"]
    if workload == "rotation-walk":
        # the rotation angle stays fixed so that the known projection fault
        # is hit on the same matrix under every seed
        return _base({"family": "circle_rotation", "params": {"alpha": GOLDEN}},
                     64, analyses, rng.random(), config_seed, output_dir)
    if workload == "northsouth-projection":
        kappa = 0.45 + 0.1 * rng.random()
        return _base({"family": "north_south", "params": {"kappa": kappa}},
                     1024, analyses, rng.random(), config_seed, output_dir)
    config = _base({"family": "toral_automorphism",
                    "params": {"m11": 2, "m12": 1, "m21": 1, "m22": 1}},
                   128, analyses, [rng.random(), rng.random()], config_seed,
                   output_dir)
    config["horizons"]["covering_horizon"] = 1024
    config["options"]["tameness_k_max"] = 10
    return config
