"""Error taxonomy shared across the package, and the resource budgets.

Three failure modes are distinguished so callers (and the CLI) can react
differently: bad caller input, a request outside what a backend can do,
and a request that would exceed a resource budget. Every budget is one
row of BUDGETS, and check_budget is the only place that refuses a request
over one: each library function calls it where its work would begin.
"""

from typing import NamedTuple


class InputError(ValueError):
    """Malformed or out-of-contract input (dimensions, ranges, shapes)."""


class CapabilityError(RuntimeError):
    """The requested backend cannot handle this system; the message names the fallback."""


class ResourceBudgetError(RuntimeError):
    """A need over a row of BUDGETS; the message names its cap and the fields that lower the need."""


class Budget(NamedTuple):
    """One cap on a need: what the need counts, a %-format of check_budget's
    numbers, and the config fields (section.key) that lower it."""

    cap: int
    counts: str
    lowers: str


#: name -> Budget, one row per cap
BUDGETS = {
    "samples": Budget(1 << 24, "partition would carry %d sample points",
                      "partition.cells_per_axis or partition.samples_per_cell"),
    #: entries (functions x cells) of one sampled test bank; each function also
    #: counts ulam.BANK_FUNCTION_ENTRIES for the closures and array header it carries
    "bank": Budget(1 << 26, "%d test functions on %d cells make %d bank entries",
                   "banks.test_functions or partition.cells_per_axis"),
    #: periodic points listed over all p <= max_period, the sum of |det(L^p - I)|,
    #: or a rotation's q
    "periodic": Budget(1 << 16, "periodic-point search up to period %d lists %d "
                       "periodic points by period %d", "options.max_period"),
    #: points of one equispaced grid: the tameness grid (which also sizes the
    #: simplex's 256 x points price buffer) and the proximality and limit probes
    "grid": Budget(1 << 16, "a grid of %d^%d points", "banks.grid_size, "
                   "options.proximality_points or options.limit_probe_count"),
    #: terms of one cancellation defect: K terms take 2^(K-1) sign-pattern solves
    "cancellation": Budget(14, "cancellation over %d terms (%d sign-pattern solves)",
                           "options.tameness_k_max"),
    "covering": Budget(1 << 22, "covering at horizon %d may need %d pairwise distances",
                       "horizons.covering_horizon"),
    #: pair tests of one proximality sweep at worst, probes x P // 2 offsets x (horizon + 1):
    #: with eps >= 1/2, or orbits that crowd together, every offset is met at every step
    "sweep": Budget(1 << 31, "%d probe points to horizon %d make %d sweep pair tests at most",
                    "options.proximality_points or horizons.proximality_horizon"),
    #: entries of one (P, P) pair array: proximality_graph holds two, the bool
    #: hit mask and the edges, and transitivity_defect a float32 copy of the
    #: relation. The cap keeps P below 2^24, so its float32 counts are exact
    "pair_plane": Budget(1 << 22, "%d probe points make %d-entry pair planes",
                         "options.proximality_points"),
    #: operator steps x stored matrix entries of one schedule walk, about a
    #: minute of sparse products at 1 ns per stored entry
    "walk": Budget(1 << 36, "a schedule walk of %d operator steps over %d stored matrix "
                   "entries makes %d entry-steps",
                   "horizons.schedule_lengths or partition.cells_per_axis"),
    #: most terminal classes x cells that the dense measure vectors may hold
    "measures": Budget(1 << 26, "%d terminal classes x %d cells need %d stationary-measure "
                       "entries", "partition.cells_per_axis"),
}


def check_budget(name, need, *numbers):
    """Raise ResourceBudgetError if need is over BUDGETS[name].cap; numbers fill its counts."""
    row = BUDGETS[name]
    if need > row.cap:
        raise ResourceBudgetError("%s, over the budget of %d; lower %s"
                                  % (row.counts % numbers, row.cap, row.lowers))
