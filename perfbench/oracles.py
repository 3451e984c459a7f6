"""Oracles for the benchmark's reports, computed apart from the program.

Nothing here imports semicascade. The Ulam matrix, float orbits, test
banks and feature rows are rebuilt from the documented formulas, and each
verdict is derived another way: a Kemeny-Snell projection from a dense
solve, periodic-point counts from |det(A^p - I)|, scipy's linprog on each
sign pattern, and a plain greedy eps-net.

`expectations(config)` computes what a correct report must contain, and
`check(analysis, exp, outdir, results, q)` compares one analysis of a written
report with it, returning a list of problems (empty when the analysis is
correct). `self_test()` shows that every check rejects a perturbed result.
"""

import csv
import json
import math
import os
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse import csgraph

TWO_PI = 2.0 * math.pi
KRONECKER_1D = 0.6180339887498949
KRONECKER_2D = (0.7548776662466927, 0.5698402909980532)
ENVELOPE_BANK = 16
ENVELOPE_POINTS = 16

# tolerances of the checks
PROJECTION_TOL = 1e-9       # idempotency, row sums, ||VQ - Q||, Q vs oracle
CANCELLATION_TOL = 1e-8     # rotation defect at K >= 3
LP_TOL = 1e-7               # embedded simplex vs linprog
MEASURE_TOL = 1e-9
DEFECT_RTOL = 1e-6
CLASS_MASS_SLACK = 1e-2


class OracleError(Exception):
    """An oracle's own premise does not hold for the generated input."""


# ---------------------------------------------------------------------------
# maps, partitions and the sampled matrix


def wrap01(x):
    r = np.mod(x, 1.0)
    r[r >= 1.0] = 0.0
    return r


def step(system, pts):
    """One map step on points of shape (P, d)."""
    fam, par = system["family"], system["params"]
    if fam == "circle_rotation":
        return wrap01(pts + par["alpha"])
    if fam == "north_south":
        k = par["kappa"]
        return wrap01(pts + k * np.sin(TWO_PI * pts) / TWO_PI)
    if fam == "toral_automorphism":
        out = np.empty_like(pts)
        out[:, 0] = par["m11"] * pts[:, 0] + par["m12"] * pts[:, 1]
        out[:, 1] = par["m21"] * pts[:, 0] + par["m22"] * pts[:, 1]
        return wrap01(out)
    raise OracleError("no oracle for family %r" % fam)


def dimension(system):
    return 2 if system["family"] == "toral_automorphism" else 1


def orbits(system, pts, n):
    out = np.empty((n + 1,) + pts.shape)
    out[0] = pts
    cur = pts.copy()
    for k in range(n):
        cur = step(system, cur)
        out[k + 1] = cur
    return out


def grid_points(count, d):
    side = np.arange(count, dtype=np.float64) / count
    if d == 1:
        return side[:, None]
    gx, gy = np.meshgrid(side, side, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def probe_grid(count, d):
    """The CLI's probe layout: count points in 1-D, a round(sqrt)^2 grid in 2-D."""
    return grid_points(count if d == 1 else max(2, int(round(math.sqrt(count)))), d)


def kronecker(count, d):
    j = np.arange(1, count + 1, dtype=np.float64)
    if d == 1:
        return np.mod(j * KRONECKER_1D, 1.0)[:, None]
    return np.column_stack([np.mod(j * KRONECKER_2D[0], 1.0),
                            np.mod(j * KRONECKER_2D[1], 1.0)])


def cell_of(pts, m):
    idx = np.minimum((pts * m).astype(np.int64), m - 1)
    return idx[:, 0] if pts.shape[1] == 1 else idx[:, 0] * m + idx[:, 1]


def ulam_matrix(system, m, s):
    """Sampled transfer matrix: closed-cell corners first, then the center."""
    d = dimension(system)
    w = 1.0 / m
    base = ([(0.0,), (w,), (0.5 * w,)] if d == 1 else
            [(0.0, 0.0), (w, 0.0), (0.0, w), (w, w), (0.5 * w, 0.5 * w)])
    if s > len(base):
        raise OracleError("oracle covers samples_per_cell <= %d" % len(base))
    corners = grid_points(m, d)
    pts = (corners[:, None, :] + np.asarray(base[:s])[None, :, :]).reshape(-1, d)
    cols = cell_of(step(system, wrap01(pts)), m)
    n = m ** d
    rows = np.repeat(np.arange(n), s)
    return sp.csr_matrix((np.full(rows.shape, 1.0 / s), (rows, cols)), shape=(n, n))


def terminal_classes(mat):
    """Closed communicating classes of the chain, as sorted cell arrays."""
    n_comp, labels = csgraph.connected_components(mat, directed=True,
                                                  connection="strong")
    coo = mat.tocoo()
    leaves = labels[coo.row] != labels[coo.col]
    has_out = np.zeros(n_comp, dtype=bool)
    has_out[labels[coo.row[leaves]]] = True
    return [np.flatnonzero(labels == c) for c in range(n_comp) if not has_out[c]]


def ks_projection(p):
    """Cesaro limit Q = A Pi of a dense row-stochastic matrix (Kemeny-Snell).

    Each closed class C gets its stationary vector from a dense solve; the
    transient rows solve (I - P_TT) Q_T = P_TR Q_R.
    """
    n = p.shape[0]
    classes = terminal_classes(sp.csr_matrix(p))
    q = np.zeros((n, n))
    for cls in classes:
        k = len(cls)
        lhs = np.vstack([p[np.ix_(cls, cls)].T - np.eye(k), np.ones((1, k))])
        rhs = np.zeros(k + 1)
        rhs[-1] = 1.0
        pi = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        q[np.ix_(cls, cls)] = pi[None, :]
    rec = np.concatenate(classes)
    trans = np.setdiff1d(np.arange(n), rec)
    if trans.size:
        lhs = np.eye(trans.size) - p[np.ix_(trans, trans)]
        q[trans] = np.linalg.solve(lhs, p[np.ix_(trans, rec)] @ q[rec])
    return q, classes


def uniform_stationary(mat):
    """Uniform vector, after checking the chain is irreducible and doubly stochastic.

    For the rotation every row puts 1/3 and 2/3 on two neighbouring shifted
    cells; for an integer torus automorphism each corner family of samples
    is a permutation of lattice points. Either way columns sum to 1.
    """
    n = mat.shape[0]
    n_comp, _ = csgraph.connected_components(mat, directed=True, connection="strong")
    cols = np.asarray(mat.sum(axis=0)).ravel()
    if n_comp != 1 or np.abs(cols - 1.0).max() > 1e-12:
        raise OracleError("chain is not irreducible and doubly stochastic")
    return np.full(n, 1.0 / n)


# ---------------------------------------------------------------------------
# test banks, orbits features and small solvers


def _term_1d(k, t):
    if k == 0:
        return np.ones_like(t)
    freq = (k + 1) // 2
    return np.cos(TWO_PI * freq * t) if k % 2 else np.sin(TWO_PI * freq * t)


def _pairs_2d(count):
    pairs, total = [], 0
    while len(pairs) < count:
        for i in range(total + 1):
            if len(pairs) < count:
                pairs.append((i, total - i))
        total += 1
    return pairs


def bank_values(count, pts):
    """Trig bank rows at points (P, d): 1, cos, sin, cos 2, ... (2-D: diagonal tensors)."""
    if pts.shape[1] == 1:
        return np.stack([_term_1d(k, pts[:, 0]) for k in range(count)])
    return np.stack([_term_1d(i, pts[:, 0]) * _term_1d(j, pts[:, 1])
                     for i, j in _pairs_2d(count)])


def envelope_features(system, horizon):
    """Row t holds 2^-(i+j) x_i(phi^t w_j) for 16 bank functions and 16 points."""
    d = dimension(system)
    orb = orbits(system, kronecker(ENVELOPE_POINTS, d), horizon)
    weights = np.outer(0.5 ** np.arange(1, ENVELOPE_BANK + 1),
                       0.5 ** np.arange(1, ENVELOPE_POINTS + 1)).ravel()
    feats = np.stack([bank_values(ENVELOPE_BANK, orb[t]).ravel()
                      for t in range(horizon + 1)])
    return feats * weights[None, :]


def greedy_net_counts(feats, eps_list):
    """First-fit eps-net sizes over the rows in order, l1 distance."""
    counts = []
    for eps in eps_list:
        centers = np.empty_like(feats)
        centers[0] = feats[0]
        k = 1
        for row in feats[1:]:
            if not np.any(np.abs(centers[:k] - row[None, :]).sum(axis=1) <= eps):
                centers[k] = row
                k += 1
        counts.append(k)
    return counts


def minimax_linprog(values):
    """min over sign patterns and the simplex of max_s |sum_k a_k values[k, s]|."""
    n_terms, n_grid = values.shape
    cost = np.zeros(n_terms + 1)
    cost[-1] = 1.0
    eq = np.ones((1, n_terms + 1))
    eq[0, -1] = 0.0
    best = math.inf
    for pattern in range(1 << (n_terms - 1)):
        signs = np.array([1.0] + [-1.0 if (pattern >> (k - 1)) & 1 else 1.0
                                  for k in range(1, n_terms)])
        rows = (signs[:, None] * values).T
        col = -np.ones((n_grid, 1))
        a_ub = np.vstack([np.hstack([rows, col]), np.hstack([-rows, col])])
        res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(2 * n_grid), A_eq=eq,
                      b_eq=[1.0], bounds=[(0, None)] * n_terms + [(None, None)],
                      method="highs", options={"presolve": False})
        if res.status != 0:
            raise OracleError("linprog failed on sign pattern %d: %s"
                              % (pattern, res.message))
        best = min(best, res.fun)
    return best


def triple_counts(edges):
    """(defect, two-step triples, violations) of a symmetric proximality relation."""
    off = edges.copy()
    np.fill_diagonal(off, False)
    a0 = off.astype(np.int64)
    two = a0 @ a0
    np.fill_diagonal(two, 0)
    total = int(two.sum())
    violations = int(two[~off].sum())
    return (violations / total if total else 0.0), total, violations


def circle_distance(a, b):
    d = np.abs(a[:, None, :] - b[None, :, :])
    return np.minimum(d, 1.0 - d).max(axis=2)


def proximal_pairs(system, pts, horizon, eps):
    """Min orbit distance below eps over steps 0..horizon, replayed in float."""
    if system["family"] == "circle_rotation":
        # an isometry: proximal means the initial distance is below eps
        dmin = circle_distance(pts, pts)
    else:
        cur = pts.copy()
        dmin = circle_distance(cur, cur)
        for _ in range(horizon):
            cur = step(system, cur)
            np.minimum(dmin, circle_distance(cur, cur), out=dmin)
    edges = dmin < eps
    np.fill_diagonal(edges, True)
    return edges | edges.T


def toral_orbit_counts(a, max_period):
    """Periodic orbits per least period, from |det(A^p - I)| and Moebius inversion."""
    fixed = {}
    ap = np.eye(2, dtype=object)
    for p in range(1, max_period + 1):
        ap = ap @ a
        fixed[p] = abs((ap[0, 0] - 1) * (ap[1, 1] - 1) - ap[0, 1] * ap[1, 0])
    least = {}
    for p in range(1, max_period + 1):
        least[p] = fixed[p] - sum(least[d] for d in range(1, p) if p % d == 0)
    return {p: least[p] // p for p in least if least[p]}


def _toral_image(a, pt):
    x, y = pt
    return ((a[0][0] * x + a[0][1] * y) % 1, (a[1][0] * x + a[1][1] * y) % 1)


# ---------------------------------------------------------------------------
# expectations per config


def expectations(config):
    """Everything a correct report for this config must show."""
    system = config["system"]
    d = dimension(system)
    m = config["partition"]["cells_per_axis"]
    mat = ulam_matrix(system, m, config["partition"]["samples_per_cell"])
    opts, hor, tol = config["options"], config["horizons"], config["tolerances"]
    wanted = config["analyses"]
    exp = {}

    dense = mat.shape[0] <= 1024
    if dense:
        q, classes = ks_projection(mat.toarray())
        exp["q"] = q
    else:
        classes = terminal_classes(mat)
    exp["classes"] = classes

    if system["family"] == "north_south":
        half = m // 2
        if len(classes) != 1 or list(classes[0]) != [half]:
            raise OracleError("north_south terminal class is not the cell holding 1/2")
        rest = np.arange(mat.shape[0]) != 0  # cell 0 holds the repeller
        if np.any(q[rest, half] < 1.0 - PROJECTION_TOL):
            raise OracleError("north_south projection leaks mass off the attractor")
        exp["attractor_cell"] = half
        attractor = np.zeros(mat.shape[0])
        attractor[half] = 1.0
        exp["measures"] = [attractor]
    else:
        exp["measures"] = [uniform_stationary(mat)]

    if "unique_minimal_set" in wanted:
        # graph verdict: every cell reaches exactly one closed class
        if dense:
            reach = np.stack([q[:, c].sum(axis=1) > 1e-12 for c in classes], axis=1)
            graph_verdict = bool(np.all(reach.sum(axis=1) == 1))
        elif len(classes) == 1:
            graph_verdict = True
        else:
            raise OracleError("oracle covers one closed class above 1024 cells")
        verdict = graph_verdict
        exp["orbit_counts"] = None
        if system["family"] == "toral_automorphism":
            par = system["params"]
            a = [[par["m11"], par["m12"]], [par["m21"], par["m22"]]]
            counts = toral_orbit_counts(np.array(a, dtype=object), opts["max_period"])
            exp["orbit_counts"], exp["matrix"] = counts, a
            n_comp = csgraph.connected_components(mat, directed=True,
                                                  connection="strong")[0]
            if n_comp == 1 and sum(counts.values()) >= 2:
                verdict = False  # one dense orbit closure holds two periodic orbits
        exp["unique_minimal_set"] = {"verdict": verdict, "graph_verdict": graph_verdict}

    if "convergence" in wanted:
        lengths = hor["schedule_lengths"]
        probe = opts["convergence_probe"]
        coords = np.atleast_1d(np.asarray(probe, dtype=np.float64))[None, :]
        mu = np.zeros(mat.shape[0])
        mu[int(cell_of(coords, m)[0])] = 1.0
        centers = grid_points(m, d) + 0.5 * (1.0 / m)
        bank = bank_values(config["banks"]["test_functions"], centers)
        pt = mat.toarray().T
        outs, acc, cur = [], np.zeros_like(mu), mu
        for n in range(1, max(lengths) + 1):
            acc += cur
            cur = pt @ cur
            if n in lengths:
                outs.append(acc / n)
        dist = [float(np.abs(bank @ (outs[i] - outs[i + 1])).max())
                for i in range(len(outs) - 1)]
        n_tail = max(2, -(-len(lengths) // 4))
        tail = outs[-n_tail:]
        worst = max(float(np.abs(bank @ (x - y)).max())
                    for i, x in enumerate(tail) for y in tail[i + 1:])
        verdict = ("converged" if worst <= tol["tol"] else
                   "not_converged" if worst >= 10 * tol["tol"] else "inconclusive")
        if verdict == "converged" and \
                float(np.abs(bank @ (outs[-1] - mu @ q)).max()) > tol["tol"]:
            raise OracleError("Cesaro average is not near the Kemeny-Snell limit")
        exp["convergence"] = {"defect_vs_n": list(zip(lengths[1:], dist)),
                              "verdict": verdict}

    if "proximality" in wanted:
        pts = probe_grid(opts["proximality_points"], d)
        edges = proximal_pairs(system, pts, hor["proximality_horizon"], tol["eps"])
        defect, total, violations = triple_counts(edges)
        exp["proximality"] = {"n_points": pts.shape[0], "defect": defect,
                              "n_two_step_triples": total,
                              "n_violations": violations, "vacuous": total == 0}

    if "tameness" in wanted:
        k_max = opts["tameness_k_max"]
        orb = orbits(system, probe_grid(config["banks"]["grid_size"], d), k_max)
        values = np.stack([bank_values(2, orb[p])[1] for p in range(1, k_max + 1)])
        exp["tameness"] = {"k_max": k_max, "lp": minimax_linprog(values),
                           "rigid": system["family"] == "circle_rotation"}

    if "covering" in wanted:
        feats = envelope_features(system, hor["covering_horizon"])
        exp["covering"] = {"horizon": hor["covering_horizon"],
                           "eps_list": list(opts["covering_eps"]),
                           "counts": greedy_net_counts(feats, opts["covering_eps"])}

    if "limit_measures" in wanted:
        probes = probe_grid(opts["limit_probe_count"], d)
        rows = []
        for c in cell_of(probes, m):
            masses = [float(q[c, cls].sum()) for cls in classes]
            rows.append({"ergodic": max(masses) >= 1.0 - CLASS_MASS_SLACK,
                         "mass": max(masses)})
        exp["limit_measures"] = rows
    return exp


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the result is correct


def _close(a, b, rtol=DEFECT_RTOL, atol=1e-12):
    return abs(a - b) <= atol + rtol * abs(b)


def check_convergence(entry, exp):
    got = entry.get("defect_vs_n", [])
    want = exp["convergence"]["defect_vs_n"]
    problems = []
    if [int(n) for n, _ in got] != [int(n) for n, _ in want]:
        problems.append("defect_vs_n lengths %s != %s" % ([n for n, _ in got],
                                                          [n for n, _ in want]))
    else:
        for (n, a), (_, b) in zip(got, want):
            if not _close(float(a), b):
                problems.append("defect at n=%d is %.17g, oracle %.17g" % (n, a, b))
    verdict = exp["convergence"]["verdict"]
    if entry.get("verdict") != verdict:
        problems.append("verdict %s, oracle %s" % (entry.get("verdict"), verdict))
    return problems


def _witness_problems(entry, exp):
    a = exp["matrix"]
    want = exp["orbit_counts"]
    seen, per_period, problems = set(), {}, []
    for wit in entry.get("witnesses", []):
        pts = [tuple(Fraction(c) for c in pt) for pt in wit["points"]]
        period = int(wit["period"])
        if len(pts) != period or len(set(pts)) != period:
            problems.append("witness of period %d lists %d points" % (period, len(pts)))
            continue
        for i, pt in enumerate(pts):
            if not all(0 <= c < 1 for c in pt):
                problems.append("witness point %s outside the torus" % (pt,))
            if _toral_image(a, pt) != pts[(i + 1) % period]:
                problems.append("witness point %s does not map to the next one" % (pt,))
        if seen & set(pts):
            problems.append("witness orbits overlap")
        seen |= set(pts)
        per_period[period] = per_period.get(period, 0) + 1
    if per_period != want:
        problems.append("orbits per period %s, |det(A^p - I)| gives %s"
                        % (per_period, want))
    return problems


def check_unique_minimal_set(entry, exp):
    problems = ["%s %r, oracle %r" % (k, entry.get(k), v)
                for k, v in exp["unique_minimal_set"].items() if entry.get(k) != v]
    if exp["orbit_counts"] is not None and entry.get("exact_verdict") is not None:
        problems += _witness_problems(entry, exp)
    return problems


def check_proximality(entry, exp):
    want = exp["proximality"]
    problems = ["%s %r, oracle %r" % (k, entry.get(k), v) for k, v in want.items()
                if k != "defect" and entry.get(k) != v]
    if not _close(float(entry.get("defect", -1.0)), want["defect"], 0.0):
        problems.append("defect %r, oracle %r" % (entry.get("defect"), want["defect"]))
    return problems


def check_measures(entry, vectors, exp):
    problems = []
    if entry.get("n_measures") != len(exp["measures"]) or len(vectors) != len(exp["measures"]):
        return ["%r measures (%d tables), oracle %d" % (entry.get("n_measures"),
                                                       len(vectors), len(exp["measures"]))]
    for i, (got, want) in enumerate(zip(vectors, exp["measures"])):
        if got.shape != want.shape or np.abs(got - want).max() > MEASURE_TOL:
            problems.append("measure %d differs from the oracle" % i)
    if entry.get("support_minimality") != [True] * len(vectors):
        problems.append("support_minimality %r" % entry.get("support_minimality"))
    if not entry.get("attraction_center", {}).get("equal"):
        problems.append("attraction center differs from the closed classes")
    return problems


def check_tameness(entry, exp):
    want = exp["tameness"]
    defects = {int(k): float(v) for k, v in entry.get("defect_per_k", {}).items()}
    if sorted(defects) != list(range(2, want["k_max"] + 1)):
        return ["defects for K=%s" % sorted(defects)]
    problems = []
    if abs(defects[want["k_max"]] - want["lp"]) > LP_TOL:
        problems.append("defect at K=%d is %.17g, linprog %.17g"
                        % (want["k_max"], defects[want["k_max"]], want["lp"]))
    if want["rigid"]:
        problems += ["rotation defect at K=%d is %.3g" % (k, v)
                     for k, v in defects.items() if k >= 3 and v > CANCELLATION_TOL]
    return problems


def check_covering(entry, exp):
    want = exp["covering"]
    return ["%s %r, greedy net %r" % (k, entry.get(k), v) for k, v in want.items()
            if entry.get(k) != v]


def check_kernel_projection(entry, exp, q=None):
    problems = []
    for key in ("residual_idem", "residual_vq"):
        val = entry.get(key)
        if not isinstance(val, (int, float)) or not val <= PROJECTION_TOL:
            problems.append("%s %r above %g" % (key, val, PROJECTION_TOL))
    if q is not None:
        want = exp["q"]
        if q.shape != want.shape:
            return problems + ["Q has shape %s" % (q.shape,)]
        diff = float(np.abs(q - want).max())
        rows = float(np.abs(q.sum(axis=1) - 1.0).max())
        idem = float(np.abs(q @ q - q).sum(axis=1).max())
        for name, val in (("Q vs Kemeny-Snell", diff), ("row sums", rows),
                          ("idempotency", idem)):
            if val > PROJECTION_TOL:
                problems.append("%s off by %.3g" % (name, val))
        if "attractor_cell" in exp:
            col = q[1:, exp["attractor_cell"]]
            if col.min() < 1.0 - PROJECTION_TOL:
                problems.append("a row off the repeller puts %.3g outside the attractor"
                                % (1.0 - col.min()))
    return problems


def check_limit_measures(entry, exp):
    got = entry.get("probes", [])
    want = exp["limit_measures"]
    if len(got) != len(want):
        return ["%d probes, oracle %d" % (len(got), len(want))]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        if g.get("ergodic") != w["ergodic"]:
            problems.append("probe %d ergodic %r, oracle %r" % (i, g.get("ergodic"),
                                                                 w["ergodic"]))
        if abs(float(g.get("mass_in_class", -1.0)) - w["mass"]) > CLASS_MASS_SLACK:
            problems.append("probe %d class mass %r, oracle %.6f"
                            % (i, g.get("mass_in_class"), w["mass"]))
    return problems


def _read_measures(outdir):
    vectors, i = [], 0
    while os.path.exists(os.path.join(outdir, "measure_%d.csv" % i)):
        with open(os.path.join(outdir, "measure_%d.csv" % i), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        vectors.append(np.array([float(w) for _, w in rows]))
        i += 1
    return vectors


def read_report(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)["results"]


def check(analysis, exp, outdir, results, q=None):
    """Problems with one analysis of the report written to outdir."""
    if analysis not in results:
        return ["analysis missing from the report"]
    entry = results[analysis]
    if analysis == "measures":
        return check_measures(entry, _read_measures(outdir), exp)
    if analysis == "kernel_projection":
        return check_kernel_projection(entry, exp, q)
    return {"convergence": check_convergence,
            "unique_minimal_set": check_unique_minimal_set,
            "proximality": check_proximality,
            "tameness": check_tameness,
            "covering": check_covering,
            "limit_measures": check_limit_measures}[analysis](entry, exp)


# ---------------------------------------------------------------------------
# self-test: every check accepts the oracle's answer and rejects a perturbed one


def _expect(ok, problems, label):
    if bool(problems) == ok:
        raise AssertionError("self-test %s: expected %s, got %r"
                             % (label, "pass" if ok else "rejection", problems))


def self_test():
    # Kemeny-Snell: 0 and 2 absorb, 1 splits evenly, so Q[1] = (1/2, 0, 1/2)
    p = np.array([[1.0, 0, 0], [0.5, 0, 0.5], [0, 0, 1.0]])
    q, classes = ks_projection(p)
    if np.abs(q[1] - [0.5, 0, 0.5]).max() > 1e-15 or len(classes) != 2:
        raise AssertionError("self-test ks_projection: Q[1] = %s" % q[1])
    exp = {"q": q}
    good = {"residual_idem": 1e-15, "residual_vq": 1e-15}
    _expect(True, check_kernel_projection(good, exp, q.copy()), "projection")
    _expect(False, check_kernel_projection(dict(good, residual_idem=2e-4), exp),
            "projection idem")
    bad = q.copy()
    bad[1] = [0.5 + 1e-6, 0, 0.5 - 1e-6]
    _expect(False, check_kernel_projection(good, exp, bad), "projection Q")

    # north_south at 16 cells: one closed class, the cell holding 1/2
    ns = {"family": "north_south", "params": {"kappa": 0.5}}
    q, classes = ks_projection(ulam_matrix(ns, 16, 3).toarray())
    if [list(c) for c in classes] != [[8]] or q[1:, 8].min() < 1 - 1e-12:
        raise AssertionError("self-test north_south classes %s" % classes)
    exp = {"q": q, "attractor_cell": 8}
    _expect(True, check_kernel_projection(good, exp, q.copy()), "north_south")
    bad = q.copy()
    bad[3, 8] -= 1e-6
    bad[3, 9] += 1e-6
    _expect(False, check_kernel_projection(good, exp, bad), "north_south leak")

    # cat map: 1 fixed point and 2 orbits of period 2 (|det(A^2 - I)| = 5)
    cat = [[2, 1], [1, 1]]
    counts = toral_orbit_counts(np.array(cat, dtype=object), 2)
    if counts != {1: 1, 2: 2}:
        raise AssertionError("self-test periodic counts %s" % counts)
    wit = [{"period": 1, "points": [["0", "0"]]},
           {"period": 2, "points": [["4/5", "3/5"], ["1/5", "2/5"]]},
           {"period": 2, "points": [["3/5", "1/5"], ["2/5", "4/5"]]}]
    exp = {"unique_minimal_set": {"verdict": False, "graph_verdict": True},
           "orbit_counts": counts, "matrix": cat}
    entry = {"verdict": False, "graph_verdict": True, "exact_verdict": False,
             "witnesses": wit}
    _expect(True, check_unique_minimal_set(entry, exp), "witnesses")
    _expect(False, check_unique_minimal_set(dict(entry, witnesses=wit[:2]), exp),
            "witness dropped")
    moved = [wit[0], {"period": 2, "points": [["4/5", "2/5"], ["1/5", "2/5"]]}, wit[2]]
    _expect(False, check_unique_minimal_set(dict(entry, witnesses=moved), exp),
            "witness moved")
    _expect(False, check_unique_minimal_set(dict(entry, verdict=True), exp), "verdict")

    # rotation proximality: proximal iff the initial distance is below eps
    rot = {"family": "circle_rotation", "params": {"alpha": KRONECKER_1D}}
    pts = np.array([[0.0], [0.0006], [0.0012], [0.5]])
    edges = proximal_pairs(rot, pts, 8, 1e-3)
    defect, total, viol = triple_counts(edges)
    if (total, viol) != (2, 2):
        raise AssertionError("self-test triples %s" % ((total, viol),))
    want = {"n_points": 4, "defect": defect, "n_two_step_triples": total,
            "n_violations": viol, "vacuous": False}
    _expect(True, check_proximality(dict(want), {"proximality": want}), "proximality")
    _expect(False, check_proximality(dict(want, n_violations=1), {"proximality": want}),
            "proximality violations")

    # uniform stationary measure of a doubly stochastic rotation chain
    mu = uniform_stationary(ulam_matrix(rot, 16, 3))
    entry = {"n_measures": 1, "support_minimality": [True],
             "attraction_center": {"equal": True}}
    _expect(True, check_measures(entry, [mu.copy()], {"measures": [mu]}), "measures")
    bad = mu.copy()
    bad[0] += 1e-8
    bad[1] -= 1e-8
    _expect(False, check_measures(entry, [bad], {"measures": [mu]}), "measures moved")

    # cancellation: equal rows cancel exactly; a defect above 1e-8 at K=3 is rejected
    rows = np.array([[1.0, -0.5, 0.25], [1.0, -0.5, 0.25], [0.3, 0.9, -0.1]])
    lp = minimax_linprog(rows)
    if abs(lp) > LP_TOL:
        raise AssertionError("self-test linprog on equal rows gave %r" % lp)
    exp = {"tameness": {"k_max": 3, "lp": lp, "rigid": True}}
    _expect(True, check_tameness({"defect_per_k": {"2": 0.0, "3": 0.0}}, exp), "tameness")
    _expect(False, check_tameness({"defect_per_k": {"2": 0.0, "3": 1e-6}}, exp),
            "tameness rigid")
    exp["tameness"]["rigid"] = False
    _expect(False, check_tameness({"defect_per_k": {"2": 0.0, "3": 1e-5}}, exp),
            "tameness linprog")

    # greedy net over 1-D feature rows 0, 1, 2, 0.5 at eps 0.6 opens 3 centers
    feats = np.array([[0.0], [1.0], [2.0], [0.5]])
    counts = greedy_net_counts(feats, [0.6])
    if counts != [3]:
        raise AssertionError("self-test greedy net %s" % counts)
    want = {"horizon": 3, "eps_list": [0.6], "counts": counts}
    _expect(True, check_covering(dict(want), {"covering": want}), "covering")
    _expect(False, check_covering(dict(want, counts=[4]), {"covering": want}),
            "covering count")

    # convergence and limit measures: a moved defect or a flipped flag is rejected
    want = {"convergence": {"defect_vs_n": [(128, 0.01), (256, 0.005)],
                            "verdict": "converged"}}
    got = {"defect_vs_n": [[128, 0.01], [256, 0.005]], "verdict": "converged"}
    _expect(True, check_convergence(got, want), "convergence")
    _expect(False, check_convergence(dict(got, defect_vs_n=[[128, 0.0101], [256, 0.005]]),
                                     want), "convergence defect")
    want = {"limit_measures": [{"ergodic": True, "mass": 1.0}]}
    got = {"probes": [{"ergodic": True, "mass_in_class": 0.9999}]}
    _expect(True, check_limit_measures(got, want), "limit measures")
    _expect(False, check_limit_measures({"probes": [{"ergodic": False,
                                                     "mass_in_class": 0.9999}]}, want),
            "limit measures flag")
