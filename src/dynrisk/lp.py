"""Small dense linear programs for penalty evaluation.

Each program minimizes c.x subject to G.x >= h inside a box |x_j| <= M.
Two interchangeable solvers are provided: the production path delegates to
scipy's HiGHS simplex, the oracle enumerates basic feasible points directly.
Unboundedness of the un-boxed program is detected by growing the box and
watching whether the optimum keeps escaping through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

NEG_INF = float("-inf")

ESCALATION_ROUNDS = 3
ESCALATION_FACTOR = 10.0
DECREASE_TOL_FACTOR = 1e-6


class InfeasibleError(RuntimeError):
    """The constraint system has no solution; the utility is corrupted."""


@dataclass
class BoxSolution:
    value: float
    x: np.ndarray
    box_active: bool


def _box_active(x: np.ndarray, box: float) -> bool:
    return bool(np.any(np.abs(np.abs(x) - box) <= 1e-7 * box))


def solve_box_lp_highs(c, G, h, box: float) -> BoxSolution:
    """Minimize c.x s.t. G.x >= h, |x| <= box, via HiGHS."""
    c = np.asarray(c, dtype=float)
    if G is None or len(G) == 0:
        kwargs = {}
    else:
        kwargs = {"A_ub": -np.asarray(G, dtype=float), "b_ub": -np.asarray(h, dtype=float)}
    # one (lo, hi) pair: linprog broadcasts it to every variable
    res = linprog(c, bounds=(-box, box), method="highs", **kwargs)
    if res.status == 2:
        raise InfeasibleError("penalty program infeasible")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    return BoxSolution(float(res.fun), x, _box_active(x, box))


def solve_box_lp_vertices(c, G, h, box: float) -> BoxSolution:
    """Same contract as the HiGHS path, by enumerating candidate vertices.

    Stacks the scenario constraints with the box faces and solves every
    square subsystem; the optimum of a bounded LP sits on such a vertex.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = [np.asarray(G, dtype=float)] if G is not None and len(G) else []
    rhs = [np.asarray(h, dtype=float)] if rows else []
    eye = np.eye(n)
    rows.extend([eye, -eye])
    rhs.extend([np.full(n, -box), np.full(n, -box)])
    A = np.vstack(rows)
    b = np.concatenate(rhs)

    best_val = None
    best_x = None
    for picks in itertools.combinations(range(A.shape[0]), n):
        idx = list(picks)
        sub = A[idx]
        try:
            x = np.linalg.solve(sub, b[idx])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        # row-relative residuals: a box-sized absolute tolerance would let
        # ill-conditioned subsystems smuggle in infeasible candidates
        scale = np.abs(A) @ np.abs(x) + np.abs(b) + 1.0
        resid = A @ x - b
        if np.abs(resid[idx]).max() > 1e-9 * scale[idx].max():
            continue
        if np.any(resid < -1e-9 * scale):
            continue
        val = float(c @ x)
        if best_val is None or val < best_val:
            best_val = val
            best_x = x
    if best_val is None:
        raise InfeasibleError("penalty program infeasible (no feasible vertex)")
    return BoxSolution(best_val, best_x, _box_active(best_x, box))


def minimize_with_escalation(solver, c, G, h, box: float) -> tuple[float, dict]:
    """Detect unboundedness by widening the box; returns (-inf for unbounded).

    A solution off the box faces is final.  Otherwise the box grows tenfold
    up to three times; once an enlargement stops lowering the optimum by more
    than a box-relative threshold the value is accepted, and a run of strict
    decreases through every round is flagged as -inf.
    """
    sol = solver(c, G, h, box)
    diag = {"box": box, "rounds": 0}
    if not sol.box_active:
        return sol.value, diag
    val = sol.value
    for r in range(1, ESCALATION_ROUNDS + 1):
        threshold = DECREASE_TOL_FACTOR * box
        box *= ESCALATION_FACTOR
        sol = solver(c, G, h, box)
        diag = {"box": box, "rounds": r}
        if val - sol.value <= threshold:
            return sol.value, diag
        if not sol.box_active:
            return sol.value, diag
        val = sol.value
    return NEG_INF, diag
