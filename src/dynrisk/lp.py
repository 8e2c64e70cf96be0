"""Small dense linear programs for penalty evaluation.

The penalty program minimizes c.x subject to G.x >= h with every h_i <= 0,
so x = 0 is feasible.  The production route solves its LP dual, max h.lam
subject to G^T lam = c, lam >= 0, which is bounded by 0: ``DualSupports``
enumerates the dual's basic supports, and above ``SUPPORT_LIMIT`` of them
``maximize_dual_highs`` solves it with one HiGHS call.  An infeasible dual
means the primal is unbounded, and the value is -inf.

The primal oracle works inside a box |x_j| <= M instead: two interchangeable
box solvers (HiGHS, and enumeration of basic feasible points) and
``minimize_with_escalation``, which detects unboundedness of the un-boxed
program by growing the box and watching whether the optimum keeps escaping
through it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

NEG_INF = float("-inf")

ESCALATION_ROUNDS = 3
ESCALATION_FACTOR = 10.0
DECREASE_TOL_FACTOR = 1e-6
# dual supports above which a penalty program goes to one HiGHS solve per
# density: near a thousand, factoring them costs about two HiGHS solves
SUPPORT_LIMIT = 1024


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


def support_count(n_rows: int, n_vars: int) -> int:
    """Candidate supports of the dual: nonempty sets of at most n_vars rows."""
    return sum(math.comb(n_rows, r) for r in range(1, min(n_rows, n_vars) + 1))


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order, whatever the leading shape;
    numpy's own reductions may order the terms by the shape of the stack."""
    out = x[..., 0]
    for j in range(1, x.shape[-1]):
        out = out + x[..., j]
    return out


class DualSupports:
    """Every basic support of max h.lam s.t. G^T lam = c, lam >= 0, factored once.

    A basic solution lives on linearly independent rows of G, so on at most
    min(S, V) of the S rows.  Each block holds the supports of one size: the
    (N, V, r) columns G_B^T, their pseudo-inverses from one batched SVD, and
    the (N, r) penalties; rank-deficient supports are dropped, since every
    basic solution lives on an independent one.  Needs h <= 0.
    """

    def __init__(self, G: np.ndarray, h: np.ndarray):
        n_rows, n_vars = G.shape
        self.blocks = []
        for r in range(1, min(n_rows, n_vars) + 1):
            rows = np.array(list(itertools.combinations(range(n_rows), r)))
            A = G[rows].transpose(0, 2, 1)
            u, s, vh = np.linalg.svd(A, full_matrices=False)
            full = s[:, -1] > s[:, 0] * max(n_vars, r) * np.finfo(float).eps
            if full.any():
                pinv = vh[full].transpose(0, 2, 1) / s[full][:, None, :] @ u[full].transpose(0, 2, 1)
                self.blocks.append((A[full], pinv, h[rows[full]]))

    def maximize(self, C: np.ndarray) -> np.ndarray:
        """Optimal values for a (K, V) stack of right-hand sides c: -> (K,).

        A support is feasible when its least-squares lam reproduces c within
        the vertex oracle's row-relative 1e-9 and is nonnegative within the
        same rule; lam is clipped at 0 before it is scored.  A stack gives the
        bits of one call per c.
        """
        # the empty support, lam = 0, is feasible only for c = 0
        best = np.where(np.abs(C).max(axis=1) <= 1e-9 * (np.abs(C) + 1.0).max(axis=1), 0.0, NEG_INF)
        c = C[:, None, :]  # (K, 1, V), against each support's (N, V) fit
        for A, pinv, h in self.blocks:
            lam = _sum_last(pinv * c[:, :, None, :])  # (K, N, r)
            lam_v = lam[:, :, None, :]
            resid = np.abs(_sum_last(A * lam_v) - c).max(axis=-1)
            scale = (_sum_last(np.abs(A) * np.abs(lam_v)) + np.abs(c) + 1.0).max(axis=-1)
            ok = (resid <= 1e-9 * scale) & np.all(lam >= -1e-9 * (np.abs(lam) + 1.0), axis=-1)
            score = _sum_last(h * np.maximum(lam, 0.0))
            best = np.maximum(best, np.where(ok, score, NEG_INF).max(axis=-1))
        # 0 + v, not v: zero penalties sum to -0.0 where some h_i is -0.0
        return 0.0 + best


def maximize_dual_highs(G: np.ndarray, h: np.ndarray, c: np.ndarray) -> float:
    """The same dual by one HiGHS solve, lam >= 0 and no box; -inf when infeasible."""
    res = linprog(-h, A_eq=G.T, b_eq=c, bounds=(0, None), method="highs")
    if res.status == 2:
        return NEG_INF
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    return 0.0 - res.fun
