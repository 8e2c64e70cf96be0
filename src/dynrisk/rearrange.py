"""Rearrangement classes, max-correlation values and comonotonicity certificates.

The rearrangement class of a process holds every adapted process with the
same path-vector law.  With non-uniform probabilities, paths are only permuted
within groups of outcomes of equal probability; the restriction is recorded on
the class.

A class keeps its members' values as one ``(size, L, M)`` stack, and each
member is a read-only view into it, built without revalidation because the
enumeration only emits adapted arrangements.  Pairings of a whole class
against a density are one call of the stacked kernel
``processes._pairings``, whose rows carry the bits of one ``pairing`` call
per member; the max-correlation table, the duality harness's uniform
attainers and the linear-driven stage checks all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .processes import AdaptedProcess, DensityProcess, _pairings, pairing
from .space import CapExceededError, ConditionalValue, DEFAULT_TOL, _atom_cuts

PATH_TOL = 1e-12


@dataclass
class PathLaw:
    """Deduplicated paths with aggregated masses, sorted lexicographically."""

    paths: np.ndarray  # (k, window length)
    masses: np.ndarray  # (k,)

    def approx_eq(self, other: "PathLaw", tol: float = DEFAULT_TOL) -> bool:
        if self.paths.shape != other.paths.shape:
            return False
        return (
            float(np.abs(self.paths - other.paths).max(initial=0.0)) <= tol
            and float(np.abs(self.masses - other.masses).max(initial=0.0)) <= tol
        )


def path_law(X: AdaptedProcess) -> PathLaw:
    paths = X.values.T  # one row per outcome
    order = np.lexsort(paths.T[::-1])
    groups: list[np.ndarray] = []
    masses: list[float] = []
    for w in order:
        row = paths[w]
        if groups and np.abs(groups[-1] - row).max() <= PATH_TOL:
            masses[-1] += X.space.probs[w]
        else:
            groups.append(row)
            masses.append(float(X.space.probs[w]))
    return PathLaw(np.array(groups), np.array(masses))


@dataclass
class RearrangementClass:
    representative: AdaptedProcess
    members: list[AdaptedProcess]
    level_restricted: bool  # True when non-uniform probabilities forced level grouping
    values: np.ndarray  # (size, L, M): the members' values, stacked in member order

    @property
    def size(self) -> int:
        return len(self.members)


def _stacked_class(X_hat: AdaptedProcess, rows: list[np.ndarray], restricted: bool) -> RearrangementClass:
    """A class whose members are read-only views into one stack of adapted arrangements."""
    values = np.array(rows, dtype=float).reshape((len(rows),) + X_hat.values.shape)
    values.flags.writeable = False
    members = [AdaptedProcess._wrap(X_hat.space, X_hat.t_start, v) for v in values]
    return RearrangementClass(X_hat, members, restricted, values)


def _probability_levels(space, tol: float = PATH_TOL) -> list[list[int]]:
    """Outcomes grouped by probability value; singleton list when uniform."""
    order = np.argsort(space.probs, kind="stable")
    levels: list[list[int]] = []
    for w in order:
        if levels and abs(space.probs[levels[-1][-1]] - space.probs[w]) <= tol:
            levels[-1].append(int(w))
        else:
            levels.append([int(w)])
    return levels


def enumerate_class(X_hat: AdaptedProcess, cap: int = 100_000) -> RearrangementClass:
    """All adapted arrangements of the path multiset, permuting within
    probability levels.

    Backtracking assigns paths outcome by outcome and prunes any prefix that
    breaks measurability, so the cost tracks the class size rather than the
    raw number of permutations.  A prefix is kept while every atom's values
    spread (max minus min) by at most ``PATH_TOL``, the test of
    ``_Windowed`` and of the brute-force oracle, so members are adapted by
    construction and are built without revalidation.
    """
    space = X_hat.space
    M, L = space.n_outcomes, X_hat.length
    levels = _probability_levels(space)
    level_of = np.empty(M, dtype=int)
    for li, lev in enumerate(levels):
        level_of[lev] = li
    # per level: list of distinct paths with multiplicities
    level_pool: list[list[tuple[np.ndarray, int]]] = []
    for lev in levels:
        pool: list[tuple[np.ndarray, int]] = []
        rows = sorted((X_hat.values[:, w] for w in lev), key=lambda r: tuple(r))
        for row in rows:
            if pool and np.abs(pool[-1][0] - row).max() <= PATH_TOL:
                pool[-1] = (pool[-1][0], pool[-1][1] + 1)
            else:
                pool.append((row, 1))
        level_pool.append(pool)
    # as float lists: the pruning loop below reads them one value at a time
    paths = [[row.tolist() for row, _ in pool] for pool in level_pool]

    # prev[k][w]: the previous outcome of w's atom at time t_start + k, or -1;
    # hi/lo[k][w]: the max and min of the values placed on that atom up to w
    prev = [[-1] * M for _ in range(L)]
    for k in range(L):
        for atom in space.atoms(X_hat.t_start + k):
            for p, w in zip(atom, atom[1:]):
                prev[k][w] = p
    hi = [[0.0] * M for _ in range(L)]
    lo = [[0.0] * M for _ in range(L)]

    counts = [[c for _, c in pool] for pool in level_pool]
    assigned = np.empty((L, M))
    found: list[np.ndarray] = []

    def place(w: int) -> None:
        if w == M:
            if len(found) >= cap:
                raise CapExceededError(f"rearrangement class exceeds cap {cap}")
            found.append(assigned.copy())
            return
        li = level_of[w]
        for pi, path in enumerate(paths[li]):
            if counts[li][pi] == 0:
                continue
            ok = True
            for k in range(L):
                x = path[k]
                p = prev[k][w]
                h = x if p < 0 else max(hi[k][p], x)
                l = x if p < 0 else min(lo[k][p], x)
                if h - l > PATH_TOL:
                    ok = False
                    break
                hi[k][w] = h
                lo[k][w] = l
            if not ok:
                continue
            assigned[:, w] = path
            counts[li][pi] -= 1
            place(w + 1)
            counts[li][pi] += 1

    place(0)
    return _stacked_class(X_hat, found, len(levels) > 1)


def enumerate_class_bruteforce(X_hat: AdaptedProcess, cap: int = 100_000) -> RearrangementClass:
    """Oracle: filter every level-preserving outcome permutation for
    adaptedness and deduplicate.  Cost grows factorially; tests only."""
    import itertools

    space = X_hat.space
    levels = _probability_levels(space)
    seen: list[np.ndarray] = []
    perms_per_level = [list(itertools.permutations(lev)) for lev in levels]
    work = 1
    for p in perms_per_level:
        work *= len(p)
    if work > 10_000_000:
        raise CapExceededError(f"oracle permutation count {work} too large")
    for combo in itertools.product(*perms_per_level):
        vals = np.empty_like(X_hat.values)
        for lev, perm in zip(levels, combo):
            for dst, src in zip(lev, perm):
                vals[:, dst] = X_hat.values[:, src]
        if _atom_cuts(space, X_hat.t_start, vals, PATH_TOL).any():
            continue
        if any(np.abs(v - vals).max() <= PATH_TOL for v in seen):
            continue
        seen.append(vals.copy())
        if len(seen) > cap:
            raise CapExceededError(f"rearrangement class exceeds cap {cap}")
    return _stacked_class(X_hat, seen, len(levels) > 1)


def _first_near_max(table: np.ndarray) -> list[int]:
    """Per column, the first row within 1e-15 of the column's max."""
    return np.argmax(table >= table.max(axis=0) - 1e-15, axis=0).tolist()


def _attains(table: np.ndarray, best: np.ndarray | None = None) -> np.ndarray:
    """Per row, whether it reaches ``best`` (by default the column max) on
    every column, within 1e-12 * max(1, |best|); a single row gives one bool."""
    if best is None:
        best = table.max(axis=0)
    return np.all(table >= best - 1e-12 * np.maximum(1.0, np.abs(best)), axis=-1)


@dataclass
class MaxCorrelationResult:
    value: ConditionalValue
    argmax_index: list[int]  # per window-start atom, first maximizing member
    rearrangement: RearrangementClass

    def argmax_member(self, atom_k: int) -> AdaptedProcess:
        return self.rearrangement.members[self.argmax_index[atom_k]]


def _class_pairings(cls: RearrangementClass, a: DensityProcess, t: int, t_end: int) -> np.ndarray:
    """(size, atoms at t): every member's pairing against a, in one pass over the stack."""
    rep = cls.representative
    return _pairings(rep.space, cls.values[:, rep._span(t, t_end)], a.values[a._span(t, t_end, rep.space)], t)


def max_correlation(
    a: DensityProcess,
    X_hat: AdaptedProcess,
    t: int,
    t_end: int | None = None,
    cap: int = 100_000,
    rearrangement: RearrangementClass | None = None,
) -> MaxCorrelationResult:
    """Largest pairing against a over the rearrangement class, per atom."""
    if t_end is None:
        t_end = X_hat.t_end
    cls = rearrangement if rearrangement is not None else enumerate_class(X_hat, cap)
    table = _class_pairings(cls, a, t, t_end)
    return MaxCorrelationResult(ConditionalValue(X_hat.space, t, table.max(axis=0)), _first_near_max(table), cls)


def lap_upper_bound(a: DensityProcess, X_hat: AdaptedProcess, t: int, t_end: int | None = None) -> ConditionalValue:
    """Assignment-problem relaxation of max_correlation, dropping adaptedness.

    Each window-start atom matches its outcomes injectively into the global
    path multiset, maximizing the probability-weighted inner products with the
    outcome's increment vector; this dominates the restriction of any class
    member to the atom.
    """
    from scipy.optimize import linear_sum_assignment  # on use, so importing dynrisk skips scipy.optimize
    if t_end is None:
        t_end = X_hat.t_end
    space = X_hat.space
    paths = X_hat.values[X_hat._span(t, t_end)].T  # (M, L) global multiset, one per outcome
    incs = a.values[a._span(t, t_end, space)].T  # (M, L)
    out = np.empty(space.n_atoms(t))
    for k, atom in enumerate(space.atoms(t)):
        idx = list(atom)
        cost = (space.probs[idx, None] * (incs[idx] @ paths.T))  # (|atom|, M)
        rows, cols = linear_sum_assignment(cost, maximize=True)
        out[k] = cost[rows, cols].sum() / space.probs[idx].sum()
    return ConditionalValue(space, t, out)


@dataclass
class ComonotonicityCertificate:
    comonotone: bool
    member_residuals: list[np.ndarray]  # per member, per atom: Psi - pairing >= 0
    sum_residuals: np.ndarray
    tol: float
    details: list[str] = field(default_factory=list)


def is_comonotone(
    a0: DensityProcess,
    family: Sequence[AdaptedProcess],
    tol: float = DEFAULT_TOL,
    cap: int = 100_000,
    rearrangements: Sequence[RearrangementClass] | None = None,
) -> ComonotonicityCertificate:
    """Certify that each member, and their sum, attains its max correlation
    against a0.

    ``rearrangements``, when given, holds each member's class; a rearranged
    member has its marginal's class, so a caller holding the marginals'
    classes passes them and only the sum's class is enumerated.
    """
    family = list(family)
    if not family:
        raise ValueError("empty family")
    t = family[0].t_start
    t_end = family[0].t_end
    member_res = []
    details = []
    ok = True
    for i, X in enumerate(family):
        family[0]._same_window(X)
        cls = None if rearrangements is None else rearrangements[i]
        psi = max_correlation(a0, X, t, t_end, cap, rearrangement=cls).value.values
        direct = pairing(X, a0, t, t_end).values
        res = psi - direct
        member_res.append(res)
        if res.max() > tol:
            ok = False
            details.append(f"member {i} misses its max correlation by {res.max():.3g}")
    total = family[0]
    for X in family[1:]:
        total = total + X
    psi_sum = max_correlation(a0, total, t, t_end, cap).value.values
    direct_sum = pairing(total, a0, t, t_end).values
    sum_res = psi_sum - direct_sum
    if sum_res.max() > tol:
        ok = False
        details.append(f"sum misses its max correlation by {sum_res.max():.3g}")
    return ComonotonicityCertificate(ok, member_res, sum_res, tol, details)
