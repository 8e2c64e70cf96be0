"""Rearrangement classes, max-correlation values and comonotonicity certificates.

The rearrangement class of a process holds every adapted process with the
same path-vector law.  With non-uniform probabilities, paths are only permuted
within groups of outcomes of equal probability; the restriction is recorded on
the class.

``enumerate_class`` backtracks outcome by outcome over tables that the space
builds once per window and caches (``FiniteFilteredSpace.arrangement_layout``:
the probability levels and each outcome's atom links).  A process whose
every level holds one distinct path has a class of one member, returned
without search; otherwise the search records pool indices and the stack is
one gather.

A class keeps its members' values as one ``(size, L, M)`` stack, and each
member is a read-only view into it, built without revalidation because the
enumeration only emits adapted arrangements.  Pairings of a whole class
against a density are one call of the stacked kernel
``processes._pairings``, whose rows carry the bits of one ``pairing`` call
per member; the max-correlation table, the duality harness's uniform
attainers and the linear-driven stage checks all read it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import sub
from typing import Sequence

import numpy as np

from .processes import AdaptedProcess, DensityProcess, _pairings, pairing
from .space import CapExceededError, ConditionalValue, DEFAULT_TOL, _atom_cuts, _probability_levels

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


def _stacked_class(X_hat: AdaptedProcess, rows: np.ndarray | list, restricted: bool) -> RearrangementClass:
    """A class whose members are read-only views into one stack of adapted arrangements."""
    values = np.asarray(rows, dtype=float).reshape((len(rows),) + X_hat.values.shape)
    values.flags.writeable = False
    members = [AdaptedProcess._wrap(X_hat.space, X_hat.t_start, v) for v in values]
    return RearrangementClass(X_hat, members, restricted, values)


def enumerate_class(X_hat: AdaptedProcess, cap: int = 100_000) -> RearrangementClass:
    """All adapted arrangements of the path multiset, permuting within
    probability levels.

    Backtracking assigns paths outcome by outcome and prunes any prefix that
    breaks measurability, so the cost tracks the class size rather than the
    raw number of permutations.  A prefix is kept while every atom's values
    spread (max minus min) by at most ``PATH_TOL``, the test of
    ``_Windowed`` and of the brute-force oracle, so members are adapted by
    construction and are built without revalidation.

    The levels and each outcome's atom links come from the space's cached
    ``arrangement_layout``.  Each level's pool holds its distinct paths,
    sorted, each the first row of its group within ``PATH_TOL``, and members
    carry the pools' rows, not X_hat's.  When every pool holds one path, the
    class is that one arrangement (none if it spreads on an atom), returned
    without search.  Otherwise the search records a row of pool indices per
    member and the stack is one gather from the pools.  More than ``cap``
    members raise ``CapExceededError``.
    """
    space = X_hat.space
    M, L = space.n_outcomes, X_hat.length
    levels, level_of, links, free = space.arrangement_layout(X_hat.t_start, X_hat.t_end)
    cols = X_hat.values.T.tolist()  # one path per outcome
    # paths: every level's pool in turn, with multiplicities in counts
    paths: list[list[float]] = []
    counts: list[int] = []
    pools: list[range] = []
    for lev in levels:
        first = len(paths)
        for row in sorted([cols[w] for w in lev]):
            if len(paths) > first and max(map(abs, map(sub, paths[-1], row))) <= PATH_TOL:
                counts[-1] += 1
            else:
                paths.append(row)
                counts.append(1)
        pools.append(range(first, len(paths)))

    # hi/lo[slot]: the max and min of the values placed so far on the slot's
    # atom, up to the slot's outcome
    hi = [0.0] * (M * L)
    lo = [0.0] * (M * L)

    def fits(w: int, path: list[float]) -> bool:
        for k, p, s in links[w]:
            x, h, l = path[k], hi[p], lo[p]
            if x > h:
                h = x
            elif x < l:
                l = x
            if h - l > PATH_TOL:
                return False
            hi[s] = h
            lo[s] = l
        for k, s in free[w]:
            hi[s] = lo[s] = path[k]
        return True

    if len(paths) == len(levels):  # one path per level: one arrangement, a member if adapted
        member = [paths[li] for li in level_of]
        if not all(fits(w, path) for w, path in enumerate(member)):
            return _stacked_class(X_hat, np.empty((0, L, M)), len(levels) > 1)
        if cap < 1:
            raise CapExceededError(f"rearrangement class exceeds cap {cap}")
        return _stacked_class(X_hat, [list(zip(*member))], len(levels) > 1)

    row = array("q", bytes(8 * M))  # the pool index placed on each outcome
    found = array("q")  # the rows of the members found, back to back
    limit = cap * M  # len(found) when cap members are found

    def place(w: int) -> None:
        for r in pools[level_of[w]]:
            if counts[r] and fits(w, paths[r]):
                row[w] = r
                if w == M - 1:
                    if len(found) >= limit:
                        raise CapExceededError(f"rearrangement class exceeds cap {cap}")
                    found.extend(row)
                else:
                    counts[r] -= 1
                    place(w + 1)
                    counts[r] += 1

    place(0)
    # member i's value at (k, w) is entry k of path found[i * M + w]
    slots = np.frombuffer(found, dtype=np.int64).reshape(-1, 1, M) * L + np.arange(L)[:, None]
    return _stacked_class(X_hat, np.array(paths).ravel()[slots], len(levels) > 1)


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
