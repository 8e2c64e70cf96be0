"""Finite filtered probability spaces, conditional values and stopping times.

Everything in this package lives on a finite outcome set with strictly
positive probabilities, so almost-sure statements are pointwise statements
and essential suprema over finite families are atom-wise maxima.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

PROB_TOL = 1e-12
DEFAULT_TOL = 1e-9
# (outcomes, horizon) up to which the harnesses check every stopping time;
# larger spaces get the deterministic ones only
EXHAUSTIVE_LIMIT = (8, 3)

NEG_INF = float("-inf")


class CapExceededError(RuntimeError):
    """An enumeration would exceed its configured cap."""


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


class FiniteFilteredSpace:
    """Finite outcome set with probabilities and a refining partition per time.

    ``partitions[t]`` lists the information atoms at time ``t`` as tuples of
    outcome indices.  The time-0 partition must be trivial and every later
    partition must refine its predecessor.  Probabilities are strictly
    positive and sum to one.
    """

    def __init__(self, probs: Sequence[float], partitions: Sequence[Sequence[Sequence[int]]]):
        self.probs = _frozen(probs)
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("probs must be a non-empty vector")
        if np.any(self.probs <= 0):
            raise ValueError("all outcome probabilities must be strictly positive")
        if abs(self.probs.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {self.probs.sum()!r}, not 1")
        if len(partitions) < 2:
            raise ValueError("need partitions for t = 0..T with T >= 1")

        m = self.probs.size
        self.partitions: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
            tuple(tuple(sorted(int(i) for i in atom)) for atom in part) for part in partitions
        )
        for t, part in enumerate(self.partitions):
            seen = sorted(i for atom in part for i in atom)
            if seen != list(range(m)):
                raise ValueError(f"partition at t={t} does not partition 0..{m - 1}")
            if any(len(atom) == 0 for atom in part):
                raise ValueError(f"empty atom in partition at t={t}")
        if self.partitions[0] != (tuple(range(m)),):
            raise ValueError("the time-0 partition must be trivial")

        # refinement: each atom at t+1 sits inside a single atom at t
        self._atom_index = []
        for t, part in enumerate(self.partitions):
            idx = np.empty(m, dtype=int)
            for k, atom in enumerate(part):
                idx[list(atom)] = k
            idx.flags.writeable = False
            self._atom_index.append(idx)
        for t in range(len(self.partitions) - 1):
            coarse = self._atom_index[t]
            for atom in self.partitions[t + 1]:
                if len({coarse[i] for i in atom}) != 1:
                    raise ValueError(f"partition at t={t + 1} does not refine partition at t={t}")
        self._layouts: dict[int, tuple] = {}

    @property
    def n_outcomes(self) -> int:
        return self.probs.size

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    def atoms(self, t: int) -> tuple[tuple[int, ...], ...]:
        self._check_time(t)
        return self.partitions[t]

    def n_atoms(self, t: int) -> int:
        return len(self.atoms(t))

    def atom_index(self, t: int) -> np.ndarray:
        """Outcome -> position of its time-t atom."""
        self._check_time(t)
        return self._atom_index[t]

    def atom_layout(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached (order, starts, seg, w_ord, wsum) for segmented reductions.

        ``order`` lists outcomes grouped by time-t atom, ``starts`` marks the
        first position of each group, ``seg`` maps positions back to atoms,
        ``w_ord``/``wsum`` are the reordered and per-atom-summed probabilities.
        """
        self._check_time(t)
        cached = self._layouts.get(t)
        if cached is None:
            part = self.partitions[t]
            order = _frozen(np.concatenate([np.asarray(atom, dtype=int) for atom in part]), dtype=int)
            counts = np.array([len(atom) for atom in part])
            starts = _frozen(np.concatenate([[0], np.cumsum(counts)[:-1]]), dtype=np.intp)
            seg = _frozen(np.repeat(np.arange(len(part)), counts), dtype=int)
            w_ord = _frozen(self.probs[order])
            wsum = _frozen(np.add.reduceat(w_ord, starts))
            cached = (order, starts, seg, w_ord, wsum)
            self._layouts[t] = cached
        return cached

    def _check_time(self, t: int) -> None:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")

    def expect(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(self.probs @ y)

    def is_event(self, mask, t: int) -> bool:
        """Whether the outcome mask is a union of time-t atoms."""
        mask = np.asarray(mask, dtype=bool)
        return all(len({bool(mask[i]) for i in atom}) == 1 for atom in self.atoms(t))

    def __repr__(self) -> str:
        return f"FiniteFilteredSpace(M={self.n_outcomes}, T={self.horizon})"


def dyadic_uniform(horizon: int) -> FiniteFilteredSpace:
    """Uniform binary tree: 2**horizon outcomes, splitting once per step."""
    m = 2**horizon
    partitions = []
    for t in range(horizon + 1):
        width = m >> t
        partitions.append([tuple(range(a, a + width)) for a in range(0, m, width)])
    return FiniteFilteredSpace(np.full(m, 1.0 / m), partitions)


class ConditionalValue:
    """A time-t measurable quantity: one extended real per time-t atom.

    ``-inf`` is allowed (penalty values), ``+inf`` never is.  Addition
    saturates at ``-inf``; negating a ``-inf`` entry is an error.
    """

    __slots__ = ("space", "time", "values")

    def __init__(self, space: FiniteFilteredSpace, time: int, values):
        space._check_time(time)
        vals = np.asarray(values, dtype=float)
        if vals.shape != (space.n_atoms(time),):
            raise ValueError(
                f"expected {space.n_atoms(time)} atom values at t={time}, got shape {vals.shape}"
            )
        if np.any(np.isposinf(vals)) or np.any(np.isnan(vals)):
            raise ValueError("conditional values must be finite or -inf")
        self.space = space
        self.time = time
        self.values = _frozen(vals)

    @classmethod
    def constant(cls, space: FiniteFilteredSpace, time: int, c: float) -> "ConditionalValue":
        return cls(space, time, np.full(space.n_atoms(time), float(c)))

    @classmethod
    def from_outcomes(cls, space: FiniteFilteredSpace, time: int, y, tol: float = DEFAULT_TOL) -> "ConditionalValue":
        """Build from an outcome-indexed vector that is constant on atoms."""
        y = np.asarray(y, dtype=float)
        out = np.empty(space.n_atoms(time))
        for k, atom in enumerate(space.atoms(time)):
            block = y[list(atom)]
            mixed = np.any(np.isneginf(block)) and np.any(np.isfinite(block))
            spread = np.ptp(block) > tol if np.all(np.isfinite(block)) else mixed
            if spread:
                raise ValueError(f"values not constant on atom {atom} at t={time}")
            out[k] = block[0]
        return cls(space, time, out)

    def lift(self) -> np.ndarray:
        """Outcome-indexed representation."""
        return self.values[self.space.atom_index(self.time)]

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, ConditionalValue):
            if other.space is not self.space or other.time != self.time:
                raise ValueError("conditional values live at different times or spaces")
            return other.values
        return np.full_like(self.values, float(other))

    def __add__(self, other) -> "ConditionalValue":
        a, b = self.values, self._coerce(other)
        if np.any(np.isposinf(b)):
            raise ValueError("cannot add +inf")
        out = np.where(np.isneginf(a) | np.isneginf(b), NEG_INF, a + b)
        return ConditionalValue(self.space, self.time, out)

    __radd__ = __add__

    def __neg__(self) -> "ConditionalValue":
        if not self.is_finite():
            raise ValueError("cannot negate a -inf conditional value")
        return ConditionalValue(self.space, self.time, -self.values)

    def __sub__(self, other) -> "ConditionalValue":
        other_vals = self._coerce(other)
        if np.any(np.isneginf(other_vals)):
            raise ValueError("cannot subtract a -inf value")
        out = np.where(np.isneginf(self.values), NEG_INF, self.values - other_vals)
        return ConditionalValue(self.space, self.time, out)

    def __mul__(self, scalar: float) -> "ConditionalValue":
        scalar = float(scalar)
        if scalar < 0 and not self.is_finite():
            raise ValueError("cannot scale a -inf value by a negative factor")
        out = self.values * scalar
        out[np.isnan(out)] = 0.0  # 0 * -inf
        return ConditionalValue(self.space, self.time, out)

    __rmul__ = __mul__

    def approx_eq(self, other, tol: float = DEFAULT_TOL) -> bool:
        return self.max_residual(other) <= tol

    def max_residual(self, other) -> float:
        """Largest absolute atom-wise gap; inf when -inf flags disagree."""
        b = self._coerce(other)
        a = self.values
        na, nb = np.isneginf(a), np.isneginf(b)
        if not (na.any() or nb.any()):
            return float(np.abs(a - b).max())
        if np.any(na != nb):
            return float("inf")
        both = ~na
        return float(np.abs(a[both] - b[both]).max()) if both.any() else 0.0

    def __repr__(self) -> str:
        return f"ConditionalValue(t={self.time}, {np.array2string(self.values, precision=6)})"


def cond_expect(space: FiniteFilteredSpace, y, t: int) -> ConditionalValue:
    """Conditional expectation of an outcome-indexed vector given time-t information.

    ``-inf`` entries propagate to their atom (probabilities are positive).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (space.n_outcomes,):
        raise ValueError(f"expected {space.n_outcomes} outcome values, got shape {y.shape}")
    return ConditionalValue(space, t, _cond_expect(space, y, t))


def _cond_expect(space: FiniteFilteredSpace, y: np.ndarray, t: int) -> np.ndarray:
    """Conditional expectation along the last axis: (..., M) -> (..., atoms at t).

    Every leading index is reduced on its own, so a stack of vectors gives
    the same bits as one call per vector.
    """
    order, starts, seg, w_ord, wsum = space.atom_layout(t)
    y_ord = y.take(order, axis=-1)
    neg = np.isneginf(y_ord)
    if neg.any():
        y_ord = np.where(neg, 0.0, y_ord)
    # anchored at the first outcome of each atom so atom-constant inputs come
    # back bit-exact, making the operator exactly idempotent
    ref = y_ord.take(starts, axis=-1)
    out = ref + np.add.reduceat(w_ord * (y_ord - ref.take(seg, axis=-1)), starts, axis=-1) / wsum
    if neg.any():
        out[np.logical_or.reduceat(neg, starts, axis=-1)] = NEG_INF
    return out


def _family_values(family: Sequence[ConditionalValue]) -> tuple[ConditionalValue, np.ndarray]:
    """First member and the stacked values of a non-empty family at a common time."""
    family = list(family)
    if not family:
        raise ValueError("empty family")
    first = family[0]
    for v in family[1:]:
        if v.space is not first.space or v.time != first.time:
            raise ValueError("family members live at different times or spaces")
    return first, np.stack([v.values for v in family])


def ess_sup_family(family: Sequence[ConditionalValue]) -> ConditionalValue:
    """Atom-wise maximum of a non-empty family at a common time."""
    first, stacked = _family_values(family)
    return ConditionalValue(first.space, first.time, stacked.max(axis=0))


def ess_inf_family(family: Sequence[ConditionalValue]) -> ConditionalValue:
    """Atom-wise minimum of a non-empty family at a common time."""
    first, stacked = _family_values(family)
    return ConditionalValue(first.space, first.time, stacked.min(axis=0))


class StoppingTime:
    """Outcome-indexed integer time whose sublevel sets respect the filtration."""

    __slots__ = ("space", "values")

    def __init__(self, space: FiniteFilteredSpace, values):
        vals = np.asarray(values, dtype=int)
        if vals.shape != (space.n_outcomes,):
            raise ValueError("one stopping value per outcome required")
        ok, violation = is_stopping_time(space, vals)
        if not ok:
            raise ValueError(f"not a stopping time: level set at s={violation[0]} cuts atom {violation[1]}")
        self.space = space
        self.values = _frozen(vals, dtype=int)

    @classmethod
    def constant(cls, space: FiniteFilteredSpace, s: int) -> "StoppingTime":
        return cls(space, np.full(space.n_outcomes, int(s)))

    @classmethod
    def _wrap(cls, space: FiniteFilteredSpace, values: np.ndarray) -> "StoppingTime":
        """Constructor bypassing validation; callers guarantee the invariant."""
        obj = object.__new__(cls)
        obj.space = space
        obj.values = _frozen(values, dtype=int)
        return obj

    def min_value(self) -> int:
        return int(self.values.min())

    def max_value(self) -> int:
        return int(self.values.max())

    def __le__(self, other: "StoppingTime") -> bool:
        return bool(np.all(self.values <= other.values))

    def __repr__(self) -> str:
        return f"StoppingTime({self.values.tolist()})"


def is_stopping_time(space: FiniteFilteredSpace, candidate) -> tuple[bool, tuple[int, tuple[int, ...]] | None]:
    """Check the stopping-time invariant; returns the first violating (s, atom)."""
    vals = np.asarray(candidate, dtype=int)
    if np.any(vals < 0) or np.any(vals > space.horizon):
        raise ValueError(f"stopping values must lie in [0, {space.horizon}]")
    for s in range(space.horizon + 1):
        below = vals <= s
        for atom in space.atoms(s):
            flags = {bool(below[i]) for i in atom}
            if len(flags) != 1:
                return False, (s, atom)
    return True, None


def _stopping_times(space: FiniteFilteredSpace, t_low: int = 0, cap: int = 100_000) -> np.ndarray:
    """All stopping times with values in [t_low, T], one per row of a (K, M) int array.

    Built by choosing, level by level, which still-running atoms stop.
    """
    T = space.horizon
    results: list[np.ndarray] = []

    def grow(s: int, assigned: np.ndarray, active_mask: np.ndarray) -> None:
        if len(results) > cap:
            raise CapExceededError(f"more than {cap} stopping times")
        if not active_mask.any():
            results.append(assigned.copy())
            return
        if s == T:
            assigned = assigned.copy()
            assigned[active_mask] = T
            results.append(assigned)
            return
        active_atoms = [atom for atom in space.atoms(s) if active_mask[atom[0]]]
        for stop_subset in itertools.product([False, True], repeat=len(active_atoms)):
            nxt = assigned.copy()
            nxt_active = active_mask.copy()
            for atom, stop in zip(active_atoms, stop_subset):
                if stop:
                    nxt[list(atom)] = s
                    nxt_active[list(atom)] = False
            grow(s + 1, nxt, nxt_active)

    grow(t_low, np.zeros(space.n_outcomes, dtype=int), np.ones(space.n_outcomes, dtype=bool))
    return np.array(results, dtype=int).reshape(-1, space.n_outcomes)


def enumerate_stopping_times(
    space: FiniteFilteredSpace, t_low: int = 0, cap: int = 100_000
) -> list[StoppingTime]:
    """All stopping times with values in [t_low, T], in ``_stopping_times`` order."""
    # level-by-level construction guarantees the stopping invariant
    return [StoppingTime._wrap(space, v) for v in _stopping_times(space, t_low, cap)]


def _unions(space: FiniteFilteredSpace, atoms: Sequence[tuple[int, ...]], cap: int, where: str) -> list[np.ndarray]:
    """All unions of the given disjoint atoms as boolean outcome masks (incl. empty and full)."""
    if 2 ** len(atoms) > cap:
        raise CapExceededError(f"2^{len(atoms)} events {where} exceed cap {cap}")
    picks = np.array(list(itertools.product([False, True], repeat=len(atoms))), dtype=bool).reshape(-1, len(atoms))
    masks = np.zeros((len(picks), space.n_outcomes), dtype=bool)
    for k, atom in enumerate(atoms):
        masks[:, list(atom)] = picks[:, k, None]
    return list(masks)


def enumerate_events(space: FiniteFilteredSpace, t: int, cap: int = 100_000) -> list[np.ndarray]:
    """All unions of time-t atoms as boolean outcome masks (incl. empty and full)."""
    return _unions(space, space.atoms(t), cap, f"at t={t}")


def stopping_atoms(space: FiniteFilteredSpace, theta: StoppingTime) -> list[tuple[int, tuple[int, ...]]]:
    """Atoms of the information set at a stopping time: time-s atoms inside {theta == s}."""
    out = []
    for s in range(space.horizon + 1):
        level = theta.values == s
        if not level.any():
            continue
        for atom in space.atoms(s):
            if level[atom[0]]:
                out.append((s, atom))
    return out


def enumerate_stopping_events(
    space: FiniteFilteredSpace, theta: StoppingTime, cap: int = 100_000
) -> list[np.ndarray]:
    """All events measurable at the stopping time, as boolean outcome masks."""
    atoms = [atom for _, atom in stopping_atoms(space, theta)]
    return _unions(space, atoms, cap, "at the stopping time")


def is_stopping_event(space: FiniteFilteredSpace, mask, theta: StoppingTime) -> bool:
    """Whether the mask is measurable at the stopping time."""
    mask = np.asarray(mask, dtype=bool)
    for s, atom in stopping_atoms(space, theta):
        if len({bool(mask[i]) for i in atom}) != 1:
            return False
    return True
