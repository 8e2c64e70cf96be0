"""Finite filtered probability spaces, conditional values and stopping times.

Everything in this package lives on a finite outcome set with strictly
positive probabilities, so almost-sure statements are pointwise statements
and essential suprema over finite families are atom-wise maxima.

Atoms are numbered in one place, when a space is built: times 0..T in turn,
each time's atoms in partition order.  Every segmented reduction, over one
time or a run of times, reads its ``atom_layout``.

Only this module enumerates stopping times and events, all in one order: a
choice among n atoms (in partition order, time by time) is a number below
2**n whose highest bit is the first atom, as in ``itertools.product``.
Events at a stopping time are choices among its atoms; stopping times grow
level by level, the running time-s atoms stopping at s by a choice.  A cap
of N admits at most N, counted before any is built.  ``_times_to_check``
alone reads ``EXHAUSTIVE_LIMIT``; ``_atom_cuts`` is the one measurability rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

PROB_TOL = 1e-12
DEFAULT_TOL = 1e-9
# (outcomes, horizon) up to which the harnesses check every stopping time;
# larger spaces get the deterministic ones only
EXHAUSTIVE_LIMIT = (8, 3)
# floats in the widest temporary of one block of a stacked route (the worst-portfolio
# scan's chunks, the splice scans' blocks): under 128 KiB, glibc's default M_MMAP_THRESHOLD
CHUNK = 2**14 - 1

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
        if not np.all(self.probs > 0):  # NaN too
            raise ValueError("all outcome probabilities must be strictly positive")
        if abs(self.probs.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {float(self.probs.sum())!r}, not 1")
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

        # _ids[t, w] numbers w's time-t atom among the atoms of all times; time t's start at _offsets[t]
        self._offsets = _frozen(np.array([0] + [len(part) for part in self.partitions]).cumsum(), dtype=int)
        index = np.empty((len(self.partitions), m), dtype=int)
        for row, part in zip(index, self.partitions):
            for k, atom in enumerate(part):
                row[list(atom)] = k
        index.flags.writeable = False
        self._atom_index = list(index)
        self._ids = _frozen(index + self._offsets[:-1, None], dtype=int)
        # refinement: each atom at t+1 sits inside a single atom at t
        for t in range(len(self.partitions) - 1):
            coarse = self._atom_index[t]
            for atom in self.partitions[t + 1]:
                if len({coarse[i] for i in atom}) != 1:
                    raise ValueError(f"partition at t={t + 1} does not refine partition at t={t}")
        self._layouts: dict[tuple[int, int], tuple] = {}
        self._arrangements: dict[tuple[int, int], tuple] = {}

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

    def atom_layout(self, t: int, t_end: int | None = None) -> tuple[np.ndarray, ...]:
        """Cached (order, starts, seg, w_ord, wsum) for segmented reductions over
        the atoms of times t..t_end (t alone by default), each time's in turn.

        ``order`` lists the positions of flattened (L, M) slices grouped by
        atom, ``starts`` marks the first position of each group, ``seg`` maps
        positions back to atoms, ``w_ord``/``wsum`` are the reordered and
        per-atom-summed probabilities.  For one time, positions are outcomes.
        """
        t_end = t if t_end is None else t_end
        cached = self._layouts.get((t, t_end))
        if cached is None:
            self._check_time(t)
            if not t <= t_end <= self.horizon:
                raise ValueError(f"end time {t_end} outside [{t}, {self.horizon}]")
            ids = self._ids[t : t_end + 1].ravel()
            # stable: outcomes ascend inside each atom, as in its partition tuple
            order = np.argsort(ids, kind="stable")
            seg = ids[order] - self._offsets[t]
            starts = np.searchsorted(seg, np.arange(self._offsets[t_end + 1] - self._offsets[t]))
            w_ord = self.probs[order % self.n_outcomes]
            cached = tuple(_frozen(a, a.dtype) for a in (order, starts, seg, w_ord, np.add.reduceat(w_ord, starts)))
            self._layouts[t, t_end] = cached
        return cached

    def arrangement_layout(self, t: int, t_end: int) -> tuple[list, ...]:
        """Cached (levels, level_of, links, free) for arranging paths over
        the window t..t_end, as plain lists.

        ``levels`` are the probability levels of ``_probability_levels`` and
        ``level_of`` gives each outcome's.  Slot w * L + k stands for outcome
        w at time t + k, L the window's length.  ``links[w]`` lists (k, slot
        of p, slot of w) for each k where p is the outcome before w in its
        time-(t + k) atom; ``free[w]`` lists (k, slot of w) where w is its
        atom's first.
        """
        cached = self._arrangements.get((t, t_end))
        if cached is None:
            m, length = self.n_outcomes, t_end - t + 1
            levels = _probability_levels(self)
            level_of = [0] * m
            for li, lev in enumerate(levels):
                for w in lev:
                    level_of[w] = li
            links: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
            free: list[list[tuple[int, int]]] = [[] for _ in range(m)]
            for k in range(length):
                for atom in self.atoms(t + k):
                    free[atom[0]].append((k, atom[0] * length + k))
                    for p, w in zip(atom, atom[1:]):
                        links[w].append((k, p * length + k, w * length + k))
            cached = self._arrangements[t, t_end] = (levels, level_of, links, free)
        return cached

    def _check_time(self, t: int) -> None:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")

    def expect(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(self.probs @ y)

    def is_event(self, mask, t: int) -> bool:
        """Whether the outcome mask is a union of time-t atoms."""
        return not _atom_cuts(self, t, np.asarray(mask, dtype=bool)[None]).any()

    def __repr__(self) -> str:
        return f"FiniteFilteredSpace(M={self.n_outcomes}, T={self.horizon})"


def _probability_levels(space: FiniteFilteredSpace) -> list[list[int]]:
    """Outcomes grouped by probability value; singleton list when uniform."""
    order = np.argsort(space.probs, kind="stable")
    levels: list[list[int]] = []
    for w in order:
        if levels and abs(space.probs[levels[-1][-1]] - space.probs[w]) <= PROB_TOL:
            levels[-1].append(int(w))
        else:
            levels.append([int(w)])
    return levels


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

    ``-inf`` is allowed (penalty values), ``+inf`` and NaN never are.  It is a
    validated holder with no arithmetic: callers compute with numpy on
    ``values``, where, with no ``+inf`` and no NaN, a plain sum saturates at
    ``-inf`` without a warning.
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

    def lift(self) -> np.ndarray:
        """Outcome-indexed representation."""
        return self.values[self.space.atom_index(self.time)]

    def max_residual(self, other: "ConditionalValue") -> float:
        """Largest absolute atom-wise gap; inf when -inf flags disagree."""
        if other.space is not self.space or other.time != self.time:
            raise ValueError("conditional values live at different times or spaces")
        a, b = self.values, other.values
        na, nb = np.isneginf(a), np.isneginf(b)
        if not (na.any() or nb.any()):
            return float(np.abs(a - b).max())
        if np.any(na != nb):
            return float("inf")
        both = ~na
        return float(np.abs(a[both] - b[both]).max()) if both.any() else 0.0

    def __repr__(self) -> str:
        return f"ConditionalValue(t={self.time}, {np.array2string(self.values, precision=6)})"


def random_conditional(space: FiniteFilteredSpace, t: int, rng: np.random.Generator, low: float, high: float) -> ConditionalValue:
    """Uniform values on [low, high) per time-t atom: the harnesses' sampled shifts and weights."""
    return ConditionalValue(space, t, rng.uniform(low, high, size=space.n_atoms(t)))


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


class StoppingTime:
    """Outcome-indexed integer time whose sublevel sets respect the filtration."""

    __slots__ = ("space", "values")

    def __init__(self, space: FiniteFilteredSpace, values):
        vals = np.asarray(values)
        if vals.shape != (space.n_outcomes,):
            raise ValueError("one stopping value per outcome required")
        ok, violation = is_stopping_time(space, vals)
        if not ok:
            raise ValueError(f"not a stopping time: level set at s={violation[0]} cuts atom {violation[1]}")
        self.space = space
        self.values = _frozen(vals, dtype=int)

    @classmethod
    def constant(cls, space: FiniteFilteredSpace, s: int) -> "StoppingTime":
        return cls(space, np.full(space.n_outcomes, s))

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

    def __repr__(self) -> str:
        return f"StoppingTime({self.values.tolist()})"


def _same_space(space: FiniteFilteredSpace, *thetas: StoppingTime) -> None:
    if any(theta.space is not space for theta in thetas):
        raise ValueError("stopping time lives on a different space")


def is_stopping_time(space: FiniteFilteredSpace, candidate) -> tuple[bool, tuple[int, tuple[int, ...]] | None]:
    """Check the stopping-time invariant; returns the first violating (s, atom)."""
    vals = np.asarray(candidate, dtype=float)
    if np.any(vals != np.round(vals)):
        raise ValueError("stopping values must be integers")
    if np.any(vals < 0) or np.any(vals > space.horizon):
        raise ValueError(f"stopping values must lie in [0, {space.horizon}]")
    cut = _first_cut(space, 0, vals <= np.arange(space.horizon + 1)[:, None])
    return cut is None, cut


def _atom_cuts(space: FiniteFilteredSpace, t_start: int, y, tol: float = 0.0) -> np.ndarray:
    """The one measurability rule: (..., L, M) values at times t_start, t_start + 1, ...
    -> (..., atoms at those times, each time's in turn), flagging the time-s
    atoms over which the time-s values spread by more than tol, as ``np.ptp``."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != space.n_outcomes:
        raise ValueError(f"expected {space.n_outcomes} entries, one per outcome, got {y.shape[-1]}")
    order, starts = space.atom_layout(t_start, t_start + y.shape[-2] - 1)[:2]
    flat = y.reshape(*y.shape[:-2], -1).take(order, axis=-1)
    return np.maximum.reduceat(flat, starts, axis=-1) - np.minimum.reduceat(flat, starts, axis=-1) > tol


def _first_cut(space: FiniteFilteredSpace, t_start: int, y, tol: float = 0.0) -> tuple[int, tuple[int, ...]] | None:
    """The first (time, atom) that ``_atom_cuts`` flags for an (L, M) stack, or None."""
    hit = np.flatnonzero(_atom_cuts(space, t_start, y, tol))
    if not hit.size:
        return None
    n = space._offsets[t_start] + hit[0]  # the atom's number
    s = int(np.searchsorted(space._offsets, n, side="right")) - 1
    return s, space.partitions[s][n - space._offsets[s]]


def _stopping_times(space: FiniteFilteredSpace, t_low: int = 0, cap: int = 100_000) -> np.ndarray:
    """All stopping times with values in [t_low, T], one per row of a (K, M) int array.

    At each s < T a row's running time-s atoms stop by every choice in turn,
    decoded as ``_Splices.points`` decodes events; what runs at T stops there.
    """
    space._check_time(t_low)
    T = space.horizon
    rows = np.full((1, space.n_outcomes), T)  # T marks an outcome still running
    for s in range(t_low, T):
        order, starts = space.atom_layout(s)[:2]
        live = rows == T
        rank = live[:, order[starts]].cumsum(axis=1)  # a running atom's rank, from 1; n in the last column
        n = rank[:, -1]
        if (2.0**n).sum() > cap:  # in floats: 1 << n wraps past 62 atoms
            raise CapExceededError(f"more than {cap} stopping times")
        # choice c of a row stops its j-th running atom when bit n - 1 - j of c is set
        shifts = (n[:, None] - rank)[:, space._atom_index[s]]
        size = 1 << n
        k = np.arange(len(rows)).repeat(size)
        choice = np.arange(len(k)) - (size.cumsum() - size).repeat(size)  # each child's place among its row's
        rows = np.where(live[k] & (choice[:, None] >> shifts[k] & 1).astype(bool), s, rows[k])
    if len(rows) > cap:  # from t_low = T, the one stopping time T
        raise CapExceededError(f"more than {cap} stopping times")
    return rows


def enumerate_stopping_times(
    space: FiniteFilteredSpace, t_low: int = 0, cap: int = 100_000
) -> list[StoppingTime]:
    """All stopping times with values in [t_low, T], in ``_stopping_times`` order."""
    # level-by-level construction guarantees the stopping invariant
    return [StoppingTime._wrap(space, v) for v in _stopping_times(space, t_low, cap)]


def _times_to_check(
    space: FiniteFilteredSpace, t_low: int, t_high: int, deterministic: bool = False
) -> tuple[np.ndarray, str]:
    """(stopping times with values in [t_low, t_high], mode) for a harness: every one on spaces
    within ``EXHAUSTIVE_LIMIT`` ("all"), else the deterministic ones ("deterministic-only").
    With ``deterministic`` they are all the harness wants, as for pasting ("all")."""
    if deterministic or space.n_outcomes > EXHAUSTIVE_LIMIT[0] or space.horizon > EXHAUSTIVE_LIMIT[1]:
        levels = np.repeat(np.arange(t_low, t_high + 1)[:, None], space.n_outcomes, axis=1)
        return levels, "all" if deterministic else "deterministic-only"
    rows = _stopping_times(space, t_low)
    return (rows if t_high == space.horizon else rows[rows.max(axis=1) <= t_high]), "all"


class _Splices:
    """The (stopping time, event) pairs of a stack of stopping times, in enumeration order.

    Events are not stored: event e of a stopping time with A atoms holds
    outcome w when bit ``shifts[w]`` of e is set, the first atom being the
    highest bit.  An event is a union of the stopping time's atoms, so it is
    measurable at that time by construction, and no splice checks it again.
    The pairs end before the first row of ``thetas`` with over ``cap``
    events, kept as ``over`` (None if there is none): ``events`` raises there,
    for the enumerators and for the stacked splice scan alike.
    """

    def __init__(self, space: FiniteFilteredSpace, thetas: np.ndarray, cap: int):
        # each outcome's stopping atom, in the space's numbering of atoms
        col = space._ids[thetas, np.arange(space.n_outcomes)]
        flags = np.zeros((len(thetas), space._offsets[-1]), dtype=bool)  # each row's stopping atoms
        flags[np.arange(len(thetas))[:, None], col] = True
        self.n_atoms = flags.sum(axis=1)
        over = np.flatnonzero(2.0**self.n_atoms > cap)
        K = int(over[0]) if over.size else len(thetas)
        self.over = thetas[K] if over.size else None
        # each outcome's stopping atom ranked among its row's
        rank = np.take_along_axis(np.cumsum(flags[:K], axis=1), col[:K], axis=1) - 1
        self.thetas = thetas[:K]
        self.shifts = self.n_atoms[:K, None] - 1 - rank
        self.offsets = np.concatenate([[0], np.cumsum(1 << self.n_atoms[:K])])
        self.size = int(self.offsets[-1])
        self.cap = cap

    def points(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(stopping times, event masks) of the pairs ranked r, as (len(r), M) arrays."""
        k = np.searchsorted(self.offsets, r, side="right") - 1
        return self.thetas[k], ((r - self.offsets[k])[:, None] >> self.shifts[k] & 1).astype(bool)

    def events(self, where: str) -> list[np.ndarray]:
        """Every event of a one-row index as boolean outcome masks (incl. empty
        and full); raises at ``over``, naming its count of events ``where``."""
        if self.over is not None:
            raise CapExceededError(f"2^{self.n_atoms[len(self.thetas)]} events {where} exceed cap {self.cap}")
        return list(self.points(np.arange(self.size))[1])


def enumerate_events(space: FiniteFilteredSpace, t: int, cap: int = 100_000) -> list[np.ndarray]:
    """All unions of time-t atoms as boolean outcome masks (incl. empty and full)."""
    space._check_time(t)
    return _Splices(space, np.full((1, space.n_outcomes), t), cap).events(f"at t={t}")


def enumerate_stopping_events(
    space: FiniteFilteredSpace, theta: StoppingTime, cap: int = 100_000
) -> list[np.ndarray]:
    """All events measurable at the stopping time, as boolean outcome masks."""
    _same_space(space, theta)
    return _Splices(space, theta.values[None], cap).events("at the stopping time")


def is_stopping_event(space: FiniteFilteredSpace, mask, theta: StoppingTime) -> bool:
    """Whether the mask is measurable at the stopping time: an event at T whose
    part on {theta = s} is an event at s, for every s."""
    _same_space(space, theta)
    levels = np.arange(space.horizon + 1)[:, None]
    # is_event comes first: it refuses a mask of the wrong length before the parts broadcast
    if not space.is_event(mask, space.horizon):
        return False
    return not _atom_cuts(space, 0, np.logical_and(theta.values == levels, mask)).any()
