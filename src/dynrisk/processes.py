"""Adapted processes, density processes and their splicing algebra.

A density process is stored through its increments on a time window; the
cumulative process starts from zero just before the window.  Pairings bill a
position against a density, concatenation splices two densities at a stopping
time, pasting splices two terminal densities at a deterministic time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .space import (
    DEFAULT_TOL,
    EXHAUSTIVE_LIMIT,
    CapExceededError,
    ConditionalValue,
    FiniteFilteredSpace,
    StoppingTime,
    cond_expect,
    enumerate_events,
    enumerate_stopping_events,
    enumerate_stopping_times,
    is_stopping_event,
)


class _Windowed:
    """Shared window plumbing for processes stored as (time, outcome) arrays."""

    def __init__(self, space: FiniteFilteredSpace, t_start: int, data):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != space.n_outcomes:
            raise ValueError(f"expected a (times, {space.n_outcomes}) array, got {arr.shape}")
        t_end = t_start + arr.shape[0] - 1
        if not (0 <= t_start <= t_end <= space.horizon):
            raise ValueError(f"window [{t_start}, {t_end}] outside [0, {space.horizon}]")
        if not np.all(np.isfinite(arr)):
            raise ValueError("process values must be finite")
        for k in range(arr.shape[0]):
            s = t_start + k
            for atom in space.atoms(s):
                if np.ptp(arr[k, list(atom)]) > 1e-12:
                    raise ValueError(f"value at time {s} not constant on atom {atom}")
        arr.flags.writeable = False
        self.space = space
        self.t_start = t_start
        self.t_end = t_end
        self.values = arr

    @classmethod
    def _wrap(cls, space: FiniteFilteredSpace, t_start: int, values: np.ndarray):
        """Constructor bypassing validation; callers guarantee adaptedness."""
        obj = object.__new__(cls)
        if values.flags.writeable:
            values.flags.writeable = False
        obj.space = space
        obj.t_start = t_start
        obj.t_end = t_start + values.shape[0] - 1
        obj.values = values
        return obj

    @property
    def window(self) -> tuple[int, int]:
        return (self.t_start, self.t_end)

    @property
    def length(self) -> int:
        return self.t_end - self.t_start + 1

    def _index(self, s: int) -> int:
        if not self.t_start <= s <= self.t_end:
            raise ValueError(f"time {s} outside window [{self.t_start}, {self.t_end}]")
        return s - self.t_start

    def slice_at(self, s: int) -> np.ndarray:
        return self.values[self._index(s)]

    def path(self, outcome: int) -> np.ndarray:
        return self.values[:, outcome]

    def _same_window(self, other) -> None:
        if other.space is not self.space or other.window != self.window:
            raise ValueError("processes live on different spaces or windows")


class AdaptedProcess(_Windowed):
    """Bounded adapted process on a time window: values[k, w] = X_{t_start+k}(w)."""

    @classmethod
    def constant(cls, space: FiniteFilteredSpace, t_start: int, t_end: int, c: float) -> "AdaptedProcess":
        return cls(space, t_start, np.full((t_end - t_start + 1, space.n_outcomes), float(c)))

    @classmethod
    def zero(cls, space: FiniteFilteredSpace, t_start: int, t_end: int) -> "AdaptedProcess":
        return cls.constant(space, t_start, t_end, 0.0)

    def __add__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        self._same_window(other)
        return AdaptedProcess._wrap(self.space, self.t_start, self.values + other.values)

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        self._same_window(other)
        return AdaptedProcess._wrap(self.space, self.t_start, self.values - other.values)

    def __neg__(self) -> "AdaptedProcess":
        return AdaptedProcess._wrap(self.space, self.t_start, -self.values)

    def __mul__(self, scalar: float) -> "AdaptedProcess":
        return AdaptedProcess._wrap(self.space, self.t_start, self.values * float(scalar))

    __rmul__ = __mul__

    def scale_by(self, factor: ConditionalValue | np.ndarray) -> "AdaptedProcess":
        """Multiply every time slice by an F_{t_start}-measurable factor."""
        lam = factor.lift() if isinstance(factor, ConditionalValue) else np.asarray(factor, dtype=float)
        return AdaptedProcess(self.space, self.t_start, self.values * lam[None, :])

    def shift_by(self, m: ConditionalValue | float) -> "AdaptedProcess":
        """X + m 1_{[t_start, oo)} with m measurable at the window start."""
        add = m.lift() if isinstance(m, ConditionalValue) else float(m)
        return AdaptedProcess(self.space, self.t_start, self.values + add)

    def indicator(self, mask) -> "AdaptedProcess":
        """1_A X for an event A measurable at the window start."""
        mask = np.asarray(mask, dtype=bool)
        if not self.space.is_event(mask, self.t_start):
            raise ValueError(f"event not measurable at t={self.t_start}")
        return AdaptedProcess._wrap(self.space, self.t_start, self.values * mask[None, :])

    def restrict(self, new_start: int) -> "AdaptedProcess":
        """Restriction to the sub-window [new_start, t_end]."""
        return AdaptedProcess._wrap(self.space, new_start, self.values[self._index(new_start):])

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def approx_eq(self, other: "AdaptedProcess", tol: float = DEFAULT_TOL) -> bool:
        return (
            other.space is self.space
            and other.window == self.window
            and float(np.abs(self.values - other.values).max()) <= tol
        )

    def __repr__(self) -> str:
        return f"AdaptedProcess([{self.t_start},{self.t_end}], {np.array2string(self.values, precision=4)})"


def mean_portfolio(members: Sequence[AdaptedProcess]) -> AdaptedProcess:
    """(1/n) sum of processes on a common window."""
    members = list(members)
    if not members:
        raise ValueError("empty portfolio")
    total = members[0]
    for x in members[1:]:
        total = total + x
    # a division, as in the worst-portfolio scan, which averages member
    # features in the same order; the two then agree bit for bit
    return AdaptedProcess._wrap(total.space, total.t_start, total.values / len(members))


class DensityProcess(_Windowed):
    """Adapted-increment process: values[k, w] = (delta a)_{t_start+k}(w).

    Construction only checks adaptedness and finiteness; sign and
    normalization are membership properties, queried via `membership`.
    """

    @property
    def increments(self) -> np.ndarray:
        return self.values

    @classmethod
    def uniform(cls, space: FiniteFilteredSpace, t_start: int, t_end: int) -> "DensityProcess":
        L = t_end - t_start + 1
        return cls(space, t_start, np.full((L, space.n_outcomes), 1.0 / L))

    def total_mass(self) -> np.ndarray:
        """Per-outcome sum of increments over the window."""
        return self.values.sum(axis=0)

    def tail_from(self, s: int) -> np.ndarray:
        """Per-outcome sum of increments at times >= s (0 past the window end)."""
        if s <= self.t_start:
            return self.total_mass()
        if s > self.t_end:
            return np.zeros(self.space.n_outcomes)
        return self.values[self._index(s):].sum(axis=0)

    def conditional_tail(self, theta: StoppingTime) -> np.ndarray:
        """Remaining conditional mass at the stopping time, per outcome.

        Outcome w gets E(sum_{j >= theta(w)} delta a_j | F_{theta(w)})(w).
        """
        out = np.empty(self.space.n_outcomes)
        for s in range(self.space.horizon + 1):
            level = theta.values == s
            if not level.any():
                continue
            tail = self.tail_from(s)
            cond = cond_expect(self.space, tail, s).lift()
            out[level] = cond[level]
        return out

    def a1_norm(self) -> float:
        return float(self.space.probs @ np.abs(self.values).sum(axis=0))

    def extend_to(self, new_start: int) -> "DensityProcess":
        """Pad with zero increments so the window starts at new_start <= t_start."""
        if new_start > self.t_start:
            raise ValueError("can only extend the window backwards")
        pad = np.zeros((self.t_start - new_start, self.space.n_outcomes))
        return DensityProcess(self.space, new_start, np.vstack([pad, self.values]))

    def restrict(self, new_start: int) -> "DensityProcess":
        """Drop increments before new_start (the cumulative restarts from 0)."""
        return DensityProcess(self.space, new_start, self.values[self._index(new_start):])

    def approx_eq(self, other: "DensityProcess", tol: float = DEFAULT_TOL) -> bool:
        return (
            other.space is self.space
            and other.window == self.window
            and float(np.abs(self.values - other.values).max()) <= tol
        )

    def __repr__(self) -> str:
        return f"DensityProcess([{self.t_start},{self.t_end}], {np.array2string(self.values, precision=4)})"


class TerminalDensity:
    """Strictly positive terminal-time density with unit expectation."""

    __slots__ = ("space", "h")

    def __init__(self, space: FiniteFilteredSpace, h):
        arr = np.asarray(h, dtype=float)
        if arr.shape != (space.n_outcomes,):
            raise ValueError("one density value per outcome required")
        if np.any(arr <= 0):
            raise ValueError("terminal density must be strictly positive")
        if abs(float(space.probs @ arr) - 1.0) > 1e-12:
            raise ValueError(f"terminal density has expectation {space.probs @ arr!r}, not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        self.space = space
        self.h = arr

    @classmethod
    def normalized(cls, space: FiniteFilteredSpace, raw) -> "TerminalDensity":
        raw = np.asarray(raw, dtype=float)
        return cls(space, raw / float(space.probs @ raw))

    def approx_eq(self, other: "TerminalDensity", tol: float = DEFAULT_TOL) -> bool:
        return other.space is self.space and float(np.abs(self.h - other.h).max()) <= tol

    def __repr__(self) -> str:
        return f"TerminalDensity({np.array2string(self.h, precision=4)})"


def pairing(X: AdaptedProcess, a: DensityProcess, t: int, t_end: int | None = None) -> ConditionalValue:
    """Conditional billing of X against a: E(sum_{s=t}^{t_end} X_s delta a_s | F_t)."""
    if t_end is None:
        t_end = min(X.t_end, a.t_end)
    if t > t_end:
        raise ValueError(f"empty pairing window [{t}, {t_end}]")
    if X.space is not a.space:
        raise ValueError("position and density live on different spaces")
    if not (X.t_start <= t and X.t_end >= t_end):
        raise ValueError(f"position window {X.window} does not contain [{t}, {t_end}]")
    if not (a.t_start <= t and a.t_end >= t_end):
        raise ValueError(f"density window {a.window} does not contain [{t}, {t_end}]")
    total = np.zeros(X.space.n_outcomes)
    for s in range(t, t_end + 1):
        total += X.slice_at(s) * a.slice_at(s)
    return cond_expect(X.space, total, t)


def remaining_mass(a: DensityProcess, t: int, t_end: int | None = None) -> ConditionalValue:
    """The pairing of the constant 1 against a: conditional mass on [t, t_end]."""
    if t_end is None:
        t_end = a.t_end
    ones = AdaptedProcess.constant(a.space, t, t_end, 1.0)
    return pairing(ones, a, t, t_end)


def project(X: AdaptedProcess, tau: StoppingTime, theta: StoppingTime) -> AdaptedProcess:
    """Projection: zero before tau, frozen at theta: out_s = 1_{tau<=s} X_{s^theta}."""
    if not np.all(tau.values <= theta.values):
        raise ValueError("projection requires tau <= theta pointwise")
    if np.any(tau.values < X.t_start) or np.any(theta.values > X.t_end):
        raise ValueError("stopping times leave the process window")
    out = np.zeros_like(X.values)
    for k in range(X.length):
        s = X.t_start + k
        for w in range(X.space.n_outcomes):
            if tau.values[w] <= s:
                out[k, w] = X.values[min(s, theta.values[w]) - X.t_start, w]
    return AdaptedProcess(X.space, X.t_start, out)


def membership(a: DensityProcess, kind: str, t: int | None = None) -> tuple[bool, str | None]:
    """Check class membership: 'A1plus', 'D', or 'De'; diagnostics name the first violation."""
    if kind not in ("A1plus", "D", "De"):
        raise ValueError(f"unknown class {kind!r}")
    if t is None:
        t = a.t_start
    for k in range(a.length):
        s = a.t_start + k
        neg = np.where(a.values[k] < -1e-12)[0]
        if neg.size:
            return False, f"negative increment at time {s}, outcome {int(neg[0])}"
    if kind == "A1plus":
        return True, None
    mass = cond_expect(a.space, a.total_mass(), t)
    bad = np.where(np.abs(mass.values - 1.0) > 1e-9)[0]
    if bad.size:
        k = int(bad[0])
        return False, (
            f"conditional mass on atom {a.space.atoms(t)[k]} at t={t} is {mass.values[k]:.12g}, not 1"
        )
    if kind == "D":
        return True, None
    for s in range(a.t_start, a.t_end + 1):
        tail = a.tail_from(s)
        bad = np.where(tail <= 1e-12)[0]
        if bad.size:
            return False, f"tail from time {s} vanishes at outcome {int(bad[0])}"
    return True, None


def concatenate(a: DensityProcess, b: DensityProcess, theta: StoppingTime, event_mask) -> DensityProcess:
    """Splice densities at a stopping time, rescaling b's tail by a's remaining mass.

    Outside the switch region (before theta, off the event, or where b has no
    remaining conditional mass) the output follows a; on it, a's cumulative is
    frozen at theta-1 and continued along b's tail scaled by the ratio of
    conditional remaining masses.
    """
    a._same_window(b)
    for x, name in ((a, "left"), (b, "right")):
        ok, diag = membership(x, "A1plus")
        if not ok:
            raise ValueError(f"{name} process not in the nonnegative class: {diag}")
    mask = np.asarray(event_mask, dtype=bool)
    if not is_stopping_event(a.space, mask, theta):
        raise ValueError("event not measurable at the stopping time")

    tail_a = a.conditional_tail(theta)
    tail_b = b.conditional_tail(theta)
    switch = mask & (tail_b > 1e-12)
    ratio = np.where(switch, tail_a / np.where(switch, tail_b, 1.0), 0.0)

    out = a.values.copy()
    for k in range(a.length):
        s = a.t_start + k
        past = switch & (theta.values <= s)
        out[k, past] = ratio[past] * b.values[k, past]
    return DensityProcess(a.space, a.t_start, out)


def paste(f: TerminalDensity, g: TerminalDensity, s: int, event_mask) -> TerminalDensity:
    """Conditional splice of terminal densities at time s on an F_s-event.

    On the event, g is reweighted so its conditional mass matches f's; off it
    the output is f.  Strict positivity makes the zero-mass branch vacuous.
    """
    if f.space is not g.space:
        raise ValueError("terminal densities live on different spaces")
    space = f.space
    mask = np.asarray(event_mask, dtype=bool)
    if not space.is_event(mask, s):
        raise ValueError(f"event not measurable at t={s}")
    ef = cond_expect(space, f.h, s).lift()
    eg = cond_expect(space, g.h, s).lift()
    out = np.where(mask, ef * g.h / eg, f.h)
    return TerminalDensity(space, out)


@dataclass
class StabilityReport:
    stable: bool
    missing: DensityProcess | TerminalDensity | None
    context: str | None
    generated: int
    stopping_times: str  # "all" or "deterministic-only"

    def __bool__(self) -> bool:
        return self.stable


def _contains(items, candidate, tol: float) -> bool:
    return any(member.approx_eq(candidate, tol) for member in items)


def stability_check(
    items: Sequence[DensityProcess] | Sequence[TerminalDensity],
    kind: str,
    cap: int = 1_000_000,
    tol: float = DEFAULT_TOL,
) -> StabilityReport:
    """Closure of a finite set under concatenation or pasting ('m1').

    Enumerates every pair, every splice time (all stopping times on small
    spaces, deterministic ones otherwise) and every event, and reports the
    first generated element missing from the set.
    """
    items = list(items)
    if not items:
        raise ValueError("empty set")
    space = items[0].space
    generated = 0

    if kind == "m1":
        for x in items:
            if not isinstance(x, TerminalDensity):
                raise ValueError("m1 stability applies to terminal densities")
        for i, f in enumerate(items):
            for j, g in enumerate(items):
                for s in range(space.horizon + 1):
                    for mask in enumerate_events(space, s, cap=cap):
                        generated += 1
                        if generated > cap:
                            raise CapExceededError(f"stability enumeration exceeded {cap} elements")
                        cand = paste(f, g, s, mask)
                        if not _contains(items, cand, tol):
                            return StabilityReport(False, cand, f"paste(f{i}, g{j}, s={s}, |A|={int(mask.sum())})", generated, "all")
        return StabilityReport(True, None, None, generated, "all")

    if kind != "concatenation":
        raise ValueError(f"unknown stability kind {kind!r}")
    for x in items:
        if not isinstance(x, DensityProcess):
            raise ValueError("concatenation stability applies to density processes")
    exhaustive = space.n_outcomes <= EXHAUSTIVE_LIMIT[0] and space.horizon <= EXHAUSTIVE_LIMIT[1]
    if exhaustive:
        thetas = enumerate_stopping_times(space)
        mode = "all"
    else:
        thetas = [StoppingTime.constant(space, s) for s in range(space.horizon + 1)]
        mode = "deterministic-only"
    for i, left in enumerate(items):
        for j, right in enumerate(items):
            for theta in thetas:
                for mask in enumerate_stopping_events(space, theta, cap=cap):
                    generated += 1
                    if generated > cap:
                        raise CapExceededError(f"stability enumeration exceeded {cap} elements")
                    cand = concatenate(left, right, theta, mask)
                    if not _contains(items, cand, tol):
                        return StabilityReport(
                            False, cand, f"concat(a{i}, b{j}, theta={theta.values.tolist()}, |A|={int(mask.sum())})", generated, mode
                        )
    return StabilityReport(True, None, None, generated, mode)


def m1_closure(items: Sequence[TerminalDensity], cap: int = 10_000, tol: float = DEFAULT_TOL) -> list[TerminalDensity]:
    """Smallest superset closed under pasting, by iterating to a fixpoint."""
    closed = list(items)
    if not closed:
        raise ValueError("empty set")
    space = closed[0].space
    frontier = list(closed)
    while frontier:
        new: list[TerminalDensity] = []
        for f in closed:
            for g in closed:
                if f not in frontier and g not in frontier:
                    continue
                for s in range(space.horizon + 1):
                    for mask in enumerate_events(space, s):
                        cand = paste(f, g, s, mask)
                        if not _contains(closed, cand, tol) and not _contains(new, cand, tol):
                            new.append(cand)
                            if len(closed) + len(new) > cap:
                                raise CapExceededError(f"pasting closure exceeded {cap} members")
        closed.extend(new)
        frontier = new
    return closed
