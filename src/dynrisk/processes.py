"""Adapted processes, density processes and their splicing algebra.

A density process is stored through its increments on a time window; the
cumulative process starts from zero just before the window.  Pairings bill a
position against a density, concatenation splices two densities at a stopping
time, pasting splices two terminal densities at a deterministic time.

``stability_check`` and ``m1_closure`` build their splices as stacked arrays:
one table of lifted conditional tails (or conditional means) per call, the
(stopping time, event) pairs indexed in the scalar loops' order, and blocks
of splices tested against the set by broadcasting.  The scalar
``concatenate`` and ``paste`` are their oracle: they rebuild each reported
missing element, each closure member and each splice that fails a check of
the stack, and they are called at the first splice with a rejected operand,
so that every exception is the one a splice-by-splice loop raises.
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
    _cond_expect,
    _stopping_times,
    cond_expect,
    enumerate_events,
    enumerate_stopping_events,
    is_stopping_event,
)


def _spread(space: FiniteFilteredSpace, s: int, y: np.ndarray) -> np.ndarray:
    """(..., M) -> (..., atoms at s): max minus min over each atom, as ``np.ptp``."""
    order, starts = space.atom_layout(s)[:2]
    y = y.take(order, axis=-1)
    return np.maximum.reduceat(y, starts, axis=-1) - np.minimum.reduceat(y, starts, axis=-1)


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
            bad = np.flatnonzero(_spread(space, s, arr[k]) > 1e-12)
            if bad.size:
                raise ValueError(f"value at time {s} not constant on atom {space.atoms(s)[bad[0]]}")
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

    def _span(self, t: int, t_end: int) -> slice:
        """Rows of ``values`` (or of a stack of values on this window) for times t..t_end."""
        return slice(self._index(t), self._index(t_end) + 1)

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


def _check_pairing(X: AdaptedProcess, a: DensityProcess, t: int, t_end: int) -> None:
    if t > t_end:
        raise ValueError(f"empty pairing window [{t}, {t_end}]")
    if X.space is not a.space:
        raise ValueError("position and density live on different spaces")
    if not (X.t_start <= t and X.t_end >= t_end):
        raise ValueError(f"position window {X.window} does not contain [{t}, {t_end}]")
    if not (a.t_start <= t and a.t_end >= t_end):
        raise ValueError(f"density window {a.window} does not contain [{t}, {t_end}]")


def _pairings(space: FiniteFilteredSpace, x: np.ndarray, a: np.ndarray, t: int) -> np.ndarray:
    """Stacked pairings: (..., n, M) position slices at times t..t+n-1 against
    (n, M) increments -> (..., atoms at t).

    Sums the products in time order from zero, as ``pairing`` does, so every
    row has the bits of one ``pairing`` call.
    """
    total = np.zeros(x.shape[:-2] + x.shape[-1:])
    for k in range(x.shape[-2]):
        total += x[..., k, :] * a[k]
    return _cond_expect(space, total, t)


def pairing(X: AdaptedProcess, a: DensityProcess, t: int, t_end: int | None = None) -> ConditionalValue:
    """Conditional billing of X against a: E(sum_{s=t}^{t_end} X_s delta a_s | F_t)."""
    if t_end is None:
        t_end = min(X.t_end, a.t_end)
    _check_pairing(X, a, t, t_end)
    return ConditionalValue(X.space, t, _pairings(X.space, X.values[X._span(t, t_end)], a.values[a._span(t, t_end)], t))


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


# array elements per block of splices in the stacked routes; bounds their scratch arrays
_BLOCK = 1 << 16


def _blocks(total: int, width: int):
    """Consecutive [lo, hi) ranges of splices, about _BLOCK elements of ``width`` each."""
    step = max(1, _BLOCK // width)
    return ((lo, min(lo + step, total)) for lo in range(0, total, step))


class _Splices:
    """The (stopping time, event) pairs of one operand pair, in the scalar loops' order.

    Rows of ``thetas`` are the stopping times; each one's events follow in
    ``enumerate_stopping_events`` order.  Events are not stored: event e of a
    stopping time with A atoms holds outcome w when bit ``shifts[w]`` of e is
    set, the first atom being the highest bit as in ``itertools.product``.
    An event is a union of the stopping time's atoms, so it is measurable at
    that time by construction, and no splice checks it again.  The pairs end before the first stopping time with over ``cap`` events,
    kept as ``over`` (None if there is none): the scalar enumerator raises there.
    """

    def __init__(self, space: FiniteFilteredSpace, thetas: np.ndarray, cap: int):
        flags, cols, base = [], [], 0
        for s in range(space.horizon + 1):
            order, starts = space.atom_layout(s)[:2]
            flags.append(thetas[:, order[starts]] == s)  # which time-s atoms are stopping atoms
            cols.append(base + space.atom_index(s))
            base += len(starts)
        flags = np.concatenate(flags, axis=1)
        n_atoms = flags.sum(axis=1)
        over = np.flatnonzero(2.0**n_atoms > cap)
        K = int(over[0]) if over.size else len(thetas)
        self.over = thetas[K] if over.size else None
        # each outcome's stopping atom, as a column of flags, ranked among the stopping atoms
        col = np.stack(cols)[thetas[:K], np.arange(space.n_outcomes)]
        rank = np.take_along_axis(np.cumsum(flags[:K], axis=1), col, axis=1) - 1
        self.thetas = thetas[:K]
        self.shifts = n_atoms[:K, None] - 1 - rank
        self.offsets = np.concatenate([[0], np.cumsum(1 << n_atoms[:K])])
        self.size = int(self.offsets[-1])

    def points(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(stopping times, event masks) of the pairs ranked r, as (len(r), M) arrays."""
        k = np.searchsorted(self.offsets, r, side="right") - 1
        return self.thetas[k], ((r - self.offsets[k])[:, None] >> self.shifts[k] & 1).astype(bool)


def _events_at(space: FiniteFilteredSpace, kind: str, theta: np.ndarray, cap: int) -> list[np.ndarray]:
    """The scalar loops' event enumeration at one splice time."""
    if kind == "m1":
        return enumerate_events(space, int(theta[0]), cap=cap)
    return enumerate_stopping_events(space, StoppingTime._wrap(space, theta), cap=cap)


def _lifted_cond(space: FiniteFilteredSpace, rows: Callable[[int], np.ndarray]) -> np.ndarray:
    """(T+1, N, M): entry [s] is E(rows(s) | F_s) lifted to outcomes, each row bit-identical to cond_expect."""
    return np.stack(
        [_cond_expect(space, rows(s), s).take(space.atom_index(s), axis=-1) for s in range(space.horizon + 1)]
    )


def _near_any(stack, cands: np.ndarray, tol: float) -> np.ndarray:
    """Per candidate, whether some stack member lies within tol in sup norm, as ``approx_eq``."""
    axes = tuple(range(1, cands.ndim))
    hit = np.zeros(len(cands), dtype=bool)
    for member in stack:
        hit |= np.abs(cands - member).max(axis=axes) <= tol
    return hit


def _windowed_ok(space: FiniteFilteredSpace, t_start: int, cands: np.ndarray) -> np.ndarray:
    """Per (L, M) candidate, the finiteness and adaptedness that ``_Windowed`` demands."""
    ok = np.isfinite(cands).all(axis=(1, 2))
    for k in range(cands.shape[1]):
        ok &= np.all(_spread(space, t_start + k, cands[:, k]) <= 1e-12, axis=1)
    return ok


def _terminal_ok(space: FiniteFilteredSpace, cands: np.ndarray) -> np.ndarray:
    """Per candidate, ``TerminalDensity``'s positivity and unit mean.

    A stacked mean may round differently from the one-vector dot product, so
    a mean off by more than half the 1e-12 bound already counts as failed;
    the public ``paste`` then decides that candidate.
    """
    return np.all(cands > 0, axis=1) & (np.abs(cands @ space.probs - 1.0) <= 0.5e-12)


def _levels(space: FiniteFilteredSpace) -> np.ndarray:
    """The deterministic stopping times 0..T as a (T+1, M) int array."""
    return np.repeat(np.arange(space.horizon + 1)[:, None], space.n_outcomes, axis=1)


def _payload(x) -> np.ndarray:
    return x.h if isinstance(x, TerminalDensity) else x.values


def _splice(items, kind: str, i: int, j: int, theta: np.ndarray, mask: np.ndarray):
    """One splice through the public ``concatenate`` or ``paste``, with its report context."""
    if kind == "m1":
        s = int(theta[0])
        return paste(items[i], items[j], s, mask), f"paste(f{i}, g{j}, s={s}, |A|={int(mask.sum())})"
    st = StoppingTime._wrap(items[0].space, theta)
    ctx = f"concat(a{i}, b{j}, theta={st.values.tolist()}, |A|={int(mask.sum())})"
    return concatenate(items[i], items[j], st, mask), ctx


def _stacked_check(items, kind: str, thetas: np.ndarray, mode: str, cap: int, tol: float) -> StabilityReport:
    """``stability_check`` over blocks of stacked splices.

    The splices run in the scalar order (left item, right item, stopping
    time, event).  Each one the stack flags, as missing from the set or as
    failing a check of the public constructors, is rebuilt by ``_splice``:
    a missing element's report is then the scalar route's, and an invalid
    splice raises the scalar route's error.  The scan ends where the scalar
    loop ends: at the last splice, at the splice cap, at a stopping time with
    too many events, or at the first splice with an operand the public
    function rejects, where that function then raises.
    """
    space, first, n = items[0].space, items[0], len(items)
    if kind == "m1":
        same = usable = [x.space is space for x in items]
    else:
        same = [x.space is space and x.window == first.window for x in items]
        usable = [ok and membership(x, "A1plus")[0] for ok, x in zip(same, items)]
    # the first splice with a rejected operand pairs item 0 with the first rejected item
    b = usable.index(False) if False in usable else n
    ops = np.stack([_payload(x) for x in items[: max(b, 1)]])
    members = [_payload(x) for x, ok in zip(items, same) if ok]  # the only ones approx_eq can match

    splices = _Splices(space, thetas, cap)
    G = splices.size
    end = n * n * G if splices.over is None else G
    limit = int(max(0, min(end, cap, b * G if b < n else end)))

    if kind == "m1":
        lifted = _lifted_cond(space, lambda s: ops)

        def build(i, j, theta, masks):
            s = theta[:, 0]
            cand = np.where(masks, lifted[s, i] * ops[j] / lifted[s, j], ops[i])
            return cand, _terminal_ok(space, cand)
    else:
        # conditional_tail of item n at theta is tails[theta(w), n, w]
        tails = _lifted_cond(space, lambda s: np.stack([x.tail_from(s) for x in items[: len(ops)]]))
        outcomes = np.arange(space.n_outcomes)
        times = first.t_start + np.arange(first.length)

        def build(i, j, theta, masks):
            tail_a, tail_b = tails[theta, i[:, None], outcomes], tails[theta, j[:, None], outcomes]
            switch = masks & (tail_b > 1e-12)
            ratio = np.where(switch, tail_a / np.where(switch, tail_b, 1.0), 0.0)
            past = switch[:, None, :] & (theta[:, None, :] <= times[:, None])
            cand = np.where(past, ratio[:, None, :] * ops[j], ops[i])
            return cand, _windowed_ok(space, first.t_start, cand)

    for lo, hi in _blocks(limit, ops[0].size):
        q = np.arange(lo, hi)
        i, j, r = q // (n * G), q // G % n, q % G
        theta, masks = splices.points(r)
        cand, ok = build(i, j, theta, masks)
        for k in np.flatnonzero(~ok | ~_near_any(members, cand, tol)):
            missing, ctx = _splice(items, kind, int(i[k]), int(j[k]), theta[k], masks[k])
            if not _contains(items, missing, tol):
                return StabilityReport(False, missing, ctx, lo + int(k) + 1, mode)
    if limit == end:
        if splices.over is not None:
            _events_at(space, kind, splices.over, cap)  # raises
        return StabilityReport(True, None, None, end, mode)
    if limit == cap:
        raise CapExceededError(f"stability enumeration exceeded {cap} elements")
    _splice(items, kind, 0, b, splices.thetas[0], np.zeros(space.n_outcomes, dtype=bool))  # raises


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

    if kind == "m1":
        for x in items:
            if not isinstance(x, TerminalDensity):
                raise ValueError("m1 stability applies to terminal densities")
        return _stacked_check(items, kind, _levels(space), "all", cap, tol)
    if kind != "concatenation":
        raise ValueError(f"unknown stability kind {kind!r}")
    for x in items:
        if not isinstance(x, DensityProcess):
            raise ValueError("concatenation stability applies to density processes")
    if space.n_outcomes <= EXHAUSTIVE_LIMIT[0] and space.horizon <= EXHAUSTIVE_LIMIT[1]:
        return _stacked_check(items, kind, _stopping_times(space), "all", cap, tol)
    return _stacked_check(items, kind, _levels(space), "deterministic-only", cap, tol)


def m1_closure(items: Sequence[TerminalDensity], cap: int = 10_000, tol: float = DEFAULT_TOL) -> list[TerminalDensity]:
    """Smallest superset closed under pasting, by iterating to a fixpoint.

    Each round pastes every pair that involves the last round's additions
    (every pair in the first round) at every time and event, in stacked
    blocks and in the scalar order, and adds a candidate when no member and
    no earlier addition lies within tol.  Additions, and candidates failing
    a check of the stack, are built by the public ``paste``.
    """
    closed = list(items)
    if not closed:
        raise ValueError("empty set")
    space = closed[0].space
    splices = _Splices(space, _levels(space), 100_000)  # enumerate_events' default cap
    G = splices.size
    start = 0  # members from here on are the frontier
    while True:
        n = len(closed)
        # the first splice with an operand on another space pairs item 0 with the first such item
        b = next((k for k, x in enumerate(closed) if x.space is not space), n)
        pairs = np.array([(i, j) for i in range(n) for j in range(n) if max(i, j) >= start])
        end = len(pairs) * G if splices.over is None else G
        limit = min(end, b * G if b < n else end)
        h = np.stack([x.h for x in closed[:b]])
        members = [x.h for x in closed if x.space is space]
        lifted = _lifted_cond(space, lambda s: h)
        new: list[TerminalDensity] = []
        for lo, hi in _blocks(limit, space.n_outcomes):
            q = np.arange(lo, hi)
            (i, j), r = pairs[q // G].T, q % G
            theta, masks = splices.points(r)
            s = theta[:, 0]
            cand = np.where(masks, lifted[s, i] * h[j] / lifted[s, j], h[i])
            ok = _terminal_ok(space, cand)
            fresh = np.flatnonzero(~ok | (~_near_any(members, cand, tol) & ~_near_any([x.h for x in new], cand, tol)))
            while fresh.size:
                k, fresh = fresh[0], fresh[1:]
                x = paste(closed[i[k]], closed[j[k]], int(s[k]), masks[k])
                if not ok[k] and (_contains(closed, x, tol) or _contains(new, x, tol)):
                    continue
                new.append(x)
                if n + len(new) > cap:
                    raise CapExceededError(f"pasting closure exceeded {cap} members")
                fresh = fresh[~ok[fresh] | (np.abs(cand[fresh] - x.h).max(axis=1) > tol)]
        if limit == end and splices.over is not None:
            _events_at(space, "m1", splices.over, 100_000)  # raises
        if limit < end:
            paste(closed[0], closed[b], 0, np.zeros(space.n_outcomes, dtype=bool))  # raises
        if not new:
            return closed
        closed.extend(new)
        start = n
