"""Adapted processes, density processes and their splicing algebra.

Both process types are one window type, ``_Windowed``: a (time, outcome)
array on times t_start..t_end, validated, sliced, restricted, compared and
printed by one code.  ``_Windowed._span`` is the one window rule: it maps
times t..t_end to rows and refuses a process on another space ("position
lives on a different space") or whose window does not cover t..t_end
("density window (1, 2) does not cover (0, 2)"); ``_same_window`` is the one
same-window rule.  A density process is stored through its increments;
its cumulative process starts from zero just before the window.  Pairings
bill a position against a density, concatenation splices two densities at a
stopping time, pasting splices two terminal densities at a deterministic time.

``stability_check`` and ``m1_closure`` share one scan, ``_scan``, over
stacked splices: one table of lifted conditional tails (or conditional
means) per call, the (stopping time, event) pairs indexed by ``space._Splices``
in the scalar loops' order, and blocks of splices tested against the set by
broadcasting.
The stability check scans every pair of items; each closure round scans the
pairs that touch the last round's additions.  The scalar ``concatenate``
and ``paste`` are the scan's oracle: they rebuild each reported missing
element, each closure member and each splice that fails a check of the
stack, and they are called at the first splice with a rejected operand, so
that every exception is the one a splice-by-splice loop raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .space import (
    DEFAULT_TOL,
    CapExceededError,
    ConditionalValue,
    FiniteFilteredSpace,
    StoppingTime,
    _atom_cuts,
    _cond_expect,
    _first_cut,
    _same_space,
    _Splices,
    _times_to_check,
    cond_expect,
    enumerate_events,
    enumerate_stopping_events,
    is_stopping_event,
)


class _Windowed:
    """The one window type: a process stored as a (time, outcome) array."""

    def __init__(self, space: FiniteFilteredSpace, t_start: int, data):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != space.n_outcomes:
            raise ValueError(f"expected a (times, {space.n_outcomes}) array, got {arr.shape}")
        t_end = t_start + arr.shape[0] - 1
        if not (0 <= t_start <= t_end <= space.horizon):
            raise ValueError(f"window [{t_start}, {t_end}] outside [0, {space.horizon}]")
        if not np.all(np.isfinite(arr)):
            raise ValueError("process values must be finite")
        cut = _first_cut(space, t_start, arr, 1e-12)
        if cut is not None:
            raise ValueError(f"value at time {cut[0]} not constant on atom {cut[1]}")
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

    @staticmethod
    def _length(t_start: int, t_end: int) -> int:
        """The length of a factory's window, refusing one that ends before it starts."""
        if t_end < t_start:
            raise ValueError(f"window [{t_start}, {t_end}] ends before it starts")
        return t_end - t_start + 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.t_start, self.t_end)

    @property
    def length(self) -> int:
        return self.t_end - self.t_start + 1

    def _span(self, t: int, t_end: int, space: FiniteFilteredSpace | None = None) -> slice:
        """The one window rule: rows of ``values`` (or of a stack of values on
        this window) for times t..t_end.  Raises "{noun} lives on a different
        space" off ``space`` and "{noun} window (a, b) does not cover (t, t_end)"
        when t..t_end is empty or leaves the window; the noun is the class's ``_noun``."""
        if space is not None and space is not self.space:
            raise ValueError(f"{self._noun} lives on a different space")
        if not self.t_start <= t <= t_end <= self.t_end:
            raise ValueError(f"{self._noun} window {self.window} does not cover ({t}, {t_end})")
        return slice(t - self.t_start, t_end - self.t_start + 1)

    def slice_at(self, s: int) -> np.ndarray:
        return self.values[self._span(s, s).start]

    def _same_window(self, other) -> None:
        if other.space is not self.space or other.window != self.window:
            raise ValueError("processes live on different spaces or windows")

    def restrict(self, new_start: int):
        """Restriction to the sub-window [new_start, t_end]; a density's cumulative restarts from 0."""
        return type(self)._wrap(self.space, new_start, self.values[self._span(new_start, self.t_end)])

    def approx_eq(self, other, tol: float = DEFAULT_TOL) -> bool:
        same = other.space is self.space and other.window == self.window
        return same and float(np.abs(self.values - other.values).max()) <= tol

    def __repr__(self) -> str:
        return f"{type(self).__name__}([{self.t_start},{self.t_end}], {np.array2string(self.values, precision=4)})"


class AdaptedProcess(_Windowed):
    """Bounded adapted process on a time window: values[k, w] = X_{t_start+k}(w)."""

    _noun = "position"

    @classmethod
    def constant(cls, space: FiniteFilteredSpace, t_start: int, t_end: int, c: float) -> "AdaptedProcess":
        return cls(space, t_start, np.full((cls._length(t_start, t_end), space.n_outcomes), float(c)))

    @classmethod
    def zero(cls, space: FiniteFilteredSpace, t_start: int, t_end: int) -> "AdaptedProcess":
        return cls.constant(space, t_start, t_end, 0.0)

    def _result(self, op, other) -> "AdaptedProcess":
        """``op(values, other)`` on this window, refused when it overflows."""
        with np.errstate(over="ignore"):
            values = op(self.values, other)
        if not np.isfinite(values).all():
            raise ValueError("the result overflows: process values must be finite")
        return AdaptedProcess._wrap(self.space, self.t_start, values)

    def __add__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        self._same_window(other)
        return self._result(np.add, other.values)

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        self._same_window(other)
        return self._result(np.subtract, other.values)

    def __neg__(self) -> "AdaptedProcess":
        return AdaptedProcess._wrap(self.space, self.t_start, -self.values)

    def __mul__(self, scalar: float) -> "AdaptedProcess":
        scalar = float(scalar)
        if not np.isfinite(scalar):
            raise ValueError(f"cannot scale a position by {scalar}")
        return self._result(np.multiply, scalar)

    __rmul__ = __mul__

    def shift_by(self, m: ConditionalValue | float) -> "AdaptedProcess":
        """X + m 1_{[t_start, oo)} with m measurable at the window start."""
        add = m.lift() if isinstance(m, ConditionalValue) else float(m)
        return AdaptedProcess(self.space, self.t_start, self.values + add)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


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

    _noun = "density"

    @classmethod
    def uniform(cls, space: FiniteFilteredSpace, t_start: int, t_end: int) -> "DensityProcess":
        L = cls._length(t_start, t_end)
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
        return self.values[self._span(s, self.t_end)].sum(axis=0)

    def conditional_tail(self, theta: StoppingTime) -> np.ndarray:
        """Remaining conditional mass at the stopping time, per outcome.

        Outcome w gets E(sum_{j >= theta(w)} delta a_j | F_{theta(w)})(w).
        """
        _same_space(self.space, theta)
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


class TerminalDensity:
    """Strictly positive terminal-time density with unit expectation."""

    __slots__ = ("space", "h")

    def __init__(self, space: FiniteFilteredSpace, h):
        arr = np.asarray(h, dtype=float)
        if arr.shape != (space.n_outcomes,):
            raise ValueError("one density value per outcome required")
        if not np.all(arr > 0):  # NaN too
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
        mass = float(space.probs @ raw)
        if not 0 < mass < np.inf:
            raise ValueError(f"cannot normalize a density of expectation {mass!r}")
        return cls(space, raw / mass)

    def approx_eq(self, other: "TerminalDensity", tol: float = DEFAULT_TOL) -> bool:
        return other.space is self.space and float(np.abs(self.h - other.h).max()) <= tol

    def __repr__(self) -> str:
        return f"TerminalDensity({np.array2string(self.h, precision=4)})"


def _pairings(space: FiniteFilteredSpace, x: np.ndarray, a: np.ndarray, t: int) -> np.ndarray:
    """Stacked pairings: (..., n, M) position slices at times t..t+n-1 against
    (..., n, M) increments, broadcast -> (..., atoms at t).

    Sums the products in time order, so every row has the bits of one
    ``pairing`` call.  The sum starts from the first product, not from zero;
    that changes at most the sign of a zero, which ``_cond_expect`` ignores.
    """
    prod = x * a
    total = prod[..., 0, :]
    for k in range(1, prod.shape[-2]):
        total = total + prod[..., k, :]
    return _cond_expect(space, total, t)


def pairing(X: AdaptedProcess, a: DensityProcess, t: int, t_end: int | None = None) -> ConditionalValue:
    """Conditional billing of X against a: E(sum_{s=t}^{t_end} X_s delta a_s | F_t)."""
    if t_end is None:
        t_end = min(X.t_end, a.t_end)
    return ConditionalValue(X.space, t, _pairings(X.space, X.values[X._span(t, t_end)], a.values[a._span(t, t_end, X.space)], t))


def remaining_mass(a: DensityProcess, t: int, t_end: int | None = None) -> ConditionalValue:
    """The pairing of the constant 1 against a: conditional mass on [t, t_end]."""
    if t_end is None:
        t_end = a.t_end
    ones = AdaptedProcess.constant(a.space, t, t_end, 1.0)
    return pairing(ones, a, t, t_end)


def project(X: AdaptedProcess, tau: StoppingTime, theta: StoppingTime) -> AdaptedProcess:
    """Projection: zero before tau, frozen at theta: out_s = 1_{tau<=s} X_{s^theta}."""
    _same_space(X.space, tau, theta)
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


def _terminal_ok(space: FiniteFilteredSpace, cands: np.ndarray) -> np.ndarray:
    """Per candidate, ``TerminalDensity``'s positivity and unit mean.

    A stacked mean may round differently from the one-vector dot product, so
    a mean off by more than half the 1e-12 bound already counts as failed;
    the public ``paste`` then decides that candidate.
    """
    return np.all(cands > 0, axis=1) & (np.abs(cands @ space.probs - 1.0) <= 0.5e-12)


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


def _scan(items, kind: str, splices: _Splices, pairs: np.ndarray, cap: float, tol: float):
    """Blocks of stacked splices of the operand ``pairs``, rows (i, j) of
    indices into ``items``, in the scalar order: pair, stopping time, event.

    Yields ``(lo, i, j, theta, masks, cand, ok, flagged)`` per block: the
    block's first flat index, the operands, stopping times and events of its
    splices, the stacked splices, whether they pass the public constructor's
    checks, and the positions that fail those checks or lie near no member
    of ``items``.  After the last block it raises where the scalar loop
    raises: at a stopping time with too many events, past ``cap`` splices,
    or at the first splice with an operand the public function rejects.
    """
    space, first = items[0].space, items[0]
    if kind == "m1":
        same = usable = [x.space is space for x in items]
    else:
        same = [x.space is space and x.window == first.window for x in items]
        usable = [ok and membership(x, "A1plus")[0] for ok, x in zip(same, items)]
    b = usable.index(False) if False in usable else len(items)
    ops = np.stack([_payload(x) for x in items[: max(b, 1)]])
    members = [_payload(x) for x, ok in zip(items, same) if ok]  # the only ones approx_eq can match

    G = splices.size
    end = len(pairs) * G if splices.over is None else G
    rejected = np.flatnonzero(pairs.max(axis=1) >= b)  # pairs with a rejected operand
    limit = int(max(0, min(end, cap, rejected[0] * G if rejected.size else end)))

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
            # the finiteness and adaptedness that ``_Windowed`` demands
            return cand, np.isfinite(cand).all(axis=(1, 2)) & ~_atom_cuts(space, first.t_start, cand, 1e-12).any(axis=1)

    for lo, hi in _blocks(limit, ops[0].size):
        q = np.arange(lo, hi)
        (i, j), r = pairs[q // G].T, q % G
        theta, masks = splices.points(r)
        cand, ok = build(i, j, theta, masks)
        yield lo, i, j, theta, masks, cand, ok, np.flatnonzero(~ok | ~_near_any(members, cand, tol))
    if limit == end:  # the scalar loops' event enumeration raises at splices.over
        if splices.over is not None and kind == "m1":
            enumerate_events(space, int(splices.over[0]), cap=splices.cap)
        elif splices.over is not None:
            enumerate_stopping_events(space, StoppingTime._wrap(space, splices.over), cap=splices.cap)
        return
    if limit == cap:
        raise CapExceededError(f"stability enumeration exceeded {cap} elements")
    i, j = pairs[rejected[0]]
    _splice(items, kind, i, j, splices.thetas[0], np.zeros(space.n_outcomes, dtype=bool))  # raises


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
    if kind not in ("m1", "concatenation"):
        raise ValueError(f"unknown stability kind {kind!r}")
    want, what = (TerminalDensity, "terminal densities") if kind == "m1" else (DensityProcess, "density processes")
    if not all(isinstance(x, want) for x in items):
        raise ValueError(f"{kind} stability applies to {what}")
    thetas, mode = _times_to_check(space, 0, space.horizon, deterministic=kind == "m1")
    splices = _Splices(space, thetas, cap)
    pairs = np.argwhere(np.ones((len(items), len(items)), dtype=bool))
    for lo, i, j, theta, masks, _, _, flagged in _scan(items, kind, splices, pairs, cap, tol):
        for k in flagged:
            missing, ctx = _splice(items, kind, int(i[k]), int(j[k]), theta[k], masks[k])
            if not _contains(items, missing, tol):
                return StabilityReport(False, missing, ctx, lo + int(k) + 1, mode)
    return StabilityReport(True, None, None, len(pairs) * splices.size, mode)


def m1_closure(items: Sequence[TerminalDensity], cap: int = 10_000, tol: float = DEFAULT_TOL) -> list[TerminalDensity]:
    """Smallest superset closed under pasting, by iterating to a fixpoint.

    Each round scans every pair that involves the last round's additions
    (every pair in the first round) at every time and event, with no splice
    cap, and adds a candidate when no member and no earlier addition lies
    within tol.  Additions, and candidates failing a check of the stack, are
    built by the public ``paste``.
    """
    closed = list(items)
    if not closed:
        raise ValueError("empty set")
    space = closed[0].space
    levels = _times_to_check(space, 0, space.horizon, deterministic=True)[0]
    splices = _Splices(space, levels, 100_000)  # enumerate_events' default cap
    start = 0  # members from here on are the frontier
    while True:
        n = len(closed)
        pairs = np.argwhere(np.maximum(*np.indices((n, n))) >= start)
        new: list[TerminalDensity] = []
        for _, i, j, theta, masks, cand, ok, flagged in _scan(closed, "m1", splices, pairs, np.inf, tol):
            fresh = flagged[~ok[flagged] | ~_near_any([x.h for x in new], cand[flagged], tol)]
            while fresh.size:
                k, fresh = fresh[0], fresh[1:]
                x = paste(closed[i[k]], closed[j[k]], int(theta[k, 0]), masks[k])
                if not ok[k] and (_contains(closed, x, tol) or _contains(new, x, tol)):
                    continue
                new.append(x)
                if n + len(new) > cap:
                    raise CapExceededError(f"pasting closure exceeded {cap} members")
                fresh = fresh[~ok[fresh] | (np.abs(cand[fresh] - x.h).max(axis=1) > tol)]
        if not new:
            return closed
        closed.extend(new)
        start = n
