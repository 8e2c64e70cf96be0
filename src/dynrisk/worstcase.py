"""Worst scenarios, worst portfolios and the preservation/comparison harnesses.

Everything here is brute force over explicitly finite search spaces: the
rearrangement classes of the marginals, a finite scenario family, or a finite
matrix list.  Harnesses re-verify their hypotheses before testing any
conclusion and report residuals instead of silently clamping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import parallel
from .processes import AdaptedProcess, DensityProcess, _pairings, mean_portfolio, membership, remaining_mass
from .rearrange import (
    RearrangementClass,
    _attains,
    _certificate,
    _first_near_max,
    enumerate_class,
    max_correlation,
    path_law,
)
from .space import (
    CapExceededError,
    ConditionalValue,
    DEFAULT_TOL,
    FiniteFilteredSpace,
    cond_expect,
)
from .utility import (
    DualFiniteUtility,
    EntropicUtility,
    UtilityBase,
    UtilityProcess,
    _EntropicKernel,
    _check_relevance,
    _penalties,
    _residuals,
    normalize_to_window,
    penalty,
    time_consistency_check,
)


@dataclass
class Portfolio:
    """n adapted positions on a common window."""

    members: list[AdaptedProcess]

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty portfolio")
        for m in self.members[1:]:
            self.members[0]._same_window(m)

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def space(self) -> FiniteFilteredSpace:
        return self.members[0].space

    @property
    def window(self) -> tuple[int, int]:
        return self.members[0].window

    @property
    def t_start(self) -> int:
        return self.members[0].t_start

    @property
    def t_end(self) -> int:
        return self.members[0].t_end

    def mean(self) -> AdaptedProcess:
        return mean_portfolio(self.members)

    def total(self) -> AdaptedProcess:
        out = self.members[0]
        for m in self.members[1:]:
            out = out + m
        return out

    def restrict(self, t: int) -> "Portfolio":
        return Portfolio([m.restrict(t) for m in self.members])


def average_risk(
    a: DensityProcess,
    marginals: Portfolio,
    u: DualFiniteUtility,
    cap: int = 100_000,
) -> ConditionalValue:
    """(1/n) sum of max correlations against a, plus the penalty of a.

    One candidate at a time, each class enumerated by its own
    ``max_correlation``: the oracle of every row of ``worst_scenario``'s table.
    """
    t, t_end = u.t_start, u.t_end
    marginals.members[0]._span(t, t_end, u.space)  # marginals on u's space and window
    psi = [max_correlation(a, X, t, t_end, cap).value for X in marginals.members]
    return sum(psi[1:], psi[0]) * (1.0 / marginals.n) + penalty(u, a)


@dataclass
class WorstScenarioResult:
    a0: DensityProcess
    value: ConditionalValue
    per_atom_choice: list[int]
    single_attainment: bool


def _glued(
    incs: np.ndarray, maxima: list[np.ndarray], penalties: np.ndarray | float, u: DualFiniteUtility
) -> WorstScenarioResult:
    """The scenario side from its table: ``maxima`` holds per marginal the
    (K, atoms) max correlations of the K candidates, whose window increments
    are ``incs`` (K, L, M).  The average risks sum them in marginal order and
    add the caller's ``penalties``, (K, atoms) or a scalar; each atom takes
    its first best candidate, and the candidates' increments are glued along
    the window-start atoms."""
    space, t = u.space, u.t_start
    table = sum(maxima[1:], maxima[0]) * (1.0 / len(maxima)) + penalties
    best = table.max(axis=0)
    choice = _first_near_max(table)
    glued = incs[np.array(choice)[space.atom_index(t)], :, np.arange(space.n_outcomes)].T
    return WorstScenarioResult(
        DensityProcess(space, t, glued), ConditionalValue(space, t, best), choice, bool(_attains(table, best).any())
    )


def worst_scenario(
    candidates: Sequence[DensityProcess],
    marginals: Portfolio,
    u: DualFiniteUtility,
    cap: int = 100_000,
) -> WorstScenarioResult:
    """Atom-wise best candidate under the average risk, glued by indicators.
    Each marginal's class is enumerated once and paired with every candidate
    in one pass."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate list")
    t, t_end = u.t_start, u.t_end
    space = u.space
    marginals.members[0]._span(t, t_end, space)  # marginals on u's space and window
    incs = np.stack([c.values[c._span(t, t_end, space)] for c in candidates])
    maxima = [
        _pairings(space, enumerate_class(X, cap).values[:, None, X._span(t, t_end)], incs, t).max(axis=0)
        for X in marginals.members
    ]
    return _glued(incs, maxima, _penalties(u, candidates), u)


@dataclass
class WorstCaseResult:
    sup_value: ConditionalValue
    attaining_tuple: "Portfolio | None"
    attained_uniformly: bool
    per_atom_argmax: list[int]
    search_size: int
    classes: list[RearrangementClass] = field(repr=False, default_factory=list)
    # per class, the (size, ...) features of its members that the scan read:
    # for a dual utility, (size, S, atoms) pairings with every scenario
    _features: list[np.ndarray] = field(repr=False, default_factory=list)

    def tuple_at(self, flat_index: int) -> Portfolio:
        sizes = [c.size for c in self.classes]
        idx = np.unravel_index(flat_index, sizes)
        return Portfolio([self.classes[i].members[int(j)] for i, j in enumerate(idx)])


CHUNK = 4096  # tuples per chunk of the scan


def _batch_insurance(u: UtilityBase, classes: list[RearrangementClass]):
    """``(feats, values, rows)``: insurance values of tuple means of classes.

    Features are linear, so a tuple mean's features are the mean of its
    members' features; ``feats`` holds them once per class member.  Summed in
    member order and divided by n like ``mean_portfolio``, terminal-slice
    features equal those of the mean exactly, and the scanned value is the
    tuple's own insurance value.  ``values(flat)`` -> (len(flat), atoms)
    gathers tuples by flat index, and ``values(np.arange(total))`` is the
    whole table, the oracle of the scan; ``rows(sel)`` broadcasts one slice
    of rows per class into their product, C order, with the same bits.
    """
    feats = [u._features(u._window(cls.representative, cls.values)) for cls in classes]
    sizes = [cls.size for cls in classes]
    n = len(classes)

    def values(flat: np.ndarray) -> np.ndarray:
        idx = np.unravel_index(flat, sizes)
        acc = feats[0][idx[0]]
        for f, i in zip(feats[1:], idx[1:]):
            acc = acc + f[i]
        return 0.0 - u._combine(-(acc / n))  # reflected as in insurance

    def rows(sel: list[slice]) -> np.ndarray:
        acc = feats[0][sel[0]]
        for f, r in zip(feats[1:], sel[1:]):
            acc = (acc[:, None] + f[r]).reshape(-1, *f.shape[1:])
        return 0.0 - u._combine(-(acc / n))

    return feats, values, rows


def _row_ranges(sizes: list[int], chunk: int) -> tuple[int, int, list[tuple[int, int]]]:
    """Flat ranges of whole rows, the scan's chunks: ``(d, R, ranges)``.

    d is the first class whose rows hold R <= ``chunk`` tuples, R the product
    of the sizes after it.  A range fixes one row of every class before d and
    takes max(1, chunk // R) rows of class d, so it is one product of rows.
    """
    d, R = 0, math.prod(sizes[1:])
    while R > chunk:
        d += 1
        R //= sizes[d]
    step, row = R * max(1, chunk // R), R * sizes[d]
    bases = range(0, row * math.prod(sizes[:d]), row)
    return d, R, [(b + lo, b + min(lo + step, row)) for b in bases for lo in range(0, row, step)]


def _chunks(u: UtilityBase, classes: list[RearrangementClass]):
    """The scan's ``_row_ranges`` ranges, its one chunk evaluator,
    ``chunk(lo, hi)`` -> (ascending flat indices, their ``_batch_insurance``
    values), and the classes' features: every tuple of the range, broadcast
    from its class rows, for a dual utility or a scan of at most ``CHUNK``
    tuples, else the tuples of the range that the screen keeps (see
    ``worst_portfolio_bruteforce``)."""
    feats, values, rows = _batch_insurance(u, classes)
    sizes = [c.size for c in classes]
    n = len(classes)
    d, R, ranges = _row_ranges(sizes, CHUNK)

    def sel(lo: int, hi: int) -> list[slice]:
        first = np.unravel_index(lo, sizes)
        out = [slice(i, i + 1) for i in first[:d]] + [slice(first[d], first[d] + (hi - lo) // R)]
        return out + [slice(None)] * (n - d - 1)

    if not isinstance(u, _EntropicKernel) or math.prod(sizes) <= CHUNK:
        return ranges, lambda lo, hi: (np.arange(lo, hi), rows(sel(lo, hi))), feats

    parts = [u._anchored(f, n) for f in feats]
    scale = max(1.0, *(float(np.abs(f).max()) for f in feats))

    def screened(lo: int, hi: int):
        screen, small = u._screen([(E[r], c[r]) for (E, c), r in zip(parts, sel(lo, hi))])
        unsafe = small | ~np.isfinite(screen)
        top = np.where(unsafe, -np.inf, screen).max(axis=0)
        near = screen >= top - 2.0**9 * u._screen_error(n, np.maximum(scale, np.abs(top)))
        flat = lo + np.flatnonzero(np.any(unsafe | near, axis=1))
        return flat, values(flat)

    return ranges, screened, feats


def worst_portfolio_bruteforce(
    marginals: Portfolio,
    u: UtilityBase,
    cap: int = 1_000_000,
    workers: int | None = None,
) -> WorstCaseResult:
    """Enumerate the product of rearrangement classes and take atom-wise sups.

    One serial pass takes the sup over the chunks of ``_chunks``; the lower
    index wins ties.  The first tuple that ``_attains`` the sup on every atom
    is then sought in the chunks whose best reaches it: the first such chunk
    alone, and only if it holds none, the others in one more pass.  On one
    atom the first always holds one.  Results do not depend on the chunking
    and equal those of the whole ``_batch_insurance`` table, bit for bit.
    ``workers`` is ignored; only ``build_scan`` in ``bench/workloads.py``
    passes it, and ROADMAP item 1's bench change removes it.

    Both passes read a chunk, a product of class rows, through one evaluator.
    It evaluates every tuple on its own for a dual utility (whose
    scenario-side formula is what ``verify_theorem_3_1`` checks, so the scan
    must not use it) and for a scan of at most ``CHUNK`` tuples.  An entropic
    chunk is screened by one ``_screen`` contraction per atom: exp(alpha *
    mean) factors over the members.  Re-scored exactly are the tuples that on
    some atom screen to a non-finite value, have S < tiny (underflowed or
    subnormal), or screen within W of the chunk's screened max, taken over the
    other tuples.  W is 2^9 times ``_screen_error`` at the scale max(1, |that
    max|, largest |feature|), so at least 6e-10 max(1, |max|).  This is exact.
    Every screened value not flagged is within the error bound e of its exact
    value, and W > 1e-12 max(1, |sup|) + 2e.  So the chunk's exact max and its
    first argmax screen within 2e of the screened max and are re-scored.
    Every tuple that ``_attains`` a sup the chunk reaches screens within 1e-12
    max(1, |sup|) + 2e of it and is re-scored.
    """
    t = u.t_start
    classes = [enumerate_class(X, cap) for X in marginals.members]
    total = int(np.prod([c.size for c in classes]))
    if total > cap:
        raise CapExceededError(
            f"{total} tuples exceed cap {cap}; prune with the assignment-problem bound first"
        )
    ranges, chunk, feats = _chunks(u, classes)

    def scan(lo: int, hi: int):
        flat, vals = chunk(lo, hi)
        return vals.max(axis=0), flat[vals.argmax(axis=0)]

    bests, args = (np.stack(x) for x in zip(*parallel.map_chunks(scan, ranges, 1)))
    sup = bests.max(axis=0)
    arg = args[bests.argmax(axis=0), np.arange(sup.size)]  # the first chunk reaching the sup

    def attainers(lo: int, hi: int):
        flat, vals = chunk(lo, hi)
        return flat[_attains(vals, sup)]

    # a batch is read only when the one before it holds no attainer
    near = [r for r, best in zip(ranges, bests) if _attains(best, sup)]
    hits = (h for batch in (near[:1], near[1:]) for h in parallel.map_chunks(attainers, batch, 1))
    first = next((int(h[0]) for h in hits if h.size), -1)

    result = WorstCaseResult(
        ConditionalValue(u.space, t, sup),
        None,
        first >= 0,
        [int(x) for x in arg],
        total,
        classes,
        feats,
    )
    if first >= 0:
        result.attaining_tuple = result.tuple_at(first)
    return result


@dataclass
class Thm31Report:
    equality_residual: float
    equality_holds: bool
    portfolio_value: ConditionalValue
    scenario_value: ConditionalValue
    comonotone_found: bool
    comonotone_tuple: Portfolio | None
    attain_residual: float | None
    attains: bool | None
    tol: float

    @property
    def passed(self) -> bool:
        if not self.equality_holds:
            return False
        return self.attains is not False


def verify_theorem_3_1(
    marginals: Portfolio,
    u: DualFiniteUtility,
    cap: int = 1_000_000,
    tol: float = DEFAULT_TOL,
) -> Thm31Report:
    """Duality check: portfolio sup equals scenario sup; a comonotone tuple,
    when one exists, attains it.

    Needs a coherent utility, where the scenario search over the generating
    densities is provably exhaustive, and marginals on the utility's window,
    where the certificate prices its pairings.

    Every pairing is read from one table per marginal class: the scan's dual
    features, each member paired with each scenario, (size, S, atoms).  The
    scenario side takes, per class, the max over members, sums the classes
    and adds the penalties (``_glued``, as ``worst_scenario``).  Those
    penalties are zero, so no LP prices them.  With gamma = 0, the penalty
    of the utility's own scenario a_j on a start atom is min {G_j.x : G.x >= 0},
    G the scenarios' billing rows on that atom.  Row j is a constraint, so
    G_j.x >= 0 for every feasible x, and x = 0 is feasible: the min is 0.
    Adding 0.0 turns a -0.0 entry into the +0.0 that the LP returns.  Pairings
    against the glued a0 are the gathered columns ``feats[:, choice, atom]``,
    bit for bit: a pairing is priced atom by atom, and on atom k a0 copies
    scenario choice[k].  They give the uniform attainers and each member's
    max correlation and own pairing (``_certificate``, as ``is_comonotone``);
    only the sum of several members has its class enumerated and priced.
    Sharing the table does not make the check circular: the portfolio side
    is the sup over tuples of the min over scenarios of the tuple's mean
    pairing, the scenario side the max over scenarios of the sum of each
    class's sup.  The two share pairings, not the order of sup and min.
    """
    if not isinstance(u, DualFiniteUtility) or not u.coherent:
        raise ValueError("the duality harness needs a coherent utility with an explicit scenario set")
    if marginals.window != u.window:
        raise ValueError(f"portfolio window {marginals.window} is not the utility window {u.window}")
    lhs = worst_portfolio_bruteforce(marginals, u, cap)
    feats = lhs._features
    ws = _glued(u._increments, [f.max(axis=0) for f in feats], 0.0, u)
    residual = lhs.sup_value.max_residual(ws.value)
    equal = residual <= tol

    # pairings against a0: on atom k, those with scenario choice[k]
    tables = [f[:, ws.per_atom_choice, np.arange(f.shape[-1])] for f in feats]
    psis = [table.max(axis=0) for table in tables]
    # member condition: uniform attainers of the max correlation against a0
    uniform_sets = [np.flatnonzero(_attains(table)).tolist() for table in tables]
    tuple_found: Portfolio | None = None
    for rows in itertools.product(*uniform_sets):
        family = [cls.members[j] for cls, j in zip(lhs.classes, rows)]
        directs = [table[j] for table, j in zip(tables, rows)]
        if _certificate(ws.a0, family, psis, directs, tol, cap).comonotone:
            tuple_found = Portfolio(family)
            break
    attains = None
    attain_res = None
    if tuple_found is not None:
        val = u.insurance(tuple_found.mean())
        attain_res = lhs.sup_value.max_residual(val)
        attains = attain_res <= tol
    return Thm31Report(residual, equal, lhs.sup_value, ws.value, tuple_found is not None, tuple_found, attain_res, attains, tol)


def _outcome_mask(event_mask, space: FiniteFilteredSpace) -> np.ndarray:
    mask = np.asarray(event_mask, dtype=bool)
    if mask.shape != (space.n_outcomes,):
        raise ValueError(f"event_mask of shape {mask.shape} is not one entry per outcome ({space.n_outcomes})")
    return mask


def build_linear_driven_portfolio(
    a: DensityProcess,
    matrices: Sequence[np.ndarray],
    shifts: Sequence[np.ndarray],
    event_mask,
) -> Portfolio:
    """Members 1_C B_i (increments of a) + shift_i, with PSD B_i.

    The increment vector of a is hit by B_i per outcome; the indicator event
    and the matrices must combine into adapted members, otherwise the
    construction is rejected.
    """
    space = a.space
    L = a.length
    mask = _outcome_mask(event_mask, space)
    if len(matrices) != len(shifts):
        raise ValueError(f"{len(matrices)} matrices but {len(shifts)} shifts: one shift per matrix")
    members = []
    for i, (B, shift) in enumerate(zip(matrices, shifts)):
        B = np.asarray(B, dtype=float)
        if B.shape != (L, L):
            raise ValueError(f"matrix {i} must be {L}x{L}")
        sym_eigs = np.linalg.eigvalsh((B + B.T) / 2.0)
        if sym_eigs.min() < -1e-10:
            raise ValueError(f"matrix {i} is not positive semidefinite (eig {sym_eigs.min():.3g})")
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (L,):
            raise ValueError(f"shift {i} must have one entry per window time")
        driven = B @ a.values  # (L, M): time-mixed increments per outcome
        vals = mask[None, :] * driven + shift[:, None]
        try:
            members.append(AdaptedProcess(space, a.t_start, vals))
        except ValueError as e:
            raise ValueError(f"member {i} is not adapted: {e}") from e
    return Portfolio(members)


@dataclass
class StageCheck:
    t: int
    residual: float
    passed: bool


@dataclass
class LinearDrivenReport:
    stages: list[StageCheck]
    event_mask: np.ndarray

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stages)

    @property
    def stage0_passed(self) -> bool:
        return self.stages[0].passed


def verify_linear_driven_portfolio(
    portfolio: Portfolio,
    a: DensityProcess,
    event_mask=None,
    cap: int = 1_000_000,
    tol: float = DEFAULT_TOL,
) -> LinearDrivenReport:
    """Stage-by-stage worstness report for a portfolio against the masked
    linear functional X ↦ E(Σ_s X_s·1_C·Δa_s | F_t).

    The functional is linear, so the portfolio is worst at stage t exactly
    when every member's identity arrangement attains its class sup on every
    atom (the comonotonicity condition specialized to one scenario).  Stage 0
    is provable for PSD-driven members when the mask is full; later stages
    are reported, not assumed.
    """
    space = portfolio.space
    mask = np.ones(space.n_outcomes, dtype=bool) if event_mask is None else _outcome_mask(event_mask, space)
    stages = []
    for t in range(portfolio.t_start, portfolio.t_end + 1):
        m_vals = mask * a.values[a._span(t, portfolio.t_end, space)]
        worst_res = 0.0
        for X in portfolio.members:
            Xres = X.restrict(t)
            direct = _pairings(space, Xres.values, m_vals, t)
            best = np.maximum(direct, _pairings(space, enumerate_class(Xres, cap).values, m_vals, t).max(axis=0))
            worst_res = _residuals(worst_res, best - direct, tol)[0]  # a NaN gap stays, and fails
        stages.append(StageCheck(t, worst_res, worst_res <= tol))
    return LinearDrivenReport(stages, mask)


@dataclass
class AdaptedWorstProcess:
    """One portfolio per stage t, each on window [t, T]."""

    stages: dict[int, Portfolio]

    def __post_init__(self):
        times = sorted(self.stages)
        if not times:
            raise ValueError("no stages")
        if times != list(range(times[0], times[-1] + 1)):
            raise ValueError("stages must cover a contiguous range")
        first = self.stages[times[0]]
        for t in times:
            p = self.stages[t]
            if p.space is not first.space or p.n != first.n:
                raise ValueError("stages disagree on space or member count")
            if p.window != (t, first.t_end):
                raise ValueError(f"stage {t} window {p.window}, expected ({t}, {first.t_end})")

    @property
    def t_start(self) -> int:
        return min(self.stages)

    @property
    def t_end(self) -> int:
        return self.stages[self.t_start].t_end

    @property
    def n(self) -> int:
        return self.stages[self.t_start].n

    @classmethod
    def from_restrictions(cls, stage0: Portfolio) -> "AdaptedWorstProcess":
        """Stage-t portfolios as restrictions of the stage-0 one; the law
        links then hold by construction."""
        return cls({t: stage0.restrict(t) for t in range(stage0.t_start, stage0.t_end + 1)})


@dataclass
class LawLinkCheck:
    t: int
    member: int
    residual_ok: bool


@dataclass
class AdaptedWorstReport:
    stage_checks: list[StageCheck]
    law_links: list[LawLinkCheck]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stage_checks) and all(l.residual_ok for l in self.law_links)


def _check_window(candidate: AdaptedWorstProcess, up: UtilityProcess) -> None:
    if (candidate.t_start, candidate.t_end) != (up.t_start, up.t_end):
        raise ValueError(f"candidate window {candidate.t_start}..{candidate.t_end} is not {up.t_start}..{up.t_end}")


def _stage_check(port: Portfolio, u: UtilityBase, cap: int, tol: float) -> StageCheck:
    """The one worst-portfolio certificate of a stage: the brute-force sup
    against the portfolio's own insurance value."""
    res = worst_portfolio_bruteforce(port, u, cap).sup_value.max_residual(u.insurance(port.mean()))
    return StageCheck(u.t_start, res, res <= tol)


def check_adapted_worst_process(
    candidate: AdaptedWorstProcess,
    up: UtilityProcess,
    cap: int = 1_000_000,
    tol: float = DEFAULT_TOL,
) -> AdaptedWorstReport:
    """Certify worst-portfolio status at every stage plus the law links
    between consecutive stages."""
    _check_window(candidate, up)
    stage_checks, links = [], []
    T = candidate.t_end
    for t in range(candidate.t_start, T + 1):
        port = candidate.stages[t]
        stage_checks.append(_stage_check(port, up.stage(t), cap, tol))
        if t == T:
            continue
        for i, (X, Y) in enumerate(zip(port.members, candidate.stages[t + 1].members)):
            # the stage-t value followed by stage t+1's tail
            hybrid = AdaptedProcess._wrap(port.space, t, np.concatenate([X.values[:1], Y.values]))
            links.append(LawLinkCheck(t, i, path_law(hybrid).approx_eq(path_law(X), tol)))
    return AdaptedWorstReport(stage_checks, links)


@dataclass
class PreservationHypotheses:
    """Inputs to the preservation theorem harness, one variant at a time.

    thm33: scenario families per stage with an increment upper bound and
    positive tail lower bounds; thm42: a concatenation-stable base set of
    strictly-positive-tail densities generating coherent relevant stages;
    thm32: entropic stages over a two-step horizon.
    """

    variant: str  # "thm33" | "thm42" | "thm32"
    families: dict[int, list[DensityProcess]] = field(default_factory=dict)
    bound: DensityProcess | None = None
    eps: dict[int, ConditionalValue] = field(default_factory=dict)
    convex: dict[int, bool] = field(default_factory=dict)
    base_set: list[DensityProcess] = field(default_factory=list)
    alpha: float | None = None


def build_preservation_hypotheses(up: UtilityProcess, variant: str) -> PreservationHypotheses:
    """Derive the hypothesis objects from the utility process itself.

    The scenario-family variants read each stage's window stack, its
    density increments on [t, T], whatever the windows of the densities it
    was built from: ``families[t]`` holds the stack's rows, ``bound`` is the
    running maximum of every stage's rows placed at the stage's offset, and
    ``eps[s]`` is the per-atom minimum of the stage-s tails past each time
    t in [s, T).
    """
    if variant not in ("thm33", "thm42", "thm32"):
        raise ValueError(f"unknown variant {variant!r}")
    t0, T = up.t_start, up.t_end
    if variant == "thm32":
        stage = up.stage(t0)
        if not isinstance(stage, EntropicUtility):
            raise ValueError("the two-step variant needs entropic stages")
        return PreservationHypotheses(variant, alpha=stage.alpha)

    stages = {t: up.stage(t) for t in range(t0, T + 1)}
    if not all(isinstance(u, DualFiniteUtility) for u in stages.values()):
        raise ValueError("scenario-family variants need finite scenario sets")
    space = up.space
    stacks = {t: u._increments for t, u in stages.items()}
    families = {t: [DensityProcess._wrap(space, t, inc) for inc in stack] for t, stack in stacks.items()}
    bound = np.zeros((T - t0 + 1, space.n_outcomes))
    for t, stack in stacks.items():
        bound[t - t0 :] = np.maximum(bound[t - t0 :], stack.max(axis=0))
    eps = {}
    for s in range(t0, T):
        # tail_from(t + 1) of every scenario, for t in [s, T)
        tails = np.concatenate([stacks[s][:, k:].sum(axis=1) for k in range(1, T - s + 1)])
        order, starts = space.atom_layout(s)[:2]
        eps[s] = ConditionalValue(space, s, np.minimum.reduceat(tails.min(axis=0).take(order), starts))
    convex = {t: len(fam) == 1 for t, fam in families.items()}
    bound = DensityProcess._wrap(space, t0, bound)
    return PreservationHypotheses(variant, families, bound, eps, convex, base_set=list(families[t0]))


def _verify_hypotheses(
    hyp: PreservationHypotheses, up: UtilityProcess, candidate: AdaptedWorstProcess, cap: int, tol: float
) -> tuple[bool, list[str]]:
    notes: list[str] = []
    failed: list[str] = []  # the notes that fail a hypothesis

    def fail(note: str) -> None:
        failed.append(note)
        notes.append(note)

    t0, T = up.t_start, up.t_end

    tc = time_consistency_check(up, sample_count=3, seed=0, tol=tol)
    if tc.passed:
        notes.append(f"time-consistency: max residual {tc.max_residual:.3g} over {tc.checked} checks")
    else:
        fail(f"time-consistency FAILED: {tc.failures[0]}")

    if hyp.variant == "thm32":
        if T - t0 != 2:
            fail(f"two-step variant needs a window of length 2, got {T - t0}")
        if hyp.alpha is None:
            fail("missing alpha")
        else:
            # dual attainment at the exponential-tilt density, per stage
            stage0 = candidate.stages[t0]
            for t in range(t0, T + 1):
                u = up.stage(t)
                if not isinstance(u, EntropicUtility):
                    fail(f"stage {t} is not entropic")
                    continue
                X = stage0.restrict(t).mean()
                Y = X.slice_at(T)
                space = up.space
                z = np.exp(hyp.alpha * Y)
                norm = cond_expect(space, z, t).lift()
                g = z / norm
                lhs = u.insurance(X).values
                tilt = cond_expect(space, Y * g, t).values
                ent = cond_expect(space, g * np.log(g), t).values
                res = float(np.abs(lhs - (tilt - ent / hyp.alpha)).max())
                if res > 1e-8:
                    fail(f"stage {t}: tilt-density attainment residual {res:.3g}")
            if not failed:
                notes.append("dual attainment at the exponential tilt verified at every stage")
        return not failed, notes

    for t, fam in hyp.families.items():
        for j, a in enumerate(fam):
            member, diag = membership(a, "De", t)
            if not member:
                fail(f"stage {t} scenario {j} outside the positive-tail class: {diag}")
        if not hyp.convex.get(t, False):
            fail(f"stage {t} family of size {len(fam)} not certified convex")
    if hyp.bound is None:
        fail("missing increment upper bound")
    else:
        for t, fam in hyp.families.items():
            for j, a in enumerate(fam):
                for s in range(a.t_start, a.t_end + 1):
                    if np.any(a.slice_at(s) > hyp.bound.slice_at(s) + 1e-12):
                        fail(f"stage {t} scenario {j} exceeds the bound at time {s}")
    for s in range(t0, T):
        e = hyp.eps.get(s)
        if e is None:
            fail(f"missing tail lower bound at stage {s}")
            continue
        if np.any(e.values <= 0):
            fail(f"tail lower bound at stage {s} not strictly positive")
        for a in hyp.families[s]:
            for t in range(s, T):
                if np.any(e.lift() > a.tail_from(t + 1) + 1e-12):
                    fail(f"tail bound at stage {s} exceeds a scenario tail past {t}")

    if hyp.variant == "thm42":
        for t in range(t0, T + 1):
            u = up.stage(t)
            if not (isinstance(u, DualFiniteUtility) and u.coherent):
                fail(f"stage {t} not coherent")
        relevance = _check_relevance(up.stage(t0))
        if not relevance.passed:
            fail(f"relevance failed: {relevance.counterexample}")
        from .processes import stability_check

        stab = stability_check(hyp.base_set, "concatenation", cap=cap, tol=tol)
        if stab.stable:
            notes.append(
                f"base set concatenation-stable over {stab.generated} splices ({stab.stopping_times})"
            )
        else:
            fail(f"base set not concatenation-stable: {stab.context}")
        # stage scenarios must be the tail-normalized base densities; a base
        # density without remaining mass at t has none
        for t in range(t0, T + 1):
            targets = []
            for i, b in enumerate(hyp.base_set):
                if np.all(remaining_mass(b, t).values > 1e-12):
                    targets.append(normalize_to_window(b, t))
                else:
                    fail(f"base density {i} has no remaining mass at t={t}")
            for j, inc in enumerate(up.stage(t)._increments):
                window = DensityProcess._wrap(up.space, t, inc)
                if not any(window.approx_eq(b, 1e-9) for b in targets):
                    fail(f"stage {t} scenario {j} is not a normalized base density")
    return not failed, notes


@dataclass
class PreservationReport:
    variant: str
    hypotheses_ok: bool
    notes: list[str]
    adapted_ok: bool
    stage_checks: list[StageCheck]
    skipped: bool

    @property
    def passed(self) -> bool:
        return self.hypotheses_ok and self.adapted_ok and not self.skipped and all(
            s.passed for s in self.stage_checks
        )


def verify_preservation(
    hyp: PreservationHypotheses,
    up: UtilityProcess,
    candidate: AdaptedWorstProcess,
    cap: int = 1_000_000,
    tol: float = DEFAULT_TOL,
) -> PreservationReport:
    """Re-certify the stage-0 portfolio as worst at every later stage.

    Hypotheses (including the adapted-worst-process property of the
    candidate) are verified first; when they fail, the conclusion is not
    tested and the report says so.  A stage whose candidate portfolio is
    stage 0's restriction keeps the adapted check's certificate; any other
    stage scans the restriction.
    """
    _check_window(candidate, up)
    ok, notes = _verify_hypotheses(hyp, up, candidate, cap, tol)
    adapted = check_adapted_worst_process(candidate, up, cap, tol)
    if not adapted.passed:
        notes.append("candidate is not an adapted worst portfolio process")
    if not (ok and adapted.passed):
        return PreservationReport(hyp.variant, ok, notes, adapted.passed, [], True)

    t0, stage0 = candidate.t_start, candidate.stages[candidate.t_start]
    checks = []
    for t in range(t0 + 1, candidate.t_end + 1):
        restricted = stage0.restrict(t)
        same = all(np.array_equal(X.values, Y.values) for X, Y in zip(restricted.members, candidate.stages[t].members))
        checks.append(adapted.stage_checks[t - t0] if same else _stage_check(restricted, up.stage(t), cap, tol))
    return PreservationReport(hyp.variant, ok, notes, adapted.passed, checks, False)


def apply_matrix(A: np.ndarray, X: AdaptedProcess) -> AdaptedProcess:
    """Hit every outcome's path vector with A; rejects non-adapted results."""
    A = np.asarray(A, dtype=float)
    if A.shape != (X.length, X.length):
        raise ValueError(f"matrix shape {A.shape} does not match window length {X.length}")
    try:
        return AdaptedProcess(X.space, X.t_start, A @ X.values)
    except ValueError as e:
        raise ValueError(f"matrix image is not adapted: {e}") from e


@dataclass
class MatrixSupResult:
    value: ConditionalValue
    per_atom_argmax: list[int]
    best_index: int | None
    attained_uniformly: bool  # the directedness conclusion needs this


def matrix_sup(u: UtilityBase, X: AdaptedProcess, matrices: Sequence[np.ndarray]) -> MatrixSupResult:
    """Atom-wise sup of the insurance value over matrix images of X."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("empty matrix list")
    images = np.stack([apply_matrix(A, X).values for A in matrices])
    # reflected as insurance reflects evaluate, in one kernel call
    table = 0.0 - u._stacked(u._window(X, -images))
    best = table.max(axis=0)
    arg = _first_near_max(table)
    hit = np.flatnonzero(_attains(table, best))
    uniform = int(hit[0]) if hit.size else None
    return MatrixSupResult(
        ConditionalValue(u.space, u.t_start, best), arg, uniform, uniform is not None
    )


@dataclass
class MatrixCompareReport:
    hyp_eigenvector: bool
    hyp_nonnegative: bool
    hyp_acceptance: bool
    hyp_dominance: bool
    acceptance_samples: int
    acceptance_counterexample: str | None
    conclusion_tested: bool
    conclusion_holds: bool | None
    conclusion_residual: float | None
    seed: int

    @property
    def all_hypotheses(self) -> bool:
        return (
            self.hyp_eigenvector and self.hyp_nonnegative and self.hyp_acceptance and self.hyp_dominance
        )


def matrix_compare(
    A: np.ndarray,
    u: UtilityBase,
    X_tilde: Portfolio,
    X_bar: Portfolio,
    sample_count: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> MatrixCompareReport:
    """Hypothesis-gated comparison of insurance values through a matrix.

    Checks: ones is a fixed vector of A; entries nonnegative; acceptance of
    A X forces acceptance of X on boundary-shifted samples; the summed tilde
    portfolio is dominated through A by the bar portfolio.  Only when all
    four hold is the conclusion inequality asserted.
    """
    from .random_gen import random_adapted

    A = np.asarray(A, dtype=float)
    X_tilde.members[0]._span(u.t_start, u.t_end, u.space)  # tilde on u's space and window
    X_tilde.members[0]._same_window(X_bar.members[0])  # bar on tilde's
    if X_tilde.window != u.window:
        # A acts on the portfolio window, the boundary shift is u's value at its start
        raise ValueError(f"portfolio window {X_tilde.window} is not the utility window {u.window}")
    L = X_tilde.t_end - X_tilde.t_start + 1
    if A.shape != (L, L):
        raise ValueError(f"matrix shape {A.shape} does not match window length {L}")
    if X_bar.n != X_tilde.n:
        raise ValueError("portfolios must have the same number of members")
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")

    ones = np.ones(L)
    hyp_eig = bool(np.abs(A @ ones - ones).max() <= 1e-12)
    hyp_nonneg = bool(np.all(A >= 0))

    hyp_acc = True
    counterexample = None
    samples = 0
    rng = np.random.default_rng(seed)
    t = X_tilde.t_start
    if hyp_eig:
        # cash invariance plus the fixed ones-vector put phi(AX) exactly at 0
        for _ in range(sample_count):
            X_raw = random_adapted(u.space, t, X_tilde.t_end, rng)
            try:
                image = apply_matrix(A, X_raw)
            except ValueError:
                hyp_acc = False
                counterexample = "not tested (matrix image left the adapted class on a sampled position)"
                break
            shift = -u.evaluate(image).values
            X = X_raw.shift_by(ConditionalValue(u.space, t, shift))
            samples += 1
            phi_ax = u.evaluate(apply_matrix(A, X)).values
            phi_x = u.evaluate(X).values
            bad = (phi_ax >= -tol) & (phi_x < -tol)
            if np.any(bad):
                hyp_acc = False
                k = int(np.flatnonzero(bad)[0])
                counterexample = (
                    f"atom {k}: phi(AX)={phi_ax[k]:.6g} acceptable but phi(X)={phi_x[k]:.6g}"
                )
                break
    else:
        hyp_acc = False
        counterexample = "not tested (ones is not fixed, the boundary shift is unavailable)"

    AS_tilde = apply_matrix(A, X_tilde.total())
    S_bar = X_bar.total()
    hyp_dom = bool(np.all(AS_tilde.values <= S_bar.values + 1e-12))

    tested = hyp_eig and hyp_nonneg and hyp_acc and hyp_dom
    holds = None
    residual = None
    if tested:
        lhs = u.insurance(apply_matrix(A, X_tilde.mean())).values
        rhs = u.insurance(apply_matrix(A, X_bar.mean())).values
        residual = float((lhs - rhs).max())
        holds = residual <= tol
    return MatrixCompareReport(
        hyp_eig, hyp_nonneg, hyp_acc, hyp_dom, samples, counterexample, tested, holds, residual, seed
    )


def check_law_invariance(u: UtilityBase, X: AdaptedProcess, cap: int = 100_000, tol: float = DEFAULT_TOL) -> bool:
    """True when the evaluation is constant across the rearrangement class."""
    cls = enumerate_class(X, cap)
    values = u._stacked(u._window(X, cls.values))
    return bool(np.all(np.abs(values - u.evaluate(X).values).max(axis=-1) <= tol))
