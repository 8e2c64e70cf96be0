"""Worst scenarios, worst portfolios and the preservation/comparison harnesses.

Everything here is brute force over explicitly finite search spaces: the
rearrangement classes of the marginals, a finite scenario family, or a finite
matrix list.  Harnesses re-verify their hypotheses before testing any
conclusion and report residuals instead of silently clamping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import parallel
from .processes import AdaptedProcess, DensityProcess, _pairings, mean_portfolio, membership
from .rearrange import (
    RearrangementClass,
    _class_pairings,
    _first_near_max,
    enumerate_class,
    is_comonotone,
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
    _check_relevance,
    _penalties,
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
        first = self.members[0]
        for m in self.members[1:]:
            if m.space is not first.space or m.window != first.window:
                raise ValueError("portfolio members on different spaces or windows")

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
    solver: str = "highs",
    rearrangements: Sequence[RearrangementClass] | None = None,
) -> ConditionalValue:
    """(1/n) sum of max correlations against a, plus the penalty of a.

    ``rearrangements``, when given, holds the marginals' classes, which are
    then not enumerated again.
    """
    return _average_correlation(a, marginals, u, cap, rearrangements) + penalty(u, a, solver=solver)


def _average_correlation(
    a: DensityProcess,
    marginals: Portfolio,
    u: DualFiniteUtility,
    cap: int,
    rearrangements: Sequence[RearrangementClass] | None,
) -> ConditionalValue:
    t, t_end = u.t_start, u.t_end
    acc = None
    for i, X in enumerate(marginals.members):
        cls = None if rearrangements is None else rearrangements[i]
        v = max_correlation(a, X, t, t_end, cap, rearrangement=cls).value
        acc = v if acc is None else acc + v
    return acc * (1.0 / marginals.n)


@dataclass
class WorstScenarioResult:
    a0: DensityProcess
    value: ConditionalValue
    per_atom_choice: list[int]
    single_attainment: bool


def worst_scenario(
    candidates: Sequence[DensityProcess],
    marginals: Portfolio,
    u: DualFiniteUtility,
    cap: int = 100_000,
    solver: str = "highs",
    rearrangements: Sequence[RearrangementClass] | None = None,
) -> WorstScenarioResult:
    """Atom-wise best candidate under the average risk, glued by indicators."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate list")
    t, t_end = u.t_start, u.t_end
    space = u.space
    # average_risk of every candidate, its penalties priced in one pass
    table = np.stack([_average_correlation(c, marginals, u, cap, rearrangements).values for c in candidates])
    table = table + _penalties(u, candidates, solver=solver)
    best = table.max(axis=0)
    choice = _first_near_max(table)
    single = any(bool(np.all(table[i] >= best - 1e-12)) for i in range(len(candidates)))

    # glue the chosen candidates' increments along the window-start atoms
    incs = np.stack([c.values[c._index(t) : c._index(t_end) + 1] for c in candidates])
    glued = incs[np.array(choice)[space.atom_index(t)], :, np.arange(space.n_outcomes)].T
    return WorstScenarioResult(
        DensityProcess(space, t, glued), ConditionalValue(space, t, best), choice, single
    )


@dataclass
class WorstCaseResult:
    sup_value: ConditionalValue
    attaining_tuple: "Portfolio | None"
    attained_uniformly: bool
    per_atom_argmax: list[int]
    search_size: int
    classes: list[RearrangementClass] = field(repr=False, default_factory=list)

    def tuple_at(self, flat_index: int) -> Portfolio:
        sizes = [c.size for c in self.classes]
        idx = np.unravel_index(flat_index, sizes)
        return Portfolio([self.classes[i].members[int(j)] for i, j in enumerate(idx)])


def _batch_insurance(u: UtilityBase, classes: list[RearrangementClass]):
    """Insurance values of tuple means, as a function of per-class index arrays.

    Features are linear, so a tuple mean's features are the mean of its
    members' features; those are computed once per class member.  Summed in
    member order and divided by n like ``mean_portfolio``, terminal-slice
    features equal those of the mean exactly, and the scanned value is the
    tuple's own insurance value.
    """
    feats = [u._features(u._window(cls.representative, cls.values)) for cls in classes]
    n = len(classes)

    def batch(idx: list[np.ndarray]) -> np.ndarray:
        acc = feats[0][idx[0]]
        for f, i in zip(feats[1:], idx[1:]):
            acc = acc + f[i]
        return 0.0 - u._combine(-(acc / n))  # reflected as in insurance

    return batch


def worst_portfolio_bruteforce(
    marginals: Portfolio,
    u: UtilityBase,
    cap: int = 1_000_000,
    workers: int | None = None,
    chunk_size: int = 4096,
) -> WorstCaseResult:
    """Enumerate the product of rearrangement classes and take atom-wise sups.

    Results are deterministic for any worker count: chunks cover the flat
    tuple index range in order and merges prefer the lower index on ties.
    """
    t = u.t_start
    classes = [enumerate_class(X, cap) for X in marginals.members]
    sizes = [c.size for c in classes]
    total = int(np.prod(sizes))
    if total > cap:
        raise CapExceededError(
            f"{total} tuples exceed cap {cap}; prune with the assignment-problem bound first"
        )
    evaluate = _batch_insurance(u, classes)
    ranges = parallel.chunk_ranges(total, chunk_size)

    def scan(lo: int, hi: int):
        idx = [arr for arr in np.unravel_index(np.arange(lo, hi), sizes)]
        vals = evaluate(idx)
        best = vals.max(axis=0)
        arg = vals.argmax(axis=0) + lo
        return best, arg

    partials = parallel.map_chunks(scan, ranges, workers)
    n_atoms = u.space.n_atoms(t)
    sup = np.full(n_atoms, -np.inf)
    arg = np.zeros(n_atoms, dtype=int)
    for best, a in partials:
        improve = best > sup
        sup = np.where(improve, best, sup)
        arg = np.where(improve, a, arg)

    atol = 1e-12 * np.maximum(1.0, np.abs(sup))

    def find_uniform(lo: int, hi: int):
        idx = [arr for arr in np.unravel_index(np.arange(lo, hi), sizes)]
        vals = evaluate(idx)
        hits = np.all(vals >= sup[None, :] - atol[None, :], axis=1)
        where = np.flatnonzero(hits)
        return int(where[0]) + lo if where.size else -1

    # a uniform attainer can only sit in a chunk whose best reaches the sup
    # on every atom
    near = [r for r, (best, _) in zip(ranges, partials) if np.all(best >= sup - atol)]
    first = next((res for res in parallel.map_chunks(find_uniform, near, workers) if res >= 0), -1)

    result = WorstCaseResult(
        ConditionalValue(u.space, t, sup),
        None,
        first >= 0,
        [int(x) for x in arg],
        total,
        classes,
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
    workers: int | None = None,
) -> Thm31Report:
    """Duality check: portfolio sup equals scenario sup; a comonotone tuple,
    when one exists, attains it.

    Needs a coherent utility, where the scenario search over the generating
    densities is provably exhaustive.
    """
    if not isinstance(u, DualFiniteUtility) or not u.coherent:
        raise ValueError("the duality harness needs a coherent utility with an explicit scenario set")
    t, t_end = u.t_start, u.t_end
    # each marginal's class is enumerated once, here, and read by every later step
    lhs = worst_portfolio_bruteforce(marginals, u, cap, workers)
    ws = worst_scenario([a for a, _ in u.scenarios], marginals, u, cap, rearrangements=lhs.classes)
    residual = lhs.sup_value.max_residual(ws.value)
    equal = residual <= tol

    # member condition: uniform attainers of the max correlation against a0
    a0 = ws.a0
    uniform_sets: list[list[AdaptedProcess]] = []
    for cls in lhs.classes:
        table = _class_pairings(cls, a0, t, t_end)
        best = table.max(axis=0)
        near = np.all(table >= best - 1e-12 * np.maximum(1.0, np.abs(best)), axis=1)
        uniform_sets.append([m for m, keep in zip(cls.members, near) if keep])

    tuple_found: Portfolio | None = None
    n_tuples = int(np.prod([max(len(s), 1) for s in uniform_sets]))
    if all(uniform_sets) and n_tuples <= cap:
        import itertools

        for combo in itertools.product(*uniform_sets):
            cert = is_comonotone(a0, list(combo), tol, cap, rearrangements=lhs.classes)
            if cert.comonotone:
                tuple_found = Portfolio(list(combo))
                break
    attains = None
    attain_res = None
    if tuple_found is not None:
        val = u.insurance(tuple_found.mean())
        attain_res = lhs.sup_value.max_residual(val)
        attains = attain_res <= tol
    return Thm31Report(residual, equal, lhs.sup_value, ws.value, tuple_found is not None, tuple_found, attain_res, attains, tol)


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
    mask = np.asarray(event_mask, dtype=bool)
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
    mask = np.ones(space.n_outcomes, dtype=bool) if event_mask is None else np.asarray(event_mask, dtype=bool)
    masked = mask[None, :] * a.values
    stages = []
    for t in range(portfolio.t_start, portfolio.t_end + 1):
        m_vals = masked[a._span(t, portfolio.t_end)]
        worst_res = 0.0
        for X in portfolio.members:
            Xres = X.restrict(t)
            direct = _pairings(space, Xres.values, m_vals, t)
            best = np.maximum(direct, _pairings(space, enumerate_class(Xres, cap).values, m_vals, t).max(axis=0))
            worst_res = max(worst_res, float((best - direct).max()))
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


def _stage_check(port: Portfolio, u: UtilityBase, cap: int, tol: float, workers: int | None) -> StageCheck:
    """The one worst-portfolio certificate of a stage: the brute-force sup
    against the portfolio's own insurance value."""
    res = worst_portfolio_bruteforce(port, u, cap, workers).sup_value.max_residual(u.insurance(port.mean()))
    return StageCheck(u.t_start, res, res <= tol)


def check_adapted_worst_process(
    candidate: AdaptedWorstProcess,
    up: UtilityProcess,
    cap: int = 1_000_000,
    tol: float = DEFAULT_TOL,
    workers: int | None = None,
) -> AdaptedWorstReport:
    """Certify worst-portfolio status at every stage plus the law links
    between consecutive stages."""
    _check_window(candidate, up)
    stage_checks, links = [], []
    T = candidate.t_end
    for t in range(candidate.t_start, T + 1):
        port = candidate.stages[t]
        stage_checks.append(_stage_check(port, up.stage(t), cap, tol, workers))
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
        # stage scenarios must be the tail-normalized base densities
        for t in range(t0, T + 1):
            targets = [normalize_to_window(b, t) for b in hyp.base_set]
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
    workers: int | None = None,
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
    adapted = check_adapted_worst_process(candidate, up, cap, tol, workers)
    if not adapted.passed:
        notes.append("candidate is not an adapted worst portfolio process")
    if not (ok and adapted.passed):
        return PreservationReport(hyp.variant, ok, notes, adapted.passed, [], True)

    t0, stage0 = candidate.t_start, candidate.stages[candidate.t_start]
    checks = []
    for t in range(t0 + 1, candidate.t_end + 1):
        restricted = stage0.restrict(t)
        same = all(np.array_equal(X.values, Y.values) for X, Y in zip(restricted.members, candidate.stages[t].members))
        checks.append(adapted.stage_checks[t - t0] if same else _stage_check(restricted, up.stage(t), cap, tol, workers))
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
    hit = np.flatnonzero(np.all(table >= best - 1e-12 * np.maximum(1.0, np.abs(best)), axis=1))
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
    L = X_tilde.t_end - X_tilde.t_start + 1
    if A.shape != (L, L):
        raise ValueError(f"matrix shape {A.shape} does not match window length {L}")
    if X_bar.window != X_tilde.window or X_bar.n != X_tilde.n:
        raise ValueError("portfolios must share window and size")
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
                shift = -u.evaluate(apply_matrix(A, X_raw)).values
            except ValueError:
                hyp_acc = False
                counterexample = "not tested (matrix image left the adapted class on a sampled position)"
                break
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
