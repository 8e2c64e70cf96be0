"""Monetary utility functions on a window, their insurance versions and checkers.

Three families are implemented: finite dual representations (a list of
scenario densities with penalties), entropic certainty equivalents, and the
robust entropic variant taking a worst case over terminal densities.  The
insurance version of any of them is X -> -phi(-X).

Each family has one evaluation kernel in two steps, both accepting any
leading batch shape:

- ``_features(vals)`` is linear.  It maps ``(..., L, M)`` window slices to
  the pairings with every scenario, ``(..., S, atoms)``, summed by
  ``processes._pairings``, for the dual family and to the terminal slice,
  ``(..., M)``, for the entropic families.
- ``_combine(feats)`` is the nonlinear step: the penalised min over
  scenarios, or the segmented log-sum-exp anchored at each atom's max.

``evaluate`` is ``_combine(_features(window))`` and ``insurance`` reflects
it.  ``argmax_density`` reads the dual features, and the worst-portfolio
scan (``worstcase._batch_insurance``) takes the features of every class
member once and combines their means per tuple, so a scanned value is the
insurance value of that tuple's mean.  The entropic families also screen
a block of tuples at once: exp(alpha * mean) is the product of the
members' exp(alpha * f_i / n), so ``_anchored`` factors each member once
and ``_screen`` contracts the weight row with those factors per atom;
``_screen_error`` bounds how far a screened value lies from the exact one,
and the scan re-scores exactly every tuple that could be a chunk's max.
The time-consistency recursion (``UtilityProcess._glue`` and ``_fold``)
calls each stage's kernel twice: once on the samples, whose direct values
the glue gathers along each stopping time's level sets, then in the fold,
on every (stopping time, sample) pair stacked.
The axiom sweeps (``check_axioms``, ``_check_relevance``),
``worstcase.check_law_invariance`` and ``worstcase.matrix_sup`` evaluate
stacks of positions through the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import lp
from .processes import (
    AdaptedProcess,
    DensityProcess,
    TerminalDensity,
    _pairings,
    concatenate,
    membership,
    pairing,
    random_adapted,
    remaining_mass,
)
from .space import (
    DEFAULT_TOL,
    ConditionalValue,
    FiniteFilteredSpace,
    StoppingTime,
    _same_space,
    _times_to_check,
    cond_expect,
    enumerate_events,
    random_conditional,
)

AXIOMS = ("locality", "monotonicity", "cash_invariance", "concavity", "coherence", "continuity", "relevance")
RELEVANCE_LOSSES = (1.0, 0.1, 0.01)  # loss sizes the relevance check tries on every atom


class UtilityBase:
    """Common window plumbing; subclasses provide evaluate() through their
    _features/_combine kernel."""

    def __init__(self, space: FiniteFilteredSpace, t_start: int, t_end: int):
        if not 0 <= t_start <= t_end <= space.horizon:
            raise ValueError(f"window [{t_start}, {t_end}] outside [0, {space.horizon}]")
        self.space = space
        self.t_start = t_start
        self.t_end = t_end

    @property
    def window(self) -> tuple[int, int]:
        return (self.t_start, self.t_end)

    def _window(self, X: AdaptedProcess, stack: np.ndarray | None = None) -> np.ndarray:
        """The (L, M) slices of X on the utility's window, or the (..., L, M)
        slices of ``stack``, positions on X's window; X's window rule,
        ``_span``, refuses a position off the utility's space or window."""
        vals = X.values if stack is None else stack
        return vals[..., X._span(self.t_start, self.t_end, self.space), :]

    def _stacked(self, vals: np.ndarray) -> np.ndarray:
        """The kernel on stacked (..., L, M) window slices."""
        return self._combine(self._features(vals))

    def insurance(self, X: AdaptedProcess) -> ConditionalValue:
        """The insurance version -phi(-X)."""
        # 0 - phi, not -phi, so an exact zero is +0.0 and reports print "0"
        return ConditionalValue(self.space, self.t_start, 0.0 - self.evaluate(-X).values)


class DualFiniteUtility(UtilityBase):
    """phi(X) = min over scenarios of (pairing(X, a_i) - gamma_i).

    Scenarios carry densities normalized on the window and penalties in
    [-inf, 0] whose atom-wise maximum is zero.  gamma identically zero means
    the utility is coherent (a max of linear functionals).

    The scenarios are stacked once, and validated from those stacks: the
    constructor refuses a density whose window does not cover the utility's
    or that is not a density there, a penalty on another space or at another
    time, a positive penalty, and penalties whose atom-wise max is not 0,
    which covers an atom where every penalty is -inf (phi would be +inf).
    """

    def __init__(
        self,
        space: FiniteFilteredSpace,
        t_start: int,
        t_end: int,
        scenarios: Sequence[tuple[DensityProcess, ConditionalValue]],
    ):
        super().__init__(space, t_start, t_end)
        scenarios = [(a, g) for a, g in scenarios]
        if not scenarios:
            raise ValueError("need at least one scenario")
        # (S, L, M) density increments on the window, (S, atoms) penalties
        self._increments = np.stack([a.values[a._span(t_start, t_end, space)] for a, _ in scenarios])
        for i, (a, g) in enumerate(scenarios):
            if g.space is not space:
                raise ValueError(f"scenario {i} penalty lives on a different space")
            if g.time != t_start:
                raise ValueError(f"scenario {i} penalty must live at t={t_start}")
        self.scenarios = scenarios
        self._gamma = np.stack([g.values for _, g in scenarios])
        self._dead = np.isneginf(self._gamma)
        self._any_dead = bool(self._dead.any())
        for i, (inc, gamma) in enumerate(zip(self._increments, self._gamma)):
            ok, diag = membership(DensityProcess._wrap(space, t_start, inc), "D")
            if not ok:
                raise ValueError(f"scenario {i} not a density on the window: {diag}")
            if np.any(gamma > 1e-12):
                raise ValueError(f"scenario {i} penalty takes a positive value")
        if np.any(np.abs(self._gamma.max(axis=0)) > 1e-9):
            raise ValueError("penalties are not normalized: atom-wise max gamma must be 0")
        self._supports: dict[int, lp.DualSupports] = {}  # penalty dual per start atom, built on first use

    @property
    def coherent(self) -> bool:
        return bool(np.all(self._gamma == 0.0))

    def gamma_norm(self) -> float:
        """Largest finite penalty magnitude (0 when all are 0 or -inf)."""
        return float(np.abs(self._gamma[np.isfinite(self._gamma)]).max(initial=0.0))

    @cached_property
    def _variables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The penalty program's variables, one per atom B of each window time s,
        ordered by s, then B: (order, starts) of a segmented sum over flattened
        (L, M) slices, each variable's window-start atom and its probability."""
        sp, t = self.space, self.t_start
        order, starts = sp.atom_layout(t, self.t_end)[:2]
        owner = sp.atom_index(t)[order[starts] % sp.n_outcomes]
        return order, starts, owner, sp.atom_layout(t)[-1][owner]

    def _coefficients(self, vals: np.ndarray) -> np.ndarray:
        """Billing E[d_s 1_B] / P(start atom) of each variable (s, B):
        (..., L, M) density slices -> (..., V)."""
        order, starts, _, p_start = self._variables
        flat = (vals * self.space.probs).reshape(*vals.shape[:-2], -1)
        return np.add.reduceat(flat.take(order, axis=-1), starts, axis=-1) / p_start

    def _features(self, vals: np.ndarray) -> np.ndarray:
        """Pairings with every scenario: (..., L, M) -> (..., S, atoms)."""
        return _pairings(self.space, vals[..., None, :, :], self._increments, self.t_start)

    def _penalised(self, feats: np.ndarray) -> np.ndarray:
        # -(-inf) penalties knock a scenario out of the min
        out = feats - self._gamma
        if self._any_dead:
            out[..., self._dead] = np.inf
        return out

    def _combine(self, feats: np.ndarray) -> np.ndarray:
        """Penalised min over scenarios, chained: (..., S, atoms) -> (..., atoms)."""
        p = self._penalised(feats)
        out = p[..., 0, :]
        for i in range(1, p.shape[-2]):
            out = np.minimum(out, p[..., i, :])
        return out

    def evaluate(self, X: AdaptedProcess) -> ConditionalValue:
        return ConditionalValue(self.space, self.t_start, self._combine(self._features(self._window(X))))


class _EntropicKernel(UtilityBase):
    """Shared kernel of the entropic families: only the terminal slice of the
    position matters, and values are conditional certainty equivalents
    -log E_w(exp(-alpha X_T) | atom) / alpha under the weights in ``_w``."""

    def __init__(self, space: FiniteFilteredSpace, alpha: float, t_start: int, t_end: int | None = None):
        super().__init__(space, t_start, space.horizon if t_end is None else t_end)
        if not 0 < alpha < np.inf:  # NaN too
            raise ValueError("alpha must be positive and finite")
        self.alpha = float(alpha)
        self._order, self._starts, self._seg, w_ord, wsum = space.atom_layout(t_start)
        self._w, self._log_wsum = w_ord, np.log(wsum)

    def _features(self, vals: np.ndarray) -> np.ndarray:
        """Terminal slice: (..., L, M) -> (..., M)."""
        return vals[..., -1, :]

    def _combine(self, feats: np.ndarray) -> np.ndarray:
        """Segmented log-sum-exp anchored at each atom's max: (..., M) -> (..., atoms);
        (..., 1, M) features give one row per weight row of a (D, M) ``_w``."""
        z = -self.alpha * feats.take(self._order, axis=-1)
        m = np.maximum.reduceat(z, self._starts, axis=-1)
        s = np.add.reduceat(self._w * np.exp(z - m.take(self._seg, axis=-1)), self._starts, axis=-1)
        # 0 - y, not -y, so an exact zero is +0.0 and reports print "0"
        return 0.0 - (m + np.log(s) - self._log_wsum) / self.alpha

    def _anchored(self, feats: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """One member's factors for ``_screen``: (K, M) terminal features ->
        E = exp(z - c), (K, M) in atom order, and c, (K, atoms), where
        z = alpha f / n and c is each row's max on each atom."""
        z = self.alpha * feats.take(self._order, axis=-1) / n
        c = np.maximum.reduceat(z, self._starts, axis=-1)
        return np.exp(z - c.take(self._seg, axis=-1)), c

    def _screen(self, parts: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        """Insurance values of the means of every tuple of rows of the
        ``_anchored`` parts, C order, through exp(alpha mean) = prod_i exp(z_i):
        per atom the weight row contracted with E_1 x ... x E_n gives S, and
        the value is (sum_i c_i + log S - log wsum) / alpha.

        -> (tuples, atoms) values, and where S < tiny (underflowed or
        subnormal).  Elsewhere a value is within ``_screen_error`` of the
        tuple's exact insurance value."""
        Es, cs = zip(*parts)
        P = self._w[..., None, :]  # (..., rows, M), rows over the members but the last
        for E in Es[:-1]:
            P = (P[..., None, :] * E).reshape(*P.shape[:-2], -1, P.shape[-1])
        bounds = np.append(self._starts, P.shape[-1])
        S = np.stack([P[..., a:b] @ Es[-1][:, a:b].T for a, b in zip(bounds[:-1], bounds[1:])], axis=-1)
        S = S.reshape(*S.shape[:-3], -1, S.shape[-1])
        c = cs[0]
        for ci in cs[1:]:
            c = (c[:, None, :] + ci).reshape(-1, c.shape[-1])
        with np.errstate(divide="ignore"):  # S = 0 gives -inf, and the tuple is re-scored
            log_s = np.log(S)
        return (c + log_s - self._log_wsum[..., None, :]) / self.alpha, S < np.finfo(float).tiny

    def _screen_error(self, n: int, scale):
        """Bound on |screen - exact insurance| wherever S >= tiny, for n
        members whose features are at most ``scale`` in magnitude:
        2^-49 (n + M + L) max(scale, 1/alpha), with M outcomes,
        L = max(709, -log w_min) and w_min the least weight.

        With eps = 2^-53: rounding z, c and the exact path's feature sum
        costs O(n eps scale).  exp, the products and the M-term sums give S
        and the exact path's s relative errors O((n + M) eps), and log adds
        eps |log|, where |log S| <= 709 for tiny <= S <= 1 and |log s|,
        |log wsum| <= -log w_min; these terms are divided by alpha."""
        L = max(709.0, -np.log(self._w.min()))
        return 2.0**-49 * (n + self._w.shape[-1] + L) * np.maximum(scale, 1.0 / self.alpha)


class EntropicUtility(_EntropicKernel):
    """Conditional certainty equivalent of exponential utility; only the
    terminal slice of the position matters."""

    def evaluate(self, X: AdaptedProcess) -> ConditionalValue:
        return ConditionalValue(self.space, self.t_start, self._combine(self._features(self._window(X))))


class RobustEntropicUtility(_EntropicKernel):
    """Worst-case entropic value over a finite family of terminal densities."""

    def __init__(
        self,
        space: FiniteFilteredSpace,
        alpha: float,
        densities: Sequence[TerminalDensity],
        t_start: int,
        t_end: int | None = None,
    ):
        super().__init__(space, alpha, t_start, t_end)
        if not densities:
            raise ValueError("need at least one terminal density")
        if any(f.space is not space for f in densities):
            raise ValueError("terminal density lives on a different space")
        self.densities = list(densities)
        # one weight row per density, probabilities tilted by it
        self._w = np.stack([(space.probs * f.h)[self._order] for f in self.densities])
        self._log_wsum = np.log(np.add.reduceat(self._w, self._starts, axis=-1))

    def _combine(self, feats: np.ndarray) -> np.ndarray:
        """Worst entropic value over the densities: (..., M) -> (..., atoms)."""
        return super()._combine(feats[..., None, :]).min(axis=-2)

    def _screen(self, parts: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        """One contraction per weight row, then the max: insurance reflects
        the min of ``evaluate``."""
        values, small = super()._screen(parts)
        return values.max(axis=0), small.any(axis=0)

    def evaluate(self, X: AdaptedProcess) -> ConditionalValue:
        return ConditionalValue(self.space, self.t_start, self._combine(self._features(self._window(X))))


def penalty(u: DualFiniteUtility, a: DensityProcess) -> ConditionalValue:
    """Minimal penalty of the robust representation at a, per window-start atom.

    On each atom it is the smallest billing c.x of an acceptable position,
    G.x >= h, where x runs over the adapted degrees of freedom inside the
    atom, c bills them against a, each row of G against a live scenario,
    and h holds those scenarios' penalties.  It is computed as the LP dual,
    max h.lam s.t. G^T lam = c, lam >= 0, by enumerating its basic supports
    (one HiGHS solve above ``lp.SUPPORT_LIMIT`` of them); an infeasible dual
    gives -inf, and a coherent utility's penalty is 0 or -inf.
    ``penalty_vertices`` is the primal oracle of the same value.
    """
    values = _penalties(u, [a])[0]  # checks u's type first
    return ConditionalValue(u.space, u.t_start, values)


def _check_priceable(u: DualFiniteUtility) -> None:
    """Both penalty routes need explicit scenarios; each then slices its
    densities through the window rule, ``_span``, before any LP."""
    if not isinstance(u, DualFiniteUtility):
        raise TypeError("penalty evaluation needs an explicit finite scenario set")


def _penalties(u: DualFiniteUtility, densities: Sequence[DensityProcess]) -> np.ndarray:
    """``penalty`` of every density at once: -> (K, atoms), all of them
    priced per atom against supports factored once on ``u``."""
    _check_priceable(u)
    t, T = u.t_start, u.t_end
    C = u._coefficients(np.stack([a.values[a._span(t, T, u.space)] for a in densities]))
    G = u._coefficients(u._increments)
    _, _, owner, _ = u._variables
    out = np.empty((len(densities), u.space.n_atoms(t)))
    for k in range(u.space.n_atoms(t)):
        live = np.flatnonzero(~u._dead[:, k])
        h = np.minimum(u._gamma[live, k], 0.0)  # the constructor's 1e-12 slack
        Gk, Ck = G[live][:, owner == k], C[:, owner == k]
        if lp.support_count(*Gk.shape) > lp.SUPPORT_LIMIT:
            out[:, k] = [lp.maximize_dual_highs(Gk, h, c) for c in Ck]
            continue
        if k not in u._supports:
            u._supports[k] = lp.DualSupports(Gk, h)
        out[:, k] = u._supports[k].maximize(Ck)
    return out


def penalty_vertices(u: DualFiniteUtility, a: DensityProcess) -> ConditionalValue:
    """``penalty`` by its primal oracle: one LP per atom in a box of half-width
    1e6 * max(1, ``gamma_norm``), solved by vertex enumeration, with the box
    growing while the optimum escapes it and -inf where it keeps escaping."""
    _check_priceable(u)
    space = u.space
    t, T = u.t_start, u.t_end
    a._span(t, T, space)  # the window rule, before any LP
    bound = 1e6 * max(1.0, u.gamma_norm())

    out = np.empty(space.n_atoms(t))
    for k, atom in enumerate(space.atoms(t)):
        variables = []  # (time, tuple of outcome indices inside this atom)
        inside = set(atom)
        for s in range(t, T + 1):
            for sub in space.atoms(s):
                if sub[0] in inside:
                    variables.append((s, sub))
        p_atom = space.probs[list(atom)].sum()

        def coeffs(dens: DensityProcess) -> np.ndarray:
            c = np.empty(len(variables))
            for v, (s, sub) in enumerate(variables):
                idx = list(sub)
                c[v] = float(space.probs[idx] @ dens.slice_at(s)[idx]) / p_atom
            return c

        c = coeffs(a)
        G, h = [], []
        for a_i, g_i in u.scenarios:
            rhs = g_i.values[k]
            if np.isneginf(rhs):
                continue
            G.append(coeffs(a_i))
            h.append(rhs)
        val, _ = lp.minimize_with_escalation(c, np.array(G), np.array(h), bound)
        if np.isfinite(val) and val > 1e-7 * max(1.0, bound / 1e6):
            raise RuntimeError(
                f"penalty came out positive ({val:.3g}) on atom {atom}; zero must be feasible"
            )
        out[k] = val
    return ConditionalValue(space, t, out)


def argmax_density(u: DualFiniteUtility, X: AdaptedProcess) -> tuple[DensityProcess, ConditionalValue, bool]:
    """Scenario density attaining the insurance value, glued across atoms.

    Per window-start atom the best scenario is selected (first index on
    ties) and the increments are mixed by indicators; the glued density
    stays normalized because the mixing events are measurable at the start.
    """
    value = u.insurance(X)
    # insurance is the reflected min, so the first minimizer of the reflected
    # table is the first maximizer of pairing + gamma
    best = u._penalised(u._features(u._window(-X))).argmin(axis=0)

    t, T = u.t_start, u.t_end
    outcomes = np.arange(u.space.n_outcomes)
    choice = best[u.space.atom_index(t)]
    a_star = DensityProcess(u.space, t, u._increments[choice, :, outcomes].T)
    glued_gamma = u._gamma[best, np.arange(best.size)]

    check = ConditionalValue(u.space, t, pairing(X, a_star, t, T).values + glued_gamma)
    if check.max_residual(value) > 1e-9:
        raise RuntimeError("glued density does not reproduce the insurance value")
    attained = any(float(np.abs(a_star.values - inc).max()) <= DEFAULT_TOL for inc in u._increments)
    return a_star, value, attained


@dataclass
class AxiomResult:
    passed: bool | None
    samples: int = 0
    counterexample: str | None = None
    note: str | None = None


@dataclass
class AxiomReport:
    seed: int
    results: dict[str, AxiomResult] = field(default_factory=dict)


def _sample_events(space: FiniteFilteredSpace, t: int, rng) -> list[np.ndarray]:
    if space.n_atoms(t) <= 8:
        return enumerate_events(space, t)
    return [(rng.random(space.n_atoms(t)) < 0.5)[space.atom_index(t)] for _ in range(32)]


def _first_failure(ok: np.ndarray, describe: Callable[[int], str]) -> AxiomResult:
    """The result of a sweep whose samples, in sampling order, pass where
    ``ok`` is set, so a NaN residual, compared into ``ok``, fails: as a loop
    that stops at the first failure, it counts the samples up to that one
    and describes it."""
    hit = np.flatnonzero(~ok)
    if not hit.size:
        return AxiomResult(True, ok.size)
    return AxiomResult(False, int(hit[0]) + 1, describe(int(hit[0])))


def check_axioms(
    u: UtilityBase,
    sample_count: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> AxiomReport:
    """Sampled verification of the utility axioms on the unit's window.

    Locality, monotonicity, cash invariance, concavity and coherence are
    tested on seeded random positions; relevance on every atom at every time
    with a small grid of loss sizes.  Continuity for bounded decreasing
    sequences holds vacuously on a finite space and is reported untested.
    Each sweep draws its samples in a sample-by-sample loop's order and
    evaluates their stack through the family kernel.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    space, t, T = u.space, u.t_start, u.t_end
    lift = space.atom_index(t)
    report = AxiomReport(seed=seed)

    def adapted() -> np.ndarray:
        return np.stack([random_adapted(space, t, T, rng).values for _ in range(sample_count)])

    phi = u._stacked
    xs = adapted()
    base = phi(xs)

    # (0) locality over window-start events
    gaps, sizes = [], []
    firsts = [atom[0] for atom in space.atoms(t)]
    for x, b in zip(xs, base):
        masks = np.array(_sample_events(space, t, rng))
        gaps.append(np.abs(phi(x * masks[:, None, :]) - np.where(masks[:, firsts], b, 0.0)).max(axis=-1))
        sizes.append(masks.sum(axis=-1))
    gaps, sizes = np.concatenate(gaps), np.concatenate(sizes)
    report.results["locality"] = _first_failure(
        gaps <= tol, lambda k: f"event of size {int(sizes[k])}, residual {gaps[k]:.3g}"
    )

    # (1) monotonicity
    mono = (base - phi(xs + np.abs(adapted()))).max(axis=-1)
    report.results["monotonicity"] = _first_failure(
        mono <= tol, lambda k: f"phi(X) exceeds phi(Y) by {mono[k]:.3g} despite X <= Y"
    )

    # (2) cash invariance with measurable shifts
    m = np.stack([random_conditional(space, t, rng, -2.0, 2.0).values for _ in xs])
    shift = np.abs(phi(xs + m.take(lift, axis=-1)[:, None, :]) - (base + m)).max(axis=-1)
    report.results["cash_invariance"] = _first_failure(shift <= tol, lambda k: f"shift residual {shift[k]:.3g}")

    # (3) concavity with measurable weights
    draws = [(random_adapted(space, t, T, rng).values, random_conditional(space, t, rng, 0.0, 1.0).values) for _ in xs]
    ys, lam = np.stack([y for y, _ in draws]), np.stack([w for _, w in draws])
    mix = xs * lam.take(lift, axis=-1)[:, None, :] + ys * (1.0 - lam).take(lift, axis=-1)[:, None, :]
    concave = (lam * base + (1.0 - lam) * phi(ys) - phi(mix)).max(axis=-1)
    report.results["concavity"] = _first_failure(
        concave <= tol, lambda k: f"concavity violated by {concave[k]:.3g}"
    )

    # (4) coherence: positive homogeneity with measurable factors, three per position
    n = space.n_atoms(t)
    lams = np.stack([(np.full(n, 2.0), np.full(n, 0.5), random_conditional(space, t, rng, 0.0, 3.0).values) for _ in xs])
    homog = np.abs(phi(xs[:, None] * lams.take(lift, axis=-1)[:, :, None, :]) - lams * base[:, None]).max(axis=-1)
    homog, lams = homog.ravel(), lams.reshape(-1, n)
    report.results["coherence"] = _first_failure(
        homog <= tol, lambda k: f"scaling by {np.array2string(lams[k], precision=3)} moves the value by {homog[k]:.3g}"
    )

    # (5) continuity: nothing to test on a finite space
    report.results["continuity"] = AxiomResult(None, note="vacuous on finite spaces")

    # (6) relevance: losses on any atom at any time must register
    report.results["relevance"] = _check_relevance(u)
    return report


def _check_relevance(u: UtilityBase) -> AxiomResult:
    """Relevance: a loss on any atom at any time of the window must be priced
    below zero there; every atom and loss size is tried, with no sampling,
    in one kernel call over every (time, atom, loss) case."""
    space, t, T = u.space, u.t_start, u.t_end
    cases = [(s, atom, eps) for s in range(t, T + 1) for atom in space.atoms(s) for eps in RELEVANCE_LOSSES]
    masks = np.zeros((len(cases), space.n_outcomes), dtype=bool)
    vals = np.zeros((len(cases), T - t + 1, space.n_outcomes))
    for c, (s, atom, eps) in enumerate(cases):
        masks[c, list(atom)] = True
        vals[c, s - t :] = -eps * masks[c]
    lifted = u._stacked(vals).take(space.atom_index(t), axis=-1)
    return _first_failure(
        np.all((lifted < 0) | ~masks, axis=-1),
        lambda k: "loss of {2} on atom {1} at t={0} not priced below zero".format(*cases[k]),
    )


class UtilityProcess:
    """One utility per stage t in [start, T], all ending at the same horizon."""

    def __init__(self, stages: dict[int, UtilityBase]):
        if not stages:
            raise ValueError("empty utility process")
        times = sorted(stages)
        first = stages[times[0]]
        self.space = first.space
        self.t_end = first.t_end
        for t in times:
            st = stages[t]
            if st.space is not self.space or st.t_start != t or st.t_end != self.t_end:
                raise ValueError(f"stage {t} has window {st.window}, expected ({t}, {self.t_end})")
        if times != list(range(times[0], times[-1] + 1)):
            raise ValueError("stages must cover a contiguous range")
        if times[-1] != self.t_end:
            raise ValueError("the last stage must sit at the common horizon")
        self.t_start = times[0]
        self.stages = dict(stages)

    def stage(self, t: int) -> UtilityBase:
        return self.stages[t]

    def _positions(self, samples: Sequence[AdaptedProcess], t0: int) -> np.ndarray:
        """(S, L, M) slices of the positions on [t0, horizon]."""
        rows = [X.values[X._span(t0, self.t_end, self.space)] for X in samples]
        return np.array(rows).reshape(len(rows), self.t_end - t0 + 1, self.space.n_outcomes)

    def _glue(self, thetas: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """phi_theta(X) = sum over t of 1_{theta=t} phi_t(X), the definition, and each
        stage's direct value phi_t(X): one kernel call per stage on the samples, whose
        values, lifted to outcomes, give each stopping time's row on its level sets.
        (K, M) stopping values x (S, L, M) slices on the last L times -> (K, S, M), and
        per t in turn (S, atoms)."""
        t0 = self.t_end + 1 - xs.shape[1]
        direct = [self.stage(t)._stacked(xs[:, t - t0 :]) for t in range(t0, self.t_end + 1)]
        lifted = np.stack([d.take(self.space._atom_index[t], axis=-1) for t, d in enumerate(direct, t0)])
        return np.take_along_axis(lifted, (thetas - t0)[:, None, :], axis=0), direct

    def _fold(self, t: int, thetas: np.ndarray, xs: np.ndarray, glued: np.ndarray) -> np.ndarray:
        """phi_t of each position frozen at theta and continued by its glued
        value: (K, M), (S, L, M) slices on [t, horizon], (K, S, M) -> (K, S, atoms)."""
        srange = np.arange(t, self.t_end + 1)[:, None]
        return self.stage(t)._stacked(np.where(srange < thetas[:, None, None, :], xs, glued[:, :, None, :]))

    def evaluate_at_stopping(self, theta: StoppingTime, X: AdaptedProcess) -> np.ndarray:
        """Outcome-indexed value of the stage picked by the stopping time."""
        _same_space(self.space, theta)
        if theta.min_value() < self.t_start or theta.max_value() > self.t_end:
            raise ValueError("stopping time leaves the stage range")
        return self._glue(theta.values[None], self._positions([X], theta.min_value()))[0][0, 0]

    def consistency_residual(self, t: int, theta: StoppingTime, X: AdaptedProcess) -> float:
        """Gap in the one-step dynamic-programming identity at (t, theta)."""
        xs = self._positions([X], t)
        lhs = self._fold(t, theta.values[None], xs, self.evaluate_at_stopping(theta, X)[None, None])
        return float(np.abs(lhs - self.stage(t)._stacked(xs)).max())


@dataclass
class ConsistencyReport:
    passed: bool
    max_residual: float
    checked: int
    failures: list[str]
    stopping_times: str


def time_consistency_check(
    up: UtilityProcess,
    samples: Sequence[AdaptedProcess] | None = None,
    sample_count: int = 5,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ConsistencyReport:
    """Test the recursion phi_t(X) = phi_t(X before theta, then phi_theta(X)).

    Stopping times are enumerated exhaustively on small spaces, otherwise the
    deterministic ones are used; the report also confirms that the glued
    stopping-time evaluation collapses to the stage value at deterministic
    times.  Every (stopping time, sample) pair is checked at once, and each
    stage's kernel runs twice: on the samples, for the direct values phi_t(X)
    that the glue gathers, then in the fold.
    """
    space = up.space
    if samples is None:
        if sample_count < 1:
            raise ValueError(f"sample_count must be at least 1, got {sample_count}")
        rng = np.random.default_rng(seed)
        samples = [random_adapted(space, up.t_start, up.t_end, rng) for _ in range(sample_count)]
    if not len(samples):
        raise ValueError("samples must not be empty")
    # on exhaustive spaces the rows with min >= t are every stopping time from t, in order
    thetas, mode = _times_to_check(space, up.t_start, up.t_end)
    # each stage's direct values, glued along the level sets, then one fold per stage
    xs = up._positions(samples, up.t_start)
    glued, direct = up._glue(thetas, xs)
    first = thetas.min(axis=1)

    worst = 0.0
    checked = 0
    failures: list[str] = []
    for t, rhs in enumerate(direct, up.t_start):
        sel = first >= t
        res = np.abs(up._fold(t, thetas[sel], xs[:, t - up.t_start:], glued[sel]) - rhs).max(axis=-1)
        worst, bad = _residuals(worst, res, tol)
        checked += res.size
        for k, idx in bad:
            failures.append(f"t={t}, theta={thetas[sel][k].tolist()}, sample {idx}: residual {res[k, idx]:.3g}")
    # stage collapse at deterministic times: the constant rows of thetas, in time order,
    # each against the direct value at its own time, lifted from the pair _glue returned,
    # so a gather that picks the wrong rows or outcomes fails here
    const = np.flatnonzero(first == thetas.max(axis=1))
    const = const[np.argsort(thetas[const, 0], kind="stable")]
    taus = thetas[const, 0]
    lifted = np.array([d.take(space._atom_index[t], axis=-1) for t, d in enumerate(direct, up.t_start)])
    res = np.abs(glued[const] - lifted[taus - up.t_start]).max(axis=-1)
    worst, bad = _residuals(worst, res, tol)
    checked += res.size
    for k, idx in bad:
        failures.append(f"deterministic tau={taus[k]}, sample {idx}: glue residual {res[k, idx]:.3g}")
    return ConsistencyReport(not failures, worst, checked, failures, mode)


def _residuals(worst: float, res: np.ndarray, tol: float):
    """The running max residual with ``res`` folded in, and the indices of
    the entries of ``res`` above ``tol``.  A NaN entry counts as above
    ``tol``, and once met, NaN stays the max."""
    m = float(res.max(initial=0.0))  # NaN when any entry is NaN
    worst = m if m > worst or math.isnan(m) else worst
    return worst, (() if m <= tol else np.argwhere(~(res <= tol)))


def entropic_process(space: FiniteFilteredSpace, alpha: float, start: int = 0) -> UtilityProcess:
    return UtilityProcess({t: EntropicUtility(space, alpha, t) for t in range(start, space.horizon + 1)})


def robust_entropic_process(
    space: FiniteFilteredSpace, alpha: float, densities: Sequence[TerminalDensity], start: int = 0
) -> UtilityProcess:
    return UtilityProcess(
        {t: RobustEntropicUtility(space, alpha, densities, t) for t in range(start, space.horizon + 1)}
    )


def normalize_to_window(a: DensityProcess, t: int) -> DensityProcess:
    """Rescale the tail of a so its conditional mass on [t, a.t_end] is one."""
    mass = remaining_mass(a, t)
    if np.any(mass.values <= 1e-12):
        raise ValueError(f"no remaining mass on some atom at t={t}; cannot normalize")
    incs = np.stack([a.slice_at(s) for s in range(t, a.t_end + 1)]) / mass.lift()[None, :]
    return DensityProcess(a.space, t, incs)


def normalized_scenario_process(space: FiniteFilteredSpace, a: DensityProcess, start: int = 0) -> UtilityProcess:
    """Coherent single-scenario stages phi_t(X) = pairing(X, a)/mass on [t, T].

    The driving density must keep strictly positive conditional mass at every
    stage (guaranteed on the strictly-positive-tail class).
    """
    stages: dict[int, UtilityBase] = {}
    for t in range(start, a.t_end + 1):
        scen = normalize_to_window(a, t)
        zero = ConditionalValue.constant(space, t, 0.0)
        stages[t] = DualFiniteUtility(space, t, a.t_end, [(scen, zero)])
    return UtilityProcess(stages)


@dataclass
class PenaltyConsistencyReport:
    residuals: list[tuple[int, np.ndarray]]  # (scenario index at stage t, per-atom gap LHS-RHS)
    max_abs_residual: float


def penalty_consistency_check(up: UtilityProcess, t: int, s: int) -> PenaltyConsistencyReport:
    """Compare the stage-t penalty with its splice-and-condition decomposition.

    For every scenario a at stage t, evaluates the stage-t penalty of a
    against the best splice of a with a stage-s scenario at theta = s, plus
    the conditioned stage-s penalty of a's tail.  Residuals are reported,
    not asserted.
    """
    if not (up.t_start <= t <= s <= up.t_end):
        raise ValueError("need start <= t <= s <= horizon")
    ut = up.stage(t)
    us = up.stage(s)
    if not isinstance(ut, DualFiniteUtility) or not isinstance(us, DualFiniteUtility):
        raise TypeError("penalty decomposition needs finite scenario sets at both stages")
    space = up.space
    theta = StoppingTime.constant(space, s)
    omega = np.ones(space.n_outcomes, dtype=bool)

    # both stages' scenarios on [t, T]: stage t's window stack, and stage s's
    # padded with zero increments before s
    pad = np.zeros((len(us.scenarios), s - t, space.n_outcomes))
    lefts = [DensityProcess._wrap(space, t, inc) for inc in ut._increments]
    rights = [DensityProcess._wrap(space, t, inc) for inc in np.concatenate([pad, us._increments], axis=1)]
    priced = _penalties(ut, lefts + [concatenate(a, b, theta, omega) for a in lefts for b in rights])
    spliced = priced[len(lefts) :].reshape(len(lefts), len(rights), -1)
    tails = _penalties(us, [a.restrict(s) for a in lefts])

    rows = []
    worst = 0.0
    for i, lhs in enumerate(priced[: len(lefts)]):
        rhs = spliced[i].max(axis=0) + cond_expect(space, ConditionalValue(space, s, tails[i]).lift(), t).values
        with np.errstate(invalid="ignore"):  # -inf - -inf, where the gap is set to 0
            gap = np.where(np.isneginf(lhs) & np.isneginf(rhs), 0.0, lhs - rhs)
        rows.append((i, gap))
        finite = gap[np.isfinite(gap)]
        if finite.size:
            worst = max(worst, float(np.abs(finite).max()))
        if np.any(~np.isfinite(gap)):
            worst = float("inf")
    return PenaltyConsistencyReport(rows, worst)
