"""One evaluation kernel per utility family.

``_features`` then ``_combine`` on a stack of positions must give the bits of
one ``evaluate`` per position, ``insurance`` must be the reflected
``evaluate``, and the worst-portfolio scan, which combines averaged member
features, must report values that the insurance of the reported tuple
reproduces.  The time-consistency check, which stacks every (stopping time,
sample) pair, must report what one check at a time reports.
"""

import numpy as np
import pytest

from dynrisk import (
    AdaptedProcess,
    EntropicUtility,
    Portfolio,
    RobustEntropicUtility,
    StoppingTime,
    UtilityProcess,
    entropic_process,
    enumerate_class,
    enumerate_stopping_times,
    normalized_scenario_process,
    robust_entropic_process,
    time_consistency_check,
    worst_portfolio_bruteforce,
)
from dynrisk.random_gen import (
    random_adapted,
    random_coherent_utility,
    random_density,
    random_dual_utility,
    random_space,
    random_terminal_density,
)

FAMILIES = ("dual", "coherent", "entropic", "robust")


def make_utility(family, space, t0, g):
    if family == "dual":
        return random_dual_utility(space, t0, space.horizon, g, n_scenarios=int(g.integers(1, 4)))
    if family == "coherent":
        return random_coherent_utility(space, t0, space.horizon, g, n_scenarios=int(g.integers(1, 4)))
    alpha = float(g.choice([0.3, 1.0, 2.5]))
    if family == "entropic":
        return EntropicUtility(space, alpha, t0)
    dens = [random_terminal_density(space, g) for _ in range(int(g.integers(1, 4)))]
    return RobustEntropicUtility(space, alpha, dens, t0)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_kernel_matches_evaluate_bitwise(family):
    for seed in range(40):
        g = np.random.default_rng([7, seed])
        sp = random_space(g, max_outcomes=8, max_horizon=3, uniform=bool(g.random() < 0.5))
        t0 = int(g.integers(0, sp.horizon + 1))
        u = make_utility(family, sp, t0, g)
        positions = [random_adapted(sp, 0, sp.horizon, g, scale=3.0) for _ in range(int(g.integers(1, 9)))]
        stack = np.stack([X.values[t0:] for X in positions])
        batched = u._combine(u._features(stack))
        rows = np.stack([u.evaluate(X).values for X in positions])
        assert batched.shape == rows.shape
        assert np.array_equal(bits(batched), bits(rows)), f"seed {seed}"


@pytest.mark.parametrize("family", FAMILIES)
def test_insurance_is_reflected_evaluate_bitwise(family):
    for seed in range(40):
        g = np.random.default_rng([8, seed])
        sp = random_space(g, max_outcomes=8, max_horizon=3)
        u = make_utility(family, sp, int(g.integers(0, sp.horizon + 1)), g)
        X = random_adapted(sp, 0, sp.horizon, g, scale=3.0)
        assert np.array_equal(bits(u.insurance(X).values), bits(-u.evaluate(-X).values)), f"seed {seed}"


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_position_insures_to_positive_zero(family):
    """Reports print -0.0 as "-0"; the zero position is worth +0.0, in
    evaluate, insurance and the scan alike."""
    g = np.random.default_rng(10)
    sp = random_space(g, max_outcomes=6, max_horizon=2)
    u = make_utility(family, sp, int(g.integers(0, sp.horizon + 1)), g)
    zero = AdaptedProcess.zero(sp, 0, sp.horizon)
    assert np.array_equal(bits(u.evaluate(zero).values), bits(np.zeros(sp.n_atoms(u.t_start))))
    assert np.array_equal(bits(u.insurance(zero).values), bits(np.zeros(sp.n_atoms(u.t_start))))
    scan = worst_portfolio_bruteforce(Portfolio([zero.restrict(u.t_start)] * 2), u)
    assert np.array_equal(bits(scan.sup_value.values), bits(np.zeros(sp.n_atoms(u.t_start))))


@pytest.mark.parametrize("family", ("dual", "entropic", "robust"))
def test_scan_sup_is_the_insurance_of_its_argmax_tuple(family):
    """Entropic scans combine the exact tuple mean, so the sup is reproduced
    bit for bit; dual scans average pairings rather than pairing the mean,
    so they agree within the scan's own tolerance."""
    scans = 0
    seed = 0
    while scans < 100:
        g = np.random.default_rng([9, seed])
        seed += 1
        sp = random_space(g, max_outcomes=6, max_horizon=2, uniform=bool(g.random() < 0.7))
        members = [random_adapted(sp, 0, sp.horizon, g) for _ in range(int(g.integers(1, 4)))]
        if np.prod([enumerate_class(X).size for X in members]) > 5000:
            continue
        scans += 1
        u = make_utility(family, sp, 0, g)
        res = worst_portfolio_bruteforce(Portfolio(members), u)
        sup = res.sup_value.values
        for k, flat in enumerate(res.per_atom_argmax):
            got = u.insurance(res.tuple_at(flat).mean()).values[k]
            if family == "dual":
                assert abs(got - sup[k]) <= 1e-12 * max(1.0, abs(sup[k])), f"seed {seed - 1}, atom {k}"
            else:
                assert got == sup[k], f"seed {seed - 1}, atom {k}: {got!r} != {sup[k]!r}"


def oracle_consistency(up, samples, tol):
    """time_consistency_check one (t, theta, sample) at a time, through
    public constructors and one stage ``evaluate`` per folded position."""
    sp = up.space

    def glue(theta, X):
        out = np.zeros(sp.n_outcomes)
        for s in range(theta.min_value(), theta.max_value() + 1):
            level = theta.values == s
            if level.any():
                piece = AdaptedProcess(sp, s, X.values[s - X.t_start :] * level)
                out[level] = up.stage(s).evaluate(piece).lift()[level]
        return out

    worst, checked, failures, glued = 0.0, 0, [], {}
    for t in range(up.t_start, up.t_end + 1):
        for theta in enumerate_stopping_times(sp, t_low=t):
            if theta.max_value() > up.t_end:
                continue
            for idx, X in enumerate(samples):
                key = (theta.values.tobytes(), idx)
                if key not in glued:
                    glued[key] = glue(theta, X)
                srange = np.arange(t, up.t_end + 1)[:, None]
                folded = np.where(srange < theta.values, X.values[t - X.t_start :], glued[key])
                lhs = up.stage(t).evaluate(AdaptedProcess(sp, t, folded))
                res = lhs.max_residual(up.stage(t).evaluate(X.restrict(t)))
                worst, checked = max(worst, res), checked + 1
                if res > tol:
                    failures.append(f"t={t}, theta={theta.values.tolist()}, sample {idx}: residual {res:.3g}")
    for s in range(up.t_start, up.t_end + 1):
        for idx, X in enumerate(samples):
            direct = up.stage(s).evaluate(X.restrict(s)).lift()
            res = float(np.abs(glue(StoppingTime.constant(sp, s), X) - direct).max())
            worst, checked = max(worst, res), checked + 1
            if res > tol:
                failures.append(f"deterministic tau={s}, sample {idx}: glue residual {res:.3g}")
    return worst, checked, failures, glued


def make_process(kind, sp, g):
    alpha = float(g.choice([0.5, 1.0, 2.0]))
    if kind == "entropic":
        return entropic_process(sp, alpha, int(g.integers(0, sp.horizon + 1)))
    if kind == "robust":
        return robust_entropic_process(sp, alpha, [random_terminal_density(sp, g) for _ in range(int(g.integers(1, 4)))])
    if kind == "normalized":
        return normalized_scenario_process(sp, random_density(sp, 0, sp.horizon, g, strict=True))
    return UtilityProcess({t: EntropicUtility(sp, alpha * 3.0**t, t) for t in range(sp.horizon + 1)})


@pytest.mark.parametrize("kind", ("entropic", "robust", "normalized", "mixed-alpha"))
def test_stacked_recursion_matches_per_check_oracle(kind):
    failing = 0
    for seed in range(20):
        g = np.random.default_rng([11, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        up = make_process(kind, sp, g)
        samples = [random_adapted(sp, up.t_start, up.t_end, g, scale=2.0) for _ in range(2)]
        rep = time_consistency_check(up, samples=samples, tol=1e-9)
        worst, checked, failures, glued = oracle_consistency(up, samples, 1e-9)
        assert rep.stopping_times == "all"
        assert bits(rep.max_residual) == bits(worst), f"seed {seed}"
        assert (rep.checked, rep.failures) == (checked, failures), f"seed {seed}"
        failing += bool(failures)
        for theta in enumerate_stopping_times(sp, t_low=up.t_start):
            if theta.max_value() <= up.t_end:
                for idx, X in enumerate(samples):
                    got = up.evaluate_at_stopping(theta, X)
                    assert np.array_equal(bits(got), bits(glued[theta.values.tobytes(), idx])), f"seed {seed}"
    if kind == "mixed-alpha":
        # on one-step trees the last stage is X_T itself, so only deeper trees fail
        assert failing >= 5, "the failing reports' lists were not compared"
