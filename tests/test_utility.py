import re

import numpy as np
import pytest

from dynrisk import (
    AdaptedProcess,
    ConditionalValue,
    DensityProcess,
    DualFiniteUtility,
    EntropicUtility,
    RobustEntropicUtility,
    StoppingTime,
    TerminalDensity,
    UtilityProcess,
    argmax_density,
    check_axioms,
    cond_expect,
    dyadic_uniform,
    entropic_process,
    normalize_to_window,
    normalized_scenario_process,
    pairing,
    penalty,
    penalty_consistency_check,
    penalty_vertices,
    robust_entropic_process,
    time_consistency_check,
)
from dynrisk.random_gen import random_adapted, random_density, random_space
from dynrisk import lp, utility
from dynrisk.utility import AXIOMS
from conftest import uniform_density

NEG_INF = float("-inf")


def zero_gamma(space, t):
    return ConditionalValue.constant(space, t, 0.0)


def coherent_two_scenario(space):
    g = np.random.default_rng(21)
    a1 = random_density(space, 0, space.horizon, g, strict=True)
    a2 = random_density(space, 0, space.horizon, g, strict=True)
    return DualFiniteUtility(
        space, 0, space.horizon, [(a1, zero_gamma(space, 0)), (a2, zero_gamma(space, 0))]
    )


class TestDualFiniteUtility:
    def test_min_over_scenarios(self, four_tree):
        u = coherent_two_scenario(four_tree)
        g = np.random.default_rng(22)
        X = random_adapted(four_tree, 0, 2, g)
        pair = np.stack([pairing(X, a, 0).values for a, _ in u.scenarios])
        assert u.evaluate(X).values[0] == pytest.approx(pair.min(axis=0)[0])

    def test_insurance_is_reflected_evaluate(self, four_tree):
        u = coherent_two_scenario(four_tree)
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(23))
        direct = u.insurance(X)
        reflected = ConditionalValue(four_tree, 0, -u.evaluate(-X).values)
        assert direct.max_residual(reflected) <= 1e-12

    def test_positive_gamma_rejected(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.0, 1.0]])
        bad = ConditionalValue.constant(two_uniform, 0, 0.5)
        with pytest.raises(ValueError, match="positive"):
            DualFiniteUtility(two_uniform, 0, 1, [(a, bad)])

    def test_unnormalized_gamma_family_rejected(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.0, 1.0]])
        b = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.2, 0.8]])
        g1 = ConditionalValue.constant(two_uniform, 0, -0.5)
        g2 = ConditionalValue.constant(two_uniform, 0, -1.0)
        with pytest.raises(ValueError, match="normalized"):
            DualFiniteUtility(two_uniform, 0, 1, [(a, g1), (b, g2)])

    def test_non_density_scenario_rejected(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.0, 0.5]])
        with pytest.raises(ValueError, match="density"):
            DualFiniteUtility(two_uniform, 0, 1, [(a, zero_gamma(two_uniform, 0))])

    def test_coherent_flag_and_gamma_norm(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.0, 1.0]])
        b = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.2, 0.8]])
        u = DualFiniteUtility(two_uniform, 0, 1, [(a, zero_gamma(two_uniform, 0))])
        assert u.coherent and u.gamma_norm() == 0.0
        g2 = ConditionalValue.constant(two_uniform, 0, -0.7)
        v = DualFiniteUtility(two_uniform, 0, 1, [(a, zero_gamma(two_uniform, 0)), (b, g2)])
        assert not v.coherent
        assert v.gamma_norm() == pytest.approx(0.7)

    def test_neg_inf_gamma_drops_scenario(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.0, 1.0]])
        b = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.8, 0.2]])
        dead = ConditionalValue(two_uniform, 0, [NEG_INF])
        u = DualFiniteUtility(two_uniform, 0, 1, [(a, zero_gamma(two_uniform, 0)), (b, dead)])
        X = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [-3.0, 5.0]])
        only_a = pairing(X, a, 0).values[0]
        assert u.evaluate(X).values[0] == pytest.approx(only_a)

    def test_penalty_on_another_space_or_time_rejected(self, four_tree):
        a = uniform_density(four_tree, 0, 2)
        foreign = zero_gamma(dyadic_uniform(2), 0)
        with pytest.raises(ValueError, match="scenario 0 penalty lives on a different space"):
            DualFiniteUtility(four_tree, 0, 2, [(a, foreign)])
        late = ConditionalValue.constant(four_tree, 1, 0.0)
        with pytest.raises(ValueError, match="scenario 0 penalty must live at t=0"):
            DualFiniteUtility(four_tree, 0, 2, [(a, late)])


class TestEntropic:
    def test_two_point_value(self, two_uniform):
        u = EntropicUtility(two_uniform, 1.0, 0)
        X = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [0.0, -np.log(3.0)]])
        assert u.evaluate(X).values[0] == pytest.approx(-np.log(2.0))

    def test_small_alpha_approaches_mean(self, four_tree):
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(24))
        u = EntropicUtility(four_tree, 1e-6, 0)
        mean = cond_expect(four_tree, X.slice_at(2), 0).values
        assert np.abs(u.evaluate(X).values - mean).max() <= 1e-5

    def test_large_alpha_approaches_min(self, four_tree):
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(25))
        u = EntropicUtility(four_tree, 200.0, 0)
        worst = X.slice_at(2).min()
        val = u.evaluate(X).values[0]
        assert worst - 1e-9 <= val <= worst + np.log(4.0) / 200.0 + 1e-9

    def test_decreasing_in_alpha(self, four_tree):
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(26))
        vals = [EntropicUtility(four_tree, al, 0).evaluate(X).values[0] for al in (0.5, 1.0, 2.0, 4.0)]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))

    def test_rejects_bad_alpha(self, four_tree):
        with pytest.raises(ValueError):
            EntropicUtility(four_tree, 0.0, 0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rejects_non_finite_alpha(self, four_tree, alpha):
        with pytest.raises(ValueError, match="positive and finite"):
            EntropicUtility(four_tree, alpha, 0)

    def test_robust_single_uniform_matches_plain(self, four_tree):
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(27))
        flat = TerminalDensity(four_tree, np.ones(4))
        r = RobustEntropicUtility(four_tree, 1.5, [flat], 0)
        p = EntropicUtility(four_tree, 1.5, 0)
        assert r.evaluate(X).max_residual(p.evaluate(X)) <= 1e-12

    def test_robust_is_min_over_family(self, four_tree):
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(28))
        f = TerminalDensity.normalized(four_tree, [1.6, 0.8, 0.8, 0.8])
        g = TerminalDensity.normalized(four_tree, [0.5, 1.5, 1.0, 1.0])
        fam = RobustEntropicUtility(four_tree, 1.0, [f, g], 1)
        singles = [RobustEntropicUtility(four_tree, 1.0, [d], 1).evaluate(X).values for d in (f, g)]
        assert np.abs(fam.evaluate(X).values - np.minimum(*singles)).max() <= 1e-12

    @pytest.mark.parametrize("horizon", [2, 3], ids=["same-shape", "other-shape"])
    def test_robust_rejects_density_on_another_space(self, four_tree, horizon):
        other = dyadic_uniform(horizon)
        f = TerminalDensity(other, np.ones(other.n_outcomes))
        with pytest.raises(ValueError, match="terminal density lives on a different space"):
            RobustEntropicUtility(four_tree, 1.0, [f], 0)
        with pytest.raises(ValueError, match="terminal density lives on a different space"):
            robust_entropic_process(four_tree, 1.0, [TerminalDensity(four_tree, np.ones(4)), f])


class TestPenalty:
    def test_zero_at_generators(self, four_tree):
        u = coherent_two_scenario(four_tree)
        for a, _ in u.scenarios:
            vals = penalty(u, a).values
            assert np.abs(vals).max() <= 1e-7

    def test_single_scenario_offset(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.2, 0.8]])
        u = DualFiniteUtility(two_uniform, 0, 1, [(a, zero_gamma(two_uniform, 0))])
        u._gamma[:] = -0.7  # not normalized, which the constructor refuses
        assert penalty(u, a).values[0] == pytest.approx(-0.7, abs=1e-7)

    def test_unbounded_direction_is_minus_inf(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.0, 1.0]])
        u = DualFiniteUtility(two_uniform, 0, 1, [(a, zero_gamma(two_uniform, 0))])
        b = DensityProcess(two_uniform, 0, [[0.0, 0.0], [2.0, 0.0]])
        assert penalty(u, b).values[0] == NEG_INF

    def test_solver_routes_agree(self, four_tree):
        u = coherent_two_scenario(four_tree)
        g = np.random.default_rng(29)
        b = random_density(four_tree, 0, 2, g, strict=True)
        hi = penalty(u, b).values
        lo = penalty_vertices(u, b).values
        with np.errstate(invalid="ignore"):
            close = np.abs(hi - lo) <= 1e-7
        assert np.all((np.isneginf(hi) & np.isneginf(lo)) | close)

    def test_dominated_mixture_has_zero_penalty(self, four_tree):
        # a convex combination of generators is priced like a generator
        u = coherent_two_scenario(four_tree)
        (a1, _), (a2, _) = u.scenarios
        mix = DensityProcess(four_tree, 0, 0.25 * a1.values + 0.75 * a2.values)
        assert np.abs(penalty(u, mix).values).max() <= 1e-7

    def test_requires_dual_form(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        a = uniform_density(four_tree, 0, 2)
        for price in (penalty, penalty_vertices):
            with pytest.raises(TypeError, match="explicit finite scenario set"):
                price(u, a)

    @pytest.mark.parametrize("price", [penalty, penalty_vertices], ids=["penalty", "penalty_vertices"])
    def test_density_must_cover_the_window(self, four_tree, price):
        u = coherent_two_scenario(four_tree)
        with pytest.raises(ValueError, match=r"density window \(1, 2\) does not cover \(0, 2\)"):
            price(u, uniform_density(four_tree, 1, 2))


class TestArgmaxDensity:
    def test_reproduces_insurance_value(self, four_tree):
        u = coherent_two_scenario(four_tree)
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(30))
        a_star, value, attained = argmax_density(u, X)
        assert attained
        assert value.max_residual(u.insurance(X)) <= 1e-12
        recomputed = pairing(X, a_star, 0)
        assert recomputed.max_residual(value) <= 1e-9

    def test_glues_across_atoms(self, four_tree):
        # scenarios tuned so each time-1 atom prefers a different density
        up_heavy = DensityProcess(four_tree, 0, [[0, 0, 0, 0], [0.9, 0.9, 0.1, 0.1], [0.1, 0.1, 0.9, 0.9]])
        down_heavy = DensityProcess(four_tree, 0, [[0, 0, 0, 0], [0.1, 0.1, 0.9, 0.9], [0.9, 0.9, 0.1, 0.1]])
        u = DualFiniteUtility(
            four_tree, 1, 2, [(up_heavy, zero_gamma(four_tree, 1)), (down_heavy, zero_gamma(four_tree, 1))]
        )
        X = AdaptedProcess(four_tree, 1, [[5.0, 5.0, 5.0, 5.0], [0.0, 0.0, 0.0, 0.0]])
        a_star, value, attained = argmax_density(u, X)
        assert not attained  # the glue mixes the two generators
        assert np.array_equal(a_star.slice_at(1)[:2], up_heavy.slice_at(1)[:2])
        assert np.array_equal(a_star.slice_at(1)[2:], down_heavy.slice_at(1)[2:])
        assert np.allclose(value.values, 4.5)


class TestAxioms:
    def test_entropic_profile(self, four_tree):
        rep = check_axioms(EntropicUtility(four_tree, 1.0, 0), sample_count=10, seed=1)
        assert all(rep.results[a].passed for a in ("locality", "monotonicity", "cash_invariance", "concavity", "relevance"))
        coh = rep.results["coherence"]
        assert coh.passed is False
        assert coh.counterexample is not None
        assert rep.results["continuity"].passed is None

    def test_coherent_profile(self, four_tree):
        rep = check_axioms(coherent_two_scenario(four_tree), sample_count=10, seed=2)
        assert all(rep.results[a].passed for a in ("locality", "monotonicity", "cash_invariance", "concavity", "coherence"))

    def test_axiom_names_are_the_report_keys(self, four_tree):
        # scenario files name expected axioms from AXIOMS before the sweep runs
        rep = check_axioms(EntropicUtility(four_tree, 1.0, 0), sample_count=1, seed=0)
        assert tuple(rep.results) == AXIOMS

    def test_relevance_fails_for_blind_scenario(self, two_uniform):
        # a density ignoring the second outcome cannot price its losses
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [2.0, 0.0]])
        u = DualFiniteUtility(two_uniform, 0, 1, [(a, zero_gamma(two_uniform, 0))])
        rep = check_axioms(u, sample_count=5, seed=3)
        res = rep.results["relevance"]
        assert res.passed is False
        assert "not priced" in res.counterexample


    def test_nan_values_fail_every_sweep(self, four_tree):
        # a NaN residual compares false both ways, so it must fail, not pass, a sweep
        class Undefined(EntropicUtility):
            def _stacked(self, vals):
                return np.full((*vals.shape[:-2], self.space.n_atoms(self.t_start)), np.nan)

        rep = check_axioms(Undefined(four_tree, 1.0, 0), sample_count=3, seed=0)
        tested = [a for a in AXIOMS if a != "continuity"]
        assert [rep.results[a].passed for a in tested] == [False] * 6
        assert all(rep.results[a].samples == 1 for a in tested)
        # alpha 1.7e308 overflows -alpha X on the sampled positions into NaN values
        with np.errstate(all="ignore"):
            rep = check_axioms(EntropicUtility(dyadic_uniform(2), 1.7e308, 0))
        assert not any(rep.results[a].passed for a in tested[:5])
        assert "residual nan" in rep.results["locality"].counterexample

    def test_zero_samples_are_refused(self, four_tree):
        # an empty sweep would pass coherence for the entropic utility, which is not coherent
        with pytest.raises(ValueError, match="sample_count must be at least 1, got 0"):
            check_axioms(EntropicUtility(four_tree, 1.0, 0), sample_count=0)


class TestUtilityProcess:
    def test_stage_window_validation(self, four_tree):
        good = EntropicUtility(four_tree, 1.0, 1)
        with pytest.raises(ValueError, match="window"):
            UtilityProcess({0: good})
        with pytest.raises(ValueError, match="contiguous"):
            UtilityProcess({0: EntropicUtility(four_tree, 1.0, 0), 2: EntropicUtility(four_tree, 1.0, 2)})

    def test_evaluate_at_branch_dependent_stopping(self, four_tree):
        up = entropic_process(four_tree, 1.0)
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(31))
        theta = StoppingTime(four_tree, [1, 1, 2, 2])
        glued = up.evaluate_at_stopping(theta, X)
        assert np.allclose(glued[:2], up.stage(1).evaluate(X.restrict(1)).lift()[:2])
        assert np.allclose(glued[2:], X.slice_at(2)[2:])

    def test_entropic_process_consistent(self, four_tree):
        rep = time_consistency_check(entropic_process(four_tree, 1.0), sample_count=5, seed=0)
        assert rep.passed
        assert rep.stopping_times == "all"
        assert rep.max_residual <= 1e-9

    def test_scenario_process_consistent(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(32), strict=True)
        rep = time_consistency_check(normalized_scenario_process(four_tree, a), sample_count=5, seed=0)
        assert rep.passed, rep.failures[:2]

    def test_mixed_alpha_fails(self, four_tree):
        mixed = UtilityProcess(
            {
                0: EntropicUtility(four_tree, 1.0, 0),
                1: EntropicUtility(four_tree, 3.0, 1),
                2: EntropicUtility(four_tree, 3.0, 2),
            }
        )
        rep = time_consistency_check(mixed, sample_count=5, seed=0)
        assert not rep.passed
        assert rep.max_residual > 1e-3
        assert rep.failures

    def test_zero_samples_are_refused(self, four_tree):
        # no sample means no check: the report would say passed with checked 0
        up = entropic_process(four_tree, 1.0)
        with pytest.raises(ValueError, match="sample_count must be at least 1, got 0"):
            time_consistency_check(up, sample_count=0)
        with pytest.raises(ValueError, match="samples must not be empty"):
            time_consistency_check(up, samples=[])

    def test_nan_residuals_fail(self):
        # alpha 1e300 on positions of 1e300-1e306 overflows the recursion into NaN;
        # a NaN residual must fail the check and be the reported max residual
        for s in range(20):
            g = np.random.default_rng([9, s])
            sp = random_space(g)
            scale = 10.0 ** g.uniform(300, 306)
            X = AdaptedProcess(sp, 0, random_adapted(sp, 0, sp.horizon, g).values * scale)
            with np.errstate(all="ignore"):
                rep = time_consistency_check(entropic_process(sp, alpha=1e300), [X])
            assert not rep.passed and np.isnan(rep.max_residual), f"tree {s}"
            assert any("residual nan" in line for line in rep.failures), f"tree {s}"

    def test_robust_entropic_process_consistency_reported(self, four_tree):
        f = TerminalDensity.normalized(four_tree, [1.6, 0.8, 0.8, 0.8])
        g = TerminalDensity.normalized(four_tree, [0.5, 1.5, 1.0, 1.0])
        rep = time_consistency_check(robust_entropic_process(four_tree, 1.0, [f, g]), sample_count=5, seed=0)
        assert rep.checked > 0 and np.isfinite(rep.max_residual)


class TestPenaltyConsistency:
    def test_single_scenario_decomposition_tight(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(3), strict=True)
        up = normalized_scenario_process(four_tree, a)
        for t, s in [(0, 1), (0, 2), (1, 2), (1, 1)]:
            rep = penalty_consistency_check(up, t, s)
            assert rep.max_abs_residual <= 1e-8, (t, s, rep.max_abs_residual)

    def test_rejects_non_dual_stages(self, four_tree):
        up = entropic_process(four_tree, 1.0)
        with pytest.raises(TypeError):
            penalty_consistency_check(up, 0, 1)

    def test_gap_is_zero_where_both_sides_are_knocked_out(self, four_tree):
        # scenario 1 of each stage has a -inf penalty; -inf - -inf is not
        # computed where both sides are -inf, so no floating-point warning fires
        g = np.random.default_rng(5)
        a = [random_density(four_tree, 0, 2, g, strict=True) for _ in range(2)]
        b = [random_density(four_tree, 1, 2, g, strict=True) for _ in range(2)]
        cv = lambda t, v: ConditionalValue(four_tree, t, v)
        up = UtilityProcess(
            {
                0: DualFiniteUtility(four_tree, 0, 2, [(a[0], cv(0, [0.0])), (a[1], cv(0, [NEG_INF]))]),
                1: DualFiniteUtility(four_tree, 1, 2, [(b[0], cv(1, [0.0, 0.0])), (b[1], cv(1, [NEG_INF, -0.5]))]),
                2: DualFiniteUtility(four_tree, 2, 2, [(uniform_density(four_tree, 2, 2), cv(2, [0.0] * 4))]),
            }
        )
        assert penalty(up.stage(0), a[1]).values[0] == NEG_INF
        assert [(i, gap.tolist()) for i, gap in penalty_consistency_check(up, 0, 2).residuals] == [(0, [0.0]), (1, [0.0])]
        assert [(i, gap.tolist()) for i, gap in penalty_consistency_check(up, 1, 1).residuals] == [(0, [0.0, 0.0]), (1, [0.0, 0.0])]

    def test_one_sided_neg_inf_is_an_infinite_residual(self, four_tree, monkeypatch):
        # a planted -inf on one side only: the stage-1 penalty of every tail on atom {0, 1}
        up = normalized_scenario_process(four_tree, random_density(four_tree, 0, 2, np.random.default_rng(3), strict=True))
        assert penalty_consistency_check(up, 0, 1).max_abs_residual <= 1e-8
        real = utility._penalties

        def planted(u, densities):
            out = real(u, densities)
            if u.t_start == 1:
                out[:, 0] = NEG_INF
            return out

        monkeypatch.setattr(utility, "_penalties", planted)
        rep = penalty_consistency_check(up, 0, 1)
        assert rep.max_abs_residual == np.inf
        assert [gap.tolist() for _, gap in rep.residuals] == [[np.inf]]

    def test_stages_read_on_their_windows(self):
        # a later stage whose densities start before it evaluates with the same
        # bits, and so must leave the report alone
        sp = dyadic_uniform(3)
        up = normalized_scenario_process(sp, random_density(sp, 0, 3, np.random.default_rng(1), strict=True))
        stages = dict(up.stages)
        stages[2] = DualFiniteUtility(sp, 2, 3, [(DensityProcess(sp, 0, np.vstack([np.zeros((2, sp.n_outcomes)), a.values])), g) for a, g in up.stage(2).scenarios])
        wide = UtilityProcess(stages)
        X = random_adapted(sp, 0, 3, np.random.default_rng(2))
        assert np.array_equal(wide.stage(2).evaluate(X).values, up.stage(2).evaluate(X).values)
        for t, s in [(0, 2), (1, 2), (2, 2), (1, 3)]:
            narrow, widened = penalty_consistency_check(up, t, s), penalty_consistency_check(wide, t, s)
            assert narrow.max_abs_residual <= 1e-8, (t, s)
            assert widened.max_abs_residual == narrow.max_abs_residual, (t, s)
            assert [(i, gap.tobytes()) for i, gap in widened.residuals] == [(i, gap.tobytes()) for i, gap in narrow.residuals]


# refusals at the trust boundary: (a call on dyadic_uniform(2), the message it raises)
REFUSALS = {
    "dual-without-scenarios": (lambda sp: DualFiniteUtility(sp, 0, 2, []), "need at least one scenario"),
    "robust-without-densities": (lambda sp: RobustEntropicUtility(sp, 1.0, [], 0), "need at least one terminal density"),
    "window-past-the-horizon": (lambda sp: EntropicUtility(sp, 1.0, 3), "window [3, 2] outside [0, 2]"),
    "process-without-stages": (lambda sp: UtilityProcess({}), "empty utility process"),
    "process-short-of-the-horizon": (
        lambda sp: UtilityProcess({0: EntropicUtility(sp, 1.0, 0, 1)}),
        "the last stage must sit at the common horizon",
    ),
    "normalize-without-mass": (
        lambda sp: normalize_to_window(DensityProcess(sp, 0, [[1.0] * 4, [0.0] * 4, [0.0] * 4]), 1),
        "no remaining mass on some atom at t=1; cannot normalize",
    ),
    "stopping-before-the-stages": (
        lambda sp: entropic_process(sp, 1.0, start=1).evaluate_at_stopping(StoppingTime.constant(sp, 0), AdaptedProcess.constant(sp, 0, 2, 1.0)),
        "stopping time leaves the stage range",
    ),
    "penalty-decomposition-times": (
        lambda sp: penalty_consistency_check(normalized_scenario_process(sp, uniform_density(sp, 0, 2)), 2, 1),
        "need start <= t <= s <= horizon",
    ),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_refusal_names_what_is_wrong(entry):
    call, message = REFUSALS[entry]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(dyadic_uniform(2))


@pytest.mark.parametrize("invariant", ["penalty-not-positive", "glue-reproduces-the-value"])
def test_broken_internal_invariant_raises(invariant, four_tree, monkeypatch):
    u = coherent_two_scenario(four_tree)
    if invariant == "penalty-not-positive":
        # the primal oracle's LP claims a positive optimum, though x = 0 is feasible at cost 0
        monkeypatch.setattr(lp, "minimize_with_escalation", lambda *args: (1.0, {}))
        with pytest.raises(RuntimeError, match=r"penalty came out positive \(1\) on atom \(0, 1, 2, 3\)"):
            penalty_vertices(u, uniform_density(four_tree, 0, 2))
    else:
        real = utility.pairing

        def off_by_one(*args):
            v = real(*args)
            return ConditionalValue(v.space, v.time, v.values + 1.0)

        monkeypatch.setattr(utility, "pairing", off_by_one)
        with pytest.raises(RuntimeError, match="glued density does not reproduce the insurance value"):
            argmax_density(u, random_adapted(four_tree, 0, 2, np.random.default_rng(30)))
