import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynrisk import (
    AdaptedProcess,
    AdaptedWorstProcess,
    CapExceededError,
    ConditionalValue,
    DensityProcess,
    DualFiniteUtility,
    EntropicUtility,
    FiniteFilteredSpace,
    Portfolio,
    UtilityProcess,
    apply_matrix,
    average_risk,
    build_linear_driven_portfolio,
    build_preservation_hypotheses,
    check_adapted_worst_process,
    check_law_invariance,
    dyadic_uniform,
    entropic_process,
    matrix_compare,
    matrix_sup,
    normalized_scenario_process,
    pairing,
    verify_linear_driven_portfolio,
    verify_preservation,
    verify_theorem_3_1,
    worst_portfolio_bruteforce,
    worst_scenario,
)
from dynrisk.random_gen import (
    preservation_instance,
    random_adapted,
    random_coherent_utility,
    random_density,
    random_space,
)
from dynrisk import processes, rearrange, utility, worstcase


def zero_gamma(space, t):
    return ConditionalValue.constant(space, t, 0.0)


def coherent_pair(space, seed):
    g = np.random.default_rng(seed)
    a1 = random_density(space, 0, space.horizon, g, strict=True)
    a2 = random_density(space, 0, space.horizon, g, strict=True)
    z = zero_gamma(space, 0)
    return DualFiniteUtility(space, 0, space.horizon, [(a1, z), (a2, z)])


class TestPortfolio:
    def test_mixed_windows_rejected(self, four_tree):
        X = AdaptedProcess.constant(four_tree, 0, 2, 1.0)
        Y = AdaptedProcess.constant(four_tree, 1, 2, 1.0)
        with pytest.raises(ValueError):
            Portfolio([X, Y])

    def test_mean_total_restrict(self, four_tree):
        X = AdaptedProcess.constant(four_tree, 0, 2, 1.0)
        Y = AdaptedProcess.constant(four_tree, 0, 2, 3.0)
        p = Portfolio([X, Y])
        assert np.allclose(p.mean().values, 2.0)
        assert np.allclose(p.total().values, 4.0)
        assert p.restrict(1).window == (1, 2)


class TestWorstPortfolio:
    def test_two_point_frozen(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.6, 0.4]])
        u = DualFiniteUtility(two_uniform, 0, 1, [(a, zero_gamma(two_uniform, 0))])
        X = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [3.0, -1.0]])
        res = worst_portfolio_bruteforce(Portfolio([X]), u)
        assert res.search_size == 2
        assert res.sup_value.values[0] == pytest.approx(2.2)
        assert res.attained_uniformly
        assert np.array_equal(res.attaining_tuple.members[0].slice_at(1), [3.0, -1.0])

    def test_dominates_direct_value(self, four_tree):
        u = coherent_pair(four_tree, 60)
        g = np.random.default_rng(61)
        marg = Portfolio([random_adapted(four_tree, 0, 2, g) for _ in range(2)])
        res = worst_portfolio_bruteforce(marg, u)
        direct = u.insurance(marg.mean())
        assert np.all(res.sup_value.values >= direct.values - 1e-12)

    def test_worker_counts_agree(self, four_tree, monkeypatch):
        monkeypatch.setattr(worstcase, "CHUNK", 7)
        u = coherent_pair(four_tree, 62)
        g = np.random.default_rng(63)
        marg = Portfolio([random_adapted(four_tree, 0, 2, g) for _ in range(2)])
        one = worst_portfolio_bruteforce(marg, u, workers=1)
        four = worst_portfolio_bruteforce(marg, u, workers=4)
        assert np.array_equal(one.sup_value.values, four.sup_value.values)
        assert one.per_atom_argmax == four.per_atom_argmax
        assert one.attained_uniformly == four.attained_uniformly
        if one.attaining_tuple is not None:
            for m1, m4 in zip(one.attaining_tuple.members, four.attaining_tuple.members):
                assert np.array_equal(m1.values, m4.values)

    def test_cap_respected(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        X = AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [3, 4, 5, 6]])
        marg = Portfolio([X, X, X])  # 8^3 = 512 tuples
        with pytest.raises(CapExceededError):
            worst_portfolio_bruteforce(marg, u, cap=100)

    def test_entropic_uniform_attainment_at_start(self, four_tree):
        # time-0 entropic values are law invariant, so every tuple attains
        u = EntropicUtility(four_tree, 1.0, 0)
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(64))
        res = worst_portfolio_bruteforce(Portfolio([X]), u)
        assert res.attained_uniformly


class TestWorstScenario:
    def test_single_candidate(self, four_tree):
        u = coherent_pair(four_tree, 65)
        marg = Portfolio([random_adapted(four_tree, 0, 2, np.random.default_rng(66))])
        a = u.scenarios[0][0]
        res = worst_scenario([a], marg, u)
        assert res.single_attainment
        assert res.a0.approx_eq(a, 0)
        assert res.value.max_residual(average_risk(a, marg, u)) <= 1e-12

    def test_atoms_glue_different_candidates(self, four_tree):
        up_heavy = DensityProcess(four_tree, 0, [[0, 0, 0, 0], [0.9, 0.9, 0.1, 0.1], [0.1, 0.1, 0.9, 0.9]])
        down_heavy = DensityProcess(four_tree, 0, [[0, 0, 0, 0], [0.1, 0.1, 0.9, 0.9], [0.9, 0.9, 0.1, 0.1]])
        u = DualFiniteUtility(
            four_tree, 1, 2, [(up_heavy, zero_gamma(four_tree, 1)), (down_heavy, zero_gamma(four_tree, 1))]
        )
        X = AdaptedProcess(four_tree, 1, [[5.0, 5.0, 5.0, 5.0], [0.0, 0.0, 0.0, 0.0]])
        res = worst_scenario([up_heavy, down_heavy], Portfolio([X]), u)
        assert res.per_atom_choice == [0, 1]
        assert not res.single_attainment
        assert np.allclose(res.value.values, 4.5)
        assert np.array_equal(res.a0.slice_at(1), [0.9, 0.9, 0.9, 0.9])

    def test_adding_candidate_never_lowers(self, four_tree):
        u = coherent_pair(four_tree, 67)
        g = np.random.default_rng(68)
        marg = Portfolio([random_adapted(four_tree, 0, 2, g) for _ in range(2)])
        a1 = u.scenarios[0][0]
        extra = random_density(four_tree, 0, 2, g, strict=True)
        small = worst_scenario([a1], marg, u)
        big = worst_scenario([a1, extra], marg, u)
        assert np.all(big.value.values >= small.value.values - 1e-12)


class TestTheorem31:
    def test_needs_coherent(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        marg = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, 1.0)])
        with pytest.raises(ValueError, match="coherent"):
            verify_theorem_3_1(marg, u)

    def test_duality_on_random_instances(self, four_tree):
        for seed in (21, 22, 23):
            u = coherent_pair(four_tree, seed)
            g = np.random.default_rng(seed + 29)
            marg = Portfolio([random_adapted(four_tree, 0, 2, g) for _ in range(2)])
            rep = verify_theorem_3_1(marg, u)
            assert rep.equality_holds, rep.equality_residual
            assert rep.passed

    def test_marginals_off_the_utility_window_are_refused(self, four_tree):
        # marginals from t=0 against a utility from t=1: the scan and the
        # scenario side would read the window (1, 2), but no certificate could
        for seed in range(40):
            g = np.random.default_rng(seed)
            marg = Portfolio([random_adapted(four_tree, 0, 2, g) for _ in range(1 + seed % 2)])
            u = random_coherent_utility(four_tree, 1, 2, g, n_scenarios=2)
            with pytest.raises(ValueError, match=re.escape("portfolio window (0, 2) is not the utility window (1, 2)")):
                verify_theorem_3_1(marg, u)

    def test_constants_attain_trivially(self, four_tree):
        u = coherent_pair(four_tree, 70)
        marg = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, c) for c in (1.0, -0.5)])
        rep = verify_theorem_3_1(marg, u)
        assert rep.comonotone_found
        assert rep.attains
        assert rep.attain_residual <= 1e-9

    def test_one_marginal_enumerates_its_class_once(self, four_tree, monkeypatch):
        # the sum of a one-member family is the member, priced on the scan's class
        enumerate_class, certificate = rearrange.enumerate_class, rearrange._certificate
        is_comonotone = rearrange.is_comonotone
        enumerated, certified = [], []

        def counted(X, cap):
            enumerated.append(X)
            return enumerate_class(X, cap)

        def kept(a0, family, psis, directs, tol, cap):
            cert = certificate(a0, family, psis, directs, tol, cap)
            certified.append(((a0, family, tol, cap), cert))
            return cert

        monkeypatch.setattr(rearrange, "enumerate_class", counted)
        monkeypatch.setattr(worstcase, "enumerate_class", counted)
        monkeypatch.setattr(worstcase, "_certificate", kept)
        marg = Portfolio([random_adapted(four_tree, 0, 2, np.random.default_rng(50))])
        rep = verify_theorem_3_1(marg, coherent_pair(four_tree, 21))
        assert rep.comonotone_found and len(enumerated) == 1 and certified
        for args, cert in certified:
            old = is_comonotone(*args)  # enumerates the member's class again
            assert cert.comonotone == old.comonotone and cert.details == old.details
            assert cert.sum_residuals.tobytes() == old.sum_residuals.tobytes()
            assert [r.tobytes() for r in cert.member_residuals] == [r.tobytes() for r in old.member_residuals]

    def test_member_pairings_are_computed_once_per_class(self, four_tree, monkeypatch):
        """Two marginals: each class is paired once, by the scan's features;
        every other pairing prices a certificate's sum or the found tuple."""
        g = np.random.default_rng(51)
        marg = Portfolio([random_adapted(four_tree, 0, 2, g) for _ in range(2)])
        u = coherent_pair(four_tree, 22)
        enumerate_class, certificate = rearrange.enumerate_class, rearrange._certificate
        classes, calls, certs = [], [], []

        def counted_class(X, cap):
            classes.append(enumerate_class(X, cap))
            return classes[-1]

        def counted_certificate(*args):
            certs.append(certificate(*args))
            return certs[-1]

        for module in (rearrange, worstcase):
            monkeypatch.setattr(module, "enumerate_class", counted_class)
        monkeypatch.setattr(worstcase, "_certificate", counted_certificate)
        for module in (processes, rearrange, utility, worstcase):
            kernel = module._pairings

            def counted(space, x, a, t, kernel=kernel):
                calls.append(x)
                return kernel(space, x, a, t)

            monkeypatch.setattr(module, "_pairings", counted)
        rep = verify_theorem_3_1(marg, u)
        marginal_classes = classes[:2]  # the scan's; each certificate then enumerates its sum's
        assert min(c.size for c in marginal_classes) > 1 and rep.comonotone_found and certs
        for cls in marginal_classes:
            assert sum(np.shares_memory(x, cls.values) for x in calls) == 1
        # per certificate, the sum's class and the sum itself; then the found tuple's insurance
        assert len(calls) == 2 + 2 * len(certs) + 1


class TestLinearDriven:
    def test_zero_drive_worst_at_all_stages(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(71), strict=True)
        port = build_linear_driven_portfolio(
            a, [np.zeros((3, 3))], [np.array([1.0, 1.0, 1.0])], np.ones(4, dtype=bool)
        )
        rep = verify_linear_driven_portfolio(port, a)
        assert rep.passed

    def test_diagonal_drive_worst_at_start(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(72), strict=True)
        B = np.diag([0.0, 1.3, 0.4])
        port = build_linear_driven_portfolio(a, [B], [np.zeros(3)], np.ones(4, dtype=bool))
        rep = verify_linear_driven_portfolio(port, a)
        assert rep.stage0_passed

    def test_identity_drive_can_lose_later_stages(self):
        # frozen instance: the stage-0 optimum fails re-certification at 2
        sp = dyadic_uniform(2)
        a = random_density(sp, 0, 2, np.random.default_rng(0), strict=True)
        port = build_linear_driven_portfolio(a, [np.eye(3)], [np.zeros(3)], np.ones(4, dtype=bool))
        rep = verify_linear_driven_portfolio(port, a)
        assert rep.stage0_passed
        assert not rep.passed
        assert rep.stages[2].residual > 0.05

    def test_nan_gap_fails(self):
        # each pairing sums +inf and -inf halves: a NaN gap must fail its stage
        sp = dyadic_uniform(1)
        a = DensityProcess(sp, 0, [[0.0, 0.0], [1e300, 1e300]])
        X = AdaptedProcess(sp, 0, [[0.0, 0.0], [1e300, -1e300]])
        with np.errstate(all="ignore"):
            rep = verify_linear_driven_portfolio(Portfolio([X]), a)
        assert [np.isnan(s.residual) for s in rep.stages] == [True, True]
        assert not any(s.passed for s in rep.stages)

    def test_density_on_another_space_rejected(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(73), strict=True)
        port = build_linear_driven_portfolio(a, [np.eye(3)], [np.zeros(3)], np.ones(4, dtype=bool))
        other = random_density(dyadic_uniform(2), 0, 2, np.random.default_rng(73), strict=True)
        with pytest.raises(ValueError, match="density lives on a different space"):
            verify_linear_driven_portfolio(port, other)

    def test_event_mask_of_the_wrong_length_rejected(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(73), strict=True)
        port = build_linear_driven_portfolio(a, [np.eye(3)], [np.zeros(3)], np.ones(4, dtype=bool))
        message = r"event_mask of shape \(2,\) is not one entry per outcome \(4\)"
        with pytest.raises(ValueError, match=message):
            verify_linear_driven_portfolio(port, a, [True, False])
        with pytest.raises(ValueError, match=message):
            build_linear_driven_portfolio(a, [np.eye(3)], [np.zeros(3)], [True, False])

    def test_matrices_and_shifts_of_different_counts_rejected(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(73), strict=True)
        mask = np.ones(4, dtype=bool)
        with pytest.raises(ValueError, match="3 matrices but 2 shifts"):
            build_linear_driven_portfolio(a, [np.eye(3)] * 3, [np.zeros(3)] * 2, mask)
        with pytest.raises(ValueError, match="1 matrices but 2 shifts"):
            build_linear_driven_portfolio(a, [np.eye(3)], [np.zeros(3)] * 2, mask)

    def test_non_psd_rejected(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(73), strict=True)
        with pytest.raises(ValueError, match="positive semidefinite"):
            build_linear_driven_portfolio(a, [-np.eye(3)], [np.zeros(3)], np.ones(4, dtype=bool))

    def test_non_adapted_member_rejected(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(74), strict=True)
        B = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(ValueError, match="not adapted"):
            build_linear_driven_portfolio(a, [B], [np.zeros(3)], np.ones(4, dtype=bool))


class TestAdaptedWorstProcess:
    def test_from_restrictions_shape(self, four_tree):
        p = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, 2.0)])
        awp = AdaptedWorstProcess.from_restrictions(p)
        assert sorted(awp.stages) == [0, 1, 2]
        assert awp.stages[1].window == (1, 2)

    def test_constants_certify(self, four_tree):
        up = entropic_process(four_tree, 1.0)
        p = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, c) for c in (1.0, -2.0)])
        rep = check_adapted_worst_process(AdaptedWorstProcess.from_restrictions(p), up)
        assert rep.passed
        assert all(l.residual_ok for l in rep.law_links)

    def test_generic_member_fails_later_stages(self, four_tree):
        # law invariance holds at time 0 but conditional laws split afterwards
        up = entropic_process(four_tree, 1.0)
        memb = Portfolio([random_adapted(four_tree, 0, 2, np.random.default_rng(100))])
        rep = check_adapted_worst_process(AdaptedWorstProcess.from_restrictions(memb), up)
        assert rep.stage_checks[0].passed
        assert not rep.passed
        assert rep.stage_checks[1].residual > 0.5

    def test_broken_law_link_detected(self, four_tree):
        p = Portfolio([AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [3, 4, 5, 6]])])
        stages = {t: p.restrict(t) for t in range(3)}
        # swap the stage-1 tail so it no longer shares the stage-0 path law
        tampered = AdaptedProcess(four_tree, 1, [[2, 2, 1, 1], [9, 9, 9, 9]])
        stages[1] = Portfolio([tampered])
        up = entropic_process(four_tree, 1.0)
        rep = check_adapted_worst_process(AdaptedWorstProcess(stages), up)
        assert any(not l.residual_ok for l in rep.law_links)
        assert not rep.passed

    def test_candidate_off_the_process_window_rejected(self):
        # a stage-0 portfolio starting before the process has no stage at its start
        up = entropic_process(dyadic_uniform(2), 1.0, start=1)
        early = Portfolio([AdaptedProcess.constant(up.space, 0, 2, 1.0)])
        with pytest.raises(ValueError, match="candidate window 0..2 is not 1..2"):
            check_adapted_worst_process(AdaptedWorstProcess.from_restrictions(early), up)


class TestPreservation:
    @pytest.mark.parametrize("variant", ["thm33", "thm42", "thm32"])
    def test_generated_instances_pass(self, variant):
        for seed in (0, 1):
            hyp, up, cand = preservation_instance(np.random.default_rng(seed), variant)
            rep = verify_preservation(hyp, up, cand)
            assert rep.passed, (variant, seed, rep.notes)
            assert not rep.skipped

    def test_invalid_candidate_skips_conclusion(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(75), strict=True)
        up = normalized_scenario_process(four_tree, a)
        bad = Portfolio([random_adapted(four_tree, 0, 2, np.random.default_rng(76))])
        hyp = build_preservation_hypotheses(up, "thm33")
        rep = verify_preservation(hyp, up, AdaptedWorstProcess.from_restrictions(bad))
        assert rep.skipped
        assert not rep.passed
        assert any("not an adapted worst" in n for n in rep.notes)
        assert rep.stage_checks == []

    def test_blind_stage_fails_relevance_in_thm42(self, two_uniform):
        # as in the axiom test: the stage-0 density ignores the second outcome
        blind = DensityProcess(two_uniform, 0, [[0.0, 0.0], [2.0, 0.0]])
        last = DensityProcess(two_uniform, 1, [[1.0, 1.0]])
        up = UtilityProcess(
            {
                0: DualFiniteUtility(two_uniform, 0, 1, [(blind, zero_gamma(two_uniform, 0))]),
                1: DualFiniteUtility(two_uniform, 1, 1, [(last, zero_gamma(two_uniform, 1))]),
            }
        )
        hyp = build_preservation_hypotheses(up, "thm42")
        # a base set that normalizes at every stage, so the harness reaches its last check
        hyp.base_set = [DensityProcess.uniform(two_uniform, 0, 1)]
        stage0 = Portfolio([AdaptedProcess.constant(two_uniform, 0, 1, 1.0)])
        rep = verify_preservation(hyp, up, AdaptedWorstProcess.from_restrictions(stage0))
        notes = [n for n in rep.notes if n.startswith("relevance failed:")]
        assert len(notes) == 1 and "not priced below zero" in notes[0]
        assert not rep.hypotheses_ok and rep.skipped

    @pytest.mark.parametrize("variant", ["thm33", "thm42"])
    def test_vanishing_tail_is_a_failed_hypothesis(self, four_tree, variant):
        # stage 0 spends all its mass at time 0, so its tail past 0 vanishes and
        # no later stage can be its normalization
        dense = lambda t, vals: (DensityProcess(four_tree, t, vals), zero_gamma(four_tree, t))
        up = UtilityProcess(
            {
                0: DualFiniteUtility(four_tree, 0, 2, [dense(0, [[1] * 4, [0] * 4, [0] * 4])]),
                1: DualFiniteUtility(four_tree, 1, 2, [dense(1, [[0.5] * 4] * 2)]),
                2: DualFiniteUtility(four_tree, 2, 2, [dense(2, [[1] * 4])]),
            }
        )
        stage0 = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, 1.0)])
        rep = verify_preservation(build_preservation_hypotheses(up, variant), up, AdaptedWorstProcess.from_restrictions(stage0))
        assert rep.skipped and not rep.hypotheses_ok and not rep.passed
        assert "stage 0 scenario 0 outside the positive-tail class: tail from time 1 vanishes at outcome 0" in rep.notes
        if variant == "thm42":
            assert rep.notes[-4:] == [
                "base density 0 has no remaining mass at t=1",
                "stage 1 scenario 0 is not a normalized base density",
                "base density 0 has no remaining mass at t=2",
                "stage 2 scenario 0 is not a normalized base density",
            ]
            # a hand-built base set beside a positive-tail stage family: the
            # vanishing density is noted though the uniform one matches every stage
            up = UtilityProcess({t: DualFiniteUtility(four_tree, t, 2, [dense(t, [[1 / (3 - t)] * 4] * (3 - t))]) for t in range(3)})
            hyp = build_preservation_hypotheses(up, variant)
            hyp.base_set = [DensityProcess(four_tree, 0, [[1] * 4, [0] * 4, [0] * 4]), DensityProcess.uniform(four_tree, 0, 2)]
            rep = verify_preservation(hyp, up, AdaptedWorstProcess.from_restrictions(stage0))
            assert rep.skipped and not rep.hypotheses_ok
            assert [n for n in rep.notes if "base density" in n] == [
                "base density 0 has no remaining mass at t=1",
                "base density 0 has no remaining mass at t=2",
            ]

    def test_candidate_off_the_process_window_rejected(self, four_tree):
        # a stage-0 portfolio starting after the process has no stage at its start
        up = entropic_process(four_tree, 1.0)
        hyp = build_preservation_hypotheses(up, "thm32")
        late = Portfolio([AdaptedProcess.constant(four_tree, 1, 2, 1.0)])
        with pytest.raises(ValueError, match="candidate window 1..2 is not 0..2"):
            verify_preservation(hyp, up, AdaptedWorstProcess.from_restrictions(late))

    @pytest.mark.parametrize("variant", ["thm33", "thm42"])
    def test_stages_read_on_their_windows(self, variant):
        # densities wider than their stage windows, before or after them,
        # leave every evaluate bit alone and so must leave the report alone
        sp = dyadic_uniform(3)
        for t_end in (3, 2):
            up = normalized_scenario_process(sp, random_density(sp, 1, t_end, np.random.default_rng(1), strict=True), start=1)
            wide = {}
            for t, u in up.stages.items():
                (a, gamma), = u.scenarios
                after = np.ones((sp.horizon - t_end, sp.n_outcomes))
                wide[t] = DualFiniteUtility(sp, t, t_end, [(DensityProcess(sp, 0, np.vstack([a.extend_to(0).values, after])), gamma)])
            padded = UtilityProcess(wide)
            cand = AdaptedWorstProcess.from_restrictions(Portfolio([AdaptedProcess.constant(sp, 1, t_end, 1.5)]))
            want = verify_preservation(build_preservation_hypotheses(up, variant), up, cand)
            assert want.passed, want.notes
            assert verify_preservation(build_preservation_hypotheses(padded, variant), padded, cand) == want

    def test_conclusion_scans_the_restriction_not_the_candidate_stage(self, monkeypatch):
        # singleton classes at t = 1 and one path law: the candidate passes the
        # adapted check with a stage 1 that is not stage 0's restriction
        sp = FiniteFilteredSpace([0.2, 0.3, 0.5], [[[0, 1, 2]], [[0], [1], [2]]])
        X = AdaptedProcess(sp, 0, [[0, 0, 0], [1, 1, -2]])
        Y = AdaptedProcess(sp, 1, [[-2, -2, 1]])
        up = normalized_scenario_process(sp, DensityProcess(sp, 0, [[0.5] * 3, [0.5] * 3]))
        scanned = []
        scan = worstcase.worst_portfolio_bruteforce
        monkeypatch.setattr(worstcase, "worst_portfolio_bruteforce", lambda p, *args: scanned.append(p) or scan(p, *args))
        for variant in ("thm33", "thm42"):
            scanned.clear()
            hyp = build_preservation_hypotheses(up, variant)
            rep = verify_preservation(hyp, up, AdaptedWorstProcess({0: Portfolio([X]), 1: Portfolio([Y])}))
            assert rep.adapted_ok and rep.passed and not rep.skipped
            assert [p.members[0].values.tolist() for p in scanned] == [X.values.tolist(), Y.values.tolist(), [[1, 1, -2]]]
            # a candidate of restrictions is certified once per stage
            scanned.clear()
            rep = verify_preservation(hyp, up, AdaptedWorstProcess.from_restrictions(Portfolio([X])))
            assert rep.passed and len(scanned) == 2

    def test_variant_mismatch_rejected(self, four_tree):
        up = entropic_process(four_tree, 1.0)
        with pytest.raises(ValueError, match="scenario"):
            build_preservation_hypotheses(up, "thm33")
        with pytest.raises(ValueError, match="unknown"):
            build_preservation_hypotheses(up, "thm99")


class TestMatrix:
    def test_apply_matrix_identity(self, four_tree):
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(77))
        assert apply_matrix(np.eye(3), X).approx_eq(X, 0)

    def test_matrix_sup_picks_best(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        X = AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [2, 2, -1, -1], [3, -2, 4, 0]])
        # running-average matrix: row s only weights times up to s, so the
        # image of any adapted process stays adapted
        avg = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])
        res = matrix_sup(u, X, [np.eye(3), avg])
        direct = u.insurance(X).values
        averaged = u.insurance(apply_matrix(avg, X)).values
        assert res.value.values[0] == pytest.approx(max(direct[0], averaged[0]))
        assert res.attained_uniformly
        assert res.best_index in (0, 1)

    def test_matrix_sup_rejects_non_adapted_image(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        X = AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [2, 2, -1, -1], [3, -2, 4, 0]])
        with pytest.raises(ValueError, match="adapted"):
            matrix_sup(u, X, [np.full((3, 3), 1.0 / 3.0)])

    def test_identity_comparison_holds(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        g = np.random.default_rng(78)
        tilde = Portfolio([random_adapted(four_tree, 0, 2, g) for _ in range(2)])
        bar = Portfolio([m.shift_by(0.5) for m in tilde.members])
        rep = matrix_compare(np.eye(3), u, tilde, bar)
        assert rep.all_hypotheses
        assert rep.conclusion_tested
        assert rep.conclusion_holds

    def test_averaging_matrix_comparison(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        g = np.random.default_rng(79)
        avg = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])
        tilde = Portfolio([random_adapted(four_tree, 0, 2, g) for _ in range(2)])
        bar = Portfolio([m.shift_by(1.0) for m in tilde.members])
        rep = matrix_compare(avg, u, tilde, bar)
        assert rep.hyp_eigenvector and rep.hyp_nonnegative
        if rep.all_hypotheses:
            assert rep.conclusion_holds

    def test_negative_entry_blocks_conclusion(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        A = np.eye(3)
        A[1, 0] = -0.5
        A[1, 1] = 1.5
        tilde = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, 1.0)])
        rep = matrix_compare(A, u, tilde, tilde)
        assert not rep.hyp_nonnegative
        assert not rep.conclusion_tested
        assert rep.conclusion_holds is None

    def test_non_adapted_image_blocks_acceptance(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        avg = np.full((3, 3), 1.0 / 3.0)
        tilde = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, 1.0)])
        rep = matrix_compare(avg, u, tilde, tilde)
        assert not rep.hyp_acceptance
        assert "adapted" in rep.acceptance_counterexample
        assert not rep.conclusion_tested

    def test_non_stochastic_blocks_conclusion(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        tilde = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, 1.0)])
        rep = matrix_compare(2.0 * np.eye(3), u, tilde, tilde)
        assert not rep.hyp_eigenvector
        assert not rep.conclusion_tested

    def test_zero_samples_are_refused(self, four_tree):
        # acceptance would count as held on no sample at all
        u = EntropicUtility(four_tree, 1.0, 0)
        tilde = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, 1.0)])
        with pytest.raises(ValueError, match="sample_count must be at least 1, got 0"):
            matrix_compare(np.eye(3), u, tilde, tilde, sample_count=0)

    def test_dimension_mismatch(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        tilde = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, 1.0)])
        with pytest.raises(ValueError, match="match"):
            matrix_compare(np.eye(2), u, tilde, tilde)

    def test_portfolios_off_the_utility_window_are_refused(self, four_tree):
        # not a failed acceptance hypothesis: the utility cannot price them at all
        u = EntropicUtility(four_tree, 1.0, 0)
        late = Portfolio([AdaptedProcess(four_tree, 1, [[1, 1, 2, 2], [0, 3, 1, -2]])])
        with pytest.raises(ValueError, match=r"position window \(1, 2\) does not cover \(0, 2\)"):
            matrix_compare(np.eye(2), u, late, late)

    def test_portfolios_starting_before_the_utility_are_refused(self):
        # A acts on the portfolio window, the boundary shift is measured at the utility's start
        sp = dyadic_uniform(2)
        u = EntropicUtility(sp, 1.0, 1)
        early = Portfolio([random_adapted(sp, 0, 2, np.random.default_rng(0))])
        with pytest.raises(ValueError, match=r"portfolio window \(0, 2\) is not the utility window \(1, 2\)"):
            matrix_compare(np.eye(3), u, early, early)

    def test_portfolios_on_another_space_are_refused(self, four_tree):
        # with 2 I the conclusion is never tested, so nothing else would price them
        u = EntropicUtility(four_tree, 1.0, 0)
        other = Portfolio([AdaptedProcess.constant(dyadic_uniform(2), 0, 2, 1.0)])
        with pytest.raises(ValueError, match="position lives on a different space"):
            matrix_compare(2.0 * np.eye(3), u, other, other)

    def test_bar_must_fit_tilde(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        tilde = Portfolio([AdaptedProcess.constant(four_tree, 0, 2, 1.0)])
        late = Portfolio([AdaptedProcess.constant(four_tree, 1, 2, 1.0)])
        with pytest.raises(ValueError, match="processes live on different spaces or windows"):
            matrix_compare(np.eye(3), u, tilde, late)
        with pytest.raises(ValueError, match="portfolios must have the same number of members"):
            matrix_compare(np.eye(3), u, tilde, Portfolio(tilde.members * 2))


class TestLawInvariance:
    def test_entropic_at_start(self, four_tree):
        u = EntropicUtility(four_tree, 1.0, 0)
        X = AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [3, 4, 5, 6]])
        assert check_law_invariance(u, X)

    def test_skewed_scenario_is_not(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.6, 0.4]])
        u = DualFiniteUtility(two_uniform, 0, 1, [(a, zero_gamma(two_uniform, 0))])
        X = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [3.0, -1.0]])
        assert not check_law_invariance(u, X)
