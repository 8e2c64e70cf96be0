"""One evaluation kernel per utility family.

``_features`` then ``_combine`` on a stack of positions must give the bits of
one ``evaluate`` per position, ``insurance`` must be the reflected
``evaluate``, and the worst-portfolio scan, which combines averaged member
features, must report values that the insurance of the reported tuple
reproduces; its sup pass and attainer search over chunks of whole class
rows must report what one evaluation of the whole table reports, also where
the entropic families screen each chunk with one contraction and re-score
only the tuples near its max, and the screen must keep its stated error
bound and its chunks the float budget.  ``worst_scenario``,
which reads each class once, must report what one ``average_risk`` per
candidate reports.  The time-consistency check stacks every (stopping
time, sample) pair and runs each stage twice: in the glue, which also gives
the stage's direct value, then in the fold.  It must report what one check
at a time over the recursive reference's stopping times reports, and a
defect planted in the glued or the direct values, or a stopping time dropped
from the enumeration, must make the two disagree.  The stability checks and
the pasting closure, which stack every splice, must report what one public
``concatenate`` or ``paste`` per splice reports.  Stacked pairings of a
whole rearrangement class must give the bits of one ``pairing`` per member,
and the duality and linear-driven harnesses, which enumerate each class once
and pair it in one pass, must report what per-call routes report.  The
penalty's dual support enumeration must agree with the primal vertex oracle
and with HiGHS on the same dual, and pricing a stack of densities must give
the bits of one call per density.  The axiom sweeps, the law-invariance
check and the matrix sup, which evaluate stacks of positions, must report
what one public ``evaluate`` per sample, member or matrix reports, and the
dual kernel must give the bits of the penalised min of per-scenario pairings,
its chained min those of numpy's reduction over scenarios.
"""

import itertools
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dynrisk import (
    AdaptedProcess,
    CapExceededError,
    ConditionalValue,
    DensityProcess,
    AdaptedWorstProcess,
    DualFiniteUtility,
    EntropicUtility,
    FiniteFilteredSpace,
    Portfolio,
    RobustEntropicUtility,
    StoppingTime,
    TerminalDensity,
    UtilityProcess,
    average_risk,
    build_linear_driven_portfolio,
    build_preservation_hypotheses,
    check_axioms,
    check_law_invariance,
    concatenate,
    cond_expect,
    dyadic_uniform,
    entropic_process,
    enumerate_class,
    enumerate_events,
    enumerate_stopping_times,
    is_comonotone,
    m1_closure,
    matrix_sup,
    max_correlation,
    normalized_scenario_process,
    pairing,
    paste,
    penalty,
    penalty_vertices,
    robust_entropic_process,
    stability_check,
    time_consistency_check,
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
    random_conditional,
    random_density,
    random_space,
    random_terminal_density,
)
from dynrisk import lp, utility, worstcase
from dynrisk import space as space_module
from dynrisk.processes import _pairings
from dynrisk.rearrange import _attains, _class_pairings
from dynrisk.space import enumerate_stopping_events
from dynrisk.utility import _check_relevance, _penalties
from dynrisk.worstcase import Thm31Report, apply_matrix
from conftest import fresh, random_dual_utility, uniform_density
from test_acceptance import duality_instances  # noqa: F401  (the gate's 100 instances)
from test_space import grow_reference

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
        positions = [AdaptedProcess(sp, 0, random_adapted(sp, 0, sp.horizon, g).values * 3.0) for _ in range(int(g.integers(1, 9)))]
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
        X = AdaptedProcess(sp, 0, random_adapted(sp, 0, sp.horizon, g).values * 3.0)
        assert np.array_equal(bits(u.insurance(X).values), bits(-u.evaluate(-X).values)), f"seed {seed}"


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_position_insures_to_positive_zero(family):
    """Reports print -0.0 as "-0"; the zero position is worth +0.0, in
    evaluate, insurance and the scan alike."""
    g = np.random.default_rng(10)
    sp = random_space(g, max_outcomes=6, max_horizon=2)
    u = make_utility(family, sp, int(g.integers(0, sp.horizon + 1)), g)
    zero = AdaptedProcess.constant(sp, 0, sp.horizon, 0.0)
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


# at t = 1 an atom of three outcomes and one of two: no path can leave its
# atom, so every class is a product of per-atom arrangements and some tuple
# reaches the sup on both atoms, often past the first chunk that reaches it
THREE_TWO = FiniteFilteredSpace(np.full(5, 0.2), [[[0, 1, 2, 3, 4]], [[0, 3], [1, 2, 4]], [[0], [1], [2], [3], [4]]])


def scan_instance(seed):
    """A scan on several atoms from a window start of 1 or later, or None."""
    g = np.random.default_rng([77, seed])
    if seed % 2:
        sp, t0 = THREE_TWO, 1
    else:
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=True)
        t0 = int(g.integers(1, sp.horizon + 1))
        if sp.n_atoms(t0) < 2:
            return None
    members = [random_adapted(sp, t0, sp.horizon, g) for _ in range(int(g.integers(1, 3)))]
    if np.prod([enumerate_class(X).size for X in members]) > 400:
        return None
    dual = random_dual_utility(sp, t0, sp.horizon, g, n_scenarios=int(g.integers(1, 4)))
    return Portfolio(members), (dual, EntropicUtility(sp, float(g.choice([0.3, 1.0, 2.5])), t0))


def scan_chunks(sizes, chunk):
    """The scan's chunks, (lo, hi) in flat order, for every family: products
    of whole rows.  With R <= chunk the tuples in a row of the first class d
    that has such rows, a chunk starts at every max(1, chunk // R)-th row of
    class d and at every row of the classes before it; a scan of at most
    ``chunk`` tuples is one chunk."""
    total = int(np.prod(sizes))
    d = next(d for d in range(len(sizes)) if np.prod(sizes[d + 1 :]) <= chunk)
    R = int(np.prod(sizes[d + 1 :]))
    starts = [f for f in range(0, total, R) if f // R % sizes[d] % max(1, chunk // R) == 0]
    return list(zip(starts, starts[1:] + [total]))


def scan_widths(u, last):
    """Floats per tuple in the widest temporary of the scan's row route and
    of its screen route, with ``last`` the last class's size: S * atoms for
    a dual utility, which has no screen; M and max(atoms, ceil(M / last))
    for the entropic utility; D times those for a robust one over D
    densities."""
    atoms = u.space.n_atoms(u.t_start)
    if isinstance(u, DualFiniteUtility):
        return len(u.scenarios) * atoms, None
    D = len(u.densities) if isinstance(u, RobustEntropicUtility) else 1
    M = u.space.n_outcomes
    return D * M, D * max(atoms, -(-M // last))


def scan_budget(u, sizes):
    """The scan's tuples per chunk, ``CHUNK`` floats over its route's width
    (at least one tuple), and whether it screens: an entropic scan screens
    when it holds more tuples than one row-route chunk."""
    row, screen = scan_widths(u, sizes[-1])
    budget = max(1, worstcase.CHUNK // row)
    if screen is None or np.prod(sizes) <= budget:
        return budget, False
    return max(1, worstcase.CHUNK // screen), True


def whole_table(u, classes):
    """One ``_batch_insurance`` evaluation of every tuple, the scan's oracle."""
    return worstcase._batch_insurance(u, classes)[1](np.arange(int(np.prod([c.size for c in classes]))))


def test_scan_matches_one_evaluation_of_the_whole_table(monkeypatch):
    """The chunked sup pass and the search for the first uniform attainer report
    what one ``_batch_insurance`` evaluation of every tuple reports: the first
    argmax per atom and the first row that ``_attains`` the column max, at
    any worker count.  The table is the insurance of each tuple's mean.  The
    search reads the first chunk that reaches the sup alone and the others
    only when that chunk holds no attainer; each chunk read is one
    evaluation: of every tuple, broadcast from the chunk's class rows, or of
    the tuples the entropic screen keeps, gathered by flat index."""
    monkeypatch.setattr(worstcase, "CHUNK", 16)
    batch_insurance, evaluated = worstcase._batch_insurance, []

    def counted(u, classes):
        feats, values, rows = batch_insurance(u, classes)

        def count(read):
            def wrapped(arg):
                evaluated.append(read.__name__)
                return read(arg)

            return wrapped

        return feats, count(values), count(rows)

    monkeypatch.setattr(worstcase, "_batch_insurance", counted)
    scans = late = unattained = 0
    for seed in range(60):
        inst = scan_instance(seed)
        if inst is None:
            continue
        marg, utilities = inst
        for u in utilities:
            scans += 1
            label = f"seed {seed}, {type(u).__name__}"
            classes = [enumerate_class(X) for X in marg.members]
            sizes = [c.size for c in classes]
            table = batch_insurance(u, classes)[1](np.arange(int(np.prod(sizes))))
            sup = table.max(axis=0)
            hits = np.flatnonzero(_attains(table))
            for flat, row in enumerate(table):
                tup = Portfolio([c.members[i] for c, i in zip(classes, np.unravel_index(flat, sizes))])
                assert np.abs(u.insurance(tup.mean()).values - row).max() <= 1e-12, label
            budget, screened = scan_budget(u, sizes)
            chunks = scan_chunks(sizes, budget)
            assert worstcase._chunks(u, classes)[0] == chunks, label
            every = not screened
            near = [hi for lo, hi in chunks if np.all(table[lo:hi].max(axis=0) >= sup - 1e-12 * np.maximum(1.0, np.abs(sup)))]
            unattained += hits.size == 0
            late += bool(hits.size) and hits[0] >= near[0]
            walked = 1 if hits.size and hits[0] < near[0] else len(near)
            for workers in (1, 2):
                evaluated.clear()
                res = worst_portfolio_bruteforce(marg, u, workers=workers)
                assert len(evaluated) == len(chunks) + walked, label
                assert set(evaluated) == {"rows" if every else "values"}, label
                assert np.array_equal(bits(res.sup_value.values), bits(sup)), label
                assert res.per_atom_argmax == table.argmax(axis=0).tolist(), label
                assert res.attained_uniformly == bool(hits.size), label
                if hits.size:
                    want = res.tuple_at(int(hits[0])).members
                    assert all(np.array_equal(a.values, b.values) for a, b in zip(res.attaining_tuple.members, want)), label
                else:
                    assert res.attaining_tuple is None, label
    # both ends of the search are reached: an attainer past the first chunk that
    # reaches the sup (11 of 94 scans), and no attainer at all (22)
    assert late >= 3 and unattained >= 10, (scans, late, unattained)


def assert_scan_is_the_table(marg, u, table, label):
    """Sup bits, first argmax, uniform attainment and the attaining tuple of
    the scan, at 1 and 2 workers, against the whole table."""
    sup = table.max(axis=0)
    hits = np.flatnonzero(_attains(table))
    for workers in (1, 2):
        res = worst_portfolio_bruteforce(marg, u, workers=workers)
        assert np.array_equal(bits(res.sup_value.values), bits(sup)), label
        assert res.per_atom_argmax == table.argmax(axis=0).tolist(), label
        assert res.attained_uniformly == bool(hits.size), label
        if hits.size:
            want = res.tuple_at(int(hits[0])).members
            assert all(np.array_equal(a.values, b.values) for a, b in zip(res.attaining_tuple.members, want)), label
        else:
            assert res.attaining_tuple is None, label


def screen_table(u, classes):
    """The entropic screen of every tuple, whether its S fell below tiny, and
    the screen's stated error bound."""
    n = len(classes)
    feats = [u._features(u._window(c.representative, c.values)) for c in classes]
    screen, small = u._screen([u._anchored(f, n) for f in feats])
    return screen, small, u._screen_error(n, max(float(np.abs(f).max()) for f in feats))


def test_screened_scan_matches_the_whole_table(monkeypatch):
    """The entropic scans screen each chunk with one contraction and re-score
    the tuples near its screened max; they report, bit for bit, what the whole
    ``_batch_insurance`` table reports, and so do the dual scans, which read
    every tuple of each chunk of whole rows.  The screen keeps its stated
    error bound wherever S does not underflow, and underflow, alpha down to
    1e-3 and values up to 1e6 are reached; dual scans reach rows of the first
    class longer than one chunk and one-member portfolios."""
    scans = screened = split = underflow = dual_split = dual_single = 0
    for seed in range(150):
        g = np.random.default_rng([15, seed])
        if seed % 3 == 0:
            sp, t0 = THREE_TWO, int(g.integers(0, 2))
        else:
            sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.5))
            t0 = int(g.integers(0, sp.horizon + 1))
        scale = float(10.0 ** g.integers(0, 7))
        members = [AdaptedProcess(sp, t0, random_adapted(sp, t0, sp.horizon, g).values * scale) for _ in range(int(g.integers(1, 5)))]
        classes = [enumerate_class(X) for X in members]
        sizes = [c.size for c in classes]
        total = int(np.prod(sizes))
        if not 2 <= total <= 2000:
            continue
        alpha = float(g.choice([1e-3, 0.3, 1.0, 5.0, 50.0]))
        family = ("dual", "entropic", "robust")[int(g.integers(0, 3))]
        if family == "dual":
            u = random_dual_utility(sp, t0, sp.horizon, g, n_scenarios=int(g.integers(1, 4)))
        elif family == "entropic":
            u = EntropicUtility(sp, alpha, t0)
        else:
            u = RobustEntropicUtility(sp, alpha, [random_terminal_density(sp, g) for _ in range(int(g.integers(1, 4)))], t0)
        chunk = 3 * int(g.integers(2, 12))  # 6 to 33 floats, up to 16 tuples a chunk
        monkeypatch.setattr(worstcase, "CHUNK", chunk)
        budget, screens = scan_budget(u, sizes)
        label = f"seed {seed}, {family}, alpha {alpha}, scale {scale}, sizes {sizes}, CHUNK {chunk}"
        table = whole_table(u, classes)
        scans += 1
        ranges, chunk_at, _ = worstcase._chunks(u, classes)
        assert ranges == scan_chunks(sizes, budget), label
        if family == "dual":
            # each chunk reads every tuple of its rows, with the table's bits
            for lo, hi in ranges:
                flat, vals = chunk_at(lo, hi)
                assert np.array_equal(flat, np.arange(lo, hi)), label
                assert np.array_equal(bits(vals), bits(table[lo:hi])), label
            dual_split += np.prod(sizes[1:]) > budget
            dual_single += len(sizes) == 1
        else:
            screen, small, bound = screen_table(u, classes)
            assert np.all(np.abs(screen - table)[~small] <= bound), label
            underflow += bool(small.any())
            # each chunk re-scores, with the table's bits, at least every tuple whose S underflowed
            for lo, hi in ranges:
                flat, vals = chunk_at(lo, hi)
                assert np.array_equal(bits(vals), bits(table[flat])), label
                assert set(lo + np.flatnonzero(small[lo:hi].any(axis=1))) <= set(flat.tolist()), label
            screened += screens
            split += screens and np.prod(sizes[1:]) > budget
        assert_scan_is_the_table(Portfolio(members), u, table, label)
    assert scans >= 60 and screened >= 30 and split >= 10 and underflow >= 5, (scans, screened, split, underflow)
    assert dual_split >= 10 and dual_single >= 5, (dual_split, dual_single)


def test_scan_chunks_fit_the_float_budget(monkeypatch):
    """Every chunk of every family, on the row route and on the screen route,
    holds at most ``CHUNK`` floats in its route's widest temporary, or is one
    tuple wider than that, and the chunks tile the scan in flat order."""
    routes, shipped = set(), worstcase.CHUNK
    for seed in range(30):
        g = np.random.default_rng([22, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.5))
        t0 = int(g.integers(0, sp.horizon + 1))
        members = [random_adapted(sp, t0, sp.horizon, g) for _ in range(int(g.integers(1, 4)))]
        classes = [enumerate_class(X) for X in members]
        sizes = [c.size for c in classes]
        total = int(np.prod(sizes))
        if total > 5000:
            continue
        densities = [random_terminal_density(sp, g) for _ in range(int(g.integers(1, 4)))]
        utilities = (
            random_dual_utility(sp, t0, sp.horizon, g, n_scenarios=int(g.integers(1, 4))),
            EntropicUtility(sp, 1.0, t0),
            RobustEntropicUtility(sp, 1.0, densities, t0),
        )
        for u in utilities:
            row, screen = scan_widths(u, sizes[-1])
            for chunk in (1, 5, 24, 100, shipped):
                monkeypatch.setattr(worstcase, "CHUNK", chunk)
                screens = scan_budget(u, sizes)[1]
                width = screen if screens else row
                ranges = worstcase._chunks(u, classes)[0]
                label = f"seed {seed}, {type(u).__name__}, CHUNK {chunk}"
                assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]], label
                assert ranges[-1][1] == total, label
                assert all(hi - lo == 1 or (hi - lo) * width <= chunk for lo, hi in ranges), label
                routes.add((type(u).__name__, screens))
    assert routes == {
        ("DualFiniteUtility", False),
        ("EntropicUtility", False),
        ("EntropicUtility", True),
        ("RobustEntropicUtility", False),
        ("RobustEntropicUtility", True),
    }


def scan_space():
    """``bench/workloads.py``'s scan space: 6 uniform outcomes, two atoms at t=1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.scan_space()


def test_bench_scan_takes_72_24_72_chunks():
    """The bench's 72^3 scans, three members on ``scan_space``, at the shipped
    ``CHUNK``: a dual utility over three scenarios reads 72 chunks of one
    first-class row (3 floats a tuple on its one atom), the entropic screen
    24 of three rows (1 float) and the robust screen over three densities 72
    of one row (3 floats)."""
    sp = scan_space()
    g = np.random.default_rng(5)
    classes = [enumerate_class(random_adapted(sp, 0, 2, g)) for _ in range(3)]
    assert [c.size for c in classes] == [72, 72, 72]
    utilities = (
        random_coherent_utility(sp, 0, 2, g, n_scenarios=3),
        EntropicUtility(sp, 1.0, 0),
        RobustEntropicUtility(sp, 1.0, [random_terminal_density(sp, g) for _ in range(3)], 0),
    )
    assert [len(worstcase._chunks(u, classes)[0]) for u in utilities] == [72, 24, 72]


def record_screens(monkeypatch):
    """Wraps ``_screen``: each call appends (tuples, floats in its widest
    temporary), from the parts it is given: P holds D * M floats per tuple
    of their rows but the last one's, its values D * atoms per tuple."""
    screen, calls = utility._EntropicKernel._screen, []

    def recorded(self, parts):
        rows = [E.shape[0] for E, _ in parts]
        tuples = int(np.prod(rows))
        calls.append((tuples, max(self._w.size * (tuples // rows[-1]), self._log_wsum.size * tuples)))
        return screen(self, parts)

    monkeypatch.setattr(utility._EntropicKernel, "_screen", recorded)
    return calls


def screen_cases(family, where):
    """(members, utility, CHUNK) scans whose last class holds fewer than
    M / atoms members: on the bench's space, classes of 72, 72 and 2 at the
    shipped ``CHUNK``; on random spaces, a last member rounded to integers,
    whose class is small, at a ``CHUNK`` of 1 to 4 times D * M, with D = 1
    for the entropic family and 2 or 3 densities for the robust one."""
    robust = family == "robust"
    if where == "bench":
        sp, g = scan_space(), np.random.default_rng(23)
        two = AdaptedProcess(sp, 0, [[0.0] * 6, [1.0, 1, 1, 2, 2, 2], [1.0, 1, 1, 2, 2, 2]])
        members = [random_adapted(sp, 0, 2, g) for _ in range(2)] + [two]
        dens = [random_terminal_density(sp, g) for _ in range(3)]
        u = RobustEntropicUtility(sp, 1.0, dens, 0) if robust else EntropicUtility(sp, 1.0, 0)
        return [(members, u, worstcase.CHUNK)]
    cases = []
    for seed in range(300):
        g = np.random.default_rng([23, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.5))
        t0 = int(g.integers(0, sp.horizon))
        members = [random_adapted(sp, t0, sp.horizon, g) for _ in range(int(g.integers(1, 3)))]
        members.append(AdaptedProcess(sp, t0, np.round(random_adapted(sp, t0, sp.horizon, g).values * 0.7)))
        sizes = [enumerate_class(X).size for X in members]
        if sizes[-1] * sp.n_atoms(t0) >= sp.n_outcomes or not 2 <= np.prod(sizes) <= 3000:
            continue
        D = int(g.integers(2, 4)) if robust else 1
        u = RobustEntropicUtility(sp, 1.0, [random_terminal_density(sp, g) for _ in range(D)], t0) if robust else EntropicUtility(sp, 1.0, t0)
        cases.append((members, u, D * sp.n_outcomes * int(g.integers(1, 5))))
    return cases


@pytest.mark.parametrize("where", ("bench", "random"))
@pytest.mark.parametrize("family", ("entropic", "robust"))
def test_screen_temporaries_fit_the_float_budget(monkeypatch, family, where):
    """Every ``_screen`` call of a scan builds at most ``CHUNK`` floats in its
    widest temporary, or screens one tuple, also where the last class is so
    small that P is wider than the values."""
    calls = record_screens(monkeypatch)
    wide = 0
    for i, (members, u, chunk) in enumerate(screen_cases(family, where)):
        monkeypatch.setattr(worstcase, "CHUNK", chunk)
        calls.clear()
        worst_portfolio_bruteforce(Portfolio(members), u)
        label = f"case {i}, CHUNK {chunk}, calls {calls}"
        assert all(tuples == 1 or floats <= chunk for tuples, floats in calls), label
        wide += any(floats > u._log_wsum.size * tuples for tuples, floats in calls)
    # the cases reach the screen with P the wider temporary
    assert wide > 0


def test_screen_rescores_a_subnormal_tuple(monkeypatch):
    """Two members peaking on opposite outcomes give S = exp(-720), a finite
    screened value far below the chunk's max: only the S < tiny rule
    re-scores it."""
    monkeypatch.setattr(worstcase, "CHUNK", 2)
    sp = FiniteFilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]]])
    members = [AdaptedProcess(sp, 0, [[0.0, 0.0], v]) for v in ([1440.0, 0.0], [0.0, 1440.0])]
    u = EntropicUtility(sp, 1.0, 0)
    classes = [enumerate_class(X) for X in members]
    screen, small, _ = screen_table(u, classes)
    table = whole_table(u, classes)
    apart = np.flatnonzero(small[:, 0])
    assert apart.size and np.all(np.isfinite(screen[apart])) and np.all(screen[apart] < table.max() - 100)
    assert np.all(table[apart] == 720.0)
    ranges, chunk_at, _ = worstcase._chunks(u, classes)
    rescored = np.concatenate([chunk_at(lo, hi)[0] for lo, hi in ranges])
    assert set(apart.tolist()) <= set(rescored.tolist())
    assert_scan_is_the_table(Portfolio(members), u, table, "subnormal S")


def plant_screen_defect(monkeypatch):
    """Make ``_EntropicKernel._screen`` hide a chunk's best tuples: each
    tuple that screens highest on some atom screens at the float minimum on
    every atom, so beside any other tuple it is never re-scored."""
    screen = utility._EntropicKernel._screen

    def hidden(self, parts):
        values, small = screen(self, parts)
        best = np.unique(values.reshape(-1, *values.shape[-2:]).max(axis=0).argmax(axis=0))
        values[..., best, :] = np.finfo(float).min
        small[..., best, :] = False
        return values, small

    monkeypatch.setattr(utility._EntropicKernel, "_screen", hidden)


@pytest.mark.parametrize("family", ["entropic", "robust"])
def test_planted_screen_defect_is_caught_by_the_whole_table(monkeypatch, family):
    """The whole ``_batch_insurance`` table guards the screen: with each
    chunk's best tuple left un-scored, the scan's sup disagrees with the
    table's on at least five seeded screened scans, and unpatched it agrees
    on all of them."""
    monkeypatch.setattr(worstcase, "CHUNK", 24)
    scans = []
    for seed in range(60):
        g = np.random.default_rng([83, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=True)
        t0 = int(g.integers(0, sp.horizon))
        members = [random_adapted(sp, t0, sp.horizon, g) for _ in range(int(g.integers(2, 4)))]
        classes = [enumerate_class(X) for X in members]
        sizes = [c.size for c in classes]
        if family == "entropic":
            u = EntropicUtility(sp, 1.0, t0)
        else:
            u = RobustEntropicUtility(sp, 1.0, [random_terminal_density(sp, g) for _ in range(2)], t0)
        if np.prod(sizes) <= 2000 and scan_budget(u, sizes)[1]:
            scans.append((Portfolio(members), u, whole_table(u, classes).max(axis=0)))
    assert len(scans) >= 10, len(scans)
    sup = lambda marg, u: bits(worst_portfolio_bruteforce(marg, u).sup_value.values)
    assert all(np.array_equal(sup(marg, u), bits(want)) for marg, u, want in scans)
    plant_screen_defect(monkeypatch)
    missed = sum(not np.array_equal(sup(marg, u), bits(want)) for marg, u, want in scans)
    assert missed >= 5, (missed, len(scans))


@pytest.mark.parametrize("alpha", (1e-3, 0.3, 1.0, 5.0, 50.0))
def test_screened_scan_of_integer_members(alpha):
    """Three members with values 0-3 on a two-atom window: hundreds of
    tuples tie at the sup on each atom, and at alpha = 1e-3 the screen's
    error exceeds 1e-13.  Every chunk reaches the sup and no tuple attains
    it on both atoms, so the walk reads every chunk.  The scan reports what
    the whole table reports."""
    sp = FiniteFilteredSpace(np.full(6, 1 / 6), [[tuple(range(6))], [(0, 1, 2), (3, 4, 5)], [(w,) for w in range(6)]])
    g = np.random.default_rng(31)
    members = [AdaptedProcess(sp, 1, [g.integers(0, 4, size=2)[sp.atom_index(1)], g.integers(0, 4, size=6)]) for _ in range(3)]
    u = EntropicUtility(sp, alpha, 1)
    classes = [enumerate_class(X) for X in members]
    total = int(np.prod([c.size for c in classes]))
    table = whole_table(u, classes)
    screen, small, bound = screen_table(u, classes)
    assert total == 116_640 and np.all(np.abs(screen - table)[~small] <= bound)
    assert not _attains(table).any()
    assert_scan_is_the_table(Portfolio(members), u, table, f"alpha {alpha}")


def test_attains_tolerance_is_relative_above_one():
    best = np.array([1e3, -1e3, 0.5])
    rows = np.array([best - [5e-10, 5e-10, 5e-13], best - [2e-9, 0.0, 0.0], best - [0.0, 2e-9, 0.0], best - [0.0, 0.0, 2e-12]])
    assert _attains(rows, best).tolist() == [True, False, False, False]
    assert _attains(rows).tolist() == [True, False, False, False]
    assert bool(_attains(best - [5e-10, 5e-10, 5e-13], best)) and not _attains(best - [0.0, 0.0, 2e-12], best)


def oracle_consistency(up, samples, tol, constant=False):
    """time_consistency_check one (t, theta, sample) at a time, through
    public constructors and one stage ``evaluate`` per folded position, over
    the stopping times of ``test_space.grow_reference``, or with ``constant``
    over the constant ones only, as the check's deterministic-only mode."""
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
        # the recursive reference, not the level-wise enumeration the harness reads
        rows = [np.full(sp.n_outcomes, s) for s in range(t, up.t_end + 1)] if constant else grow_reference(sp, t)
        for theta in (StoppingTime(sp, values) for values in rows):
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
        samples = [AdaptedProcess(sp, up.t_start, random_adapted(sp, up.t_start, up.t_end, g).values * 2.0) for _ in range(2)]
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


@pytest.mark.parametrize("kind", ("entropic", "normalized", "mixed-alpha"))
def test_deterministic_only_recursion_matches_per_check_oracle(kind):
    """Beyond ``EXHAUSTIVE_LIMIT`` the check reads the constant stopping times
    only: on dyadic_uniform(4), a 9-outcome tree and random trees of 9 to 12
    outcomes, each report has the bits of the oracle run over those, still
    through the masked positions of one ``evaluate`` each."""
    nine = FiniteFilteredSpace(np.full(9, 1 / 9), [[tuple(range(9))], [(0, 1, 2), (3, 4, 5), (6, 7, 8)], [(w,) for w in range(9)]])
    g = np.random.default_rng([17, len(kind)])
    trees = [dyadic_uniform(4), nine] + [random_space(g, max_outcomes=12, min_outcomes=9) for _ in range(8)]
    failing = 0
    for i, sp in enumerate(trees):
        up = make_process(kind, sp, g)
        samples = [random_adapted(sp, up.t_start, up.t_end, g) for _ in range(2)]
        rep = time_consistency_check(up, samples=samples, tol=1e-9)
        worst, checked, failures, glued = oracle_consistency(up, samples, 1e-9, constant=True)
        assert rep.stopping_times == "deterministic-only", f"tree {i}"
        assert bits(rep.max_residual) == bits(worst), f"tree {i}"
        assert (rep.checked, rep.failures) == (checked, failures), f"tree {i}"
        failing += bool(failures)
        for s in range(up.t_start, up.t_end + 1):
            theta = StoppingTime.constant(sp, s)
            for idx, X in enumerate(samples):
                got = up.evaluate_at_stopping(theta, X)
                assert np.array_equal(bits(got), bits(glued[theta.values.tobytes(), idx])), f"tree {i}"
    if kind == "mixed-alpha":
        assert failing >= 5, "the failing reports' lists were not compared"


def plant_glue_defect(monkeypatch, where):
    """Make ``UtilityProcess._glue`` add 1e-6 on the last atom at the horizon,
    to its glued values or to the last stage's direct values."""
    real = UtilityProcess._glue

    def glue(self, thetas, xs):
        glued, direct = real(self, thetas, xs)
        if where == "glued":
            glued = glued.copy()
            glued[..., list(self.space.atoms(self.t_end)[-1])] += 1e-6
        else:
            direct = direct[:-1] + [direct[-1].copy()]
            direct[-1][..., -1] += 1e-6
        return glued, direct

    monkeypatch.setattr(UtilityProcess, "_glue", glue)


def planted_instance(kind, seed):
    g = np.random.default_rng([13, seed])
    sp = random_space(g, max_outcomes=6, max_horizon=3)
    up = make_process(kind, sp, g)
    return up, [random_adapted(sp, up.t_start, up.t_end, g) for _ in range(2)]


@pytest.mark.parametrize("kind", ("entropic", "normalized"))
@pytest.mark.parametrize("where", ("glued", "direct"))
def test_planted_glue_defect_fails_the_check_and_the_oracle(monkeypatch, kind, where):
    for seed in range(3):
        up, samples = planted_instance(kind, seed)
        T, M = up.t_end, up.space.n_outcomes
        rep = time_consistency_check(up, samples=samples)
        oracle = oracle_consistency(up, samples, 1e-9)
        assert rep.passed and (rep.checked, rep.failures) == oracle[1:3], f"seed {seed}"
        with monkeypatch.context() as m:
            plant_glue_defect(m, where)
            bad = time_consistency_check(up, samples=samples)
        # at t = T the fold is the glued value itself: the defect's 1e-6, exactly
        row = f"t={T}, theta={[T] * M}, sample 0: residual 1e-06"
        assert not bad.passed and row in bad.failures, f"seed {seed}"
        assert (bad.checked, bad.failures) != oracle[1:3], f"seed {seed}"


def test_dropped_stopping_time_changes_what_the_check_counts(monkeypatch):
    real = space_module._stopping_times
    for seed in range(3):
        up, samples = planted_instance("entropic", seed)
        want = oracle_consistency(up, samples, 1e-9)[1]
        assert time_consistency_check(up, samples=samples).checked == want, f"seed {seed}"
        with monkeypatch.context() as m:
            m.setattr(space_module, "_stopping_times", lambda *args: real(*args)[:-1])
            assert time_consistency_check(up, samples=samples).checked != want, f"seed {seed}"


def splice_times(sp, kind):
    """Splice times with their event enumerator, in the order of the per-splice loops."""
    if kind == "m1":
        return [(s, enumerate_events) for s in range(sp.horizon + 1)]
    if sp.n_outcomes <= 8 and sp.horizon <= 3:
        thetas = enumerate_stopping_times(sp)
    else:
        thetas = [StoppingTime.constant(sp, s) for s in range(sp.horizon + 1)]
    return [(theta, enumerate_stopping_events) for theta in thetas]


def oracle_stability(items, kind, cap=1_000_000, tol=1e-9):
    """stability_check one public concatenate or paste per splice:
    (stable, missing, context, generated)."""
    sp = items[0].space
    generated = 0
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            for at, events in splice_times(sp, kind):
                for mask in events(sp, at, cap=cap):
                    generated += 1
                    if generated > cap:
                        raise CapExceededError(f"stability enumeration exceeded {cap} elements")
                    if kind == "m1":
                        cand, ctx = paste(a, b, at, mask), f"paste(f{i}, g{j}, s={at}, |A|={int(mask.sum())})"
                    else:
                        cand = concatenate(a, b, at, mask)
                        ctx = f"concat(a{i}, b{j}, theta={at.values.tolist()}, |A|={int(mask.sum())})"
                    if not any(x.approx_eq(cand, tol) for x in items):
                        return False, cand, ctx, generated
    return True, None, None, generated


def oracle_closure(items, cap=10_000, tol=1e-9):
    """m1_closure one public paste per splice: each round pastes every pair
    that involves the last round's additions."""
    sp = items[0].space
    closed, frontier = list(items), list(items)
    while frontier:
        new = []
        for f in closed:
            for g in closed:
                if f in frontier or g in frontier:
                    for s in range(sp.horizon + 1):
                        for mask in enumerate_events(sp, s):
                            cand = paste(f, g, s, mask)
                            if not any(x.approx_eq(cand, tol) for x in closed + new):
                                new.append(cand)
                                if len(closed) + len(new) > cap:
                                    raise CapExceededError(f"pasting closure exceeded {cap} members")
        closed += new
        frontier = new
    return closed


def assert_same_report(rep, oracle, mode, label):
    stable, missing, ctx, generated = oracle
    assert (rep.stable, rep.context, rep.generated, rep.stopping_times) == (stable, ctx, generated, mode), label
    assert type(rep.generated) is int, label
    if missing is None:
        assert rep.missing is None, label
    else:
        assert np.array_equal(bits(payload(rep.missing)), bits(payload(missing))), label


def payload(x):
    return x.h if isinstance(x, TerminalDensity) else x.values


def assert_same_cap_error(items, kind, cap, label):
    try:
        oracle_stability(items, kind, cap)
    except CapExceededError as e:
        with pytest.raises(CapExceededError, match=re.escape(str(e))):
            stability_check(items, kind, cap=cap)
    else:
        raise AssertionError(f"{label}: cap {cap} is not below the splice count")


def test_stacked_concatenation_check_matches_per_splice_oracle():
    unstable = compared = 0
    for seed in range(60):
        g = np.random.default_rng([12, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        # the oracle spends about 0.1 ms per splice; a few trees have over 10^4
        if sum(len(enumerate_stopping_events(sp, th)) for th, _ in splice_times(sp, "concatenation")) > 300:
            continue
        t0 = int(g.integers(0, sp.horizon))
        dens = [random_density(sp, t0, sp.horizon, g, strict=bool(g.random() < 0.7)) for _ in range(2)]
        # singletons are stable, pairs mostly not
        for items in (dens[:1], dens):
            oracle = oracle_stability(items, "concatenation")
            assert_same_report(stability_check(items, "concatenation"), oracle, "all", f"seed {seed}")
            unstable += not oracle[0]
            compared += 1
            assert_same_cap_error(items, "concatenation", int(g.integers(0, oracle[3])), f"seed {seed}")
    assert compared >= 80 and unstable >= 20, "too few sets were compared"


def test_stacked_pasting_check_and_closure_match_per_splice_oracle():
    unstable = stable = 0
    for seed in range(60):
        g = np.random.default_rng([13, seed])
        sp = random_space(g, max_outcomes=4, max_horizon=3)
        gens = [random_terminal_density(sp, g) for _ in range(int(g.integers(2, 4)))]
        closed = m1_closure(gens)
        if len(closed) > 8:  # the oracle's cost grows with the square of the closure
            continue
        want = oracle_closure(gens)
        assert len(closed) == len(want), f"seed {seed}"
        for x, y in zip(closed, want):
            assert np.array_equal(bits(x.h), bits(y.h)), f"seed {seed}"
        if len(closed) > len(gens):
            cap = int(g.integers(len(gens), len(closed)))
            with pytest.raises(CapExceededError, match=f"pasting closure exceeded {cap} members"):
                oracle_closure(gens, cap)
            with pytest.raises(CapExceededError, match=f"pasting closure exceeded {cap} members"):
                m1_closure(gens, cap)
        # the closure is stable; without its last addition it usually is not
        for items in (gens, closed, closed[:-1]):
            oracle = oracle_stability(items, "m1")
            assert_same_report(stability_check(items, "m1"), oracle, "all", f"seed {seed}")
            stable += oracle[0]
            unstable += not oracle[0]
            assert_same_cap_error(items, "m1", int(g.integers(0, oracle[3])), f"seed {seed}")
    assert stable >= 100 and unstable >= 20, "too few stable or unstable sets were compared"


def test_stacked_checks_raise_what_the_per_splice_oracle_raises():
    """Invalid operands or outputs, and enumeration caps, surface the scalar route's exception."""
    g = np.random.default_rng(14)
    sp = random_space(g, min_outcomes=4, max_outcomes=4, max_horizon=2)
    a = random_density(sp, 0, sp.horizon, g, strict=True)
    negative = DensityProcess(sp, 0, -a.values)
    later = uniform_density(sp, 1, sp.horizon)
    two = FiniteFilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]]])
    # pasting these at t=1 multiplies 1e-200 by 1e-200 and underflows to 0
    tiny = [TerminalDensity.normalized(two, [1e-200, 1.0]), TerminalDensity.normalized(two, [1e-200, 3.0])]
    f = random_terminal_density(sp, g)
    elsewhere = random_terminal_density(random_space(g, min_outcomes=4, max_outcomes=4, max_horizon=2), g)
    cases = [
        ([a, negative], "concatenation"),
        ([negative, a], "concatenation"),
        ([a, later], "concatenation"),
        ([a, a, later], "concatenation"),
        (tiny, "m1"),
        ([f, f, elsewhere], "m1"),
    ]
    for items, kind in cases:
        with pytest.raises(ValueError) as want:
            oracle_stability(items, kind)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            stability_check(items, kind)
    for items in (tiny, [f, elsewhere]):
        with pytest.raises(ValueError) as want:
            oracle_closure(items)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            m1_closure(items)
    # small caps stop the event enumeration itself, larger ones the splice count; on
    # the two-outcome tree, cap 2 stops both at the same splice and the enumeration wins
    split = TerminalDensity(two, [0.5, 1.5])
    for cap in range(6):
        assert_same_cap_error([a, a], "concatenation", cap, f"cap {cap}")
        assert_same_cap_error([f, f], "m1", cap, f"cap {cap}")
        assert_same_cap_error([split, split], "m1", cap, f"cap {cap}")


def test_stacked_pasting_defers_to_paste_near_the_unit_mean_bound():
    """Means within 1e-12 of 1 but past half of it: every candidate goes through paste."""
    g = np.random.default_rng(3)
    sp = random_space(g, min_outcomes=4, max_outcomes=4, max_horizon=2)
    gens = [TerminalDensity(sp, random_terminal_density(sp, g).h * (1 + 0.8e-12)) for _ in range(2)]
    want = oracle_closure(gens)
    closed = m1_closure(gens)
    assert len(closed) == len(want) > len(gens)
    for x, y in zip(closed, want):
        assert np.array_equal(bits(x.h), bits(y.h))
    for items in (gens, closed):
        assert_same_report(stability_check(items, "m1"), oracle_stability(items, "m1"), "all", "near the bound")


def oracle_pairing(X, a, t, t_end):
    """E(sum_s X_s delta a_s | F_t), summed in time order from zero."""
    total = np.zeros(X.space.n_outcomes)
    for s in range(t, t_end + 1):
        total += X.slice_at(s) * a.slice_at(s)
    return cond_expect(X.space, total, t).values


def test_stacked_pairings_match_pairing_bitwise():
    """One _pairings pass over a class stack, for every (t, t_end), against one
    pairing per member and a test-local sum; max_correlation and the scan's
    features read the same stack."""
    sizes = []
    for seed in range(30):
        g = np.random.default_rng([12, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.7))
        X = random_adapted(sp, 0, sp.horizon, g)
        cls = enumerate_class(X)
        sizes.append(cls.size)
        a = random_density(sp, 0, sp.horizon, g)
        for t in range(sp.horizon + 1):
            for t_end in range(t, sp.horizon + 1):
                got = _pairings(sp, cls.values[:, t : t_end + 1], a.values[t : t_end + 1], t)
                want = np.stack([oracle_pairing(m, a, t, t_end) for m in cls.members])
                assert np.array_equal(bits(got), bits(want)), f"seed {seed}, window [{t}, {t_end}]"
                one = np.stack([pairing(m, a, t, t_end).values for m in cls.members])
                assert np.array_equal(bits(one), bits(want)), f"seed {seed}, window [{t}, {t_end}]"
                mc = max_correlation(a, X, t, t_end)
                assert np.array_equal(bits(mc.value.values), bits(want.max(axis=0))), f"seed {seed}"
        u = random_dual_utility(sp, int(g.integers(0, sp.horizon + 1)), sp.horizon, g)
        stacked = u._features(u._window(X, cls.values))
        per_member = u._features(np.stack([u._window(m) for m in cls.members]))
        assert np.array_equal(bits(stacked), bits(per_member)), f"seed {seed}"
    assert max(sizes) > 10, "no sizeable class was paired"


def oracle_thm31(marginals, u, cap, tol):
    """verify_theorem_3_1 one call at a time: each class enumerated where it is
    used, one pairing per member, certificates that enumerate their own classes."""
    t, t_end = u.t_start, u.t_end
    lhs = worst_portfolio_bruteforce(marginals, u, cap)
    ws = worst_scenario([a for a, _ in u.scenarios], marginals, u, cap)
    residual = lhs.sup_value.max_residual(ws.value)
    uniform_sets = []
    for X in marginals.members:
        members = enumerate_class(X, cap).members
        table = np.stack([pairing(m, ws.a0, t, t_end).values for m in members])
        floor = table.max(axis=0) - 1e-12 * np.maximum(1.0, np.abs(table.max(axis=0)))
        uniform_sets.append([m for m, row in zip(members, table) if np.all(row >= floor)])
    found = None
    if all(uniform_sets) and int(np.prod([len(s) for s in uniform_sets])) <= cap:
        combos = itertools.product(*uniform_sets)
        found = next((c for c in combos if is_comonotone(ws.a0, list(c), tol, cap).comonotone), None)
    attain = None if found is None else lhs.sup_value.max_residual(u.insurance(Portfolio(list(found)).mean()))
    return residual, lhs.sup_value, ws.value, found, attain


def test_class_reusing_duality_harness_matches_per_call_oracle():
    found = 0
    for seed in range(60):
        g = np.random.default_rng([13, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.7))
        t0 = int(g.integers(0, sp.horizon))
        t1 = min(sp.horizon, t0 + int(g.integers(1, 3)))
        members = [random_adapted(sp, t0, t1, g) for _ in range(int(g.integers(1, 4)))]
        if g.random() < 0.3:
            members.append(AdaptedProcess.constant(sp, t0, t1, float(g.normal())))
        if np.prod([enumerate_class(X).size for X in members]) > 5000:
            continue
        u = random_coherent_utility(sp, t0, t1, g, n_scenarios=int(g.integers(1, 4)))
        rep = verify_theorem_3_1(Portfolio(members), u, tol=1e-9)
        # fresh copies of the members, so the oracle searches every class again
        residual, sup, scen, combo, attain = oracle_thm31(Portfolio([fresh(X) for X in members]), u, 1_000_000, 1e-9)
        label = f"seed {seed}"
        assert bits(rep.equality_residual) == bits(residual), label
        assert rep.equality_holds == (residual <= 1e-9), label
        assert np.array_equal(bits(rep.portfolio_value.values), bits(sup.values)), label
        assert np.array_equal(bits(rep.scenario_value.values), bits(scen.values)), label
        assert rep.comonotone_found == (combo is not None), label
        if combo is not None:
            found += 1
            for got, want in zip(rep.comonotone_tuple.members, combo):
                assert np.array_equal(bits(got.values), bits(want.values)), label
            assert bits(rep.attain_residual) == bits(attain), label
            assert rep.attains == (attain <= 1e-9), label
        else:
            assert rep.attain_residual is None and rep.attains is None, label
    assert found >= 10, "too few comonotone tuples were compared"


def _verify_theorem_3_1_reference(marginals, u, cap=1_000_000, tol=1e-9):
    """verify_theorem_3_1 with every pairing priced where it is used, each
    public call enumerating its own classes: the public worst_scenario,
    uniform attainers from _class_pairings of the scan's classes against a0,
    and the public is_comonotone per combination."""
    t, t_end = u.t_start, u.t_end
    lhs = worst_portfolio_bruteforce(marginals, u, cap)
    ws = worst_scenario([a for a, _ in u.scenarios], marginals, u, cap)
    residual = lhs.sup_value.max_residual(ws.value)
    uniform_sets = [
        [m for m, keep in zip(cls.members, _attains(_class_pairings(cls, ws.a0, t, t_end))) if keep]
        for cls in lhs.classes
    ]
    found = None
    for combo in itertools.product(*uniform_sets):
        if is_comonotone(ws.a0, list(combo), tol, cap).comonotone:
            found = Portfolio(list(combo))
            break
    attain_res = attains = None
    if found is not None:
        attain_res = lhs.sup_value.max_residual(u.insurance(found.mean()))
        attains = attain_res <= tol
    return Thm31Report(residual, residual <= tol, lhs.sup_value, ws.value, found is not None, found, attain_res, attains, tol)


def gate_shaped_instance(i, values=None):
    """The duality gate's instance 3000 + i (tests/test_acceptance.py); with
    ``values``, the same shapes with values drawn from default_rng([values, 3000 + i])."""
    g = np.random.default_rng(3000 + i)
    v = g if values is None else np.random.default_rng([values, 3000 + i])
    while True:
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.5))
        t0 = int(g.integers(0, sp.horizon))
        t1 = min(sp.horizon, t0 + int(g.integers(1, 3)))
        n = int(g.integers(1, 4))
        members = []
        if g.random() < 0.2:
            members.append(AdaptedProcess.constant(sp, t0, t1, float(v.normal())))
        while len(members) < n:
            members.append(random_adapted(sp, t0, t1, v))
        if int(np.prod([enumerate_class(X, 200_000).size for X in members])) <= 200_000:
            break
    zero = ConditionalValue.constant(sp, t0, 0.0)
    scenarios = [(random_density(sp, t0, t1, v, strict=True), zero) for _ in range(int(g.integers(1, 4)))]
    return Portfolio(members), DualFiniteUtility(sp, t0, t1, scenarios)


def drawn_instance(seed, late, one_member):
    """A coherent instance on a random window, from t >= 1 when ``late``,
    of one member when ``one_member``; None when its search exceeds 5000 tuples."""
    g = np.random.default_rng([19, seed, late, one_member])
    sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.6))
    if late and sp.horizon < 2:
        return None
    t0 = int(g.integers(1 if late else 0, sp.horizon))
    t1 = min(sp.horizon, t0 + int(g.integers(0, 3)))
    members = [random_adapted(sp, t0, t1, g) for _ in range(1 if one_member else int(g.integers(1, 4)))]
    if g.random() < 0.2:
        members[-1] = AdaptedProcess.constant(sp, t0, t1, float(g.normal()))
    if np.prod([enumerate_class(X).size for X in members]) > 5000:
        return None
    return Portfolio(members), random_coherent_utility(sp, t0, t1, g, n_scenarios=int(g.integers(1, 4)))


DUALITY_FAMILIES = {
    "gate": lambda: (gate_shaped_instance(i) for i in range(100)),
    "seed-drawn": lambda: (gate_shaped_instance(i, s) for s in (1, 2, 3) for i in range(100)),
    "late": lambda: (drawn_instance(s, True, False) for s in range(100)),
    "one-member": lambda: (drawn_instance(s, False, True) for s in range(60)),
}


@pytest.mark.parametrize("family", DUALITY_FAMILIES)
def test_shared_pairing_table_matches_reference_duality_route(family):
    """verify_theorem_3_1 reads the scenario side, the uniform attainers and
    the member certificates from the scan's dual features; every field of its
    report has the bits of the route that prices each pairing where it is used."""
    checked = found = 0
    for k, inst in enumerate(DUALITY_FAMILIES[family]()):
        if inst is None:
            continue
        marg, u = inst
        label = f"{family} {k}"
        got = verify_theorem_3_1(marg, u, cap=400_000, tol=1e-9)
        want = _verify_theorem_3_1_reference(Portfolio([fresh(X) for X in marg.members]), u, cap=400_000, tol=1e-9)
        checked += 1
        assert bits(got.equality_residual) == bits(want.equality_residual), label
        assert got.equality_holds == want.equality_holds, label
        assert np.array_equal(bits(got.portfolio_value.values), bits(want.portfolio_value.values)), label
        assert np.array_equal(bits(got.scenario_value.values), bits(want.scenario_value.values)), label
        assert got.comonotone_found == want.comonotone_found, label
        assert got.attains == want.attains and got.tol == want.tol, label
        if want.comonotone_tuple is None:
            assert got.comonotone_tuple is None and got.attain_residual is None, label
            continue
        found += 1
        assert bits(got.attain_residual) == bits(want.attain_residual), label
        for x, y in zip(got.comonotone_tuple.members, want.comonotone_tuple.members, strict=True):
            assert x.values.tobytes() == y.values.tobytes(), label
    assert checked >= 40 and found >= 10, (checked, found)


def test_pairings_against_the_glued_scenario_are_gathered_feature_columns():
    """On atom k the worst scenario a0 copies scenario choice[k], so a class's
    pairings against a0 are its dual features' columns feats[:, choice, atom]."""
    for k, inst in enumerate(DUALITY_FAMILIES["gate"]()):
        marg, u = inst
        lhs = worst_portfolio_bruteforce(marg, u, 400_000)
        ws = worst_scenario([a for a, _ in u.scenarios], marg, u)
        for cls, f in zip(lhs.classes, lhs._features, strict=True):
            gathered = f[:, ws.per_atom_choice, np.arange(f.shape[-1])]
            assert _class_pairings(cls, ws.a0, u.t_start, u.t_end).tobytes() == gathered.tobytes(), f"gate {k}"


def test_worst_scenario_matches_per_candidate_average_risk_bitwise():
    """worst_scenario reads each class once and prices every candidate in one
    pass; it reports what a table of one average_risk per candidate reports,
    bit for bit, with -inf penalties from candidates outside the scenario set
    of coherent and non-coherent utilities."""
    knocked = 0
    for seed in range(40):
        g = np.random.default_rng([41, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.7))
        t0 = int(g.integers(0, sp.horizon))
        t1 = min(sp.horizon, t0 + int(g.integers(1, 3)))
        members = [random_adapted(sp, t0, t1, g) for _ in range(int(g.integers(1, 4)))]
        classes = [enumerate_class(X) for X in members]
        if np.prod([c.size for c in classes]) > 5000:
            continue
        make = random_coherent_utility if seed % 2 else random_dual_utility
        u = make(sp, t0, t1, g, n_scenarios=int(g.integers(1, 4)))
        outside = [random_density(sp, 0, t1, g) for _ in range(int(g.integers(0, 3)))]
        candidates = [a for a, _ in u.scenarios] + outside
        marg = Portfolio(members)
        copies = Portfolio([fresh(X) for X in members])  # classes searched apart from the harness's
        table = np.stack([average_risk(c, copies, u).values for c in candidates])
        best = table.max(axis=0)
        floor = best - 1e-12 * np.maximum(1.0, np.abs(best))
        single = any(bool(np.all(row >= floor)) for row in table)
        choice = np.argmax(table >= best - 1e-15, axis=0).tolist()
        knocked += bool(np.isneginf(table).any())
        res = worst_scenario(candidates, marg, u)
        label = f"seed {seed}"
        assert np.array_equal(bits(res.value.values), bits(best)), label
        assert res.per_atom_choice == choice, label
        assert res.single_attainment == single, label
    assert knocked >= 10, "too few tables held a -inf penalty"


def oracle_linear_driven(portfolio, a, mask):
    """Stage residuals of verify_linear_driven_portfolio, one conditional
    expectation of the summed products per class member."""
    sp = portfolio.space
    masked = mask[None, :] * a.values
    residuals = []
    for t in range(portfolio.t_start, portfolio.t_end + 1):
        m_vals = masked[t - a.t_start :]
        worst = 0.0
        for X in portfolio.members:
            Xres = X.restrict(t)
            direct = cond_expect(sp, (Xres.values * m_vals).sum(axis=0), t).values
            best = direct.copy()
            for m in enumerate_class(Xres).members:
                best = np.maximum(best, cond_expect(sp, (m.values * m_vals).sum(axis=0), t).values)
            worst = max(worst, float((best - direct).max()))
        residuals.append(worst)
    return residuals


def test_linear_driven_stages_match_per_member_oracle():
    failing = 0
    for seed in range(40):
        g = np.random.default_rng([14, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.7))
        a = random_density(sp, 0, sp.horizon, g)
        L = sp.horizon + 1
        mats = []
        for _ in range(int(g.integers(1, 4))):
            R = g.normal(size=(L, L))
            mats.append(R @ R.T if g.random() < 0.2 else np.diag(np.abs(g.normal(size=L))))
        shifts = [g.normal(size=L) for _ in mats]
        try:
            port = build_linear_driven_portfolio(a, mats, shifts, np.ones(sp.n_outcomes, dtype=bool))
        except ValueError:
            continue  # a mixing matrix made a member non-adapted
        for mask in (np.ones(sp.n_outcomes, dtype=bool), sp.atom_index(1) == 0):
            rep = verify_linear_driven_portfolio(port, a, mask)
            want = oracle_linear_driven(port, a, mask)
            assert [bits(s.residual) for s in rep.stages] == [bits(r) for r in want], f"seed {seed}"
            assert [s.passed for s in rep.stages] == [r <= 1e-9 for r in want], f"seed {seed}"
            failing += not rep.passed
    assert failing >= 5, "no failing stage residual was compared"


def penalty_instance(g):
    """A coherent or penalised utility on a tree with at most five variables
    per start atom, so that the vertex oracle stays quick; on some draws a
    scenario is dead (gamma = -inf) on part of the atoms.  The targets are
    the scenarios and a mixture of them, inside the cone, and a random and a
    time-0-concentrated density, mostly outside it."""
    while True:
        sp = random_space(g, max_outcomes=4, max_horizon=2)
        n = int(g.integers(1, 4))
        make = random_coherent_utility if g.random() < 0.5 else random_dual_utility
        u = make(sp, 0, sp.horizon, g, n_scenarios=n)
        if np.bincount(u._variables[2]).max() <= 5:
            break
    if n > 1 and g.random() < 0.4:
        dead = np.where(g.random(sp.n_atoms(0)) < 0.6, -np.inf, 0.0)
        dead[0] = -np.inf
        scen = u.scenarios[:-1] + [(u.scenarios[-1][0], ConditionalValue(sp, 0, dead))]
        u = DualFiniteUtility(sp, 0, sp.horizon, scen)
    (a1, _), (a2, _) = u.scenarios[0], u.scenarios[-1]
    conc = np.zeros((sp.horizon + 1, sp.n_outcomes))
    conc[0] = 1.0
    targets = [a for a, _ in u.scenarios] + [
        DensityProcess(sp, 0, 0.3 * a1.values + 0.7 * a2.values),
        random_density(sp, 0, sp.horizon, g, strict=True),
        DensityProcess(sp, 0, conc),
    ]
    return u, targets


def assert_same_penalties(got, want, label):
    """Identical -inf patterns and finite values within 1e-8."""
    assert np.array_equal(np.isneginf(got), np.isneginf(want)), f"{label}: {got} vs {want}"
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-8), f"{label}: {got} vs {want}"


def test_dual_penalty_matches_vertex_oracle_and_highs_dual(monkeypatch):
    counts = {"neg_inf": 0, "finite": 0, "dead": 0}
    for seed in range(20):
        g = np.random.default_rng([15, seed])
        u, targets = penalty_instance(g)
        counts["dead"] += bool(u._dead.any())
        got = _penalties(u, targets)
        one = np.array([penalty(u, a).values for a in targets])
        assert np.array_equal(bits(got), bits(one)), f"seed {seed}: stacked pricing moved bits"
        oracle = np.array([penalty_vertices(u, a).values for a in targets])
        with monkeypatch.context() as m:
            m.setattr(lp, "SUPPORT_LIMIT", 0)  # every atom with a live scenario goes to HiGHS
            highs = _penalties(u, targets)
        assert_same_penalties(got, oracle, f"seed {seed}, vertex oracle")
        assert_same_penalties(got, highs, f"seed {seed}, HiGHS on the dual")
        counts["neg_inf"] += int(np.isneginf(got).sum())
        counts["finite"] += int(np.isfinite(got).sum())
    assert min(counts.values()) > 0, counts


def test_dual_penalty_above_the_support_limit_goes_to_highs(monkeypatch):
    sp = FiniteFilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]]])  # three variables on [0, 1]
    n = 20
    assert lp.support_count(n, 3) > lp.SUPPORT_LIMIT
    calls = []
    solve = lp.maximize_dual_highs
    monkeypatch.setattr(lp, "maximize_dual_highs", lambda *args: calls.append(1) or solve(*args))
    seen = set()
    for seed, make in ((0, random_coherent_utility), (1, random_dual_utility)):
        g = np.random.default_rng([16, seed])
        u = make(sp, 0, 1, g, n_scenarios=n)
        targets = [a for a, _ in u.scenarios[:2]] + [random_density(sp, 0, 1, g, strict=True) for _ in range(3)]
        targets.append(DensityProcess(sp, 0, [[1.0, 1.0], [0.0, 0.0]]))
        got = _penalties(u, targets)
        assert len(calls) == len(targets), "the fallback did not run"
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(lp, "SUPPORT_LIMIT", lp.support_count(n, 3))
            enumerated = _penalties(u, targets)
        assert not calls, "the enumeration called HiGHS"
        assert_same_penalties(got, enumerated, f"seed {seed}, enumeration")
        oracle = np.array([penalty_vertices(u, a).values for a in targets])
        assert_same_penalties(got, oracle, f"seed {seed}, vertex oracle")
        seen.update(np.isfinite(got[:, 0]))
    assert seen == {True, False}, "needs finite and -inf targets"


def assert_own_penalties_positive_zero(u, label):
    for i, (a, _) in enumerate(u.scenarios):
        vals = penalty(u, a).values
        assert np.array_equal(bits(vals), bits(np.zeros_like(vals))), f"{label}, scenario {i}: {vals}"


def test_coherent_penalty_is_positive_zero_at_its_own_scenarios(monkeypatch):
    """What lets verify_theorem_3_1 skip the penalty LPs: at a coherent
    utility's own scenarios they return +0.0, on windows to the horizon, on
    the duality gate's windows (some end before it), and from HiGHS above
    the support limit."""
    for seed in range(40):
        g = np.random.default_rng([17, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        t0 = int(g.integers(0, sp.horizon + 1))
        u = random_coherent_utility(sp, t0, sp.horizon, g, n_scenarios=int(g.integers(1, 5)))
        assert_own_penalties_positive_zero(u, f"seed {seed}")
    short = 0
    for k, (_, u) in enumerate(DUALITY_FAMILIES["gate"]()):
        short += u.t_end < u.space.horizon
        assert_own_penalties_positive_zero(u, f"gate {k}")
    assert short >= 10, "too few gate windows end before the horizon"
    # 11 scenarios on the 15 variables of dyadic_uniform(3): 2,047 supports, priced by HiGHS
    u = random_coherent_utility(dyadic_uniform(3), 0, 3, np.random.default_rng(18), n_scenarios=11)
    assert lp.support_count(11, 15) > lp.SUPPORT_LIMIT and u._variables[2].size == 15
    calls = []
    solve = lp.maximize_dual_highs
    monkeypatch.setattr(lp, "maximize_dual_highs", lambda *args: calls.append(1) or solve(*args))
    assert_own_penalties_positive_zero(u, "above the support limit")
    assert len(calls) == 11 and not u._supports, "the penalties did not go to HiGHS"


def test_duality_check_prices_no_penalty(monkeypatch):
    """verify_theorem_3_1 adds zero penalties without an LP; worst_scenario,
    whose candidates are arbitrary, still prices them."""
    penalties, supports = [], []
    price, factor = worstcase._penalties, lp.DualSupports

    def counted_penalties(*args):
        penalties.append(1)
        return price(*args)

    def counted_supports(*args):
        supports.append(1)
        return factor(*args)

    monkeypatch.setattr(worstcase, "_penalties", counted_penalties)
    monkeypatch.setattr(lp, "DualSupports", counted_supports)
    marg, u = gate_shaped_instance(0)
    verify_theorem_3_1(marg, u, cap=400_000, tol=1e-9)
    assert (len(penalties), len(supports)) == (0, 0)
    worst_scenario([a for a, _ in u.scenarios], marg, u)
    assert len(penalties) == 1 and len(supports) == u.space.n_atoms(u.t_start)


def test_duality_gate_equality_is_exact(duality_instances):  # noqa: F811
    reports, _ = duality_instances
    worst = max(rep.equality_residual for _, rep in reports)
    assert worst <= 1e-15, f"worst equality residual {worst:.3g}"


def wide_space(g):
    """9 to 12 singleton atoms from t=1 on: the axiom sweeps sample their events."""
    m = int(g.integers(9, 13))
    probs = g.random(m) + 0.2
    return FiniteFilteredSpace(probs / probs.sum(), [[list(range(m))]] + [[[k] for k in range(m)]] * 2)


def first_failure(cases):
    """(passed, samples, counterexample) of a loop over (failed, text) cases
    that stops at its first failure."""
    for k, (failed, text) in enumerate(cases):
        if failed:
            return False, k + 1, text
    return True, len(cases), None


def oracle_relevance(u):
    """A loss on each atom at each time of the window, one evaluate per case."""
    sp, t, T = u.space, u.t_start, u.t_end
    cases = []
    for s in range(t, T + 1):
        for atom in sp.atoms(s):
            mask = np.zeros(sp.n_outcomes, dtype=bool)
            mask[list(atom)] = True
            for eps in (1.0, 0.1, 0.01):
                vals = np.zeros((T - t + 1, sp.n_outcomes))
                vals[s - t :] = -eps * mask
                lifted = u.evaluate(AdaptedProcess(sp, t, vals)).lift()
                cases.append((np.any(lifted[mask] >= 0), f"loss of {eps} on atom {atom} at t={s} not priced below zero"))
    return first_failure(cases)


def oracle_axioms(u, sample_count, seed, tol):
    """check_axioms with one public evaluate per sample.  Each sweep takes
    all its draws before it evaluates, as the stacked route does, so the
    two agree even after a sweep fails."""
    rng = np.random.default_rng(seed)
    sp, t, T = u.space, u.t_start, u.t_end
    n = sp.n_atoms(t)

    def phi(vals):
        return u.evaluate(AdaptedProcess(sp, t, vals)).values

    xs = [random_adapted(sp, t, T, rng) for _ in range(sample_count)]
    out = {}
    cases = []
    for X in xs:
        events = enumerate_events(sp, t) if n <= 8 else [(rng.random(n) < 0.5)[sp.atom_index(t)] for _ in range(32)]
        for mask in events:
            want = np.where([mask[atom[0]] for atom in sp.atoms(t)], phi(X.values), 0.0)
            gap = np.abs(phi(X.values * mask) - want).max()
            cases.append((gap > tol, f"event of size {int(mask.sum())}, residual {gap:.3g}"))
    out["locality"] = first_failure(cases)
    bumps = [random_adapted(sp, t, T, rng) for _ in xs]
    cases = []
    for X, B in zip(xs, bumps):
        gap = (phi(X.values) - phi(X.values + np.abs(B.values))).max()
        cases.append((gap > tol, f"phi(X) exceeds phi(Y) by {gap:.3g} despite X <= Y"))
    out["monotonicity"] = first_failure(cases)
    shifts = [random_conditional(sp, t, rng, -2.0, 2.0) for _ in xs]
    cases = []
    for X, m in zip(xs, shifts):
        res = u.evaluate(AdaptedProcess(sp, t, X.values + m.lift())).max_residual(ConditionalValue(sp, t, u.evaluate(X).values + m.values))
        cases.append((res > tol, f"shift residual {res:.3g}"))
    out["cash_invariance"] = first_failure(cases)
    draws = [(random_adapted(sp, t, T, rng), random_conditional(sp, t, rng, 0.0, 1.0)) for _ in xs]
    cases = []
    for X, (Y, lam) in zip(xs, draws):
        lhs = phi(X.values * lam.lift() + Y.values * (1.0 - lam.lift()))
        gap = (lam.values * phi(X.values) + (1.0 - lam.values) * phi(Y.values) - lhs).max()
        cases.append((gap > tol, f"concavity violated by {gap:.3g}"))
    out["concavity"] = first_failure(cases)
    thirds = [random_conditional(sp, t, rng, 0.0, 3.0) for _ in xs]
    cases = []
    for X, third in zip(xs, thirds):
        for lam in (ConditionalValue.constant(sp, t, 2.0), ConditionalValue.constant(sp, t, 0.5), third):
            gap = np.abs(phi(X.values * lam.lift()) - lam.values * phi(X.values)).max()
            text = f"scaling by {np.array2string(lam.values, precision=3)} moves the value by {gap:.3g}"
            cases.append((gap > tol, text))
    out["coherence"] = first_failure(cases)
    out["continuity"] = (None, 0, None)
    out["relevance"] = oracle_relevance(u)
    return out


def axiom_table(rep):
    return {k: (r.passed, r.samples, r.counterexample) for k, r in rep.results.items()}


def test_stacked_axiom_sweeps_match_per_sample_oracle():
    """Identical reports on every family, with enumerated and with sampled
    events, and on an unvalidated dual whose monotonicity fails."""
    failed = set()
    for seed in range(16):
        g = np.random.default_rng([18, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3) if seed % 2 else wide_space(g)
        t0 = int(g.integers(0, sp.horizon + 1)) if seed % 2 else 1
        for family in FAMILIES:
            u = make_utility(family, sp, t0, g)
            count = int(g.integers(1, 4))
            want = oracle_axioms(u, count, seed, 1e-9)
            assert axiom_table(check_axioms(u, count, seed, 1e-9)) == want, f"seed {seed}, {family}"
            failed.update(k for k, (passed, _, _) in want.items() if passed is False)
    assert failed == {"coherence"}, "the entropic families must fail coherence, and only coherence"
    # negative increments break monotonicity; on the wide tree its
    # counterexample also depends on the events the locality sweep drew
    g = np.random.default_rng(19)
    for sp, t0 in ((random_space(g, min_outcomes=4, max_outcomes=4, max_horizon=2), 0), (wide_space(g), 1)):
        a = random_density(sp, t0, sp.horizon, g, strict=True)
        zero = ConditionalValue.constant(sp, t0, 0.0)
        u = DualFiniteUtility(sp, t0, sp.horizon, [(a, zero), (a, zero)])
        u._increments[0] -= 0.8  # not a density, which the constructor refuses
        want = oracle_axioms(u, 6, 3, 1e-9)
        assert want["monotonicity"][0] is False
        assert axiom_table(check_axioms(u, 6, 3, 1e-9)) == want


def test_stacked_routes_refuse_what_evaluate_refuses():
    """A dual with every scenario knocked out on an atom would be +inf there,
    which no conditional value holds.  The constructor refuses it, as penalties
    whose atom-wise max is not 0, so that neither evaluate nor a route that
    stacks positions ever meets it."""
    sp = FiniteFilteredSpace([0.25] * 4, [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]])
    dead = ConditionalValue(sp, 1, [0.0, -np.inf])
    scenarios = [(uniform_density(sp, 1, 2), dead), (uniform_density(sp, 1, 2), dead)]
    with pytest.raises(ValueError, match="penalties are not normalized"):
        DualFiniteUtility(sp, 1, 2, scenarios)
    # one live scenario on the atom is enough
    live = ConditionalValue(sp, 1, [-np.inf, 0.0])
    u = DualFiniteUtility(sp, 1, 2, [scenarios[0], (uniform_density(sp, 1, 2), live)])
    assert np.isfinite(u.evaluate(AdaptedProcess(sp, 1, [[1, 1, 2, 2], [1, 2, 3, 4]])).values).all()


def test_stacked_relevance_matches_per_case_oracle():
    for seed in range(30):
        g = np.random.default_rng([20, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        u = make_utility(FAMILIES[seed % 4], sp, int(g.integers(0, sp.horizon + 1)), g)
        res = _check_relevance(u)
        assert (res.passed, res.samples, res.counterexample) == oracle_relevance(u), f"seed {seed}"
    two = FiniteFilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]]])
    blind = DualFiniteUtility(two, 0, 1, [(DensityProcess(two, 0, [[0, 0], [2, 0]]), ConditionalValue.constant(two, 0, 0.0))])
    res = _check_relevance(blind)
    assert res.passed is False
    assert (res.passed, res.samples, res.counterexample) == oracle_relevance(blind)


def test_stacked_law_invariance_matches_per_member_oracle():
    seen = set()
    for seed in range(40):
        g = np.random.default_rng([21, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.7))
        t0 = int(g.integers(0, sp.horizon + 1))
        u = make_utility(FAMILIES[seed % 4], sp, t0, g)
        X = random_adapted(sp, 0, sp.horizon, g)
        base = u.evaluate(X)
        want = all(u.evaluate(m).max_residual(base) <= 1e-9 for m in enumerate_class(X).members)
        assert check_law_invariance(u, fresh(X), tol=1e-9) == want, f"seed {seed}"
        seen.add(want)
    assert seen == {True, False}, "needs invariant and non-invariant cases"


def test_stacked_matrix_sup_matches_per_matrix_oracle():
    uniform_seen = set()
    for seed in range(40):
        g = np.random.default_rng([22, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        t0 = int(g.integers(0, sp.horizon + 1))
        u = make_utility(FAMILIES[seed % 4], sp, t0, g)
        X = random_adapted(sp, t0, sp.horizon, g)
        L = sp.horizon - t0 + 1
        mats = [np.tril(g.random((L, L))) for _ in range(int(g.integers(1, 5)))]
        mats = [A / A.sum(axis=1, keepdims=True) for A in mats]
        mats.insert(int(g.integers(0, len(mats) + 1)), mats[0])  # ties between matrices
        table = np.stack([u.insurance(apply_matrix(A, X)).values for A in mats])
        best = table.max(axis=0)
        uniform = next((i for i, row in enumerate(table) if np.all(row >= best - 1e-12 * np.maximum(1.0, np.abs(best)))), None)
        got = matrix_sup(u, X, mats)
        assert np.array_equal(bits(got.value.values), bits(best)), f"seed {seed}"
        assert got.per_atom_argmax == [int(np.flatnonzero(col >= col.max() - 1e-15)[0]) for col in table.T], f"seed {seed}"
        assert (got.best_index, got.attained_uniformly) == (uniform, uniform is not None), f"seed {seed}"
        uniform_seen.add(uniform is not None)
    assert uniform_seen == {True, False}, "needs uniformly and not uniformly attained sups"


def test_dual_kernel_is_the_penalised_min_of_pairings_bitwise():
    """evaluate and insurance against min_i pairing(X, a_i) - gamma_i, with
    -inf penalties knocking a scenario out, on zero and -0.0 positions too."""
    for seed in range(40):
        g = np.random.default_rng([23, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        t, T = int(g.integers(0, sp.horizon + 1)), sp.horizon
        u = random_dual_utility(sp, t, T, g, n_scenarios=int(g.integers(1, 4)))
        if len(u.scenarios) > 1:  # scenario 0 keeps the atom-wise max penalty at 0
            a, gam = u.scenarios[-1]
            dead = np.where(g.random(sp.n_atoms(t)) < 0.5, -np.inf, gam.values)
            u = DualFiniteUtility(sp, t, T, u.scenarios[:-1] + [(a, ConditionalValue(sp, t, dead))])
        X = random_adapted(sp, t, T, g)
        signed_zeros = np.where(g.random(X.values.shape) < 0.5, 0.0, -0.0)
        for Y in (X, AdaptedProcess.constant(sp, t, T, 0.0), AdaptedProcess(sp, t, -0.0 * np.abs(X.values)),
                  AdaptedProcess(sp, t, np.where(X.values > 0, X.values, signed_zeros))):

            def oracle(Z):
                rows = []
                for a, gam in u.scenarios:
                    paired = pairing(Z, a, t, T).values
                    assert np.array_equal(bits(paired), bits(oracle_pairing(Z, a, t, T))), f"seed {seed}"
                    rows.append(np.where(np.isneginf(gam.values), np.inf, paired - gam.values))
                return np.stack(rows).min(axis=0)

            assert np.array_equal(bits(u.evaluate(Y).values), bits(oracle(Y))), f"seed {seed}"
            assert np.array_equal(bits(u.insurance(Y).values), bits(0.0 - oracle(-Y))), f"seed {seed}"


def test_chained_dual_min_is_the_strided_min_bitwise():
    """``DualFiniteUtility._combine`` takes the min over scenarios as a chain
    of ``np.minimum``; it gives the bits of ``_penalised(feats).min(axis=-2)``
    on one scenario, on scenarios knocked out by -inf penalties, on feature
    stacks with 1 and 3 leading dimensions, and on features that are +0.0 or
    -0.0 at random, where coherent scenarios tie at zero.  The insurance of
    such features is +0.0 wherever it is zero.  Below 9 scenarios: at one
    atom and 9 or more, numpy's reduction is a contiguous SIMD one that
    picks between tied zeros in its own order.  ``_penalised``, a
    subtraction then a store of +inf into the knocked-out entries, gives the
    bits of ``np.where(dead, inf, feats - gamma)``, with and without such
    entries, also on infinite features."""
    single = dead = live = ties = 0
    for seed in range(60):
        g = np.random.default_rng([16, seed])
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        t, T = int(g.integers(0, sp.horizon + 1)), sp.horizon
        make = random_coherent_utility if seed % 3 == 0 else random_dual_utility
        u = make(sp, t, T, g, n_scenarios=int(g.integers(1, 6)))
        if len(u.scenarios) > 1 and seed % 2:  # scenario 0 keeps an atom alive
            a, gam = u.scenarios[-1]
            knocked = np.where(g.random(sp.n_atoms(t)) < 0.5, -np.inf, gam.values)
            u = DualFiniteUtility(sp, t, T, u.scenarios[:-1] + [(a, ConditionalValue(sp, t, knocked))])
        S, A = len(u.scenarios), sp.n_atoms(t)
        single += S == 1
        dead += bool(u._dead.any())
        live += not u._dead.any()
        for lead in ((int(g.integers(1, 40)),), tuple(int(k) for k in g.integers(1, 5, size=3))):
            signed_zeros = np.where(g.random(lead + (S, A)) < 0.5, 0.0, -0.0)
            for feats in (g.normal(size=lead + (S, A)), signed_zeros):
                label = f"seed {seed}, {S} scenarios, {A} atoms, lead {lead}"
                want = np.where(u._dead, np.inf, feats - u._gamma)
                assert np.array_equal(bits(u._penalised(feats)), bits(want)), label
                got = u._combine(feats)
                assert got.shape == lead + (A,), label
                assert np.array_equal(bits(got), bits(u._penalised(feats).min(axis=-2))), label
                insured = 0.0 - u._combine(-feats)
                assert not np.any(bits(insured) == bits(-0.0)), label
            p = bits(u._penalised(signed_zeros))
            ties += bool(np.any((p == bits(0.0)).any(axis=-2) & (p == bits(-0.0)).any(axis=-2)))
            blown = np.copysign(np.inf, signed_zeros)  # -inf less a -inf penalty is nan, stored over
            with np.errstate(invalid="ignore"):
                want = np.where(u._dead, np.inf, blown - u._gamma)
                assert np.array_equal(bits(u._penalised(blown)), bits(want)), label
    assert single >= 5 and dead >= 5 and live >= 5 and ties >= 10, (single, dead, live, ties)


def test_preservation_hypotheses_and_conclusions_match_per_stage_oracles():
    """Each stage's conclusion is the residual of one brute-force scan of
    stage 0's restriction."""
    for seed in range(40):
        for variant in ("thm33", "thm42", "thm32"):
            hyp, up, cand = preservation_instance(np.random.default_rng([31, seed]), variant)
            t0, T = up.t_start, up.t_end
            rep = verify_preservation(hyp, up, cand, tol=1e-9)
            assert rep.passed, (variant, seed, rep.notes)
            want = []
            for t in range(t0 + 1, T + 1):
                u, port = up.stage(t), cand.stages[t0].restrict(t)
                res = worst_portfolio_bruteforce(port, u).sup_value.max_residual(u.insurance(port.mean()))
                want.append((t, bits(res), res <= 1e-9))
            assert [(c.t, bits(c.residual), c.passed) for c in rep.stage_checks] == want, f"{variant}, seed {seed}"


def test_preservation_notes_on_hand_made_failures():
    """Each broken hypothesis is named by the notes a loop over every time,
    scenario and atom wrote."""
    sp = dyadic_uniform(2)
    up = normalized_scenario_process(sp, random_density(sp, 0, 2, np.random.default_rng(75), strict=True))
    const = AdaptedWorstProcess.from_restrictions(Portfolio([AdaptedProcess.constant(sp, 0, 2, 1.0)]))
    consistent = "time-consistency: max residual 2.22e-16 over 39 checks"

    def notes(hyp, up=up, cand=const):
        rep = verify_preservation(hyp, up, cand)
        assert rep.skipped and not rep.hypotheses_ok
        return rep.notes

    a0 = up.stage(0).scenarios[0][0]
    zero = ConditionalValue.constant(sp, 0, 0.0)
    two = UtilityProcess({0: DualFiniteUtility(sp, 0, 2, [(a0, zero), (a0, zero)]), 1: up.stage(1), 2: up.stage(2)})
    assert notes(build_preservation_hypotheses(two, "thm33"), two) == [consistent, "stage 0 family of size 2 not certified convex"]

    # a uniform stage 0, whose normalizations are not the later stages
    flat = UtilityProcess({0: DualFiniteUtility(sp, 0, 2, [(uniform_density(sp, 0, 2), zero)]), 1: up.stage(1), 2: up.stage(2)})
    assert notes(build_preservation_hypotheses(flat, "thm42"), flat) == [
        "time-consistency FAILED: t=0, theta=[2, 2, 1, 1], sample 0: residual 0.0121",
        "base set concatenation-stable over 38 splices (all)",
        "stage 1 scenario 0 is not a normalized base density",
    ]

    mixed = UtilityProcess({0: EntropicUtility(sp, 1.0, 0), 1: EntropicUtility(sp, 2.0, 1), 2: EntropicUtility(sp, 1.0, 2)})
    walk = Portfolio([AdaptedProcess(sp, 0, [[0, 0, 0, 0], [1, 1, -1, -1], [2, 0, 0, -2]])])
    assert notes(build_preservation_hypotheses(mixed, "thm32"), mixed, AdaptedWorstProcess.from_restrictions(walk)) == [
        "time-consistency FAILED: t=0, theta=[2, 2, 1, 1], sample 0: residual 0.0246",
        "stage 1: tilt-density attainment residual 0.229",
        "candidate is not an adapted worst portfolio process",
    ]
    # a failed hypothesis withholds the attainment verdict even where attainment holds
    assert notes(build_preservation_hypotheses(mixed, "thm32"), mixed) == [
        "time-consistency FAILED: t=0, theta=[2, 2, 1, 1], sample 0: residual 0.0246",
    ]

    short = entropic_process(sp, 1.0, start=1)
    late = AdaptedWorstProcess.from_restrictions(Portfolio([AdaptedProcess.constant(sp, 1, 2, 1.0)]))
    assert notes(build_preservation_hypotheses(short, "thm32"), short, late) == [
        "time-consistency: max residual 0 over 21 checks",
        "two-step variant needs a window of length 2, got 1",
    ]
