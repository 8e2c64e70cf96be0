"""Scenario-file driver.

`dynrisk run file.json` executes the declared tasks in order and writes one
tab-separated report per task with the fixed columns (task, atom, quantity,
value, bound, status).  Exit codes: 0 all verifications pass, 1 verification
failure, 2 input error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .processes import membership, stability_check
from .rearrange import is_comonotone, lap_upper_bound, max_correlation
from .scenario import Fields, Scenario, ScenarioError, load_scenario
from .space import CapExceededError, DEFAULT_TOL
from .utility import AXIOMS, DualFiniteUtility, check_axioms, penalty, time_consistency_check
from .worstcase import (
    AdaptedWorstProcess,
    Portfolio,
    build_preservation_hypotheses,
    matrix_compare,
    matrix_sup,
    verify_preservation,
    verify_theorem_3_1,
    worst_portfolio_bruteforce,
    worst_scenario,
)

PASS, FAIL, INFO, CAP = "PASS", "FAIL", "INFO", "FAILED-CAP"


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _atom_label(atom) -> str:
    return "{" + ",".join(str(w) for w in atom) + "}"


class TaskRun:
    """Accumulates report rows for one task."""

    def __init__(self, name: str):
        self.name = name
        self.rows: list[tuple[str, str, str, str, str]] = []

    def row(self, atom, quantity, value, bound, status) -> None:
        label = atom if isinstance(atom, str) else _atom_label(atom)
        self.rows.append((label, str(quantity), _fmt(value), _fmt(bound), status))

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, f"{self.name}.tsv")
        with open(path, "w", newline="\n") as fh:
            fh.write("task\tatom\tquantity\tvalue\tbound\tstatus\n")
            for atom, quantity, value, bound, status in self.rows:
                fh.write(f"{self.name}\t{atom}\t{quantity}\t{value}\t{bound}\t{status}\n")
        return path


def _per_atom_rows(run: TaskRun, space, t, quantity, values, bounds=None, statuses=None):
    for k, atom in enumerate(space.atoms(t)):
        b = None if bounds is None else bounds[k]
        s = INFO if statuses is None else statuses[k]
        run.row(atom, quantity, values[k], b, s)


def _verdict(run: TaskRun, expected: bool | None) -> str:
    """A task's status: FAIL when a row FAILs or its expectation is not met;
    else PASS when a row PASSes or its expectation is met; else INFO.
    ``expected`` is None for a task given no expectation."""
    statuses = {row[-1] for row in run.rows}
    if FAIL in statuses or expected is False:
        return FAIL
    return PASS if PASS in statuses or expected else INFO


def run_task(task: dict, scn: Scenario, seed_override: int | None) -> tuple[TaskRun, str]:
    """Read the task's fields, reject any it does not read, run it and judge
    its rows and expectation by ``_verdict``."""
    f = Fields(task, f"task {task['name']!r}", scn)
    kind, run = f.get("task"), TaskRun(f.get("name"))
    return run, _verdict(run, _compute(kind, f, run, scn, seed_override))


def _compute(kind: str, f: Fields, run: TaskRun, scn: Scenario, seed_override: int | None) -> bool | None:
    """Run a task of this kind, writing its rows to ``run``: -> whether its
    expectation is met, None when it has none."""
    space = scn.space

    def seed() -> int:
        declared = f.integer("seed", scn.seed)
        return declared if seed_override is None else seed_override

    if kind == "check-space":
        f.finish()
        run.row("-", "outcomes", space.n_outcomes, None, PASS)
        run.row("-", "horizon", space.horizon, None, PASS)
        run.row("-", "prob-sum", float(space.probs.sum()), 1.0, PASS)
        for t in range(space.horizon + 1):
            run.row("-", f"atoms-at-{t}", space.n_atoms(t), None, INFO)
        return None

    if kind == "check-membership":
        name = f.get("density")
        if isinstance(name, str) and name not in scn.densities and name in scn.terminal_densities:
            f.finish()  # a terminal density has no class to check
            run.row("-", "in-Drel", True, None, PASS)
            return None
        a, klass = f.ref("density", "density"), f.get("class", "D")
        with f.building():  # membership rejects an unknown class
            ok, diag = membership(a, klass)
        run.row("-", f"in-{klass}", ok, None, PASS if ok else FAIL)
        if not ok:
            run.row("-", "diagnostic", diag, None, FAIL)
        return None

    if kind == "axioms":
        u, samples = f.ref("utility", "utility"), f.integer("samples", 20, least=1)
        tol, axiom_seed, expect = f.number("tol", DEFAULT_TOL, least=0), seed(), f.object("expect", {})
        want = {axiom: expect.boolean(axiom) for axiom in AXIOMS if axiom in expect.obj}
        expect.finish()
        with f.building():
            rep = check_axioms(u, samples, axiom_seed, tol)
        for axiom, res in rep.results.items():
            if res.passed is None:
                run.row("-", axiom, res.note, None, INFO)
                continue
            row_status = INFO
            if axiom in want:
                row_status = PASS if bool(res.passed) == want[axiom] else FAIL
            run.row("-", axiom, res.passed, res.samples, row_status)
            if res.counterexample:
                run.row("-", f"{axiom}-counterexample", res.counterexample, None, INFO)
        return None

    if kind == "evaluate":
        u, X, insurance = f.ref("utility", "utility"), f.ref("position", "process"), f.boolean("insurance", False)
        with f.building():  # a position whose window does not cover the utility's
            v = u.insurance(X) if insurance else u.evaluate(X)
        _per_atom_rows(run, space, u.t_start, "psi" if insurance else "phi", v.values)
        return None

    if kind == "penalty":
        u, a = f.ref("utility", "utility"), f.ref("density", "density")
        if not isinstance(u, DualFiniteUtility):
            f.fail(f"penalty needs a dual utility, not {type(u).__name__}")
        try:
            with f.building():  # a density whose window does not cover the utility's
                v = penalty(u, a)
        except RuntimeError as e:
            run.row("-", "error", str(e), None, FAIL)
            return None
        _per_atom_rows(run, space, u.t_start, "phi#", v.values)
        return None

    if kind == "max-correlation":
        a, X = f.ref("density", "density"), f.ref("position", "process")
        t, cap, tol = f.integer("t", X.t_start), f.integer("cap", 100_000), f.number("tol", DEFAULT_TOL, least=0)
        with f.building():  # a time outside the position's window, or windows that do not fit
            mc = max_correlation(a, X, t, X.t_end, cap)
            lap = lap_upper_bound(a, X, t)
        statuses = [PASS if ok else FAIL for ok in lap.values >= mc.value.values - tol]
        _per_atom_rows(run, space, t, "psi_a", mc.value.values, lap.values, statuses)
        _per_atom_rows(run, space, t, "argmax-member", mc.argmax_index)
        run.row("-", "class-size", mc.rearrangement.size, None, INFO)
        return None

    if kind == "comonotone":
        a0, family = f.ref("density", "density"), f.refs("family", "process")
        tol, cap, expect = f.number("tol", DEFAULT_TOL, least=0), f.integer("cap", 100_000), f.boolean("expect", None)
        with f.building():  # windows that do not fit
            cert = is_comonotone(a0, family, tol, cap)
        t = family[0].t_start
        for i, res in enumerate(cert.member_residuals):
            _per_atom_rows(run, space, t, f"member{i}-residual", res, [tol] * space.n_atoms(t))
        _per_atom_rows(run, space, t, "sum-residual", cert.sum_residuals, [tol] * space.n_atoms(t))
        run.row("-", "comonotone", cert.comonotone, None, INFO)
        for d in cert.details:
            run.row("-", "detail", d, None, INFO)
        return None if expect is None else expect == cert.comonotone

    if kind == "worst-scenario":
        u, candidates = f.ref("utility", "utility"), f.refs("candidates", "density")
        members = f.refs("marginals", "process")
        cap = f.integer("cap", 100_000)
        if not isinstance(u, DualFiniteUtility):
            f.fail(f"worst-scenario needs a dual utility, not {type(u).__name__}")
        with f.building():  # marginals or candidates whose windows do not fit
            ws = worst_scenario(candidates, Portfolio(members), u, cap)
        _per_atom_rows(run, space, u.t_start, "F-max", ws.value.values)
        _per_atom_rows(run, space, u.t_start, "choice", ws.per_atom_choice)
        run.row("-", "single-attainment", ws.single_attainment, None, INFO)
        return None

    if kind == "worst-portfolio":
        u, members = f.ref("utility", "utility"), f.refs("marginals", "process")
        cap, tol = f.integer("cap", 1_000_000), f.number("tol", DEFAULT_TOL, least=0)
        with f.building():  # marginals whose windows do not fit
            marginals = Portfolio(members)
            wp = worst_portfolio_bruteforce(marginals, u, cap)
            direct = u.insurance(marginals.mean())
        statuses = [PASS if ok else FAIL for ok in wp.sup_value.values >= direct.values - tol]
        _per_atom_rows(run, space, u.t_start, "sup", wp.sup_value.values, direct.values, statuses)
        _per_atom_rows(run, space, u.t_start, "argmax-tuple", wp.per_atom_argmax)
        run.row("-", "attained-uniformly", wp.attained_uniformly, None, INFO)
        run.row("-", "search-size", wp.search_size, None, INFO)
        return None

    if kind == "verify-thm31":
        u, members = f.ref("utility", "utility"), f.refs("marginals", "process")
        cap, tol = f.integer("cap", 1_000_000), f.number("tol", DEFAULT_TOL, least=0)
        with f.building():  # marginals whose windows do not fit, or a utility that is not coherent
            rep = verify_theorem_3_1(Portfolio(members), u, cap, tol)
        residuals = np.abs(rep.portfolio_value.values - rep.scenario_value.values)
        statuses = [PASS if ok else FAIL for ok in residuals <= tol]
        _per_atom_rows(run, space, u.t_start, "portfolio-sup", rep.portfolio_value.values, rep.scenario_value.values, statuses)
        run.row("-", "equality-residual", rep.equality_residual, tol, PASS if rep.equality_holds else FAIL)
        run.row("-", "comonotone-found", rep.comonotone_found, None, INFO)
        if rep.comonotone_found:
            run.row("-", "comonotone-attains", rep.attains, rep.attain_residual, PASS if rep.attains else FAIL)
        else:
            run.row("-", "comonotone-search", "not-applicable", None, INFO)
        return None

    if kind == "verify-preservation":
        up, members = f.ref("process", "utility-process"), f.refs("stage0", "process")
        variant, expect = f.get("variant", "thm33"), f.choice("expect", ("skip",), None)
        cap, tol = f.integer("cap", 1_000_000), f.number("tol", DEFAULT_TOL, least=0)
        with f.building():  # an unknown variant, or a stage-0 portfolio off the process's window
            hyp = build_preservation_hypotheses(up, variant)
            candidate = AdaptedWorstProcess.from_restrictions(Portfolio(members))
            rep = verify_preservation(hyp, up, candidate, cap, tol)
        for note in rep.notes:
            run.row("-", "hypothesis", note, None, INFO)
        run.row("-", "hypotheses-ok", rep.hypotheses_ok, None, INFO)
        run.row("-", "adapted-worst-process", rep.adapted_ok, None, INFO)
        if rep.skipped:
            run.row("-", "conclusion", "hypotheses not met", None, "SKIP")
        for chk in rep.stage_checks:
            run.row("-", f"stage-{chk.t}", chk.residual, tol, PASS if chk.passed else FAIL)
        # without an expectation, the hypotheses must hold
        return rep.skipped == (expect == "skip")

    if kind == "matrix-sup":
        u, X = f.ref("utility", "utility"), f.ref("position", "process")
        matrices = [f.matrix("matrices", X.length, raw) for raw in f.items("matrices")]
        with f.building():  # a matrix image of the position that is not adapted
            res = matrix_sup(u, X, matrices)
        _per_atom_rows(run, space, u.t_start, "sup", res.value.values)
        _per_atom_rows(run, space, u.t_start, "argmax-matrix", res.per_atom_argmax)
        run.row("-", "attained-uniformly", res.attained_uniformly, None, INFO)
        if not res.attained_uniformly:
            run.row("-", "directedness", "no single maximizer; upward directedness failed", None, INFO)
        return None

    if kind == "matrix-compare":
        u, tilde, bar = f.ref("utility", "utility"), f.refs("tilde", "process"), f.refs("bar", "process")
        samples, compare_seed, tol = f.integer("samples", 20, least=1), seed(), f.number("tol", DEFAULT_TOL, least=0)
        A, expect = f.matrix("matrix", tilde[0].length), f.choice("expect", ("guard",), None)
        with f.building():  # mismatched portfolios, or a matrix image that is not adapted
            tilde, bar = Portfolio(tilde), Portfolio(bar)
            rep = matrix_compare(A, u, tilde, bar, samples, compare_seed, tol)
        run.row("-", "ones-fixed", rep.hyp_eigenvector, None, INFO)
        run.row("-", "nonnegative", rep.hyp_nonnegative, None, INFO)
        run.row("-", "acceptance-implication", rep.hyp_acceptance, rep.acceptance_samples, INFO)
        if rep.acceptance_counterexample:
            run.row("-", "acceptance-note", rep.acceptance_counterexample, None, INFO)
        run.row("-", "dominance", rep.hyp_dominance, None, INFO)
        if rep.conclusion_tested:
            run.row("-", "conclusion", rep.conclusion_holds, rep.conclusion_residual, PASS if rep.conclusion_holds else FAIL)
        else:
            run.row("-", "conclusion", "untested (hypotheses not all met)", None, INFO)
        return None if expect is None else not rep.conclusion_tested

    if kind == "stability":
        kind2 = f.get("kind", "concatenation")
        items = f.refs("terminal", "terminal") if kind2 == "m1" else f.refs("densities", "density")
        cap, tol, expect = f.integer("cap", 1_000_000), f.number("tol", DEFAULT_TOL, least=0), f.boolean("expect", None)
        with f.building():  # an unknown kind, or a family on different windows
            rep = stability_check(items, kind2, cap, tol)
        run.row("-", "stable", rep.stable, None, INFO)
        run.row("-", "generated", rep.generated, None, INFO)
        run.row("-", "stopping-times", rep.stopping_times, None, INFO)
        if not rep.stable:
            run.row("-", "missing", rep.context, None, INFO)
        return None if expect is None else expect == rep.stable

    if kind == "time-consistency":
        up, samples = f.ref("process", "utility-process"), f.integer("samples", 5, least=1)
        tc_seed, tol = seed(), f.number("tol", DEFAULT_TOL, least=0)
        with f.building():
            rep = time_consistency_check(up, sample_count=samples, seed=tc_seed, tol=tol)
        run.row("-", "max-residual", rep.max_residual, tol, PASS if rep.passed else FAIL)
        run.row("-", "checked", rep.checked, None, INFO)
        run.row("-", "stopping-times", rep.stopping_times, None, INFO)
        for failure in rep.failures[:10]:
            run.row("-", "failure", failure, None, FAIL)
        return None

    f.fail(f"unknown task kind {kind!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dynrisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario file")
    runp.add_argument("file")
    runp.add_argument("--only", default=None, help="run only the task with this name")
    runp.add_argument("--out", default=".", help="report output directory")
    runp.add_argument("--seed", type=int, default=None, help="override all declared seeds")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        runp.error(f"argument --seed: a seed is an integer >= 0, got {args.seed}")

    try:
        scn = load_scenario(args.file)
    except ScenarioError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:  # --out names a file, or a path under one
        print(f"input error: cannot make the report directory {args.out}: {e}", file=sys.stderr)
        return 2
    tasks = scn.tasks
    if args.only is not None:
        tasks = [t for t in tasks if t["name"] == args.only]
        if not tasks:
            print(f"input error: no task named {args.only!r}", file=sys.stderr)
            return 2

    statuses = []
    for task in tasks:
        try:
            run, status = run_task(task, scn, args.seed)
        except CapExceededError as e:
            run = TaskRun(task["name"])
            run.row("-", "cap", str(e), None, CAP)
            status = CAP
        except ScenarioError as e:
            print(f"input error: {e}", file=sys.stderr)
            return 2
        try:
            run.write(args.out)
        except OSError as e:  # a name that the file system refuses, as one too long
            print(f"input error: cannot write the report of task {task['name']!r}: {e}", file=sys.stderr)
            return 2
        statuses.append(status)
        print(f"{task['name']}\t{status}")

    if FAIL in statuses:
        return 1
    if CAP in statuses:
        return 3
    return 0
