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
from .scenario import Scenario, ScenarioError, _num, load_scenario
from .space import CapExceededError, DEFAULT_TOL
from .utility import DualFiniteUtility, check_axioms, penalty, time_consistency_check
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


def _field(task: dict, key: str):
    """A required task field; a missing one is an input error."""
    if key not in task:
        raise ScenarioError(f"task {task['name']!r}: missing field {key!r}")
    return task[key]


def _list(task: dict, key: str) -> list:
    """A required field holding a non-empty JSON list."""
    raw = _field(task, key)
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"task {task['name']!r}: {key} must be a non-empty list, got {raw!r}")
    return raw


def _refs(task: dict, key: str, scn: Scenario, kind: str) -> list:
    """A required non-empty list of names, each resolved as a ``kind`` reference."""
    return [scn.resolve(kind, n) for n in _list(task, key)]


def _matrix(task: dict, raw, length: int) -> np.ndarray:
    """A length x length matrix, one row and column per time of the position's
    window, given as a list of equally long lists of numbers."""
    rows = isinstance(raw, list) and raw and all(isinstance(row, list) and row for row in raw)
    if not rows or len({len(row) for row in raw}) != 1:
        raise ScenarioError(f"task {task['name']!r}: a matrix must be a list of equally long lists, got {raw!r}")
    A = np.array([[_num(v, "matrix entry") for v in row] for row in raw])
    if A.shape != (length, length):
        raise ScenarioError(f"task {task['name']!r}: matrix shape {A.shape} does not match window length {length}")
    return A


def _int(task: dict, key: str, default: int) -> int:
    raw = task.get(key, default)
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ScenarioError(f"task {task['name']!r}: {key} must be an integer, got {raw!r}") from None


def _task_seed(task: dict, scn: Scenario, override: int | None) -> int:
    if override is not None:
        return override
    return _int(task, "seed", scn.seed)


def _tol(task: dict) -> float:
    return _num(task.get("tol", DEFAULT_TOL), "tol")


def _cap(task: dict, default: int = 1_000_000) -> int:
    return _int(task, "cap", default)


def _solver(task: dict) -> str:
    raw = task.get("solver", "highs")
    if raw not in ("highs", "vertices"):
        raise ScenarioError(f"task {task['name']!r}: solver must be 'highs' or 'vertices', got {raw!r}")
    return raw


def run_task(task: dict, scn: Scenario, workers: int | None, seed_override: int | None) -> tuple[TaskRun, str]:
    kind = task["task"]
    run = TaskRun(task["name"])
    space = scn.space

    if kind == "check-space":
        run.row("-", "outcomes", space.n_outcomes, None, PASS)
        run.row("-", "horizon", space.horizon, None, PASS)
        run.row("-", "prob-sum", float(space.probs.sum()), 1.0, PASS)
        for t in range(space.horizon + 1):
            run.row("-", f"atoms-at-{t}", space.n_atoms(t), None, INFO)
        return run, PASS

    if kind == "check-membership":
        name = _field(task, "density")
        if isinstance(name, str) and name not in scn.densities and name in scn.terminal_densities:
            run.row("-", "in-Drel", True, None, PASS)
            return run, PASS
        a = scn.resolve("density", name)
        klass = task.get("class", "D")
        ok, diag = membership(a, klass, a.t_start)
        run.row("-", f"in-{klass}", ok, None, PASS if ok else FAIL)
        if not ok:
            run.row("-", "diagnostic", diag, None, FAIL)
        return run, PASS if ok else FAIL

    if kind == "axioms":
        u = scn.resolve("utility", _field(task, "utility"))
        rep = check_axioms(u, _int(task, "samples", 20), _task_seed(task, scn, seed_override), _tol(task))
        expect = task.get("expect", {})
        status = INFO if not expect else PASS
        for axiom, res in rep.results.items():
            if res.passed is None:
                run.row("-", axiom, res.note, None, INFO)
                continue
            row_status = INFO
            if axiom in expect:
                row_status = PASS if bool(res.passed) == bool(expect[axiom]) else FAIL
                if row_status == FAIL:
                    status = FAIL
            run.row("-", axiom, res.passed, res.samples, row_status)
            if res.counterexample:
                run.row("-", f"{axiom}-counterexample", res.counterexample, None, INFO)
        return run, status

    if kind == "evaluate":
        u = scn.resolve("utility", _field(task, "utility"))
        X = scn.resolve("process", _field(task, "position"))
        insurance = bool(task.get("insurance", False))
        v = u.insurance(X) if insurance else u.evaluate(X)
        _per_atom_rows(run, space, u.t_start, "psi" if insurance else "phi", v.values)
        return run, INFO

    if kind == "penalty":
        u = scn.resolve("utility", _field(task, "utility"))
        if not isinstance(u, DualFiniteUtility):
            raise ScenarioError(f"task {task['name']!r}: penalty needs a dual utility, not {type(u).__name__}")
        a = scn.resolve("density", _field(task, "density"))
        try:
            v = penalty(u, a, solver=_solver(task))
        except RuntimeError as e:
            run.row("-", "error", str(e), None, FAIL)
            return run, FAIL
        _per_atom_rows(run, space, u.t_start, "phi#", v.values)
        return run, INFO

    if kind == "max-correlation":
        a = scn.resolve("density", _field(task, "density"))
        X = scn.resolve("process", _field(task, "position"))
        t = _int(task, "t", X.t_start)
        cap = _cap(task, 100_000)
        mc = max_correlation(a, X, t, X.t_end, cap)
        lap = lap_upper_bound(a, X, t, X.t_end)
        tol = _tol(task)
        statuses = [PASS if lap.values[k] >= mc.value.values[k] - tol else FAIL for k in range(space.n_atoms(t))]
        _per_atom_rows(run, space, t, "psi_a", mc.value.values, lap.values, statuses)
        _per_atom_rows(run, space, t, "argmax-member", mc.argmax_index)
        run.row("-", "class-size", mc.rearrangement.size, None, INFO)
        status = PASS if all(s == PASS for s in statuses) else FAIL
        return run, status

    if kind == "comonotone":
        a0 = scn.resolve("density", _field(task, "density"))
        family = _refs(task, "family", scn, "process")
        tol = _tol(task)
        cert = is_comonotone(a0, family, tol, _cap(task, 100_000))
        t = family[0].t_start
        for i, res in enumerate(cert.member_residuals):
            _per_atom_rows(run, space, t, f"member{i}-residual", res, [tol] * space.n_atoms(t))
        _per_atom_rows(run, space, t, "sum-residual", cert.sum_residuals, [tol] * space.n_atoms(t))
        run.row("-", "comonotone", cert.comonotone, None, INFO)
        for d in cert.details:
            run.row("-", "detail", d, None, INFO)
        if "expect" in task:
            ok = bool(task["expect"]) == cert.comonotone
            return run, PASS if ok else FAIL
        return run, INFO

    if kind == "worst-scenario":
        u = scn.resolve("utility", _field(task, "utility"))
        candidates = _refs(task, "candidates", scn, "density")
        marginals = Portfolio(_refs(task, "marginals", scn, "process"))
        ws = worst_scenario(candidates, marginals, u, _cap(task, 100_000), _solver(task))
        _per_atom_rows(run, space, u.t_start, "F-max", ws.value.values)
        _per_atom_rows(run, space, u.t_start, "choice", ws.per_atom_choice)
        run.row("-", "single-attainment", ws.single_attainment, None, INFO)
        return run, INFO

    if kind == "worst-portfolio":
        u = scn.resolve("utility", _field(task, "utility"))
        marginals = Portfolio(_refs(task, "marginals", scn, "process"))
        wp = worst_portfolio_bruteforce(marginals, u, _cap(task), workers)
        direct = u.insurance(marginals.mean())
        tol = _tol(task)
        statuses = [
            PASS if wp.sup_value.values[k] >= direct.values[k] - tol else FAIL
            for k in range(space.n_atoms(u.t_start))
        ]
        _per_atom_rows(run, space, u.t_start, "sup", wp.sup_value.values, direct.values, statuses)
        _per_atom_rows(run, space, u.t_start, "argmax-tuple", wp.per_atom_argmax)
        run.row("-", "attained-uniformly", wp.attained_uniformly, None, INFO)
        run.row("-", "search-size", wp.search_size, None, INFO)
        return run, PASS if all(s == PASS for s in statuses) else FAIL

    if kind == "verify-thm31":
        u = scn.resolve("utility", _field(task, "utility"))
        marginals = Portfolio(_refs(task, "marginals", scn, "process"))
        tol = _tol(task)
        rep = verify_theorem_3_1(marginals, u, _cap(task), tol, workers)
        statuses = [
            PASS
            if abs(rep.portfolio_value.values[k] - rep.scenario_value.values[k]) <= tol
            else FAIL
            for k in range(space.n_atoms(u.t_start))
        ]
        _per_atom_rows(run, space, u.t_start, "portfolio-sup", rep.portfolio_value.values, rep.scenario_value.values, statuses)
        run.row("-", "equality-residual", rep.equality_residual, tol, PASS if rep.equality_holds else FAIL)
        run.row("-", "comonotone-found", rep.comonotone_found, None, INFO)
        if rep.comonotone_found:
            run.row("-", "comonotone-attains", rep.attains, rep.attain_residual, PASS if rep.attains else FAIL)
        else:
            run.row("-", "comonotone-search", "not-applicable", None, INFO)
        return run, PASS if rep.passed else FAIL

    if kind == "verify-preservation":
        up = scn.resolve("utility-process", _field(task, "process"))
        variant = task.get("variant", "thm33")
        stage0 = Portfolio(_refs(task, "stage0", scn, "process"))
        candidate = AdaptedWorstProcess.from_restrictions(stage0)
        hyp = build_preservation_hypotheses(up, variant)
        rep = verify_preservation(hyp, up, candidate, _cap(task), _tol(task), workers)
        for note in rep.notes:
            run.row("-", "hypothesis", note, None, INFO)
        run.row("-", "hypotheses-ok", rep.hypotheses_ok, None, INFO)
        run.row("-", "adapted-worst-process", rep.adapted_ok, None, INFO)
        if rep.skipped:
            run.row("-", "conclusion", "hypotheses not met", None, "SKIP")
            expect_skip = task.get("expect") == "skip"
            return run, PASS if expect_skip else FAIL
        for chk in rep.stage_checks:
            run.row("-", f"stage-{chk.t}", chk.residual, _tol(task), PASS if chk.passed else FAIL)
        return run, PASS if rep.passed else FAIL

    if kind == "matrix-sup":
        u = scn.resolve("utility", _field(task, "utility"))
        X = scn.resolve("process", _field(task, "position"))
        matrices = [_matrix(task, mat, X.length) for mat in _list(task, "matrices")]
        try:
            res = matrix_sup(u, X, matrices)
        except ValueError as e:  # a matrix image of the position that is not adapted
            raise ScenarioError(f"task {task['name']!r}: {e}") from None
        _per_atom_rows(run, space, u.t_start, "sup", res.value.values)
        _per_atom_rows(run, space, u.t_start, "argmax-matrix", res.per_atom_argmax)
        run.row("-", "attained-uniformly", res.attained_uniformly, None, INFO)
        if not res.attained_uniformly:
            run.row("-", "directedness", "no single maximizer; upward directedness failed", None, INFO)
        return run, INFO

    if kind == "matrix-compare":
        u = scn.resolve("utility", _field(task, "utility"))
        tilde = Portfolio(_refs(task, "tilde", scn, "process"))
        bar = Portfolio(_refs(task, "bar", scn, "process"))
        A = _matrix(task, _field(task, "matrix"), tilde.t_end - tilde.t_start + 1)
        samples, seed = _int(task, "samples", 20), _task_seed(task, scn, seed_override)
        try:
            rep = matrix_compare(A, u, tilde, bar, samples, seed, _tol(task))
        except ValueError as e:  # mismatched portfolios, or a matrix image that is not adapted
            raise ScenarioError(f"task {task['name']!r}: {e}") from None
        run.row("-", "ones-fixed", rep.hyp_eigenvector, None, INFO)
        run.row("-", "nonnegative", rep.hyp_nonnegative, None, INFO)
        run.row("-", "acceptance-implication", rep.hyp_acceptance, rep.acceptance_samples, INFO)
        if rep.acceptance_counterexample:
            run.row("-", "acceptance-note", rep.acceptance_counterexample, None, INFO)
        run.row("-", "dominance", rep.hyp_dominance, None, INFO)
        if rep.conclusion_tested:
            run.row("-", "conclusion", rep.conclusion_holds, rep.conclusion_residual, PASS if rep.conclusion_holds else FAIL)
            return run, PASS if rep.conclusion_holds else FAIL
        run.row("-", "conclusion", "untested (hypotheses not all met)", None, INFO)
        if task.get("expect") == "guard":
            return run, PASS
        return run, INFO

    if kind == "stability":
        kind2 = task.get("kind", "concatenation")
        if kind2 not in ("concatenation", "m1"):
            raise ScenarioError(f"task {task['name']!r}: unknown stability kind {kind2!r}")
        if kind2 == "m1":
            items = _refs(task, "terminal", scn, "terminal")
        else:
            items = _refs(task, "densities", scn, "density")
        rep = stability_check(items, kind2, _cap(task), _tol(task))
        run.row("-", "stable", rep.stable, None, INFO)
        run.row("-", "generated", rep.generated, None, INFO)
        run.row("-", "stopping-times", rep.stopping_times, None, INFO)
        if not rep.stable:
            run.row("-", "missing", rep.context, None, INFO)
        if "expect" in task:
            ok = bool(task["expect"]) == rep.stable
            return run, PASS if ok else FAIL
        return run, INFO

    if kind == "time-consistency":
        up = scn.resolve("utility-process", _field(task, "process"))
        rep = time_consistency_check(
            up,
            sample_count=_int(task, "samples", 5),
            seed=_task_seed(task, scn, seed_override),
            tol=_tol(task),
        )
        run.row("-", "max-residual", rep.max_residual, _tol(task), PASS if rep.passed else FAIL)
        run.row("-", "checked", rep.checked, None, INFO)
        run.row("-", "stopping-times", rep.stopping_times, None, INFO)
        for f in rep.failures[:10]:
            run.row("-", "failure", f, None, FAIL)
        return run, PASS if rep.passed else FAIL

    raise ScenarioError(f"unknown task kind {kind!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dynrisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario file")
    runp.add_argument("file")
    runp.add_argument("--only", default=None, help="run only the task with this name")
    runp.add_argument("--out", default=".", help="report output directory")
    runp.add_argument("--workers", type=int, default=1)
    runp.add_argument("--seed", type=int, default=None, help="override all declared seeds")
    args = parser.parse_args(argv)

    try:
        scn = load_scenario(args.file)
    except ScenarioError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    tasks = scn.tasks
    if args.only is not None:
        tasks = [t for t in tasks if t["name"] == args.only]
        if not tasks:
            print(f"input error: no task named {args.only!r}", file=sys.stderr)
            return 2

    statuses = []
    for task in tasks:
        try:
            run, status = run_task(task, scn, args.workers, args.seed)
        except CapExceededError as e:
            run = TaskRun(task["name"])
            run.row("-", "cap", str(e), None, CAP)
            status = CAP
        except ScenarioError as e:
            print(f"input error: {e}", file=sys.stderr)
            return 2
        run.write(args.out)
        statuses.append(status)
        print(f"{task['name']}\t{status}")

    if FAIL in statuses:
        return 1
    if CAP in statuses:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
