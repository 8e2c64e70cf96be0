import contextlib
import copy
import io
import json
from pathlib import Path

import numpy as np
import pytest

from dynrisk import (
    DualFiniteUtility,
    ScenarioError,
    load_scenario,
    save_scenario,
    serialize_scenario,
)
from dynrisk.cli import main
from dynrisk.scenario import parse_scenario

BUNDLED = Path(__file__).resolve().parents[1] / "demos" / "full_verification.json"


def base_doc():
    """Four-outcome dyadic space with a pair of generators and positions."""
    return {
        "seed": 7,
        "space": {
            "probs": ["0.25", "0.25", "0.25", "0.25"],
            "partitions": [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        },
        "densities": {
            "gen1": {
                "t_start": 0,
                "class": "De",
                "increments": [[0.2, 0.2, 0.2, 0.2], [0.3, 0.3, 0.5, 0.5], [0.5, 0.5, 0.3, 0.3]],
            },
            "gen2": {
                "t_start": 0,
                "class": "De",
                "increments": [[0.1, 0.1, 0.1, 0.1], [0.5, 0.5, 0.2, 0.2], [0.4, 0.4, 0.7, 0.7]],
            },
        },
        "terminal_densities": {"tilt": {"h": [1.6, 0.8, 0.8, 0.8]}},
        "processes": {
            "pos1": {"t_start": 0, "values": [[1, 1, 1, 1], [2, 2, -1, -1], [0, 3, 1, -2]]},
            "pos2": {"t_start": 0, "values": [[0, 0, 0, 0], [1, 1, 2, 2], [2, 0, 1, 1]]},
        },
        "utilities": {
            "coh": {
                "variant": "dual",
                "t_start": 0,
                "t_end": 2,
                "scenarios": [{"density": "gen1", "gamma": 0.0}, {"density": "gen2", "gamma": 0.0}],
            },
            "ent": {"variant": "entropic", "alpha": "1.0", "t_start": 0},
            "rob": {"variant": "robust", "alpha": 1.0, "t_start": 0, "densities": ["tilt"]},
        },
        "utility_processes": {
            "entproc": {"variant": "entropic", "alpha": 1.0, "start": 0},
            "scenproc": {"variant": "normalized", "density": "gen1", "start": 0},
        },
        "tasks": [],
    }


def write_doc(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParse:
    def test_full_document(self):
        scn = parse_scenario(base_doc())
        assert scn.space.n_outcomes == 4
        assert set(scn.densities) == {"gen1", "gen2"}
        assert isinstance(scn.resolve("utility", "coh"), DualFiniteUtility)
        assert scn.seed == 7

    def test_decimal_strings_parse_exactly(self):
        scn = parse_scenario(base_doc())
        assert scn.space.probs[0] == 0.25
        assert scn.utilities["ent"].alpha == 1.0

    def test_neg_inf_only_for_penalties(self):
        doc = base_doc()
        doc["utilities"]["coh"]["scenarios"][1]["gamma"] = "-inf"
        scn = parse_scenario(doc)
        assert np.isneginf(scn.utilities["coh"].scenarios[1][1].values).all()
        bad = base_doc()
        bad["processes"]["pos1"]["values"][1][0] = "-inf"
        with pytest.raises(ScenarioError, match="non-finite"):
            parse_scenario(bad)

    def test_nan_and_bool_rejected(self):
        doc = base_doc()
        doc["space"]["probs"][0] = "nan"
        with pytest.raises(ScenarioError, match="NaN"):
            parse_scenario(doc)
        doc2 = base_doc()
        doc2["processes"]["pos1"]["values"][0][0] = True
        with pytest.raises(ScenarioError, match="boolean"):
            parse_scenario(doc2)

    def test_unresolved_reference(self):
        doc = base_doc()
        doc["utilities"]["coh"]["scenarios"][0]["density"] = "ghost"
        with pytest.raises(ScenarioError, match="ghost"):
            parse_scenario(doc)

    def test_density_class_enforced_at_load(self):
        doc = base_doc()
        doc["densities"]["gen1"]["increments"][2] = [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ScenarioError, match="gen1"):
            parse_scenario(doc)

    def test_duplicate_task_names(self):
        doc = base_doc()
        doc["tasks"] = [{"task": "check-space", "name": "a"}, {"task": "check-space", "name": "a"}]
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(doc)

    def test_round_trip(self, tmp_path):
        doc = base_doc()
        doc["tasks"] = [{"task": "check-space", "name": "space"}]
        scn = parse_scenario(doc)
        path = tmp_path / "round.json"
        save_scenario(scn, str(path))
        again = load_scenario(str(path))
        assert np.array_equal(again.space.probs, scn.space.probs)
        for name in scn.processes:
            assert np.abs(again.processes[name].values - scn.processes[name].values).max() <= 1e-12
        for name in scn.densities:
            assert np.abs(again.densities[name].values - scn.densities[name].values).max() <= 1e-12
        for name in scn.terminal_densities:
            assert np.abs(again.terminal_densities[name].h - scn.terminal_densities[name].h).max() <= 1e-12
        u0, u1 = scn.utilities["coh"], again.utilities["coh"]
        for (a0, g0), (a1, g1) in zip(u0.scenarios, u1.scenarios):
            assert np.abs(a0.values - a1.values).max() <= 1e-12
            assert np.array_equal(g0.values, g1.values)
        assert again.utilities["ent"].alpha == scn.utilities["ent"].alpha
        assert again.tasks == scn.tasks

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("seed",), -3, "seed must be at least 0, got -3"),
            (("processes", "pos1", "t_start"), True, "t_start must be an integer, got True"),
            (("densities", "gen1", "t_start"), 2.5, "t_start must be an integer, got 2.5"),
            (("densities", "gen1", "klass"), "De", "unknown field 'klass'"),
            (("space", "partitions"), [[[0, 1, 2, 3]], [[0, 1], [2, [3]]]], "partitions must list"),
            (("utilities", "ent", "densities"), ["tilt"], "unknown field 'densities'"),
            (("utilities", "coh"), "zzz", "utility coh must be an object"),
            (("terminal_densities",), [1], "terminal_densities must be an object"),
        ],
        ids=[
            "negative-seed",
            "boolean-time",
            "fractional-time",
            "unknown-object-field",
            "nested-partition",
            "field-of-another-variant",
            "object-not-a-dict",
            "section-not-a-dict",
        ],
    )
    def test_malformed_object_field(self, path, value, message):
        doc = base_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(doc)

    def test_serialize_requires_named_scenarios(self, four_tree):
        from dynrisk import ConditionalValue, DensityProcess, Scenario

        a = DensityProcess.uniform(four_tree, 0, 2)
        u = DualFiniteUtility(four_tree, 0, 2, [(a, ConditionalValue.constant(four_tree, 0, 0.0))])
        scn = Scenario(space=four_tree, utilities={"u": u})
        with pytest.raises(ScenarioError, match="not declared"):
            serialize_scenario(scn)


class TestCLI:
    def run_cli(self, tmp_path, doc, extra=()):
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["run", path, "--out", str(out), *extra])
        reports = {p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))} if out.exists() else {}
        return code, reports

    def test_end_to_end_pass(self, tmp_path, capsys):
        doc = base_doc()
        doc["tasks"] = [
            {"task": "check-space", "name": "space"},
            {"task": "check-membership", "name": "memb", "density": "gen1", "class": "De"},
            {"task": "evaluate", "name": "eval", "utility": "ent", "position": "pos1"},
            {"task": "verify-thm31", "name": "duality", "utility": "coh", "marginals": ["pos1", "pos2"]},
        ]
        code, reports = self.run_cli(tmp_path, doc)
        assert code == 0
        assert set(reports) == {"space.tsv", "memb.tsv", "eval.tsv", "duality.tsv"}
        lines = reports["duality.tsv"].decode().splitlines()
        assert lines[0] == "task\tatom\tquantity\tvalue\tbound\tstatus"
        per_atom = [l for l in lines if "portfolio-sup" in l]
        assert len(per_atom) == 1 and per_atom[0].endswith("PASS")
        assert any("equality-residual" in l and l.endswith("PASS") for l in lines)
        out = capsys.readouterr().out
        assert "duality\tPASS" in out

    def test_reports_byte_identical_across_runs(self, tmp_path):
        doc = base_doc()
        doc["tasks"] = [
            {"task": "worst-portfolio", "name": "wp", "utility": "coh", "marginals": ["pos1", "pos2"]},
            {"task": "axioms", "name": "ax", "utility": "ent", "samples": 5},
            {"task": "time-consistency", "name": "tc", "process": "entproc", "samples": 3},
        ]
        code1, rep1 = self.run_cli(tmp_path, doc)
        code2, rep2 = self.run_cli(tmp_path, doc)
        assert code1 == code2 == 0
        assert rep1 == rep2

    def test_reports_byte_identical_across_workers(self, tmp_path):
        doc = base_doc()
        doc["tasks"] = [
            {"task": "worst-portfolio", "name": "wp", "utility": "coh", "marginals": ["pos1", "pos2"]},
            {"task": "verify-thm31", "name": "duality", "utility": "coh", "marginals": ["pos1", "pos2"]},
        ]
        _, rep1 = self.run_cli(tmp_path, doc, ("--workers", "1"))
        _, rep4 = self.run_cli(tmp_path, doc, ("--workers", "4"))
        assert rep1 == rep4

    def test_only_selects_task(self, tmp_path, capsys):
        doc = base_doc()
        doc["tasks"] = [
            {"task": "check-space", "name": "space"},
            {"task": "evaluate", "name": "eval", "utility": "ent", "position": "pos1"},
        ]
        code, reports = self.run_cli(tmp_path, doc, ("--only", "eval"))
        assert code == 0
        assert set(reports) == {"eval.tsv"}
        code2, _ = self.run_cli(tmp_path, doc, ("--only", "ghost"))
        assert code2 == 2

    def test_bad_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "parse error" in capsys.readouterr().err

    def assert_input_error(self, tmp_path, capsys, task, message):
        doc = base_doc()
        doc["tasks"] = [task]
        code, _ = self.run_cli(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:") and message in err

    def test_missing_task_field_is_input_error(self, tmp_path, capsys):
        task = {"task": "evaluate", "name": "eval", "position": "pos1"}
        self.assert_input_error(tmp_path, capsys, task, "missing field 'utility'")

    def test_penalty_on_entropic_utility_is_input_error(self, tmp_path, capsys):
        task = {"task": "penalty", "name": "pen", "utility": "ent", "density": "gen1"}
        self.assert_input_error(tmp_path, capsys, task, "penalty needs a dual utility")

    def test_non_integer_cap_is_input_error(self, tmp_path, capsys):
        task = {"task": "worst-portfolio", "name": "wp", "utility": "coh", "marginals": ["pos1", "pos2"], "cap": "lots"}
        self.assert_input_error(tmp_path, capsys, task, "cap must be an integer, got 'lots'")

    @pytest.mark.parametrize(
        "task, message",
        [
            (
                {"task": "evaluate", "name": "eval", "utility": ["ent"], "position": "pos1"},
                "utility reference must be a name, got ['ent']",
            ),
            (
                {"task": "worst-portfolio", "name": "wp", "utility": "coh", "marginals": []},
                "marginals must be a non-empty list, got []",
            ),
            (
                {"task": "worst-scenario", "name": "ws", "utility": "coh", "candidates": [], "marginals": ["pos1"]},
                "candidates must be a non-empty list, got []",
            ),
            (
                {"task": "comonotone", "name": "co", "density": "gen1", "family": []},
                "family must be a non-empty list, got []",
            ),
            (
                {"task": "matrix-sup", "name": "ms", "utility": "coh", "position": "pos1", "matrices": []},
                "matrices must be a non-empty list, got []",
            ),
            (
                {"task": "worst-portfolio", "name": "wp", "utility": "coh", "marginals": "xy"},
                "marginals must be a non-empty list, got 'xy'",
            ),
            (
                {"task": "check-membership", "name": "memb", "density": ["gen1"]},
                "density reference must be a name, got ['gen1']",
            ),
            (
                {"task": "matrix-sup", "name": "ms", "utility": "coh", "position": "pos1", "matrices": [5]},
                "a matrix must be a list of equally long lists, got 5",
            ),
            (
                {
                    "task": "matrix-compare",
                    "name": "mc",
                    "utility": "coh",
                    "matrix": 5,
                    "tilde": ["pos1", "pos2"],
                    "bar": ["pos1", "pos2"],
                },
                "a matrix must be a list of equally long lists, got 5",
            ),
            (
                {"task": "stability", "name": "stab", "kind": "bogus", "densities": ["gen1"]},
                "unknown stability kind 'bogus'",
            ),
            (
                {"task": "matrix-sup", "name": "ms", "utility": "coh", "position": "pos1", "matrices": [[[1.0]]]},
                "matrix shape (1, 1) does not match window length 3",
            ),
            (
                {
                    "task": "matrix-compare",
                    "name": "mc",
                    "utility": "coh",
                    "matrix": [[1.0, 0.0], [0.0, 1.0]],
                    "tilde": ["pos1", "pos2"],
                    "bar": ["pos1", "pos2"],
                },
                "matrix shape (2, 2) does not match window length 3",
            ),
            (
                {
                    "task": "matrix-sup",
                    "name": "ms",
                    "utility": "coh",
                    "position": "pos1",
                    "matrices": [[[0, 0, 1], [0, 1, 0], [1, 0, 0]]],
                },
                "matrix image is not adapted",
            ),
            (
                {
                    "task": "matrix-compare",
                    "name": "mc",
                    "utility": "coh",
                    "matrix": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                    "tilde": ["pos1", "pos2"],
                    "bar": ["pos1", "pos2"],
                },
                "matrix image is not adapted",
            ),
            (
                {"task": "penalty", "name": "pen", "utility": "coh", "density": "gen1", "solver": "hgihs"},
                "unknown field 'solver'",
            ),
            (
                {"task": "penalty", "name": "pen", "utility": "coh", "density": "gen1", "solver": 5},
                "unknown field 'solver'",
            ),
            (
                {
                    "task": "worst-scenario",
                    "name": "ws",
                    "utility": "coh",
                    "candidates": ["gen1"],
                    "marginals": ["pos1"],
                    "solver": "hgihs",
                },
                "unknown field 'solver'",
            ),
            (
                {
                    "task": "worst-scenario",
                    "name": "ws",
                    "utility": "coh",
                    "candidates": ["gen1"],
                    "marginals": ["pos1"],
                    "solver": 5,
                },
                "unknown field 'solver'",
            ),
            (
                {"task": "stability", "name": "stab", "kind": "m1", "terminal": ["tilt"], "expect": "false"},
                "expect must be true or false, got 'false'",
            ),
            (
                {"task": "stability", "name": "stab", "kind": "m1", "terminal": ["tilt"], "expcet": True},
                "unknown field 'expcet'",
            ),
            (
                {"task": "time-consistency", "name": "tc", "process": "entproc", "sample": 1},
                "unknown field 'sample'",
            ),
            (
                {"task": "time-consistency", "name": "tc", "process": "entproc", "samples": 2.5},
                "samples must be an integer, got 2.5",
            ),
            (
                {"task": "evaluate", "name": "eval", "utility": "ent", "position": "pos1", "insurance": "false"},
                "insurance must be true or false, got 'false'",
            ),
            (
                {"task": "axioms", "name": "ax", "utility": "ent", "samples": 2, "expect": {"cohernce": True}},
                "unknown field 'cohernce'",
            ),
            (
                {"task": "axioms", "name": "ax", "utility": "ent", "samples": 0, "expect": {"coherence": True}},
                "samples must be at least 1, got 0",
            ),
            (
                {"task": "time-consistency", "name": "tc", "process": "entproc", "samples": 0},
                "samples must be at least 1, got 0",
            ),
            (
                {"task": "time-consistency", "name": "tc", "process": "entproc", "tol": -1},
                "tol must be at least 0, got -1.0",
            ),
        ],
        ids=[
            "utility-as-list",
            "empty-marginals",
            "empty-candidates",
            "empty-family",
            "empty-matrices",
            "marginals-as-string",
            "membership-density-as-list",
            "matrix-not-a-list",
            "compare-matrix-not-a-list",
            "unknown-stability-kind",
            "matrix-wrong-size",
            "compare-matrix-wrong-size",
            "matrix-image-not-adapted",
            "compare-matrix-image-not-adapted",
            "penalty-solver-misspelt",
            "penalty-solver-not-a-string",
            "worst-scenario-solver-misspelt",
            "worst-scenario-solver-not-a-string",
            "expect-as-string",
            "misspelt-expect",
            "misspelt-samples",
            "fractional-samples",
            "insurance-as-string",
            "misspelt-axiom",
            "axioms-without-samples",
            "time-consistency-without-samples",
            "negative-tolerance",
        ],
    )
    def test_malformed_reference_is_input_error(self, tmp_path, capsys, task, message):
        self.assert_input_error(tmp_path, capsys, task, message)

    @pytest.mark.parametrize(
        "task, message",
        [
            (
                {"task": "evaluate", "name": "eval", "utility": "ent", "position": "late"},
                "position window (1, 2) does not cover (0, 2)",
            ),
            (
                {"task": "penalty", "name": "pen", "utility": "coh", "density": "lateden"},
                "density window (1, 2) does not cover (0, 2)",
            ),
            (
                {"task": "max-correlation", "name": "mc", "density": "gen1", "position": "pos1", "t": 5},
                "position window (0, 2) does not cover (5, 2)",
            ),
            (
                {"task": "comonotone", "name": "co", "density": "gen1", "family": ["pos1", "late"]},
                "processes live on different spaces or windows",
            ),
            (
                {"task": "worst-scenario", "name": "ws", "utility": "ent", "candidates": ["gen1"], "marginals": ["pos1"]},
                "worst-scenario needs a dual utility, not EntropicUtility",
            ),
            (
                {"task": "worst-portfolio", "name": "wp", "utility": "coh", "marginals": ["pos1", "late"]},
                "processes live on different spaces or windows",
            ),
            (
                {"task": "verify-thm31", "name": "duality", "utility": "ent", "marginals": ["pos1"]},
                "the duality harness needs a coherent utility",
            ),
            (
                {"task": "verify-preservation", "name": "pres", "process": "entproc", "variant": "thm32", "stage0": ["late"]},
                "candidate window 1..2 is not 0..2",
            ),
            (
                {"task": "stability", "name": "stab", "densities": ["gen1", "lateden"]},
                "different spaces or windows",
            ),
            (
                {
                    "task": "matrix-compare", "name": "cmp", "utility": "ent", "tilde": ["late"], "bar": ["late"],
                    "matrix": [[1, 0], [0, 1]], "expect": "guard",
                },
                "position window (1, 2) does not cover (0, 2)",
            ),
            (
                {
                    "task": "matrix-compare", "name": "cmp", "utility": "lateent", "tilde": ["pos1"], "bar": ["pos1"],
                    "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "expect": "guard",
                },
                "portfolio window (0, 2) is not the utility window (1, 2)",
            ),
        ],
        ids=[
            "evaluate-late-position",
            "penalty-late-density",
            "max-correlation-time-past-window",
            "comonotone-mixed-windows",
            "worst-scenario-entropic-utility",
            "worst-portfolio-mixed-windows",
            "duality-entropic-utility",
            "preservation-late-stage0",
            "stability-mixed-windows",
            "matrix-compare-late-portfolios",
            "matrix-compare-early-portfolios",
        ],
    )
    def test_objects_that_do_not_fit_are_input_errors(self, tmp_path, capsys, task, message):
        # the harness rejects these before computing; the run must say so, not raise
        doc = base_doc()
        doc["processes"]["late"] = {"t_start": 1, "values": [[1, 1, 2, 2], [0, 3, 1, -2]]}
        doc["densities"]["lateden"] = {"t_start": 1, "class": "De", "increments": [[0.5] * 4, [0.5] * 4]}
        doc["utilities"]["lateent"] = {"variant": "entropic", "alpha": 1.0, "t_start": 1}
        doc["tasks"] = [task]
        code, _ = self.run_cli(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:") and message in err

    def test_out_naming_a_file_is_input_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc())
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        for out in (taken, taken / "reports"):
            assert main(["run", path, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: cannot make the report directory") and str(out) in err
        assert taken.read_text() == "not a directory"

    def test_negative_seed_override_is_rejected(self, tmp_path, capsys):
        doc = base_doc()
        doc["tasks"] = [{"task": "axioms", "name": "ax", "utility": "ent", "samples": 2}]
        with pytest.raises(SystemExit) as exc:
            self.run_cli(tmp_path, doc, ("--seed", "-1"))
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_rejected(self, tmp_path, capsys, workers):
        doc = base_doc()
        doc["tasks"] = [{"task": "axioms", "name": "ax", "utility": "ent", "samples": 2}]
        with pytest.raises(SystemExit) as exc:
            self.run_cli(tmp_path, doc, ("--workers", workers))
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verification_failure_exit_code(self, tmp_path):
        doc = base_doc()
        doc["tasks"] = [
            {"task": "axioms", "name": "ax", "utility": "ent", "samples": 5, "expect": {"coherence": True}}
        ]
        code, reports = self.run_cli(tmp_path, doc)
        assert code == 1
        assert b"FAIL" in reports["ax.tsv"]

    def test_cap_exit_code(self, tmp_path):
        doc = base_doc()
        doc["tasks"] = [
            {
                "task": "worst-portfolio",
                "name": "wp",
                "utility": "coh",
                "marginals": ["pos1", "pos2"],
                "cap": 2,
            }
        ]
        code, reports = self.run_cli(tmp_path, doc)
        assert code == 3
        assert b"FAILED-CAP" in reports["wp.tsv"]

    def test_seed_override_changes_sampled_tasks(self, tmp_path):
        doc = base_doc()
        doc["tasks"] = [{"task": "axioms", "name": "ax", "utility": "ent", "samples": 5}]
        _, rep_a = self.run_cli(tmp_path, doc, ("--seed", "1"))
        _, rep_b = self.run_cli(tmp_path, doc, ("--seed", "1"))
        assert rep_a == rep_b

    def test_preservation_skip_expectation(self, tmp_path):
        doc = base_doc()
        doc["tasks"] = [
            {
                "task": "verify-preservation",
                "name": "pres",
                "process": "scenproc",
                "variant": "thm33",
                "stage0": ["pos1"],
                "expect": "skip",
            }
        ]
        code, reports = self.run_cli(tmp_path, doc)
        assert code == 0
        assert b"SKIP" in reports["pres.tsv"]


def _mutations():
    """One-field mutations of the bundled scenario: (label, document, task to run).

    Each task field (other than its kind and name) and each field of each
    declared object, and the top-level seed, is dropped or replaced by a value
    of every JSON shape; each top-level section and each declared object is
    replaced by a value of the wrong shape.
    """
    base = json.loads(BUNDLED.read_text())
    drop = object()
    values = [drop, None, "zzz", -3, 2.5, {"a": 1}, float("nan"), [[1, [2]]]]

    def mutated(path, value):
        doc = copy.deepcopy(base)
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is drop:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return f"{'.'.join(map(str, path))}={'dropped' if value is drop else repr(value)}", doc

    for i, task in enumerate(base["tasks"]):
        for key in [k for k in task if k not in ("task", "name")]:
            for value in values:
                yield *mutated(("tasks", i, key), value), task["name"]
    sections = ["space", "densities", "terminal_densities", "processes", "utilities", "utility_processes", "tasks"]
    for section in sections:
        for value in ["zzz", {}, [1]]:
            yield *mutated((section,), value), "space"
    for value in values:  # a task that reads the seed
        yield *mutated(("seed",), value), "time-consistency"
    for key in base["space"]:
        for value in values:
            yield *mutated(("space", key), value), "space"
    for section in sections[1:-1]:
        for name, spec in base[section].items():
            for key in spec:
                for value in values:
                    yield *mutated((section, name, key), value), "space"
            for value in ["zzz", [1], None]:
                yield *mutated((section, name), value), "space"


def test_one_field_mutations_never_escape_as_tracebacks(tmp_path):
    """Every one-field mutation of the bundled scenario ends in an exit code of
    0-3 without an exception, and every exit 2 says ``input error:``."""
    path, out = tmp_path / "mutated.json", str(tmp_path / "out")
    runs, escaped = 0, []
    for label, doc, task in _mutations():
        runs += 1
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", str(path), "--only", task, "--out", out])
        except Exception as e:  # noqa: BLE001 - any exception is the failure under test
            escaped.append(f"{label}: {type(e).__name__}: {e}")
            continue
        if code not in (0, 1, 2, 3) or (code == 2 and "input error:" not in err.getvalue()):
            escaped.append(f"{label}: exit {code}, stderr {err.getvalue()!r}")
    assert runs == 784
    assert not escaped, f"{len(escaped)} of {runs} runs escaped:\n" + "\n".join(escaped[:20])
