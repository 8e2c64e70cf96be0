import json

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
                "solver must be 'highs' or 'vertices', got 'hgihs'",
            ),
            (
                {"task": "penalty", "name": "pen", "utility": "coh", "density": "gen1", "solver": 5},
                "solver must be 'highs' or 'vertices', got 5",
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
                "solver must be 'highs' or 'vertices', got 'hgihs'",
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
                "solver must be 'highs' or 'vertices', got 5",
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
        ],
    )
    def test_malformed_reference_is_input_error(self, tmp_path, capsys, task, message):
        self.assert_input_error(tmp_path, capsys, task, message)

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
