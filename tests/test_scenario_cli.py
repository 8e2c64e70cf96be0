import contextlib
import copy
import dataclasses
import inspect
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dynrisk import (
    ConditionalValue,
    DualFiniteUtility,
    ScenarioError,
    check_adapted_worst_process,
    verify_preservation,
    verify_theorem_3_1,
)
from dynrisk import cli
from dynrisk.cli import main, run_task
from dynrisk.scenario import parse_scenario
from dynrisk.utility import UtilityBase
from dynrisk.worstcase import StageCheck
from test_kernel import plant_glue_defect
from test_worstcase import plant_duality_defect

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ROOT / "demos" / "full_verification.json"
README = ROOT / "README.md"


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


X = "0.30000000000000004"  # the repr of 0.1 + 0.2, a float that is not dyadic
# field: (write its number as a string into base_doc(), read it back from the scenario, the float expected)
REPR_FIELDS = {
    "probs": (
        lambda d: d.update(space={**d["space"], "probs": ["0.1", "0.2", X, "0.4"]}, densities={}, terminal_densities={}, utilities={}, utility_processes={}),
        lambda s: s.space.probs.tolist(),
        [0.1, 0.2, 0.1 + 0.2, 0.4],
    ),
    "h": (
        lambda d: d["terminal_densities"]["tilt"].update(h=["1.6", "0.8", "0.8", "0.8"]),
        lambda s: s.terminal_densities["tilt"].h.tolist(),
        [1.6, 0.8, 0.8, 0.8],
    ),
    "gamma": (
        lambda d: d["utilities"]["coh"]["scenarios"][0].update(gamma="-" + X),
        lambda s: s.utilities["coh"].scenarios[0][1].values.tolist(),
        [-(0.1 + 0.2)],
    ),
    "gamma-vector": (
        lambda d: d["utilities"]["coh"]["scenarios"][0].update(gamma=["-" + X]),
        lambda s: s.utilities["coh"].scenarios[0][1].values.tolist(),
        [-(0.1 + 0.2)],
    ),
    "utility-alpha": (lambda d: d["utilities"]["ent"].update(alpha=X), lambda s: s.utilities["ent"].alpha, 0.1 + 0.2),
    "robust-alpha": (lambda d: d["utilities"]["rob"].update(alpha=X), lambda s: s.utilities["rob"].alpha, 0.1 + 0.2),
    "process-alpha": (
        lambda d: d["utility_processes"]["entproc"].update(alpha=X),
        lambda s: s.utility_processes["entproc"].stage(1).alpha,
        0.1 + 0.2,
    ),
    "robust-process-alpha": (
        lambda d: d["utility_processes"].update(robproc={"variant": "robust", "alpha": X, "densities": ["tilt"]}),
        lambda s: s.utility_processes["robproc"].stage(2).alpha,
        0.1 + 0.2,
    ),
}


def bundled_alone(name, **fields):
    """The bundled scenario with its task ``name`` alone, ``fields`` set on it."""
    doc = json.loads(BUNDLED.read_text())
    doc["tasks"] = [{**next(t for t in doc["tasks"] if t["name"] == name), **fields}]
    return doc


def plant_result(monkeypatch, owner, name, bend):
    """Make ``owner.name`` return its real result bent by ``bend``."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: bend(real(*args)))


def shifted(v, by):
    return ConditionalValue(v.space, v.time, v.values + by)


def worse_last_stage(rep):
    last = rep.stage_checks[-1]
    residual = last.residual + 1e-6
    return dataclasses.replace(rep, stage_checks=rep.stage_checks[:-1] + [StageCheck(last.t, residual, residual <= 1e-9)])


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
        # the repr of a float that is not dyadic parses to that float, not to a neighbour
        doc = base_doc()
        doc["processes"]["pos1"]["values"][2][0] = "0.30000000000000004"
        doc["densities"]["gen1"]["increments"][1][0] = "0.30000000000000004"
        scn = parse_scenario(doc)
        for v in (scn.processes["pos1"].values[2, 0], scn.densities["gen1"].values[1, 0]):
            assert v == 0.1 + 0.2 != 0.3

    @pytest.mark.parametrize("field", REPR_FIELDS)
    def test_every_number_field_parses_a_repr_exactly(self, field):
        # each reader of numbers, in each section, turns a float's repr into that float
        doc = base_doc()
        write, read, expected = REPR_FIELDS[field]
        write(doc)
        assert read(parse_scenario(doc)) == expected

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

    @pytest.mark.parametrize(
        "gammas, t_start, message",
        [
            ([0.0, 0.0], 1, "scenario 0 not a density on the window: conditional mass on atom (0, 1) at t=1 is 0.8, not 1"),
            ([0.0, 0.5], 0, "scenario 1 penalty takes a positive value"),
            ([-0.5, -0.25], 0, "penalties are not normalized"),
            # phi would be +inf on the atom; its max penalty, -inf, is not 0
            (["-inf", "-inf"], 0, "penalties are not normalized"),
        ],
        ids=["not-a-density-on-the-window", "positive-penalty", "not-normalized", "every-penalty-neg-inf"],
    )
    def test_dual_utility_refusals_name_the_utility(self, gammas, t_start, message):
        doc = base_doc()
        coh = doc["utilities"]["coh"]
        coh["t_start"] = t_start
        for entry, gamma in zip(coh["scenarios"], gammas):
            entry["gamma"] = gamma
        with pytest.raises(ScenarioError, match=re.escape(f"utility coh: {message}")):
            parse_scenario(doc)

    def test_duplicate_task_names(self):
        doc = base_doc()
        doc["tasks"] = [{"task": "check-space", "name": "a"}, {"task": "check-space", "name": "a"}]
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(doc)

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


EMPTY_CLASS = "empty rearrangement class: every arrangement of the paths kept by merging within PATH_TOL"


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

    def test_evaluate_insurance_writes_psi_rows(self, tmp_path):
        doc = base_doc()
        doc["utilities"]["ent1"] = {"variant": "entropic", "alpha": 0.5, "t_start": 1}
        doc["tasks"] = [{"task": "evaluate", "name": "ins", "utility": "ent1", "position": "pos1", "insurance": True}]
        code, reports = self.run_cli(tmp_path, doc)
        scn = parse_scenario(doc)
        psi = scn.utilities["ent1"].insurance(scn.processes["pos1"]).values
        want = [f"ins\t{cli._atom_label(atom)}\tpsi\t{cli._fmt(v)}\t-\tINFO" for atom, v in zip(scn.space.atoms(1), psi)]
        assert code == 0 and len(want) == 2
        assert reports["ins.tsv"].decode().splitlines()[1:] == want

    def test_task_fields_are_checked_when_that_task_runs(self, tmp_path, capsys):
        # objects and task names are checked at load, each task's fields just before it computes
        doc = json.loads(BUNDLED.read_text())
        doc["tasks"].append({"task": "check-space", "name": "late-bad", "expcet": True})
        code, reports = self.run_cli(tmp_path, doc)
        assert code == 2
        assert capsys.readouterr().err == "input error: task 'late-bad': unknown field 'expcet'\n"
        assert "late-bad.tsv" not in reports and len(reports) == 17

    def test_bad_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe{}", "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0"),
            (b"[" * 100_000 + b"]" * 100_000, "{path}: parse error: "),
        ],
        ids=["not-utf-8", "nested-100000-deep"],
    )
    def test_unparsable_file_is_input_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("input error: " + message.format(path=path))

    @pytest.mark.parametrize(
        "name, message",
        [
            ("a\0b", "tasks[0]: name must be a file name, got 'a\\x00b'"),
            ("x" * 300, f"cannot write the report of task {'x' * 300!r}: "),
        ],
        ids=["nul", "too-long"],
    )
    def test_task_name_the_file_system_refuses_is_input_error(self, tmp_path, capsys, name, message):
        doc = base_doc()
        doc["tasks"] = [{"task": "check-space", "name": name}]
        code, reports = self.run_cli(tmp_path, doc)
        assert code == 2 and reports == {}
        assert capsys.readouterr().err.startswith("input error: " + message)

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
                {"task": "verify-preservation", "name": "pres", "process": "scenproc", "variant": "thm32", "stage0": ["pos1"]},
                "the two-step variant needs entropic stages",
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
            (
                {"task": "verify-thm31", "name": "duality", "utility": "latecoh", "marginals": ["pos1", "pos2"]},
                "portfolio window (0, 2) is not the utility window (1, 2)",
            ),
            (
                {"task": "max-correlation", "name": "mc", "density": "gen1", "position": "tiny"},
                EMPTY_CLASS,
            ),
            (
                {"task": "comonotone", "name": "co", "density": "gen1", "family": ["pos1", "tiny"]},
                EMPTY_CLASS,
            ),
            (
                {"task": "worst-scenario", "name": "ws", "utility": "coh", "candidates": ["gen1"], "marginals": ["tiny"]},
                EMPTY_CLASS,
            ),
            (
                {"task": "worst-portfolio", "name": "wp", "utility": "coh", "marginals": ["pos2", "tiny"]},
                EMPTY_CLASS,
            ),
            (
                {"task": "verify-thm31", "name": "duality", "utility": "coh", "marginals": ["tiny"]},
                EMPTY_CLASS,
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
            "preservation-two-step-variant-of-dual-stages",
            "stability-mixed-windows",
            "matrix-compare-late-portfolios",
            "matrix-compare-early-portfolios",
            "duality-early-marginals",
            "max-correlation-empty-class",
            "comonotone-empty-class",
            "worst-scenario-empty-class",
            "worst-portfolio-empty-class",
            "duality-empty-class",
        ],
    )
    def test_objects_that_do_not_fit_are_input_errors(self, tmp_path, capsys, task, message):
        # the harness rejects these before computing; the run must say so, not raise
        doc = base_doc()
        doc["processes"]["late"] = {"t_start": 1, "values": [[1, 1, 2, 2], [0, 3, 1, -2]]}
        doc["densities"]["lateden"] = {"t_start": 1, "class": "De", "increments": [[0.5] * 4, [0.5] * 4]}
        doc["utilities"]["lateent"] = {"variant": "entropic", "alpha": 1.0, "t_start": 1}
        doc["utilities"]["latecoh"] = {"variant": "dual", "t_start": 1, "t_end": 2, "scenarios": [{"density": "lateden", "gamma": 0.0}]}
        # adapted, but merging its paths within PATH_TOL leaves no adapted arrangement
        doc["processes"]["tiny"] = {"t_start": 0, "values": [[0, 0, 0, 0], [0, 9e-13, 1.8e-12, 2.7e-12], [5, 7, 7, 9]]}
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

    def test_workers_flag_is_unrecognized(self, tmp_path, capsys):
        # the scans run on one thread, so there is no worker count to set
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(BUNDLED), "--out", str(out), "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not out.exists()

    def test_harnesses_take_no_worker_count(self):
        for fn in (verify_theorem_3_1, check_adapted_worst_process, verify_preservation, run_task):
            assert "workers" not in inspect.signature(fn).parameters, fn.__name__

    def test_readme_lists_the_run_flags(self, capsys):
        readme = README.read_text()
        section = readme[readme.index("## Command line"):]
        flags = section[section.index("Flags:"):].split("\n\n", 1)[0]
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        printed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", flags)) == printed

    def test_verification_failure_exit_code(self, tmp_path):
        doc = base_doc()
        doc["tasks"] = [
            {"task": "axioms", "name": "ax", "utility": "ent", "samples": 5, "expect": {"coherence": True}}
        ]
        code, reports = self.run_cli(tmp_path, doc)
        assert code == 1
        assert b"FAIL" in reports["ax.tsv"]

    def test_planted_glue_defect_writes_time_consistency_fail_rows(self, tmp_path, monkeypatch, capsys):
        doc = base_doc()
        doc["tasks"] = [{"task": "time-consistency", "name": "tc", "process": "entproc", "samples": 2}]
        code, reports = self.run_cli(tmp_path, doc)
        assert code == 0 and b"FAIL" not in reports["tc.tsv"]
        plant_glue_defect(monkeypatch, "glued")
        code, reports = self.run_cli(tmp_path, doc)
        rows = reports["tc.tsv"].decode().splitlines()
        assert code == 1 and "tc\tFAIL" in capsys.readouterr().out
        quantity, value, bound, status = rows[1].split("\t")[2:]
        assert (quantity, bound, status) == ("max-residual", "1e-09", "FAIL") and abs(float(value) - 1e-6) < 1e-12
        failures = [row for row in rows if "\tfailure\t" in row]
        assert len(failures) == 10 and all(row.endswith("\t-\tFAIL") for row in failures)
        assert failures[0] == "tc\t-\tfailure\tt=0, theta=[2, 2, 2, 2], sample 0: residual 1.23e-07\t-\tFAIL"

    def test_planted_duality_defect_writes_an_equality_fail_row(self, tmp_path, monkeypatch, capsys):
        doc = base_doc()
        doc["tasks"] = [{"task": "verify-thm31", "name": "duality", "utility": "coh", "marginals": ["pos1", "pos2"]}]
        code, reports = self.run_cli(tmp_path, doc)
        assert code == 0 and b"FAIL" not in reports["duality.tsv"]
        plant_duality_defect(monkeypatch)
        code, reports = self.run_cli(tmp_path, doc)
        rows = reports["duality.tsv"].decode().splitlines()
        assert code == 1 and "duality\tFAIL" in capsys.readouterr().out
        quantity, value, bound, status = next(row for row in rows if "\tequality-residual\t" in row).split("\t")[2:]
        assert (quantity, bound, status) == ("equality-residual", "1e-09", "FAIL") and abs(float(value) - 1e-6) < 1e-12

    @pytest.mark.parametrize("name, expect", (("preservation", "skip"), ("matrix-compare", "guard")))
    def test_an_expected_guard_that_does_not_fire_fails(self, tmp_path, capsys, name, expect):
        # the hypotheses hold and the conclusion is tested, so the guard never fires
        code, reports = self.run_cli(tmp_path, bundled_alone(name))
        assert code == 0 and capsys.readouterr().out == f"{name}\tPASS\n"
        rows = reports[f"{name}.tsv"]
        code, reports = self.run_cli(tmp_path, bundled_alone(name, expect=expect))
        assert code == 1 and capsys.readouterr().out == f"{name}\tFAIL\n"
        assert reports[f"{name}.tsv"] == rows  # the same rows: only the verdict reads the expectation

    # a defect planted behind each row that only a failing harness writes: (the bundled
    # task, the owner and name of what its harness calls, how the plant bends that
    # result, the report row, floats compared within 1e-12)
    PLANTED_ROWS = {
        # the LAP bound 1 below the max correlation
        "psi_a": ("max-correlation", cli, "lap_upper_bound", lambda v: shifted(v, -1.0), ("{0,1,2,3}", "psi_a", 2.7, 1.9, "FAIL")),
        # the scanned sup 0.1 below its portfolio's own value
        "sup": (
            "worst-portfolio",
            cli,
            "worst_portfolio_bruteforce",
            lambda r: dataclasses.replace(r, sup_value=shifted(r.sup_value, -0.1)),
            ("{0,1,2,3}", "sup", 0.7875, 0.8125, "FAIL"),
        ),
        # the comonotone tuple priced 1e-6 above the sup; the equality still holds
        "comonotone-attains": ("duality", UtilityBase, "insurance", lambda v: shifted(v, 1e-6), ("-", "comonotone-attains", "false", 1e-6, "FAIL")),
        # the last stage's certificate 1e-6 off
        "stage-t": ("preservation", cli, "verify_preservation", worse_last_stage, ("-", "stage-2", 1e-6, 1e-9, "FAIL")),
        # the conclusion's residual 1 + 1e-6 higher, from -1 to 1e-6
        "conclusion": (
            "matrix-compare",
            cli,
            "matrix_compare",
            lambda r: dataclasses.replace(r, conclusion_residual=r.conclusion_residual + 1.000001, conclusion_holds=False),
            ("-", "conclusion", "false", 1e-6, "FAIL"),
        ),
    }

    @pytest.mark.parametrize("case", PLANTED_ROWS)
    def test_planted_defect_writes_its_fail_row(self, tmp_path, monkeypatch, capsys, case):
        name, owner, attr, bend, want = self.PLANTED_ROWS[case]
        code, reports = self.run_cli(tmp_path, bundled_alone(name))
        assert code == 0 and b"FAIL" not in reports[f"{name}.tsv"]
        capsys.readouterr()
        plant_result(monkeypatch, owner, attr, bend)
        code, reports = self.run_cli(tmp_path, bundled_alone(name))
        assert code == 1 and capsys.readouterr().out == f"{name}\tFAIL\n"
        rows = [row.split("\t")[1:] for row in reports[f"{name}.tsv"].decode().splitlines()]
        fails = [row for row in rows if row[-1] == "FAIL"]
        assert len(fails) == 1 and fails[0][1] == want[1], fails
        for got, cell in zip(fails[0], want):
            assert got == cell if isinstance(cell, str) else abs(float(got) - cell) < 1e-12, (got, cell)
        if case == "comonotone-attains":
            assert ["-", "equality-residual", "0", "1e-09", "PASS"] in rows

    # rows that only a rare path writes: (objects to declare beside base_doc()'s, the task,
    # the line its report or, on an input error, stderr must hold, the exit code)
    RARE_ROWS = {
        "membership-diagnostic": (
            {"densities": {"heavy": {"class": "A1plus", "increments": [[1] * 4] * 3}}},
            {"task": "check-membership", "density": "heavy"},
            "rare\t-\tdiagnostic\tconditional mass on atom (0, 1, 2, 3) at t=0 is 3, not 1\t-\tFAIL",
            1,
        ),
        "membership-of-a-terminal-density": (
            {},
            {"task": "check-membership", "density": "tilt"},
            "rare\t-\tin-Drel\ttrue\t-\tPASS",
            0,
        ),
        "penalty-error": (
            {},
            {"task": "penalty", "utility": "coh", "density": "gen1"},
            "rare\t-\terror\tLP solver failed: Iteration limit reached.\t-\tFAIL",
            1,
        ),
        "comonotone-detail": (
            {},
            {"task": "comonotone", "density": "gen1", "family": ["pos1", "pos2"]},
            "rare\t-\tdetail\tmember 0 misses its max correlation by 0.1\t-\tINFO",
            0,
        ),
        # the identity wins the atom {0, 1} on the terminal slice X_2, and -X_1 wins {2, 3}
        "matrix-sup-directedness": (
            {"utilities": {"ent1": {"variant": "entropic", "alpha": 1.0, "t_start": 1}}},
            {"task": "matrix-sup", "utility": "ent1", "position": "pos1", "matrices": [np.eye(3).tolist(), [[1, 0, 0], [0, 1, 0], [0, -1, 0]]]},
            "rare\t-\tdirectedness\tno single maximizer; upward directedness failed\t-\tINFO",
            0,
        ),
        # both atoms at t=1 want the paths whose X_1 is 2, so no member attains its max correlation on both
        "thm31-without-a-comonotone-tuple": (
            {
                "densities": {"flat1": {"t_start": 1, "increments": [[0.5] * 4] * 2}},
                "processes": {"late": {"t_start": 1, "values": [[1, 1, 2, 2], [0, 1, 2, 3]]}},
                "utilities": {"coh1": {"variant": "dual", "t_start": 1, "scenarios": [{"density": "flat1"}]}},
            },
            {"task": "verify-thm31", "utility": "coh1", "marginals": ["late"]},
            "rare\t-\tcomonotone-search\tnot-applicable\t-\tINFO",
            0,
        ),
        "unknown-task-kind": ({}, {"task": "bogus"}, "input error: task 'rare': unknown task kind 'bogus'", 2),
        "missing-file": ({}, None, "input error: cannot read {path}: [Errno 2] No such file or directory", 2),
    }

    @pytest.mark.parametrize("case", RARE_ROWS)
    def test_rare_rows_and_their_exit_codes(self, tmp_path, capsys, monkeypatch, case):
        declared, task, line, want = self.RARE_ROWS[case]
        if case == "penalty-error":

            def penalty(u, a):
                raise RuntimeError("LP solver failed: Iteration limit reached.")

            monkeypatch.setattr(cli, "penalty", penalty)
        doc = base_doc()
        for section, objects in declared.items():
            doc[section].update(objects)
        doc["tasks"] = [{**task, "name": "rare"}] if task else []
        path = write_doc(tmp_path, doc) if task else str(tmp_path / "missing.json")
        code = main(["run", path, "--out", str(tmp_path / "out")])
        assert code == want
        if want == 2:
            assert capsys.readouterr().err.startswith(line.format(path=path))
        else:
            assert line in (tmp_path / "out" / "rare.tsv").read_text().splitlines()

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


def test_each_task_alone_writes_its_full_run_report(tmp_path):
    """The tasks of one run share the scenario's processes, and with them the
    rearrangement classes kept on those processes.  Each task of the bundled
    scenario, run alone from a one-task copy of the document, writes the
    bytes it writes in the full run."""
    base = json.loads(BUNDLED.read_text())
    full = tmp_path / "full"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(BUNDLED), "--out", str(full)]) == 0
    path = tmp_path / "one.json"
    for task in base["tasks"]:
        name, out = task["name"], tmp_path / "alone"
        path.write_text(json.dumps(dict(base, tasks=[task])))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(path), "--out", str(out)]) == 0, name
        assert (out / f"{name}.tsv").read_bytes() == (full / f"{name}.tsv").read_bytes(), name
    assert len(base["tasks"]) == 17


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
