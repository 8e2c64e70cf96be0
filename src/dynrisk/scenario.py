"""Scenario files: one JSON document declaring a space, named objects and tasks.

Numbers may be JSON numbers or decimal strings; the literal "-inf" is the
only non-finite value accepted, and only where a penalty is expected.  All
declared objects are validated at load time, so a task never sees an object
violating its membership invariants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .processes import AdaptedProcess, DensityProcess, TerminalDensity, membership
from .space import ConditionalValue, FiniteFilteredSpace
from .utility import (
    DualFiniteUtility,
    EntropicUtility,
    RobustEntropicUtility,
    UtilityBase,
    UtilityProcess,
    entropic_process,
    normalized_scenario_process,
    robust_entropic_process,
)


class ScenarioError(ValueError):
    """Parse, reference or invariant failure in a scenario file."""


def _num(x, where: str, allow_neg_inf: bool = False) -> float:
    if isinstance(x, bool):
        raise ScenarioError(f"{where}: expected a number, got a boolean")
    if isinstance(x, (int, float)):
        v = float(x)
    elif isinstance(x, str):
        try:
            v = float(x)
        except ValueError:
            raise ScenarioError(f"{where}: cannot parse number {x!r}") from None
    else:
        raise ScenarioError(f"{where}: expected a number, got {type(x).__name__}")
    if np.isnan(v):
        raise ScenarioError(f"{where}: NaN is not a value")
    if np.isinf(v) and not (allow_neg_inf and v < 0):
        raise ScenarioError(f"{where}: non-finite value {x!r} not allowed here")
    return v


def _matrix(rows, where: str, allow_neg_inf: bool = False) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ScenarioError(f"{where}: expected a non-empty list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ScenarioError(f"{where}: row {i} is not a list")
        out.append([_num(v, f"{where}[{i}][{j}]", allow_neg_inf) for j, v in enumerate(row)])
    return np.array(out)


@dataclass
class Scenario:
    space: FiniteFilteredSpace
    processes: dict[str, AdaptedProcess] = field(default_factory=dict)
    densities: dict[str, DensityProcess] = field(default_factory=dict)
    density_classes: dict[str, str] = field(default_factory=dict)
    terminal_densities: dict[str, TerminalDensity] = field(default_factory=dict)
    utilities: dict[str, UtilityBase] = field(default_factory=dict)
    utility_processes: dict[str, UtilityProcess] = field(default_factory=dict)
    utility_process_specs: dict[str, dict] = field(default_factory=dict)
    tasks: list[dict] = field(default_factory=list)
    seed: int = 0

    def resolve(self, kind: str, name: str):
        table = {
            "process": self.processes,
            "density": self.densities,
            "terminal": self.terminal_densities,
            "utility": self.utilities,
            "utility-process": self.utility_processes,
        }[kind]
        if not isinstance(name, str):
            raise ScenarioError(f"{kind} reference must be a name, got {name!r}")
        if name not in table:
            raise ScenarioError(f"unresolved {kind} reference {name!r}")
        return table[name]


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    return parse_scenario(doc)


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be an object")
    if "space" not in doc:
        raise ScenarioError("missing space block")
    sp = doc["space"]
    probs = [_num(p, f"space.probs[{i}]") for i, p in enumerate(sp.get("probs", []))]
    partitions = sp.get("partitions")
    if partitions is None:
        raise ScenarioError("space.partitions missing")
    try:
        space = FiniteFilteredSpace(probs, partitions)
    except ValueError as e:
        raise ScenarioError(f"space: {e}") from e

    scn = Scenario(space=space, seed=int(doc.get("seed", 0)))

    for name, spec in doc.get("processes", {}).items():
        vals = _matrix(spec.get("values"), f"processes.{name}.values")
        try:
            scn.processes[name] = AdaptedProcess(space, int(spec.get("t_start", 0)), vals)
        except ValueError as e:
            raise ScenarioError(f"process {name}: {e}") from e

    for name, spec in doc.get("densities", {}).items():
        incs = _matrix(spec.get("increments"), f"densities.{name}.increments")
        t0 = int(spec.get("t_start", 0))
        try:
            a = DensityProcess(space, t0, incs)
        except ValueError as e:
            raise ScenarioError(f"density {name}: {e}") from e
        klass = spec.get("class", "D")
        ok, diag = membership(a, klass, t0)
        if not ok:
            raise ScenarioError(f"density {name}: {diag}")
        scn.densities[name] = a
        scn.density_classes[name] = klass

    for name, spec in doc.get("terminal_densities", {}).items():
        h = [_num(v, f"terminal_densities.{name}.h[{i}]") for i, v in enumerate(spec.get("h", []))]
        try:
            scn.terminal_densities[name] = TerminalDensity(space, h)
        except ValueError as e:
            raise ScenarioError(f"terminal density {name}: {e}") from e

    for name, spec in doc.get("utilities", {}).items():
        scn.utilities[name] = _build_utility(scn, name, spec)

    for name, spec in doc.get("utility_processes", {}).items():
        scn.utility_processes[name] = _build_utility_process(scn, name, spec)
        scn.utility_process_specs[name] = dict(spec)

    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list):
        raise ScenarioError("tasks must be a list")
    seen = set()
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or "task" not in task:
            raise ScenarioError(f"tasks[{i}]: each task needs a 'task' field")
        name = task.get("name", f"task{i}")
        task = dict(task)
        task["name"] = name
        if name in seen:
            raise ScenarioError(f"duplicate task name {name!r}")
        seen.add(name)
        scn.tasks.append(task)
    return scn


def _build_utility(scn: Scenario, name: str, spec: dict) -> UtilityBase:
    space = scn.space
    variant = spec.get("variant")
    t0 = int(spec.get("t_start", 0))
    where = f"utility {name}"
    try:
        if variant == "dual":
            t1 = int(spec.get("t_end", space.horizon))
            scenarios = []
            for j, entry in enumerate(spec.get("scenarios", [])):
                a = scn.resolve("density", entry["density"])
                gam = entry.get("gamma", 0.0)
                if isinstance(gam, list):
                    vals = [
                        _num(v, f"{where}.scenarios[{j}].gamma[{k}]", allow_neg_inf=True)
                        for k, v in enumerate(gam)
                    ]
                else:
                    vals = [_num(gam, f"{where}.scenarios[{j}].gamma", allow_neg_inf=True)] * space.n_atoms(t0)
                scenarios.append((a, ConditionalValue(space, t0, vals)))
            return DualFiniteUtility(space, t0, t1, scenarios)
        if variant == "entropic":
            t1 = int(spec["t_end"]) if "t_end" in spec else None
            return EntropicUtility(space, _num(spec.get("alpha", 1.0), f"{where}.alpha"), t0, t1)
        if variant == "robust":
            dens = [scn.resolve("terminal", n) for n in spec.get("densities", [])]
            t1 = int(spec["t_end"]) if "t_end" in spec else None
            return RobustEntropicUtility(space, _num(spec.get("alpha", 1.0), f"{where}.alpha"), dens, t0, t1)
    except ScenarioError:
        raise
    except (KeyError, ValueError) as e:
        raise ScenarioError(f"{where}: {e}") from e
    raise ScenarioError(f"{where}: unknown variant {variant!r}")


def _build_utility_process(scn: Scenario, name: str, spec: dict) -> UtilityProcess:
    space = scn.space
    variant = spec.get("variant")
    start = int(spec.get("start", 0))
    where = f"utility process {name}"
    try:
        if variant == "entropic":
            return entropic_process(space, _num(spec.get("alpha", 1.0), f"{where}.alpha"), start)
        if variant == "robust":
            dens = [scn.resolve("terminal", n) for n in spec.get("densities", [])]
            return robust_entropic_process(space, _num(spec.get("alpha", 1.0), f"{where}.alpha"), dens, start)
        if variant == "normalized":
            a = scn.resolve("density", spec["density"])
            return normalized_scenario_process(space, a, start)
    except ScenarioError:
        raise
    except (KeyError, ValueError) as e:
        raise ScenarioError(f"{where}: {e}") from e
    raise ScenarioError(f"{where}: unknown variant {variant!r}")


def serialize_scenario(scn: Scenario) -> dict:
    """Back to the document shape, numbers as decimal strings."""
    doc: dict[str, Any] = {
        "seed": scn.seed,
        "space": {
            "probs": [repr(float(p)) for p in scn.space.probs],
            "partitions": [
                [list(atom) for atom in scn.space.atoms(t)] for t in range(scn.space.horizon + 1)
            ],
        },
    }
    if scn.processes:
        doc["processes"] = {
            name: {"t_start": X.t_start, "values": [[repr(float(v)) for v in row] for row in X.values]}
            for name, X in scn.processes.items()
        }
    if scn.densities:
        doc["densities"] = {
            name: {
                "t_start": a.t_start,
                "class": scn.density_classes.get(name, "D"),
                "increments": [[repr(float(v)) for v in row] for row in a.values],
            }
            for name, a in scn.densities.items()
        }
    if scn.terminal_densities:
        doc["terminal_densities"] = {
            name: {"h": [repr(float(v)) for v in f.h]} for name, f in scn.terminal_densities.items()
        }
    if scn.utilities:
        out = {}
        for name, u in scn.utilities.items():
            if isinstance(u, DualFiniteUtility):
                entries = []
                for a, g in u.scenarios:
                    dname = next((n for n, d in scn.densities.items() if d is a), None)
                    if dname is None:
                        raise ScenarioError(f"utility {name}: scenario density not declared by name")
                    entries.append(
                        {"density": dname, "gamma": [repr(float(v)) for v in g.values]}
                    )
                out[name] = {
                    "variant": "dual", "t_start": u.t_start, "t_end": u.t_end, "scenarios": entries,
                }
            elif isinstance(u, RobustEntropicUtility):
                names = []
                for f in u.densities:
                    tname = next((n for n, d in scn.terminal_densities.items() if d is f), None)
                    if tname is None:
                        raise ScenarioError(f"utility {name}: terminal density not declared by name")
                    names.append(tname)
                out[name] = {
                    "variant": "robust", "alpha": repr(u.alpha), "t_start": u.t_start,
                    "t_end": u.t_end, "densities": names,
                }
            elif isinstance(u, EntropicUtility):
                out[name] = {
                    "variant": "entropic", "alpha": repr(u.alpha), "t_start": u.t_start, "t_end": u.t_end,
                }
            else:
                raise ScenarioError(f"utility {name}: unknown variant {type(u).__name__}")
        doc["utilities"] = out
    if scn.utility_process_specs:
        doc["utility_processes"] = {n: dict(s) for n, s in scn.utility_process_specs.items()}
    if scn.tasks:
        doc["tasks"] = [dict(t) for t in scn.tasks]
    return doc


def save_scenario(scn: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(serialize_scenario(scn), fh, indent=2)
        fh.write("\n")
