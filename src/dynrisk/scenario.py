"""Scenario files: one JSON document declaring a space, named objects and tasks.

Every field is read once, through `Fields`; a malformed one is a `ScenarioError`
naming the object and the field.  Integers are JSON integers >= 0, booleans are
JSON true/false, numbers are JSON numbers or decimal strings ("-inf" only where
a penalty is expected), and a field no read asks for is rejected.  Declared
objects are validated at load time; `dynrisk.cli` reads task fields the same way.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

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


_REQUIRED = object()


class Fields:
    """Typed reads of one JSON object named ``where``; references resolve in
    ``scn``.  An absent optional field gives the read's default as is."""

    def __init__(self, obj, where: str, scn: Scenario | None = None):
        if not isinstance(obj, dict):
            raise ScenarioError(f"{where} must be an object, got {obj!r}")
        self.obj, self.where, self.scn = obj, where, scn
        self.seen: set[str] = set()

    def fail(self, message: str):
        raise ScenarioError(f"{self.where}: {message}")

    def get(self, key: str, default=_REQUIRED):
        """The field as the document gives it."""
        self.seen.add(key)
        if key in self.obj:
            return self.obj[key]
        if default is _REQUIRED:
            self.fail(f"missing field {key!r}")
        return default

    def check(self, key: str, default, ok, expected: str):
        """The field, which must pass ``ok`` when present."""
        raw = self.get(key, default)
        if key in self.obj and not ok(raw):
            self.fail(f"{key} must be {expected}, got {raw!r}")
        return raw

    def integer(self, key: str, default=_REQUIRED, least: int = 0) -> int:
        v = self.check(key, default, lambda v: type(v) is int, "an integer")
        if key in self.obj and v < least:
            self.fail(f"{key} must be at least {least}, got {v}")
        return v

    def number(self, key: str, default=_REQUIRED, allow_neg_inf: bool = False, least: float = -np.inf) -> float:
        v = self.get(key, default)
        if key in self.obj:
            v = _num(v, f"{self.where}: {key}", allow_neg_inf)
            if v < least:
                self.fail(f"{key} must be at least {least}, got {v}")
        return v

    def numbers(self, key: str, allow_neg_inf: bool = False) -> list[float]:
        return [_num(v, f"{self.where}: {key}[{i}]", allow_neg_inf) for i, v in enumerate(self.items(key))]

    def boolean(self, key: str, default=_REQUIRED) -> bool:
        return self.check(key, default, lambda v: isinstance(v, bool), "true or false")

    def choice(self, key: str, options: tuple[str, ...], default=_REQUIRED) -> str:
        return self.check(key, default, lambda v: v in options, " or ".join(map(repr, options)))

    def items(self, key: str) -> list:
        return self.check(key, _REQUIRED, lambda v: isinstance(v, list) and v, "a non-empty list")

    def object(self, key: str, default=_REQUIRED) -> Fields:
        raw = self.check(key, default, lambda v: isinstance(v, dict), "an object")
        return Fields(raw, f"{self.where}: {key}", self.scn)

    def ref(self, key: str, kind: str, name=_REQUIRED):
        """The declared object of ``kind`` that the field (or ``name``, one of its entries) names."""
        try:
            return self.scn.resolve(kind, self.get(key) if name is _REQUIRED else name)
        except ScenarioError as e:
            self.fail(f"{key}: {e}")

    def refs(self, key: str, kind: str) -> list:
        return [self.ref(key, kind, name) for name in self.items(key)]

    def matrix(self, key: str, length: int | None = None, raw=_REQUIRED) -> np.ndarray:
        """A list of equally long lists of numbers; ``length`` asks for a square
        of that size.  ``raw`` reads one entry of the field instead of all of it."""
        raw = self.get(key) if raw is _REQUIRED else raw
        rows = isinstance(raw, list) and raw and all(isinstance(r, list) and r for r in raw)
        if not rows or len({len(r) for r in raw}) != 1:
            self.fail(f"{key}: a matrix must be a list of equally long lists, got {raw!r}")
        A = np.array([[_num(v, f"{self.where}: {key}") for v in row] for row in raw])
        if length is not None and A.shape != (length, length):
            self.fail(f"{key}: matrix shape {A.shape} does not match window length {length}")
        return A

    def finish(self) -> None:
        unread = sorted(set(self.obj) - self.seen)
        if unread:
            self.fail(f"unknown field {unread[0]!r}")

    @contextmanager
    def building(self):
        """Once every field is read: reject the unread ones, then report a
        ValueError raised inside, a constructor's or a harness's check of its
        arguments, as a ScenarioError naming this object."""
        self.finish()
        try:
            yield
        except ValueError as e:
            self.fail(str(e))


@dataclass
class Scenario:
    space: FiniteFilteredSpace
    processes: dict[str, AdaptedProcess] = field(default_factory=dict)
    densities: dict[str, DensityProcess] = field(default_factory=dict)
    terminal_densities: dict[str, TerminalDensity] = field(default_factory=dict)
    utilities: dict[str, UtilityBase] = field(default_factory=dict)
    utility_processes: dict[str, UtilityProcess] = field(default_factory=dict)
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:  # arrays or objects nested past the interpreter's recursion limit
        raise ScenarioError(f"{path}: parse error: {e}") from e
    return parse_scenario(doc)


def _declared(top: Fields, section: str, noun: str, scn: Scenario):
    """(name, reader) for each object declared in an optional section."""
    table = top.object(section, {})
    for name in table.obj:
        yield name, Fields(table.get(name), f"{noun} {name}", scn)


def parse_scenario(doc: dict) -> Scenario:
    top = Fields(doc, "scenario")
    sp = top.object("space")
    probs, partitions = sp.numbers("probs"), sp.items("partitions")
    if not all(isinstance(p, list) and all(isinstance(a, list) and all(type(i) is int for i in a) for a in p) for p in partitions):
        sp.fail(f"partitions must list each time's atoms as lists of outcome indices, got {partitions!r}")
    with sp.building():
        space = FiniteFilteredSpace(probs, partitions)
    scn = Scenario(space=space, seed=top.integer("seed", 0))

    for name, f in _declared(top, "processes", "process", scn):
        t0, values = f.integer("t_start", 0), f.matrix("values")
        with f.building():
            scn.processes[name] = AdaptedProcess(space, t0, values)

    for name, f in _declared(top, "densities", "density", scn):
        t0, increments, klass = f.integer("t_start", 0), f.matrix("increments"), f.get("class", "D")
        with f.building():  # membership rejects an unknown class
            a = DensityProcess(space, t0, increments)
            ok, diag = membership(a, klass)
        if not ok:
            f.fail(diag)
        scn.densities[name] = a

    for name, f in _declared(top, "terminal_densities", "terminal density", scn):
        h = f.numbers("h")
        with f.building():
            scn.terminal_densities[name] = TerminalDensity(space, h)

    for name, f in _declared(top, "utilities", "utility", scn):
        scn.utilities[name] = _build_utility(f)

    for name, f in _declared(top, "utility_processes", "utility process", scn):
        scn.utility_processes[name] = _build_utility_process(f)

    for i, raw in enumerate(top.check("tasks", [], lambda v: isinstance(v, list), "a list")):
        task = Fields(raw, f"tasks[{i}]")
        task.get("task")
        name = task.check("name", f"task{i}", lambda v: isinstance(v, str) and v and "/" not in v and "\0" not in v, "a file name")
        if any(t["name"] == name for t in scn.tasks):
            raise ScenarioError(f"duplicate task name {name!r}")
        scn.tasks.append({**raw, "name": name})
    top.finish()
    return scn


def _build_utility(f: Fields) -> UtilityBase:
    space = f.scn.space
    variant = f.choice("variant", ("dual", "entropic", "robust"))
    t0 = f.integer("t_start", 0)
    if variant == "dual":
        t1 = f.integer("t_end", space.horizon)
        scenarios = []
        for j, raw in enumerate(f.items("scenarios")):
            entry = Fields(raw, f"{f.where}: scenarios[{j}]", f.scn)
            a = entry.ref("density", "density")
            vector = isinstance(entry.get("gamma", None), list)
            gamma = entry.numbers("gamma", True) if vector else entry.number("gamma", 0.0, True)
            with entry.building():
                scenarios.append((a, ConditionalValue(space, t0, gamma if vector else [gamma] * space.n_atoms(t0))))
        with f.building():
            return DualFiniteUtility(space, t0, t1, scenarios)
    alpha, t1 = f.number("alpha", 1.0), f.integer("t_end", None)
    if variant == "entropic":
        with f.building():
            return EntropicUtility(space, alpha, t0, t1)
    densities = f.refs("densities", "terminal")
    with f.building():
        return RobustEntropicUtility(space, alpha, densities, t0, t1)


def _build_utility_process(f: Fields) -> UtilityProcess:
    space = f.scn.space
    variant = f.choice("variant", ("entropic", "robust", "normalized"))
    start = f.integer("start", 0)
    if variant == "normalized":
        a = f.ref("density", "density")
        with f.building():
            return normalized_scenario_process(space, a, start)
    alpha = f.number("alpha", 1.0)
    if variant == "entropic":
        with f.building():
            return entropic_process(space, alpha, start)
    densities = f.refs("densities", "terminal")
    with f.building():
        return robust_entropic_process(space, alpha, densities, start)

