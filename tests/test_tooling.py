"""The repository's own tooling, run in-process: the benchmark's span tracer,
the demos' expected outputs, the oldest supported Python's grammar, where
``src/`` imports its own modules, and the program's calls, when it runs, of
every public function, method and operator; and, in a fresh interpreter, what
importing dynrisk and running the bundled scenario load."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import runpy
import subprocess
import sys
import tempfile
import textwrap
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import pytest

import dynrisk as dr
from dynrisk import cli
from dynrisk.random_gen import random_adapted, random_coherent_utility, random_density, random_terminal_density
from conftest import uniform_density

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted(p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py"))
# a fresh interpreter that imports dynrisk from this checkout
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def small_calls() -> None:
    """The README quick start, a small scan, two small stability checks and a
    penalty on both routes, through late-bound ``dr.name`` lookups so that the
    tracer's wrappers see the calls."""
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, "README.md", "exec"), {})
    g = np.random.default_rng(3)
    sp = dr.dyadic_uniform(2)
    port = dr.Portfolio([random_adapted(sp, 0, 2, g) for _ in range(2)])
    dr.worst_portfolio_bruteforce(port, dr.EntropicUtility(sp, 1.0, 0), workers=1)
    dr.stability_check([random_terminal_density(sp, g) for _ in range(2)], "m1")
    dr.stability_check([uniform_density(sp, 0, 2), random_density(sp, 0, 2, g, strict=True)], "concatenation")
    dr.penalty(random_coherent_utility(sp, 0, 2, g, n_scenarios=2), random_density(sp, 0, 2, g))
    dr.penalty_vertices(random_coherent_utility(sp, 0, 1, g, n_scenarios=2), random_density(sp, 0, 1, g))


def test_bench_tracer_resolves_every_target():
    # bench/run.py --trace 1 makes the same check; a traced method that moves fails it
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "bench"))
    tracer = spans.Tracer()
    try:
        tracer.install()
        mismatches = tracer.self_check(small_calls)
    finally:
        tracer.uninstall()
    assert mismatches == []


def test_import_and_default_routes_skip_scipy_optimize():
    # scipy.optimize costs about half a second and 50 MB on import; only the
    # HiGHS fallbacks and the assignment bound load it, on first use
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        import dynrisk as dr
        from dynrisk.random_gen import random_coherent_utility, random_density
        g = np.random.default_rng(0)
        sp = dr.dyadic_uniform(2)
        dr.penalty(random_coherent_utility(sp, 0, 2, g, n_scenarios=2), random_density(sp, 0, 2, g))
        dr.time_consistency_check(dr.entropic_process(sp, 1.0), sample_count=2)
        print("scipy.optimize" in sys.modules)
        """
    )
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def late_dynrisk_imports(path: Path) -> list[str]:
    """``file:line`` of each import of a dynrisk module inside a function of ``path``."""
    hits = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    ours = node.level > 0 or (node.module or "").split(".")[0] == "dynrisk"
                elif isinstance(node, ast.Import):
                    ours = any(alias.name.split(".")[0] == "dynrisk" for alias in node.names)
                else:
                    continue
                if ours:
                    hits.add(f"{path.name}:{node.lineno}")
    return sorted(hits)


def test_src_imports_its_modules_at_the_top_and_a_run_skips_random_gen(tmp_path):
    # an import of a dynrisk module inside a function hides a module cycle; the
    # deferred scipy.optimize imports stay, for the reason in the test above
    assert [hit for path in sorted((ROOT / "src" / "dynrisk").glob("*.py")) for hit in late_dynrisk_imports(path)] == []
    # the seeded generators are for demos, benchmark and tests: the program runs without them
    code = "import sys; from dynrisk.cli import main; print(main(sys.argv[1:]), 'dynrisk.random_gen' in sys.modules)"
    run = [str(ROOT / "demos" / "full_verification.json"), "--out", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", code, "run", *run], env=ENV, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_expected_output(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue() == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_source_parses_as_python_3_10(path):
    # pyproject.toml promises 3.10; this catches syntax that only a later Python accepts
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# public code that the program does not call, keyed as ``program_scope`` keys
# it, and why it stays
TEST_ONLY = {
    "rearrange.enumerate_class_bruteforce": "the oracle of enumerate_class",
    "utility.penalty_consistency_check": "a claim check that only the tests run",
    "worstcase.average_risk": "a claim check that only the tests run",
    "worstcase.build_linear_driven_portfolio": "a claim check that only the tests run",
    "worstcase.verify_linear_driven_portfolio": "a claim check that only the tests run",
    "worstcase.check_law_invariance": "a claim check that only the tests run",
    "LinearDrivenReport.passed": "the verdict of verify_linear_driven_portfolio",
    "lp.solve_box_lp_highs": "bench/spans.py traces it",
    "space.enumerate_stopping_events": "bench/spans.py traces it; the splice scan's oracle in the tests",
    "lp.maximize_dual_highs": "the HiGHS route of utility._penalties above lp.SUPPORT_LIMIT supports, which no demo or workload reaches",
}
OPERATORS = {
    "__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__lt__",
    "__le__", "__gt__", "__ge__", "__bool__", "__len__", "__iter__", "__getitem__", "__contains__",
}
# a misspelt task field: an input error, exit 2
MALFORMED = {
    "space": {"probs": [0.5, 0.5], "partitions": [[[0, 1]], [[0], [1]]]},
    "tasks": [{"task": "check-space", "name": "space", "expcet": True}],
}


def code_of(member):
    """The code object of a function, property, cached property, classmethod
    or staticmethod; None for any other class attribute."""
    if isinstance(member, property):
        member = member.fget
    elif isinstance(member, cached_property):
        member = member.func
    elif isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    return member.__code__ if inspect.isfunction(member) else None


@cache
def program_scope():
    """(functions, members), each name -> code object, of the code in
    ``src/dynrisk/``: every public module-level function, keyed
    ``module.name`` by the module that defines it, and every public method,
    property, classmethod and staticmethod of a public class, with its
    arithmetic and comparison operators, keyed ``Class.name``."""
    functions, members = {}, {}
    for info in pkgutil.iter_modules(dr.__path__):
        module = importlib.import_module(f"dynrisk.{info.name}")
        for n, obj in vars(module).items():
            if n.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions[f"{info.name}.{n}"] = obj.__code__
            elif inspect.isclass(obj):
                for base in obj.__mro__:
                    if base.__module__.startswith("dynrisk."):
                        for name, member in vars(base).items():
                            if not name.startswith("_") or name in OPERATORS:
                                members[f"{base.__name__}.{name}"] = code_of(member)
    package = Path(dr.__file__).resolve().parent
    return tuple(
        {n: c for n, c in scope.items() if c is not None and Path(c.co_filename).resolve().parent == package}
        for scope in (functions, members)
    )


@cache
def traffic():
    """The code objects that the program calls when it runs: every demo,
    ``dynrisk run`` on the bundled scenario and on a malformed one, and one
    pass of each bench workload, recorded on call events of ``sys.setprofile``."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for demo in DEMOS:
                runpy.run_path(str(demo), run_name="__main__")
            codes = [cli.main(["run", str(ROOT / "demos" / "full_verification.json"), "--out", out])]
            bad = Path(out) / "malformed.json"
            bad.write_text(json.dumps(MALFORMED))
            codes.append(cli.main(["run", str(bad), "--out", out]))
            verdicts = []
            for build in workloads.BUILDERS.values():
                earlier = {}
                for instance in build(0):
                    earlier[instance.name] = instance.run()
                    verdicts.append(instance.check(earlier[instance.name], earlier).ok)
    finally:
        sys.setprofile(previous)
    assert codes == [0, 2] and all(verdicts)
    return frozenset(called)


def uncalled(members: bool):
    """The entries of ``program_scope``, class members or functions, that the
    traffic does not call, bar ``TEST_ONLY``."""
    called = traffic()
    return sorted(n for n, code in program_scope()[members].items() if code not in called and n not in TEST_ONLY)


def test_every_public_name_is_used_outside_the_tests():
    # a public function that only a test calls is code the program never runs
    assert uncalled(members=False) == []


def test_every_public_method_is_used_outside_the_tests():
    # a method, property, classmethod or operator that only a test calls is code the program never runs
    assert uncalled(members=True) == []


# a function's id is its name without its module, a member's its Class.name
@pytest.mark.parametrize("name", sorted(TEST_ONLY), ids=lambda n: n.partition(".")[2] if n[0].islower() else n)
def test_kept_oracle_is_public_and_used_only_by_the_tests(name):
    # the allow-list names nothing deleted, and nothing that the program came to call
    scope = {**program_scope()[0], **program_scope()[1]}
    assert name in scope and scope[name] not in traffic()
    word = name.rpartition(".")[2]
    assert any(re.search(rf"\b{word}\b", p.read_text()) for p in (ROOT / "tests").glob("test_*.py"))
