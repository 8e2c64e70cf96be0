"""The repository's own tooling, run in-process: the benchmark's span tracer,
the demos' expected outputs, the oldest supported Python's grammar and the
program's use of every public name and method; and, in a fresh interpreter, what
importing dynrisk loads."""

import ast
import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import re
import runpy
import subprocess
import sys
import textwrap
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import pytest

import dynrisk as dr
from dynrisk.random_gen import random_adapted, random_coherent_utility, random_density, random_terminal_density

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted(p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py"))


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
    dr.stability_check([dr.DensityProcess.uniform(sp, 0, 2), random_density(sp, 0, 2, g, strict=True)], "concatenation")
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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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


# oracles and claim checks that stay public though only the tests call them
TEST_ONLY = {
    "enumerate_class_bruteforce",
    "penalty_consistency_check",
    "average_risk",
    "build_linear_driven_portfolio",
    "verify_linear_driven_portfolio",
    "check_law_invariance",
}


@cache
def program_names():
    """The names that code in ``src/``, ``bench/`` and ``demos/``, bar the
    package's ``__init__.py``, reads or imports, and the attributes it reads,
    from the AST: a name in a docstring or comment is not a use."""
    package = ROOT / "src" / "dynrisk" / "__init__.py"
    names, attributes = set(), set()
    for p in (p for d in ("src", "bench", "demos") for p in (ROOT / d).rglob("*.py") if p != package):
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names, attributes


def used_outside_the_tests(name):
    """Whether ``src/``, ``bench/`` or ``demos/`` code uses ``name``."""
    names, attributes = program_names()
    return name in names or name in attributes


def test_every_public_name_is_used_outside_the_tests():
    # a public function that nothing but a test calls is code the program never runs
    unused = [n for n in dr.__all__ if not inspect.ismodule(getattr(dr, n)) and n not in TEST_ONLY and not used_outside_the_tests(n)]
    assert unused == []


def test_every_public_method_is_used_outside_the_tests():
    # a method, property or classmethod that only a test reads is code the program never runs
    _, attributes = program_names()
    modules = [importlib.import_module(f"dynrisk.{m.name}") for m in pkgutil.iter_modules(dr.__path__)]
    classes = [c for m in modules for n, c in vars(m).items() if inspect.isclass(c) and c.__module__ == m.__name__ and not n.startswith("_")]
    unused = {
        f"{base.__name__}.{name}"
        for cls in classes
        for base in cls.__mro__
        if base.__module__.startswith("dynrisk.")
        for name, member in vars(base).items()
        if not name.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, (property, cached_property, classmethod, staticmethod)))
        and name not in attributes
    }
    assert sorted(unused) == []


@pytest.mark.parametrize("name", sorted(TEST_ONLY))
def test_kept_oracle_is_public_and_used_only_by_the_tests(name):
    # the allow-list names no deleted function, and none that the program came to call
    assert name in dr.__all__
    assert not used_outside_the_tests(name)
    assert any(re.search(rf"\b{name}\b", p.read_text()) for p in (ROOT / "tests").glob("test_*.py"))
