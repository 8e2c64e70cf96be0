"""Layered benchmark of the dynrisk verification harnesses.

    python3 bench/run.py --workload recursion --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all                 # every workload in turn
    python3 bench/run.py --workload scan --trace 1      # per-layer metrics
    python3 bench/run.py --profile duality              # top cProfile rows

Workloads (see workloads.py): ``recursion`` (time consistency over every
stopping time), ``splice`` (preservation harness and pasting closures),
``duality`` (worst portfolio against worst scenario) and ``scan`` (brute-force
worst portfolio over 373,248 tuples at one and at all workers).

A run sets up, then repeats passes over the workload's instance family until
``--seconds`` have gone by, and checks every verdict.  With ``--trace 0`` it
reports the end-to-end metrics: an instance's time is the median of its
repetitions in the run, each taken at nominal host speed (see
``corrected_times``), and ``wall_s`` is the family's sum of them; set-up
time is taken at nominal host speed too (see ``SetupClock``).  With
``--trace 1`` it times one untraced pass, checks the tracer against
cProfile and reports per-layer metrics from traced passes.  The last line
of standard output is one JSON object.
"""

from time import perf_counter

T0 = perf_counter()  # set-up is timed from here, before numpy and dynrisk load

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("recursion", "splice", "duality", "scan")
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
SETUP_CHILDREN = 2  # fresh interpreters timed besides this one
PROBE_GAP = 0.05  # seconds of instances between two probes of the host
SETUP_PROBES = 3  # probes whose median gives the slowdown after a set-up step


def load_package():
    """Import dynrisk from this checkout's src/ and nowhere else."""
    if not (SRC / "dynrisk" / "__init__.py").is_file():
        sys.exit(f"error: no dynrisk package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dynrisk

    if Path(dynrisk.__file__).resolve().parent != (SRC / "dynrisk").resolve():
        sys.exit(f"error: imported dynrisk from {dynrisk.__file__}, not from {SRC}")
    return dynrisk


class SetupClock:
    """Set-up time at nominal host speed.  Each step since the last mark is
    divided by the mean slowdown probed on either side of it; set-up is
    imports and instance generation, interpreter-bound work.  Probe time is
    left out."""

    def __init__(self):
        self.seconds = self.raw = 0.0
        self.mark, self.before = T0, None

    def step(self) -> None:
        took = perf_counter() - self.mark
        after = statistics.median(probe_small() for _ in range(SETUP_PROBES))
        self.seconds += took / (after if self.before is None else (self.before + after) / 2)
        self.raw += took
        self.before, self.mark = after, perf_counter()


def setup(workload: str, seed: int):
    """Import, generate the instance family, and warm up on the first
    instance of each kind; returns (instances, representatives, clock)."""
    clock = SetupClock()
    import numpy  # noqa: F401  (the probes use it)

    clock.step()
    load_package()
    import workloads

    clock.step()
    instances = workloads.BUILDERS[workload](seed)
    clock.step()
    reps = list({inst.kind: inst for inst in reversed(instances)}.values())[::-1]
    run_pass(reps)
    clock.step()
    return instances, reps, clock


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.times: list[float] = []  # one per instance attempted
        self.slowdowns: list[float] = []  # host slowdown around each instance
        self.work = 0
        self.failed: list[str] = []
        self.residual = 0.0
        self.digest_items: list = []

    @property
    def digest(self) -> str:
        return hashlib.sha256(repr(self.digest_items).encode()).hexdigest()

    def fail(self, name: str, what: str) -> None:
        self.failed.append(f"{name} {what}:\n{traceback.format_exc()}")
        self.digest_items.append((name, what))


def run_pass(instances, tracer=None, probe=None) -> Pass:
    """One timed sweep over the family; every verdict is checked untimed.
    With a ``probe``, the host's slowdown is probed every PROBE_GAP seconds
    and each instance gets the mean of the probes on either side of it."""
    p = Pass()
    results: dict = {}
    start = mark = perf_counter()
    before, first = (probe() if probe else 1.0), 0
    for k, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = k
        run_instance(p, inst, results)
        if probe and (perf_counter() - mark >= PROBE_GAP or k == len(instances) - 1):
            after = probe()
            p.slowdowns += [(before + after) / 2] * (k + 1 - first)
            before, first, mark = after, k + 1, perf_counter()
    p.wall = perf_counter() - start
    return p


def run_instance(p: Pass, inst, results: dict) -> None:
    t = perf_counter()
    try:
        res = inst.run()
    except Exception:
        p.times.append(perf_counter() - t)
        p.fail(inst.name, "raised")
        return
    p.times.append(perf_counter() - t)
    results[inst.name] = res
    try:
        v = inst.check(res, results)
    except Exception:
        p.fail(inst.name, "check raised")
        return
    p.digest_items.append(v.digest)
    p.residual = max(p.residual, v.residual)
    if v.ok:
        p.work += v.work
    else:
        p.failed.append(f"{inst.name}: wrong verdict {v.digest}")


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    n = len(samples)
    p = int(100 * (n - TAIL_BEYOND) / n)
    value = statistics.quantiles(samples, n=100)[p - 1] if p >= 1 else min(samples)
    return p, value, sum(1 for x in samples if x > value)


def probe_small() -> float:
    """Host slowdown for interpreter-bound work: a fixed loop of small-array
    numpy calls, the mix of the one-position kernels, timed against its 1.8 ms
    on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) at full speed."""
    import numpy as np

    x = np.arange(64.0)
    t = perf_counter()
    for i in range(500):
        np.maximum(x * 0.5 - (i % 64), 0.0).sum()
    return (perf_counter() - t) / 0.0018


def probe_arrays() -> float:
    """Host slowdown for batched work: exponentials and row maxima over
    4096 x 6 arrays, the shape of a scan chunk, timed against its 2.3 ms on
    the same VM at full speed."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 4096 * 6).reshape(4096, 6)
    t = perf_counter()
    for i in range(6):
        np.exp(-x * (1 + i % 3)).max(axis=1).sum()
    return (perf_counter() - t) / 0.0023


def probe_lp() -> float:
    """Host slowdown for compiled solver work: one fixed six-variable LP
    through scipy's HiGHS, timed against its 1.4 ms on the same VM at full
    speed."""
    import numpy as np
    from scipy.optimize import linprog

    c = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    a_eq = np.array([[1.0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 0, 0, 1, 0, 0]])
    t = perf_counter()
    linprog(c, A_eq=a_eq, b_eq=[1.0, 1.0, 0.5], bounds=(0.0, 1.0), method="highs")
    return (perf_counter() - t) / 0.0014


# Each workload's times are corrected by a probe of the work it does most;
# duality splits its time between interpreter work and HiGHS solves.  No
# probe calls dynrisk.
PROBES = {
    "recursion": probe_small,
    "splice": probe_small,
    "duality": lambda: (probe_small() * probe_lp()) ** 0.5,
    "scan": probe_arrays,
}


def corrected_times(passes: list[Pass]) -> list[list[float]]:
    """Instance times at nominal host speed, one list per instance.

    A shared host runs everything up to twice as slow, in phases from a
    fraction of a second to tens of seconds, long enough to cover a whole
    run, and it slows interpreter-bound code, batched numpy work and
    compiled solvers by different amounts.  Dividing each instance's time by the slowdown its workload's
    probe measured on either side of it takes that out; the probes run no
    dynrisk code, so a change to dynrisk moves these times in full."""
    return [list(ts) for ts in zip(*([t / s for t, s in zip(p.times, p.slowdowns)] for p in passes))]


def tail_samples(per_instance: list[list[float]]) -> tuple[list[float], str]:
    """Per-instance medians, whose percentiles do not move with the number
    of passes a run fits in.  A family of at most 2 * TAIL_BEYOND instances
    has no tail above its median and uses every repetition instead."""
    if len(per_instance) > 2 * TAIL_BEYOND:
        return [statistics.median(ts) for ts in per_instance], "per-instance medians"
    return [t for ts in per_instance for t in ts], "repetitions"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    import workloads

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": workloads.nproc(),
        "workload": workload,
        "seed": seed,
        "work_unit": workloads.WORK_UNITS[workload],
    }


def child_setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"error: set-up in a fresh interpreter exited with {out.returncode}")
    d = json.loads(out.stdout.strip().splitlines()[-1])
    return d["setup_s"], d["uncorrected_s"]


def measure(instances, seconds: float, tracer=None, on_pass=None, probe=None) -> list[Pass]:
    """Repeat passes while one more is expected to end nearer the deadline
    than stopping now would; at least one pass."""
    passes: list[Pass] = []
    start = perf_counter()
    while not passes or perf_counter() - start + passes[-1].wall / 2 < seconds:
        if tracer is not None:
            tracer.reset()
        p = run_pass(instances, tracer, probe)
        passes.append(p)
        if on_pass is not None:
            on_pass(p)
    return passes


def summarize_correctness(passes: list[Pass]) -> tuple[bool, int, int, float, str]:
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    digests = {p.digest for p in passes}
    for p in passes:
        for msg in p.failed[:3]:
            print(f"FAILED {msg}", file=sys.stderr)
    if len(digests) > 1:
        print(f"FAILED result digest differs between passes: {sorted(digests)}", file=sys.stderr)
    correct = failed == 0 and len(digests) == 1
    return correct, attempted, failed, max(p.residual for p in passes), passes[0].digest


def print_env(env: dict, passes: list[Pass], n_instances: int) -> None:
    for key, value in env.items():
        print(f"env.{key}: {value}")
    print(f"instances per pass: {n_instances}, passes: {len(passes)}, work per pass: {passes[0].work}")


def end_to_end(workload: str, seed: int, seconds: float) -> None:
    instances, _, clock = setup(workload, seed)
    setups = [(clock.seconds, clock.raw)] + [child_setup_seconds(workload, seed) for _ in range(SETUP_CHILDREN)]
    passes = measure(instances, seconds, probe=PROBES[workload])
    correct, attempted, failed, residual, digest = summarize_correctness(passes)

    per_instance = corrected_times(passes)
    med = [statistics.median(ts) for ts in per_instance]
    samples, kind = tail_samples(per_instance)
    p_tail, tail, beyond = tail_percentile(samples)
    wall = sum(med)
    metrics = {
        "wall_s": (wall, "s"),
        "work_per_s": (passes[0].work / wall, "1/s"),
        "instance_p50_ms": (statistics.median(med) * 1e3, "ms"),
        "instance_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(c for c, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print_env(environment(workload, seed), passes, len(instances))
    raw = statistics.median(sum(p.times) for p in passes)
    slow = [s for p in passes for s in p.slowdowns]
    print(f"instance times: medians of {len(passes)} repetitions at nominal host speed")
    print(f"host slowdown per instance: median {statistics.median(slow):.3f}, range {min(slow):.3f}-{max(slow):.3f}")
    print(f"uncorrected instance time per pass: median {raw:.4f} s")
    print(f"instance_tail_ms is p{p_tail} of {len(samples)} {kind}, {beyond} beyond it")
    print(f"setup_s samples: {', '.join(f'{c:.4f}' for c, _ in setups)}")
    print(f"uncorrected set-up samples: {', '.join(f'{r:.4f}' for _, r in setups)}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    report(metrics, correct, attempted, failed, residual, digest)


def report(metrics: dict, correct: bool, attempted: int, failed: int, residual: float, digest: str) -> None:
    """Print every metric with its unit, then the result as the last line."""
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    print(f"max_residual: {residual:.6g}")
    print(f"digest: sha256:{digest}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def scan_speedup(instances, p: Pass) -> float:
    """1-worker over nproc-worker scan wall, from one untraced pass."""
    import workloads

    n = workloads.nproc()
    one = sum(t for inst, t in zip(instances, p.times) if inst.name.endswith("-w1"))
    many = sum(t for inst, t in zip(instances, p.times) if n > 1 and inst.name.endswith(f"-w{n}"))
    return one / many if many else 0.0


def traced(workload: str, seed: int, seconds: float) -> None:
    import numpy as np
    import spans

    instances, reps, _ = setup(workload, seed)
    start = perf_counter()
    run_pass(instances)  # fills per-space caches, as the traced passes find them
    plain = run_pass(instances)
    tracer = spans.Tracer()
    tracer.install()
    try:
        mismatches = tracer.self_check(lambda: run_pass(reps, tracer))
        per_pass: list[dict] = []
        kept: list = []

        def collect(p: Pass) -> None:
            per_pass.append(spans.layer_metrics(tracer))
            if not kept:
                kept.append(tracer.span_arrays())

        passes = measure(instances, max(seconds - (perf_counter() - start), 0.0), tracer, collect)
    finally:
        tracer.uninstall()
    correct, attempted, failed, residual, digest = summarize_correctness([plain] + passes)
    if mismatches:
        correct = False
        for line in mismatches:
            print(f"FAILED tracer self-check: {line}", file=sys.stderr)

    # counts repeat exactly from pass to pass; times are medians over passes
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:
            metrics[name] = (values[0], spans.unit(name))
            if any(v != values[0] for v in values):
                correct = False
                print(f"FAILED {name} differs between traced passes: {values}", file=sys.stderr)
    metrics["parallel.speedup"] = (scan_speedup(instances, plain), "ratio")
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in passes) - plain.wall, "s")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.npz"
    names = np.array([t.metric for t in spans.TARGETS] + ["parallel.chunk"])
    np.savez(span_file, names=names, **kept[0])

    print_env(environment(workload, seed), passes, len(instances))
    print(f"tracer self-check: {'ok' if not mismatches else 'FAILED'} on {len(reps)} instances")
    print(f"untraced pass: {plain.wall:.4f} s, traced passes: {len(passes)}, spans per pass: {kept[0]['id'].size}")
    print(f"spans written to {span_file.relative_to(ROOT)}")
    report(dict(sorted(metrics.items())), correct, attempted, failed, residual, digest)


def profile(workload: str, seed: int, rows: int = 30) -> None:
    import cProfile
    import pstats

    instances, _, _ = setup(workload, seed)
    prof = cProfile.Profile()
    prof.enable()
    p = run_pass(instances)
    prof.disable()
    print(f"profile of one {workload} pass (seed {seed}): {p.wall:.3f} s, {len(p.failed)} failed")
    stats = pstats.Stats(prof, stream=sys.stdout).strip_dirs()
    stats.sort_stats("tottime").print_stats(rows)
    stats.sort_stats("cumulative").print_stats(rows)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), help="'all' runs each workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=WORKLOADS, metavar="WORKLOAD", help="print top cProfile rows of one pass")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.profile:
        profile(args.profile, args.seed)
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd, cwd=str(ROOT)).returncode != 0:
                sys.exit(f"error: workload {workload} exited with an error")
    elif args.setup_only:
        clock = setup(args.workload, args.seed)[2]
        print(json.dumps({"setup_s": clock.seconds, "uncorrected_s": clock.raw}))
    elif args.trace:
        traced(args.workload, args.seed, args.seconds)
    else:
        end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
