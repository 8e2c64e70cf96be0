"""Drive the whole toolkit from a JSON scenario file and read the TSV
reports back, the same way the command line entry point does."""

import tempfile
from pathlib import Path

from dynrisk import load_scenario
from dynrisk.cli import main

HERE = Path(__file__).resolve().parent
SCENARIO = HERE / "full_verification.json"

# the scenario bundles a space, densities, processes, utilities and tasks
sc = load_scenario(SCENARIO)
print(f"loaded {SCENARIO.name}: space M={sc.space.n_outcomes}, T={sc.space.horizon}")
print(f"   {len(sc.tasks)} tasks:", ", ".join(t["name"] for t in sc.tasks))

with tempfile.TemporaryDirectory(prefix="dynrisk-report-") as tmp:
    out = Path(tmp)
    code = main(["run", str(SCENARIO), "--out", str(out), "--workers", "2"])
    print("exit code:", code, "(0 means every task verified or informational)")

    for report in sorted(out.glob("*.tsv")):
        lines = report.read_text().splitlines()
        print(f"\n{report.name} ({len(lines) - 1} rows)")
        for line in lines[:5]:
            print("   ", line)

# a single task can be rerun in isolation, e.g. only the duality check
with tempfile.TemporaryDirectory(prefix="dynrisk-solo-") as tmp:
    solo = Path(tmp)
    code = main(["run", str(SCENARIO), "--only", "duality", "--out", str(solo)])
    print("\n--only duality:", code, "->", [p.name for p in sorted(solo.glob('*.tsv'))])
