"""Line reach: every executable line of ``src/dynrisk`` runs under tier-1, or is listed.

Run from the repository root::

    PYTHONPATH=src python tests/reach.py

It runs the tier-1 suite in this process under a line tracer limited to
``src/dynrisk/`` frames.  Each line that never ran is keyed
``file:function:source-text``.  The run exits 1 when a key is missing from
``tests/data/unreached.txt``, or when a listed key ran or no longer exists,
so the list can only shrink.  Tracing doubles the suite's time, which is why
this is a CI step and not a tier-1 test.
"""

import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dynrisk"
ALLOWED = ROOT / "tests" / "data" / "unreached.txt"


def universe():
    """(file, line) -> key of every executable line, from each code object's co_lines()."""
    keys = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        stack = [compile("\n".join(text), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
            for _, _, line in code.co_lines():
                # 3.11 reports no line event for a bare `continue`
                if line is not None and line >= 1 and text[line - 1].strip() != "continue":
                    keys.setdefault((str(path), line), f"{path.name}:{code.co_name}:{text[line - 1].strip()}")
    return keys


def main():
    keys = universe()
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(str(SRC)):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"reach: tier-1 exited {code}")
        return 1
    unreached = Counter(key for where, key in keys.items() if where not in ran)
    listed = Counter(line for line in ALLOWED.read_text().splitlines() if line and not line.startswith("#"))
    new, stale = unreached - listed, listed - unreached
    for key in sorted(new.elements()):
        print(f"reach: unreached, not listed: {key}")
    for key in sorted(stale.elements()):
        print(f"reach: listed, but ran or gone: {key}")
    print(f"reach: {len(keys) - sum(unreached.values())} of {len(keys)} lines ran")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
