"""The rows of `verify-all` at its defaults, pinned in verify_all_rows.json.

A golden is a regression pin, not a second route: it catches a changed name,
value or verdict, not a wrong first value.  A change that means to alter rows
regenerates the file in the same commit:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from char2kit.cli import main

GOLDEN = Path(__file__).with_name("verify_all_rows.json")


def verify_all_rows() -> tuple[int, list[dict]]:
    """The exit code and `results` of a fresh `verify-all --json` (no timings)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-all", "--json"])
    return code, json.loads(out.getvalue())["results"]


def test_verify_all_rows_match_the_golden():
    code, rows = verify_all_rows()
    golden = json.loads(GOLDEN.read_text())
    changed = [(old, new) for old, new in zip(golden, rows) if old != new]
    assert (code, len(rows), changed) == (0, len(golden), [])


if __name__ == "__main__":
    code, rows = verify_all_rows()
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{GOLDEN}: {len(rows)} rows, exit {code}")
