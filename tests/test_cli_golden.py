"""Golden CLI reports: fixed invocations compared byte for byte.

Each case runs ``cli.main`` and compares the exit code and the report,
with the ``timestamp`` and ``ms`` fields removed, against a checked-in
file under ``tests/golden/``. Regenerate the files (only when a report
change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from wordweight.cli import main

GOLDEN = Path(__file__).parent / "golden"
TIMING = ("timestamp", "ms")

B2 = ["--base", "2", "--jmin", "1"]
CASES = {
    "xlen_family_block": ["xlen", "c^3 a^625 b^625 c^2", "--mode", "family"],
    "xlen_family_chain": [
        "xlen", "a^625 b^625 c^1876 a^625 b^625 c", "--mode", "family",
    ],
    "xlen_bracket": ["xlen", "a^625 b^625 c a^-1", "--mode", "bracket"],
    "xlen_collapse": ["xlen", "c a b^-1 c^2 a", *B2, "--algorithm", "dual"],
    "xlen_search": ["xlen", "c a c^-2 b a c^-1 b", *B2, "--max-nodes", "40"],
    "xlen_deepening": ["xlen", "c a^4 b^4", *B2, "--algorithm", "deepening"],
    "xlen_budget": ["xlen", "c a c^-2 b a c^-1 b c^-2", *B2, "--max-nodes", "200"],
    "xlen_budget_exhausted": [
        "xlen", "c a c^-2 b a c^-1 b c^-2 b^-1 c", *B2, "--max-nodes", "50",
    ],
    "xlen_dual_budget": [
        "xlen", "c a^4 b^4 a^-1", *B2, "--max-nodes", "60", "--algorithm", "dual",
    ],
    # best-first completes in 23 nodes, the deepening cross-check does not
    "xlen_dual_cross_check_budget": [
        "xlen", "c a^4 b^4 c^-1 a", *B2, "--max-nodes", "40", "--algorithm", "dual",
    ],
    "xlen_csv": ["xlen", "c^2 a^4 b^4", *B2, "--format", "csv"],
    "family_block": ["verify-family", "--family", "block", "--n", "2,3", "--k", "0,1,7"],
    "family_chain": ["verify-family", "--family", "chain", "--n", "2", "--r", "1,2,3"],
    "family_block_oracle": [
        "verify-family", "--family", "block", "--n", "1", "--k", "0,2", *B2,
        "--oracle", "--max-nodes", "3000",
    ],
    "family_chain_csv": [
        "verify-family", "--family", "chain", "--n", "2", "--r", "1,2",
        "--format", "csv",
    ],
    "radical_demo": ["radical-demo", "--j", "2,3,4", "--r", "3", "--kmax", "4"],
}


def _strip_json(text: str) -> str:
    report = json.loads(text)
    for key in TIMING:
        report.pop(key, None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _strip_csv(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([row[i] for i in keep])
    return buf.getvalue()


def render(argv: list[str]) -> tuple[str, str]:
    """(golden file name, exit code line plus the report without timing)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if "csv" in argv:
        return ".csv", f"exit {code}\n" + _strip_csv(out.getvalue())
    return ".json", f"exit {code}\n" + _strip_json(out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    suffix, text = render(CASES[name])
    expected = (GOLDEN / (name + suffix)).read_bytes().decode("utf-8")
    assert text == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        suffix, text = render(argv)
        (GOLDEN / (name + suffix)).write_bytes(text.encode("utf-8"))
        print(f"wrote {name}{suffix}")
