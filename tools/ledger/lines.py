#!/usr/bin/env python3
"""Gate the Rust line counts against the committed lines.ledger.

Counts the non-test and test lines of every row: one row per crate under
crates/, with hetbench (crates/bench/src/bin/hetbench) a row of its own
and out of crates/bench's, then the root package's src/, tests/ and
examples/, then the total. A file under a `tests` directory is all test
lines. Any other file is cut at its first `#[cfg(test)]` that opens a
`mod` (attributes and comments may sit between them): lines before the
cut are non-test, the rest test. A `#[cfg(test)]` on a single item does
not cut. Build output (`target/`) is skipped.

Prints one `row non_test=N test=M` line per row on stdout and names every
count that moved on stderr. Exits 1 on any difference. Run from anywhere:

    python3 tools/ledger/lines.py

A change that moves a count re-records the ledger in its own commit and
states the net non-test and test lines in CHANGES.md:

    python3 tools/ledger/lines.py > lines.new; mv lines.new lines.ledger
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
LEDGER = ROOT / "lines.ledger"
HETBENCH = "crates/bench/src/bin/hetbench"

CFG_TEST = re.compile(r"#\[cfg\(test\)\]")
OPENS_MOD = re.compile(r"(pub(\([^)]*\))?\s+)?mod\s+\w+")
SKIPPED = re.compile(r"(#\[.*\]|//.*)?")


def split(path):
    """(non_test, test) lines of one file."""
    lines = path.read_text().splitlines()
    if "tests" in path.relative_to(ROOT).parts:
        return 0, len(lines)
    for i, line in enumerate(lines):
        if not CFG_TEST.fullmatch(line.strip()):
            continue
        rest = (l.strip() for l in lines[i + 1 :])
        opener = next((l for l in rest if not SKIPPED.fullmatch(l)), "")
        if OPENS_MOD.match(opener):
            return i, len(lines) - i
    return len(lines), 0


def row_of(rel):
    """The row a file path (relative to the root) counts in."""
    if rel.startswith(HETBENCH + "/"):
        return "hetbench"
    parts = rel.split("/")
    return parts[1] if parts[0] == "crates" else parts[0]


def count():
    """{row: [non_test, test]} in ledger order, total last."""
    rows = {}
    for top in ("crates", "src", "tests", "examples"):
        for path in sorted((ROOT / top).rglob("*.rs")):
            rel = path.relative_to(ROOT).as_posix()
            if "target" in rel.split("/"):
                continue
            tally = rows.setdefault(row_of(rel), [0, 0])
            for k, n in enumerate(split(path)):
                tally[k] += n
    rows["total"] = [sum(t[k] for t in rows.values()) for k in range(2)]
    return rows


def read_ledger():
    """{row: {field: value}} from lines.ledger, empty if it is absent."""
    rows = {}
    if LEDGER.exists():
        for line in LEDGER.read_text().splitlines():
            row, *pairs = line.split()
            rows[row] = dict(pair.split("=", 1) for pair in pairs)
    return rows


def main():
    ledger = read_ledger()
    failures = []
    rows = count()
    for row, (non_test, test) in rows.items():
        got = {"non_test": str(non_test), "test": str(test)}
        print(row, " ".join(f"{f}={v}" for f, v in got.items()))
        want = ledger.get(row)
        if want is None:
            failures.append(f"{row} has no row in {LEDGER.name}")
            continue
        failures += [f"{row} {f} {want.get(f)} -> {v}" for f, v in got.items() if want.get(f) != v]
    failures += [f"{row} is in {LEDGER.name} but counts nothing" for row in ledger if row not in rows]
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"lines: {len(failures)} difference(s) in {len(rows)} rows", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
