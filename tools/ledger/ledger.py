#!/usr/bin/env python3
"""Gate hetbench's exact counters against the committed counters.ledger.

Runs one fresh `hetbench --rep W I --seed 1 --trace 0` child per cell,
prints each cell's exact counters as one line on stdout, and compares
every field with its row in counters.ledger, naming each one that moved
on stderr. Peak resident memory is not exact, so it is held to a ceiling
per workload instead. Exits 1 on any difference, breached ceiling,
failed child or reported problem.

Build hetbench first, then run from anywhere:

    cargo build --release --offline --manifest-path crates/bench/src/bin/hetbench/Cargo.toml
    python3 tools/ledger/ledger.py

A change that moves a counter, up or down, re-records the ledger in its
own commit and says why in CHANGES.md (the digest-pin protocol):

    python3 tools/ledger/ledger.py > ledger.new; mv ledger.new counters.ledger
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HETBENCH = ROOT / "crates/bench/src/bin/hetbench/target/release/hetbench"
LEDGER = ROOT / "counters.ledger"
SEED = 1

# The two campaigns cycle the paper's three workflow configs, one per rep.
CELLS = [(w, rep) for w in ("moldesign_campaign", "finetune_campaign") for rep in range(3)]
CELLS += [(w, 0) for w in ("ctrl_fnx", "data_htex", "overload_fnx")]

# Every field a child prints that is a pure function of code, toolchain and seed.
FIELDS = (
    "submitted terminal ok failed timed_out shed duplicate retries hedged_tasks hedge_won "
    "allocs alloc_bytes sim_fingerprint polls timer_fires idle_actors pending_actors"
).split()

# Peak RSS ceilings in MB (vmhwm_kb / 1024). Each sits above its workload's
# reading and below what the regression it once caught read.
RSS_CEILING_MB = {
    "ctrl_fnx": 30.0,
    "data_htex": 29.5,
    "moldesign_campaign": 8.0,
    "finetune_campaign": 5.7,
}


def run_cell(workload, rep):
    """One child's JSON line, or an error string."""
    cmd = [str(HETBENCH), "--rep", workload, str(rep), "--seed", str(SEED), "--trace", "0"]
    child = subprocess.run(cmd, capture_output=True, text=True)
    if child.returncode != 0:
        return f"exit {child.returncode}: {child.stderr.strip()[-500:]}"
    out = json.loads(child.stdout.strip().splitlines()[-1])
    if out["problems"]:
        return "problems: " + "; ".join(out["problems"])
    return out


def read_ledger():
    """{cell: {field: value}} from counters.ledger, empty if it is absent."""
    rows = {}
    if LEDGER.exists():
        for line in LEDGER.read_text().splitlines():
            cell, *pairs = line.split()
            rows[cell] = dict(pair.split("=", 1) for pair in pairs)
    return rows


def main():
    if not HETBENCH.exists():
        sys.exit(f"ledger: {HETBENCH} is missing; build hetbench first")
    ledger = read_ledger()
    failures = []
    for workload, rep in CELLS:
        cell = f"{workload}/{rep}"
        out = run_cell(workload, rep)
        if isinstance(out, str):
            failures.append(f"{cell} {out}")
            continue
        row = {f: str(out[f]) for f in FIELDS}
        print(cell, " ".join(f"{f}={v}" for f, v in row.items()), flush=True)
        want = ledger.get(cell)
        if want is None:
            failures.append(f"{cell} has no row in {LEDGER.name}")
        else:
            failures += [
                f"{cell} {f} {want.get(f)} -> {v}" for f, v in row.items() if want.get(f) != v
            ]
        ceiling = RSS_CEILING_MB.get(workload)
        mb = out["vmhwm_kb"] / 1024
        if ceiling is not None:
            print(f"{cell} peak_rss_mb {mb:.2f} (ceiling {ceiling})", file=sys.stderr)
            if mb > ceiling:
                failures.append(f"{cell} peak_rss_mb {mb:.2f} > ceiling {ceiling}")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"ledger: {len(failures)} difference(s) in {len(CELLS)} cells", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
