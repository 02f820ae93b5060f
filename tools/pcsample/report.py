#!/usr/bin/env python3
"""Symbolise pcsample dumps: report.py [--split SYMBOL] pcsample.*.out

Prints samples per symbol (top 40) and per object, most first, summed
over every dump given. Symbols come from `nm -C` (static and dynamic
tables) plus the dump's own `S` lines; a PC goes to the nearest symbol at
or below it in its mapping. `--split SYMBOL` adds, for that symbol's
samples, a histogram by 64-byte offset — how one path of a hand-written
memmove is told from another — and the callers, read from the word the
sampler found at the top of the stack (right for a frameless leaf, which
libc's mem* routines are; meaningless for anything else)."""
import bisect, collections, os, subprocess, sys

def symbols(path):
    syms = set()
    for flags in (["-C", "-n", "--defined-only"], ["-C", "-n", "--defined-only", "-D"]):
        out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
        for line in out.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "tTwWiI":
                syms.add((int(parts[0], 16), parts[2]))
    return sorted(syms)

class Dump:
    """One process: its mappings, its samples, and a PC -> (object, symbol, offset) lookup."""
    tables = {}  # path -> sorted [(vaddr, name)]; ifunc targets sit at the same offsets in every process

    def __init__(self, path):
        self.maps, self.samples, self.extra = [], [], []
        for line in open(path):
            kind, rest = line.split(None, 1)
            f = rest.split()
            if kind == "P":
                self.samples.append((int(f[0], 16), int(f[1], 16) if len(f) > 1 else 0))
            elif kind == "S":
                self.extra.append((int(f[0], 16), f[1]))
            elif len(f) >= 6:  # start-end perms offset dev inode path
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                self.maps.append((lo, hi, int(f[2], 16), f[5]))
        # Load bias of an object = where its offset-0 page sits (PIE and .so).
        self.bias = {p: lo for lo, _, off, p in self.maps if off == 0}

    def lookup(self, pc):
        path = next((p for lo, hi, _, p in self.maps if lo <= pc < hi), None)
        obj = os.path.basename(path or "unmapped")
        if path not in self.bias or not os.path.exists(path):
            return obj, f"[{obj}]", 0
        bias = self.bias[path]
        if path not in Dump.tables:
            inside = [(a - bias, s + " (ifunc)") for a, s in self.extra
                      if any(lo <= a < hi and p == path for lo, hi, _, p in self.maps)]
            Dump.tables[path] = sorted(symbols(path) + inside)
        table = Dump.tables[path]
        i = bisect.bisect_right(table, (pc - bias, "\xff")) - 1
        return (obj, table[i][1], pc - bias - table[i][0]) if i >= 0 else (obj, f"[{obj}]", 0)

def table(title, counter, total, limit=None, key=str):
    print(f"\n{title}:")
    for name, n in counter.most_common(limit):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {key(name)}")

def main():
    args, split = sys.argv[1:], None
    if args[:1] == ["--split"]:
        split, args = args[1], args[2:]
    hits, objects, offsets, callers = (collections.Counter() for _ in range(4))
    for dump in map(Dump, args):
        for pc, top in dump.samples:
            obj, name, off = dump.lookup(pc)
            hits[name] += 1
            objects[obj] += 1
            if split and split in name:
                offsets[off // 64 * 64] += 1
                callers[dump.lookup(top)[1]] += 1
    total = sum(hits.values())
    print(f"{total} samples from {len(args)} dumps")
    table("by symbol", hits, total, 40)
    table("by object", objects, total)
    if split:
        table(f"{split} by offset", collections.Counter(dict(sorted(offsets.items()))), total,
              key=lambda off: f"+{off:#x}")
        table(f"{split} by caller", callers, total, 15)

if __name__ == "__main__":
    main()
