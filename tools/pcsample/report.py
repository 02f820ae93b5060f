#!/usr/bin/env python3
"""Symbolise pcsample dumps: report.py [--split SYMBOL | --inline SYMBOL] pcsample.*.out

Prints samples per symbol (top 40) and per object, most first, summed
over every dump given. Symbols come from `nm -C -S` (static and dynamic
tables, with sizes) plus the dump's own `S` lines; a PC goes to the
nearest symbol at or below it in its mapping, unless that symbol has a
size and the PC lies past its end: then it is `[OBJECT unnamed after
SYMBOL]` (glibc's exp/log kernels have no symbol of their own). Unsized
symbols and `S` lines reach to the next symbol. `--split SYMBOL` adds, for that symbol's
samples, a histogram by 64-byte offset — how one path of a hand-written
memmove is told from another — and the callers, read from the word the
sampler found at the top of the stack (right for a frameless leaf, which
libc's mem* routines are; meaningless for anything else). `--inline
SYMBOL` adds, for that symbol's samples, the innermost frame inside the
repository (function and `crates/…:line`) from the line tables, with one
`addr2line -a -f -i -C` call per object over the unique PCs — how the
kernels inlined into one clone are told apart."""
import bisect, collections, os, re, signal, subprocess, sys

OPEN = float("inf")  # the end of a symbol nm gives no size for

def symbols(path):
    """[(address, name, end)] of the code symbols in `path`; `end` is OPEN
    for an unsized symbol."""
    syms = set()
    for flags in (["-C", "-n", "-S", "--defined-only"], ["-C", "-n", "-S", "--defined-only", "-D"]):
        out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
        for line in out.splitlines():
            parts = line.split(None, 3)
            if len(parts) >= 3 and len(parts[1]) == 1:  # address type name...
                parts = line.split(None, 2)
                size, kind, name = None, parts[1], parts[2]
            elif len(parts) == 4:  # address size type name
                size, kind, name = int(parts[1], 16), parts[2], parts[3]
            else:
                continue
            if kind in "tTwWiI":
                addr = int(parts[0], 16)
                syms.add((addr, name, OPEN if size is None else addr + size))
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

    def locate(self, pc):
        """(object path, address in that object) of a PC; the address is
        None when the object cannot be read."""
        path = next((p for lo, hi, _, p in self.maps if lo <= pc < hi), None)
        if path not in self.bias or not os.path.exists(path):
            return path, None
        return path, pc - self.bias[path]

    def lookup(self, pc):
        path, addr = self.locate(pc)
        obj = os.path.basename(path or "unmapped")
        if addr is None:
            return obj, f"[{obj}]", 0
        bias = self.bias[path]
        if path not in Dump.tables:
            inside = [(a - bias, s + " (ifunc)", OPEN) for a, s in self.extra
                      if any(lo <= a < hi and p == path for lo, hi, _, p in self.maps)]
            Dump.tables[path] = sorted(symbols(path) + inside)
        table = Dump.tables[path]
        i = bisect.bisect_right(table, (addr, "\xff")) - 1
        if i < 0:
            return obj, f"[{obj}]", 0
        start, name, _ = table[i]
        # Aliases share an address; the widest of them bounds the symbol.
        end = max(e for a, _, e in table[bisect.bisect_left(table, (start,)):i + 1])
        if addr >= end:
            return obj, f"[{obj} unnamed after {name.split('@')[0]}]", addr - end
        return obj, name, addr - start

REPO_FILE = re.compile(r"(?:^|/)(crates/[^ ]*:\d+)")

def innermost_repo_frames(addrs):
    """{(path, addr): "function (crates/…:line)"}: per address, the first
    frame of `addr2line -i` (innermost first) whose file is in the repository."""
    frames = {}
    by_path = collections.defaultdict(set)
    for path, addr in addrs:
        by_path[path].add(addr)
    for path, unique in by_path.items():
        unique = sorted(unique)
        out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path,
                              *(f"{a:#x}" for a in unique)],
                             capture_output=True, text=True).stdout.splitlines()
        groups, i = [], 0
        while i < len(out):
            if re.fullmatch(r"0x[0-9a-f]+", out[i]):
                groups.append([])
            else:
                groups[-1].append((out[i], out[i + 1]))
                i += 1
            i += 1
        for addr, group in zip(unique, groups):
            where = ((fn, REPO_FILE.search(loc)) for fn, loc in group)
            frames[path, addr] = next((f"{fn} ({m.group(1)})" for fn, m in where if m),
                                      "[no repository frame]")
    return frames

def table(title, counter, total, limit=None, key=str):
    print(f"\n{title}:")
    for name, n in counter.most_common(limit):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {key(name)}")

def main():
    args, split, inline = sys.argv[1:], None, None
    if args[:1] == ["--split"]:
        split, args = args[1], args[2:]
    elif args[:1] == ["--inline"]:
        inline, args = args[1], args[2:]
    hits, objects, offsets, callers, inlined = (collections.Counter() for _ in range(5))
    for dump in map(Dump, args):
        for pc, top in dump.samples:
            obj, name, off = dump.lookup(pc)
            hits[name] += 1
            objects[obj] += 1
            if split and split in name:
                offsets[off // 64 * 64] += 1
                callers[dump.lookup(top)[1]] += 1
            if inline and inline in name:
                inlined[dump.locate(pc)] += 1
    total = sum(hits.values())
    print(f"{total} samples from {len(args)} dumps")
    table("by symbol", hits, total, 40)
    table("by object", objects, total)
    if split:
        table(f"{split} by offset", collections.Counter(dict(sorted(offsets.items()))), total,
              key=lambda off: f"+{off:#x}")
        table(f"{split} by caller", callers, total, 15)
    if inline:
        frames = innermost_repo_frames(a for a in inlined if a[1] is not None)
        lines, functions = collections.Counter(), collections.Counter()
        for a, n in inlined.items():
            frame = frames.get(a, "[unmapped]")
            lines[frame] += n
            functions[frame.split(" (crates/")[0]] += n
        table(f"{inline} by innermost repository function", functions, total, 20)
        table(f"{inline} by innermost repository line", lines, total, 40)

if __name__ == "__main__":
    # Die quietly when the reader goes away (`report.py … | head`), as a
    # C filter would, instead of raising BrokenPipeError.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()
