#!/usr/bin/env python3
"""Bin the samples tools/prof/sampler.c wrote, with nothing but binutils.

    bin_samples.py --by function SAMPLES [--top N]
        share of all samples per function (`nm -C`), every mapped object
        included, so libm/libc time is attributed instead of lost
    bin_samples.py --insn SYMBOL SAMPLES [--min PCT]
        share of all samples per instruction of every function whose
        demangled name contains SYMBOL (`objdump -d` over its range)

A sample is the interrupted instruction pointer: a load that waits on memory
shows up on the first instruction that consumes its result. Release builds of
this workspace keep their symbols, so no debug info is needed.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def read_samples(path):
    """The mappings ((start, end, file offset, object)) and the sampled addresses."""
    maps, samples, in_samples = [], [], False
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line == "samples":
                in_samples = True
            elif in_samples:
                samples.append(int(line, 16))
            else:
                fields = line.split()
                if len(fields) >= 6 and fields[5].startswith("/"):
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((start, end, int(fields[2], 16), fields[5]))
    return maps, samples


def by_object(maps, samples):
    """object path -> addresses relative to the object's load base."""
    base = {}
    for start, _end, _off, obj in maps:
        base[obj] = min(base.get(obj, start), start)
    out = collections.defaultdict(list)
    for addr in samples:
        for start, end, _off, obj in maps:
            if start <= addr < end:
                out[obj].append(addr - base[obj])
                break
        else:
            out["[unmapped]"].append(addr)
    return out


def symbols(obj):
    """Sorted (address, size, demangled name) of the object's defined symbols."""
    syms = []
    for flags in (["-C", "-S", "--defined-only", "-n"], ["-D", "-C", "-S", "--defined-only", "-n"]):
        out = subprocess.run(["nm", *flags, obj], capture_output=True, text=True).stdout
        for line in out.splitlines():
            fields = line.split(None, 3)
            if len(fields) == 4 and fields[2] in "tTwW":
                syms.append((int(fields[0], 16), int(fields[1], 16), fields[3]))
        if syms:
            break
    return sorted(syms)


def function_table(maps, samples, top):
    total = len(samples)
    counts = collections.Counter()
    for obj, addrs in by_object(maps, samples).items():
        syms = symbols(obj) if obj.startswith("/") else []
        starts = [s[0] for s in syms]
        short = obj.rsplit("/", 1)[-1]
        for addr in addrs:
            i = bisect.bisect_right(starts, addr) - 1
            name = syms[i][2] if i >= 0 else "?"
            counts[(short, name)] += 1
    print(f"{total} samples")
    for (obj, name), n in counts.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {obj}  {name}")


def instruction_table(maps, samples, symbol, min_pct):
    total = len(samples)
    exe = maps[0][3]
    addrs = sorted(by_object(maps, samples).get(exe, []))
    matches = [s for s in symbols(exe) if symbol in s[2]]
    if not matches:
        sys.exit(f"no function of {exe} contains '{symbol}'")
    print(f"{total} samples")
    for start, size, name in matches:
        lo, hi = bisect.bisect_left(addrs, start), bisect.bisect_left(addrs, start + size)
        print(f"\n{name}: {hi - lo} samples, {100 * (hi - lo) / total:.2f}% of all")
        dis = subprocess.run(
            ["objdump", "-d", "-C", "--no-show-raw-insn",
             f"--start-address={start:#x}", f"--stop-address={start + size:#x}", exe],
            capture_output=True, text=True).stdout
        insns = []
        for line in dis.splitlines():
            head, _, text = line.partition(":\t")
            try:
                insns.append((int(head.strip(), 16), text.strip()))
            except ValueError:
                continue
        per_insn = collections.Counter()
        insn_starts = [a for a, _ in insns]
        for addr in addrs[lo:hi]:
            i = bisect.bisect_right(insn_starts, addr) - 1
            per_insn[i] += 1
        for i, (addr, text) in enumerate(insns):
            pct = 100 * per_insn[i] / total
            if pct >= min_pct:
                print(f"{pct:6.2f}%  {per_insn[i]:6d}  +{addr - start:#06x}  {text}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--by", choices=["function"])
    mode.add_argument("--insn", metavar="SYMBOL")
    ap.add_argument("--top", type=int, default=25, help="rows of the function table")
    ap.add_argument("--min", type=float, default=0.5, help="smallest share of all samples an instruction is listed at")
    ap.add_argument("samples")
    args = ap.parse_args()
    maps, samples = read_samples(args.samples)
    if not samples:
        sys.exit("no samples")
    stale = [obj for obj in {m[3] for m in maps}
             if os.path.exists(obj) and os.path.getmtime(obj) > os.path.getmtime(args.samples)]
    for obj in stale:
        print(f"warning: {obj} was rebuilt after these samples were taken; its symbols have moved",
              file=sys.stderr)
    if args.insn:
        instruction_table(maps, samples, args.insn, args.min)
    else:
        function_table(maps, samples, args.top)


if __name__ == "__main__":
    main()
