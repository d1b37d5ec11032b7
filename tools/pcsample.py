#!/usr/bin/env python3
"""Function-level CPU profile of any program, from sampled program counters.

Records with the LD_PRELOAD sampler in tools/pcsample/ (built as the
`pcsample` CMake target) and resolves each sampled PC with
`addr2line -f -C -i`.  Needs no perf, no kernel setting and no root.

  # Profile a run (the command after -- runs with the sampler preloaded):
  tools/pcsample.py record --out /tmp/prof -- \\
      build-bench/cckvs_benchmark e2e --workload read_skew --seconds 15

  # Report earlier dumps again (one file per sampled process):
  tools/pcsample.py report /tmp/prof.12345 --top 30 --lines

  # Shares of named groups of functions (regexes over the inline chain):
  tools/pcsample.py report /tmp/prof.12345 --group 'hash=HashKey|HomeOf'

The report prints two tables.  "flat" charges each sample to the innermost
function at its PC, inlined functions included, so a helper inlined into
its callers gets its own row.  "inline-inclusive" charges the sample to
every function of the inline chain at that PC (the innermost function and
each function it was inlined into), so a function's row includes the
helpers inlined into it; it is not a call-graph profile, since no stack is
recorded.  --lines adds the flat source-line table.  Samples in a stripped
object (the distribution's libc and libm) are charged to the object, e.g.
"[libm.so.6]"; inline frames and source lines need the profiled binary
built with -g.

Limits: the kernel checks the timer on its scheduler tick, so a process
gets at most a few hundred samples a second whatever its thread count (a
15 s run of the four-node benchmark gives about 8K); every phase of the
process is sampled, set-up included; a process that ends through _exit
writes no dump.
"""

import argparse
import collections
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_LIB = ROOT / "build" / "tools" / "pcsample" / "libpcsample.so"


def parse_dump(path):
    """Returns (maps, pcs): maps as (start, end, offset, path) tuples."""
    maps, pcs = [], []
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line == "maps":
                section = "maps"
            elif line == "end-maps":
                section = None
            elif line == "pcs":
                section = "pcs"
            elif section == "maps":
                fields = line.split(None, 5)
                if len(fields) < 6 or not fields[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif section == "pcs" and line:
                pcs.append(int(line, 16))
    return maps, pcs


def has_symbols(path, cache={}):
    """Whether an ELF64 file keeps a full symbol table or debug info.  In a
    stripped object addr2line names a PC after the nearest exported symbol,
    which is often the wrong function (libm's internals, for one), so such
    samples are charged to the object instead."""
    if path not in cache:
        found = False
        try:
            with open(path, "rb") as f:
                ident = f.read(64)
                if ident[:4] == b"\x7fELF" and ident[4] == 2:
                    endian = "<" if ident[5] == 1 else ">"
                    shoff, = struct.unpack_from(endian + "Q", ident, 40)
                    shentsize, shnum, shstrndx = struct.unpack_from(endian + "HHH", ident, 58)
                    f.seek(shoff)
                    table = f.read(shentsize * shnum)
                    _, _, _, _, str_off, str_size = struct.unpack_from(
                        endian + "IIQQQQ", table, shstrndx * shentsize)
                    f.seek(str_off)
                    names = f.read(str_size)
                    found = b"\0.symtab\0" in names or b"\0.debug_info\0" in names
        except (OSError, struct.error):
            pass
        cache[path] = found
    return cache[path]


def load_segments(path, cache={}):
    """PT_LOAD segments of an ELF64 file as (p_offset, p_vaddr, p_filesz)."""
    if path not in cache:
        segs = []
        try:
            with open(path, "rb") as f:
                ident = f.read(64)
                if ident[:4] == b"\x7fELF" and ident[4] == 2:
                    endian = "<" if ident[5] == 1 else ">"
                    phoff, = struct.unpack_from(endian + "Q", ident, 32)
                    phentsize, phnum = struct.unpack_from(endian + "HH", ident, 54)
                    f.seek(phoff)
                    table = f.read(phentsize * phnum)
                    for i in range(phnum):
                        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
                            endian + "IIQQQQ", table, i * phentsize)
                        if p_type == 1:  # PT_LOAD
                            segs.append((p_offset, p_vaddr, p_filesz))
        except OSError:
            pass
        cache[path] = segs
    return cache[path]


def to_object_address(pc, maps):
    """(object path, link-time address) of a runtime PC, or (label, None)."""
    for lo, hi, offset, path in maps:
        if lo <= pc < hi:
            file_off = pc - lo + offset
            for p_offset, p_vaddr, p_filesz in load_segments(path):
                if p_offset <= file_off < p_offset + p_filesz:
                    return path, file_off - p_offset + p_vaddr
            return path, None
    return "[unmapped]", None


def resolve(obj, addrs):
    """addr -> list of (function, file:line), innermost inline frame first."""
    out = {}
    addrs = sorted(addrs)
    for start in range(0, len(addrs), 4096):
        chunk = addrs[start:start + 4096]
        proc = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", obj] + [hex(a) for a in chunk],
            capture_output=True, text=True, check=False)
        current = None
        lines = proc.stdout.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                current = int(lines[i], 16)
                out[current] = []
                i += 1
                continue
            func = lines[i]
            where = lines[i + 1] if i + 1 < len(lines) else "??:0"
            if current is not None:
                out[current].append((func, where))
            i += 2
    return out


def profile(paths, groups):
    """Returns (total, flat, inclusive, by_line, grouped) Counters over all
    dumps; grouped counts, per (label, regex) of `groups`, the samples whose
    inline chain names a matching function."""
    flat = collections.Counter()
    inclusive = collections.Counter()
    by_line = collections.Counter()
    grouped = collections.Counter()
    total = 0

    def charge(names, n):
        for func in names:
            inclusive[func] += n
        for label, regex in groups:
            if any(regex.search(func) for func in names):
                grouped[label] += n

    for path in paths:
        maps, pcs = parse_dump(path)
        total += len(pcs)
        per_obj = collections.defaultdict(collections.Counter)
        for pc in pcs:
            obj, addr = to_object_address(pc, maps)
            if addr is None or not has_symbols(obj):
                flat["[" + os.path.basename(obj) + "]"] += 1
                charge({"[" + os.path.basename(obj) + "]"}, 1)
                continue
            per_obj[obj][addr] += 1
        for obj, counts in per_obj.items():
            frames = resolve(obj, counts.keys())
            tag = os.path.basename(obj)
            for addr, n in counts.items():
                chain = frames.get(addr) or [("??", "??:0")]
                if chain[0][0] == "??":
                    chain = [("?? [" + tag + "]", chain[0][1])]
                flat[chain[0][0]] += n
                by_line[chain[0][1].split(" (discriminator")[0]] += n
                charge({f for f, _ in chain}, n)
    return total, flat, inclusive, by_line, grouped


def print_table(title, counter, total, top):
    print(f"\n{title} ({total} samples)")
    print(f"{'share':>7}  {'samples':>8}  name")
    for name, n in counter.most_common(top):
        print(f"{100.0 * n / total:6.2f}%  {n:8d}  {name}")


def report(paths, args):
    groups = []
    for spec in args.group:
        label, _, pattern = spec.partition("=")
        groups.append((label, re.compile(pattern)))
    total, flat, inclusive, by_line, grouped = profile(paths, groups)
    if total == 0:
        print("no samples", file=sys.stderr)
        return 1
    print_table("flat", flat, total, args.top)
    print_table("inline-inclusive", inclusive, total, args.top)
    if args.lines:
        print_table("flat source lines", by_line, total, args.top)
    if groups:
        print_table("groups", grouped, total, len(groups))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run a command under the sampler, then report")
    rec.add_argument("--lib", default=str(DEFAULT_LIB), help="path of libpcsample.so")
    rec.add_argument("--out", default="pcsample", help="dump prefix (PREFIX.<pid>)")
    rec.add_argument("command", nargs=argparse.REMAINDER)
    rep = sub.add_parser("report", help="report earlier dumps")
    rep.add_argument("dumps", nargs="+")
    for p in (rec, rep):
        p.add_argument("--top", type=int, default=25)
        p.add_argument("--lines", action="store_true", help="add the source-line table")
        p.add_argument("--group", action="append", default=[], metavar="LABEL=REGEX",
                       help="share of samples whose inline chain names a function "
                            "matching REGEX (repeatable)")
    args = parser.parse_args()

    if args.mode == "report":
        return report(args.dumps, args)

    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("record needs a command after --")
    if not os.path.exists(args.lib):
        parser.error(f"{args.lib} not found; build the pcsample target first")
    out = Path(args.out).resolve()
    before = set(out.parent.glob(out.name + ".*"))
    env = dict(os.environ, LD_PRELOAD=args.lib, PCSAMPLE_OUT=str(out))
    status = subprocess.run(command, env=env, check=False).returncode
    dumps = sorted(set(out.parent.glob(out.name + ".*")) - before)
    if not dumps:
        print("no dump written", file=sys.stderr)
        return 1
    print(f"command exited {status}; dumps: {' '.join(str(d) for d in dumps)}")
    return report([str(d) for d in dumps], args)


if __name__ == "__main__":
    sys.exit(main())
