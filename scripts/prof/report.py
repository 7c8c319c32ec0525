#!/usr/bin/env python3
"""Report where the samples of scripts/prof/prof.c fell.

    python3 scripts/prof/report.py PROF_OUT [--top N] [--callers FUNC ...] [--lines]
                                            [--addrs N] [--exclude FUNC ...]

Prints, per function of the profiled executable, its self share (samples
whose instruction pointer was in it) and inclusive share (samples with it
anywhere on the stack); addresses in shared objects are reported per object.
`--callers FUNC` (substring match) adds the caller chains FUNC was sampled
under. Needs the host's `addr2line`; the executable needs only its symbol
table for that. `--lines` adds self shares by innermost inlined function and
by source line (`addr2line -i`), which needs line tables: build the
benchmark with `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only`. `--addrs N`
adds the N hottest sampled instruction addresses, each with its innermost
function and line (same line tables), for `objdump -d --start-address=`.
`--exclude FUNC` (substring match) drops every sample with FUNC anywhere on
its stack and reports shares of the rest, e.g. to leave out work done
outside the measured CPU. `--exclude` and `--callers` see every frame's
inlined functions too (`addr2line -i`), given line tables: a function
inlined into a closure is not on the symbol stack. An executable newer than the profile was rebuilt
after the run and is reported: its symbols no longer match the addresses.

A sample inside a shared object is charged to the object and the innermost
function of the program's own code that called into it, inlined frames
included and standard-library frames skipped: `[libc.so.6] <- advance` is a
`memmove` that `Vec::append` issued in `advance`. The process entry frames
(`_start`, `__libc_start_main` and whatever shared-object frames lie outside
the program's outermost frame) are dropped from every stack, so
`--callers libc` finds only the samples that are in libc.
"""
import argparse
import collections
import os
import re
import sys
import shutil
import struct
import subprocess


def exec_segment_delta(path):
    """p_vaddr - p_offset of the executable PT_LOAD segment of an ELF64 file."""
    with open(path, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            p_type, p_flags, p_offset, p_vaddr = struct.unpack_from("<IIQQ", f.read(phentsize))
            if p_type == 1 and p_flags & 1:
                return p_vaddr - p_offset
    raise SystemExit(f"{path}: no executable segment")


def inline_chains(exe, vaddrs):
    """vaddr -> [(function, file:line), ...], innermost inlined frame first.

    `addr2line -i` prints, per address, the innermost frame first and then
    the frames it was inlined into; without line tables, the symbol alone.
    GNU addr2line names that first frame after the enclosing symbol
    instead, so LLVM's is preferred when present.
    """
    tool = shutil.which("llvm-addr2line") or "addr2line"
    out = subprocess.run([tool, "-a", "-i", "-f", "-C", "-e", exe] + [hex(v) for v in vaddrs],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    chains, chain = {}, None
    for line in out:
        if line.startswith("0x"):
            chain = chains.setdefault(int(line, 16), [])
        else:
            chain.append(line)
    return {v: [frame(c[j], c[j + 1]) for j in range(0, len(c) - 1, 2)] for v, c in chains.items()}


# Where the process starts, not what it does.
ENTRY = ("_start", "__libc_start_main", "__libc_start_call_main")


def without_entry(stack, inlined):
    """`stack` up to the program's outermost frame that is not an entry
    point: the shared-object frames outside it are the entry's too."""
    own = [i for i, (v, _) in enumerate(stack) if v is not None and inlined[v][-1][0] not in ENTRY]
    return stack[:own[-1] + 1] if own else stack[:1]


def frame(func, loc):
    """One `addr2line -f` frame: its function and `file:line`, tidied, and
    whether it is standard-library code."""
    std = loc.startswith("/rustc/") or re.match(r"<?(core|alloc|std)::", func) is not None
    # Legacy-mangled symbols of frames that were not inlined keep
    # `$LT$`/`$GT$` and a hash; inlined ones carry generic arguments.
    func = re.sub(r"::h[0-9a-f]{16}( \(\.llvm\.\d+\))?$", "", func)
    for code, char in (("$LT$", "<"), ("$GT$", ">"), ("$u7b$", "{"), ("$u7d$", "}")):
        func = func.replace(code, char)
    func = re.sub(r"<.*>$", "", func)  # `take<EventKind<..>>` -> `take`
    loc = re.sub(r" \(discriminator \d+\)$", "", loc)
    return func, re.sub(r".*/src/", "", loc), std


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=15)
    ap.add_argument("--callers", nargs="*", default=[])
    ap.add_argument("--lines", action="store_true")
    ap.add_argument("--addrs", type=int, default=0, metavar="N")
    ap.add_argument("--exclude", nargs="*", default=[], metavar="FUNC")
    args = ap.parse_args()

    maps, samples = [], []
    for line in open(args.profile):
        kind, *fields = line.split()
        if kind == "M":
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, int(fields[2], 16), fields[5] if len(fields) > 5 else "[anon]"))
        else:
            frames = [int(x, 16) for x in fields]
            # The unwinder starts inside the signal handler: the stack proper
            # begins where the interrupted instruction pointer shows up again.
            rip, rest = frames[0], frames[1:]
            samples.append(rest[rest.index(rip):] if rip in rest else [rip])
    exe = maps[0][3]  # the kernel maps the executable lowest
    if os.path.getmtime(exe) > os.path.getmtime(args.profile):
        print(f"warning: {exe} is newer than {args.profile}; rebuilt since the run, "
              "its symbols may not match the sampled addresses", file=sys.stderr)
    delta = exec_segment_delta(exe)

    def locate(addr, is_return):
        for start, end, offset, path in maps:
            if start <= addr < end:
                if path != exe:
                    return None, "[" + path.rsplit("/", 1)[-1] + "]"
                # A return address may be the first byte of the next function.
                return addr - start + offset + delta - is_return, None
        return None, "[unmapped]"

    located = [[locate(a, i > 0) for i, a in enumerate(s)] for s in samples]
    vaddrs = sorted({v for s in located for v, _ in s if v is not None})
    out = subprocess.run(["addr2line", "-f", "-C", "-e", exe] + [hex(v) for v in vaddrs],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    name = dict(zip(vaddrs, out[0::2]))
    inlined = inline_chains(exe, vaddrs)
    located = [without_entry(s, inlined) for s in located]
    stacks = [[name[v] if v is not None else other for v, other in s] for s in located]
    # Every frame's inlined functions, innermost first, then its caller's.
    logical = [[f for v, other in s for f, *_ in (inlined[v] if v is not None else [(other,)])]
               for s in located]
    for s, loc in zip(stacks, located):
        if loc[0][0] is None:
            # In a shared object: name the program's own code that called it.
            own = [f for v, _ in loc[1:] if v is not None for f, _, std in inlined[v] if not std]
            if own:
                s[0] += " <- " + own[0]
    kept = [i for i, s in enumerate(logical) if not any(x in f for x in args.exclude for f in s)]
    dropped = len(stacks) - len(kept)
    stacks, located, logical = ([x[i] for i in kept] for x in (stacks, located, logical))

    total = len(stacks)
    self_n = collections.Counter(s[0] for s in stacks)
    incl_n = collections.Counter(f for s in stacks for f in set(s))
    print(f"{total} samples of 1 ms CPU in {exe}")
    if args.exclude:
        print(f"({dropped} more excluded: stacks through {', '.join(args.exclude)})")
    print(f"{'self %':>7} {'incl %':>7}  function")
    for f, n in self_n.most_common(args.top):
        print(f"{100 * n / total:7.1f} {100 * incl_n[f] / total:7.1f}  {f}")
    for want in args.callers:
        chains = collections.Counter()
        for s in logical:
            hit = next((i for i, f in enumerate(s) if want in f), None)
            if hit is not None:
                chains[" <- ".join(s[hit:hit + 5])] += 1
        print(f"\ncallers of *{want}* ({sum(chains.values())} samples, {100 * sum(chains.values()) / total:.1f} %):")
        for chain, n in chains.most_common(8):
            print(f"{100 * n / total:7.1f}  {chain}")
    if args.lines or args.addrs:
        # A sample's own instruction pointer, attributed past inlining: the
        # per-function view cannot say where inside a loop it stalls.
        ips = [s[0][0] for s in located if s[0][0] is not None]
        where = {v: inlined[v][0] for v in ips}
    if args.lines:
        for title, pick in (("innermost function", 0), ("line", 1)):
            n = collections.Counter(where[v][pick] for v in ips)
            print(f"\nself % by {title}:")
            for key, k in n.most_common(args.top):
                print(f"{100 * k / total:7.1f}  {key}")
    if args.addrs:
        # One source line can be several loads; the address, read back with
        # `objdump -d --start-address=ADDR`, says which one the samples hit.
        print(f"\nself % by instruction address (vaddrs of {exe}):")
        for v, k in collections.Counter(ips).most_common(args.addrs):
            print(f"{100 * k / total:7.1f}  {v:#x}  {where[v][0]}  {where[v][1]}")


if __name__ == "__main__":
    main()
