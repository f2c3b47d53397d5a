#!/usr/bin/env python3
"""Self and inclusive shares of a tools/sample profile.

    python3 tools/sample/report.py SAMPLES [--top N]

Reads the raw file that tools/sample writes, symbolizes every address
with `llvm-symbolizer --inlining` (or $LLVM_SYMBOLIZER), and prints
three tables, each as a share of all samples:

- self by address: the interrupted pc, with its innermost inlined
  function and source line;
- self by function: the innermost inlined function at the interrupted
  pc;
- inclusive by function: samples with the function anywhere on the
  stack, inlined frames included, each sample counted once per function;
  only the simulator's functions (`ffsim_*` crates), since the harness
  and the runtime are on every stack.

Return addresses are looked up one byte back, inside their call.
"""

import collections
import os
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")
# The escapes of Rust's legacy symbol mangling that the symbolizer leaves
# in some names.
ESCAPES = {"$LT$": "<", "$GT$": ">", "$RF$": "&", "$BP$": "*", "$SP$": "@",
           "$LP$": "(", "$RP$": ")", "$C$": ",", "$u20$": " ", "$u27$": "'",
           "$u5b$": "[", "$u5d$": "]", "$u7b$": "{", "$u7d$": "}",
           "$u7e$": "~", "..": "::"}
ESCAPE = re.compile("|".join(re.escape(e) for e in ESCAPES))


def demangle(fn):
    fn = HASH.sub("", fn)
    if "$" in fn or ".." in fn:
        fn = ESCAPE.sub(lambda m: ESCAPES[m.group(0)], fn.replace("_$", "$"))
    return fn


def read_samples(path):
    header, samples = {}, []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            fields = line.split()
            if fields and fields[0] in ("exe", "bias", "period_us"):
                header[fields[0]] = fields[1]
            elif fields:
                samples.append([int(a, 16) for a in fields])
    return header, samples


def symbolize(exe, addrs):
    """Maps each ELF address to its inlined frames, innermost first, as
    (function, "file:line") pairs."""
    tool = os.environ.get("LLVM_SYMBOLIZER", "llvm-symbolizer")
    query = "".join(f"{a:#x}\n" for a in addrs)
    out = subprocess.run(
        [tool, "--inlining", "--relativenames", f"--obj={exe}"],
        input=query, capture_output=True, text=True, check=True,
    ).stdout
    frames = {}
    for addr, block in zip(addrs, out.strip("\n").split("\n\n")):
        lines = block.split("\n")
        pairs = []
        for fn, loc in zip(lines[0::2], lines[1::2]):
            loc = loc.rsplit(":", 1)[0]  # drop the column
            pairs.append((demangle(fn), loc))
        frames[addr] = pairs or [("??", "??:0")]
    return frames


def main(argv):
    top = 25
    if "--top" in argv:
        i = argv.index("--top")
        top = int(argv[i + 1])
        del argv[i:i + 2]
    if len(argv) != 1:
        sys.exit(__doc__.strip())
    header, samples = read_samples(argv[0])
    if not samples:
        sys.exit(f"{argv[0]}: no samples")
    bias = int(header["bias"], 16)
    # Leaf pcs as they are; return addresses one byte back.
    keys = set()
    for s in samples:
        keys.add(s[0] - bias)
        keys.update(a - bias - 1 for a in s[1:])
    frames = symbolize(header["exe"], sorted(keys))

    by_addr, self_fn, incl_fn = (collections.Counter() for _ in range(3))
    for s in samples:
        leaf = frames[s[0] - bias]
        by_addr[s[0] - bias] += 1
        self_fn[leaf[0][0]] += 1
        seen = {fn for fn, _ in leaf}
        for a in s[1:]:
            seen.update(fn for fn, _ in frames[a - bias - 1])
        incl_fn.update(fn for fn in seen if "ffsim_" in fn)

    n = len(samples)
    period = header.get("period_us", "?")
    print(f"{n} samples every {period} us of {header['exe']}")
    print(f"\nself by address (top {top})")
    for addr, c in by_addr.most_common(top):
        fn, loc = frames[addr][0]
        print(f"{100 * c / n:6.2f}%  {addr:#10x}  {loc}  {fn}")
    for title, counter in (("self by function", self_fn), ("inclusive by function", incl_fn)):
        print(f"\n{title} (top {top})")
        for fn, c in counter.most_common(top):
            print(f"{100 * c / n:6.2f}%  {fn}")


if __name__ == "__main__":
    main(sys.argv[1:])
