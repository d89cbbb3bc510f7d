#!/usr/bin/env python3
"""Report repeated code windows across the library sources.

A clone is a window of 5 consecutive lines (whitespace-normalised, at
least 120 characters once joined) that occurs more than once across
lib/*/*.ml.  Prints the number of distinct clone windows, then one line
per window listing every file:line where it starts.  Report only: the
exit status is 0 whatever the count.

Usage: python3 tools/clone_scan.py   (from the repository root)
"""
import collections
import glob
import re

WINDOW = 5
MIN_CHARS = 120

seen = collections.defaultdict(list)
for path in sorted(glob.glob("lib/*/*.ml")):
    with open(path) as f:
        lines = [re.sub(r"\s+", " ", l).strip() for l in f]
    for i in range(len(lines) - WINDOW + 1):
        window = "\n".join(lines[i:i + WINDOW])
        if len(window) >= MIN_CHARS:
            seen[window].append(f"{path}:{i + 1}")

clones = [sites for sites in seen.values() if len(sites) > 1]
print(len(clones))
for sites in sorted(clones):
    print(" ".join(sites))
