#!/usr/bin/env python3
"""Compare test/golden/cegar.jsonl with an earlier revision's copy,
ignoring only the BDD node-count fields.

A change to the BDD kernel (new operations, a new node layout) moves how
many nodes a run allocates, and so the `bdd_nodes`/`bdd_peak` fields of
the file's provenance records, but it must move nothing else: verdicts,
counterexamples, supervisor events and every other provenance field stay
the same. This script shows that a re-recorded file differs from the
base revision's in those two fields alone.

Usage, from the root of a git checkout:

    python3 test/golden_strip.py BASE

BASE is any git revision (a merge base, HEAD~1). Prints "equal" and
exits 0 when every line equals the same line at BASE once the two
fields are removed at any depth; prints the first difference and exits
1 otherwise.
"""

import json
import subprocess
import sys

GOLDEN = "test/golden/cegar.jsonl"
STRIPPED = ("bdd_nodes", "bdd_peak")


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in STRIPPED}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def records(text):
    return [strip(json.loads(line)) for line in text.splitlines() if line.strip()]


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: golden_strip.py BASE")
    base = sys.argv[1]
    shown = subprocess.run(["git", "show", "%s:%s" % (base, GOLDEN)],
                           capture_output=True, text=True)
    if shown.returncode != 0:
        sys.exit("golden_strip: cannot read %s at %s: %s"
                 % (GOLDEN, base, shown.stderr.strip()))
    with open(GOLDEN) as f:
        old, new = records(shown.stdout), records(f.read())
    if len(old) != len(new):
        print("%s: %d lines at %s, %d now" % (GOLDEN, len(old), base, len(new)))
        sys.exit(1)
    for i, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            print("%s:%d differs from %s beyond %s"
                  % (GOLDEN, i, base, "/".join(STRIPPED)))
            print("  %s: %s" % (base, json.dumps(a, sort_keys=True)))
            print("  now: %s" % json.dumps(b, sort_keys=True))
            sys.exit(1)
    print("%s: equal to %s without %s (%d lines)"
          % (GOLDEN, base, "/".join(STRIPPED), len(new)))


if __name__ == "__main__":
    main()
