#!/usr/bin/env python3
"""Work-counter gate: hold traced rfnbench runs to the last history line.

    python3 rfnbench/run.py --workload sat_engine --seed 1 --trace 1 > sat_engine.out
    python3 bench/gate.py BENCH_history.jsonl sat_engine=sat_engine.out

Each RUN file holds the output of a traced run of rfnbench/run.py; its
last line is the run's JSON result. Every metric whose unit is "count"
is a work counter that repeats exactly for the same code, so the gate
demands equality with the last line of HISTORY, workload by workload.
History lines record seed 1; run the workloads with --seed 1.

Exit status: 0 when every counter matches, 1 on a mismatch or a run
with wrong answers, 2 on bad arguments or unreadable files. On a
mismatch the gate prints the history line to append when the change in
work is intended.
"""

import json
import sys


def fail(msg):
    print("gate: " + msg, file=sys.stderr)
    sys.exit(2)


def last_json_line(path):
    try:
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        return json.loads(lines[-1])
    except (OSError, IndexError, ValueError) as e:
        fail("%s: no JSON result line (%s)" % (path, e))


def counts(run, path):
    metrics = run.get("metrics", {})
    c = {k: m["value"] for k, m in metrics.items() if m.get("unit") == "count"}
    if not c:
        fail("%s: no count metrics; run rfnbench with --trace 1" % path)
    return c


def main(argv):
    if len(argv) < 2 or any("=" not in a for a in argv[1:]):
        fail("usage: gate.py HISTORY WORKLOAD=RUN...")
    history = last_json_line(argv[0])
    expected = history.get("workloads", {})
    current = dict(expected)
    problems, wrong = [], False
    for arg in argv[1:]:
        workload, path = arg.split("=", 1)
        run = last_json_line(path)
        if not run.get("correct"):
            wrong = True
            problems.append("%s: %s of %s run(s) gave wrong answers"
                            % (workload, run.get("failed"), run.get("attempted")))
        got = current[workload] = counts(run, path)
        want = expected.get(workload)
        if want is None:
            problems.append("%s: no counters in the last history line" % workload)
            continue
        for k in sorted(set(want) | set(got)):
            if want.get(k) != got.get(k):
                problems.append("%s: %s %s, history %s"
                                % (workload, k, got.get(k), want.get(k)))
    if not problems:
        print("gate: OK, %d workload(s) match the last history line"
              % (len(argv) - 1))
        return 0
    for p in problems:
        print("gate: MISMATCH " + p)
    if wrong:
        return 1
    line = {"change": "<what changed the work>", "seed": history.get("seed", 1),
            "workloads": current}
    print("gate: if the change in work is intended, append to %s:" % argv[0])
    print(json.dumps(line, sort_keys=True))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
