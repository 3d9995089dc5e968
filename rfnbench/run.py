#!/usr/bin/env python3
"""The repository benchmark (see README.md in this directory).

    python3 rfnbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the root of an rfn checkout. It builds the OCaml harness and
the `rfn` CLI into .bench_build/, writes the workload's netlists into
.bench_work/, runs them, checks every answer, prints a readable report
and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones. A traced run first repeats the untraced run, so that
obs.trace_overhead compares the two on the same inputs.

Work is capped by counts, never by the clock: --seconds is accepted
for the calling convention and echoed in the report, but does not
change what runs. The seed picks serve's job order; the three
paper-scale workloads run the paper's fixed designs.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("table1", "coverage", "sat_engine", "serve")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
SETUP_TRIALS = 15  # serve: set-up trials per run, spread over the jobs
DEADLINE_S = 170  # after the build, every run ends within this
HARNESS_TARGET = os.path.join(
    os.path.relpath(os.path.dirname(os.path.abspath(__file__))), "harness.exe")
HARNESS = os.path.join(BUILD_DIR, "default", HARNESS_TARGET)
RFN = os.path.join(BUILD_DIR, "default", "bin", "rfn_cli.exe")

# Work counters that must repeat exactly across runs of the same code.
WORK_COUNTERS = (
    "bdd.nodes_allocated", "atpg.decisions", "sat.propagations",
    "serve.sessions_created", "serve.sessions_reused",
    "serve.sessions_evicted", "session.cones_reused",
    "session.cones_recompiled",
)

CHILDREN = []


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr, flush=True)
    stop_children()
    sys.exit(code)


def stop_children():
    for p in CHILDREN:
        if p.poll() is None:
            p.kill()
        p.wait()
    CHILDREN.clear()


def on_alarm(_signum, _frame):
    die("run exceeded %d s" % DEADLINE_S, 3)


def clean_env():
    """The environment minus everything that would change the program
    being measured: every RFN_* knob (RFN_ENGINE, RFN_RACE, RFN_CHECK,
    RFN_INJECT_FAULTS, RFN_PROC_*, ...) and OCAMLRUNPARAM."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("RFN_") and k != "OCAMLRUNPARAM"}


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of an rfn checkout (no dune-project / lib here)")
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./" + HARNESS_TARGET,
           "./bin/rfn_cli.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       env=clean_env())
    if r.returncode != 0:
        die("build failed")


def fixed_layout(argv):
    """Run measured processes with address-space randomisation off:
    with it on, peak RSS moves by several percent between runs of
    identical work; with it off it repeats exactly."""
    if shutil.which("setarch"):
        return ["setarch", "-R"] + argv
    return argv


def harness(*args):
    r = subprocess.run(fixed_layout([HARNESS] + list(args)), capture_output=True,
                       text=True, env=clean_env())
    if r.returncode != 0:
        die("harness %s failed:\n%s" % (args[0], r.stderr))
    return json.loads(r.stdout.strip().splitlines()[-1])


# ---- in-process workloads (table1, coverage, sat_engine) ---------------


def run_inprocess(work, traced):
    d = harness("run", work, "1" if traced else "0")
    jobs = d["jobs"]
    for j in jobs:
        j.setdefault("verdict", None)  # coverage jobs have no verdict
        j.setdefault("unreachable", None)
    t = d["telemetry"]
    return {
        "config": d["config"],
        "setup_s": statistics.median(d["setup_trials"]),
        "load_s": statistics.median(d["setup_trials"]),
        "wall_s": d["wall_s"],
        "peak_rss_mb": d["peak_rss_mb"],
        "jobs": jobs,
        "counters": t["counters"],
        "spans": {k: v["seconds"] for k, v in t["spans"].items()},
        "image_p90_s": t["hists"].get("mc.image_seconds", {}).get("p90", 0.0),
    }


# ---- serve: a closed-loop client of `rfn serve` ------------------------


class Server:
    def __init__(self, work, traced):
        args = [os.path.abspath(RFN), "serve", "--engine", "atpg"]
        if traced:
            args.append("--profile")
        self.proc = subprocess.Popen(
            fixed_layout(args), cwd=work, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1, env=clean_env())
        CHILDREN.append(self.proc)

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            die("rfn serve closed its output")
        return json.loads(line)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def shutdown(self):
        """Send shutdown, wait for bye, return whatever follows it (the
        --profile report) and reap the process."""
        self.send({"op": "shutdown"})
        while self.read().get("ev") != "bye":
            pass
        rest = self.proc.stdout.read()
        self.proc.stdin.close()
        self.proc.wait()
        CHILDREN.remove(self.proc)
        return rest


def start_server(work, traced):
    t0 = time.perf_counter()
    s = Server(work, traced)
    s.send({"op": "status"})
    if s.read().get("ev") != "status":
        die("rfn serve did not answer status")
    return s, time.perf_counter() - t0


def parse_profile(text):
    """Span totals and histogram quantiles from the
    Telemetry.pp_report block `rfn serve --profile` prints at exit."""
    spans, hists, section = {}, {}, None
    for line in text.splitlines():
        if not line.startswith("  "):
            section = line.split()[0].rstrip(":") if line.strip() else None
            continue
        parts = line.split()
        if section == "spans":
            total = [p for p in parts if p.startswith("total=")]
            if total:
                rest = total[0][len("total="):] or parts[parts.index(total[0]) + 1]
                spans[parts[0]] = float(rest.rstrip("s"))
        elif section == "histograms" and len(parts) == 5:
            hists[parts[0]] = {"p50": float(parts[2]), "p90": float(parts[3])}
    return spans, hists


def setup_trial(work, traced):
    """One serve set-up: every netlist loaded once (timed inside the
    harness) plus one server start of a spare server, which is shut
    down again. Returns (load seconds, load + start seconds)."""
    load = harness("load", work, "1")["setup_trials"][0]
    spare, start = start_server(work, traced)
    spare.shutdown()
    return load, load + start


def run_serve(work, traced):
    manifest = json.load(open(os.path.join(work, "manifest.json")))
    n = len(manifest["jobs"])
    # Set-up trials run between jobs, spread over the whole run like
    # the in-process workloads' trials, so their median samples the
    # machine across the run rather than in one burst.
    trial_before = {n * (2 * k + 1) // (2 * SETUP_TRIALS)
                    for k in range(SETUP_TRIALS)}
    server, _ = start_server(work, traced)
    loads, setups, jobs, traces = [], [], [], []
    for i, j in enumerate(manifest["jobs"]):
        if i in trial_before:
            load, setup = setup_trial(work, traced)
            loads.append(load)
            setups.append(setup)
        t0 = time.perf_counter()
        server.send({"op": "submit", "id": j["id"], "design": j["file"],
                     "property": j["target"], "engines": j["engines"],
                     "analyze": j["analyze"]})
        while True:
            msg = server.read()
            if msg.get("ev") == "error":
                die("server error: %s" % msg)
            if msg.get("ev") == "result" and msg.get("id") == j["id"]:
                break
        latency = time.perf_counter() - t0
        verdict = {"proved": "T", "falsified": "F"}.get(msg.get("verdict"),
                                                        msg.get("verdict"))
        expect = j["expect"]["verdict"]
        ok = verdict == expect
        error = None if ok else "unexpected verdict %s" % msg.get("verdict")
        if verdict == "F":
            traces.append({"id": j["id"], "file": j["file"],
                           "target": j["target"], "trace": msg.get("trace")})
        jobs.append({
            "id": j["id"], "seconds": latency, "total_s": latency, "runs": 1,
            "ok": ok, "error": error,
            "verdict": verdict, "expect": j["expect"],
            "server_s": msg.get("seconds", 0.0),
            "iterations": msg.get("iterations", 0),
            "counters": msg.get("counters", {}),
        })
    # The measured phase is the jobs themselves: set-up trials between
    # them are left out.
    wall = sum(job["seconds"] for job in jobs)
    rss = server.peak_rss_mb()
    report = server.shutdown()
    # Every counterexample is replayed on the concrete netlist here,
    # independently of the server.
    if traces:
        path = os.path.join(work, "traces.json")
        with open(path, "w") as f:
            json.dump(traces, f)
        replayed = harness("replay", work, path)
        for job in jobs:
            if job["verdict"] == "F" and job["ok"]:
                states = replayed.get(job["id"], 0)
                if states != job["expect"]["states"]:
                    job["ok"] = False
                    job["error"] = ("counterexample replays with %d states, "
                                    "expected %d" % (states,
                                                     job["expect"]["states"]))
    counters = {}
    for job in jobs:
        for k, v in job["counters"].items():
            counters[k] = counters.get(k, 0) + v
    spans, hists = parse_profile(report)
    return {
        "config": {"server": "rfn serve --engine atpg (CLI defaults, "
                             "RFN_* unset)", "jobs": len(jobs)},
        "setup_s": statistics.median(setups),
        "load_s": statistics.median(loads),
        "wall_s": wall,
        "peak_rss_mb": rss,
        "jobs": jobs,
        "counters": counters,
        "spans": spans,
        "image_p90_s": hists.get("mc.image_seconds", {}).get("p90", 0.0),
    }


# ---- metrics -------------------------------------------------------------


def e2e_metrics(r):
    times = [j["seconds"] for j in r["jobs"]]
    proofs = [j["seconds"] for j in r["jobs"]
              if j["verdict"] == "T" or j.get("unreachable") is not None]
    # linear interpolation between order statistics
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "setup_s": (r["setup_s"], "s"),
        "wall_s": (r["wall_s"], "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "proof_s": (sum(proofs), "s"),
        "jobs_per_s": (sum(j["runs"] for j in r["jobs"]) / r["wall_s"], "1/s"),
        "job_p50_s": (deciles[4], "s"),
        "job_p90_s": (deciles[8], "s"),
    }


def report_metrics(r):
    """The ten end-to-end figures of the readable report; the ones a
    workload does not have read n/a."""
    m = e2e_metrics(r)
    jobs = r["jobs"]
    m["fail_rate"] = (sum(j["runs"] for j in jobs if not j["ok"])
                      / sum(j["runs"] for j in jobs), "ratio")
    cex = [j["seconds"] for j in jobs if j["verdict"] == "F"]
    m["cex_s"] = (sum(cex), "s") if cex else (None, "s")
    unr = [j["unreachable"] for j in jobs if j.get("unreachable") is not None]
    m["unreachable_states"] = (sum(unr), "count") if unr else (None, "count")
    return m


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(workload, r, untraced_wall):
    c, sp = r["counters"], r["spans"]

    def cnt(k):
        return c.get(k, 0)

    def span(k):
        return sp.get(k, 0.0)

    steps = ["rfn.abstract_mc", "rfn.hybrid", "rfn.concretize", "rfn.refine",
             "rfn.analyze"]
    jobs = r["jobs"]
    if workload == "coverage":
        untracked = 0.0
    elif workload == "serve":
        untracked = sum(j["server_s"] for j in jobs) - sum(span(s) for s in steps)
    else:
        untracked = sum(j["total_s"] - sum(j["spans"][s] for s in steps)
                        for j in jobs)
    atpg_sites = span("hybrid.preimage") + span("concretize.atpg") + \
        span("refine.trace_check")
    sat_solve = span("sat_bmc.solve") + span("sat_bmc.concretize")
    cov = [j for j in jobs if j.get("unreachable") is not None]
    engine_in_cov = sum(span(s) for s in ("mc.image", "hybrid.preimage",
                                          "concretize.atpg",
                                          "refine.trace_check"))
    hits, misses = cnt("bdd.cache_hits"), cnt("bdd.cache_misses")
    reused, recompiled = cnt("session.cones_reused"), cnt("session.cones_recompiled")
    return {
        "circuit.load_s": (r["load_s"], "s"),
        "rfn.abstract_mc_s": (span("rfn.abstract_mc"), "s"),
        "rfn.hybrid_s": (span("rfn.hybrid"), "s"),
        "rfn.concretize_s": (span("rfn.concretize"), "s"),
        "rfn.refine_s": (span("rfn.refine"), "s"),
        "rfn.analyze_s": (span("rfn.analyze"), "s"),
        "rfn.untracked_s": (untracked, "s"),
        "rfn.iterations": (sum(j["iterations"] for j in jobs), "count"),
        "bdd.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "bdd.nodes_allocated": (cnt("bdd.nodes_allocated"), "count"),
        "bdd.gc_runs": (cnt("bdd.gc_runs"), "count"),
        "mc.image_s": (span("mc.image"), "s"),
        "mc.post_images": (cnt("mc.post_images"), "count"),
        "mc.image_p90_s": (r["image_p90_s"], "s"),
        "hybrid.preimage_s": (span("hybrid.preimage"), "s"),
        "hybrid.min_cut_steps": (cnt("hybrid.min_cut_steps"), "count"),
        "atpg.concretize_s": (span("concretize.atpg"), "s"),
        "atpg.decisions": (cnt("atpg.decisions"), "count"),
        "atpg.backtracks": (cnt("atpg.backtracks"), "count"),
        "atpg.decisions_per_s": (ratio(cnt("atpg.decisions"), atpg_sites), "1/s"),
        "refine.trace_check_s": (span("refine.trace_check"), "s"),
        "refine.trace_checks": (cnt("refine.trace_checks"), "count"),
        "sim.packed_words": (cnt("sim.packed_words"), "count"),
        "sim.words_per_s": (ratio(cnt("sim.packed_words"), r["wall_s"]), "1/s"),
        "sat.solve_s": (sat_solve, "s"),
        "sat.encode_s": (span("rfn.concretize") - span("sat_bmc.concretize")
                         if workload == "sat_engine" else 0.0, "s"),
        "sat.encode_direct_s": (sum(j.get("encode_direct_s", 0.0) for j in jobs), "s"),
        "sat.propagations": (cnt("sat.propagations"), "count"),
        "sat.props_per_s": (ratio(cnt("sat.propagations"), sat_solve), "1/s"),
        "analysis.run_s": (span("analysis.run"), "s"),
        "analysis.proved": (cnt("analysis.proved"), "count"),
        "session.cones_reused": (reused, "count"),
        "session.cones_recompiled": (recompiled, "count"),
        "session.reuse_ratio": (ratio(reused, reused + recompiled), "ratio"),
        "serve.sessions_created": (cnt("serve.sessions_created"), "count"),
        "serve.sessions_reused": (cnt("serve.sessions_reused"), "count"),
        "serve.sessions_evicted": (cnt("serve.sessions_evicted"), "count"),
        "serve.overhead_s": (statistics.median(j["seconds"] - j["server_s"] for j in jobs)
                             if workload == "serve" else 0.0, "s"),
        "coverage.iu_s": (sum(j["total_s"] for j in cov if j["id"].startswith("IU")), "s"),
        "coverage.usb_s": (sum(j["total_s"] for j in cov if j["id"].startswith("USB")), "s"),
        "coverage.bookkeeping_s": (sum(j["total_s"] for j in cov) - engine_in_cov
                                   if cov else 0.0, "s"),
        "coverage.unreachable_states": (sum(j["unreachable"] for j in cov), "count"),
        "cex_s": (sum(j["seconds"] for j in jobs if j["verdict"] == "F"), "s"),
        "obs.trace_overhead": (r["wall_s"] / untraced_wall - 1.0, "ratio"),
    }


def work_counters(r):
    c = r["counters"]
    w = {k: c.get(k, 0) for k in WORK_COUNTERS}
    w["rfn.iterations"] = sum(j["iterations"] for j in r["jobs"])
    w["unreachable"] = [j.get("unreachable") for j in r["jobs"]
                        if j.get("unreachable") is not None]
    return w


# ---- report --------------------------------------------------------------


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, int):
        return str(v)
    return "%.6g" % v


def print_report(workload, args, r, report, layers):
    print("workload %s  seed %d  trace %d  (--seconds %d: work is count-capped)"
          % (workload, args.seed, args.trace, args.seconds))
    print("config " + json.dumps(r["config"], sort_keys=True))
    if workload != "serve":
        for j in r["jobs"]:
            steps = {k.split(".")[1]: v for k, v in j["spans"].items()
                     if k.startswith("rfn.")}
            tracked = sum(steps.values())
            answer = j["verdict"] or "%s unreachable" % j["unreachable"]
            line = "job %-11s %-20s %8.3f s  %s" % (
                j["id"], answer, j["seconds"], "ok" if j["ok"] else j["error"])
            if layers is not None and workload != "coverage":
                line += "  steps: " + " ".join(
                    "%s=%.3f" % (k, v) for k, v in steps.items()) + \
                    " untracked=%.3f" % (j["total_s"] - tracked)
            print(line)
    else:
        bad = [j for j in r["jobs"] if not j["ok"]]
        print("jobs %d, wrong %d%s" % (len(r["jobs"]), len(bad),
                                        "".join("\n  %s: %s" % (j["id"], j["error"])
                                                for j in bad)))
    for name, (v, unit) in report.items():
        print("e2e   %-28s %12s %s" % (name, fmt(v), unit))
    if layers is not None:
        for name, (v, unit) in layers.items():
            print("layer %-28s %12s %s" % (name, fmt(v), unit))
    print("work " + json.dumps(work_counters(r), sort_keys=True))


def run_workload(workload, work, traced):
    if workload == "serve":
        return run_serve(work, traced)
    return run_inprocess(work, traced)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    # The first run in a checkout builds; the deadline covers the rest.
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    work = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed,
                                                 os.getpid()))
    os.makedirs(work)
    try:
        harness("gen", args.workload, str(args.seed), work)
        runs = [run_workload(args.workload, work, False)]
        if args.trace:
            runs.append(run_workload(args.workload, work, True))
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    r = runs[-1]
    report = report_metrics(runs[0])
    layers = layer_metrics(args.workload, r, runs[0]["wall_s"]) \
        if args.trace else None
    print_report(args.workload, args, r, report, layers)
    attempted = sum(j["runs"] for x in runs for j in x["jobs"])
    failed = sum(j["runs"] for x in runs for j in x["jobs"] if not j["ok"])
    metrics = layers if args.trace else e2e_metrics(runs[0])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    signal.alarm(0)


if __name__ == "__main__":
    main()
