#!/usr/bin/env python3
"""Repository benchmark launcher.

Run one workload (the command BENCHMARK.json names):

    python3 perfbench/run.py --workload augment_cold --seed 1 --seconds 20 --trace 0

It builds the benchmark program (this directory's Go module) and cmd/serve
from source into .bench_build/, runs it from the checkout root and
passes its output through; the last line is the result object. All Go
caches and temporary files stay under .bench_build/.

Helpers for people working on the benchmark or on a performance change:

    python3 perfbench/run.py sweep --workload W --seeds 1-10 --out runs.jsonl
        run a workload on each seed, append every run to runs.jsonl and
        print each metric's median, quartiles and spread
    python3 perfbench/run.py compare old.jsonl new.jsonl
        compare two result sets per workload and end-to-end metric
    python3 perfbench/run.py selftest
        run the benchmark's own tests at tiny scale
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env():
    """Environment that keeps every Go cache and temp file in the build dir
    and never reaches for the network."""
    b = build_dir()
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(b, "gocache"),
        GOPATH=os.path.join(b, "gopath"),
        GOTMPDIR=os.path.join(b, "tmp"),
        TMPDIR=os.path.join(b, "tmp"),
        XDG_CONFIG_HOME=os.path.join(b, "config"),
        XDG_CACHE_HOME=os.path.join(b, "cache"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    for k in ("GOCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME", "XDG_CACHE_HOME"):
        os.makedirs(env[k], exist_ok=True)
    return env


def build(env):
    """Build the benchmark program and cmd/serve; return their paths."""
    b = build_dir()
    bench = os.path.join(b, "bin", "perfbench")
    serve = os.path.join(b, "bin", "serve")
    for out, pkg in ((bench, "."), (serve, "repro/cmd/serve")):
        r = subprocess.run(["go", "build", "-o", out, pkg], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            raise SystemExit("perfbench: build of %s failed" % pkg)
    return bench, serve


def run_once(args, env, bench, serve, echo=True):
    """Run the benchmark program once; return its stdout lines."""
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", serve, "--pins", os.path.join("perfbench", "pins.json")]
    if getattr(args, "heldout", False):
        cmd.append("--heldout")
    if getattr(args, "record_pins", False):
        cmd.append("--record-pins")
    env = dict(env, PERFBENCH_T0=str(time.time_ns()))
    # Own process group, so a run that overruns is stopped together with
    # the processes it started (cold augment children, the server).
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise SystemExit("perfbench: run exceeded %ds" % RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    if p.returncode != 0:
        raise SystemExit(p.returncode)
    return out.strip().splitlines()


def parse_run_args(argv):
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout", action="store_true",
                    help="draw the input seed from the held-out pool")
    ap.add_argument("--record-pins", action="store_true",
                    help="record this run's outputs as the pins of its input seed")
    return ap.parse_args(argv)


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def load_runs(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def summarize(runs):
    by = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    for (w, t, name), vals in sorted(by.items()):
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-13s trace=%d %-34s n=%-3d median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%.3f"
              % (w, t, name, len(vals), med, q1, q3, spread))
    bad = [r for r in runs if not r["result"]["correct"]]
    print("%d runs, %d incorrect" % (len(runs), len(bad)))


def cmd_sweep(argv):
    ap = argparse.ArgumentParser(prog="run.py sweep")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout", action="store_true")
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)
    if a.seconds is None:
        with open(SPEC) as f:
            a.seconds = json.load(f)["run_seconds"]
    env = go_env()
    bench, serve = build(env)
    runs = []
    for seed in seed_list(a.seeds):
        a.seed = seed
        t = time.time()
        lines = run_once(a, env, bench, serve, echo=False)
        rec = {"workload": a.workload, "seed": seed, "trace": a.trace, "heldout": a.heldout,
               "wall_s": time.time() - t, "detail": json.loads(lines[-2])["perfbench"],
               "result": json.loads(lines[-1])}
        runs.append(rec)
        with open(a.out, "a") as f:
            f.write(json.dumps(rec) + "\n")
        print("seed %d: %.1fs correct=%s %s" % (seed, rec["wall_s"], rec["result"]["correct"],
              {k: round(v["value"], 4) for k, v in rec["result"]["metrics"].items()}), flush=True)
    summarize(runs)


def verdict(old, new, better, bound):
    """choosing-metrics §8: improved only with >= 9/10 pair wins and a median
    gap wider than the parent's own quartile spread; unresolved when the
    parent's spread exceeds the bound, unless every new run beats every old
    one; worse when the median moved the wrong way by more than the bound."""
    sign = 1 if better == "higher" else -1
    oq1, omed, oq3 = quartiles(old)
    _, nmed, _ = quartiles(new)
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    gain = sign * (nmed - omed)
    if win_frac >= 0.9 and gain > (oq3 - oq1):
        return "improved", win_frac
    all_better = all(sign * (n - o) > 0 for o in old for n in new)
    if omed and (oq3 - oq1) / abs(omed) > bound and not all_better:
        return "unresolved", win_frac
    if omed and -gain / abs(omed) > bound:
        return "worse", win_frac
    return "within bound", win_frac


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("old")
    ap.add_argument("new")
    a = ap.parse_args(argv)
    with open(SPEC) as f:
        spec = json.load(f)
    old, new = load_runs(a.old), load_runs(a.new)
    workloads = sorted({r["workload"] for r in old} & {r["workload"] for r in new})
    print("%-13s %-12s %12s %21s %12s %21s %5s  %s" % ("workload", "metric", "old median", "old q1..q3",
          "new median", "new q1..q3", "wins", "verdict"))
    for w in workloads:
        o_runs = sorted((r for r in old if r["workload"] == w and r["trace"] == 0), key=lambda r: r["seed"])
        n_runs = sorted((r for r in new if r["workload"] == w and r["trace"] == 0), key=lambda r: r["seed"])
        for m in spec["end_to_end"]:
            ov = [r["result"]["metrics"][m["name"]]["value"] for r in o_runs]
            nv = [r["result"]["metrics"][m["name"]]["value"] for r in n_runs]
            if not ov or not nv:
                continue
            v, wf = verdict(ov, nv, m["better"], m["bound"])
            oq1, omed, oq3 = quartiles(ov)
            nq1, nmed, nq3 = quartiles(nv)
            print("%-13s %-12s %12.6g %10.4g..%-10.4g %12.6g %10.4g..%-10.4g %5.2f  %s"
                  % (w, m["name"], omed, oq1, oq3, nmed, nq1, nq3, wf, v))
        o_t = [r for r in old if r["workload"] == w and r["trace"] == 1]
        n_t = [r for r in new if r["workload"] == w and r["trace"] == 1]
        for label, runs in (("old", o_t), ("new", n_t)):
            if runs:
                med = statistics.median(r["result"]["metrics"]["trace.e2e_throughput"]["value"] for r in runs)
                print("%-13s traced throughput (%s) median %.6g over %d runs" % (w, label, med, len(runs)))


def cmd_selftest(argv):
    env = go_env()
    r = subprocess.run(["go", "test", "-count=1", "-timeout", "600s"] + argv + ["."], cwd=HERE, env=env)
    raise SystemExit(r.returncode)


def main():
    argv = sys.argv[1:]
    sub = {"sweep": cmd_sweep, "compare": cmd_compare, "selftest": cmd_selftest}
    if argv and argv[0] in sub:
        sub[argv[0]](argv[1:])
        return
    args = parse_run_args(argv)
    env = go_env()
    bench, serve = build(env)
    run_once(args, env, bench, serve)


if __name__ == "__main__":
    main()
