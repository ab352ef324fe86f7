#!/usr/bin/env python3
"""acexbench: the end-to-end benchmark of acex (see README.md here).

Builds bench/e2e with CMake into build-bench at the repository root, then
runs each workload of the acexbench binary in its own child process.

  acexbench.py --workload W --seed N --seconds S --trace 0|1
      One run in the form BENCHMARK.json promises: the last stdout line is
      {"correct", "attempted", "failed", "metrics"} holding the end-to-end
      metrics (--trace 0) or the per-layer metrics (--trace 1).
  acexbench.py run [--seed N] [--seconds S] [--workloads a,b] [--trace DIR]
                   [--record LEDGER --label L]
      Every workload, a table of every metric; --trace adds a traced run of
      each workload and the per-layer report; --record appends one record
      to the append-only ledger.
  acexbench.py diff LEDGER --base LABEL --new LABEL
      One row per (metric, workload): medians, quartiles and a verdict.
  acexbench.py smoke --bin PATH
      About a second per workload, untraced and traced: bytes verified,
      nothing missing, every named metric present and finite.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "acexbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# A child gets its measured seconds plus this for input generation, warm-up,
# set-up and the straggler drain.
CHILD_SLACK_S = 60
# failed_frac is printed and recorded but is not in BENCHMARK.json, whose
# metrics must never read 0; any increase at all is a regression.
FAILED_FRAC = {"name": "failed_frac", "unit": "fraction", "better": "lower",
               "bound": 0.0}
# A set-up change is a regression only when it is worse by more than its
# bound AND by more than this: set-up takes tens to hundreds of
# microseconds here, where the host alone moves it by more than a ratio
# bound can resolve.
SETUP_FLOOR_S = 0.010


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Configure and build acexbench (a no-op when up to date, under a
    second); build output goes to stderr."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "acexbench",
                    "--parallel", "4"], stdout=sys.stderr, check=True)


def run_child(binary, workload, seed, seconds, trace_dir=None):
    """One workload in its own process; returns its result record, whose
    "verified" is false (and the exit code 2) on any byte mismatch."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_dir:
        cmd += ["--trace", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + CHILD_SLACK_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 2) or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode} "
                           f"without a result")
    return json.loads(lines[-1])


def tracing_overhead_pct(untraced, traced):
    """How much tracing cost: the larger relative rise, in %, of median
    latency and of CPU per MiB from the untraced run to the traced one."""
    rises = []
    for name in ("latency_p50_ms", "cpu_ms_per_MiB"):
        base = untraced["metrics"][name]["value"]
        rises.append(100.0 * (traced["metrics"][name]["value"] - base) / base)
    return max(rises)


def run_pair(binary, workload, seed, seconds, trace_dir):
    """An untraced run of `workload`, then a traced run of the same seed and
    length; the traced record gains trace.overhead_pct, measured against
    the untraced one. Returns (untraced, traced)."""
    untraced = run_child(binary, workload, seed, seconds)
    traced = run_child(binary, workload, seed, seconds, trace_dir)
    traced["metrics"]["trace.overhead_pct"] = {
        "value": tracing_overhead_pct(untraced, traced), "unit": "%"}
    return untraced, traced


def select_metrics(result, specs, finite=False):
    """{name: {"value", "unit"}} for every metric in `specs`; ValueError
    when one is missing, in another unit or, with `finite`, not finite."""
    out = {}
    for m in specs:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise ValueError(f"{result['workload']}: metric {m['name']} "
                             f"missing or not in {m['unit']}")
        if finite and not math.isfinite(got["value"]):
            raise ValueError(f"{result['workload']}: {m['name']} not finite")
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


# ---- the BENCHMARK.json contract -------------------------------------

def contract(args):
    spec = load_spec()
    build()
    if args.trace:
        # Half the time untraced, half traced, so the tracing overhead is
        # measured within the run's --seconds.
        runs = run_pair(BINARY, args.workload, args.seed, args.seconds / 2,
                        os.path.join(BUILD, "trace"))
        specs = spec["per_layer"]
    else:
        runs = (run_child(BINARY, args.workload, args.seed, args.seconds),)
        specs = spec["end_to_end"]
    correct = all(r["verified"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": select_metrics(runs[-1], specs)}))
    return 0 if correct else 1


# ---- run / record ----------------------------------------------------

def git_state():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, check=True)
        return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": "unknown", "dirty": None}


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "kernel": platform.release()}


def print_table(results, spec):
    names = [m["name"] for m in spec["end_to_end"]] + ["failed_frac"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_frac"] = FAILED_FRAC["unit"]
    workloads = list(results)
    print(f"{'metric':<16} {'unit':<9}" +
          "".join(f"{w:>16}" for w in workloads))
    for name in names:
        row = f"{name:<16} {units[name]:<9}"
        for w in workloads:
            row += f"{results[w]['metrics'][name]['value']:>16.6g}"
        print(row)
    for w in workloads:
        d = results[w]["diagnostics"]
        print(f"  {w}: attempted={results[w]['attempted']} "
              f"failed={results[w]['failed']} verified={results[w]['verified']} "
              f"p99={d['latency_p99_ms']:.3f} ms p99.9={d['latency_p999_ms']:.3f} ms "
              f"(n={int(d['latency_samples'])}, not gated)")


STAGE_SUM_TOLERANCE_PCT = 5.0


def print_trace_report(untraced, traced, spec):
    """Self time per layer, unaccounted share, the stage-sum check and the
    tracing overhead of one traced workload; returns False when the check
    that wan-commercial must pass fails."""
    w = traced["workload"]
    m = traced["metrics"]
    print(f"\n== traced {w}: self time per layer (window "
          f"{traced['diagnostics']['window_s']:.2f} s)")
    print(f"  {'layer':<22}{'spans':>8}{'self ms':>12}{'mean self us':>14}"
          f"{'path %':>9}")
    for name, layer in sorted(traced["layers"].items(),
                              key=lambda kv: -kv[1]["path_pct"]):
        print(f"  {name:<22}{layer['spans']:>8}{layer['self_ms']:>12.2f}"
              f"{layer['mean_self_us']:>14.1f}{layer['path_pct']:>9.2f}")
    print(f"  {'(unaccounted)':<56}{m['trace.unaccounted_pct']['value']:>9.2f}")
    err = traced["diagnostics"]["trace.stage_sum_error_pct"]
    within = err <= STAGE_SUM_TOLERANCE_PCT
    gated = w == "wan-commercial"
    print(f"  blocking-path self times vs median latency: {err:.2f} % off "
          f"({'ok' if within else 'over 5 %'}"
          f"{'' if gated else ', reported only'})")
    print(f"  tracing overhead: {m['trace.overhead_pct']['value']:+.2f} % "
          f"(traced vs an untraced run of the same seed and length):")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = untraced["metrics"][name]["value"]
        value = m[name]["value"]
        print(f"    {name:<16} {value:>12.6g} vs {base:>12.6g}  "
              f"({100.0 * (value - base) / base:+.2f} %)")
    return within or not gated


def run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    build()
    results = {}
    traced = {}
    for w in workloads:
        log(f"acexbench: {w} seed={args.seed} seconds={args.seconds}"
            f"{' untraced and traced' if args.trace else ''}")
        if args.trace:
            results[w], traced[w] = run_pair(BINARY, w, args.seed,
                                             args.seconds, args.trace)
        else:
            results[w] = run_child(BINARY, w, args.seed, args.seconds)
    ok = all(r["verified"] for r in list(results.values()) +
             list(traced.values()))
    print_table(results, spec)
    for w in traced:
        ok = print_trace_report(results[w], traced[w], spec) and ok
    if args.record:
        entries = {}
        for w, r in results.items():
            entries[w] = {
                "config": r["config"], "verified": r["verified"],
                "attempted": r["attempted"], "failed": r["failed"],
                "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                "diagnostics": r["diagnostics"]}
            if w in traced:
                entries[w]["traced_metrics"] = {
                    k: v["value"] for k, v in traced[w]["metrics"].items()}
        record = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "label": args.label, "git": git_state(), "host": host_fingerprint(),
            "seed": args.seed, "seconds": args.seconds,
            "traced": bool(args.trace), "workloads": entries,
        }
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        log(f"acexbench: appended one record to {args.record}")
    return 0 if ok else 1


# ---- diff ------------------------------------------------------------

def read_ledger(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def effective_bound(metric, median):
    """The metric's bound as a share of `median`; for setup_s, raised so
    that the change must also exceed SETUP_FLOOR_S."""
    if metric["name"] == "setup_s" and median:
        return max(metric["bound"], SETUP_FLOOR_S / abs(median))
    return metric["bound"]


def verdict(metric, base, new):
    """Compare two sets of runs of one (metric, workload) by the rules of
    the choosing-metrics guide; returns (verdict, worse_by, spread, bound)."""
    lower = metric["better"] == "lower"
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    bound = effective_bound(metric, bm)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    change = (nm - bm) if lower else (bm - nm)  # > 0: new is worse
    worse_by = change / abs(bm) if bm else (math.inf if change > 0 else 0.0)
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    if pairs and wins >= 0.9 * len(pairs) and -change > (b3 - b1):
        return "improvement", worse_by, spread, bound
    if spread > bound:
        if all(better(n, b) for n in new for b in base):
            return "no regression", worse_by, spread, bound
        return "unresolved", worse_by, spread, bound
    if worse_by > bound:
        return "REGRESSION", worse_by, spread, bound
    return "no change", worse_by, spread, bound


def diff(args):
    spec = load_spec()
    records = read_ledger(args.ledger)
    base = [r for r in records if r.get("label") == args.base]
    new = [r for r in records if r.get("label") == args.new]
    if not base or not new:
        log(f"acexbench: need records labelled {args.base!r} and "
            f"{args.new!r} in {args.ledger}")
        return 1
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"base {args.base}: {len(base)} runs, new {args.new}: {len(new)} runs")
    print(f"{'metric':<16}{'workload':<16}{'base median [q1, q3]':>34}"
          f"{'new median [q1, q3]':>34}{'worse':>9}{'spread':>8}{'bound':>9}"
          f"  verdict")
    regressions = 0
    for metric in spec["end_to_end"] + [FAILED_FRAC]:
        name = metric["name"]
        for w in workloads:
            b = [r["workloads"][w]["metrics"][name] for r in base
                 if w in r["workloads"]]
            n = [r["workloads"][w]["metrics"][name] for r in new
                 if w in r["workloads"]]
            if not b or not n:
                continue
            v, worse_by, spread, bound = verdict(metric, b, n)
            regressions += v == "REGRESSION"
            bq, nq = quartiles(b), quartiles(n)
            print(f"{name:<16}{w:<16}"
                  f"{bq[1]:>12.5g} [{bq[0]:>8.5g}, {bq[2]:>8.5g}]"
                  f"{nq[1]:>12.5g} [{nq[0]:>8.5g}, {nq[2]:>8.5g}]"
                  f"{100 * worse_by:>8.2f}%{100 * spread:>7.2f}%"
                  f"{100 * bound:>8.1f}%  {v}")
    return 1 if regressions else 0


# ---- smoke -----------------------------------------------------------

def smoke(args):
    spec = load_spec()
    trace_dir = os.path.join(os.path.dirname(os.path.abspath(args.bin)),
                             "smoke-trace")
    failures = 0
    for w in [x["name"] for x in spec["workloads"]]:
        try:
            untraced, traced = run_pair(args.bin, w, args.seed, args.seconds,
                                        trace_dir)
            for r in (untraced, traced):
                if not r["verified"]:
                    raise ValueError("bytes not verified")
                if r["failed"] != 0:
                    raise ValueError(f"{r['failed']} deliveries missing")
            select_metrics(untraced, spec["end_to_end"] + [FAILED_FRAC],
                           finite=True)
            select_metrics(traced, spec["per_layer"], finite=True)
            print(f"ok   {w}")
        except (ValueError, KeyError, RuntimeError,
                subprocess.TimeoutExpired) as e:
            failures += 1
            print(f"FAIL {w}: {e}")
    return 1 if failures else 0


def main(argv):
    if argv and argv[0] in ("run", "diff", "smoke"):
        parser = argparse.ArgumentParser(prog="acexbench.py " + argv[0])
        if argv[0] == "run":
            parser.add_argument("--seed", type=int, default=2004)
            parser.add_argument("--seconds", type=float, default=20)
            parser.add_argument("--workloads")
            parser.add_argument("--trace", metavar="DIR")
            parser.add_argument("--record", metavar="LEDGER")
            parser.add_argument("--label", default="")
            return run(parser.parse_args(argv[1:]))
        if argv[0] == "diff":
            parser.add_argument("ledger")
            parser.add_argument("--base", required=True)
            parser.add_argument("--new", required=True)
            return diff(parser.parse_args(argv[1:]))
        parser.add_argument("--bin", required=True)
        parser.add_argument("--seed", type=int, default=2004)
        parser.add_argument("--seconds", type=float, default=1)
        return smoke(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="acexbench.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return contract(parser.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, RuntimeError) as e:
        log(f"acexbench: {e}")
        sys.exit(1)
