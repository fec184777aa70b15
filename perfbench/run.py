#!/usr/bin/env python3
"""Run one benchmark workload and print its result record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout of the repository.  The runner checks
BENCHMARK.json against the benchmark contract, builds the OCaml
measuring program (perfbench/perfbench.ml) with dune into .bench_build/,
and runs it in child processes, each with its own empty tier-2 artifact
cache:

  --trace 0  several runs, each with its own set-up from an empty
             cache, of which one or more also measure, for --seconds in
             all (firmware adds measuring runs that reuse the cache of
             the set-up before them); the end-to-end metrics over the
             measured runs, with setup_s the median of the set-ups.
  --trace 1  an untraced and a traced run of --seconds / 2 each; the
             per-layer metrics from the traced run's spans and counts,
             and the tracing overhead as the difference between them.

The last line of standard output is the result record
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the host facts and, with --trace 1, the layer table.  Raw records and
spans are kept under .perfbench/results/.  Exits non-zero, printing no
result, when the contract, the build or a run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("multitask", "fleet", "campaign", "firmware")
# Per workload: how many set-ups an untraced run makes, each in its own
# process with an empty tier-2 cache (setup_s is their median), and in
# how many slices it measures, each for an equal share of --seconds.
# Cheap set-ups are repeated more, as one page-fault burst moves their
# short timings.  A shared host's speed drifts in streaks of seconds, so
# where set-ups are long (fleet, firmware) the measured time is cut into
# slices spread over all of them; where they are short, slicing would
# only add partial rounds and per-process warm-up.  Firmware's cold
# set-ups (tier-2 compiles, ~10 s each) leave room for more slices than
# set-ups: the extra ones run in processes that reuse the cache of the
# set-up before them, so they set up in ~0.1 s, and are not set-up
# samples.
RUNS = {"multitask": (7, 1), "fleet": (3, 3), "campaign": (15, 1),
        "firmware": (3, 30)}
BUILD_S = 800.0  # a cold build of the library; later builds are no-ops
DEADLINE_S = 170.0  # the measured runs after the build
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
SCRATCH = ".perfbench"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


# The running child, stopped with its whole process group (it spawns the
# tier-2 compiler) on a timeout or when the runner is stopped.
current = None


def stop_child():
    if current is not None and current.poll() is None:
        os.killpg(current.pid, signal.SIGKILL)
        current.wait()


def on_signal(signum, _frame):
    stop_child()
    fail("stopped by signal %d" % signum)


def run_group(argv, env, timeout):
    """Run [argv] in its own process group and wait for it."""
    global current
    current = subprocess.Popen(argv, env=env, stdout=sys.stderr,
                               start_new_session=True)
    try:
        return current.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        stop_child()
        fail("%s timed out" % " ".join(argv[:3]))


def build(deadline):
    for need in ("dune-project", os.path.join("lib", "machine")):
        if not os.path.exists(need):
            fail("%s missing: run from the root of a sensmart checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    rc = run_group(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release", "./perfbench/perfbench.exe"],
                   env, deadline - time.time())
    if rc != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % rc)


def child(workdir, tag, args, deadline, aot=None):
    """One measuring process with a private tier-2 cache: empty, or
    [aot], a cold process's cache to reuse; returns its raw record and
    spans (when traced)."""
    box = os.path.join(workdir, tag)
    for sub in ("aot", "tmp", "xdg"):
        os.makedirs(os.path.join(box, sub))
    out = os.path.join(box, "raw.json")
    spans = os.path.join(box, "spans.jsonl")
    env = dict(os.environ,
               SENSMART_AOT_CACHE=os.path.abspath(
                   aot or os.path.join(box, "aot")),
               SENSMART_AOT_INC=os.path.abspath(os.path.join(
                   BUILD_DIR, "default", "lib", "aot_runtime",
                   ".aot_runtime.objs", "byte")),
               XDG_CACHE_HOME=os.path.abspath(os.path.join(box, "xdg")),
               TMPDIR=os.path.abspath(os.path.join(box, "tmp")))
    rc = run_group([EXE] + args + ["--out", out, "--spans", spans], env,
                   deadline - time.time())
    if rc != 0:
        fail("perfbench.exe exited %d (%s)" % (rc, " ".join(args)))
    with open(out) as f:
        raw = json.load(f)
    span_list = []
    if os.path.exists(spans):
        with open(spans) as f:
            span_list = [json.loads(line) for line in f if line.strip()]
    return raw, span_list


def source_rev():
    """The git revision, or a digest of the sources outside a git tree."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.md5()
    for top in ("lib", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()


def print_layer_table(workload, spans, counts):
    rows = benchlib.layer_table(spans)
    total = sum(secs for _, (_, secs) in rows) or 1.0
    print("layer table (%s, traced run): self time by span" % workload)
    print("  %-22s %8s %12s %7s" % ("span", "calls", "self_s", "share"))
    for name, (calls, secs) in rows:
        print("  %-22s %8d %12.6f %6.1f%%" % (name, calls, secs,
                                               100.0 * secs / total))
    for name in sorted(counts):
        print("  count %-30s %s" % (name, counts[name]))


def self_test():
    suite = unittest.defaultTestLoader.discover(os.path.join(HERE, "tests"))
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    started = time.time()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    # Output self-check, before anything is timed.
    try:
        spec = benchlib.load_benchmark("BENCHMARK.json")
    except (OSError, benchlib.SchemaError) as e:
        fail("BENCHMARK.json rejected: %s" % e)
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads %s, perfbench.exe implements %s"
             % (declared, list(WORKLOADS)))
    if args.workload not in declared:
        fail("unknown workload %r" % args.workload)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build(started + BUILD_S)
    deadline = time.time() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    workdir = os.path.join(SCRATCH, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if args.trace == 0:
            setups, slices = RUNS[args.workload]
            share = str(args.seconds / slices)
            records, measured, setup_samples, cache = [], [], [], None
            for i, (cold, measures) in enumerate(
                    benchlib.schedule(setups, slices)):
                extra = (["--seconds", share] if measures
                         else ["--seconds", "0", "--setup-only"])
                tag = "run%d" % i
                raw, _ = child(workdir, tag, base + extra, deadline,
                               aot=None if cold else cache)
                records.append(raw)
                if cold:
                    setup_samples.append(raw["setup_s"])
                    cache = os.path.join(workdir, tag, "aot")
                if measures:
                    measured.append(raw)
            metrics = benchlib.end_to_end(measured, setup_samples)
            spans = []
            repeats = measured
        else:
            half = str(args.seconds / 2.0)
            plain, _ = child(workdir, "plain", base + ["--seconds", half],
                             deadline)
            traced, spans = child(workdir, "traced",
                                  base + ["--seconds", half, "--trace"],
                                  deadline)
            records, measured = [plain, traced], [traced]
            metrics = benchlib.per_layer(traced, spans, plain)
            repeats = records
        # Every measuring process of one seed, traced or not, must
        # reproduce the same deterministic outputs.
        first = benchlib.deterministic_outputs(repeats[0])
        failures = ["run %d: deterministic outputs differ from run 0" % i
                    for i, r in enumerate(repeats[1:], 1)
                    if benchlib.deterministic_outputs(r) != first]
        attempted = sum(r["attempted"] for r in records) + len(repeats) - 1
        failed = sum(r["failed"] for r in records) + len(failures)
        result = {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {},
        }
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if args.trace else "end_to_end"]}
        for name, value in metrics.items():
            if name in units:
                result["metrics"][name] = {"value": value, "unit": units[name]}
        try:
            benchlib.check_result(result, spec, bool(args.trace))
        except benchlib.SchemaError as e:
            fail("result record rejected: %s" % e)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unit_ms = [u[1] for r in measured for u in r["units_ms"]]
    host = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "ocaml": records[0]["host"]["ocaml"],
        "rev": source_rev(),
        "calibration_s": records[0]["host"]["calibration_s"],
        "units": len(unit_ms),
        "tail_percentile": benchlib.TAIL_PERCENTILE[args.workload],
        "tail_beyond": benchlib.percentile(
            unit_ms, benchlib.TAIL_PERCENTILE[args.workload])[2],
        "info": measured[0]["info"],
        "failures": [f for r in records for f in r["failures"]] + failures,
        "wall_s": time.time() - started,
    }
    results = os.path.join(SCRATCH, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    with open(stem + ".json", "w") as f:
        json.dump({"host": host, "result": result, "raw": records}, f)
    if spans:
        with open(stem + ".spans.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        print_layer_table(args.workload, spans, records[-1]["counts"])
    print(json.dumps({"host": host}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
