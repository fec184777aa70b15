"""Helpers of the benchmark runner: the contract's schema checks, the
percentile and self-time computations, and the metric definitions.

Standard library only, so the runner works on any Python 3.8+.
"""

import json
import math
import re
import statistics

# AVR clock of the simulated motes (Avr.Cycles.clock_hz).
CLOCK_HZ = 7_372_800

# The tail percentile of each workload, fixed so that it compares across
# runs (see BENCHMARK.json's "why" lines): the highest of p90/p99 that a
# normal run leaves at least ten samples beyond, except campaign, whose
# p99 is set by host scheduling noise on two domains (see README.md).
TAIL_PERCENTILE = {"multitask": 90, "fleet": 90, "campaign": 90, "firmware": 99}

# Job kinds of the service load-test mix.
JOB_KINDS = ("attack", "bench", "bisect", "campaign", "fleet")

# Library calls the measuring program wraps in spans, and the per-layer time metric
# each one feeds (the span's self time, summed).
SPAN_METRICS = {
    "asm.assemble": "asm.assemble_s",
    "minic.compile": "minic.compile_s",
    "loader.of_hex": "loader.of_hex_s",
    "rewriter.pipeline": "rewriter.pipeline_s",
    "rewriter.recovery": "rewriter.recovery_s",
    "kernel.prepare": "kernel.prepare_s",
    "kernel.boot": "kernel.boot_s",
    "kernel.run": "kernel.run_s",
    "machine.native_run": "machine.native_run_s",
    "machine.aot.preload": "machine.aot.preload_s",
    "net.create": "net.create_s",
    "net.run": "net.run_s",
    "snapshot.capture": "snapshot.capture_s",
    "snapshot.encode": "snapshot.encode_s",
    "snapshot.decode": "snapshot.decode_s",
    "snapshot.restore": "snapshot.restore_s",
    "service.serve": "service.serve_s",
}

# Counts the measuring program records itself, reported as they are.
COUNT_METRICS = (
    "machine.insns", "machine.active_cycles", "machine.idle_cycles",
    "machine.mem_accesses", "kernel.traps", "kernel.context_switches",
    "kernel.relocations", "kernel.relocated_bytes", "kernel.grow_requests",
    "kernel.preempt_delay_max", "rewriter.insns_patched",
    "rewriter.trampolines", "rewriter.bytes_inflated", "loader.hex_bytes",
    "machine.aot.compile_s", "machine.aot.compiles", "machine.aot.cache_hits",
    "net.quanta", "net.routed", "net.dropped", "snapshot.bytes",
    "service.job_busy_s", "service.idle_share", "service.stolen",
    "service.dedup_hits", "service.retried",
)

# End-to-end metrics whose traced-versus-untraced difference is
# reported as the tracing overhead.
OVERHEAD_OF = ("setup_s", "sim_mips", "sim_speed_x", "unit_p50_ms",
               "unit_tail_ms", "jobs_per_s", "peak_rss_mb")


# ---------------------------------------------------------------------
# Statistics.

def percentile(values, q):
    """Nearest-rank percentile of [values] at [q] (0 < q <= 100).

    Returns (value, n, beyond): the sample at rank ceil(q/100 * n), the
    sample count, and how many samples lie strictly above that rank.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    n = len(ordered)
    rank = min(n, max(1, math.ceil(q / 100.0 * n)))
    return ordered[rank - 1], n, n - rank


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of [intervals]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.  [spans] are dicts with id,
    start, end and parent; returns {id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def layer_table(spans):
    """Per span name: (calls, self seconds), sorted by self time."""
    selfs = self_times(spans)
    rows = {}
    for s in spans:
        calls, secs = rows.get(s["name"], (0, 0.0))
        rows[s["name"]] = (calls + 1, secs + selfs[s["id"]])
    return sorted(rows.items(), key=lambda kv: -kv[1][1])


# ---------------------------------------------------------------------
# The processes of an untraced run.

def schedule(setups, slices):
    """The processes of an untraced run, in order, as (cold, measures)
    pairs: [setups] cold ones, each setting up from an empty tier-2
    cache, and [slices] that measure.  With no more slices than set-ups,
    the last set-up measures, and with more than one slice the first and
    evenly spaced ones too; with more slices than set-ups, every set-up
    measures and is followed by its share of warm processes, which
    reuse its cache and only measure."""
    if slices <= setups:
        chosen = {setups - 1 - i * (setups - 1) // max(1, slices - 1)
                  for i in range(slices)}
        return [(True, i in chosen) for i in range(setups)]
    steps = []
    extra = slices - setups
    for i in range(setups):
        steps.append((True, True))
        steps += [(False, True)] * (extra * (i + 1) // setups
                                    - extra * i // setups)
    return steps


# ---------------------------------------------------------------------
# Metrics from the measuring program's raw records.

def end_to_end(raws, setup_samples):
    """The end-to-end metrics of the measured run records of one seed,
    taken together.

    Rates are the work of the run's complete rounds (a pass through the
    units, a serve, a checkpoint interval) over their wall time, so a
    trailing partial round with a different mix of units does not move
    them.  The service hides simulated work inside its jobs, so
    campaign's simulation rates are the work job payloads report over
    the wall time of those same jobs."""
    first = raws[0]
    unit_rows = [u for r in raws for u in r["units_ms"]]
    units = [u[1] for u in unit_rows]
    tail, _, _ = percentile(units, TAIL_PERCENTILE[first["workload"]])
    rounds = [x for r in raws for x in r["rounds"]]
    round_wall = sum(r[1] for r in rounds)
    if first["workload"] == "campaign":
        def rate(col):
            busy = sum(u[1] for u in unit_rows if u[col]) / 1000.0
            return sum(u[col] for u in unit_rows) / busy
        insns_per_s, cycles_per_s = rate(2), rate(3)
    else:
        insns_per_s = sum(r[2] for r in rounds) / round_wall
        cycles_per_s = sum(r[3] for r in rounds) / round_wall
    return {
        "setup_s": statistics.median(setup_samples),
        "sim_mips": insns_per_s / 1e6,
        "sim_speed_x": cycles_per_s / CLOCK_HZ,
        "unit_p50_ms": statistics.median(units),
        "unit_tail_ms": tail,
        "jobs_per_s": sum(r[0] for r in rounds) / round_wall,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in raws) / 1024.0,
        "code_inflation_permille":
            1000.0 * first["naturalized_bytes"] / first["native_bytes"],
        "kernel_overhead_permille":
            1000.0 * first["kernel_cycles"] / first["native_cycles"],
    }


def deterministic_outputs(raw):
    """What every run of one seed must reproduce exactly, however fast
    the host: the paper-axis byte and cycle totals, the kernel,
    machine.insns and rewriter counts, and the campaign digest."""
    counts = {k: v for k, v in raw["counts"].items()
              if k.startswith(("kernel.", "rewriter.")) or k == "machine.insns"}
    return (raw["native_bytes"], raw["naturalized_bytes"],
            raw["kernel_cycles"], raw["native_cycles"], counts,
            raw["info"].get("campaign_digest"))


def per_layer(traced, spans, untraced):
    """The per-layer metrics of a traced run record and its spans, with
    the tracing overhead measured against an untraced run of the same
    seed and length."""
    out = {}
    for name in SPAN_METRICS.values():
        out[name] = 0.0
    selfs = self_times(spans)
    for s in spans:
        metric = SPAN_METRICS.get(s["name"])
        if metric:
            out[metric] += selfs[s["id"]]
    counts = traced["counts"]
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    grow = counts.get("kernel.grow_requests", 0)
    out["kernel.relocation_yield"] = (
        counts.get("kernel.relocations", 0) / grow if grow else 0.0)
    by_kind = {}
    for unit in traced["units_ms"]:
        by_kind.setdefault(unit[0], []).append(unit[1])
    for kind in JOB_KINDS:
        samples = by_kind.get(kind) if traced["workload"] == "campaign" else None
        out["service.job_p50_ms." + kind] = (
            statistics.median(samples) if samples else 0.0)
    gc = traced["gc"]
    out["gc.minor_collections"] = gc["minor_collections"]
    out["gc.major_collections"] = gc["major_collections"]
    out["gc.promoted_mw"] = gc["promoted_words"] / 1e6
    out["gc.top_heap_mb"] = gc["top_heap_words"] * 8 / 1048576.0
    out["trace.spans"] = len(spans)
    with_spans = end_to_end([traced], [traced["setup_s"]])
    without = end_to_end([untraced], [untraced["setup_s"]])
    for name in OVERHEAD_OF:
        base = without[name]
        out["trace.overhead_pct." + name] = (
            100.0 * (with_spans[name] - base) / base if base else 0.0)
    return out


# ---------------------------------------------------------------------
# The contract's schema.

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads",
                  "end_to_end", "per_layer"}


class SchemaError(Exception):
    """A deviation from the contract, naming the offending field."""


def _require(cond, field, why):
    if not cond:
        raise SchemaError("%s: %s" % (field, why))


def _exact_keys(obj, keys, field):
    _require(isinstance(obj, dict), field, "not an object")
    _require(set(obj) == set(keys), field,
             "keys %s, expected exactly %s" % (sorted(obj), sorted(keys)))


def check_benchmark(spec, size=0):
    """Validate a parsed BENCHMARK.json; raise SchemaError naming the
    first offending field."""
    _require(size <= 64 * 1024, "BENCHMARK.json", "larger than 64 KiB")
    _exact_keys(spec, BENCHMARK_KEYS, "BENCHMARK.json")
    cmd = spec["command"]
    _require(isinstance(cmd, list) and 1 <= len(cmd) <= 32, "command",
             "must be a list of 1 to 32 strings")
    for i, arg in enumerate(cmd):
        field = "command[%d]" % i
        _require(isinstance(arg, str) and 0 < len(arg) <= 200, field,
                 "must be a string of 1 to 200 characters")
        _require(not arg.startswith("/") and ".." not in arg.split("/"),
                 field, "must not leave the repository")
    paths = spec["paths"]
    _require(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths",
             "must be a list of 1 to 16 directories")
    for i, p in enumerate(paths):
        field = "paths[%d]" % i
        _require(isinstance(p, str) and PATH_RE.match(p) is not None, field,
                 "bad characters or length")
        _require(not p.startswith("/") and ".." not in p.split("/"), field,
                 "must be relative and stay inside the repository")
    rs = spec["run_seconds"]
    _require(isinstance(rs, int) and not isinstance(rs, bool)
             and 1 <= rs <= 60, "run_seconds", "must be an integer 1..60")
    wls = spec["workloads"]
    _require(isinstance(wls, list) and 2 <= len(wls) <= 8, "workloads",
             "must list 2 to 8 workloads")
    seen = set()
    for i, w in enumerate(wls):
        field = "workloads[%d]" % i
        _exact_keys(w, ("name", "why"), field)
        _check_name(w["name"], field, seen)
        why = w["why"]
        _require(isinstance(why, str) and 0 < len(why) <= 200
                 and "\n" not in why, field + ".why",
                 "must be one line of 1 to 200 characters")
    metric_names = set()
    e2e = spec["end_to_end"]
    _require(isinstance(e2e, list) and 1 <= len(e2e) <= 16, "end_to_end",
             "must list 1 to 16 metrics")
    for i, m in enumerate(e2e):
        field = "end_to_end[%d]" % i
        _exact_keys(m, ("name", "unit", "better", "bound"), field)
        _check_metric(m, field, metric_names)
        b = m["bound"]
        _require(isinstance(b, (int, float)) and not isinstance(b, bool)
                 and 0 < b <= 0.25, field + ".bound", "must be in (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    _require(len(setup) == 1 and setup[0]["unit"] == "s"
             and setup[0]["better"] == "lower", "end_to_end",
             "needs setup_s in s, lower is better")
    layers = spec["per_layer"]
    _require(isinstance(layers, list) and 1 <= len(layers) <= 128,
             "per_layer", "must list 1 to 128 metrics")
    for i, m in enumerate(layers):
        field = "per_layer[%d]" % i
        _exact_keys(m, ("name", "unit", "better"), field)
        _check_metric(m, field, metric_names)


def _check_name(name, field, seen):
    _require(isinstance(name, str) and NAME_RE.match(name) is not None,
             field + ".name", "bad name %r" % (name,))
    _require(name not in seen, field + ".name", "%r used twice" % name)
    seen.add(name)


def _check_metric(m, field, seen):
    _check_name(m["name"], field, seen)
    _require(isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])
             is not None, field + ".unit", "bad unit %r" % (m["unit"],))
    _require(m["better"] in ("lower", "higher"), field + ".better",
             "must be lower or higher")


def check_result(result, spec, traced):
    """Validate one result record against BENCHMARK.json: the exact key
    set, whole-number counts, and exactly the contract's metrics, each
    one finite value in its declared unit."""
    _exact_keys(result, ("correct", "attempted", "failed", "metrics"),
                "result")
    _require(isinstance(result["correct"], bool), "result.correct",
             "must be a boolean")
    for key in ("attempted", "failed"):
        v = result[key]
        _require(isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                 "result." + key, "must be a whole number")
    _require(result["attempted"] >= 1, "result.attempted", "must be >= 1")
    _require(result["failed"] <= result["attempted"], "result.failed",
             "exceeds attempted")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if traced else "end_to_end"]}
    metrics = result["metrics"]
    _require(isinstance(metrics, dict), "result.metrics", "not an object")
    missing = sorted(set(wanted) - set(metrics))
    extra = sorted(set(metrics) - set(wanted))
    _require(not missing, "result.metrics", "missing %s" % missing)
    _require(not extra, "result.metrics", "undeclared %s" % extra)
    for name, entry in metrics.items():
        field = "result.metrics." + name
        _exact_keys(entry, ("value", "unit"), field)
        v = entry["value"]
        _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and math.isfinite(v), field + ".value",
                 "must be a finite number")
        _require(entry["unit"] == wanted[name], field + ".unit",
                 "is %r, declared %r" % (entry["unit"], wanted[name]))


def load_benchmark(path):
    with open(path, "rb") as f:
        data = f.read()
    try:
        spec = json.loads(data)
    except ValueError as e:
        raise SchemaError("BENCHMARK.json: not JSON (%s)" % e)
    check_benchmark(spec, len(data))
    return spec
