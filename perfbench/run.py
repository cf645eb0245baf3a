#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ (the lpt_perfbench program plus the
library layers it links), runs one workload in its own process, checks the
answers, and prints every metric by name with its unit.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Usage (from the repository root):

    python3 perfbench/run.py --workload lowload-n15 --seed 1 --seconds 20 \
        --trace 0

--trace 0 runs untraced and reports the end-to-end metrics of
BENCHMARK.json; --trace 1 runs the traced pass and reports the per-layer
metrics.  The trace is validated with tools/trace_summary.py, and the
per-layer span metrics (self times, stage-A split, frame and epoch costs)
are computed here from the same trace.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lowload-n15", "highload-n15", "service-open", "shard-socket")
RUN_TIMEOUT_S = 170

# Per-layer metrics a workload does not exercise; they report 0.
NOT_EXERCISED = {
    "lowload-n15": ("shard.", "service.", "svc_"),
    "highload-n15": ("shard.", "service.", "svc_", "core.stage_a_ms",
                     "core.outside_stage_a_ms"),
    "shard-socket": ("service.", "svc_"),
    "service-open": ("shard.", "gossip."),
}
# Spans each workload's trace must contain.
REQUIRED_SPANS = {
    "lowload-n15": ["low_load.round", "low_load.stage_a.chunk"],
    "highload-n15": ["high_load.round"],
    "shard-socket": ["low_load.round", "shard.frame_send", "shard.frame_recv",
                     "shard.recovery_respawn"],
    "service-open": ["service.epoch", "service.epoch_admit",
                     "service.epoch_serve", "low_load.round"],
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(f"error: {msg}")
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then an incremental build; returns the binary path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"repository sources missing ({need} not found next to "
                f"perfbench/); nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as logf:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "4",
                      "--target", "lpt_perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(out, "lpt_perfbench")


def source_digest():
    """sha256 over the repository's sources: provenance where git is absent."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


# --- Trace analysis ---------------------------------------------------------

def summary_tool(trace_path, required):
    """Run tools/trace_summary.py; returns ({name: (count, total_us)}, ok)."""
    cmd = [sys.executable, os.path.join(ROOT, "tools", "trace_summary.py"),
           trace_path]
    for r in required:
        cmd += ["--require", r]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        log(f"trace_summary.py rejected the trace: {r.stderr.strip()}")
        return {}, False
    table = {}
    for line in r.stdout.splitlines():
        m = re.match(r"^\s+(\d+)\s+(\S+)(?:\s+span_total=([0-9.]+)us)?$", line)
        if m:
            table[m.group(2)] = (int(m.group(1)),
                                 float(m.group(3)) if m.group(3) else None)
    return table, True


def analyse_trace(trace_path, workload):
    """Per-layer span metrics plus a cross-check against the summary tool."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    by_name = defaultdict(list)
    for e in events:
        by_name[e["name"]].append(e)

    table, ok = summary_tool(trace_path, REQUIRED_SPANS[workload])
    if ok:
        for name, evs in by_name.items():
            count, total = table.get(name, (None, None))
            mine = sum(e.get("dur", 0.0) for e in evs)
            if count != len(evs) or (total is not None and
                                     abs(total - mine) > 0.05 + 1e-9 * mine):
                log(f"trace cross-check failed for {name}: summary "
                    f"{count}/{total} vs {len(evs)}/{mine:.1f}")
                ok = False

    # Self time: a span's duration minus the part its direct children on
    # the same thread cover (spans nest per thread; the writer sorts by
    # start, parents first).
    self_us = {}
    stack = defaultdict(list)
    for e in spans:
        st = stack[e["tid"]]
        while st and st[-1]["ts"] + st[-1]["dur"] <= e["ts"]:
            st.pop()
        if st:
            self_us[id(st[-1])] -= e["dur"]
        self_us[id(e)] = e["dur"]
        st.append(e)

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    m = {}
    rounds = by_name.get("low_load.round") or by_name.get("high_load.round", [])
    m["core.round_ms"] = mean([r["dur"] for r in rounds]) / 1e3

    # Stage A inside each round: the extent of the round's stage-A chunk
    # spans (any thread), or on the sharded path of its frame exchange.
    inner = by_name.get("low_load.stage_a.chunk", [])
    if workload == "shard-socket":
        inner = by_name.get("shard.frame_send", []) + \
            by_name.get("shard.frame_recv", [])
    if inner:
        inner = sorted(inner, key=lambda e: e["ts"])
        stage_a, outside = [], []
        j = 0
        for r in sorted(rounds, key=lambda e: e["ts"]):
            lo, hi = r["ts"], r["ts"] + r["dur"]
            while j < len(inner) and inner[j]["ts"] < lo:
                j += 1
            k, first, last = j, None, None
            while k < len(inner) and inner[k]["ts"] <= hi:
                end = inner[k]["ts"] + inner[k].get("dur", 0.0)
                first = inner[k]["ts"] if first is None else first
                last = end if last is None else max(last, end)
                k += 1
            a = (last - first) if first is not None else 0.0
            stage_a.append(a)
            outside.append(r["dur"] - a)
        m["core.stage_a_ms"] = mean(stage_a) / 1e3
        m["core.outside_stage_a_ms"] = mean(outside) / 1e3

    if workload == "shard-socket" and rounds:
        recv = by_name.get("shard.frame_recv", [])
        m["shard.frame_recv_ms_per_round"] = \
            sum(e["dur"] for e in recv) / len(rounds) / 1e3
        m["shard.frames_per_round"] = \
            len(by_name.get("shard.frame_send", [])) / len(rounds)

    if workload == "service-open":
        admit = by_name.get("service.epoch_admit", [])
        serve = by_name.get("service.epoch_serve", [])
        epochs = by_name.get("service.epoch", [])
        m["service.admit_us"] = mean([e["dur"] for e in admit])
        served = sum(e["args"]["v"] for e in serve)
        m["service.serve_us_per_query"] = \
            sum(e["dur"] for e in serve) / served if served else 0.0
        m["service.account_us"] = mean([self_us[id(e)] for e in epochs])
    return m, ok


# --- Main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = build()

    trace_path = os.path.join(build_dir(), f"trace_{args.workload}.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_path]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die(f"lpt_perfbench exited with {r.returncode}")
    out = json.loads(lines[-1])

    attempted, failed = out["attempted"], out["failed"]
    layer = {k: v["value"] for k, v in out["layer"].items()}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    units.update({k: v["unit"] for k, v in out["layer"].items()})
    if args.trace:
        trace_metrics, trace_ok = analyse_trace(trace_path, args.workload)
        attempted += 1
        failed += 0 if trace_ok else 1
        layer.update(trace_metrics)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else \
        {k: v["value"] for k, v in out["e2e"].items()}
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in source:
            value = source[name]
        elif args.trace and name.startswith(NOT_EXERCISED[args.workload]):
            value = 0.0
        else:
            die(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}

    # Human-readable report: every metric measured, with its unit.
    prov = dict(out["provenance"], git_sha=git_sha(),
                source_sha256=source_digest())
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print("provenance " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    rows = [(k, v["value"], v["unit"], "end-to-end")
            for k, v in out["e2e"].items()]
    rows += [(k, v, units.get(k, ""), "per-layer") for k, v in layer.items()]
    rows += [(k, v["value"], v["unit"], "info")
             for k, v in out["info"].items()]
    rows.append(("failed_frac", failed / attempted if attempted else 1.0,
                 "ratio", "end-to-end"))
    for name, value, unit, kind in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<6} {kind}")
    for e in out["errors"]:
        print(f"  error: {e}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
