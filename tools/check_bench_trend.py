#!/usr/bin/env python3
"""Bench-trend gate: compare freshly produced BENCH_*.json artifacts against
the snapshots committed at the repo root and fail on a >MAX_RATIO wall-time
(or throughput) regression.

Checked (see docs/BENCHMARKS.md for the schemas):

  * BENCH_micro_substrates.json — every ``*_speedup`` ratio must stay within
    MAX_RATIO of the committed value (ratios are same-machine measurements,
    so they transfer across hardware) and must be present in the fresh
    artifact, and ``deliver_n_scaling_cost_ratio`` must not grow past
    MAX_RATIO x the committed value.
  * BENCH_fig3_high_load.json — per-point ``wall_per_rep`` for every
    (dataset, i) present in both files must not exceed MAX_RATIO x the
    committed value.  Points faster than MIN_WALL seconds per rep are
    skipped as noise.
  * BENCH_shard_scaling.json — per-(series, shards) ``wall_per_rep`` under
    the same rule (series ``serial`` / ``inproc`` / ``pipe`` / ``socket``).
  * BENCH_ablation_faults.json — ``all_correct`` must be 1 for every row of
    both fault series (an invariant, not a trend), and per-scenario mean
    round counts must not grow past MAX_RATIO x the committed values when
    the fresh run used the same ``i`` and ``reps``.  Snapshots committed
    before the scenario layer carry no ``correlated`` series and are
    warn-skipped for that comparison.
  * BENCH_dynamic_inputs.json — ``speedup`` (incremental re-solve over
    from-scratch) must stay within MAX_RATIO of the committed value and
    must exceed 1x outright.
  * BENCH_large_n.json — per-(series, i) ``wall_per_rep`` for the
    ``low_load`` / ``high_load`` series under the MAX_RATIO x MIN_WALL
    rule, plus the peak-RSS telemetry the obs subsystem added: top-level
    ``peak_rss_bytes`` (the process VmHWM after the sweep) must not grow
    past MAX_RATIO x the committed value.  RSS below MIN_RSS_BYTES is
    allocator noise and skipped; snapshots committed before the obs
    subsystem carry no ``peak_rss_bytes`` and are warn-skipped for that
    comparison.  The process VmHWM is set by the larger point (low load at
    the CI flags), so each row's ``store_arena_bytes`` (the engine's slab
    reservation, deterministic per seed) must also not grow past MAX_RATIO
    x the committed row's value, and must be present in the fresh row when
    the committed row has it.
  * BENCH_service_qps.json — ``steady_qps`` and ``small_direct_speedup``
    must stay within MAX_RATIO of the committed values; the open-loop
    delivery fraction (``achieved_qps`` / ``target_qps``, which transfers
    across differing --qps smoke flags) under the same rule; ``p99_us``
    must not grow past MAX_RATIO x committed (gated only when the committed
    p99 is >= 1 ms, the latency analogue of MIN_WALL); and
    ``steady_state_allocs`` must not exceed the committed count at all —
    the zero-allocation serve path is an invariant, not a trend.

Absolute wall comparisons assume comparable hardware between the machine
that produced the committed snapshot and the machine running the gate;
MAX_RATIO (default 2.0, override with --max-ratio or the
LPT_BENCH_TREND_MAX_RATIO env var) is deliberately generous to absorb
runner variance while still catching real order-of-magnitude regressions.

A benchmark whose committed snapshot is missing (or unparseable) is
SKIPPED with a warning rather than failing the gate: a PR that introduces
a new bench would otherwise face a chicken-and-egg failure — the fresh
artifact exists in the working tree before any snapshot can be committed.
A missing *fresh* artifact fails for the required benches (the CI smoke
steps are expected to have produced them) but only warns for optional
ones.  Required-ness wins over the baseline skip: a required bench that
produced no fresh artifact exits 2 even when the committed snapshot is
also missing — otherwise a bench that silently stopped running (a renamed
binary, a dropped CI step) would warn-skip forever instead of failing.

Usage: check_bench_trend.py --baseline <repo root> --fresh <build dir>
Exit status: 0 ok, 1 regression, 2 missing required inputs.
"""

import argparse
import json
import os
import sys

MIN_WALL = 1e-2  # seconds per rep below which points are too noisy to gate
# (millisecond points on shared CI runners flap well past 2x from scheduler
# noise alone; 10 ms keeps only the points where a 2x move means something)

FIG3_SERIES = ["duo-disk", "triple-disk", "triangle", "hull"]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as err:
        print(f"[bench-trend] WARNING: {path} is not valid JSON ({err}) — "
              "treating as missing")
        return None


def check_micro(baseline, fresh, max_ratio, failures, checked):
    for key, base_value in baseline.items():
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue
        if key.endswith("speedup") or "_speedup_" in key:
            fresh_value = fresh.get(key)
            if not isinstance(fresh_value, (int, float)):
                # A committed ratio the fresh run no longer reports means
                # its row was renamed or dropped: the gate would go blind.
                failures.append(
                    f"micro_substrates {key}: committed {base_value:.2f}x "
                    "but missing from the fresh artifact"
                )
                continue
            checked.append(key)
            if fresh_value < base_value / max_ratio:
                failures.append(
                    f"micro_substrates {key}: {fresh_value:.2f}x vs committed "
                    f"{base_value:.2f}x (allowed >= {base_value / max_ratio:.2f}x)"
                )
    key = "deliver_n_scaling_cost_ratio"
    base_value, fresh_value = baseline.get(key), fresh.get(key)
    if isinstance(base_value, (int, float)) and isinstance(fresh_value, (int, float)):
        checked.append(key)
        if fresh_value > base_value * max_ratio:
            failures.append(
                f"micro_substrates {key}: {fresh_value:.2f} vs committed "
                f"{base_value:.2f} (allowed <= {base_value * max_ratio:.2f})"
            )


def check_fig3(baseline, fresh, max_ratio, failures, checked):
    for series in FIG3_SERIES:
        base_rows = {row["i"]: row for row in baseline.get(series, [])}
        for row in fresh.get(series, []):
            base_row = base_rows.get(row.get("i"))
            if base_row is None:
                continue
            base_wall = base_row.get("wall_per_rep")
            fresh_wall = row.get("wall_per_rep")
            if not isinstance(base_wall, (int, float)) or not isinstance(
                fresh_wall, (int, float)
            ):
                continue  # pre-PR-4 snapshot rows carry no per-point wall
            if base_wall < MIN_WALL:
                continue
            checked.append(f"fig3 {series} i={row['i']}")
            if fresh_wall > base_wall * max_ratio:
                failures.append(
                    f"fig3_high_load {series} i={row['i']}: "
                    f"{fresh_wall * 1e3:.1f} ms/rep vs committed "
                    f"{base_wall * 1e3:.1f} ms/rep "
                    f"(allowed <= {base_wall * max_ratio * 1e3:.1f})"
                )


def check_shard_scaling(baseline, fresh, max_ratio, failures, checked):
    # Snapshots committed before the socket transport (PR 8) have no
    # "socket" series — warn-skip so old baselines keep passing (the same
    # chicken-and-egg rule as a brand-new bench: the comparison starts
    # once a snapshot with the series is committed).
    if fresh.get("socket") and not baseline.get("socket"):
        print("[bench-trend] WARNING: committed BENCH_shard_scaling.json "
              "has no 'socket' series (pre-socket snapshot) — skipping "
              "the socket-transport comparison")
    for series in ["serial", "inproc", "pipe", "socket"]:
        base_rows = {(row.get("i"), row.get("shards", 0)): row
                     for row in baseline.get(series, [])}
        for row in fresh.get(series, []):
            base_row = base_rows.get((row.get("i"), row.get("shards", 0)))
            if base_row is None:
                continue
            base_wall = base_row.get("wall_per_rep")
            fresh_wall = row.get("wall_per_rep")
            if not isinstance(base_wall, (int, float)) or not isinstance(
                fresh_wall, (int, float)
            ):
                continue
            if base_wall < MIN_WALL:
                continue
            point = f"shard_scaling {series} shards={row.get('shards', 0)}"
            checked.append(point)
            if fresh_wall > base_wall * max_ratio:
                failures.append(
                    f"{point}: {fresh_wall * 1e3:.1f} ms/rep vs committed "
                    f"{base_wall * 1e3:.1f} ms/rep "
                    f"(allowed <= {base_wall * max_ratio * 1e3:.1f})"
                )

    # The kill-recovery fault column (PR 7): ``recovery_wall`` is the
    # wall_per_rep of a run that loses (and replaces) a worker mid-round.
    # Snapshots committed before the fault column simply have no "fault"
    # series — warn-skip so old baselines keep passing.
    if fresh.get("fault") and not baseline.get("fault"):
        print("[bench-trend] WARNING: committed BENCH_shard_scaling.json has "
              "no 'fault' series (pre-recovery snapshot) — skipping the "
              "kill-recovery comparison")
    base_rows = {
        (row.get("i"), row.get("shards", 0), row.get("transport", 0)): row
        for row in baseline.get("fault", [])
    }
    for row in fresh.get("fault", []):
        base_row = base_rows.get(
            (row.get("i"), row.get("shards", 0), row.get("transport", 0)))
        if base_row is None:
            continue
        base_wall = base_row.get("recovery_wall")
        fresh_wall = row.get("recovery_wall")
        if not isinstance(base_wall, (int, float)) or not isinstance(
            fresh_wall, (int, float)
        ):
            continue
        if base_wall < MIN_WALL:
            continue
        point = (f"shard_scaling fault shards={row.get('shards', 0)} "
                 f"transport={row.get('transport', 0)}")
        checked.append(point)
        if fresh_wall > base_wall * max_ratio:
            failures.append(
                f"{point}: recovery {fresh_wall * 1e3:.1f} ms/rep vs "
                f"committed {base_wall * 1e3:.1f} ms/rep "
                f"(allowed <= {base_wall * max_ratio * 1e3:.1f})"
            )


def check_ablation_faults(baseline, fresh, max_ratio, failures, checked):
    # Correctness is an invariant: every run of every fault scenario must
    # have found the verified optimum, no ratio slack, no baseline needed.
    for series in ["scenarios", "correlated"]:
        for row in fresh.get(series, []):
            scenario = row.get("scenario")
            point = f"ablation_faults {series}[{scenario}] all_correct"
            checked.append(point)
            if row.get("all_correct") != 1:
                failures.append(
                    f"{point}: a faulted run produced a wrong optimum"
                )

    # Round counts only transfer when the fresh run used the committed
    # instance size and repetition count.
    if (baseline.get("i") != fresh.get("i")
            or baseline.get("reps") != fresh.get("reps")):
        print("[bench-trend] WARNING: BENCH_ablation_faults.json fresh run "
              f"used i={fresh.get('i')} reps={fresh.get('reps')} vs committed "
              f"i={baseline.get('i')} reps={baseline.get('reps')} — skipping "
              "the round-count comparison")
        return
    # Snapshots committed before the scenario layer have no "correlated"
    # series — warn-skip that series (same chicken-and-egg rule as a new
    # bench) while still gating the i.i.d. "scenarios" series.
    if fresh.get("correlated") and not baseline.get("correlated"):
        print("[bench-trend] WARNING: committed BENCH_ablation_faults.json "
              "has no 'correlated' series (pre-scenario snapshot) — skipping "
              "the correlated-fault comparison")
    for series in ["scenarios", "correlated"]:
        base_rows = {row.get("scenario"): row
                     for row in baseline.get(series, [])}
        for row in fresh.get(series, []):
            base_row = base_rows.get(row.get("scenario"))
            if base_row is None:
                continue
            for key in ["low_mean_rounds", "high_mean_rounds"]:
                base_value, fresh_value = base_row.get(key), row.get(key)
                if not isinstance(base_value, (int, float)) or base_value <= 0:
                    continue
                if not isinstance(fresh_value, (int, float)):
                    continue
                point = (f"ablation_faults {series}[{row.get('scenario')}] "
                         f"{key}")
                checked.append(point)
                if fresh_value > base_value * max_ratio:
                    failures.append(
                        f"{point}: {fresh_value:.1f} rounds vs committed "
                        f"{base_value:.1f} "
                        f"(allowed <= {base_value * max_ratio:.1f})"
                    )


def check_dynamic_inputs(baseline, fresh, max_ratio, failures, checked):
    fresh_speedup = fresh.get("speedup")
    if isinstance(fresh_speedup, (int, float)):
        # The incremental path beating from-scratch is an invariant of the
        # dynamic-input scenario, gated against 1x regardless of baseline.
        checked.append("dynamic_inputs speedup > 1x")
        if fresh_speedup <= 1.0:
            failures.append(
                f"dynamic_inputs speedup: {fresh_speedup:.2f}x — the "
                "incremental re-solve no longer beats from-scratch"
            )
    base_speedup = baseline.get("speedup")
    if (isinstance(base_speedup, (int, float)) and base_speedup > 0
            and isinstance(fresh_speedup, (int, float))):
        checked.append("dynamic_inputs speedup")
        if fresh_speedup < base_speedup / max_ratio:
            failures.append(
                f"dynamic_inputs speedup: {fresh_speedup:.2f}x vs committed "
                f"{base_speedup:.2f}x "
                f"(allowed >= {base_speedup / max_ratio:.2f}x)"
            )


MIN_RSS_BYTES = 32 * 1024 * 1024  # peak RSS below 32 MiB is dominated by
# allocator / runtime baseline, not the workload — too noisy to gate


def check_large_n_arena(series, base_row, row, max_ratio, failures, checked):
    """One (series, i) row's store arena against the committed row's."""
    base_arena = base_row.get("store_arena_bytes")
    if not isinstance(base_arena, (int, float)) or base_arena <= 0:
        return  # committed before the per-row arena existed
    point = f"large_n {series} i={row.get('i')} store_arena_bytes"
    fresh_arena = row.get("store_arena_bytes")
    if not isinstance(fresh_arena, (int, float)):
        failures.append(f"{point}: committed {base_arena:.0f} but missing "
                        "from the fresh artifact")
        return
    checked.append(point)
    if fresh_arena > base_arena * max_ratio:
        failures.append(
            f"{point}: {fresh_arena / 2**20:.2f} MiB vs committed "
            f"{base_arena / 2**20:.2f} MiB "
            f"(allowed <= {base_arena * max_ratio / 2**20:.2f})"
        )


def check_large_n(baseline, fresh, max_ratio, failures, checked):
    for series in ["low_load", "high_load"]:
        base_rows = {row.get("i"): row for row in baseline.get(series, [])}
        for row in fresh.get(series, []):
            base_row = base_rows.get(row.get("i"))
            if base_row is None:
                continue
            check_large_n_arena(series, base_row, row, max_ratio, failures,
                                checked)
            base_wall = base_row.get("wall_per_rep")
            fresh_wall = row.get("wall_per_rep")
            if not isinstance(base_wall, (int, float)) or not isinstance(
                fresh_wall, (int, float)
            ):
                continue
            if base_wall < MIN_WALL:
                continue
            point = f"large_n {series} i={row.get('i')}"
            checked.append(point)
            if fresh_wall > base_wall * max_ratio:
                failures.append(
                    f"{point}: {fresh_wall * 1e3:.1f} ms/rep vs committed "
                    f"{base_wall * 1e3:.1f} ms/rep "
                    f"(allowed <= {base_wall * max_ratio * 1e3:.1f})"
                )

    # Memory telemetry (obs subsystem): the sweep's peak RSS must not blow
    # up.  Snapshots committed before the obs subsystem carry no
    # peak_rss_bytes — warn-skip, same chicken-and-egg rule as a new bench.
    base_rss, fresh_rss = (baseline.get("peak_rss_bytes"),
                           fresh.get("peak_rss_bytes"))
    if isinstance(fresh_rss, (int, float)) and not isinstance(
        base_rss, (int, float)
    ):
        print("[bench-trend] WARNING: committed BENCH_large_n.json has no "
              "peak_rss_bytes (pre-obs snapshot) — skipping the peak-RSS "
              "comparison")
    elif (isinstance(base_rss, (int, float)) and base_rss >= MIN_RSS_BYTES
            and isinstance(fresh_rss, (int, float)) and fresh_rss > 0):
        checked.append("large_n peak_rss_bytes")
        if fresh_rss > base_rss * max_ratio:
            failures.append(
                f"large_n peak_rss_bytes: {fresh_rss / 2**20:.1f} MiB vs "
                f"committed {base_rss / 2**20:.1f} MiB "
                f"(allowed <= {base_rss * max_ratio / 2**20:.1f})"
            )


MIN_LATENCY_US = 1e3  # p99 below 1 ms is scheduler noise on shared runners


def check_service_qps(baseline, fresh, max_ratio, failures, checked):
    # Throughput-like scalars: lower fresh value is a regression.
    for key in ["steady_qps", "small_direct_speedup"]:
        base_value, fresh_value = baseline.get(key), fresh.get(key)
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue
        if not isinstance(fresh_value, (int, float)):
            continue
        checked.append(f"service_qps {key}")
        if fresh_value < base_value / max_ratio:
            failures.append(
                f"service_qps {key}: {fresh_value:.2f} vs committed "
                f"{base_value:.2f} (allowed >= {base_value / max_ratio:.2f})"
            )

    # Open-loop delivery fraction: achieved/target transfers across smoke
    # runs with different --qps flags, raw achieved_qps does not.
    def fraction(doc):
        achieved, target = doc.get("achieved_qps"), doc.get("target_qps")
        if not isinstance(achieved, (int, float)):
            return None
        if not isinstance(target, (int, float)) or target <= 0:
            return None
        return achieved / target

    base_frac, fresh_frac = fraction(baseline), fraction(fresh)
    if base_frac is not None and base_frac > 0 and fresh_frac is not None:
        checked.append("service_qps open_loop_delivery")
        if fresh_frac < base_frac / max_ratio:
            failures.append(
                f"service_qps open-loop delivery: {fresh_frac:.2f} of target "
                f"vs committed {base_frac:.2f} "
                f"(allowed >= {base_frac / max_ratio:.2f})"
            )

    # Tail latency: higher fresh value is a regression (only gated once the
    # committed tail is big enough to mean something).
    base_p99, fresh_p99 = baseline.get("p99_us"), fresh.get("p99_us")
    if (isinstance(base_p99, (int, float)) and base_p99 >= MIN_LATENCY_US
            and isinstance(fresh_p99, (int, float))):
        checked.append("service_qps p99_us")
        if fresh_p99 > base_p99 * max_ratio:
            failures.append(
                f"service_qps p99_us: {fresh_p99:.0f} us vs committed "
                f"{base_p99:.0f} us (allowed <= {base_p99 * max_ratio:.0f})"
            )

    # The zero-allocation serve path is an invariant: any count above the
    # committed snapshot fails outright, no ratio slack.
    base_allocs, fresh_allocs = (baseline.get("steady_state_allocs"),
                                 fresh.get("steady_state_allocs"))
    if isinstance(base_allocs, (int, float)) and isinstance(
        fresh_allocs, (int, float)
    ):
        checked.append("service_qps steady_state_allocs")
        if fresh_allocs > base_allocs:
            failures.append(
                f"service_qps steady_state_allocs: {fresh_allocs:.0f} vs "
                f"committed {base_allocs:.0f} (the serve path must stay "
                "allocation-free)"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--fresh", required=True,
                        help="directory holding the freshly produced BENCH_*.json")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=float(os.environ.get("LPT_BENCH_TREND_MAX_RATIO", "2.0")),
    )
    args = parser.parse_args()

    failures, checked = [], []
    any_input = False
    for name, checker, required in [
        ("micro_substrates", check_micro, True),
        ("fig3_high_load", check_fig3, True),
        ("shard_scaling", check_shard_scaling, False),
        ("ablation_faults", check_ablation_faults, True),
        ("dynamic_inputs", check_dynamic_inputs, True),
        ("large_n", check_large_n, True),
        ("service_qps", check_service_qps, True),
    ]:
        baseline = load(os.path.join(args.baseline, f"BENCH_{name}.json"))
        fresh = load(os.path.join(args.fresh, f"BENCH_{name}.json"))
        if fresh is None and required:
            # Required-ness wins over the baseline skip below: a required
            # bench that produced no fresh artifact means the CI smoke step
            # did not run it, and that must fail even when no snapshot is
            # committed yet.
            print(f"[bench-trend] fresh BENCH_{name}.json missing in "
                  f"{args.fresh} — did the bench run?")
            return 2
        if baseline is None:
            # New-bench chicken-and-egg: a fresh artifact in the working
            # tree with no committed snapshot yet must not fail the gate.
            print(f"[bench-trend] WARNING: no committed BENCH_{name}.json — "
                  "skipping (commit a snapshot to enable this gate)")
            continue
        if fresh is None:
            print(f"[bench-trend] WARNING: fresh BENCH_{name}.json missing "
                  f"in {args.fresh} — skipping optional bench")
            continue
        any_input = True
        checker(baseline, fresh, args.max_ratio, failures, checked)

    print(f"[bench-trend] {len(checked)} comparison(s), "
          f"max allowed regression {args.max_ratio:.1f}x")
    if not any_input:
        print("[bench-trend] nothing to compare")
        return 2
    if failures:
        for failure in failures:
            print(f"[bench-trend] REGRESSION: {failure}")
        return 1
    print("[bench-trend] ok — no wall-time regression past the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
