// LARGE-N — the scaling-regime driver: single big sweep points (default
// n = 2^20 nodes for the low-load engine) where the paper's asymptotic
// guarantees become visible and where, before the slab-backed NodeStore and
// sparse active-node tracking, the per-round O(n) bookkeeping loops
// (stage-B replay scan, filter pass, store-header walks, delivery walks)
// dominated wall time.
//
// For each engine the driver reports wall time, rounds, |H(V)| growth, and
// the sparse-bookkeeping counters (DistributedRunStats): total bookkeeping
// node-touches across the run and the final round's touches, against the
// rounds * n floor the pre-slab engines paid.  Writes BENCH_large_n.json.
//
// Usage: large_n [--i=20] [--ihigh=16] [--reps=1] [--dataset=duo-disk]
//                [--engine=both|low|high] [--parallel-nodes=1]
//                [--shards=0] [--shard-transport=inproc|pipe|socket]
//
// --i sizes the low-load point (n = 2^i nodes on n points; memory stays
// O(n) thanks to filtering).  --ihigh sizes the high-load point separately:
// high load grows |H(V)| by O(d n log n) per round with no filtering, so
// memory — not time — caps its practical size.  --shards routes the
// low-load point's stage-A compute through the shard runtime (bit-identical
// results; the high-load engine has no shard path yet and ignores it).
//
// Each row also reports `store_arena_bytes`, the engine's slab-store
// reservation (the engine.<name>.store_arena_bytes gauge, largest over the
// reps).  The process-wide peak RSS is set by whichever point is larger,
// so the per-row arena is what lets the trend gate see a high-load memory
// regression at the CI flags.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "common.hpp"
#include "core/high_load.hpp"
#include "core/low_load.hpp"
#include "obs/obs.hpp"
#include "problems/min_disk.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/disk_data.hpp"

int main(int argc, char** argv) {
  using namespace lpt;
  util::Cli cli(argc, argv);
  const auto i_low = static_cast<std::size_t>(cli.get_int("i", 20));
  const auto i_high = static_cast<std::size_t>(cli.get_int("ihigh", 16));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 1));
  const auto parallel_nodes =
      static_cast<std::size_t>(cli.get_int("parallel-nodes", 1));
  const auto shard_cfg = bench::shard_flags(cli);
  const std::string engine = cli.get("engine", "both");
  const auto dataset = bench::dataset_flag(cli);

  bench::banner("Large-n engine: slab store + sparse active-node tracking",
                "n = 2^i sweep points beyond the Figure 2/3 range");

  problems::MinDisk p;
  util::Table table({"engine", "i", "n", "rounds", "wall s", "elems max",
                     "bk total", "bk last", "bk/(rounds*n)"});
  bench::WallTimer wall;
  bench::BenchJson json("large_n");

  auto run_point = [&](const char* name, std::size_t i, auto run_one) {
    const std::size_t n = std::size_t{1} << i;
    util::RunningStat rounds_stat;
    double point_secs = 0.0;
    const obs::Gauge& arena_gauge =
        obs::gauge(std::string("engine.") + name + ".store_arena_bytes");
    std::int64_t arena_bytes = 0;
    core::DistributedRunStats last_stats;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::uint64_t seed = 1 + rep * 7919;
      util::Rng data_rng(seed * 31 + i);
      const auto pts = workloads::generate_disk_dataset(dataset, n, data_rng);
      bench::WallTimer t;
      last_stats = run_one(pts, n, seed);
      point_secs += t.seconds();
      arena_bytes = std::max(arena_bytes, arena_gauge.get());
      LPT_CHECK_MSG(last_stats.reached_optimum, "run failed to converge");
      rounds_stat.add(static_cast<double>(last_stats.rounds_to_first));
    }
    const double per_rep = point_secs / static_cast<double>(reps);
    // Peak RSS right after the point: VmHWM is a process-lifetime high
    // water mark, so per-point readings are monotone across points — the
    // trend gate compares matching (series, i) rows, where monotonicity
    // only ever over-reports earlier, smaller points (conservative).
    const auto mem = obs::sample_memory();
    const double floor_ratio =
        static_cast<double>(last_stats.bookkeeping_touches_total) /
        (static_cast<double>(last_stats.rounds_to_first) *
         static_cast<double>(n));
    table.add_row({name, util::fmt(i), util::fmt(n),
                   util::fmt(rounds_stat.mean(), 2), util::fmt(per_rep, 2),
                   util::fmt(last_stats.max_total_elements),
                   util::fmt(static_cast<std::uint64_t>(
                       last_stats.bookkeeping_touches_total)),
                   util::fmt(last_stats.last_round_bookkeeping_touches),
                   util::fmt(floor_ratio, 3)});
    json.add_row(
        name,
        {{"i", static_cast<double>(i)},
         {"n", static_cast<double>(n)},
         {"mean_rounds", rounds_stat.mean()},
         {"wall_per_rep", per_rep},
         {"max_total_elements",
          static_cast<double>(last_stats.max_total_elements)},
         {"bookkeeping_touches_total",
          static_cast<double>(last_stats.bookkeeping_touches_total)},
         {"last_round_bookkeeping_touches",
          static_cast<double>(last_stats.last_round_bookkeeping_touches)},
         {"bookkeeping_per_round_vs_n", floor_ratio},
         {"peak_rss_bytes",
          mem.ok ? static_cast<double>(mem.vm_hwm_bytes) : 0.0},
         {"store_arena_bytes", static_cast<double>(arena_bytes)}});
  };

  if (engine == "both" || engine == "low") {
    run_point("low_load", i_low,
              [&](std::span<const geom::Vec2> pts, std::size_t n,
                  std::uint64_t seed) {
                core::LowLoadConfig cfg;
                cfg.seed = seed;
                cfg.parallel_nodes = parallel_nodes;
                cfg.shard = shard_cfg;
                return core::run_low_load(p, pts, n, cfg).stats;
              });
  }
  if (engine == "both" || engine == "high") {
    run_point("high_load", i_high,
              [&](std::span<const geom::Vec2> pts, std::size_t n,
                  std::uint64_t seed) {
                core::HighLoadConfig cfg;
                cfg.seed = seed;
                cfg.parallel_nodes = parallel_nodes;
                return core::run_high_load(p, pts, n, cfg).stats;
              });
  }

  table.print();
  std::printf(
      "\nbk total = bookkeeping node-touches summed over rounds (stage-B\n"
      "replay, delivery walks, filter pass, pull/occupied lists); the\n"
      "pre-slab engines paid a fixed >= 4n per round on those loops, i.e.\n"
      "bk/(rounds*n) >= 4.  Per-node sampling/compute work is inherent to\n"
      "the algorithms and not counted.\n");

  json.set("wall_seconds", wall.seconds());
  json.set("reps", static_cast<std::uint64_t>(reps));
  json.set("i", static_cast<std::uint64_t>(i_low));
  json.set("ihigh", static_cast<std::uint64_t>(i_high));
  json.set("dataset", workloads::dataset_name(dataset));
  json.set("parallel_nodes", static_cast<std::uint64_t>(parallel_nodes));
  json.set("shards", static_cast<std::uint64_t>(shard_cfg.shards));
  {
    const auto mem = obs::sample_memory();
    json.set("peak_rss_bytes", static_cast<std::uint64_t>(
                                   mem.ok ? mem.vm_hwm_bytes : 0));
  }
  const auto path = json.write();
  if (!path.empty()) std::printf("\n[bench-json] wrote %s\n", path.c_str());
  return 0;
}
