// T3W — Empirical validation of Theorem 3's resource bounds for the
// Low-Load Clarkson Algorithm, plus the filtering ablation:
//
//   * max communication work per node per round = O(d^2 + log n),
//   * total load |H(V)| = O(|H_0|) at all times (Lemma 9),
//   * switching filtering off lets |H(V)| grow far beyond O(|H_0|) —
//     the design choice Lemma 9 depends on.
//
// Usage: thm3_work [--imin=6] [--imax=12] [--reps=5] [--threads=1]
//                  [--parallel-nodes=1]
//
// --threads parallelizes the repetitions (bit-identical results for any
// thread count); --parallel-nodes threads the per-node solves inside each
// simulation.  Writes BENCH_thm3_work.json.
#include <cstdio>

#include "bench_json.hpp"
#include "common.hpp"
#include "core/low_load.hpp"
#include "problems/min_disk.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "workloads/disk_data.hpp"

int main(int argc, char** argv) {
  using namespace lpt;
  util::Cli cli(argc, argv);
  const auto imin = static_cast<std::size_t>(cli.get_int("imin", 6));
  const auto imax = static_cast<std::size_t>(cli.get_int("imax", 12));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const std::size_t threads = bench::threads_flag(cli);
  const auto parallel_nodes =
      static_cast<std::size_t>(cli.get_int("parallel-nodes", 1));

  bench::banner("Theorem 3: Low-Load work and load bounds (+ ablation)",
                "Hinnenthal-Scheideler-Struijs SPAA'19, Theorem 3 / Lemma 9");

  problems::MinDisk p;
  const std::size_t d = p.dimension();
  bench::WallTimer wall;
  bench::BenchJson json("thm3_work");
  std::uint64_t total_rounds = 0;

  std::printf("Work bound: the Section 2.1 sampler issues c(6d^2 + log n) "
              "pulls, d = %zu\n\n", d);
  util::Table table({"i", "n", "max work/round", "bound 2(6d^2+log n)+pad",
                     "max |H(V)| / |H0|", "rounds"});
  for (std::size_t i = imin; i <= imax; ++i) {
    const std::size_t n = std::size_t{1} << i;
    std::vector<double> work(reps, 0.0);
    std::vector<double> load(reps, 0.0);
    const auto rounds = bench::average_runs_indexed(
        reps,
        [&](std::size_t rep, std::uint64_t seed) {
          util::Rng data_rng(seed * 101 + i);
          const auto pts = workloads::generate_disk_dataset(
              workloads::DiskDataset::kTripleDisk, n, data_rng);
          core::LowLoadConfig cfg;
          cfg.seed = seed;
          cfg.parallel_nodes = parallel_nodes;
          const auto res = core::run_low_load(p, pts, n, cfg);
          LPT_CHECK(res.stats.reached_optimum);
          work[rep] = res.stats.max_work_per_round;
          load[rep] = static_cast<double>(res.stats.max_total_elements) /
                      static_cast<double>(res.stats.initial_total_elements);
          return static_cast<double>(res.stats.rounds_to_first);
        },
        1, threads);
    util::RunningStat work_stat, load_stat;
    for (const double w : work) work_stat.add(w);
    for (const double l : load) load_stat.add(l);
    total_rounds += static_cast<std::uint64_t>(rounds.sum());
    const double bound =
        2.0 * (6.0 * d * d + util::ceil_log2(n) + 1) + 16;
    table.add_row({util::fmt(i), util::fmt(n), util::fmt(work_stat.max(), 0),
                   util::fmt(bound, 0), util::fmt(load_stat.max(), 2),
                   util::fmt(rounds.mean(), 1)});
    json.add_row("sweep", {{"i", static_cast<double>(i)},
                           {"n", static_cast<double>(n)},
                           {"max_work_per_round", work_stat.max()},
                           {"work_bound", bound},
                           {"max_load_ratio", load_stat.max()},
                           {"mean_rounds", rounds.mean()},
                           {"stddev", rounds.stddev()}});
  }
  table.print();

  std::printf("\nFiltering ablation over a 40-round horizon (Lemma 9 is "
              "what keeps |H(V)| = O(|H0|)):\n");
  util::Table ab({"filtering", "n", "rounds simulated", "max |H(V)| / |H0|"});
  const std::size_t n = std::size_t{1} << std::min<std::size_t>(imax, 10);
  const std::size_t horizon = 40;
  for (bool filtering : {true, false}) {
    std::vector<double> ratio(reps, 0.0);
    bench::average_runs_indexed(
        reps,
        [&](std::size_t rep, std::uint64_t seed) {
          util::Rng data_rng(seed * 7 + 3);
          const auto pts = workloads::generate_disk_dataset(
              workloads::DiskDataset::kTriangle, n, data_rng);
          core::LowLoadConfig cfg;
          cfg.seed = seed;
          cfg.filtering = filtering;
          cfg.min_rounds = horizon;  // keep the dynamics past success
          cfg.parallel_nodes = parallel_nodes;
          const auto res = core::run_low_load(p, pts, n, cfg);
          ratio[rep] = static_cast<double>(res.stats.max_total_elements) /
                       static_cast<double>(res.stats.initial_total_elements);
          return ratio[rep];
        },
        1, threads);
    util::RunningStat ratio_stat;
    for (const double x : ratio) ratio_stat.add(x);
    ab.add_row({filtering ? "on" : "off", util::fmt(n), util::fmt(horizon),
                util::fmt(ratio_stat.max(), 2)});
    json.add_row("filtering_ablation",
                 {{"filtering", filtering ? 1.0 : 0.0},
                  {"n", static_cast<double>(n)},
                  {"horizon", static_cast<double>(horizon)},
                  {"max_load_ratio", ratio_stat.max()}});
  }
  ab.print();
  std::printf("\nExpected: with filtering the load ratio stays O(1) "
              "(Lemma 9's constant is ~5);\nwithout it copies accumulate "
              "round over round.\n");

  const double secs = wall.seconds();
  json.set("wall_seconds", secs);
  json.set("threads", static_cast<std::uint64_t>(threads));
  json.set("parallel_nodes", static_cast<std::uint64_t>(parallel_nodes));
  json.set("reps", static_cast<std::uint64_t>(reps));
  json.set("imin", static_cast<std::uint64_t>(imin));
  json.set("imax", static_cast<std::uint64_t>(imax));
  json.set("rounds_per_sec",
           secs > 0.0 ? static_cast<double>(total_rounds) / secs : 0.0);
  const auto path = json.write();
  if (!path.empty()) std::printf("\n[bench-json] wrote %s\n", path.c_str());
  return 0;
}
