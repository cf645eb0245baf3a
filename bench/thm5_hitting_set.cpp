// T5 — Empirical validation of Theorem 5 for the distributed Hitting Set
// Algorithm (Algorithm 6), plus the set-cover reduction of Section 1.4:
//
//   * hitting set size O(d log(ds)),
//   * O(d log n) rounds,
//   * work O(d log(ds) + log n) per node per round.
//
// Sweeps the planted minimum size d and the set count s, compares against
// the greedy (ln n) baseline, and runs set cover through the dual.
//
// Usage: thm5_hitting_set [--n=1024] [--reps=5] [--imin=8] [--imax=13]
//                         [--threads=1] [--parallel-nodes=1]
//
// --threads parallelizes the repetitions (bit-identical results for any
// thread count); --parallel-nodes threads the per-node compute phase
// inside each simulation.  Writes BENCH_thm5_hitting_set.json.
#include <cstdio>

#include "bench_json.hpp"
#include "common.hpp"
#include "core/hitting_set.hpp"
#include "problems/set_cover.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "workloads/hs_data.hpp"

int main(int argc, char** argv) {
  using namespace lpt;
  util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 1024));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const auto imin = static_cast<std::size_t>(cli.get_int("imin", 8));
  const auto imax = static_cast<std::size_t>(cli.get_int("imax", 13));
  const std::size_t threads = bench::threads_flag(cli);
  const auto parallel_nodes =
      static_cast<std::size_t>(cli.get_int("parallel-nodes", 1));

  bench::banner("Theorem 5: distributed hitting set and set cover",
                "Hinnenthal-Scheideler-Struijs SPAA'19, Theorem 5 / Section 4");

  bench::WallTimer wall;
  bench::BenchJson json("thm5_hitting_set");
  std::uint64_t total_rounds = 0;

  std::printf("Hitting set, planted instances with sparse sets (3 elements "
              "each): |X| = n = %zu\nelements on n nodes, %zu reps.  Note "
              "rounds sit far below the O(d log n) bound:\nwith n >> s every "
              "unhit set is chosen by ~n/s nodes per round, so element\n"
              "multiplicities grow by a factor n/s per round rather than "
              "merely doubling.\n\n", n, reps);
  util::Table table({"d", "s", "r=6d ln(12ds)", "avg |HS|", "greedy |HS|",
                     "avg rounds", "rounds/log2 n", "max work/round"});
  for (std::size_t d : {1ul, 2ul, 4ul, 8ul}) {
    for (std::size_t s : {32ul, 128ul}) {
      std::vector<double> size(reps, 0.0);
      std::vector<double> work(reps, 0.0);
      std::vector<double> greedy(reps, 0.0);
      const auto rounds = bench::average_runs_indexed(
          reps,
          [&](std::size_t rep, std::uint64_t seed) {
            util::Rng rng(seed * 17 + d * 3 + s);
            const auto inst =
                workloads::generate_planted_hitting_set(n, s, d, 2, rng);
            problems::HittingSetProblem p(inst.system);
            core::HittingSetConfig cfg;
            cfg.seed = seed;
            cfg.hitting_set_size = d;
            cfg.parallel_nodes = parallel_nodes;
            const auto res = core::run_hitting_set(p, n, cfg);
            LPT_CHECK(res.valid);
            size[rep] = static_cast<double>(res.hitting_set.size());
            work[rep] = res.stats.max_work_per_round;
            greedy[rep] =
                static_cast<double>(p.greedy_hitting_set().size());
            return static_cast<double>(res.stats.rounds_to_first);
          },
          1, threads);
      util::RunningStat size_stat, work_stat, greedy_stat;
      for (const double x : size) size_stat.add(x);
      for (const double x : work) work_stat.add(x);
      for (const double x : greedy) greedy_stat.add(x);
      total_rounds += static_cast<std::uint64_t>(rounds.sum());
      table.add_row(
          {util::fmt(d), util::fmt(s),
           util::fmt(core::hitting_set_sample_size(d, s)),
           util::fmt(size_stat.mean(), 1), util::fmt(greedy_stat.mean(), 1),
           util::fmt(rounds.mean(), 1),
           util::fmt(rounds.mean() / (util::ceil_log2(n) + 1), 2),
           util::fmt(work_stat.max(), 0)});
      json.add_row("planted",
                   {{"d", static_cast<double>(d)},
                    {"s", static_cast<double>(s)},
                    {"r", static_cast<double>(
                              core::hitting_set_sample_size(d, s))},
                    {"mean_size", size_stat.mean()},
                    {"greedy_size", greedy_stat.mean()},
                    {"mean_rounds", rounds.mean()},
                    {"stddev", rounds.stddev()},
                    {"max_work_per_round", work_stat.max()}});
    }
  }
  table.print();
  std::printf("\navg |HS| <= r by construction (Theorem 5's O(d log(ds)) "
              "bound);\ngreedy is the classic ln-approximation run "
              "centrally, for quality context.\n");

  std::printf("\nRound scaling with n (d = 2, s = 64, sparse sets — "
              "Theorem 5: O(d log n)):\n");
  util::Table sweep({"i", "n", "avg rounds", "rounds/log2 n"});
  for (std::size_t i = imin; i <= imax; ++i) {
    const std::size_t ns = std::size_t{1} << i;
    const auto rounds = bench::average_runs_indexed(
        reps,
        [&](std::size_t, std::uint64_t seed) {
          util::Rng rng(seed * 23 + i);
          const auto inst =
              workloads::generate_planted_hitting_set(ns, 64, 2, 2, rng);
          problems::HittingSetProblem p(inst.system);
          core::HittingSetConfig cfg;
          cfg.seed = seed;
          cfg.hitting_set_size = 2;
          cfg.parallel_nodes = parallel_nodes;
          const auto res = core::run_hitting_set(p, ns, cfg);
          LPT_CHECK(res.valid);
          return static_cast<double>(res.stats.rounds_to_first);
        },
        1, threads);
    total_rounds += static_cast<std::uint64_t>(rounds.sum());
    sweep.add_row({util::fmt(i), util::fmt(ns), util::fmt(rounds.mean(), 1),
                   util::fmt(rounds.mean() / (util::ceil_log2(ns) + 1), 2)});
    json.add_row("scaling", {{"i", static_cast<double>(i)},
                             {"n", static_cast<double>(ns)},
                             {"mean_rounds", rounds.mean()},
                             {"stddev", rounds.stddev()}});
  }
  sweep.print();

  std::printf("\nSet cover via hitting-set duality (Section 1.4):\n");
  util::Table sc({"universe", "sets", "planted |C|", "avg cover size",
                  "greedy cover", "avg rounds", "valid"});
  for (std::size_t d : {2ul, 4ul}) {
    // Many candidate sets: the dual universe must dwarf the sample size r
    // for the O(d log(ds)) bound to be non-trivial.
    const std::size_t universe = 256;
    const std::size_t sets = 4096;
    std::vector<double> size(reps, 0.0);
    std::vector<double> ok(reps, 0.0);
    std::vector<double> greedy(reps, 0.0);
    const auto rounds = bench::average_runs_indexed(
        reps,
        [&](std::size_t rep, std::uint64_t seed) {
          util::Rng rng(seed * 41 + d);
          const auto inst =
              workloads::generate_planted_set_cover(universe, sets, d, rng);
          const auto dual = problems::dual_of_set_cover(*inst.instance);
          problems::HittingSetProblem p(dual);
          core::HittingSetConfig cfg;
          cfg.seed = seed;
          cfg.hitting_set_size = d;
          cfg.parallel_nodes = parallel_nodes;
          const auto res = core::run_hitting_set(p, sets, cfg);
          size[rep] = static_cast<double>(res.hitting_set.size());
          ok[rep] = res.valid && problems::is_set_cover(*inst.instance,
                                                        res.hitting_set)
                        ? 1.0
                        : 0.0;
          greedy[rep] = static_cast<double>(
              problems::greedy_set_cover(*inst.instance).size());
          return static_cast<double>(res.stats.rounds_to_first);
        },
        1, threads);
    util::RunningStat size_stat, ok_stat, greedy_stat;
    for (const double x : size) size_stat.add(x);
    for (const double x : ok) ok_stat.add(x);
    for (const double x : greedy) greedy_stat.add(x);
    total_rounds += static_cast<std::uint64_t>(rounds.sum());
    sc.add_row({util::fmt(universe), util::fmt(sets), util::fmt(d),
                util::fmt(size_stat.mean(), 1),
                util::fmt(greedy_stat.mean(), 1),
                util::fmt(rounds.mean(), 1),
                ok_stat.min() >= 1.0 ? "yes" : "NO"});
    json.add_row("set_cover", {{"universe", static_cast<double>(universe)},
                               {"sets", static_cast<double>(sets)},
                               {"planted", static_cast<double>(d)},
                               {"mean_size", size_stat.mean()},
                               {"greedy_size", greedy_stat.mean()},
                               {"mean_rounds", rounds.mean()},
                               {"stddev", rounds.stddev()},
                               {"all_valid", ok_stat.min()}});
  }
  sc.print();

  const double secs = wall.seconds();
  json.set("wall_seconds", secs);
  json.set("threads", static_cast<std::uint64_t>(threads));
  json.set("parallel_nodes", static_cast<std::uint64_t>(parallel_nodes));
  json.set("reps", static_cast<std::uint64_t>(reps));
  json.set("n", static_cast<std::uint64_t>(n));
  json.set("imin", static_cast<std::uint64_t>(imin));
  json.set("imax", static_cast<std::uint64_t>(imax));
  json.set("rounds_per_sec",
           secs > 0.0 ? static_cast<double>(total_rounds) / secs : 0.0);
  const auto path = json.write();
  if (!path.empty()) std::printf("\n[bench-json] wrote %s\n", path.c_str());
  return 0;
}
