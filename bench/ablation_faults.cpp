// FAULT — Ablation on network faults: Section 1.2 motivates gossip by its
// "stability under stress and disruptions".  This bench quantifies that:
// round counts of both engines as message loss and sleeping-node rates
// rise, with correctness verified on every run.
//
// Usage: ablation_faults [--i=11] [--reps=5] [--threads=1]
//                        [--parallel-nodes=1]
//
// --threads parallelizes the repetitions (bit-identical results for any
// thread count); --parallel-nodes threads the per-node solves inside each
// simulation.  Writes BENCH_ablation_faults.json.
#include <cstdio>

#include "bench_json.hpp"
#include "common.hpp"
#include "core/high_load.hpp"
#include "core/low_load.hpp"
#include "problems/min_disk.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/disk_data.hpp"

int main(int argc, char** argv) {
  using namespace lpt;
  util::Cli cli(argc, argv);
  const auto i = static_cast<std::size_t>(cli.get_int("i", 11));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const std::size_t threads = bench::threads_flag(cli);
  const auto parallel_nodes =
      static_cast<std::size_t>(cli.get_int("parallel-nodes", 1));
  const std::size_t n = std::size_t{1} << i;

  bench::banner("Ablation: fault tolerance of the gossip engines",
                "Section 1.2's stability-under-disruptions claim");

  problems::MinDisk p;
  std::printf("n = 2^%zu nodes, triple-disk, %zu reps; every run verified "
              "against the oracle.\n\n", i, reps);
  bench::WallTimer wall;
  bench::BenchJson json("ablation_faults");

  util::Table table({"fault scenario", "low-load rounds", "high-load rounds",
                     "all correct"});
  struct Scenario {
    const char* name;
    gossip::FaultModel f;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"none", {}});
  for (double loss : {0.1, 0.3, 0.5}) {
    gossip::FaultModel f;
    f.push_loss = loss;
    f.response_loss = loss;
    scenarios.push_back(
        {loss == 0.1 ? "10% msg loss" : (loss == 0.3 ? "30% msg loss"
                                                     : "50% msg loss"),
         f});
  }
  {
    gossip::FaultModel f;
    f.sleep_probability = 0.25;
    scenarios.push_back({"25% sleepers", f});
  }
  {
    gossip::FaultModel f;
    f.push_loss = 0.2;
    f.response_loss = 0.2;
    f.sleep_probability = 0.2;
    scenarios.push_back({"20% loss + 20% sleepers", f});
  }

  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const auto& sc = scenarios[si];
    std::vector<double> high(reps, 0.0);
    std::vector<double> correct(reps, 0.0);
    const auto low = bench::average_runs_indexed(
        reps,
        [&](std::size_t rep, std::uint64_t seed) {
          util::Rng rng(seed * 53 + 7);
          const auto pts = workloads::generate_disk_dataset(
              workloads::DiskDataset::kTripleDisk, n, rng);
          const auto oracle = p.solve(pts);

          core::LowLoadConfig lcfg;
          lcfg.seed = seed;
          lcfg.faults = sc.f;
          lcfg.parallel_nodes = parallel_nodes;
          const auto lres = core::run_low_load(p, pts, n, lcfg);

          core::HighLoadConfig hcfg;
          hcfg.seed = seed;
          hcfg.faults = sc.f;
          hcfg.parallel_nodes = parallel_nodes;
          const auto hres = core::run_high_load(p, pts, n, hcfg);

          correct[rep] = lres.stats.reached_optimum &&
                                 p.same_value(lres.solution, oracle) &&
                                 hres.stats.reached_optimum &&
                                 p.same_value(hres.solution, oracle)
                             ? 1.0
                             : 0.0;
          high[rep] = static_cast<double>(hres.stats.rounds_to_first);
          return static_cast<double>(lres.stats.rounds_to_first);
        },
        1, threads);
    util::RunningStat high_stat, correct_stat;
    for (const double x : high) high_stat.add(x);
    for (const double x : correct) correct_stat.add(x);
    const bool all_correct = correct_stat.min() >= 1.0;
    table.add_row({sc.name, util::fmt(low.mean(), 2),
                   util::fmt(high_stat.mean(), 2),
                   all_correct ? "yes" : "NO"});
    json.add_row("scenarios",
                 {{"scenario", static_cast<double>(si)},
                  {"push_loss", sc.f.push_loss},
                  {"response_loss", sc.f.response_loss},
                  {"sleep_probability", sc.f.sleep_probability},
                  {"low_mean_rounds", low.mean()},
                  {"low_stddev", low.stddev()},
                  {"high_mean_rounds", high_stat.mean()},
                  {"all_correct", all_correct ? 1.0 : 0.0}});
  }
  table.print();
  std::printf("\nExpected: graceful degradation — rounds rise smoothly with "
              "the fault rate\nand no scenario produces a wrong optimum "
              "(faults only destroy copies,\nnever original elements).\n");

  // Correlated-fault series: Markov-burst loss epochs (calm 5% / burst 60%,
  // stationary burst fraction ~0.3) and Pareto-length stragglers — the
  // scenario layer's adversarial schedules, benched at the same sizes so
  // the trend gate can watch both engines' round counts under them.
  std::printf("\n");
  util::Table ctable({"correlated scenario", "low-load rounds",
                      "high-load rounds", "all correct"});
  std::vector<Scenario> correlated;
  {
    gossip::FaultModel f;
    f.push_loss = 0.05;
    f.response_loss = 0.05;
    f.burst = {0.6, 0.6, 0.06, 0.14};
    correlated.push_back({"burst loss 5% -> 60% (pi~0.3)", f});
  }
  {
    gossip::FaultModel f;
    f.straggler = {0.02, 1.5, 2.0, 48};
    correlated.push_back({"stragglers (Pareto a=1.5, cap 48)", f});
  }
  {
    gossip::FaultModel f;
    f.push_loss = 0.05;
    f.response_loss = 0.05;
    f.burst = {0.6, 0.6, 0.06, 0.14};
    f.straggler = {0.02, 1.5, 2.0, 48};
    correlated.push_back({"burst + stragglers", f});
  }

  for (std::size_t si = 0; si < correlated.size(); ++si) {
    const auto& sc = correlated[si];
    std::vector<double> high(reps, 0.0);
    std::vector<double> correct(reps, 0.0);
    const auto low = bench::average_runs_indexed(
        reps,
        [&](std::size_t rep, std::uint64_t seed) {
          util::Rng rng(seed * 53 + 7);
          const auto pts = workloads::generate_disk_dataset(
              workloads::DiskDataset::kTripleDisk, n, rng);
          const auto oracle = p.solve(pts);

          core::LowLoadConfig lcfg;
          lcfg.seed = seed;
          lcfg.faults = sc.f;
          lcfg.parallel_nodes = parallel_nodes;
          const auto lres = core::run_low_load(p, pts, n, lcfg);

          core::HighLoadConfig hcfg;
          hcfg.seed = seed;
          hcfg.faults = sc.f;
          hcfg.parallel_nodes = parallel_nodes;
          const auto hres = core::run_high_load(p, pts, n, hcfg);

          correct[rep] = lres.stats.reached_optimum &&
                                 p.same_value(lres.solution, oracle) &&
                                 hres.stats.reached_optimum &&
                                 p.same_value(hres.solution, oracle)
                             ? 1.0
                             : 0.0;
          high[rep] = static_cast<double>(hres.stats.rounds_to_first);
          return static_cast<double>(lres.stats.rounds_to_first);
        },
        1, threads);
    util::RunningStat high_stat, correct_stat;
    for (const double x : high) high_stat.add(x);
    for (const double x : correct) correct_stat.add(x);
    const bool all_correct = correct_stat.min() >= 1.0;
    ctable.add_row({sc.name, util::fmt(low.mean(), 2),
                    util::fmt(high_stat.mean(), 2),
                    all_correct ? "yes" : "NO"});
    json.add_row("correlated",
                 {{"scenario", static_cast<double>(si)},
                  {"burst_loss", sc.f.burst.push_loss},
                  {"burst_enter", sc.f.burst.enter},
                  {"burst_exit", sc.f.burst.exit},
                  {"straggler_rate", sc.f.straggler.rate},
                  {"straggler_alpha", sc.f.straggler.alpha},
                  {"low_mean_rounds", low.mean()},
                  {"low_stddev", low.stddev()},
                  {"high_mean_rounds", high_stat.mean()},
                  {"all_correct", all_correct ? 1.0 : 0.0}});
  }
  ctable.print();
  std::printf("\nExpected: burst epochs and heavy-tailed stragglers cost "
              "rounds but never\ncorrectness — same invariant the stress "
              "matrix asserts per tuple.\n");

  const double secs = wall.seconds();
  json.set("wall_seconds", secs);
  json.set("threads", static_cast<std::uint64_t>(threads));
  json.set("parallel_nodes", static_cast<std::uint64_t>(parallel_nodes));
  json.set("reps", static_cast<std::uint64_t>(reps));
  json.set("i", static_cast<std::uint64_t>(i));
  const auto path = json.write();
  if (!path.empty()) std::printf("\n[bench-json] wrote %s\n", path.c_str());
  return 0;
}
