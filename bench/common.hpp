// Shared helpers for the benchmark harnesses: repetition sweeps over the
// distributed engines with per-repetition seeds, aggregated into the same
// "average rounds until termination" series the paper's figures plot.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "shard/runtime.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workloads/disk_data.hpp"

namespace lpt::bench {

/// Average of `reps` runs of `one_run(rep, seed)`.  With threads > 1 the
/// repetitions execute concurrently on a util::ThreadPool; each repetition
/// keeps its fixed per-index seed and results accumulate in index order,
/// so the returned statistic is bit-identical for every thread count.
/// `one_run` must be safe to call concurrently (the engine runs are
/// self-contained; the bench lambdas only capture immutable state), and
/// may stash per-repetition side metrics into rep-indexed slots without
/// synchronization.
inline util::RunningStat average_runs_indexed(
    std::size_t reps,
    const std::function<double(std::size_t, std::uint64_t)>& one_run,
    std::uint64_t seed_base = 1, std::size_t threads = 1) {
  std::vector<double> values(reps);
  if (threads > 1 && reps > 1) {
    util::ThreadPool pool(threads);
    util::parallel_for(pool, reps, [&](std::size_t rep) {
      values[rep] = one_run(rep, seed_base + rep * 7919);
    });
  } else {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      values[rep] = one_run(rep, seed_base + rep * 7919);
    }
  }
  util::RunningStat stat;
  for (const double v : values) stat.add(v);
  return stat;
}

/// Seed-only form of average_runs_indexed.
inline util::RunningStat average_runs(
    std::size_t reps, const std::function<double(std::uint64_t)>& one_run,
    std::uint64_t seed_base = 1, std::size_t threads = 1) {
  return average_runs_indexed(
      reps, [&](std::size_t, std::uint64_t seed) { return one_run(seed); },
      seed_base, threads);
}

/// The shared --threads flag: 0 = hardware concurrency, default 1 (serial).
inline std::size_t threads_flag(const util::Cli& cli) {
  const auto t = cli.get_int("threads", 1);
  if (t <= 0) return std::thread::hardware_concurrency();
  return static_cast<std::size_t>(t);
}

/// The shared --shards / --shard-transport flags: benches opt sweeps into
/// the shard runtime with --shards=N (0 = disabled, the default; results
/// are bit-identical either way) and pick the worker transport with
/// --shard-transport=inproc|pipe|socket (default inproc).  Any other value
/// exits 2 (util::invalid_flag_value).
inline shard::ShardConfig shard_flags(const util::Cli& cli) {
  shard::ShardConfig cfg;
  const std::int64_t shards = cli.get_int("shards", 0);
  if (shards < 0) {
    util::invalid_flag_value("shards", cli.get("shards", ""),
                             "a non-negative shard count");
  }
  cfg.shards = static_cast<std::size_t>(shards);
  const std::string transport = cli.get("shard-transport", "inproc");
  if (transport == "pipe") {
    cfg.transport = shard::TransportKind::kPipe;
  } else if (transport == "socket") {
    cfg.transport = shard::TransportKind::kSocket;
  } else if (transport != "inproc") {
    util::invalid_flag_value("shard-transport", transport,
                             "inproc, pipe or socket");
  }
  return cfg;
}

/// The shared --dataset flag: resolve a Figure 1 disk dataset by name;
/// an unknown name exits 2 (util::invalid_flag_value).
inline workloads::DiskDataset dataset_flag(const util::Cli& cli,
                                           const std::string& def =
                                               "duo-disk") {
  const std::string name = cli.get("dataset", def);
  std::string names;
  for (const auto d : workloads::kAllDiskDatasets) {
    if (workloads::dataset_name(d) == name) return d;
    if (!names.empty()) names += ", ";
    names += workloads::dataset_name(d);
  }
  util::invalid_flag_value("dataset", name, "one of " + names);
}

/// Standard bench banner.
inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper_ref.c_str());
}

/// Fit rounds = a * log2(n) + b over (log2 n, rounds) points and report a.
inline void report_log_fit(const std::string& label,
                           const std::vector<double>& log2n,
                           const std::vector<double>& rounds) {
  if (log2n.size() < 2) return;
  const auto fit = util::fit_line(log2n, rounds);
  std::printf("%-12s rounds ≈ %.2f * log2(n) %+0.2f   (R^2 = %.3f)\n",
              label.c_str(), fit.slope, fit.intercept, fit.r2);
}

}  // namespace lpt::bench
