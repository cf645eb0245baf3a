// Engine workloads: lowload-n15 (run_low_load, triangle, 2 threads),
// highload-n15 (run_high_load, hull, serial) and shard-socket (sharded
// run_low_load over the socket transport, checked against its serial twin,
// plus one scripted worker kill per run).
//
// Every run solves a fixed list of instances derived from the workload
// seed.  The first pass over the list always completes, so the exact
// counts (rounds, work, bytes) are means over the same list in every run;
// later passes repeat the list while the time budget lasts, and every
// repeat must reproduce its first solve's counts exactly.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/high_load.hpp"
#include "core/low_load.hpp"
#include "obs/obs.hpp"
#include "perfbench.hpp"
#include "problems/min_disk.hpp"
#include "shard/fault.hpp"
#include "workloads/disk_data.hpp"

namespace perfbench {

namespace {

using lpt::geom::Vec2;
using lpt::problems::MinDisk;
using lpt::problems::MinDiskSolution;
using lpt::workloads::DiskDataset;

constexpr std::size_t kSetupReps = 3;  // setup_s is the median of these
constexpr std::size_t kWarmRounds = 2;

struct EngineSpec {
  DiskDataset dataset;
  unsigned log2n;
  bool high_load;
  std::size_t parallel_nodes;
  std::size_t list_len;        // instances in the fixed seed list
  std::size_t trace_list_len;  // prefix of the list the traced run replays
};

struct Instance {
  std::uint64_t seed = 0;  // engine seed; also seeds the point set
  std::vector<Vec2> pts;
  MinDiskSolution oracle;  // MinDisk::solve(pts), filled after setup
};

struct SolveOut {
  double wall_s = 0.0;
  MinDiskSolution solution;
  lpt::core::DistributedRunStats stats;
  lpt::obs::Snapshot delta;  // registry delta over the solve
  double arena_mb = 0.0;     // the engine's store arena after the solve
};

Instance make_instance(const EngineSpec& s, std::uint64_t seed) {
  Instance inst;
  inst.seed = seed;
  lpt::util::Rng rng(mix64(seed ^ 0xda7a5e7ULL));
  inst.pts = lpt::workloads::generate_disk_dataset(
      s.dataset, std::size_t{1} << s.log2n, rng);
  return inst;
}

/// One engine run, timed around the public entry point only.  A nonzero
/// `max_rounds` caps the run (the warm-up: every phase of a round runs,
/// at a cost that does not depend on how many rounds the instance needs).
SolveOut solve(const EngineSpec& s, const Instance& inst,
               const lpt::shard::ShardConfig& shard = {},
               std::size_t max_rounds = 0) {
  const MinDisk p;
  const std::size_t n = std::size_t{1} << s.log2n;
  const std::span<const Vec2> pts(inst.pts);
  SolveOut out;
  const lpt::obs::Snapshot before = lpt::obs::snapshot();
  const auto t0 = Clock::now();
  if (s.high_load) {
    lpt::core::HighLoadConfig cfg;
    cfg.seed = inst.seed;
    cfg.parallel_nodes = s.parallel_nodes;
    cfg.max_rounds = max_rounds;
    auto res = lpt::core::run_high_load(p, pts, n, cfg);
    out.wall_s = seconds_since(t0);
    out.solution = std::move(res.solution);
    out.stats = res.stats;
  } else {
    lpt::core::LowLoadConfig cfg;
    cfg.seed = inst.seed;
    cfg.parallel_nodes = s.parallel_nodes;
    cfg.max_rounds = max_rounds;
    cfg.shard = shard;
    auto res = lpt::core::run_low_load(p, pts, n, cfg);
    out.wall_s = seconds_since(t0);
    out.solution = std::move(res.solution);
    out.stats = res.stats;
  }
  out.delta = lpt::obs::snapshot().delta(before);
  std::fprintf(stderr, "[perfbench] solve %016llx: %.4f s, %zu rounds\n",
               static_cast<unsigned long long>(inst.seed), out.wall_s,
               out.stats.rounds_to_first);
  out.arena_mb =
      static_cast<double>(out.delta.gauge_value(
          s.high_load ? "engine.high_load.store_arena_bytes"
                      : "engine.low_load.store_arena_bytes")) /
      (1024.0 * 1024.0);
  return out;
}

/// The counts a fixed seed makes exact: the run's stats plus the gossip
/// registry deltas.  Any difference between two solves of one instance is
/// a determinism failure.
CountLedger::Counts exact_counts(const SolveOut& o) {
  const auto& st = o.stats;
  return {st.rounds_to_first,
          st.reached_optimum ? 1u : 0u,
          st.max_work_per_round,
          st.total_push_ops,
          st.total_pull_ops,
          st.total_bytes,
          st.initial_total_elements,
          st.max_total_elements,
          st.final_total_elements,
          st.sampling_attempts,
          st.sampling_failures,
          st.bookkeeping_touches_total,
          o.delta.counter_value("gossip.rounds"),
          o.delta.counter_value("gossip.push_ops"),
          o.delta.counter_value("gossip.pull_ops"),
          o.delta.counter_value("gossip.bytes")};
}

bool same_run(const SolveOut& a, const SolveOut& b) {
  return a.solution == b.solution && exact_counts(a) == exact_counts(b);
}

std::string tag(const Instance& inst, const char* what) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "seed %016llx: %s",
                static_cast<unsigned long long>(inst.seed), what);
  return buf;
}

/// Check a solve against the reference answer and the exact-count ledger.
void check_solve(Report& rep, CountLedger& ledger, const Instance& inst,
                 const SolveOut& o) {
  const MinDisk p;
  rep.check(o.stats.reached_optimum &&
                p.same_value(o.solution, inst.oracle),
            tag(inst, "engine answer differs from MinDisk::solve"));
  if (!ledger.record(inst.seed, exact_counts(o))) {
    rep.check(false, tag(inst, "repeated solve changed an exact count"));
  }
}

/// Builds the instance list and runs the warm-up solve, kSetupReps times
/// (or once for the traced run).  Returns the list of the last repetition.
std::vector<Instance> setup(const Options& opt, const EngineSpec& s,
                            std::size_t reps, std::vector<double>& times,
                            const lpt::shard::ShardConfig& shard) {
  std::vector<Instance> list;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    list.clear();
    for (std::size_t k = 0; k < s.list_len; ++k) {
      list.push_back(make_instance(s, list_seed(opt.seed, k)));
    }
    // Warm-up: a run capped at kWarmRounds on an instance outside the list.
    const Instance warm = make_instance(s, list_seed(opt.seed, s.list_len));
    solve(s, warm, shard, kWarmRounds);
    times.push_back(seconds_since(t0));
  }
  const MinDisk p;
  for (Instance& inst : list) inst.oracle = p.solve(inst.pts);
  return list;
}

/// The end-to-end timed phase: one pass over the whole list (its exact
/// counts are the reported means), then further passes while the budget
/// lasts.  `run(k)` solves list entry k and checks it.
///
/// solve_s = mean rounds of the list x median over every timed solve of
/// wall / rounds.  The median per round is robust to bursts of machine
/// noise within the run and compares solves of different lengths; the
/// mean rounds carries the list's exact round count.
template <typename Run>
void timed_phase(const Options& opt, Report& rep, std::size_t list_len,
                 std::size_t n, Run&& run) {
  std::vector<SolveOut> first;
  std::vector<double> per_round_s;
  const auto t0 = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t k = 0; k < list_len; ++k) {
      if (pass > 0 && seconds_since(t0) >= opt.seconds) break;
      SolveOut o = run(k);
      per_round_s.push_back(o.wall_s /
                            static_cast<double>(o.stats.rounds_to_first));
      if (pass == 0) first.push_back(std::move(o));
    }
    if (seconds_since(t0) >= opt.seconds) break;
  }
  std::vector<double> rounds, work, bytes;
  for (const SolveOut& o : first) {
    rounds.push_back(static_cast<double>(o.stats.rounds_to_first));
    work.push_back(static_cast<double>(o.stats.max_work_per_round));
    bytes.push_back(static_cast<double>(o.stats.total_bytes) /
                    static_cast<double>(n));
  }
  rep.e2e["solve_s"] = {mean(rounds) * median(per_round_s), "s"};
  rep.e2e["rounds"] = {mean(rounds), "count"};
  rep.e2e["work_per_round_max"] = {mean(work), "count"};
  rep.e2e["bytes_per_node"] = {mean(bytes), "B"};
  rep.info["timed_solves"] = {static_cast<double>(per_round_s.size()),
                              "count"};
}

/// Per-layer gossip split from the untraced solves of the traced run.
void put_gossip_layer(Report& rep, const std::vector<SolveOut>& solves,
                      std::size_t n) {
  double rounds = 0, pulls = 0, pushes = 0, attempts = 0, fails = 0;
  double touches = 0, load_ratio = 0, arena = 0;
  for (const SolveOut& o : solves) {
    rounds += static_cast<double>(o.delta.counter_value("gossip.rounds"));
    pulls += static_cast<double>(o.delta.counter_value("gossip.pull_ops"));
    pushes += static_cast<double>(o.delta.counter_value("gossip.push_ops"));
    attempts += static_cast<double>(o.stats.sampling_attempts);
    fails += static_cast<double>(o.stats.sampling_failures);
    touches += static_cast<double>(o.stats.bookkeeping_touches_total);
    load_ratio = std::max(
        load_ratio, static_cast<double>(o.stats.max_total_elements) /
                        static_cast<double>(o.stats.initial_total_elements));
    arena = std::max(arena, o.arena_mb);
  }
  const double node_rounds = rounds * static_cast<double>(n);
  rep.layer["gossip.pull_ops_per_node_round"] = {pulls / node_rounds,
                                                 "count"};
  rep.layer["gossip.push_ops_per_node_round"] = {pushes / node_rounds,
                                                 "count"};
  rep.layer["gossip.sampling_fail_frac"] = {
      attempts > 0 ? fails / attempts : 0.0, "ratio"};
  rep.layer["gossip.max_load_ratio"] = {load_ratio, "ratio"};
  rep.layer["gossip.store_arena_mb"] = {arena, "MB"};
  rep.layer["gossip.bookkeeping_touches_per_round"] = {touches / rounds,
                                                       "count"};
}

/// Median over instances of traced / mean(untraced before, after) - 1.
double overhead_frac(const std::vector<double>& u1,
                     const std::vector<double>& t,
                     const std::vector<double>& u2) {
  std::vector<double> ratios;
  for (std::size_t k = 0; k < t.size(); ++k) {
    ratios.push_back(t[k] / (0.5 * (u1[k] + u2[k])) - 1.0);
  }
  return median(ratios);
}

const EngineSpec* engine_spec(const std::string& name) {
  static const EngineSpec kLow{DiskDataset::kTriangle, 15, false, 2, 12, 3};
  static const EngineSpec kHigh{DiskDataset::kHull, 15, true, 0, 16, 4};
  if (name == "lowload-n15") return &kLow;
  if (name == "highload-n15") return &kHigh;
  return nullptr;
}

}  // namespace

void run_engine_workload(const Options& opt, Report& rep) {
  const EngineSpec& s = *engine_spec(opt.workload);
  const std::size_t n = std::size_t{1} << s.log2n;
  std::vector<double> setup_times;
  const std::vector<Instance> list =
      setup(opt, s, opt.trace ? 1 : kSetupReps, setup_times, {});
  CountLedger ledger;

  if (!opt.trace) {
    timed_phase(opt, rep, list.size(), n, [&](std::size_t k) {
      SolveOut o = solve(s, list[k]);
      check_solve(rep, ledger, list[k], o);
      return o;
    });
    rep.e2e["setup_s"] = {median(setup_times), "s"};
    rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return;
  }

  // Traced run: untraced pass, traced pass, untraced pass over a prefix of
  // the list; the bracketing untraced passes cancel linear drift in the
  // tracing-overhead ratio.
  const std::size_t m = std::min(s.trace_list_len, list.size());
  std::vector<double> u1, t, u2;
  std::vector<SolveOut> untraced;
  for (std::size_t k = 0; k < m; ++k) {
    SolveOut o = solve(s, list[k]);
    check_solve(rep, ledger, list[k], o);
    u1.push_back(o.wall_s);
    untraced.push_back(std::move(o));
  }
  traced(opt, rep, [&] {
    for (std::size_t k = 0; k < m; ++k) {
      SolveOut o = solve(s, list[k]);
      check_solve(rep, ledger, list[k], o);
      t.push_back(o.wall_s);
    }
  });
  for (std::size_t k = 0; k < m; ++k) {
    SolveOut o = solve(s, list[k]);
    check_solve(rep, ledger, list[k], o);
    u2.push_back(o.wall_s);
  }
  put_gossip_layer(rep, untraced, n);
  rep.layer["obs.trace_overhead_frac"] = {overhead_frac(u1, t, u2), "ratio"};
  rep.info["traced_solves"] = {static_cast<double>(m), "count"};
  replay_kernels(list.front().pts, opt.seed, rep);
}

void run_shard_workload(const Options& opt, Report& rep) {
  const EngineSpec s{DiskDataset::kTriangle, 14, false, 0, 12, 4};
  const std::size_t n = std::size_t{1} << s.log2n;
  lpt::shard::ShardConfig shard;
  shard.shards = 2;
  shard.transport = lpt::shard::TransportKind::kSocket;

  std::vector<double> setup_times;
  const std::vector<Instance> list =
      setup(opt, s, opt.trace ? 1 : kSetupReps, setup_times, shard);
  CountLedger ledger;

  // Serial twins: the bit-identity reference of every sharded solve (the
  // traced run replays only a prefix of the list).  They spend part of
  // the run's time budget.
  const std::size_t m = opt.trace ? std::min(s.trace_list_len, list.size())
                                  : list.size();
  const auto twins_t0 = Clock::now();
  std::vector<SolveOut> twins;
  for (std::size_t k = 0; k < m; ++k) {
    twins.push_back(solve(s, list[k]));
    check_solve(rep, ledger, list[k], twins[k]);
  }
  Options budget = opt;
  budget.seconds = std::max(0.0, opt.seconds - seconds_since(twins_t0));
  auto sharded = [&](std::size_t k, const lpt::shard::ShardConfig& cfg) {
    SolveOut o = solve(s, list[k], cfg);
    check_solve(rep, ledger, list[k], o);
    rep.check(same_run(o, twins[k]),
              tag(list[k], "sharded run differs from its serial twin"));
    return o;
  };

  // One scripted SIGKILL of worker 1 after its second task frame; the
  // recovered run must still equal the serial twin.
  auto faulted = [&] {
    lpt::shard::ShardRecoveryStats rs;
    lpt::shard::ShardConfig cfg = shard;
    cfg.fault_script = {{1, lpt::shard::FaultOp::kKillWorker, 1, 0}};
    cfg.recovery_out = &rs;
    SolveOut o = sharded(0, cfg);
    rep.check(rs.workers_lost == 1 && rs.respawns == 1,
              "scripted kill: expected exactly one loss and one respawn");
    return std::make_pair(o, rs);
  };

  if (!opt.trace) {
    timed_phase(budget, rep, list.size(), n,
                [&](std::size_t k) { return sharded(k, shard); });
    faulted();
    rep.e2e["setup_s"] = {median(setup_times), "s"};
    rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return;
  }

  std::vector<double> u1, t, u2, ratio;
  std::vector<SolveOut> untraced;
  for (std::size_t k = 0; k < m; ++k) {
    SolveOut o = sharded(k, shard);
    u1.push_back(o.wall_s);
    ratio.push_back(o.wall_s / twins[k].wall_s);
    untraced.push_back(std::move(o));
  }
  std::optional<std::pair<SolveOut, lpt::shard::ShardRecoveryStats>> fault;
  traced(opt, rep, [&] {
    for (std::size_t k = 0; k < m; ++k) t.push_back(sharded(k, shard).wall_s);
    fault = faulted();
  });
  for (std::size_t k = 0; k < m; ++k) u2.push_back(sharded(k, shard).wall_s);

  put_gossip_layer(rep, untraced, n);
  rep.layer["shard.overhead_ratio"] = {median(ratio), "ratio"};
  rep.layer["shard.recovery_s"] = {fault->first.wall_s - t.front(), "s"};
  rep.layer["shard.respawns"] = {static_cast<double>(fault->second.respawns),
                                 "count"};
  rep.layer["shard.frames_resent"] = {
      static_cast<double>(fault->second.frames_resent), "count"};
  rep.layer["obs.trace_overhead_frac"] = {overhead_frac(u1, t, u2), "ratio"};
  rep.info["traced_solves"] = {static_cast<double>(m + 1), "count"};
  replay_kernels(list.front().pts, opt.seed, rep);
}

}  // namespace perfbench
