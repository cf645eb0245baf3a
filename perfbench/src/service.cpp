// service-open: one LptService (workers = 1, default cutoff / nodes /
// batch) fed by an open-loop Poisson generator in the same thread.
//
// The mix: 256-point min-disk queries, every 8th query a 256-constraint
// 2D LP, and every 64th a 4096-point min-disk query (above the default
// direct cutoff, so it takes the distributed lane on this code).  Latency
// runs from each query's due time to the end of the epoch that answered
// it, so a stalled generator shows up as latency, and the generator's own
// lateness is reported.  Every response is checked: direct answers against
// MinDisk::solve / LinearProgram2D::solve, distributed ones against
// run_low_load under the service's engine_config_for.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/low_load.hpp"
#include "obs/obs.hpp"
#include "perfbench.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_disk.hpp"
#include "service/service.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/lp_data.hpp"

namespace perfbench {

namespace {

using lpt::geom::Vec2;
using lpt::service::EngineUsed;
using lpt::service::LptService;
using lpt::service::QueryKind;
using lpt::service::QueryRequest;
using lpt::service::QueryResponse;
using lpt::service::QueryStatus;

constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kSmallPoints = 256;
constexpr std::size_t kLargePoints = 4096;
constexpr std::size_t kLpPlanes = 256;
constexpr std::size_t kSmallPool = 64;
constexpr std::size_t kLargePool = 16;
constexpr std::size_t kLpPool = 64;
constexpr std::size_t kLargeEvery = 64;
constexpr std::size_t kLpEvery = 8;
constexpr double kFixedQps = 2000.0;
constexpr double kLatencyLimitMs = 10.0;  // the p99 limit of svc_max_qps
constexpr std::size_t kWarmQueries = 4096;
constexpr std::size_t kSteadyQueries = 4096;

enum class Kind { kSmall, kLarge, kLp };

/// The payload pools and their reference answers.
struct Pools {
  std::vector<std::vector<Vec2>> small, large;
  std::vector<lpt::workloads::LpInstance> lp;
  std::vector<lpt::problems::MinDiskSolution> small_ref, large_ref;
  std::vector<lpt::problems::Lp2dSolution> lp_ref;
};

Pools make_pools(std::uint64_t seed) {
  Pools p;
  lpt::util::Rng rng(mix64(seed ^ 0x5e271ceULL));
  for (std::size_t k = 0; k < kSmallPool; ++k) {
    p.small.push_back(lpt::workloads::generate_disk_dataset(
        lpt::workloads::DiskDataset::kTriangle, kSmallPoints, rng));
  }
  for (std::size_t k = 0; k < kLargePool; ++k) {
    p.large.push_back(lpt::workloads::generate_disk_dataset(
        lpt::workloads::DiskDataset::kTriangle, kLargePoints, rng));
  }
  for (std::size_t k = 0; k < kLpPool; ++k) {
    p.lp.push_back(lpt::workloads::generate_lp_instance(kLpPlanes, rng));
  }
  return p;
}

void solve_refs(Pools& p) {
  const lpt::problems::MinDisk md;
  for (const auto& s : p.small) p.small_ref.push_back(md.solve(s));
  for (const auto& s : p.large) p.large_ref.push_back(md.solve(s));
  for (const auto& inst : p.lp) {
    p.lp_ref.push_back(
        lpt::problems::LinearProgram2D(inst.objective).solve(inst.constraints));
  }
}

/// Query `id` of the stream: its kind and pool slot, a pure function of
/// (workload seed, id).
struct QuerySpec {
  Kind kind;
  std::size_t slot;
};

QuerySpec query_spec(std::uint64_t seed, std::uint64_t id) {
  const std::uint64_t h = mix64(seed ^ (id * 0x2545f4914f6cdd1dULL));
  if (id % kLargeEvery == 0) return {Kind::kLarge, h % kLargePool};
  if (id % kLpEvery == kLpEvery / 2) return {Kind::kLp, h % kLpPool};
  return {Kind::kSmall, h % kSmallPool};
}

void fill_request(const Pools& p, std::uint64_t seed, std::uint64_t id,
                  QueryRequest& q) {
  const QuerySpec s = query_spec(seed, id);
  q.id = id;
  q.seed = seed;
  switch (s.kind) {
    case Kind::kSmall:
      q.kind = QueryKind::kMinDisk;
      q.points.assign(p.small[s.slot].begin(), p.small[s.slot].end());
      break;
    case Kind::kLarge:
      q.kind = QueryKind::kMinDisk;
      q.points.assign(p.large[s.slot].begin(), p.large[s.slot].end());
      break;
    case Kind::kLp:
      q.kind = QueryKind::kLp2d;
      q.planes.assign(p.lp[s.slot].constraints.begin(),
                      p.lp[s.slot].constraints.end());
      q.objective = p.lp[s.slot].objective;
      break;
  }
}

/// One open-loop phase's raw observations, indexed by query - first id.
struct Phase {
  std::vector<double> latency_ms;     // due -> epoch end
  std::vector<double> wait_ms;        // due -> epoch start
  std::vector<std::uint8_t> kinds;    // Kind per query
  double gen_late_ms_max = 0.0;       // submission - due, worst case
  std::size_t backlog_end = 0;        // due but unserved at the last due
  bool all_ok = true;                 // every status kOk
};

/// The stream's distributed-lane solves, re-run through the engine for
/// the check; their stats are the service's engine counts.
struct DistributedCheck {
  std::vector<double> rounds, work, bytes_per_node;
};

class Client {
 public:
  Client(const Options& opt, const Pools& pools, Report& rep)
      : opt_(opt), pools_(pools), rep_(rep),
        svc_(lpt::service::ServiceConfig{}) {
    responses_.reserve(svc_.config().max_batch);
  }

  /// Closed loop: submit `count` queries from `first_id` in bursts of one
  /// batch and drain; responses are checked.  Returns the wall time.
  double pump(std::uint64_t first_id, std::size_t count,
              bool small_only = false) {
    const auto t0 = Clock::now();
    std::size_t done = 0;
    const std::size_t batch = svc_.config().max_batch;
    while (done < count) {
      const std::size_t burst = std::min(batch, count - done);
      for (std::size_t j = 0; j < burst; ++j) {
        QueryRequest q = svc_.acquire_request();
        std::uint64_t id = first_id + done + j;
        while (small_only && query_spec(opt_.seed, id).kind != Kind::kSmall) {
          ++id;  // direct queries need no distinct ids
        }
        fill_request(pools_, opt_.seed, id, q);
        svc_.submit(std::move(q));
      }
      while (svc_.pending() > 0) svc_.run_epoch(responses_);
      done += burst;
      for (QueryResponse& r : responses_) {
        check_response(r);
        svc_.recycle_response(std::move(r));
      }
      responses_.clear();
    }
    return seconds_since(t0);
  }

  /// Open loop: `count` Poisson arrivals at `qps`, ids from `first_id`.
  Phase open_loop(std::uint64_t first_id, std::size_t count, double qps) {
    Phase ph;
    ph.latency_ms.assign(count, 0.0);
    ph.wait_ms.assign(count, 0.0);
    ph.kinds.resize(count);
    std::vector<double> due(count);
    lpt::util::Rng arrivals(mix64(opt_.seed ^ first_id ^ 0xa441ULL));
    double at = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      at += -std::log(1.0 - arrivals.uniform()) / qps;
      due[k] = at;
      ph.kinds[k] = static_cast<std::uint8_t>(
          query_spec(opt_.seed, first_id + k).kind);
    }
    const auto t0 = Clock::now();
    std::size_t next = 0, served = 0;
    bool backlog_taken = false;
    while (served < count) {
      double now = seconds_since(t0);
      if (next < count && svc_.pending() == 0 && due[next] > now) {
        while (due[next] > now) now = seconds_since(t0);  // idle: wait
      }
      while (next < count && due[next] <= now) {
        QueryRequest q = svc_.acquire_request();
        fill_request(pools_, opt_.seed, first_id + next, q);
        svc_.submit(std::move(q));
        ph.gen_late_ms_max =
            std::max(ph.gen_late_ms_max, (now - due[next]) * 1e3);
        ++next;
      }
      if (!backlog_taken && next == count) {
        ph.backlog_end = count - served;
        backlog_taken = true;
      }
      if (svc_.pending() == 0) continue;
      const double start = seconds_since(t0);
      served += svc_.run_epoch(responses_);
      const double end = seconds_since(t0);
      for (QueryResponse& r : responses_) {
        const std::size_t k = r.id - first_id;
        ph.latency_ms[k] = (end - due[k]) * 1e3;
        ph.wait_ms[k] = (start - due[k]) * 1e3;
        ph.all_ok = ph.all_ok && r.status == QueryStatus::kOk;
        check_response(r);
        svc_.recycle_response(std::move(r));
      }
      responses_.clear();
    }
    return ph;
  }

  /// Re-runs every distributed answer through the engine; call after the
  /// timed phases (the engine runs are the check, not the workload).
  void check_distributed(DistributedCheck* out) {
    const lpt::problems::MinDisk md;
    const std::size_t nodes = svc_.config().distributed_nodes;
    for (const Pending& d : distributed_) {
      QueryRequest q;
      fill_request(pools_, opt_.seed, d.id, q);
      const auto res = lpt::core::run_low_load(
          md, std::span<const Vec2>(q.points), nodes,
          svc_.engine_config_for(q));
      rep_.check(res.solution == d.disk && res.stats.reached_optimum &&
                     res.stats.rounds_to_first == d.rounds,
                 "distributed answer differs from run_low_load");
      if (out != nullptr) {
        out->rounds.push_back(static_cast<double>(res.stats.rounds_to_first));
        out->work.push_back(static_cast<double>(res.stats.max_work_per_round));
        out->bytes_per_node.push_back(
            static_cast<double>(res.stats.total_bytes) /
            static_cast<double>(nodes));
      }
    }
    distributed_.clear();
  }

 private:
  struct Pending {
    std::uint64_t id;
    lpt::problems::MinDiskSolution disk;
    std::uint32_t rounds;
  };

  void check_response(const QueryResponse& r) {
    const QuerySpec s = query_spec(opt_.seed, r.id);
    if (r.status != QueryStatus::kOk) {
      rep_.check(false, "query answered with a non-kOk status");
      return;
    }
    switch (s.kind) {
      case Kind::kLp:
        rep_.check(r.kind == QueryKind::kLp2d && r.lp == pools_.lp_ref[s.slot],
                   "LP answer differs from LinearProgram2D::solve");
        return;
      case Kind::kSmall:
      case Kind::kLarge: {
        if (r.engine == EngineUsed::kDistributed) {
          distributed_.push_back({r.id, r.disk, r.rounds});
          return;  // checked by check_distributed
        }
        const auto& ref = s.kind == Kind::kSmall ? pools_.small_ref[s.slot]
                                                 : pools_.large_ref[s.slot];
        rep_.check(r.engine == EngineUsed::kDirect && r.disk == ref,
                   "min-disk answer differs from MinDisk::solve");
        return;
      }
    }
  }

  const Options& opt_;
  const Pools& pools_;
  Report& rep_;
  LptService svc_;
  std::vector<QueryResponse> responses_;
  std::vector<Pending> distributed_;
};

/// Id ranges of the phases, far apart so engine seeds never repeat.
constexpr std::uint64_t kWarmBase = 0;
constexpr std::uint64_t kSteadyBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kFixedBase = std::uint64_t{2} << 40;
constexpr std::uint64_t kGridBase = std::uint64_t{3} << 40;
constexpr std::uint64_t kTracedBase = std::uint64_t{4} << 40;

/// Highest rate of a fixed geometric grid whose step keeps p99 latency
/// within kLatencyLimitMs, answers every query kOk, and ends its arrival
/// window with no more backlog than the limit's worth of arrivals.
void search_max_qps(Client& client, double step_s, Report& rep) {
  double best = 0.0;
  std::uint64_t base = kGridBase;
  for (int j = 0; j < 12; ++j) {
    const double rate = kFixedQps * std::pow(1.25, j);
    const auto count = std::max<std::size_t>(
        1000, static_cast<std::size_t>(rate * step_s));
    const Phase ph = client.open_loop(base, count, rate);
    base += count;
    client.check_distributed(nullptr);
    const double p99 = quantile(ph.latency_ms, 0.99);
    const bool backlog_ok =
        static_cast<double>(ph.backlog_end) <= rate * kLatencyLimitMs * 1e-3;
    if (!(ph.all_ok && p99 <= kLatencyLimitMs && backlog_ok)) break;
    best = rate;
  }
  rep.layer["svc_max_qps"] = {best, "1/s"};
}

void put_phase(Report& rep, const Phase& ph) {
  const std::size_t q = ph.latency_ms.size();
  rep.check(supported_quantile(q, 0.99), "too few queries for a p99");
  rep.layer["svc_p50_ms"] = {quantile(ph.latency_ms, 0.50), "ms"};
  rep.layer["svc_p99_ms"] = {quantile(ph.latency_ms, 0.99), "ms"};
  rep.layer["service.queue_wait_ms_p99"] = {quantile(ph.wait_ms, 0.99), "ms"};
  rep.layer["service.gen_late_ms_max"] = {ph.gen_late_ms_max, "ms"};
}

}  // namespace

void run_service_workload(const Options& opt, Report& rep) {
  // Phase lengths are fixed shares of the budget, so query counts (and the
  // exact counts that follow from them) depend only on seed and seconds.
  const auto fixed_count =
      static_cast<std::size_t>(kFixedQps * 0.5 * opt.seconds);
  const double grid_step_s = 0.03 * opt.seconds;

  std::vector<double> setup_times;
  Pools pools;
  std::unique_ptr<Client> client;
  for (std::size_t r = 0; r < (opt.trace ? 1 : kSetupReps); ++r) {
    const auto t0 = Clock::now();
    client.reset();
    pools = make_pools(opt.seed);
    solve_refs(pools);  // needed by the warm-up's checks
    client = std::make_unique<Client>(opt, pools, rep);
    client->pump(kWarmBase, kWarmQueries);
    setup_times.push_back(seconds_since(t0));
    client->check_distributed(nullptr);
  }

  // Warmed all-small closed loop: the serve path must not allocate.
  client->pump(kSteadyBase, kSteadyQueries / 4, true);
  const std::uint64_t allocs0 = alloc_count();
  client->pump(kSteadyBase + kSteadyQueries, kSteadyQueries, true);
  const std::uint64_t steady_allocs = alloc_count() - allocs0;
  rep.check(steady_allocs == 0, "warmed serve path allocated");
  rep.layer["service.steady_allocs"] = {static_cast<double>(steady_allocs),
                                        "count"};

  const lpt::obs::Snapshot before = lpt::obs::snapshot();
  const Phase fixed = client->open_loop(kFixedBase, fixed_count, kFixedQps);
  const lpt::obs::Snapshot delta = lpt::obs::snapshot().delta(before);
  DistributedCheck dist;
  client->check_distributed(&dist);
  put_phase(rep, fixed);

  // Exact service counts of the fixed-rate phase.
  std::size_t expect_large = 0;
  for (const std::uint8_t k : fixed.kinds) {
    expect_large += k == static_cast<std::uint8_t>(Kind::kLarge);
  }
  const std::uint64_t served = delta.counter_value("service.queries_served");
  const std::uint64_t dist_solves =
      delta.counter_value("service.distributed_solves");
  rep.check(served == fixed_count &&
                delta.counter_value("service.queries_submitted") ==
                    fixed_count &&
                dist_solves == expect_large &&
                delta.counter_value("service.direct_solves") ==
                    fixed_count - expect_large &&
                delta.counter_value("service.unsupported") == 0 &&
                delta.counter_value("service.transient_failures") == 0,
            "service counters disagree with the submitted stream");
  const std::uint64_t epochs = delta.counter_value("service.epochs");
  rep.layer["service.batch_mean"] = {
      epochs ? static_cast<double>(served) / static_cast<double>(epochs) : 0.0,
      "count"};
  rep.layer["service.distributed_solves"] = {static_cast<double>(dist_solves),
                                             "count"};
  if (const auto* h = delta.find_histogram("service.serve_ns")) {
    rep.layer["service.serve_ns_p99"] = {
        static_cast<double>(h->percentile(0.99)), "ns"};
  }

  std::vector<double> large_latency_s;
  for (std::size_t k = 0; k < fixed.kinds.size(); ++k) {
    if (fixed.kinds[k] == static_cast<std::uint8_t>(Kind::kLarge)) {
      large_latency_s.push_back(fixed.latency_ms[k] * 1e-3);
    }
  }
  rep.e2e["setup_s"] = {median(setup_times), "s"};
  rep.e2e["solve_s"] = {median(large_latency_s), "s"};
  rep.e2e["rounds"] = {mean(dist.rounds), "count"};
  rep.e2e["work_per_round_max"] = {mean(dist.work), "count"};
  rep.e2e["bytes_per_node"] = {mean(dist.bytes_per_node), "B"};
  rep.info["large_queries"] = {static_cast<double>(large_latency_s.size()),
                               "count"};
  rep.info["fixed_queries"] = {static_cast<double>(fixed_count), "count"};

  // Peak memory of the fixed-rate stream, before the grid's saturating
  // steps grow the queue.
  rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  search_max_qps(*client, grid_step_s, rep);

  if (opt.trace) {
    // Tracing overhead on the closed loop (untraced / traced / untraced),
    // and one traced fixed-rate stream for the admit/serve spans.
    const std::size_t pump_n = 8192;
    const double u1 = client->pump(kSteadyBase, pump_n);
    double t = 0.0;
    traced(opt, rep, [&] {
      t = client->pump(kSteadyBase, pump_n);
      client->open_loop(kTracedBase, fixed_count / 2, kFixedQps);
    });
    const double u2 = client->pump(kSteadyBase, pump_n);
    client->check_distributed(nullptr);
    rep.layer["obs.trace_overhead_frac"] = {t / (0.5 * (u1 + u2)) - 1.0,
                                            "ratio"};
    std::vector<Vec2> pool;
    for (const auto& s : pools.large) {
      pool.insert(pool.end(), s.begin(), s.end());
    }
    replay_kernels(pool, opt.seed, rep);
  }
}

}  // namespace perfbench
