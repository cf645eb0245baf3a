// Shared plumbing of the lpt_perfbench program: the run's options, the
// report every workload fills, wall clocks, order statistics, and the
// exact-count ledger that asserts repeated solves repeat exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/vec2.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // timed budget of the measured phase
  bool trace = false;     // per-layer run (spans + registry) instead of
                          // the untraced end-to-end run
  std::string trace_out;  // Chrome trace path for the traced run
};

/// Everything one run reports.  `e2e` holds the end-to-end metrics
/// (untraced run), `layer` the per-layer ones (traced run); `info` carries
/// descriptive extras that are printed but never compared.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, Metric> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions

  /// Count one checked operation; a false `ok` is a failure.  Allocates
  /// only on failure, so checks may run inside the zero-allocation phase.
  void check(bool ok, std::string_view what);
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Nearest-rank quantile of the raw samples.  Only call it where at least
/// ten samples lie beyond the rank (see supported_quantile).
double quantile(std::vector<double> v, double q);

/// Whether the nearest-rank q-quantile of n samples has >= 10 beyond it.
bool supported_quantile(std::size_t n, double q);

/// 64-bit mix used to derive the fixed seed list from the workload seed.
std::uint64_t mix64(std::uint64_t x);

/// The k-th entry of the workload's fixed seed list.
inline std::uint64_t list_seed(std::uint64_t workload_seed, std::uint64_t k) {
  return mix64(workload_seed * 0x100000001b3ULL + k + 1);
}

/// Exact-count ledger: the first solve of a key records its counters, every
/// later solve of the same key must reproduce them bit for bit.
class CountLedger {
 public:
  using Counts = std::vector<std::uint64_t>;
  /// Returns false when `c` differs from the counts first recorded for key.
  bool record(std::uint64_t key, const Counts& c);

 private:
  std::map<std::uint64_t, Counts> first_;
};

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

/// Runs `body` with period-1 tracing into a ring that cannot wrap, then
/// writes the Chrome trace to opt.trace_out.  A full ring would have
/// dropped spans silently, so it counts as a failure.
void traced(const Options& opt, Report& rep,
            const std::function<void()>& body);

/// Per-layer kernel replays (geometry.welzl_*_us, lp.seidel_query_us) on
/// points drawn from `pool`, the workload's own input.
void replay_kernels(const std::vector<lpt::geom::Vec2>& pool,
                    std::uint64_t seed, Report& rep);

/// Workload entry points.  Each fills `rep` and returns normally; hard
/// setup errors throw.
void run_engine_workload(const Options& opt, Report& rep);
void run_shard_workload(const Options& opt, Report& rep);
void run_service_workload(const Options& opt, Report& rep);

/// Heap allocations made by this process so far (global operator new).
std::uint64_t alloc_count();

}  // namespace perfbench
