#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "obs/memory.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"

namespace perfbench {

void Report::check(bool ok, std::string_view what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.emplace_back(what);
  std::fprintf(stderr, "[perfbench] FAILED: %.*s\n",
               static_cast<int>(what.size()), what.data());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

bool supported_quantile(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return n > 0 && rank >= 1 && n - rank >= 10;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool CountLedger::record(std::uint64_t key, const Counts& c) {
  const auto [it, inserted] = first_.try_emplace(key, c);
  return inserted || it->second == c;
}

double peak_rss_mb() {
  const lpt::obs::MemorySample m = lpt::obs::read_proc_status();
  return m.ok ? static_cast<double>(m.vm_hwm_bytes) / (1024.0 * 1024.0) : 0.0;
}

void traced(const Options& opt, Report& rep,
            const std::function<void()>& body) {
  lpt::obs::TraceConfig tc;
  tc.capacity = std::size_t{1} << 20;
  tc.sample_period = 1;
  lpt::obs::enable_tracing(tc);
  body();
  lpt::obs::disable_tracing();
  const std::size_t events = lpt::obs::trace_event_count();
  rep.check(events < tc.capacity, "trace ring full: spans were dropped");
  rep.check(lpt::obs::write_chrome_trace(opt.trace_out),
            "cannot write the Chrome trace");
  rep.info["trace_events"] = {static_cast<double>(events), "count"};
}

}  // namespace perfbench
