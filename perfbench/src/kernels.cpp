// Kernel replays for the per-layer split: MinDisk::solve (Welzl) at the
// sizes the workloads feed it, and the Seidel 2D LP at the service's LP
// query size.  Each kernel runs in timed batches; the metric is the median
// batch's time per solve.
#include <vector>

#include "perfbench.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_disk.hpp"
#include "workloads/lp_data.hpp"

namespace perfbench {

namespace {

constexpr double kBudgetS = 0.25;  // per kernel
constexpr std::size_t kInputs = 32;

/// Median over timed batches of the per-call time in microseconds; every
/// call's result goes through `check` so the work cannot be elided.
template <typename Call>
double batch_median_us(std::size_t calls_per_batch, Call&& call) {
  std::vector<double> per_call_us;
  const auto t_end = Clock::now() + std::chrono::duration<double>(kBudgetS);
  std::size_t i = 0;
  while (per_call_us.size() < 5 || Clock::now() < t_end) {
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < calls_per_batch; ++c) call(i++);
    per_call_us.push_back(seconds_since(t0) * 1e6 /
                          static_cast<double>(calls_per_batch));
  }
  return median(per_call_us);
}

}  // namespace

void replay_kernels(const std::vector<lpt::geom::Vec2>& pool,
                    std::uint64_t seed, Report& rep) {
  using lpt::geom::Vec2;
  const lpt::problems::MinDisk p;
  lpt::util::Rng rng(mix64(seed ^ 0x6b65726eULL));
  struct Size {
    const char* metric;
    std::size_t points;
    std::size_t calls;
  };
  const Size sizes[] = {{"geometry.welzl_sample_us", 24, 2000},
                        {"geometry.welzl_query_us", 256, 200},
                        {"geometry.welzl_large_us", 4096, 10}};
  for (const Size& s : sizes) {
    std::vector<std::vector<Vec2>> inputs(kInputs);
    std::vector<lpt::problems::MinDiskSolution> expect(kInputs);
    for (std::size_t k = 0; k < kInputs; ++k) {
      inputs[k].reserve(s.points);
      for (std::size_t j = 0; j < s.points; ++j) {
        inputs[k].push_back(pool[rng.below(pool.size())]);
      }
      expect[k] = p.solve(inputs[k]);
    }
    bool ok = true;
    const double us = batch_median_us(s.calls, [&](std::size_t i) {
      ok = ok && p.solve(inputs[i % kInputs]) == expect[i % kInputs];
    });
    rep.check(ok, std::string(s.metric) + ": replay diverged");
    rep.layer[s.metric] = {us, "us"};
  }

  std::vector<lpt::workloads::LpInstance> lps(kInputs);
  std::vector<lpt::problems::Lp2dSolution> expect(kInputs);
  for (std::size_t k = 0; k < kInputs; ++k) {
    lps[k] = lpt::workloads::generate_lp_instance(256, rng);
    expect[k] = lpt::problems::LinearProgram2D(lps[k].objective)
                    .solve(lps[k].constraints);
  }
  bool ok = true;
  const double us = batch_median_us(200, [&](std::size_t i) {
    const auto& inst = lps[i % kInputs];
    ok = ok && lpt::problems::LinearProgram2D(inst.objective)
                       .solve(inst.constraints) == expect[i % kInputs];
  });
  rep.check(ok, "lp.seidel_query_us: replay diverged");
  rep.layer["lp.seidel_query_us"] = {us, "us"};
}

}  // namespace perfbench
