// Integration and property tests for the High-Load Clarkson engine
// (Algorithm 5, Theorem 4) and its accelerated variant (Section 3.1).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/high_load.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_ball.hpp"
#include "problems/min_disk.hpp"
#include "support/test_support.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/lp_data.hpp"

namespace lpt {
namespace {

using core::HighLoadConfig;
using core::run_high_load;
using problems::MinDisk;
using workloads::DiskDataset;

class HighLoadOnDatasets
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HighLoadOnDatasets, FindsOptimum) {
  const auto [dataset_idx, seed] = GetParam();
  const auto dataset = workloads::kAllDiskDatasets[dataset_idx];
  const std::size_t n = 256;
  const auto pts = testsupport::make_disk_points(
                       dataset, n, static_cast<std::uint64_t>(seed));
  MinDisk p;
  HighLoadConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed) * 101 + 3;
  const auto res = run_high_load(p, pts, n, cfg);
  EXPECT_TRUE(res.stats.reached_optimum)
      << workloads::dataset_name(dataset);
  EXPECT_TRUE(p.same_value(res.solution, p.solve(pts)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HighLoadOnDatasets,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(1, 4)));

TEST(HighLoad, HighlyLoadedRegime) {
  // |H| = 16 n log n-ish: the regime Theorem 4 actually targets.
  MinDisk p;
  const std::size_t n = 64;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTripleDisk, 16 * n, 2);
  HighLoadConfig cfg;
  cfg.seed = 5;
  const auto res = run_high_load(p, pts, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  // |H(v_i)| concentrates around m/n (paper: (1 +/- eps) m/n w.h.p.).
  EXPECT_GE(res.extras.max_local_elements, pts.size() / n / 2);
}

TEST(HighLoad, RoundsScaleLogarithmically) {
  MinDisk p;
  const std::size_t n = 2048;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTriangle, n, 3);
  HighLoadConfig cfg;
  cfg.seed = 7;
  const auto res = run_high_load(p, pts, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  // Paper Section 5: about 1.1 log2(n); allow a generous factor.
  EXPECT_LE(res.stats.rounds_to_first, 5 * util::ceil_log2(n));
}

TEST(HighLoad, AcceleratedVariantIsFaster) {
  // Section 3.1: pushing the basis C times trades work for rounds.
  MinDisk p;
  const std::size_t n = 4096;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTripleDisk, n, 4);
  std::size_t rounds_c1 = 0, rounds_c4 = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    HighLoadConfig cfg;
    cfg.seed = seed;
    cfg.push_copies = 1;
    const auto r1 = run_high_load(p, pts, n, cfg);
    ASSERT_TRUE(r1.stats.reached_optimum);
    rounds_c1 += r1.stats.rounds_to_first;
    cfg.push_copies = 4;
    const auto r4 = run_high_load(p, pts, n, cfg);
    ASSERT_TRUE(r4.stats.reached_optimum);
    rounds_c4 += r4.stats.rounds_to_first;
  }
  EXPECT_LT(rounds_c4, rounds_c1);
}

TEST(HighLoad, AcceleratedWorkScalesWithC) {
  MinDisk p;
  const std::size_t n = 512;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTripleDisk, n, 5);
  HighLoadConfig cfg;
  cfg.seed = 11;
  cfg.push_copies = 1;
  const auto r1 = run_high_load(p, pts, n, cfg);
  cfg.push_copies = 8;
  const auto r8 = run_high_load(p, pts, n, cfg);
  ASSERT_TRUE(r1.stats.reached_optimum);
  ASSERT_TRUE(r8.stats.reached_optimum);
  // Basis pushes alone go from 1 to 8 per node per round.
  EXPECT_GT(r8.stats.max_work_per_round, r1.stats.max_work_per_round);
}

TEST(HighLoad, LoadGrowthIsBounded) {
  // After T rounds |H(V)| <= |H| + O(T C d n log n) w.h.p. (Section 3).
  MinDisk p;
  const std::size_t n = 512;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTriangle, n, 6);
  HighLoadConfig cfg;
  cfg.seed = 13;
  const auto res = run_high_load(p, pts, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  const std::size_t t = res.stats.rounds_to_first;
  const std::size_t d = p.dimension();
  const std::size_t bound =
      pts.size() + 8 * t * d * n * (util::ceil_log2(n) + 1);
  EXPECT_LE(res.stats.max_total_elements, bound);
}

TEST(HighLoad, SingleWPushStaysSmall) {
  // Lemma 15: |W_i| = O(d log n) w.h.p. for every received basis.
  MinDisk p;
  const std::size_t n = 1024;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTripleDisk, 4 * n, 7);
  HighLoadConfig cfg;
  cfg.seed = 17;
  const auto res = run_high_load(p, pts, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  const std::size_t d = p.dimension();
  EXPECT_LE(res.extras.max_single_w, 12 * d * (util::ceil_log2(n) + 1));
}

TEST(HighLoad, WithTerminationAllNodesOutputCorrectly) {
  MinDisk p;
  const std::size_t n = 128;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kTripleDisk, n, 8);
  HighLoadConfig cfg;
  cfg.seed = 19;
  cfg.run_termination = true;
  const auto res = run_high_load(p, pts, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  EXPECT_TRUE(res.stats.all_outputs_correct);
  EXPECT_GE(res.stats.rounds_to_all_output, res.stats.rounds_to_first);
}

TEST(HighLoad, WorksOnLpProblem) {
  util::Rng rng(9);
  const std::size_t n = 256;
  const auto inst = workloads::generate_lp_instance(2 * n, rng);
  problems::LinearProgram2D p(inst.objective);
  HighLoadConfig cfg;
  cfg.seed = 23;
  const auto res = run_high_load(p, inst.constraints, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  EXPECT_NEAR(res.solution.value.objective, inst.optimal_value, 1e-6);
}

TEST(HighLoad, DeterministicGivenSeed) {
  MinDisk p;
  const std::size_t n = 128;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kHull, n, 10);
  HighLoadConfig cfg;
  cfg.seed = 29;
  const auto a = run_high_load(p, pts, n, cfg);
  const auto b = run_high_load(p, pts, n, cfg);
  EXPECT_EQ(a.stats.rounds_to_first, b.stats.rounds_to_first);
  EXPECT_EQ(a.stats.total_push_ops, b.stats.total_push_ops);
}

TEST(HighLoad, SingleNodeSolvesImmediately) {
  MinDisk p;
  const auto pts =
      testsupport::make_disk_points(DiskDataset::kDuoDisk, 64, 11);
  HighLoadConfig cfg;
  cfg.seed = 31;
  const auto res = run_high_load(p, pts, 1, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  EXPECT_EQ(res.stats.rounds_to_first, 1u);
}

TEST(HighLoad, ChurnLeaveResetsLocalBasis) {
  // Nodes 0..7 leave in round 4 and rejoin in round 5, with push loss
  // stretching the run to 17 rounds.  Node 3, for one, has solved a
  // 3-element store when it leaves, proposes again from a 1-element store
  // in round 6 and holds 10 elements by round 17.  A leave that kept the
  // cache would test only the new store's tail against the old optimum;
  // LocalBasis's shrink check aborts that on the first refill round.
  MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::make_disk_points(DiskDataset::kHull, n, 41);
  core::ChurnSchedule churn;
  for (gossip::NodeId v = 0; v < 8; ++v) {
    churn.events.push_back({4, v, false});
    churn.events.push_back({5, v, true});
  }
  churn.sort();
  HighLoadConfig cfg;
  cfg.seed = 43;
  cfg.churn = &churn;
  cfg.faults.push_loss = 0.3;
  const auto res = run_high_load(p, pts, n, cfg);
  ASSERT_TRUE(res.stats.reached_optimum);
  EXPECT_TRUE(p.same_value(res.solution, p.solve(pts)));
  EXPECT_GE(res.stats.rounds_to_first, 12u);
}

// ---------------------------------------------------------------------------
// Pinned goldens.  The determinism tests compare a run with itself, so a
// change of the store's representation could stay self-consistent and
// still drift.  These constants were captured from the element-value store
// and must hold for every later representation: solution bits (an FNV-1a
// digest) and every DistributedRunStats / extras field.

/// FNV-1a over the object representation of trivially copyable values.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  template <typename T>
  void mix(const T& x) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &x, sizeof(T));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void mix_all(const std::vector<T>& xs) {
    mix(xs.size());
    for (const T& x : xs) mix(x);
  }
};

std::uint64_t digest(const problems::MinDiskSolution& s) {
  Digest d;
  d.mix(s.disk.center);
  d.mix(s.disk.radius);
  d.mix_all(s.basis);
  return d.h;
}

std::uint64_t digest(const problems::MinBallSolution<3>& s) {
  Digest d;
  d.mix(s.ball.center);
  d.mix(s.ball.radius);
  d.mix_all(s.basis);
  return d.h;
}

std::uint64_t digest(const problems::Lp2dSolution& s) {
  Digest d;
  d.mix(s.value.objective);
  d.mix(s.value.point);
  d.mix(s.value.infeasible);
  d.mix_all(s.basis);
  return d.h;
}

/// Every observable output of one run, flattened: the solution digest,
/// then DistributedRunStats in declaration order (rounds_to_first,
/// rounds_to_all_output, reached_optimum, all_outputs_correct,
/// max_work_per_round, total_push_ops, total_pull_ops, total_bytes,
/// initial/max/final_total_elements, sampling_attempts/failures,
/// bookkeeping_touches_total, last_round_bookkeeping_touches), then the
/// extras (max_local_elements, max_single_w).
using Golden = std::array<std::uint64_t, 18>;

template <typename P>
Golden flatten(const core::HighLoadResult<P>& r) {
  const auto& s = r.stats;
  return {digest(r.solution),
          s.rounds_to_first,
          s.rounds_to_all_output,
          s.reached_optimum,
          s.all_outputs_correct,
          s.max_work_per_round,
          s.total_push_ops,
          s.total_pull_ops,
          s.total_bytes,
          s.initial_total_elements,
          s.max_total_elements,
          s.final_total_elements,
          s.sampling_attempts,
          s.sampling_failures,
          s.bookkeeping_touches_total,
          s.last_round_bookkeeping_touches,
          r.extras.max_local_elements,
          r.extras.max_single_w};
}

std::string as_initializer(const Golden& g) {
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "0x%016llxull",
                static_cast<unsigned long long>(g[0]));
  std::string out = std::string("{") + digest_hex;
  for (std::size_t k = 1; k < g.size(); ++k) {
    out += ", " + std::to_string(g[k]);
  }
  return out + "}";
}

void expect_golden(const Golden& actual, const Golden& pinned,
                   const char* label) {
  EXPECT_TRUE(actual == pinned)
      << label << ": pinned " << as_initializer(pinned) << "\n"
      << label << ": actual " << as_initializer(actual);
}

TEST(HighLoad, GoldenCountsPinned) {
  {  // Algorithm 5 on the paper's hull dataset, n = 2^11.
    const MinDisk p;
    const auto pts =
        testsupport::make_disk_points(DiskDataset::kHull, 2048, 61);
    HighLoadConfig cfg;
    cfg.seed = 67;
    expect_golden(flatten(run_high_load(p, pts, 2048, cfg)),
                  Golden{0xb598de0cb61932daull, 11, 0, 1, 1, 55,
                   73859, 0, 1730864, 2048, 54726, 54726,
                   0, 0, 61547, 6020, 45, 22},
                  "hull 2^11");
  }
  {  // MinBall<3> with the Algorithm 3 termination protocol.
    const problems::MinBall<3> p;
    util::Rng rng(71);
    std::vector<geom::VecD<3>> pts(512);
    for (auto& q : pts) {
      for (std::size_t k = 0; k < 3; ++k) q[k] = rng.uniform(-3.0, 3.0);
    }
    HighLoadConfig cfg;
    cfg.seed = 73;
    cfg.run_termination = true;
    expect_golden(flatten(run_high_load(p, pts, 256, cfg)),
                  Golden{0xca6b9b2922669537ull, 4, 25, 1, 1, 41,
                   96280, 0, 5221589, 512, 8865, 8865,
                   0, 0, 16554, 573, 51, 17},
                  "minball3 + termination");
  }
  {  // LinearProgram2D, accelerated variant (C = 2).
    util::Rng rng(79);
    const auto inst = workloads::generate_lp_instance(512, rng);
    const problems::LinearProgram2D p(inst.objective);
    HighLoadConfig cfg;
    cfg.seed = 83;
    cfg.push_copies = 2;
    expect_golden(flatten(run_high_load(p, inst.constraints, 256, cfg)),
                  Golden{0xcdae45d25b4da4aaull, 6, 0, 1, 1, 31,
                   7695, 0, 237192, 512, 5219, 5219,
                   0, 0, 4414, 759, 32, 16},
                  "lp2d C=2");
  }
  {  // Hull 2^11 under 20% push loss with a leave/rejoin schedule: the
     // churn handoff moves whole stores between nodes.
    const MinDisk p;
    const auto pts =
        testsupport::make_disk_points(DiskDataset::kHull, 2048, 89);
    core::ChurnSchedule churn;
    for (gossip::NodeId v = 0; v < 2048; v += 16) {
      churn.events.push_back({3, v, false});
      churn.events.push_back({6, v, true});
    }
    churn.sort();
    HighLoadConfig cfg;
    cfg.seed = 97;
    cfg.faults.push_loss = 0.2;
    cfg.churn = &churn;
    expect_golden(flatten(run_high_load(p, pts, 2048, cfg)),
                  Golden{0xbd2c286bc224c229ull, 17, 0, 1, 1, 35,
                   97031, 0, 2409296, 2048, 53297, 53297,
                   0, 0, 91531, 5757, 42, 17},
                  "hull 2^11 loss + churn");
  }
}

}  // namespace
}  // namespace lpt
