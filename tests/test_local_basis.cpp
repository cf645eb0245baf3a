// Unit tests for the high-load engine's incremental local solve
// (core::detail::LocalBasis): random append batches on every problem
// adapter, the working-set cap's fallback, and the reset a cleared store
// needs.  As in the engine, a store is a sequence of element ids into a
// table of values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <numeric>
#include <vector>

#include "core/high_load.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_ball.hpp"
#include "problems/min_disk.hpp"
#include "problems/min_interval.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/lp_data.hpp"

namespace lpt {
namespace {

using geom::Vec2;
using problems::MinDisk;
using workloads::DiskDataset;

template <typename P>
using Local = core::detail::LocalBasis<P>;

/// Ids 0..k-1: a store holding each of the first k table elements once,
/// in table order.
std::vector<std::uint32_t> iota_ids(std::size_t k) {
  std::vector<std::uint32_t> ids(k);
  std::iota(ids.begin(), ids.end(), std::uint32_t{0});
  return ids;
}

/// Append the ids `order` (into `table`) to a store in random batches of
/// 1..8, updating a LocalBasis after every batch.  After each update the
/// cached solution must have a from-scratch solve's value, no store
/// element may violate it, and sent() must be from_basis of its basis.
/// Returns the number of fallbacks taken.
template <typename P>
std::size_t feed_batches(const P& p,
                         const std::vector<typename P::Element>& table,
                         const std::vector<std::uint32_t>& order,
                         std::uint64_t seed, std::size_t cap) {
  util::Rng rng(seed);
  Local<P> local;
  std::vector<std::uint32_t> ids;
  std::vector<typename P::Element> store, work;  // store: ids' values
  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i < order.size();) {
    const std::size_t batch = 1 + rng.below(8);
    for (std::size_t k = 0; k < batch && i < order.size(); ++k) {
      ids.push_back(order[i]);
      store.push_back(table[order[i++]]);
    }
    if (local.update(p, ids, table, work, cap)) ++fallbacks;
    const auto& sol = local.solution();
    EXPECT_TRUE(p.same_value(sol, p.solve(store)))
        << "store size " << store.size();
    EXPECT_EQ(core::count_violators(p, sol, std::span(store)), 0u)
        << "store size " << store.size();
    EXPECT_TRUE(local.sent() == p.from_basis(sol.basis));
    EXPECT_EQ(local.solved_size(), store.size());
  }
  return fallbacks;
}

/// feed_batches over every element of `pool`, once each, in order.
template <typename P>
std::size_t feed_batches(const P& p,
                         const std::vector<typename P::Element>& pool,
                         std::uint64_t seed, std::size_t cap) {
  return feed_batches(p, pool, iota_ids(pool.size()), seed, cap);
}

/// Points sorted by distance from the origin: nearly every batch carries a
/// violator, so the working-set path runs on almost every update.
std::vector<Vec2> outward(std::vector<Vec2> pts) {
  std::sort(pts.begin(), pts.end(), [](const Vec2& a, const Vec2& b) {
    return a.x * a.x + a.y * a.y < b.x * b.x + b.y * b.y;
  });
  return pts;
}

TEST(LocalBasis, MinDiskHull) {
  const MinDisk p;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const auto pts = testsupport::make_disk_points(DiskDataset::kHull, 400,
                                                   seed);
    EXPECT_EQ(feed_batches(p, pts, seed, p.dimension() + 1), 0u);
    feed_batches(p, outward(pts), seed + 10, p.dimension() + 1);
  }
}

TEST(LocalBasis, MinDiskCocircular) {
  // Every point on the unit circle: the optimum is tied between many
  // bases, the case where tolerance decides which one a solve returns.
  const MinDisk p;
  util::Rng rng(4);
  std::vector<Vec2> pts;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
    pts.push_back({std::cos(a), std::sin(a)});
  }
  feed_batches(p, pts, 5, p.dimension() + 1);
}

TEST(LocalBasis, MinDiskAllIdentical) {
  const MinDisk p;
  const std::vector<Vec2> pts(200, Vec2{2.5, -1.5});
  EXPECT_EQ(feed_batches(p, pts, 6, p.dimension() + 1), 0u);
}

TEST(LocalBasis, MinDiskDuplicateHeavy) {
  // 12 distinct points, each repeated many times in random order: the
  // store holds many ids of one element and the working set many copies
  // of its value.
  const MinDisk p;
  const auto distinct =
      testsupport::make_disk_points(DiskDataset::kTriangle, 12, 7);
  util::Rng rng(8);
  std::vector<std::uint32_t> order;
  for (int i = 0; i < 500; ++i) {
    order.push_back(static_cast<std::uint32_t>(rng.below(12)));
  }
  feed_batches(p, distinct, order, 9, p.dimension() + 1);
}

TEST(LocalBasis, LinearProgram2D) {
  util::Rng rng(10);
  const auto inst = workloads::generate_lp_instance(400, rng);
  const problems::LinearProgram2D p(inst.objective);
  feed_batches(p, inst.constraints, 11, p.dimension() + 1);
}

TEST(LocalBasis, LinearProgram2DFirstBasisEmpty) {
  // Constraints slack at the bounding box's optimum corner: the first
  // solve returns an empty basis, whose from_basis is the box corner, not
  // a default-constructed solution.  Receivers test their stores against
  // sent(), so it must hold from the very first update.
  util::Rng rng(20);
  const auto inst = workloads::generate_lp_instance(200, rng);
  const problems::LinearProgram2D p(inst.objective);
  const geom::Vec2 diag{std::numbers::sqrt2 / 2, std::numbers::sqrt2 / 2};
  std::vector<lp::Halfplane> pool;
  for (int k = 0; k < 8; ++k) pool.push_back({diag, static_cast<double>(k)});

  Local<problems::LinearProgram2D> local;
  std::vector<lp::Halfplane> work;
  local.update(p, iota_ids(2), pool, work, p.dimension() + 1);
  ASSERT_TRUE(local.solution().basis.empty());
  EXPECT_EQ(local.sent(), p.from_basis({}));

  // A first batch of 1..8 elements holds only the slack constraints.
  pool.insert(pool.end(), inst.constraints.begin(), inst.constraints.end());
  feed_batches(p, pool, 21, p.dimension() + 1);
}

TEST(LocalBasis, MinBall3) {
  const problems::MinBall<3> p;
  util::Rng rng(12);
  std::vector<geom::VecD<3>> pts(300);
  for (auto& q : pts) {
    for (std::size_t i = 0; i < 3; ++i) q[i] = rng.uniform(-1.0, 1.0);
  }
  feed_batches(p, pts, 13, p.dimension() + 1);
}

TEST(LocalBasis, MinInterval) {
  const problems::MinInterval p;
  util::Rng rng(14);
  std::vector<double> xs(300);
  for (double& x : xs) x = static_cast<double>(rng.below(50));  // duplicates
  feed_batches(p, xs, 15, p.dimension() + 1);
}

TEST(LocalBasis, UnchangedWhenNoArrivalViolates) {
  const MinDisk p;
  Local<MinDisk> local;
  std::vector<Vec2> store{{-1, 0}, {1, 0}}, work;
  EXPECT_FALSE(local.update(p, iota_ids(store.size()), store, work, 4));
  const auto before = local.solution();
  const auto sent_before = local.sent();
  store.push_back({0, 0.5});  // inside the unit disk
  store.push_back({0.2, -0.1});
  EXPECT_FALSE(local.update(p, iota_ids(store.size()), store, work, 4));
  EXPECT_EQ(local.solution(), before);
  EXPECT_EQ(local.sent(), sent_before);
  EXPECT_EQ(local.solved_size(), store.size());
  store.push_back({3, 0});
  EXPECT_FALSE(local.update(p, iota_ids(store.size()), store, work, 4));
  EXPECT_NE(local.solution(), before);
  EXPECT_TRUE(p.same_value(local.solution(), p.solve(store)));
}

TEST(LocalBasis, CapExhaustedFallsBackToFullSolve) {
  // A cap of 0 admits no working-set candidate: every update that sees a
  // violating arrival must fall back to exactly p.solve(store), bit for
  // bit.
  const MinDisk p;
  const auto pts = outward(
      testsupport::make_disk_points(DiskDataset::kHull, 200, 16));
  Local<MinDisk> local;
  std::vector<Vec2> store, work;
  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i < pts.size(); i += 5) {
    store.insert(store.end(), pts.begin() + static_cast<std::ptrdiff_t>(i),
                 pts.begin() + static_cast<std::ptrdiff_t>(i + 5));
    if (local.update(p, iota_ids(store.size()), pts, work, 0)) {
      ++fallbacks;
      EXPECT_EQ(local.solution(), p.solve(store));
      EXPECT_EQ(local.sent(), p.from_basis(local.solution().basis));
    }
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(feed_batches(p, pts, 17, 0), 0u);
}

TEST(LocalBasis, ResetThenRefillPastOldSize) {
  // A cleared store refilled with other elements past its old size: the
  // cache must be rebuilt from the new store, not extended from the old.
  const MinDisk p;
  Local<MinDisk> local;
  std::vector<Vec2> work;
  std::vector<Vec2> old_store{{-10, 0}, {10, 0}, {0, 10}, {0, 1}};
  local.update(p, iota_ids(old_store.size()), old_store, work, 4);
  local.reset();
  EXPECT_EQ(local.solved_size(), 0u);
  std::vector<Vec2> store{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}};
  EXPECT_FALSE(local.update(p, iota_ids(store.size()), store, work, 4));
  EXPECT_EQ(local.solution(), p.solve(store));
  EXPECT_EQ(local.sent(), p.from_basis(local.solution().basis));
}

TEST(LocalBasisDeathTest, ShrunkStoreWithoutResetAborts) {
  const MinDisk p;
  Local<MinDisk> local;
  std::vector<Vec2> work;
  const std::vector<Vec2> store{{0, 0}, {1, 0}, {0, 1}};
  const std::vector<std::uint32_t> ids = iota_ids(store.size());
  local.update(p, ids, store, work, 4);
  EXPECT_DEATH(local.update(p, std::span(ids).first(1), store, work, 4),
               "store shrank");
}

}  // namespace
}  // namespace lpt
