// Unit tests for core::pull_sample, the Section 2.1 pull step: it draws
// only from the puller's stream (never the network's shared one), is a
// pure function of its inputs, never takes an answer from a sleeping or
// empty node, loses responses at the configured rate, and answers with the
// model's law — a uniform node, then a uniform element of that node.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "core/sampling.hpp"
#include "gossip/network.hpp"
#include "util/rng.hpp"

namespace lpt::core {
namespace {

using gossip::FaultModel;
using gossip::Network;
using gossip::NodeId;
using gossip::NodeStore;

// Element values encode their slot: 1000 * node + index within the node.
constexpr std::uint32_t kSlotStride = 1000;

NodeStore<std::uint32_t> make_store(const std::vector<std::size_t>& sizes) {
  NodeStore<std::uint32_t> store(sizes.size());
  for (std::size_t v = 0; v < sizes.size(); ++v) {
    for (std::size_t i = 0; i < sizes[v]; ++i) {
      store.add_original(static_cast<NodeId>(v),
                         static_cast<std::uint32_t>(v * kSlotStride + i));
    }
  }
  return store;
}

// Upper 99.9% quantile of chi-square with `df` degrees of freedom
// (Wilson–Hilferty; accurate to a few percent for df >= 3).
double chi2_crit_999(double df) {
  const double z = 3.090;
  const double a = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - a + z * std::sqrt(a), 3.0);
}

TEST(PullSample, LeavesNetworkStreamUntouched) {
  const auto store = make_store({3, 0, 5, 1, 2, 0, 4, 7});
  FaultModel faults;
  faults.response_loss = 0.2;
  faults.sleep_probability = 0.25;
  Network net(8, util::Rng(5), faults);
  net.begin_round();
  const util::RngState before = net.rng().state();
  util::Rng rng(9);
  std::vector<std::uint32_t> sink;
  for (int call = 0; call < 50; ++call) {
    pull_sample(store, net, 141, rng, sink);
  }
  EXPECT_EQ(net.rng().state(), before);
}

TEST(PullSample, SameInputStateGivesSameSampleAndState) {
  const auto store = make_store({3, 0, 5, 1, 2, 0, 4, 7});
  FaultModel faults;
  faults.response_loss = 0.3;
  Network net(8, util::Rng(5), faults);
  net.begin_round();
  util::Rng a(21);
  util::Rng b(21);
  std::vector<std::uint32_t> sink_a{99, 98};  // stale contents are replaced
  std::vector<std::uint32_t> sink_b;
  const std::uint64_t bytes_a = pull_sample(store, net, 141, a, sink_a);
  const std::uint64_t bytes_b = pull_sample(store, net, 141, b, sink_b);
  EXPECT_EQ(sink_a, sink_b);
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(bytes_a, sink_a.size() * sizeof(std::uint32_t));
  EXPECT_FALSE(sink_a.empty());
  // The stream advanced: a second call draws a different sample.
  std::vector<std::uint32_t> next;
  pull_sample(store, net, 141, a, next);
  EXPECT_NE(next, sink_a);
}

TEST(PullSample, AsleepAndEmptyTargetsNeverAnswer) {
  const std::size_t n = 64;
  std::vector<std::size_t> sizes(n);
  for (std::size_t v = 0; v < n; ++v) sizes[v] = v % 3 == 0 ? 0 : 1 + v % 4;
  const auto store = make_store(sizes);
  FaultModel faults;
  faults.sleep_probability = 0.3;
  Network net(n, util::Rng(17), faults);
  util::Rng rng(3);
  std::vector<std::uint32_t> sink;
  std::size_t answers = 0;
  for (int round = 0; round < 20; ++round) {
    net.begin_round();
    ASSERT_GT(net.asleep_count(), 0u);
    for (int call = 0; call < 10; ++call) {
      pull_sample(store, net, 100, rng, sink);
      for (const std::uint32_t e : sink) {
        const NodeId owner = e / kSlotStride;
        ASSERT_LT(owner, n);
        EXPECT_FALSE(net.asleep(owner)) << "sleeping node " << owner;
        EXPECT_NE(store.size(owner), 0u) << "empty node " << owner;
        EXPECT_LT(e % kSlotStride, store.size(owner));
      }
      answers += sink.size();
    }
  }
  EXPECT_GT(answers, 0u);
  // Fault-free, every node non-empty: every pull is answered.
  Network calm(n, util::Rng(17));
  calm.begin_round();
  const auto full = make_store(std::vector<std::size_t>(n, 2));
  pull_sample(full, calm, 141, rng, sink);
  EXPECT_EQ(sink.size(), 141u);
}

TEST(PullSample, LossFractionWithinBinomialInterval) {
  const std::size_t n = 128;
  const auto store = make_store(std::vector<std::size_t>(n, 3));
  FaultModel faults;
  faults.response_loss = 0.3;
  Network net(n, util::Rng(29), faults);
  net.begin_round();
  util::Rng rng(31);
  std::vector<std::uint32_t> sink;
  const std::size_t calls = 400;
  const std::size_t pulls = 141;
  std::size_t answered = 0;
  for (std::size_t c = 0; c < calls; ++c) {
    pull_sample(store, net, pulls, rng, sink);
    answered += sink.size();
  }
  const double total = static_cast<double>(calls * pulls);
  const double lost = (total - static_cast<double>(answered)) / total;
  // Two-sided 99.9% normal interval of a Binomial(total, 0.3) fraction.
  const double half = 3.291 * std::sqrt(0.3 * 0.7 / total);
  EXPECT_NEAR(lost, 0.3, half);
}

// Chi-square goodness of fit of slot frequencies against the pull law:
// P(slot i of node u) = 1/n * 1/|H(u)|, plus a "no answer" cell for empty
// targets.  On a balanced store this is the uniform law over H(V).
void expect_pull_law(const std::vector<std::size_t>& sizes,
                     std::uint64_t seed) {
  const std::size_t n = sizes.size();
  const auto store = make_store(sizes);
  Network net(n, util::Rng(seed));
  net.begin_round();
  util::Rng rng(seed + 1);
  std::vector<std::uint32_t> sink;
  const std::size_t calls = 2000;
  const std::size_t pulls = 50;
  std::map<std::uint32_t, double> seen;
  double answered = 0.0;
  for (std::size_t c = 0; c < calls; ++c) {
    pull_sample(store, net, pulls, rng, sink);
    for (const std::uint32_t e : sink) seen[e] += 1.0;
    answered += static_cast<double>(sink.size());
  }
  const double total = static_cast<double>(calls * pulls);
  double chi2 = 0.0;
  double cells = 0.0;
  double p_silent = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (sizes[v] == 0) {
      p_silent += 1.0 / static_cast<double>(n);
      continue;
    }
    for (std::size_t i = 0; i < sizes[v]; ++i) {
      const double expected =
          total / (static_cast<double>(n) * static_cast<double>(sizes[v]));
      const auto key = static_cast<std::uint32_t>(v * kSlotStride + i);
      const auto it = seen.find(key);
      const double observed = it == seen.end() ? 0.0 : it->second;
      chi2 += (observed - expected) * (observed - expected) / expected;
      cells += 1.0;
    }
  }
  if (p_silent > 0.0) {
    const double expected = total * p_silent;
    const double observed = total - answered;
    chi2 += (observed - expected) * (observed - expected) / expected;
    cells += 1.0;
  }
  EXPECT_LT(chi2, chi2_crit_999(cells - 1.0))
      << "chi2 over " << cells << " cells";
}

TEST(PullSample, ElementFrequenciesFollowPullLaw) {
  // Balanced loads: the pull law is uniform over all |H(V)| = 48 slots.
  expect_pull_law(std::vector<std::size_t>(16, 3), 41);
  // Skewed loads with empty nodes: a uniform node, then a uniform slot.
  expect_pull_law({1, 0, 2, 8, 0, 3, 1, 5, 13, 1, 0, 2}, 43);
}

}  // namespace
}  // namespace lpt::core
