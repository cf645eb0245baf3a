// The pull-based uniform multiset sampler of Section 2.1.
//
// A node asks s = c*(6d^2 + log2 n) uniformly random nodes (pull
// operations) for a uniformly random element of their current multiset and
// keeps `target` *distinct* returned elements, chosen at random; the
// sampling fails if fewer than `target` distinct elements arrive (Lemma 11:
// with c large enough this happens with polynomially small probability).
//
// `strict` toggles the theory-faithful failure rule.  With strict = false
// (the default used to reproduce the paper's experiments) a short sample is
// returned as-is: on instances with |H| < target the returned R is simply
// all elements seen, which reproduces the Figure 2 observation that
// instances below 2^8 points finish in one round.
//
// pull_sample() is the pull half: one node's s pulls, each drawing its
// target, its response-loss decision and the responder's element index
// from the *puller's* private stream.  The uniform gossip model makes every
// pull an independent uniform choice, so which stream draws it does not
// change the distribution — and a per-node stream lets the engines run the
// sampler inside their parallel stage A instead of a serial pre-pass.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace lpt::core {

namespace detail {

template <bool kFaults, typename Store, typename Sleep, typename Element>
void pull_sample_impl(const Store& store, const Sleep& sleep,
                      std::size_t pulls, util::Rng& rng,
                      std::vector<Element>& sink) {
  // Software-pipelined in blocks: draw a block's targets and prefetch their
  // store headers, then draw each answer index and prefetch the element,
  // then copy the elements out — so the block's cache misses overlap
  // instead of serializing (the pass is miss-bound).  Draw order per block:
  // all targets, then per pull its loss decision and answer index.
  constexpr std::size_t kBlock = 32;
  const std::size_t n = store.nodes();
  [[maybe_unused]] const double p = sleep.response_loss();
  [[maybe_unused]] gossip::LossStream loss;
  gossip::NodeId targets[kBlock];
  const Element* answers[kBlock];
  for (std::size_t done = 0; done < pulls; done += kBlock) {
    const std::size_t b = std::min(kBlock, pulls - done);
    for (std::size_t k = 0; k < b; ++k) {
      targets[k] = static_cast<gossip::NodeId>(rng.below(n));
      store.prefetch(targets[k]);
    }
    std::size_t m = 0;
    for (std::size_t k = 0; k < b; ++k) {
      const gossip::NodeId target = targets[k];
      if constexpr (kFaults) {
        if (sleep.asleep(target)) continue;          // sleepers never answer
        if (p > 0.0 && loss.drop(rng, p)) continue;  // response lost
      }
      const std::size_t sz = store.size(target);
      if (sz == 0) continue;
      answers[m] = &store.elem(target, rng.below(sz));
      __builtin_prefetch(answers[m]);
      ++m;
    }
    for (std::size_t k = 0; k < m; ++k) sink.push_back(*answers[k]);
  }
}

}  // namespace detail

/// The Section 2.1 pull step of one node: `pulls` pulls at uniformly random
/// nodes, each answered (unless the target sleeps, its response is lost,
/// or its multiset is empty) with a uniformly random element of the
/// target's current multiset.  Replaces `sink` with the answers, in pull
/// order, and returns their wire bytes for the caller to meter.
///
/// `store` is a gossip::NodeStore (in-process stage A) or the round's
/// gossip::StoreSnapshot (shard workers); `sleep` is the round's sleep and
/// response-loss view — the gossip::Network, or that same snapshot.  Both
/// pairs hold the same elements in the same order, so one stream state
/// draws the same sample from either.
///
/// Every draw comes from `rng` — the puller's private stream — and `store`
/// and `sleep` are only read, so concurrent calls for different nodes are
/// data-race-free while no store writes run (the engines' stage A).  Pull
/// ops are not metered here: their count is fixed per node, so the engines
/// meter them serially.  Response loss uses a geometric-gap LossStream local
/// to the call (one draw per lost response); the fault-free path carries
/// no fault branches.
template <typename Store, typename Sleep, typename Element>
std::uint64_t pull_sample(const Store& store, const Sleep& sleep,
                          std::size_t pulls, util::Rng& rng,
                          std::vector<Element>& sink) {
  sink.clear();
  if (sleep.response_loss() > 0.0 || sleep.asleep_count() > 0) {
    detail::pull_sample_impl<true>(store, sleep, pulls, rng, sink);
  } else {
    detail::pull_sample_impl<false>(store, sleep, pulls, rng, sink);
  }
  using gossip::wire_size;
  std::uint64_t bytes = 0;
  for (const Element& e : sink) bytes += wire_size(e);
  return bytes;
}

/// distinct_key(e) -> uint64 is the ADL customization point that unlocks
/// the hash-based dedupe fast path in select_distinct_into (it must be
/// consistent with operator==: equal elements, equal keys).  Elements
/// without one fall back to sort + unique.  The built-in overloads are
/// exact-type constrained so no element reaches them through a lossy
/// implicit conversion.
template <std::same_as<std::uint32_t> T>
std::uint64_t distinct_key(T v) noexcept {
  std::uint64_t h =
      (static_cast<std::uint64_t>(v) + 1) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 31);
}

template <std::same_as<double> T>
std::uint64_t distinct_key(T d) noexcept {
  // Normalize -0.0 so the key stays consistent with operator==.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(d == 0.0 ? 0.0 : d);
  std::uint64_t h = (bits + 1) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 31);
}

namespace detail {

template <typename Element>
concept HasDistinctKey = requires(const Element& e) {
  { distinct_key(e) } -> std::convertible_to<std::uint64_t>;
};

/// Compact `responses` to its distinct elements (arrival order preserved)
/// via open addressing; returns the distinct count.  O(k) expected versus
/// the O(k log k) sort with its branchy element comparisons — the dedupe
/// sat at ~20% of whole-simulation profiles before this path existed.
template <typename Element>
std::size_t dedupe_hashed(std::span<Element> responses) {
  // Epoch-stamped slots: a slot is live only if its upper bits match the
  // current call's epoch, so the table never needs clearing.  Each slot
  // packs (epoch << 32) | (compacted index + 1).
  static thread_local std::vector<std::uint64_t> slots;
  static thread_local std::uint64_t epoch = 0;
  const std::size_t cap =
      std::bit_ceil(std::max<std::size_t>(16, responses.size() * 2));
  if (slots.size() < cap) {
    slots.assign(cap, 0);
    epoch = 0;
  }
  ++epoch;
  if (epoch >> 32 != 0) {  // epoch space exhausted: hard reset
    slots.assign(slots.size(), 0);
    epoch = 1;
  }
  const std::uint64_t tag = epoch << 32;
  const std::uint64_t mask = slots.size() - 1;
  // Pass 1: hash everything in a dependency-free loop (the superscalar
  // core pipelines these); pass 2 probes with the precomputed keys.
  static thread_local std::vector<std::uint64_t> keys;
  keys.resize(responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    keys[i] = distinct_key(responses[i]);
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    std::uint64_t pos = keys[i] & mask;
    for (;;) {
      const std::uint64_t s = slots[pos];
      if ((s >> 32) != epoch) {
        slots[pos] = tag | (w + 1);
        responses[w++] = responses[i];
        break;
      }
      if (responses[(s & 0xffffffffULL) - 1] == responses[i]) break;  // dup
      pos = (pos + 1) & mask;
    }
  }
  return w;
}

}  // namespace detail

struct SamplerConfig {
  std::size_t target = 0;   // 6d^2 for Clarkson engines; r for Algorithm 6
  double c = 2.0;           // the "sufficiently large constant" c
  std::size_t log_n = 1;    // the nodes' (constant-factor) estimate of log n
  bool strict = false;      // fail on short samples (theory mode)

  std::size_t pulls_per_node() const noexcept {
    const double s = c * (static_cast<double>(target) +
                          static_cast<double>(log_n));
    return static_cast<std::size_t>(s) + 1;
  }
};

/// Outcome of one node's sampling attempt.
template <typename Element>
struct SampleOutcome {
  std::vector<Element> sample;  // R_i (empty on failure)
  bool success = false;
};

/// Select `target` distinct elements at random from the pull responses,
/// clobbering `responses` and writing into `out` (both buffers keep their
/// capacity, so the per-round steady state allocates nothing).  Dedupe is
/// hash-based when the element provides distinct_key() (O(k)), else
/// sort + unique; a partial Fisher–Yates pass then randomizes the
/// selection as the paper prescribes ("selects 6d^2 distinct elements at
/// random") with O(target) RNG draws instead of a full shuffle.
template <typename Element>
void select_distinct_into(std::span<Element> responses, std::size_t target,
                          util::Rng& rng, bool strict,
                          SampleOutcome<Element>& out);  // defined below

/// Vector overload (clobbers `responses`' order, keeps its capacity).
template <typename Element>
void select_distinct_into(std::vector<Element>& responses, std::size_t target,
                          util::Rng& rng, bool strict,
                          SampleOutcome<Element>& out) {
  select_distinct_into(std::span<Element>(responses), target, rng, strict,
                       out);
}

/// Zero-copy view of one sampling attempt: `sample` aliases a prefix of the
/// (reordered) `responses` buffer and is valid only until that buffer is
/// next written.  `randomized` reports whether the sample's order went
/// through the Fisher–Yates pass (lenient short samples keep their dedupe
/// order and are NOT uniformly ordered — callers relying on random input
/// order, e.g. shuffle-free Welzl, must check it).
template <typename Element>
struct SampleView {
  std::span<const Element> sample;
  bool success = false;
  bool randomized = false;
};

/// Like select_distinct_into but without materializing the sample: the
/// returned view points into `responses`.  Used by the engines' hot path,
/// where the sample is consumed by one local solve and discarded.
template <typename Element>
SampleView<Element> select_distinct_view(std::span<Element> responses,
                                         std::size_t target, util::Rng& rng,
                                         bool strict) {
  SampleView<Element> out;
  std::size_t m;
  if constexpr (detail::HasDistinctKey<Element>) {
    m = detail::dedupe_hashed(responses);
  } else {
    std::sort(responses.begin(), responses.end());
    m = static_cast<std::size_t>(
        std::unique(responses.begin(), responses.end()) - responses.begin());
  }
  if (m >= target) {
    for (std::size_t i = 0; i < target; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.below(m - i));
      using std::swap;
      swap(responses[i], responses[j]);
    }
    out.sample = responses.first(target);
    out.success = true;
    out.randomized = true;
    return out;
  }
  if (strict) return out;
  // Lenient mode: everything seen (small-instance behaviour of Figure 2).
  out.sample = responses.first(m);
  out.success = m > 0;
  return out;
}

template <typename Element>
void select_distinct_into(std::span<Element> responses, std::size_t target,
                          util::Rng& rng, bool strict,
                          SampleOutcome<Element>& out) {
  const SampleView<Element> view =
      select_distinct_view(responses, target, rng, strict);
  out.success = view.success;
  out.sample.assign(view.sample.begin(), view.sample.end());
}

/// Value-returning convenience wrapper.
template <typename Element>
SampleOutcome<Element> select_distinct(std::vector<Element> responses,
                                       std::size_t target, util::Rng& rng,
                                       bool strict) {
  SampleOutcome<Element> out;
  select_distinct_into(responses, target, rng, strict, out);
  return out;
}

}  // namespace lpt::core
