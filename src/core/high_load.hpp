// The High-Load Clarkson Algorithm (paper Section 3: Algorithm 5) and its
// accelerated variant (Section 3.1).
//
// Setting: |H| up to poly(n).  Per round every node v_i:
//
//   1. computes an optimal basis B_i of its local multiset H(v_i),
//   2. pushes B_i to C uniformly random nodes (C = 1 is Algorithm 5;
//      C = log^eps n gives the accelerated O(d log n / log log n) variant),
//   3. for every received basis B_j, pushes its local violators
//      W_j = { h in H(v_i) : f(B_j) < f(B_j + h) } to random nodes.
//
// There is no filtering; |H(V)| grows by O(C d n log n) per round w.h.p.
// (Lemma 15, the paper's Chernoff-style higher-moment bound), while copies
// of some optimal-basis element multiply by (C+1) per d rounds (Lemmas 16
// and 17), which forces termination within O(d log n / log(C+1)) rounds.
//
// Theorem 4: O(d log n) rounds at O(d log n) work per round (C = 1), or
// O(d log n / log log n) rounds at O(d log^{1+eps} n) work.
// bench/fig3_high_load reproduces Figure 3; bench/thm4_accelerated sweeps C.
//
// ## Simulator cost per round (the large-n engine contract)
//
// Stores and messages hold element ids, not element copies.  Every
// element a node holds is a copy of one of the run's input elements, so
// node v's H(v_i) is a sequence of u32 indices into h_set — the element
// table, alive for the whole run at no extra memory — kept in a
// slab-backed gossip::NodeStore<std::uint32_t> (O(1) incremental |H(V)|,
// contiguous per-node storage).  A violator push is a detail::ElemRef
// carrying one id, and the per-node violator lists and the churn handoff
// hold ids.  Every solve and violation test reads values through the
// table in the order a value store would hold them, so ids change no RNG
// draw, solve input or count.  Metered bytes are element bytes:
// wire_size(ElemRef<Element>) is sizeof(Element), what a real wire
// carries.
//
// Every per-round walk runs over the *occupied* node list — the sorted
// ids of nodes holding at least one element, grown incrementally from the
// delivery receiver lists — or over the CSR receiver lists themselves.
// Early rounds therefore cost O(occupied + messages) instead of O(n); once
// the element spread saturates (occupied ~ n) every visited node is doing
// real per-round algorithm work, so the bookkeeping stays proportional to
// useful work.
// DistributedRunStats::last_round_bookkeeping_touches records the final
// round's bookkeeping node-touches.
//
// The local solve is incremental (detail::LocalBasis): H(v_i) only grows,
// so a node whose arrivals all satisfy its cached optimum costs
// O(arrivals) per round, and a node whose optimum changed costs a solve
// of a small working set plus an O(|H(v_i)|) verification scan.  Each
// sender derives the solution its receivers test against
// (p.from_basis(B_i)) once per re-solve; the basis message carries
// the sender's id and is metered at the basis's byte size.
//
// ## Determinism
//
// One run is a pure function of (problem, h_set, n_nodes, cfg).
// cfg.parallel_nodes only moves the stage-A compute (local basis solves,
// violator scans — node-local state, no RNG) onto a pool; every shared-RNG
// effect (basis and violator pushes) is replayed serially in ascending
// node order over the sorted occupied list, so results are bit-identical
// for every thread count.  A node's solution is value-identical to a
// from-scratch p.solve of its store; under tolerance ties it can be a
// different basis of the same value than the from-scratch solve returns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/churn.hpp"
#include "core/lp_type.hpp"
#include "core/result.hpp"
#include "core/termination.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace lpt::core {

/// Configuration for run_high_load.  Every field participates in the
/// determinism contract above except parallel_nodes, which is guaranteed
/// not to (bit-identical results for any value).
struct HighLoadConfig {
  std::uint64_t seed = 1;
  std::size_t push_copies = 1;   // the C of Section 3.1 (1 = Algorithm 5)
  bool run_termination = false;  // run Algorithm 3 until every node outputs
  std::size_t termination_maturity = 0;  // 0: 2*ceil(log2 n) + 4
  std::size_t max_rounds = 0;            // 0: auto safety cap
  gossip::FaultModel faults;             // message loss / sleeping nodes
  const ChurnSchedule* churn = nullptr;  // nodes leaving/joining mid-run with
                                         // store handoff (core/churn.hpp);
                                         // incompatible with run_termination
  std::size_t parallel_nodes = 0;  // >1: local basis solves and violator
                                   // scans run on this many threads; shared
                                   // RNG traffic is replayed serially in
                                   // node order, so results are
                                   // bit-identical to the serial run.  The
                                   // pool lives for one run: combining with
                                   // a bench-level --threads sweep
                                   // oversubscribes — pick one level.
};

namespace detail {

/// Wire message announcing a basis.  A real wire carries the sender's
/// basis (<= d elements, i.e. O(d log n) bits); the simulator carries the
/// sender's id instead and receivers read the sender's precomputed
/// solution (LocalBasis::sent) after the delivery barrier.  wire_size()
/// charges the basis bytes, so the metered traffic is the real one.
template <typename Element>
struct BasisMsg {
  gossip::NodeId sender = 0;
  std::uint32_t basis_bytes = 0;

  static BasisMsg announce(gossip::NodeId sender,
                           std::span<const Element> basis) noexcept {
    return {sender, static_cast<std::uint32_t>(basis.size() * sizeof(Element))};
  }

  friend std::size_t wire_size(const BasisMsg& m) noexcept {
    return m.basis_bytes;
  }
};

/// Wire message carrying one violator: the element's id in h_set.  A real
/// wire carries the element itself, so wire_size() charges its bytes.
template <typename Element>
struct ElemRef {
  std::uint32_t id = 0;

  friend std::size_t wire_size(const ElemRef&) noexcept {
    return sizeof(Element);
  }
};

/// A node's incremental local solve (stage A1).  High load never filters,
/// so H(v) only grows between resets, and the cached optimum of the first
/// solved_size() elements stays optimal for the grown store unless an
/// appended element violates it (LP-type locality).  Otherwise the optimum
/// is rebuilt from a working set W: the cached basis plus the violating
/// arrivals.  Each candidate p.solve(W) is verified against the whole
/// store, and the store's violators join W until none remains.  W only
/// grows: p.solve(W) can return a candidate that an element of W itself
/// violates (MinDisk on near-cocircular points), and a W replaced by
/// basis ∪ violators can then cycle.  After `cap` candidates the node
/// falls back to p.solve(store).
///
/// sent() is p.from_basis(solution().basis): the solution receivers test
/// their stores against, computed whenever the solution is re-solved
/// instead of once per received message (from_basis is a pure function of
/// the basis).
template <LpTypeProblem P>
class LocalBasis {
 public:
  using Element = typename P::Element;
  using Solution = typename P::Solution;

  /// Bring the solution up to date with the store `ids` (element ids
  /// into `table`), which must extend the store of the previous call
  /// (append-only).  `work` is caller-owned scratch for W, and for the
  /// gathered store values a full solve takes.  Returns true iff the cap
  /// was exhausted and the node fell back to p.solve(store).
  bool update(const P& p, std::span<const std::uint32_t> ids,
              std::span<const Element> table, std::vector<Element>& work,
              std::size_t cap) {
    LPT_CHECK_MSG(ids.size() >= solved_,
                  "LocalBasis: store shrank without reset()");
    if (solved_ == 0) {
      adopt(p, solve_store(p, ids, table, work), ids.size());
      return false;
    }
    work.assign(sol_.basis.begin(), sol_.basis.end());
    const std::size_t basis_size = work.size();
    for (const std::uint32_t id : ids.subspan(solved_)) {
      if (p.violates(sol_, table[id])) work.push_back(table[id]);
    }
    solved_ = ids.size();
    if (work.size() == basis_size) return false;
    for (std::size_t it = 0; it < cap; ++it) {
      Solution cand = p.solve(std::span<const Element>(work));
      const std::size_t before = work.size();
      for (const std::uint32_t id : ids) {
        if (p.violates(cand, table[id])) work.push_back(table[id]);
      }
      if (work.size() == before) {
        adopt(p, std::move(cand), ids.size());
        return false;
      }
    }
    adopt(p, solve_store(p, ids, table, work), ids.size());
    return true;
  }

  /// Forget the cache: the store was cleared (a churn leave).
  void reset() noexcept { solved_ = 0; }

  const Solution& solution() const noexcept { return sol_; }
  const Solution& sent() const noexcept { return sent_; }
  std::size_t solved_size() const noexcept { return solved_; }

 private:
  /// p.solve of the store's values, gathered into `work` in store order.
  static Solution solve_store(const P& p, std::span<const std::uint32_t> ids,
                              std::span<const Element> table,
                              std::vector<Element>& work) {
    work.clear();
    for (const std::uint32_t id : ids) work.push_back(table[id]);
    return p.solve(std::span<const Element>(work));
  }

  // Every caller has just solved and scanned the store, so one more
  // from_basis per adopted solution is noise next to that.
  void adopt(const P& p, Solution sol, std::size_t solved) {
    sol_ = std::move(sol);
    solved_ = solved;
    sent_ = p.from_basis(sol_.basis);
  }

  Solution sol_{};
  Solution sent_{};
  std::size_t solved_ = 0;  // store size sol_ is the optimum of; 0: none
};

}  // namespace detail

template <LpTypeProblem P>
struct HighLoadResultExtras {
  std::size_t max_local_elements = 0;  // max |H(v_i)| seen (Lemma: (1±eps)m/n)
  std::size_t max_single_w = 0;        // max |W_j| pushed at once (Lemma 15)
};

template <LpTypeProblem P>
struct HighLoadResult {
  typename P::Solution solution;
  DistributedRunStats stats;
  HighLoadResultExtras<P> extras;
};

template <LpTypeProblem P>
HighLoadResult<P> run_high_load(const P& p,
                                std::span<const typename P::Element> h_set,
                                std::size_t n_nodes,
                                const HighLoadConfig& cfg = {}) {
  using Element = typename P::Element;
  using Msg = detail::BasisMsg<Element>;
  using Ref = detail::ElemRef<Element>;

  HighLoadResult<P> res;
  const std::size_t d = p.dimension();
  const std::size_t n = n_nodes;
  const std::size_t c_copies = cfg.push_copies ? cfg.push_copies : 1;
  LPT_CHECK(n >= 1 && d >= 1);
  LPT_CHECK(h_set.size() <= UINT32_MAX);  // stores hold u32 ids into h_set
  const auto oracle = p.solve(h_set);
  if (h_set.empty()) {
    res.solution = oracle;
    res.stats.reached_optimum = true;
    return res;
  }

  util::Rng master(cfg.seed);
  gossip::Network net(n, master.child(0), cfg.faults);
  util::Rng dist_rng = master.child(1);

  gossip::NodeStore<std::uint32_t> store(n);  // ids into h_set
  for (std::size_t i = 0; i < h_set.size(); ++i) {
    store.add_copy(static_cast<gossip::NodeId>(dist_rng.below(n)),
                   static_cast<std::uint32_t>(i));
  }

  // The sorted ids of nodes that have *ever* held an element.  Occupancy is
  // monotone even under churn (a leaver stays listed with an empty store and
  // is skipped by the per-round stages): newly occupied nodes are collected
  // from each delivery's receiver list — deduplicated via occ_flag — and
  // merged in.
  std::vector<gossip::NodeId> occupied;
  std::vector<std::uint8_t> occ_flag(n, 0);
  for (gossip::NodeId v = 0; v < n; ++v) {
    if (store.size(v) != 0) {
      occupied.push_back(v);
      occ_flag[v] = 1;
    }
  }
  std::vector<gossip::NodeId> newly_occupied;

  // Churn (core/churn.hpp): membership bookkeeping plus a schedule cursor.
  const bool churn_on = cfg.churn != nullptr && !cfg.churn->empty();
  LPT_CHECK_MSG(!(churn_on && cfg.run_termination),
                "run_high_load: churn is incompatible with run_termination");
  std::optional<ChurnState> members;
  if (churn_on) members.emplace(n);
  detail::ChurnCursor churn_cursor(churn_on ? cfg.churn : nullptr);
  std::vector<std::uint32_t> handoff_scratch;
  auto absent = [&](gossip::NodeId v) {
    return churn_on && !members->present(v);
  };

  const std::size_t maturity = cfg.termination_maturity
                                   ? cfg.termination_maturity
                                   : 2 * (util::ceil_log2(n) + 2);
  const std::size_t max_rounds =
      cfg.max_rounds ? cfg.max_rounds
                     : 60 * d * (util::ceil_log2(n) + 2) + 8 * maturity + 60;
  // Round-bound hint: keeps the meter's per-round push_back realloc-free.
  net.meter().reserve_rounds(max_rounds + 1);

  gossip::Mailbox<Msg> basis_mail(net);
  gossip::Mailbox<Ref> elem_mail(net);
  TerminationProtocol<P> term(p, net, maturity);
  std::vector<Element> term_view;  // one node's store values, for term

  res.stats.initial_total_elements = store.total_elements();
  res.stats.max_total_elements = res.stats.initial_total_elements;

  // Per-node state for the compute stages, persistent across rounds (the
  // cached local optimum; scratch vectors keep their capacity).  Only
  // occupied nodes are ever visited; the rest keep their zero-initialized
  // state.
  struct NodeRound {
    detail::LocalBasis<P> local;     // cached local optimum (stage A1)
    std::uint8_t has_sol = 0;        // proposed a basis this round
    std::uint8_t fell_back = 0;      // A1 hit the incremental cap
    std::vector<std::uint32_t> violators;  // ids, across all received
                                           // bases, in order
    std::size_t max_single_w = 0;    // largest per-basis W_j this round
  };
  std::vector<NodeRound> scratch(n);
  std::uint64_t local_fallbacks = 0;

  std::optional<util::ThreadPool> pool;
  if (cfg.parallel_nodes > 1) pool.emplace(cfg.parallel_nodes);
  auto for_each_occupied = [&](auto&& body) {
    if (pool) {
      util::parallel_for(*pool, occupied.size(),
                         [&](std::size_t k) { body(occupied[k]); });
    } else {
      for (const gossip::NodeId v : occupied) body(v);
    }
  };

  bool found = false;
  for (std::size_t t = 1; t <= max_rounds; ++t) {
    net.begin_round();
    obs::trace_tick();  // rounds are the engine's sampling unit
    obs::TraceSpan round_span("high_load.round", t);
    std::size_t bookkeeping = 0;

    // --- Churn events due this round.  A leaver hands its whole store off
    // to uniformly random present nodes (all high-load elements are copies)
    // and then sits empty; a joiner simply becomes present again and
    // refills through normal deliveries.  The leaver's ids are staged
    // through scratch first: add_copy on a target can grow the slab arena
    // the leaver's view points into.
    for (const ChurnEvent& ev : churn_cursor.events_due(t)) {
      const gossip::NodeId v = ev.node;
      if (ev.join) {
        members->join(v);
        continue;
      }
      members->leave(v);  // before handoff: targets exclude the leaver
      scratch[v].local.reset();  // its store is about to be cleared
      const std::span<const std::uint32_t> view = store.view(v);
      if (view.empty()) continue;
      handoff_scratch.assign(view.begin(), view.end());
      store.clear_node(v);
      newly_occupied.clear();
      for (const std::uint32_t h : handoff_scratch) {
        const gossip::NodeId target = members->draw_present(net.rng());
        if (!occ_flag[target]) {
          occ_flag[target] = 1;
          newly_occupied.push_back(target);
        }
        store.add_copy(target, h);
      }
      if (!newly_occupied.empty()) {
        std::sort(newly_occupied.begin(), newly_occupied.end());
        const std::size_t mid = occupied.size();
        occupied.insert(occupied.end(), newly_occupied.begin(),
                        newly_occupied.end());
        std::inplace_merge(
            occupied.begin(),
            occupied.begin() + static_cast<std::ptrdiff_t>(mid),
            occupied.end());
      }
    }

    // Lines 3-4: local basis computation and C pushes.  Nodes holding no
    // element yet have nothing to propose (f(∅) would mark *everything* a
    // violator); they only participate as receivers this round.  The
    // incremental solves (detail::LocalBasis) touch only node-local state
    // (stage A1, parallelizable); the pushes replay serially in ascending
    // node order (stage B1, the sorted occupied list), so parallel runs are
    // bit-identical to serial ones.
    for_each_occupied([&](gossip::NodeId v) {
      NodeRound& sc = scratch[v];
      sc.has_sol = 0;
      sc.fell_back = 0;
      // A departed node's store is empty (cleared on leave): no proposal.
      if (net.asleep(v) || store.size(v) == 0) return;
      sc.has_sol = 1;
      thread_local std::vector<Element> work;
      sc.fell_back = sc.local.update(p, store.view(v), h_set, work, d + 1);
    });
    for (const gossip::NodeId v : occupied) {
      ++bookkeeping;
      NodeRound& sc = scratch[v];
      if (!sc.has_sol) continue;
      local_fallbacks += sc.fell_back;
      const auto& sol = sc.local.solution();
      if (!found && p.same_value(sol, oracle)) {
        found = true;
        res.solution = sol;
        res.stats.rounds_to_first = t;
        res.stats.reached_optimum = true;
      }
      if (cfg.run_termination) {
        term.inject(v, static_cast<std::uint32_t>(t), sol);
      }
      const Msg msg = Msg::announce(v, sol.basis);
      for (std::size_t k = 0; k < c_copies; ++k) basis_mail.push(v, msg);
      if (store.size(v) > res.extras.max_local_elements) {
        res.extras.max_local_elements = store.size(v);
      }
    }
    basis_mail.deliver();

    // Lines 5-7: violator pushes for every received basis.  Stage A2 scans
    // locally against the sender's precomputed solution, which A1 wrote
    // and nothing writes again before the next round's A1 (only occupied
    // nodes can produce violators — an empty store has none to offer, so
    // basis copies landing on empty nodes need no scan); stage B2 pushes
    // in ascending node order.
    for_each_occupied([&](gossip::NodeId v) {
      NodeRound& sc = scratch[v];
      sc.violators.clear();
      sc.max_single_w = 0;
      if (net.asleep(v) || store.size(v) == 0) return;
      for (const Msg& msg : basis_mail.inbox(v)) {
        const auto& sol_j = scratch[msg.sender].local.sent();
        std::size_t w = 0;
        for (const std::uint32_t id : store.view(v)) {
          if (p.violates(sol_j, h_set[id])) {
            sc.violators.push_back(id);
            ++w;
          }
        }
        if (w > sc.max_single_w) sc.max_single_w = w;
      }
    });
    for (const gossip::NodeId v : occupied) {
      ++bookkeeping;
      const NodeRound& sc = scratch[v];
      for (const std::uint32_t id : sc.violators) elem_mail.push(v, Ref{id});
      if (sc.max_single_w > res.extras.max_single_w) {
        res.extras.max_single_w = sc.max_single_w;
      }
    }
    elem_mail.deliver();

    // Line 8: add received elements — walk only the receiving inboxes,
    // collecting nodes that just became occupied.
    newly_occupied.clear();
    for (const gossip::NodeId v : elem_mail.receivers()) {
      ++bookkeeping;
      if (absent(v)) continue;  // departed: drop (pushers retain copies)
      if (!occ_flag[v]) {
        occ_flag[v] = 1;
        newly_occupied.push_back(v);
      }
      for (const Ref& r : elem_mail.inbox(v)) store.add_copy(v, r.id);
    }
    if (!newly_occupied.empty()) {
      std::sort(newly_occupied.begin(), newly_occupied.end());
      const std::size_t mid = occupied.size();
      occupied.insert(occupied.end(), newly_occupied.begin(),
                      newly_occupied.end());
      std::inplace_merge(occupied.begin(),
                         occupied.begin() + static_cast<std::ptrdiff_t>(mid),
                         occupied.end());
    }

    if (cfg.run_termination) {
      // The protocol's validity checks read values: resolve each node's
      // ids through one reused buffer (consumed before the next node's).
      term.round(static_cast<std::uint32_t>(t), [&](gossip::NodeId v) {
        term_view.clear();
        for (const std::uint32_t id : store.view(v)) {
          term_view.push_back(h_set[id]);
        }
        return std::span<const Element>(term_view);
      });
    }

    const std::size_t m = store.total_elements();
    if (m > res.stats.max_total_elements) res.stats.max_total_elements = m;
    res.stats.bookkeeping_touches_total += bookkeeping;
    res.stats.last_round_bookkeeping_touches = bookkeeping;

    const bool done = cfg.run_termination ? term.all_output() : found;
    if (done) {
      res.stats.rounds_to_all_output = cfg.run_termination ? t : 0;
      break;
    }
  }

  if (cfg.run_termination) {
    for (gossip::NodeId v = 0; v < n; ++v) {
      const auto& out = term.output(v);
      if (!out || !p.same_value(*out, oracle)) {
        res.stats.all_outputs_correct = false;
        break;
      }
    }
  }

  net.meter().finish();
  res.stats.max_work_per_round = net.meter().max_work_per_round();
  res.stats.total_push_ops = net.meter().total_push_ops();
  res.stats.total_pull_ops = net.meter().total_pull_ops();
  res.stats.total_bytes = net.meter().total_bytes();
  res.stats.final_total_elements = store.total_elements();
  obs::counter("engine.high_load.runs").add(1);
  obs::counter("engine.high_load.rounds").add(res.stats.rounds_to_first);
  obs::counter("engine.high_load.local_fallbacks").add(local_fallbacks);
  obs::gauge("engine.high_load.store_arena_bytes")
      .set(static_cast<std::int64_t>(store.arena_bytes()));
  return res;
}

}  // namespace lpt::core
