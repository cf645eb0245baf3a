// The Low-Load Clarkson Algorithm (paper Section 2: Algorithms 2 and 4).
//
// Setting: |H| = O(n log n), elements initially distributed uniformly at
// random over n anonymous gossip nodes.  Per iteration (= one round, the
// paper's Section 2 convention) every node:
//
//   1. samples a random multiset R_i of size 6d^2 from H(V) with the
//      Section 2.1 pull sampler,
//   2. pushes its local violators W_i = { h in H(v_i) : f(R_i) < f(R_i+h) }
//      to uniformly random nodes (multiplicity doubling, distributed), and
//   3. filters: every non-original element is kept with probability
//      1/(1 + 1/(2d)), so |H(V)| stays O(|H_0|) (Lemma 9) while original
//      elements are never deleted (no wash-out).
//
// Nodes with no initial element first run the Section 2.3 pull phase so
// that |H(V)| >= n holds from O(log n) rounds on (Lemma 13).
//
// Theorem 3: O(d log n) rounds and O(d^2 + log n) work per node per round,
// w.h.p.  bench/fig2_low_load reproduces Figure 2 with this engine.
//
// ## Simulator cost per round (the large-n engine contract)
//
// The only per-round loops proportional to n are the ones that do inherent
// per-node algorithm work: the stage-A step of every awake node (its
// Section 2.1 pulls, sample selection, local solve, violator scan) and the
// serial metering of its fixed pull count.  The pulled sample lives in a
// per-thread buffer of s elements, never in an n-wide response payload.
// All bookkeeping is proportional to the *active* sets instead:
//
//   * element storage is a slab-backed gossip::NodeStore — |H(V)| is O(1)
//     (incremental), and the filter pass visits only nodes holding copies;
//   * delivery walks only the inboxes that received something (CSR
//     receiver lists), not all n;
//   * the Section 2.3 pull phase is a compact sorted node list that
//     empties after O(log n) rounds;
//   * the stage-B replay walks only the nodes stage A flagged as needing
//     shared-state effects (violator pushes, termination injects), with
//     sampler statistics accumulated as per-chunk counters.
//
// DistributedRunStats::last_round_bookkeeping_touches records the final
// round's bookkeeping node-touches; tests pin it to O(active) << n.
//
// ## Determinism
//
// One run is a pure function of (problem, h_set, n_nodes, cfg): the master
// seed fans out into the network stream, the placement stream, and n
// per-node streams.  cfg.parallel_nodes only changes *where* the stage-A
// step runs: that stage consumes per-node RNG streams exclusively — each
// node draws its sampler pulls (targets, response losses, answer indices)
// first and its selection draws second, on its own stream — every
// shared-RNG side effect (seed pulls, pushes, termination) is replayed
// serially in ascending node order in stage B (the chunked stage-A
// collection preserves that order exactly), and the filter pass consumes
// per-node streams only — so results are bit-identical for every thread
// count, shard count and transport.  Shard workers pull from the round's
// gossip::StoreSnapshot, which holds every node's elements in NodeStore
// order, so a node's stream draws the same sample there as in-process.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/churn.hpp"
#include "core/lp_type.hpp"
#include "core/result.hpp"
#include "core/sampling.hpp"
#include "core/termination.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "shard/runtime.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace lpt::core {

enum class SamplingMode {
  kPullBased,   // Section 2.1 sampler (the paper's algorithm)
  kIdealized,   // exact uniform draws from H(V) (ablation upper bound)
};

/// Configuration for run_low_load.  Every field participates in the
/// determinism contract above except parallel_nodes, which is guaranteed
/// not to (bit-identical results for any value).
struct LowLoadConfig {
  std::uint64_t seed = 1;
  double sampler_c = 2.0;        // pull-count constant of Section 2.1
  bool strict_sampling = false;  // fail short samples (theory mode)
  bool filtering = true;         // Algorithm 2 line 8-9 (ablation toggle)
  SamplingMode sampling = SamplingMode::kPullBased;
  bool run_termination = false;  // run Algorithm 3 until every node outputs
  std::size_t termination_maturity = 0;  // 0: 2*ceil(log2 n) + 4
  std::size_t max_rounds = 0;            // 0: auto safety cap
  std::size_t min_rounds = 0;  // keep simulating at least this many rounds
                               // even after the optimum is found (used by
                               // long-horizon load measurements / ablations)
  gossip::FaultModel faults;   // message loss / sleeping nodes (Section 1.2's
                               // robustness claim; see gossip::FaultModel)
  const ChurnSchedule* churn = nullptr;  // nodes leaving/joining mid-run with
                                         // store handoff (core/churn.hpp);
                                         // incompatible with run_termination
                                         // (departed nodes cannot output)
  std::size_t dimension_override = 0;  // run as if dim(H, f) were this value
                                       // (the Section 1.4 doubling search on
                                       // an unknown d; 0 = use p.dimension())
  std::size_t parallel_nodes = 0;  // >1: per-node stage A (Section 2.1
                                   // pulls, sample selection, local solve,
                                   // violator scan) runs on this many
                                   // threads.  Results are bit-identical to
                                   // the serial run: the stage consumes
                                   // only the per-node RNG streams (pulls
                                   // read the store read-only), and all
                                   // shared-RNG traffic is replayed
                                   // serially in node order.  Only
                                   // kPullBased sampling parallelizes (the
                                   // idealized sampler meters global pulls).
                                   // The pool lives for one run: combining
                                   // with a bench-level --threads sweep
                                   // oversubscribes (threads x parallel_
                                   // nodes OS threads) — pick one level.
  shard::ShardConfig shard;  // shards >= 1: the stage-A compute runs on that
                             // many shard workers (in-process threads or
                             // fork()ed processes; see shard/runtime.hpp)
                             // over contiguous node ranges, with the stage-B
                             // replay applied after a deterministic merge of
                             // the per-shard candidate streams.  Results are
                             // bit-identical to the serial and the
                             // parallel_nodes paths for every shard count
                             // and either transport.  Takes precedence over
                             // parallel_nodes; requires kPullBased sampling
                             // and a problem with shard wire codecs
                             // (wire_put/wire_get for Element and Solution),
                             // else the run falls back to the in-process
                             // paths.
};

template <LpTypeProblem P>
struct DistributedLpResult {
  typename P::Solution solution;  // the optimum found (first node's f(R_i))
  DistributedRunStats stats;
};

namespace detail {
// "No node" sentinel for the stage-A chunk accumulators.  Namespace scope
// (not function-local constexpr) because GCC 12 ICEs on a local struct
// NSDMI referencing a function-local constexpr inside a template.
inline constexpr gossip::NodeId kNoNodeId = 0xffffffffu;

/// One node's stage-A compute after its pulls (sample selection, local
/// solve, violator scan) from explicit inputs.  Consumes `rng` exactly as
/// a serial full scan would; returns false when the sample failed (no
/// solve, no further draws).
template <LpTypeProblem P>
bool low_load_node_solve(const P& p, const SamplerConfig& sampler,
                         std::span<typename P::Element> responses,
                         std::span<const typename P::Element> local,
                         util::Rng& rng, typename P::Solution& sol,
                         std::vector<typename P::Element>& violators) {
  const SampleView<typename P::Element> view =
      select_distinct_view(responses, sampler.target, rng, sampler.strict);
  if (!view.success) return false;
  // A full-size sample left the selection step in uniform random order, so
  // the problem's pre-shuffled local solve applies; lenient short samples
  // keep dedupe order and take the shuffling solve.
  if constexpr (requires { p.solve_shuffled(view.sample); }) {
    sol = view.randomized ? p.solve_shuffled(view.sample)
                          : p.solve(view.sample);
  } else {
    sol = p.solve(view.sample);
  }
  // W_i: local violators (Algorithm 2 lines 5-6), pushed in stage B.
  violators.clear();
  for (const auto& h : local) {
    if (p.violates(sol, h)) violators.push_back(h);
  }
  return true;
}

/// One node's pull-based stage A: its Section 2.1 pulls into `pulled`
/// (response bytes added to `bytes`), then low_load_node_solve over its
/// own multiset — the single definition executed by both the in-process
/// chunk loop (on the NodeStore and Network) and the shard workers (on the
/// round's StoreSnapshot), so the two paths cannot drift.
template <LpTypeProblem P, typename Store, typename Sleep>
bool low_load_node_stage_a(const P& p, const SamplerConfig& sampler,
                           const Store& store, const Sleep& sleep,
                           gossip::NodeId v, util::Rng& rng,
                           std::vector<typename P::Element>& pulled,
                           typename P::Solution& sol,
                           std::vector<typename P::Element>& violators,
                           std::uint64_t& bytes) {
  bytes += pull_sample(store, sleep, sampler.pulls_per_node(), rng, pulled);
  return low_load_node_solve(
      p, sampler, std::span<typename P::Element>(pulled), store.view(v), rng,
      sol, violators);
}

/// The sharded runtime is available for P when its element and solution
/// types have shard wire codecs (shard/wire.hpp customization point).
template <typename P>
concept ShardableLowLoad = shard::Wirable<typename P::Element> &&
                           shard::Wirable<typename P::Solution>;

/// Encode one low-load task payload for nodes [r.begin, r.end).
///
/// Task payload (after the MsgType byte):
///   u8 found_snapshot · u32 begin · u32 end · per node in [begin, end):
///     u8 flags; if kActive: rng state.
/// Nothing else: the worker pulls each node's sample from the round's
/// StoreSnapshot and reads the node's own multiset there.
template <typename Active>
void put_low_load_task(gossip::Encoder& e, shard::ShardRange r,
                       bool found_snapshot, Active&& active,
                       std::span<const util::Rng> node_rng) {
  e.put_u8(found_snapshot ? 1 : 0);
  e.put_u32(r.begin);
  e.put_u32(r.end);
  for (gossip::NodeId v = r.begin; v < r.end; ++v) {
    if (!active(v)) {
      e.put_u8(0);
      continue;
    }
    e.put_u8(shard::nodeflag::kActive);
    shard::put_rng(e, node_rng[v]);
  }
}

/// The stage-A serve handler every low-load shard worker runs.  Holds
/// only run-static state (problem, oracle, sampler constants), the round's
/// StoreSnapshot, and per-worker scratch, so it stays valid in a fork()ed
/// child and is data-race-free across in-process worker threads (each
/// worker owns a copy).
///
/// Round state: the StoreSnapshot (shard::get_store_snapshot).
/// Task payload: see put_low_load_task.
/// Result payload:
///   per node: u8 flags; if kActive: rng state (advanced); if kReplay:
///   violators seq; if kSolution: solution — then u32 attempts,
///   u32 failures, u32 first_opt (kNoNodeId when none), u64 pull-response
///   bytes.
template <LpTypeProblem P>
struct LowLoadServe {
  using Element = typename P::Element;
  using Solution = typename P::Solution;

  P p;
  Solution oracle;
  SamplerConfig sampler;
  bool run_termination = false;
  gossip::StoreSnapshot<Element> snap{};  // this round's, from round_state
  util::Rng rng{};
  Solution sol{};
  std::vector<Element> pulled{};
  std::vector<Element> violators{};

  void round_state(gossip::Decoder& d) { shard::get_store_snapshot(d, snap); }

  void operator()(gossip::Decoder& d, gossip::Encoder& e) {
    const bool found_snapshot = d.get_u8() != 0;
    const gossip::NodeId begin = d.get_u32();
    const gossip::NodeId end = d.get_u32();
    shard::put_msg_type(e, shard::MsgType::kStageAResult);
    std::uint32_t attempts = 0;
    std::uint32_t failures = 0;
    gossip::NodeId first_opt = kNoNodeId;
    std::uint64_t bytes = 0;
    for (gossip::NodeId v = begin; v < end; ++v) {
      if (!(d.get_u8() & shard::nodeflag::kActive)) {
        e.put_u8(0);
        continue;
      }
      LPT_CHECK_MSG(v < snap.nodes(),
                    "shard worker: active node outside the round state");
      shard::get_rng(d, rng);
      ++attempts;
      const bool ok = low_load_node_stage_a(p, sampler, snap, snap, v, rng,
                                            pulled, sol, violators, bytes);
      std::uint8_t flags = shard::nodeflag::kActive;
      if (!ok) {
        ++failures;
      } else {
        bool is_first_opt = false;
        if (!found_snapshot && first_opt == kNoNodeId &&
            p.same_value(sol, oracle)) {
          first_opt = v;
          is_first_opt = true;
        }
        const bool replay = !violators.empty() || run_termination;
        if (replay) flags |= shard::nodeflag::kReplay;
        // Ship the solution only where stage B can read it: termination
        // injects (replay with no violators) and the round's first
        // optimum (res.solution).
        if ((replay && violators.empty()) || is_first_opt) {
          flags |= shard::nodeflag::kSolution;
        }
      }
      e.put_u8(flags);
      shard::put_rng(e, rng);
      if (flags & shard::nodeflag::kReplay) {
        shard::put_seq(e, std::span<const Element>(violators));
      }
      if (flags & shard::nodeflag::kSolution) wire_put(e, sol);
    }
    e.put_u32(attempts);
    e.put_u32(failures);
    e.put_u32(first_opt);
    e.put_u64(bytes);
  }
};

/// Bootstrap payload for workers that inherit nothing via fork (the socket
/// transport; ShardHarness frames these bytes as MsgType::kBootstrap): the
/// run-static instance state a LowLoadServe would otherwise capture at
/// fork time — the termination flag, the sampler constants, the oracle
/// solution.  The problem *type* is compile time (a remote worker binary
/// instantiates the same template); problems whose instances carry no
/// state (MinDisk) are therefore fully described by this payload.
///
/// Schema: u8 run_termination · u8 strict · u32 target · u32 log_n ·
/// f64 c · oracle solution (wire_put).
template <LpTypeProblem P>
std::vector<std::uint8_t> low_load_bootstrap_payload(
    const typename P::Solution& oracle, const SamplerConfig& sampler,
    bool run_termination) {
  gossip::Encoder e;
  e.put_u8(run_termination ? 1 : 0);
  e.put_u8(sampler.strict ? 1 : 0);
  e.put_u32(static_cast<std::uint32_t>(sampler.target));
  e.put_u32(static_cast<std::uint32_t>(sampler.log_n));
  e.put_f64(sampler.c);
  wire_put(e, oracle);
  return e.bytes();
}

/// The matching serve factory: decodes one low_load_bootstrap_payload and
/// builds the same LowLoadServe a fork-inheriting harness gets — run from
/// bootstrap_worker_loop inside every socket worker (and every respawned
/// replacement, which gets the bootstrap re-sent).
template <LpTypeProblem P>
auto make_low_load_bootstrap_factory(P p) {
  return [p = std::move(p)](gossip::Decoder& d) {
    const bool run_termination = d.get_u8() != 0;
    SamplerConfig sampler;
    sampler.strict = d.get_u8() != 0;
    sampler.target = d.get_u32();
    sampler.log_n = d.get_u32();
    sampler.c = d.get_f64();
    typename P::Solution oracle;
    wire_get(d, oracle);
    return LowLoadServe<P>{p, std::move(oracle), sampler, run_termination};
  };
}
}  // namespace detail

/// Run the Low-Load Clarkson Algorithm on (p, h_set) over `n_nodes` gossip
/// nodes.  The run stops when some node's sample attains f(H) (the paper's
/// Figure 2 measurement), or — with cfg.run_termination — when every node
/// has produced an Algorithm 3 output.
template <LpTypeProblem P>
DistributedLpResult<P> run_low_load(const P& p,
                                    std::span<const typename P::Element> h_set,
                                    std::size_t n_nodes,
                                    const LowLoadConfig& cfg = {}) {
  using Element = typename P::Element;

  DistributedLpResult<P> res;
  const std::size_t d =
      cfg.dimension_override ? cfg.dimension_override : p.dimension();
  const std::size_t n = n_nodes;
  LPT_CHECK(n >= 1 && d >= 1);
  const auto oracle = p.solve(h_set);
  if (h_set.empty()) {
    res.solution = oracle;
    res.stats.reached_optimum = true;
    return res;
  }

  util::Rng master(cfg.seed);
  gossip::Network net(n, master.child(0), cfg.faults);
  util::Rng dist_rng = master.child(1);
  std::vector<util::Rng> node_rng;
  node_rng.reserve(n);
  for (std::size_t v = 0; v < n; ++v) node_rng.push_back(master.child(2 + v));

  // Initial placement: every element lands on a uniformly random node
  // (the paper's standing assumption; achievable with one push each).
  gossip::NodeStore<Element> store(n);
  for (const auto& h : h_set) {
    store.add_original(static_cast<gossip::NodeId>(dist_rng.below(n)), h);
  }

  SamplerConfig sampler;
  sampler.target = 6 * d * d;
  sampler.c = cfg.sampler_c;
  sampler.log_n = util::ceil_log2(n) + 1;
  sampler.strict = cfg.strict_sampling;
  const std::size_t pulls = sampler.pulls_per_node();
  const double keep_p =
      1.0 / (1.0 + 1.0 / (2.0 * static_cast<double>(d)));

  const std::size_t maturity = cfg.termination_maturity
                                   ? cfg.termination_maturity
                                   : 2 * (util::ceil_log2(n) + 2);
  const std::size_t max_rounds =
      cfg.max_rounds ? cfg.max_rounds
                     : 60 * d * (util::ceil_log2(n) + 2) + 8 * maturity + 60;
  // The meter closes one history entry per round: reserving the round
  // bound up front keeps begin_round's push_back realloc-free for the
  // whole run (+1 covers the finish() flush of the last round).
  net.meter().reserve_rounds(max_rounds + 1);

  // Shard runtime (shard/runtime.hpp): when configured and the problem has
  // wire codecs, stage A runs on shard workers over contiguous node ranges
  // and stage B applies the per-shard candidate streams merged in shard
  // order — bit-identical to the serial and parallel_nodes paths.  Workers
  // spawn (PipeTransport: fork) here, before any thread pool exists.
  constexpr bool kShardable = detail::ShardableLowLoad<P>;
  const bool sharded = kShardable && cfg.shard.enabled() &&
                       cfg.sampling == SamplingMode::kPullBased;
  std::optional<shard::ShardHarness> harness;
  if constexpr (kShardable) {
    if (sharded) {
      if (cfg.shard.transport == shard::TransportKind::kSocket) {
        // Socket workers inherit nothing: the run-static state travels in
        // a bootstrap frame and the serve handler is rebuilt from it
        // inside the worker (and inside every respawned replacement).
        // The fork-inheriting transports keep the closure path — their
        // existing fault-script frame positions must not shift.
        harness.emplace(n, cfg.shard,
                        detail::low_load_bootstrap_payload<P>(
                            oracle, sampler, cfg.run_termination),
                        detail::make_low_load_bootstrap_factory<P>(p));
      } else {
        harness.emplace(n, cfg.shard,
                        detail::LowLoadServe<P>{p, oracle, sampler,
                                                cfg.run_termination});
      }
    }
  }

  gossip::PullChannel<Element> seed_chan(net);  // Section 2.3 pull phase
  gossip::Mailbox<Element> copies_mail(net);    // W_i pushes
  gossip::Mailbox<Element> seeds_mail(net);     // (h, 0) pushes
  TerminationProtocol<P> term(p, net, maturity);

  // Section 2.3: nodes with no original element start in the pull phase.
  // The phase membership is a compact *sorted* id list (plus a flag array
  // for O(1) stage-A checks): the request loop and the stage-B response
  // walk cost O(phase members), which drops to zero after O(log n) rounds.
  std::vector<std::uint8_t> in_pull_phase(n, 0);
  std::vector<gossip::NodeId> pull_nodes;
  for (std::size_t v = 0; v < n; ++v) {
    if (store.h0_count(static_cast<gossip::NodeId>(v)) == 0) {
      in_pull_phase[v] = 1;
      pull_nodes.push_back(static_cast<gossip::NodeId>(v));
    }
  }

  // Churn (core/churn.hpp): membership bookkeeping plus a cursor over the
  // schedule.  Events apply at the top of their round, before any traffic.
  const bool churn_on = cfg.churn != nullptr && !cfg.churn->empty();
  LPT_CHECK_MSG(!(churn_on && cfg.run_termination),
                "run_low_load: churn is incompatible with run_termination");
  std::optional<ChurnState> members;
  if (churn_on) members.emplace(n);
  detail::ChurnCursor churn_cursor(churn_on ? cfg.churn : nullptr);
  std::vector<Element> handoff_scratch;
  auto absent = [&](gossip::NodeId v) {
    return churn_on && !members->present(v);
  };

  res.stats.initial_total_elements = store.total_elements();
  res.stats.max_total_elements = res.stats.initial_total_elements;

  // Per-node round scratch for the compute stage (stage A).  Persistent
  // across rounds so the steady state allocates nothing.
  struct NodeRound {
    typename P::Solution sol;
    std::vector<Element> violators;
  };
  std::vector<NodeRound> scratch(n);
  std::vector<std::size_t> prefix;  // idealized-sampling cumulative sizes

  const bool parallel = !sharded && cfg.parallel_nodes > 1 &&
                        cfg.sampling == SamplingMode::kPullBased;
  std::optional<util::ThreadPool> pool;
  if (parallel) pool.emplace(cfg.parallel_nodes);

  // Stage-A chunk accumulators: fixed contiguous chunks collect, each in
  // ascending node order, the nodes whose stage-B replay has shared-state
  // effects, plus sampler counters.  Concatenated in chunk order they
  // recover the exact node order of a full scan at O(candidates) cost,
  // independent of the thread count (see util::parallel_chunks).  In the
  // sharded run the chunks are the shards themselves (contiguous ascending
  // ranges, applied in shard order — the same contract over the wire).
  struct ChunkAcc {
    std::vector<gossip::NodeId> replay;
    std::uint32_t attempts = 0;
    std::uint32_t failures = 0;
    gossip::NodeId first_opt = detail::kNoNodeId;
    std::uint64_t bytes = 0;  // pull-response bytes, metered in stage B
  };
  const std::size_t chunk =
      parallel ? std::max<std::size_t>(64, n / (cfg.parallel_nodes * 8)) : n;
  std::vector<ChunkAcc> chunks(sharded ? harness->frame_count()
                                       : util::chunk_count(n, chunk));

  bool found = false;
  for (std::size_t t = 1; t <= max_rounds; ++t) {
    net.begin_round();
    obs::trace_tick();  // rounds are the engine's sampling unit
    obs::TraceSpan round_span("low_load.round", t);
    std::size_t bookkeeping = 0;

    // --- Churn events due this round: a leaver hands its store off to
    // uniformly random present nodes (originals stay originals) and drops
    // out of the pull phase; a joiner enters the Section 2.3 pull phase.
    for (const ChurnEvent& ev : churn_cursor.events_due(t)) {
      const gossip::NodeId v = ev.node;
      if (ev.join) {
        members->join(v);
        if (!in_pull_phase[v]) {
          in_pull_phase[v] = 1;
          pull_nodes.insert(
              std::lower_bound(pull_nodes.begin(), pull_nodes.end(), v), v);
        }
      } else {
        members->leave(v);  // before hand_off: targets exclude the leaver
        detail::hand_off_store(store, v, *members, net.rng(),
                               handoff_scratch);
        if (in_pull_phase[v]) {
          in_pull_phase[v] = 0;
          pull_nodes.erase(
              std::lower_bound(pull_nodes.begin(), pull_nodes.end(), v));
        }
      }
    }

    // --- Pull phase requests (Algorithm 4, lines 2-6): O(phase members).
    for (const gossip::NodeId v : pull_nodes) {
      if (!net.asleep(v)) seed_chan.request(v);
    }
    seed_chan.resolve([&](gossip::NodeId target) -> std::optional<Element> {
      const std::size_t h0 = store.h0_count(target);
      if (h0 == 0) return std::nullopt;
      return store.elem(target, net.rng().below(h0));
    });

    // --- Sampler pull ops (Algorithm 2 line 3): a fixed count per active
    // node, metered serially; the pulls themselves run in stage A. ---
    if (cfg.sampling == SamplingMode::kPullBased) {
      for (gossip::NodeId v = 0; v < n; ++v) {
        if (in_pull_phase[v] || net.asleep(v) || absent(v)) continue;
        net.meter().add_pulls(v, pulls);
      }
    }

    // Idealized sampling support: per-round prefix sums over store sizes.
    if (cfg.sampling == SamplingMode::kIdealized) {
      prefix.assign(n + 1, 0);
      for (std::size_t v = 0; v < n; ++v) {
        prefix[v + 1] = prefix[v] + store.size(static_cast<gossip::NodeId>(v));
      }
    }

    // --- Per-node stage A: the node's Section 2.1 pulls (reading the
    // store read-only), sample selection, local solve, and violator scan.
    // Touches only node-local state and node_rng[v], so it fans out across
    // threads when cfg.parallel_nodes asks for it; every shared-RNG side
    // effect (mailbox pushes, termination traffic) is collected per chunk
    // and replayed in stage B in node order, making parallel runs
    // bit-identical to serial ones.
    const bool found_snapshot = found;
    auto runs_stage_a = [&](gossip::NodeId v) {
      return !net.asleep(v) && !in_pull_phase[v] && !absent(v);
    };
    auto stage_a = [&](std::size_t k, std::size_t begin, std::size_t end) {
      obs::TraceSpan chunk_span("low_load.stage_a.chunk", k);
      // The node's sample, consumed (reordered in place) by its selection
      // step and discarded: s elements per thread, reused across nodes.
      thread_local std::vector<Element> pulled;
      ChunkAcc& ch = chunks[k];
      ch.replay.clear();
      ch.attempts = 0;
      ch.failures = 0;
      ch.first_opt = detail::kNoNodeId;
      ch.bytes = 0;
      for (std::size_t vi = begin; vi < end; ++vi) {
        const auto v = static_cast<gossip::NodeId>(vi);
        if (!runs_stage_a(v)) continue;
        ++ch.attempts;
        NodeRound& sc = scratch[v];
        bool ok;
        if (cfg.sampling == SamplingMode::kPullBased) {
          ok = detail::low_load_node_stage_a(p, sampler, store, net, v,
                                             node_rng[v], pulled, sc.sol,
                                             sc.violators, ch.bytes);
        } else {
          const std::size_t m = prefix[n];
          pulled.clear();
          for (std::size_t k2 = 0; k2 < pulls && m > 0; ++k2) {
            net.meter().add_pull(v, 0);
            const std::size_t g = node_rng[v].below(m);
            const auto it =
                std::upper_bound(prefix.begin(), prefix.end(), g) - 1;
            const auto node = static_cast<std::size_t>(it - prefix.begin());
            pulled.push_back(store.elem(static_cast<gossip::NodeId>(node),
                                        g - *it));
            net.meter().add_response_bytes(sizeof(Element));
          }
          ok = detail::low_load_node_solve(p, sampler,
                                           std::span<Element>(pulled),
                                           store.view(v), node_rng[v],
                                           sc.sol, sc.violators);
        }
        if (!ok) {
          ++ch.failures;
          continue;
        }
        if (!found_snapshot && ch.first_opt == detail::kNoNodeId &&
            p.same_value(sc.sol, oracle)) {
          ch.first_opt = v;
        }
        if (!sc.violators.empty() || cfg.run_termination) {
          ch.replay.push_back(v);
        }
      }
    };
    bool ran_on_shards = false;
    if constexpr (kShardable) {
      if (sharded) {
        // Ship every worker the round's store snapshot once, then each
        // shard its per-node flags and RNG states in bounded sub-frames;
        // the workers draw their nodes' pulls from the snapshot on those
        // streams, exactly as the in-process stage A does.  Per-frame
        // results land in frame-indexed ChunkAccs, which stage B walks in
        // index order — shard-major contiguous ascending ranges, i.e. the
        // serial full-scan node order.  Encoding only reads coordinator
        // state, so the retained bytes replay bit-identically.
        harness->round(
            [&](gossip::Encoder& e) {
              shard::put_store_snapshot(e, store, net);
            },
            [&](shard::ShardRange r, gossip::Encoder& e) {
              detail::put_low_load_task(e, r, found_snapshot, runs_stage_a,
                                        std::span<const util::Rng>(node_rng));
            },
            [&](std::size_t frame, shard::ShardRange r,
                gossip::Decoder& dec) {
              ChunkAcc& ch = chunks[frame];
              ch.replay.clear();
              for (gossip::NodeId v = r.begin; v < r.end; ++v) {
                const std::uint8_t flags = dec.get_u8();
                if (flags & shard::nodeflag::kActive) {
                  shard::get_rng(dec, node_rng[v]);
                }
                if (flags & shard::nodeflag::kReplay) {
                  shard::get_seq(dec, scratch[v].violators);
                  ch.replay.push_back(v);
                }
                if (flags & shard::nodeflag::kSolution) {
                  wire_get(dec, scratch[v].sol);
                }
              }
              ch.attempts = dec.get_u32();
              ch.failures = dec.get_u32();
              ch.first_opt = dec.get_u32();
              ch.bytes = dec.get_u64();
            });
        ran_on_shards = true;
      }
    }
    if (!ran_on_shards) {
      util::parallel_chunks(pool ? &*pool : nullptr, n, chunk, stage_a);
    }

    // --- Shared-state replay (stage B): walk the pull-phase list and the
    // per-chunk candidate lists merged in ascending node order — the exact
    // order (and hence shared-RNG stream) of a full O(n) scan, at
    // O(phase members + candidates) cost. ---
    std::size_t pull_read = 0;
    std::size_t pull_write = 0;
    auto replay_pull_below = [&](gossip::NodeId limit) {
      while (pull_read < pull_nodes.size() && pull_nodes[pull_read] < limit) {
        const gossip::NodeId v = pull_nodes[pull_read++];
        ++bookkeeping;
        bool exited = false;
        if (!net.asleep(v)) {
          const auto got = seed_chan.responses(v);
          if (!got.empty()) {
            seeds_mail.push(v, got.front());
            in_pull_phase[v] = 0;
            exited = true;
          }
        }
        if (!exited) pull_nodes[pull_write++] = v;
      }
    };
    gossip::NodeId first_opt = detail::kNoNodeId;
    for (const ChunkAcc& ch : chunks) {
      res.stats.sampling_attempts += ch.attempts;
      res.stats.sampling_failures += ch.failures;
      if (ch.bytes != 0) net.meter().add_response_bytes(ch.bytes);
      if (first_opt == detail::kNoNodeId) first_opt = ch.first_opt;
      for (const gossip::NodeId v : ch.replay) {
        replay_pull_below(v);
        ++bookkeeping;
        const NodeRound& sc = scratch[v];
        for (const auto& h : sc.violators) copies_mail.push(v, h);
        if (sc.violators.empty() && cfg.run_termination) {
          term.inject(v, static_cast<std::uint32_t>(t), sc.sol);
        }
      }
    }
    replay_pull_below(static_cast<gossip::NodeId>(n));
    pull_nodes.resize(pull_write);
    if (!found && first_opt != detail::kNoNodeId) {
      found = true;
      res.solution = scratch[first_opt].sol;
      res.stats.rounds_to_first = t;
      res.stats.reached_optimum = true;
    }

    // --- Delivery (received at the beginning of the next round): walk
    // only the inboxes that received something. ---
    seeds_mail.deliver();
    copies_mail.deliver();
    for (const gossip::NodeId v : seeds_mail.receivers()) {
      ++bookkeeping;
      // A departed receiver drops the delivery: the seed is a duplicate of
      // an original the answerer still holds, so nothing is destroyed.
      if (absent(v)) continue;
      for (const auto& h : seeds_mail.inbox(v)) store.add_original(v, h);
    }
    for (const gossip::NodeId v : copies_mail.receivers()) {
      ++bookkeeping;
      if (absent(v)) continue;  // pushers retain their own copies
      for (const auto& h : copies_mail.inbox(v)) store.add_copy(v, h);
    }

    // --- Filtering (lines 8-9): originals are never deleted; only the
    // copy-holding nodes are visited, each consuming its own RNG stream.
    if (cfg.filtering) {
      bookkeeping += store.filter_copies(
          keep_p, [&](gossip::NodeId v) -> util::Rng& { return node_rng[v]; });
    }

    if (cfg.run_termination) {
      term.round(static_cast<std::uint32_t>(t),
                 [&](gossip::NodeId v) { return store.view(v); });
    }

    const std::size_t m = store.total_elements();
    if (m > res.stats.max_total_elements) res.stats.max_total_elements = m;
    res.stats.bookkeeping_touches_total += bookkeeping;
    res.stats.last_round_bookkeeping_touches = bookkeeping;

    const bool done = cfg.run_termination ? term.all_output() : found;
    if (done && t >= cfg.min_rounds) {
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
    if (term.all_output() && res.stats.all_outputs_correct && !found) {
      // Every node output the optimum via the protocol even though the
      // oracle check never fired (possible only in degenerate instances).
      res.solution = *term.output(0);
      res.stats.reached_optimum = true;
    }
  }

  if constexpr (kShardable) {
    if (sharded && cfg.shard.recovery_out != nullptr) {
      *cfg.shard.recovery_out = harness->recovery_stats();
    }
  }

  net.meter().finish();
  res.stats.max_work_per_round = net.meter().max_work_per_round();
  res.stats.total_push_ops = net.meter().total_push_ops();
  res.stats.total_pull_ops = net.meter().total_pull_ops();
  res.stats.total_bytes = net.meter().total_bytes();
  res.stats.final_total_elements = store.total_elements();
  obs::counter("engine.low_load.runs").add(1);
  obs::counter("engine.low_load.rounds").add(res.stats.rounds_to_first);
  obs::gauge("engine.low_load.store_arena_bytes")
      .set(static_cast<std::int64_t>(store.arena_bytes()));
  return res;
}

}  // namespace lpt::core
