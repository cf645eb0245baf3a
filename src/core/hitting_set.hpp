// The distributed Hitting Set Algorithm (paper Section 4, Algorithm 6) —
// also the set-cover solver via the duality of Section 1.4.
//
// (X, S) with |X| = n elements, |S| = s sets, minimum hitting set size d.
// Every node knows S (part of the problem description); the *elements* of X
// are randomly distributed and gossiped.  Per round each node:
//
//   1. samples a multiset R_i of size r >= 6 d ln(12 d s) from X(V)
//      (Section 2.1 sampler),
//   2. if R_i hits everything, R_i is the answer (size O(d log(ds))),
//   3. otherwise picks a *random* unhit set S, and pushes W_i = S \ X(v_i)
//      — capped at c d log n elements — to random nodes (this doubles the
//      multiplicity of elements of sparse unhit sets, Lemma 18),
//   4. filters non-original copies with probability 1/(1 + 1/(2d)).
//
// Theorem 5: a hitting set of size O(d log(ds)) in O(d log n) rounds with
// work O(d log(ds) + log n) per round, w.h.p.
//
// Simulator cost per round follows the same large-n contract as
// run_low_load: the only O(n) loops are each awake node's stage-A step
// (its Section 2.1 pulls into a per-thread buffer, sample selection, hit
// marking) and the serial metering of its fixed pull count; everything
// else is slab-backed element storage (O(1) |X(V)|, O(copy-holders) filter
// pass), receiver-list delivery walks, and a chunk-collected stage-B
// replay that only visits winners and W_i pushers.
//
// Determinism: stage A consumes only per-node streams — per node, the
// sampler pulls (targets, response losses, answer indices) first, the
// selection draws second — and the W_i pushes replay on the shared stream
// in ascending node order in stage B, so results are bit-identical to a
// serial full scan for any parallel_nodes value, shard count and
// transport (shard workers pull from the round's gossip::StoreSnapshot,
// which holds every node's elements in NodeStore order).
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/result.hpp"
#include "core/sampling.hpp"
#include "gossip/mailbox.hpp"
#include "gossip/network.hpp"
#include "obs/obs.hpp"
#include "problems/hitting_set_problem.hpp"
#include "shard/runtime.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace lpt::core {

/// Configuration for run_hitting_set.  Every field participates in the
/// determinism contract except parallel_nodes, which is guaranteed not to
/// (bit-identical results for any value).
struct HittingSetConfig {
  std::uint64_t seed = 1;
  std::size_t hitting_set_size = 0;  // the paper's d; 0 = start doubling at 1
  std::size_t sample_size = 0;       // r; 0 = ceil(6 d ln(12 d s))
  double sampler_c = 2.0;
  double push_cap_c = 4.0;  // the c of "|W_i| <= c d log n"
  bool strict_sampling = false;
  bool filtering = true;
  std::size_t max_rounds = 0;  // 0: auto cap (per doubling stage)
  gossip::FaultModel faults;   // message loss / sleeping nodes
  std::size_t parallel_nodes = 0;  // >1: the per-node stage A (Section 2.1
                                   // pulls, sample selection, hit marking,
                                   // W_i assembly) runs on this many
                                   // threads.  Results are bit-identical
                                   // to the serial run: the phase reads
                                   // the store read-only and consumes
                                   // only the per-node RNG streams, and
                                   // all shared-RNG
                                   // traffic (mailbox pushes) is replayed
                                   // serially in node order — the same
                                   // stage-A/stage-B split as low/high
                                   // load.  One pool level only: combining
                                   // with a bench --threads sweep
                                   // oversubscribes.
  shard::ShardConfig shard;  // shards >= 1: stage A runs on shard workers
                             // (threads or fork()ed processes) over
                             // contiguous node ranges with the stage-B
                             // replay applied after the deterministic
                             // shard-order merge — bit-identical to the
                             // serial and parallel_nodes paths for every
                             // shard count and transport.  Takes precedence
                             // over parallel_nodes.
};

struct HittingSetRunResult {
  std::vector<std::uint32_t> hitting_set;  // the winning R_i
  bool valid = false;                      // hits every set (always checked)
  std::size_t d_used = 0;                  // final d of the doubling search
  std::size_t sample_size = 0;             // final r
  DistributedRunStats stats;
};

/// The paper's prescription for r given d and s.
inline std::size_t hitting_set_sample_size(std::size_t d, std::size_t s) {
  const double dd = static_cast<double>(d);
  const double ss = static_cast<double>(s);
  return static_cast<std::size_t>(std::ceil(6.0 * dd * std::log(12.0 * dd * ss)));
}

namespace detail {

/// Per-worker scratch for one hitting-set stage-A node evaluation
/// (thread_local in the in-process path, serve-owned on shard workers).
struct HsStageAScratch {
  std::vector<std::uint32_t> pulled;  // the node's pulled sample
  SampleOutcome<std::uint32_t> outcome;
  std::vector<std::uint8_t> hit;
  std::vector<std::uint32_t> unhit;
};

enum class HsNodeOutcome : std::uint8_t {
  kFailed,  // sample came up short (strict mode) or empty
  kWinner,  // R_i hits every set: `sample` holds the answer
  kPusher,  // `wi` holds W_i = S \ X(v_i) for a random unhit S (may be
            // empty or over the push cap; the caller applies the cap)
};

/// One node's stage A (Section 2.1 pulls, sample selection, hit marking,
/// W_i assembly) — the single definition executed by both the in-process
/// chunk loop (on the NodeStore and Network) and the shard workers (on the
/// round's StoreSnapshot).  Consumes `rng` exactly as a serial full scan
/// would; adds the pull-response bytes to `bytes`.
template <typename Store, typename Sleep>
HsNodeOutcome hitting_set_node_stage_a(
    const problems::HittingSetProblem& problem, const SamplerConfig& sampler,
    const Store& store, const Sleep& sleep, gossip::NodeId v, util::Rng& rng,
    HsStageAScratch& scr, std::vector<std::uint32_t>& sample,
    std::vector<std::uint32_t>& wi, std::uint64_t& bytes) {
  const auto& sys = problem.system();
  const std::size_t s = sys.set_count();
  bytes += pull_sample(store, sleep, sampler.pulls_per_node(), rng,
                       scr.pulled);
  select_distinct_into(scr.pulled, sampler.target, rng, sampler.strict,
                       scr.outcome);
  if (!scr.outcome.success) return HsNodeOutcome::kFailed;
  // S_i: sets not hit by R_i.
  problem.mark_hit(scr.outcome.sample, scr.hit);
  scr.unhit.clear();
  for (std::uint32_t j = 0; j < s; ++j) {
    if (!scr.hit[j]) scr.unhit.push_back(j);
  }
  if (scr.unhit.empty()) {
    // R_i is a hitting set: the algorithm's answer (line 13).
    sample = std::move(scr.outcome.sample);
    return HsNodeOutcome::kWinner;
  }
  // Random unhit set; W_i = S \ X(v_i) (lines 6-9; cap applied by caller).
  const auto& chosen = sys.set(scr.unhit[rng.below(scr.unhit.size())]);
  const auto local = store.view(v);
  wi.clear();
  for (auto x : chosen) {
    bool have = false;
    for (auto own : local) {
      if (own == x) {
        have = true;
        break;
      }
    }
    if (!have) wi.push_back(x);
  }
  return HsNodeOutcome::kPusher;
}

/// Encode one hitting-set task payload for nodes [r.begin, r.end).
///
/// Task payload (after the MsgType byte):
///   u32 r · u64 push_cap · u32 begin · u32 end · per node:
///     u8 flags; if kActive: rng state.
/// Nothing else: the worker pulls each node's sample from the round's
/// StoreSnapshot and reads the node's own multiset there.
inline void put_hitting_set_task(gossip::Encoder& e, shard::ShardRange rg,
                                 std::size_t r, std::size_t push_cap,
                                 const gossip::Network& net,
                                 std::span<const util::Rng> node_rng) {
  e.put_u32(static_cast<std::uint32_t>(r));
  e.put_u64(static_cast<std::uint64_t>(push_cap));
  e.put_u32(rg.begin);
  e.put_u32(rg.end);
  for (gossip::NodeId v = rg.begin; v < rg.end; ++v) {
    if (net.asleep(v)) {
      e.put_u8(0);
      continue;
    }
    e.put_u8(shard::nodeflag::kActive);
    shard::put_rng(e, node_rng[v]);
  }
}

/// The stage-A serve handler every hitting-set shard worker runs.  Holds
/// the problem by value — the set system is part of the problem
/// description every node knows (Section 4), so it ships once at spawn
/// (fork inheritance / closure copy), never per round — plus the run's
/// sampler constants (the per-stage sample size r arrives with each task),
/// the round's StoreSnapshot, and per-worker scratch.
///
/// Round state: the StoreSnapshot (shard::get_store_snapshot).
/// Task payload: see put_hitting_set_task.
/// Result payload:
///   per node: u8 flags; if kActive: rng state (advanced); if kWinner:
///   winning-sample seq; else if kReplay: capped W_i seq — then
///   u32 attempts, u32 failures, u64 pull-response bytes.
struct HittingSetServe {
  using Element = std::uint32_t;

  problems::HittingSetProblem problem;
  SamplerConfig sampler;  // c, log_n, strict; target set per task
  gossip::StoreSnapshot<Element> snap{};  // this round's, from round_state
  util::Rng rng{};
  HsStageAScratch scr{};
  std::vector<Element> sample{};
  std::vector<Element> wi{};

  void round_state(gossip::Decoder& d) { shard::get_store_snapshot(d, snap); }

  void operator()(gossip::Decoder& d, gossip::Encoder& e) {
    sampler.target = d.get_u32();
    const std::uint64_t push_cap = d.get_u64();
    const gossip::NodeId begin = d.get_u32();
    const gossip::NodeId end = d.get_u32();
    shard::put_msg_type(e, shard::MsgType::kStageAResult);
    std::uint32_t attempts = 0;
    std::uint32_t failures = 0;
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
      const HsNodeOutcome out = hitting_set_node_stage_a(
          problem, sampler, snap, snap, v, rng, scr, sample, wi, bytes);
      std::uint8_t flags = shard::nodeflag::kActive;
      if (out == HsNodeOutcome::kFailed) {
        ++failures;
      } else if (out == HsNodeOutcome::kWinner) {
        flags |= shard::nodeflag::kWinner | shard::nodeflag::kReplay;
      } else if (!wi.empty() && wi.size() <= push_cap) {
        flags |= shard::nodeflag::kReplay;
      }
      e.put_u8(flags);
      shard::put_rng(e, rng);
      if (flags & shard::nodeflag::kWinner) {
        shard::put_seq(e, std::span<const Element>(sample));
      } else if (flags & shard::nodeflag::kReplay) {
        shard::put_seq(e, std::span<const Element>(wi));
      }
    }
    e.put_u32(attempts);
    e.put_u32(failures);
    e.put_u64(bytes);
  }
};

}  // namespace detail

/// Run Algorithm 6 over `n_nodes` gossip nodes.  If cfg.hitting_set_size is
/// zero the engine performs the doubling search on d the paper sketches in
/// Section 1.4 ("binary search on d, stopping the algorithm if it takes too
/// long"): each stage runs O(d log n) rounds and on failure d doubles.
inline HittingSetRunResult run_hitting_set(
    const problems::HittingSetProblem& problem, std::size_t n_nodes,
    const HittingSetConfig& cfg = {}) {
  using Element = std::uint32_t;
  const auto& sys = problem.system();
  const std::size_t n = n_nodes;
  const std::size_t x_size = sys.universe_size();
  const std::size_t s = sys.set_count();
  LPT_CHECK(n >= 1 && x_size >= 1 && s >= 1);

  HittingSetRunResult res;
  util::Rng master(cfg.seed);
  gossip::Network net(n, master.child(0), cfg.faults);
  util::Rng dist_rng = master.child(1);
  std::vector<util::Rng> node_rng;
  node_rng.reserve(n);
  for (std::size_t v = 0; v < n; ++v) node_rng.push_back(master.child(2 + v));

  // Initial placement of X over the nodes (slab-backed store: O(1) global
  // totals, O(copy-holders) filter pass).
  gossip::NodeStore<Element> store(n);
  for (std::uint32_t x = 0; x < x_size; ++x) {
    store.add_original(static_cast<gossip::NodeId>(dist_rng.below(n)), x);
  }
  res.stats.initial_total_elements = store.total_elements();
  res.stats.max_total_elements = res.stats.initial_total_elements;

  gossip::Mailbox<Element> copies_mail(net);
  const std::size_t log_n = util::ceil_log2(n) + 1;

  std::size_t d = cfg.hitting_set_size ? cfg.hitting_set_size : 1;
  bool done = false;
  std::size_t global_round = 0;

  // Per-node round results for the compute stage (stage A), persistent
  // across rounds so the steady state allocates nothing.  Only what stage
  // B consumes lives here — the sampler/hit-marking scratch is per worker
  // thread (thread_local in the stage-A body), keeping the footprint
  // O(n + s) per thread instead of O(n * s).
  struct NodeRound {
    std::uint8_t winner = 0;      // R_i hits every set (sample is it)
    std::vector<Element> sample;  // the winning R_i (filled only on win)
    std::vector<Element> wi;
  };
  std::vector<NodeRound> scratch(n);

  // Shard runtime (shard/runtime.hpp): stage A on shard workers over
  // contiguous node ranges, stage B applied in shard order — bit-identical
  // to the serial and parallel_nodes paths.  Workers spawn (PipeTransport:
  // fork) before any thread pool exists.
  const bool sharded = cfg.shard.enabled();
  std::optional<shard::ShardHarness> harness;
  if (sharded) {
    // All transports (socket included) use the fork-inheriting closure
    // path here: a HittingSetProblem owns the whole SetSystem, so a
    // bootstrap-over-wire worker would need a set-system codec — a
    // documented limitation until one exists (socket workers are still
    // fork()ed locally, so inheritance holds on one box).
    SamplerConfig run_sampler;
    run_sampler.c = cfg.sampler_c;
    run_sampler.log_n = log_n;
    run_sampler.strict = cfg.strict_sampling;
    harness.emplace(n, cfg.shard,
                    detail::HittingSetServe{problem, run_sampler});
  }

  std::optional<util::ThreadPool> pool;
  if (!sharded && cfg.parallel_nodes > 1) pool.emplace(cfg.parallel_nodes);

  // Stage-A chunk accumulators (see run_low_load): candidates for stage-B
  // replay in ascending node order plus sampler counters, bit-identical
  // for any thread count.  In the sharded run the chunks are the shards
  // themselves.
  struct ChunkAcc {
    std::vector<gossip::NodeId> replay;
    std::uint32_t attempts = 0;
    std::uint32_t failures = 0;
    std::uint64_t bytes = 0;  // pull-response bytes, metered in stage B
  };
  const std::size_t chunk =
      pool ? std::max<std::size_t>(64, n / (cfg.parallel_nodes * 8)) : n;
  std::vector<ChunkAcc> chunks(sharded ? harness->frame_count()
                                       : util::chunk_count(n, chunk));

  while (!done) {
    const std::size_t r = cfg.sample_size
                              ? cfg.sample_size
                              : hitting_set_sample_size(d, s);
    SamplerConfig sampler;
    sampler.target = r;
    sampler.c = cfg.sampler_c;
    sampler.log_n = log_n;
    sampler.strict = cfg.strict_sampling;
    const std::size_t pulls = sampler.pulls_per_node();
    const double keep_p =
        1.0 / (1.0 + 1.0 / (2.0 * static_cast<double>(d)));
    const auto push_cap = static_cast<std::size_t>(
        cfg.push_cap_c * static_cast<double>(d) *
        static_cast<double>(log_n)) + 1;
    const std::size_t stage_rounds =
        cfg.max_rounds ? cfg.max_rounds
                       : 40 * d * (util::ceil_log2(n) + 2) + 40;
    // Round-bound hint for this doubling stage: keeps the meter's
    // per-round push_back realloc-free (reserve is monotone, so later
    // stages only ever grow it).
    net.meter().reserve_rounds(global_round + stage_rounds + 1);

    for (std::size_t t = 1; t <= stage_rounds && !done; ++t) {
      ++global_round;
      net.begin_round();
      obs::trace_tick();  // rounds are the engine's sampling unit
      obs::TraceSpan round_span("hitting_set.round", global_round);
      std::size_t bookkeeping = 0;

      // Sampler pull ops (Section 2.1): a fixed count per awake node,
      // metered serially; the pulls themselves run in stage A.
      for (gossip::NodeId v = 0; v < n; ++v) {
        if (!net.asleep(v)) net.meter().add_pulls(v, pulls);
      }

      // --- Per-node stage A: the node's Section 2.1 pulls (reading the
      // store read-only), sample selection, hit marking, and W_i assembly.
      // Touches only node-local state and node_rng[v], so it fans out
      // across threads when cfg.parallel_nodes asks for it; every
      // shared-RNG side effect (the W_i mailbox pushes) is collected per
      // chunk and replayed in stage B in ascending node order, making
      // parallel runs bit-identical to serial ones.
      auto stage_a = [&](std::size_t k, std::size_t begin, std::size_t end) {
        thread_local detail::HsStageAScratch scr;
        ChunkAcc& ch = chunks[k];
        ch.replay.clear();
        ch.attempts = 0;
        ch.failures = 0;
        ch.bytes = 0;
        for (std::size_t vi = begin; vi < end; ++vi) {
          const auto v = static_cast<gossip::NodeId>(vi);
          NodeRound& sc = scratch[v];
          sc.winner = 0;
          if (net.asleep(v)) continue;
          ++ch.attempts;
          const detail::HsNodeOutcome out = detail::hitting_set_node_stage_a(
              problem, sampler, store, net, v, node_rng[v], scr, sc.sample,
              sc.wi, ch.bytes);
          if (out == detail::HsNodeOutcome::kFailed) {
            ++ch.failures;
            continue;
          }
          if (out == detail::HsNodeOutcome::kWinner) {
            sc.winner = 1;
            ch.replay.push_back(v);
            continue;
          }
          if (!sc.wi.empty() && sc.wi.size() <= push_cap) {
            ch.replay.push_back(v);
          }
        }
      };
      if (sharded) {
        // Ship every worker the round's store snapshot once, then each
        // shard its per-node flags and RNG states in bounded sub-frames
        // (see run_low_load); frame-indexed ChunkAccs walked in order by
        // stage B recover the ascending node order (the
        // deterministic-merge contract).
        harness->round(
            [&](gossip::Encoder& e) {
              shard::put_store_snapshot(e, store, net);
            },
            [&](shard::ShardRange rg, gossip::Encoder& e) {
              detail::put_hitting_set_task(
                  e, rg, r, push_cap, net,
                  std::span<const util::Rng>(node_rng));
            },
            [&](std::size_t frame, shard::ShardRange rg,
                gossip::Decoder& dec) {
              ChunkAcc& ch = chunks[frame];
              ch.replay.clear();
              for (gossip::NodeId v = rg.begin; v < rg.end; ++v) {
                const std::uint8_t flags = dec.get_u8();
                NodeRound& sc = scratch[v];
                sc.winner = 0;
                if (flags & shard::nodeflag::kActive) {
                  shard::get_rng(dec, node_rng[v]);
                }
                if (flags & shard::nodeflag::kWinner) {
                  sc.winner = 1;
                  shard::get_seq(dec, sc.sample);
                  ch.replay.push_back(v);
                } else if (flags & shard::nodeflag::kReplay) {
                  shard::get_seq(dec, sc.wi);
                  ch.replay.push_back(v);
                }
              }
              ch.attempts = dec.get_u32();
              ch.failures = dec.get_u32();
              ch.bytes = dec.get_u64();
            });
      } else {
        util::parallel_chunks(pool ? &*pool : nullptr, n, chunk, stage_a);
      }

      // --- Shared-state replay (stage B): only winners and within-cap W_i
      // pushers, in ascending node order. ---
      for (const ChunkAcc& ch : chunks) {
        res.stats.sampling_attempts += ch.attempts;
        res.stats.sampling_failures += ch.failures;
        if (ch.bytes != 0) net.meter().add_response_bytes(ch.bytes);
        for (const gossip::NodeId v : ch.replay) {
          ++bookkeeping;
          NodeRound& sc = scratch[v];
          if (sc.winner) {
            if (!done) {
              done = true;
              res.hitting_set = std::move(sc.sample);
              res.stats.rounds_to_first = global_round;
              res.stats.reached_optimum = true;
              res.d_used = d;
              res.sample_size = r;
            }
            continue;
          }
          for (auto x : sc.wi) copies_mail.push(v, x);
        }
      }

      copies_mail.deliver();
      for (const gossip::NodeId v : copies_mail.receivers()) {
        ++bookkeeping;
        for (const auto& x : copies_mail.inbox(v)) store.add_copy(v, x);
      }
      if (cfg.filtering) {
        bookkeeping += store.filter_copies(
            keep_p,
            [&](gossip::NodeId v) -> util::Rng& { return node_rng[v]; });
      }
      const std::size_t m = store.total_elements();
      if (m > res.stats.max_total_elements) res.stats.max_total_elements = m;
      res.stats.bookkeeping_touches_total += bookkeeping;
      res.stats.last_round_bookkeeping_touches = bookkeeping;
    }

    if (!done) {
      if (cfg.hitting_set_size || d >= x_size) break;  // give up
      d *= 2;  // doubling search on the unknown minimum hitting set size
    }
  }

  res.valid = !res.hitting_set.empty() &&
              problem.is_hitting_set(res.hitting_set);
  if (sharded && cfg.shard.recovery_out != nullptr) {
    *cfg.shard.recovery_out = harness->recovery_stats();
  }
  net.meter().finish();
  res.stats.max_work_per_round = net.meter().max_work_per_round();
  res.stats.total_push_ops = net.meter().total_push_ops();
  res.stats.total_pull_ops = net.meter().total_pull_ops();
  res.stats.total_bytes = net.meter().total_bytes();
  res.stats.final_total_elements = store.total_elements();
  obs::counter("engine.hitting_set.runs").add(1);
  obs::counter("engine.hitting_set.rounds").add(res.stats.rounds_to_first);
  return res;
}

}  // namespace lpt::core
