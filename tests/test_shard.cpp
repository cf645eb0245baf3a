// Shard runtime tests: partition plan, wire-message codec round-trips
// (including empty candidate lists and max-size frames), transport
// framing, and the headline guarantee — sharded
// low-load / hitting-set runs are bit-identical to the serial and
// parallel_nodes paths for shards in {1, 2, 4}, over all three transports
// (in-process queues, pipes, loopback TCP sockets — the socket runs
// bootstrap their workers over the wire), with and without loss/sleep
// faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/hitting_set.hpp"
#include "core/low_load.hpp"
#include "core/result.hpp"
#include "problems/min_disk.hpp"
#include "shard/plan.hpp"
#include "shard/runtime.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "workloads/disk_data.hpp"
#include "workloads/hs_data.hpp"

namespace lpt {
namespace {

using problems::MinDisk;
using workloads::DiskDataset;

// ---------------------------------------------------------------------
// ShardPlan: contiguous cover of [0, n), near-even sizes, exact ownership.
// ---------------------------------------------------------------------

TEST(ShardPlan, ContiguousCoverAndOwnership) {
  for (const std::size_t n : {1u, 2u, 7u, 64u, 1000u, 4096u}) {
    for (std::size_t k = 1; k <= std::min<std::size_t>(n, 9); ++k) {
      const shard::ShardPlan plan(n, k);
      ASSERT_EQ(plan.shard_count(), k);
      gossip::NodeId expect_begin = 0;
      for (std::size_t s = 0; s < k; ++s) {
        const auto r = plan.range(s);
        EXPECT_EQ(r.begin, expect_begin) << "n=" << n << " k=" << k;
        EXPECT_GE(r.size(), n / k);
        EXPECT_LE(r.size(), n / k + 1);
        for (gossip::NodeId v = r.begin; v < r.end; ++v) {
          ASSERT_EQ(plan.owner(v), s) << "n=" << n << " k=" << k << " v=" << v;
        }
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

// ---------------------------------------------------------------------
// Wire codec round-trips.
// ---------------------------------------------------------------------

TEST(ShardWire, RngStateRoundTripContinuesStream) {
  util::Rng original(977);
  for (int i = 0; i < 37; ++i) (void)original();  // advance off the seed
  (void)original.normal();  // bank a Marsaglia spare (part of the state)

  gossip::Encoder e;
  shard::put_rng(e, original);
  gossip::Decoder d(e.bytes());
  util::Rng restored(1);  // different seed: must be fully overwritten
  shard::get_rng(d, restored);
  EXPECT_TRUE(d.exhausted());

  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(original(), restored()) << "draw " << i;
  }
  ASSERT_EQ(original.normal(), restored.normal());
}

TEST(ShardWire, ElementSequenceRoundTripsIncludingEmpty) {
  const std::vector<std::uint32_t> ids = {0, 1, 0xffffffffu, 42};
  const std::vector<geom::Vec2> pts = {{0.0, 0.0}, {-1.5, 3.25}, {1e300, -0.0}};
  const std::vector<std::uint32_t> empty_ids;
  const std::vector<geom::Vec2> empty_pts;

  gossip::Encoder e;
  shard::put_seq(e, std::span<const std::uint32_t>(ids));
  shard::put_seq(e, std::span<const geom::Vec2>(pts));
  shard::put_seq(e, std::span<const std::uint32_t>(empty_ids));
  shard::put_seq(e, std::span<const geom::Vec2>(empty_pts));

  gossip::Decoder d(e.bytes());
  std::vector<std::uint32_t> ids2;
  std::vector<geom::Vec2> pts2;
  std::vector<std::uint32_t> empty_ids2 = {7};  // must be cleared
  std::vector<geom::Vec2> empty_pts2 = {{1, 1}};
  shard::get_seq(d, ids2);
  shard::get_seq(d, pts2);
  shard::get_seq(d, empty_ids2);
  shard::get_seq(d, empty_pts2);
  EXPECT_TRUE(d.exhausted());

  EXPECT_EQ(ids, ids2);
  EXPECT_TRUE(empty_ids2.empty());
  EXPECT_TRUE(empty_pts2.empty());
  ASSERT_EQ(pts.size(), pts2.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].x, pts2[i].x);
    EXPECT_EQ(pts[i].y, pts2[i].y);
    // -0.0 must survive bit-exactly, not just compare-equal.
    EXPECT_EQ(std::signbit(pts[i].y), std::signbit(pts2[i].y)) << i;
  }
}

// The sequence guards are sized in encoded *bytes*, not element counts: a
// count-based check once let 8 Vec2s (132 encoded bytes) pass a 64-byte
// budget because 8 < 64.  The max_bytes parameter exists so this is
// testable without a 256 MiB input.
TEST(ShardWireDeathTest, PutSeqRejectsByteBudgetNotElementCount) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<geom::Vec2> pts(8, geom::Vec2{1.0, 2.0});
  gossip::Encoder e;
  EXPECT_DEATH(
      shard::put_seq(e, std::span<const geom::Vec2>(pts), 64),
      "frame byte budget");
}

TEST(ShardWire, PutSeqAcceptsSequencesWithinTheByteBudget) {
  // 3 Vec2s encode to 4 + 48 = 52 bytes: inside a 64-byte budget even
  // though the element count alone (3 < 64) says nothing.
  const std::vector<geom::Vec2> pts(3, geom::Vec2{1.0, 2.0});
  gossip::Encoder e;
  shard::put_seq(e, std::span<const geom::Vec2>(pts), 64);
  EXPECT_EQ(e.size(), 4u + 3u * gossip::kWireBytesVec2);
  gossip::Decoder d(e.bytes());
  std::vector<geom::Vec2> out;
  shard::get_seq(d, out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(ShardWireDeathTest, GetSeqRejectsLengthPrefixByElementSize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Length prefix claims 10 Vec2s but only one element's worth of payload
  // follows: 10 <= remaining bytes (16) would pass a byte-count check, but
  // 10 Vec2s need 160 bytes — the guard must divide by the element size.
  gossip::Encoder e;
  e.put_u32(10);
  e.put(geom::Vec2{0.0, 0.0});
  gossip::Decoder d(e.bytes());
  std::vector<geom::Vec2> out;
  EXPECT_DEATH(shard::get_seq(d, out), "sequence too long");
}

TEST(ShardWire, MinDiskSolutionRoundTripsBitIdentically) {
  MinDisk p;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, 64);
  const auto sol = p.solve(pts);
  ASSERT_FALSE(sol.basis.empty());

  const problems::MinDiskSolution empty{};  // f(∅): empty disk, no basis

  gossip::Encoder e;
  wire_put(e, sol);
  wire_put(e, empty);
  gossip::Decoder d(e.bytes());
  problems::MinDiskSolution sol2, empty2;
  wire_get(d, sol2);
  wire_get(d, empty2);
  EXPECT_TRUE(d.exhausted());

  EXPECT_EQ(sol, sol2);  // defaulted ==: disk and basis, exact doubles
  EXPECT_EQ(empty, empty2);
  EXPECT_TRUE(empty2.disk.empty());
}

// ---------------------------------------------------------------------
// Round state: the store snapshot workers pull from, and task frames that
// carry nothing but flags and RNG states.
// ---------------------------------------------------------------------

// A store with empty nodes, a sleep set and response loss: every branch a
// pull can take.
struct PullWorld {
  static constexpr std::size_t kNodes = 64;
  gossip::Network net{kNodes, util::Rng(3), [] {
                        gossip::FaultModel f;
                        f.sleep_probability = 0.2;
                        f.response_loss = 0.1;
                        return f;
                      }()};
  gossip::NodeStore<geom::Vec2> store{kNodes};
  std::vector<geom::Vec2> pts =
      testsupport::golden_disk_points(DiskDataset::kHull, 96);
  std::vector<util::Rng> node_rng;

  PullWorld() {
    net.begin_round();
    util::Rng place(4);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto v = static_cast<gossip::NodeId>(place.below(kNodes));
      if (i % 3 == 0) {
        store.add_copy(v, pts[i]);
      } else {
        store.add_original(v, pts[i]);
      }
    }
    for (std::size_t v = 0; v < kNodes; ++v) node_rng.emplace_back(100 + v);
  }

  gossip::StoreSnapshot<geom::Vec2> snapshot() const {
    gossip::Encoder e;
    shard::put_store_snapshot(e, store, net);
    gossip::Decoder d(e.bytes());
    gossip::StoreSnapshot<geom::Vec2> snap;
    shard::get_store_snapshot(d, snap);
    EXPECT_TRUE(d.exhausted());
    return snap;
  }
};

TEST(ShardWire, StoreSnapshotRoundTripsAndPullsLikeTheStore) {
  const PullWorld w;
  ASSERT_GT(w.net.asleep_count(), 0u);
  const auto snap = w.snapshot();
  ASSERT_EQ(snap.nodes(), PullWorld::kNodes);
  EXPECT_EQ(snap.asleep_count(), w.net.asleep_count());
  EXPECT_EQ(snap.response_loss(), w.net.response_loss());
  std::size_t empty = 0;
  for (gossip::NodeId v = 0; v < PullWorld::kNodes; ++v) {
    EXPECT_EQ(snap.asleep(v), w.net.asleep(v)) << v;
    ASSERT_EQ(snap.size(v), w.store.size(v)) << v;
    empty += snap.size(v) == 0;
    for (std::size_t i = 0; i < snap.size(v); ++i) {
      EXPECT_EQ(snap.elem(v, i), w.store.elem(v, i)) << v << "/" << i;
    }
  }
  EXPECT_GT(empty, 0u);
  // The same stream state draws the same pulls from either view.
  for (gossip::NodeId v = 0; v < 8; ++v) {
    util::Rng a = w.node_rng[v];
    util::Rng b = w.node_rng[v];
    std::vector<geom::Vec2> from_store;
    std::vector<geom::Vec2> from_snap;
    const auto bytes_store = core::pull_sample(w.store, w.net, 141, a,
                                               from_store);
    const auto bytes_snap = core::pull_sample(snap, snap, 141, b, from_snap);
    EXPECT_EQ(from_store, from_snap) << v;
    EXPECT_EQ(bytes_store, bytes_snap) << v;
    EXPECT_EQ(a.state(), b.state()) << v;
  }
}

TEST(ShardWire, LowLoadTaskCarriesOnlyFlagsAndRngState) {
  const PullWorld w;
  MinDisk p;
  const auto active = [&](gossip::NodeId v) {
    return !w.net.asleep(v) && v % 5 != 0;
  };
  const shard::ShardRange r{8, 40};
  gossip::Encoder task;
  core::detail::put_low_load_task(task, r, /*found_snapshot=*/false, active,
                                  std::span<const util::Rng>(w.node_rng));

  // Decode by the schema: header, then per node one flag byte and, for an
  // active node, exactly its RNG state — no sample, no store view.
  gossip::Decoder d(task.bytes());
  EXPECT_EQ(d.get_u8(), 0);
  EXPECT_EQ(d.get_u32(), r.begin);
  EXPECT_EQ(d.get_u32(), r.end);
  std::size_t n_active = 0;
  for (gossip::NodeId v = r.begin; v < r.end; ++v) {
    const std::uint8_t flags = d.get_u8();
    ASSERT_EQ(flags, active(v) ? shard::nodeflag::kActive : 0) << v;
    if (flags == 0) continue;
    util::RngState st;
    shard::wire_get(d, st);
    EXPECT_EQ(st, w.node_rng[v].state()) << v;
    ++n_active;
  }
  EXPECT_TRUE(d.exhausted());
  ASSERT_GT(n_active, 0u);
  EXPECT_EQ(task.size(),
            9 + r.size() + n_active * shard::kWireElemBytes<util::RngState>);

  // A worker holding the round state answers this task exactly like the
  // in-process stage A: same flags, streams, violators, solutions, bytes.
  core::SamplerConfig sampler;
  sampler.target = 6 * 2 * 2;
  sampler.log_n = 7;
  core::detail::LowLoadServe<MinDisk> serve{p, p.solve(w.pts), sampler,
                                            /*run_termination=*/false};
  gossip::Encoder state;
  shard::put_store_snapshot(state, w.store, w.net);
  gossip::Decoder sd(state.bytes());
  serve.round_state(sd);
  gossip::Decoder td(task.bytes());
  gossip::Encoder result;
  serve(td, result);
  EXPECT_TRUE(td.exhausted());

  gossip::Decoder rd(result.bytes());
  EXPECT_EQ(shard::get_msg_type(rd), shard::MsgType::kStageAResult);
  std::uint64_t bytes = 0;
  std::uint32_t failures = 0;
  for (gossip::NodeId v = r.begin; v < r.end; ++v) {
    const std::uint8_t flags = rd.get_u8();
    if (!active(v)) {
      EXPECT_EQ(flags, 0) << v;
      continue;
    }
    util::Rng rng = w.node_rng[v];
    std::vector<geom::Vec2> pulled;
    std::vector<geom::Vec2> violators;
    MinDisk::Solution sol;
    const bool ok = core::detail::low_load_node_stage_a(
        p, sampler, w.store, w.net, v, rng, pulled, sol, violators, bytes);
    failures += !ok;
    EXPECT_EQ((flags & shard::nodeflag::kReplay) != 0,
              ok && !violators.empty())
        << v;
    util::RngState st;
    shard::wire_get(rd, st);
    EXPECT_EQ(st, rng.state()) << v;
    if (flags & shard::nodeflag::kReplay) {
      std::vector<geom::Vec2> got;
      shard::get_seq(rd, got);
      EXPECT_EQ(got, violators) << v;
    }
    if (flags & shard::nodeflag::kSolution) {
      MinDisk::Solution got;
      wire_get(rd, got);
      EXPECT_EQ(got, sol) << v;
    }
  }
  EXPECT_EQ(rd.get_u32(), n_active);  // attempts
  EXPECT_EQ(rd.get_u32(), failures);
  (void)rd.get_u32();                 // first_opt
  EXPECT_EQ(rd.get_u64(), bytes);
  EXPECT_TRUE(rd.exhausted());
}

TEST(ShardWire, HittingSetTaskCarriesOnlyFlagsAndRngState) {
  const PullWorld w;
  const shard::ShardRange r{0, 64};
  gossip::Encoder task;
  core::detail::put_hitting_set_task(task, r, /*r=*/12, /*push_cap=*/30,
                                     w.net,
                                     std::span<const util::Rng>(w.node_rng));
  gossip::Decoder d(task.bytes());
  EXPECT_EQ(d.get_u32(), 12u);
  EXPECT_EQ(d.get_u64(), 30u);
  EXPECT_EQ(d.get_u32(), r.begin);
  EXPECT_EQ(d.get_u32(), r.end);
  std::size_t n_active = 0;
  for (gossip::NodeId v = r.begin; v < r.end; ++v) {
    const std::uint8_t flags = d.get_u8();
    ASSERT_EQ(flags, w.net.asleep(v) ? 0 : shard::nodeflag::kActive) << v;
    if (flags == 0) continue;
    util::RngState st;
    shard::wire_get(d, st);
    EXPECT_EQ(st, w.node_rng[v].state()) << v;
    ++n_active;
  }
  EXPECT_TRUE(d.exhausted());
  EXPECT_EQ(n_active, PullWorld::kNodes - w.net.asleep_count());
  EXPECT_EQ(task.size(),
            20 + r.size() + n_active * shard::kWireElemBytes<util::RngState>);
}

TEST(ShardWireDeathTest, StoreSnapshotRejectsOutOfRangeSleeper) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  gossip::Encoder e;
  e.put_f64(0.0);
  e.put_u32(2);  // two nodes
  e.put_u32(1);  // one sleeper...
  e.put_u32(2);  // ...with id 2
  e.put_u32(0);
  e.put_u32(0);
  gossip::Decoder d(e.bytes());
  gossip::StoreSnapshot<geom::Vec2> snap;
  EXPECT_DEATH(shard::get_store_snapshot(d, snap), "sleeper id out of range");
}

// The engines' Wirable gate: the shipped problems the shard runtime serves.
static_assert(shard::Wirable<std::uint32_t>);
static_assert(shard::Wirable<geom::Vec2>);
static_assert(shard::Wirable<lp::Halfplane>);
static_assert(shard::Wirable<util::RngState>);
static_assert(shard::Wirable<problems::MinDiskSolution>);
static_assert(core::detail::ShardableLowLoad<problems::MinDisk>);

// ---------------------------------------------------------------------
// Transport framing: echo through every transport, max-size frames, and
// how a worker treats a malformed or closed input stream (the structured
// recv_frame results themselves: ShardRecvFrame in test_shard_recovery.cpp).
// ---------------------------------------------------------------------

// Serve handler that echoes the task payload back as the result payload.
void echo_serve(gossip::Decoder& d, gossip::Encoder& e) {
  shard::put_msg_type(e, shard::MsgType::kStageAResult);
  while (!d.exhausted()) e.put_u8(d.get_u8());
}

std::vector<std::uint8_t> round_trip_payload(shard::Transport& transport,
                                             std::size_t shards,
                                             const std::vector<std::uint8_t>&
                                                 body) {
  transport.spawn(shards, [](std::size_t, shard::Endpoint& ep) {
    shard::worker_loop(ep, echo_serve);
  });
  std::vector<std::uint8_t> echoed;
  for (std::size_t s = 0; s < shards; ++s) {
    gossip::Encoder task;
    shard::put_msg_type(task, shard::MsgType::kStageATask);
    for (const std::uint8_t b : body) task.put_u8(b);
    transport.endpoint(s).send(task.bytes());
  }
  for (std::size_t s = 0; s < shards; ++s) {
    const shard::RecvResult r = transport.endpoint(s).recv_frame(-1);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) continue;
    gossip::Decoder d(r.frame);
    EXPECT_EQ(shard::get_msg_type(d), shard::MsgType::kStageAResult);
    echoed.assign(r.frame.begin() + 1, r.frame.end());
  }
  gossip::Encoder bye;
  shard::put_msg_type(bye, shard::MsgType::kShutdown);
  for (std::size_t s = 0; s < shards; ++s) {
    transport.endpoint(s).send(bye.bytes());
  }
  transport.join();
  return echoed;
}

TEST(ShardTransport, InProcEchoesFrames) {
  std::vector<std::uint8_t> body(1 << 10);
  util::Rng rng(5);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::InProcTransport t;
  EXPECT_EQ(round_trip_payload(t, 3, body), body);
}

TEST(ShardTransport, PipeEchoesFrames) {
  std::vector<std::uint8_t> body(1 << 10);
  util::Rng rng(6);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::PipeTransport t;
  EXPECT_EQ(round_trip_payload(t, 3, body), body);
}

// A frame at several megabytes (far beyond one pipe buffer) must survive
// both directions intact: the frame I/O loops over short reads/writes.
TEST(ShardTransport, PipeCarriesMultiMegabyteFrames) {
  std::vector<std::uint8_t> body(8u << 20);
  util::Rng rng(7);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::PipeTransport t;
  EXPECT_EQ(round_trip_payload(t, 1, body), body);
}

TEST(ShardTransport, SocketEchoesFrames) {
  std::vector<std::uint8_t> body(1 << 10);
  util::Rng rng(8);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::SocketTransport t;
  EXPECT_EQ(round_trip_payload(t, 3, body), body);
}

// Multi-megabyte frames over loopback TCP: far beyond the socket buffers,
// so both directions must loop over short reads/writes exactly like pipes.
TEST(ShardTransport, SocketCarriesMultiMegabyteFrames) {
  std::vector<std::uint8_t> body(8u << 20);
  util::Rng rng(9);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
  shard::SocketTransport t;
  EXPECT_EQ(round_trip_payload(t, 1, body), body);
}

// Serve handler that counts how often it runs and answers nothing.
struct CountingServe {
  int* served;
  void operator()(gossip::Decoder&, gossip::Encoder&) const { ++*served; }
};

// A worker whose input carries a length prefix above kMaxFrameBytes
// rejects the frame without serving it and its process exits cleanly: the
// coordinator sees the lane go down and recovers, nobody aborts.
TEST(ShardTransportDeathTest, RejectsOversizedLengthPrefix) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t huge = shard::kMaxFrameBytes + 1;
  ASSERT_EQ(::write(fds[1], &huge, sizeof huge),
            static_cast<ssize_t>(sizeof huge));
  EXPECT_EXIT(
      {
        shard::PipeEndpoint ep(fds[0], fds[1]);
        int served = 0;
        shard::worker_loop(ep, CountingServe{&served});
        std::exit(served == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  ::close(fds[0]);
  ::close(fds[1]);
}

// EOF in the middle of a frame: the partial frame is rejected, never
// served, and the worker exits cleanly.
TEST(ShardTransportDeathTest, RejectsTruncatedFrame) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t len = 100;
  ASSERT_EQ(::write(fds[1], &len, sizeof len),
            static_cast<ssize_t>(sizeof len));
  const std::uint8_t partial[10] = {};
  ASSERT_EQ(::write(fds[1], partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  ::close(fds[1]);  // EOF arrives mid-frame
  EXPECT_EXIT(
      {
        shard::PipeEndpoint ep(fds[0], -1);
        int served = 0;
        shard::worker_loop(ep, CountingServe{&served});
        std::exit(served == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  ::close(fds[0]);
}

// EOF at a frame boundary reads like a shutdown frame: the worker loop
// returns without serving anything.
TEST(ShardTransport, CleanEofReadsAsEmptyFrame) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[1]);
  shard::PipeEndpoint ep(fds[0], -1);
  int served = 0;
  shard::worker_loop(ep, CountingServe{&served});
  EXPECT_EQ(served, 0);
}

TEST(ShardWireDeathTest, RejectsUnknownMessageType) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<std::uint8_t> garbage = {0x7f, 1, 2, 3};
  gossip::Decoder d(garbage);
  EXPECT_DEATH((void)shard::get_msg_type(d), "unknown message type");
}

// ---------------------------------------------------------------------
// Integration: sharded runs are bit-identical to serial / parallel_nodes.
// ---------------------------------------------------------------------

void expect_stats_equal(const core::DistributedRunStats& a,
                        const core::DistributedRunStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.rounds_to_first, b.rounds_to_first) << what;
  EXPECT_EQ(a.rounds_to_all_output, b.rounds_to_all_output) << what;
  EXPECT_EQ(a.reached_optimum, b.reached_optimum) << what;
  EXPECT_EQ(a.all_outputs_correct, b.all_outputs_correct) << what;
  EXPECT_EQ(a.max_work_per_round, b.max_work_per_round) << what;
  EXPECT_EQ(a.total_push_ops, b.total_push_ops) << what;
  EXPECT_EQ(a.total_pull_ops, b.total_pull_ops) << what;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
  EXPECT_EQ(a.initial_total_elements, b.initial_total_elements) << what;
  EXPECT_EQ(a.max_total_elements, b.max_total_elements) << what;
  EXPECT_EQ(a.final_total_elements, b.final_total_elements) << what;
  EXPECT_EQ(a.sampling_attempts, b.sampling_attempts) << what;
  EXPECT_EQ(a.sampling_failures, b.sampling_failures) << what;
  EXPECT_EQ(a.bookkeeping_touches_total, b.bookkeeping_touches_total) << what;
  EXPECT_EQ(a.last_round_bookkeeping_touches,
            b.last_round_bookkeeping_touches)
      << what;
}

const std::size_t kShardCounts[] = {1, 2, 4};
const shard::TransportKind kTransports[] = {shard::TransportKind::kInProc,
                                            shard::TransportKind::kPipe,
                                            shard::TransportKind::kSocket};

std::string config_name(std::size_t shards, shard::TransportKind t) {
  const char* name = t == shard::TransportKind::kInProc ? "inproc"
                     : t == shard::TransportKind::kPipe ? "pipe"
                                                        : "socket";
  return std::to_string(shards) + " shard(s) over " + name;
}

void check_low_load_bit_identity(core::LowLoadConfig base_cfg,
                                 DiskDataset dataset, std::size_t n) {
  MinDisk p;
  const auto pts = testsupport::golden_disk_points(dataset, n);
  const auto serial = core::run_low_load(p, pts, n, base_cfg);

  core::LowLoadConfig par_cfg = base_cfg;
  par_cfg.parallel_nodes = 4;
  const auto par = core::run_low_load(p, pts, n, par_cfg);
  expect_stats_equal(serial.stats, par.stats, "parallel_nodes=4");
  EXPECT_EQ(serial.solution, par.solution) << "parallel_nodes=4";

  for (const std::size_t shards : kShardCounts) {
    for (const auto transport : kTransports) {
      core::LowLoadConfig cfg = base_cfg;
      cfg.shard.shards = shards;
      cfg.shard.transport = transport;
      const auto res = core::run_low_load(p, pts, n, cfg);
      const std::string what = config_name(shards, transport);
      EXPECT_EQ(serial.solution, res.solution) << what;
      expect_stats_equal(serial.stats, res.stats, what);
    }
  }
}

TEST(ShardedLowLoad, BitIdenticalToSerialAndParallelNodes) {
  core::LowLoadConfig cfg;
  cfg.seed = 33;
  check_low_load_bit_identity(cfg, DiskDataset::kHull, 256);
}

TEST(ShardedLowLoad, BitIdenticalUnderLossAndSleepFaults) {
  core::LowLoadConfig cfg;
  cfg.seed = 44;
  cfg.faults.push_loss = 0.2;
  cfg.faults.response_loss = 0.1;
  cfg.faults.sleep_probability = 0.15;
  check_low_load_bit_identity(cfg, DiskDataset::kTripleDisk, 256);
}

TEST(ShardedLowLoad, BitIdenticalWithTerminationProtocol) {
  core::LowLoadConfig cfg;
  cfg.seed = 55;
  cfg.run_termination = true;
  check_low_load_bit_identity(cfg, DiskDataset::kDuoDisk, 128);
}

TEST(ShardedLowLoad, TinySubFramesBitIdentical) {
  // max_frame_nodes far below the shard range forces many sub-frames per
  // shard per round (the large-n guard: frame bytes bounded by per-node
  // state, not n); the frame-indexed merge must stay exact.
  MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, n);
  core::LowLoadConfig serial_cfg;
  serial_cfg.seed = 33;
  const auto serial = core::run_low_load(p, pts, n, serial_cfg);
  for (const auto transport : kTransports) {
    core::LowLoadConfig cfg = serial_cfg;
    cfg.shard.shards = 3;
    cfg.shard.transport = transport;
    cfg.shard.max_frame_nodes = 16;  // ~6 sub-frames per 85-node shard
    const auto res = core::run_low_load(p, pts, n, cfg);
    const std::string what = config_name(3, transport) + " frames=16";
    EXPECT_EQ(serial.solution, res.solution) << what;
    expect_stats_equal(serial.stats, res.stats, what);
  }
}

TEST(ShardedLowLoad, UnevenRangeShardCountIsExact) {
  // n = 250 over 4 shards: ranges of 62/63 — exercises the floor split.
  core::LowLoadConfig cfg;
  cfg.seed = 66;
  check_low_load_bit_identity(cfg, DiskDataset::kTriangle, 250);
}

void check_hitting_set_bit_identity(core::HittingSetConfig base_cfg,
                                    std::uint64_t data_seed, std::size_t n,
                                    std::size_t sets) {
  util::Rng data_rng(data_seed);
  const auto inst =
      workloads::generate_planted_hitting_set(n, sets, 2, 2, data_rng);
  problems::HittingSetProblem p(inst.system);

  const auto serial = core::run_hitting_set(p, n, base_cfg);
  ASSERT_TRUE(serial.valid);

  core::HittingSetConfig par_cfg = base_cfg;
  par_cfg.parallel_nodes = 4;
  const auto par = core::run_hitting_set(p, n, par_cfg);
  expect_stats_equal(serial.stats, par.stats, "parallel_nodes=4");
  EXPECT_EQ(serial.hitting_set, par.hitting_set) << "parallel_nodes=4";

  for (const std::size_t shards : kShardCounts) {
    for (const auto transport : kTransports) {
      core::HittingSetConfig cfg = base_cfg;
      cfg.shard.shards = shards;
      cfg.shard.transport = transport;
      const auto res = core::run_hitting_set(p, n, cfg);
      const std::string what = config_name(shards, transport);
      EXPECT_EQ(serial.hitting_set, res.hitting_set) << what;
      EXPECT_EQ(serial.valid, res.valid) << what;
      EXPECT_EQ(serial.d_used, res.d_used) << what;
      EXPECT_EQ(serial.sample_size, res.sample_size) << what;
      expect_stats_equal(serial.stats, res.stats, what);
    }
  }
}

TEST(ShardedHittingSet, BitIdenticalToSerialAndParallelNodes) {
  core::HittingSetConfig cfg;
  cfg.seed = 77;
  cfg.hitting_set_size = 2;
  check_hitting_set_bit_identity(cfg, 19, 256, 64);
}

TEST(ShardedHittingSet, BitIdenticalUnderLossAndSleepFaults) {
  core::HittingSetConfig cfg;
  cfg.seed = 88;
  cfg.hitting_set_size = 2;
  cfg.faults.push_loss = 0.2;
  cfg.faults.response_loss = 0.1;
  cfg.faults.sleep_probability = 0.1;
  check_hitting_set_bit_identity(cfg, 23, 128, 32);
}

// In-process-only sharded bit-identity under every pull-side fault: i.i.d.
// sleep, stragglers and Markov-burst response loss, so the sleeping list
// and the per-round loss rate travel in the round state.  In-process
// transports only (no fork), so the ThreadSanitizer CI job runs it.
core::LowLoadConfig inproc_fault_low_load() {
  core::LowLoadConfig cfg;
  cfg.seed = 91;
  cfg.faults.push_loss = 0.1;
  cfg.faults.response_loss = 0.15;
  cfg.faults.sleep_probability = 0.1;
  cfg.faults.burst = {0.3, 0.6, 0.3, 0.4};
  cfg.faults.straggler.rate = 0.02;
  cfg.min_rounds = 12;  // enough rounds for burst epochs and straggles
  return cfg;
}

TEST(ShardedInProc, LowLoadBitIdenticalUnderLossAndSleep) {
  MinDisk p;
  const std::size_t n = 256;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kTriangle, n);
  const core::LowLoadConfig base = inproc_fault_low_load();
  const auto serial = core::run_low_load(p, pts, n, base);
  for (const std::size_t shards : {2u, 4u}) {
    core::LowLoadConfig cfg = base;
    cfg.shard.shards = shards;
    cfg.shard.max_frame_nodes = 48;
    const auto res = core::run_low_load(p, pts, n, cfg);
    const std::string what =
        config_name(shards, shard::TransportKind::kInProc);
    EXPECT_EQ(serial.solution, res.solution) << what;
    expect_stats_equal(serial.stats, res.stats, what);
  }
}

TEST(ShardedInProc, HittingSetBitIdenticalUnderLossAndSleep) {
  util::Rng data_rng(31);
  const auto inst =
      workloads::generate_planted_hitting_set(256, 96, 4, 2, data_rng);
  problems::HittingSetProblem p(inst.system);
  core::HittingSetConfig base;
  base.seed = 92;
  base.hitting_set_size = 4;
  base.sample_size = 8;  // small samples: several rounds
  base.faults = inproc_fault_low_load().faults;
  const auto serial = core::run_hitting_set(p, 256, base);
  ASSERT_TRUE(serial.valid);
  ASSERT_GE(serial.stats.rounds_to_first, 3u);
  for (const std::size_t shards : {2u, 4u}) {
    core::HittingSetConfig cfg = base;
    cfg.shard.shards = shards;
    cfg.shard.max_frame_nodes = 32;
    const auto res = core::run_hitting_set(p, 256, cfg);
    const std::string what =
        config_name(shards, shard::TransportKind::kInProc);
    EXPECT_EQ(serial.hitting_set, res.hitting_set) << what;
    EXPECT_EQ(serial.d_used, res.d_used) << what;
    expect_stats_equal(serial.stats, res.stats, what);
  }
}

TEST(ShardedHittingSet, DoublingSearchBitIdentical) {
  // Unknown d: the doubling search restarts stages; the shard workers must
  // follow the changing sample size r through the per-round task header.
  core::HittingSetConfig cfg;
  cfg.seed = 99;
  check_hitting_set_bit_identity(cfg, 29, 128, 32);
}

}  // namespace
}  // namespace lpt
