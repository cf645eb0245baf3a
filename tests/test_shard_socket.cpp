// Socket-transport-specific tests: the failure modes a TCP stream adds on
// top of the pipe surface (a peer that connects and then vanishes, a
// half-open stream truncating mid-frame, reconnect-after-kill delivering a
// brand-new stream) and the bootstrap-over-the-wire path that replaces
// fork inheritance for socket workers — payload round-trip through the
// serve factory, bootstrap_worker_loop over a real stream fd, and the
// service layer answering a distributed query over loopback TCP
// bit-identically to the serial engine.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/low_load.hpp"
#include "core/result.hpp"
#include "problems/min_disk.hpp"
#include "service/service.hpp"
#include "shard/runtime.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"
#include "support/test_support.hpp"
#include "workloads/disk_data.hpp"

namespace lpt {
namespace {

using problems::MinDisk;
using shard::DownCause;
using shard::RecvResult;
using shard::TransportKind;
using shard::WorkerExit;
using workloads::DiskDataset;

// A connected AF_UNIX stream pair: byte-stream semantics like TCP (partial
// reads, FIN-style EOF on close, EPIPE on write-after-close), without
// needing a listener — the right fixture for endpoint-level stream tests.
struct StreamPair {
  int a = -1;
  int b = -1;
  StreamPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~StreamPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void close_a() {
    ::close(a);
    a = -1;
  }
};

// ---------------------------------------------------------------------
// SocketEndpoint over a raw stream: framing, timeout, truncation, EPIPE.
// ---------------------------------------------------------------------

TEST(SocketEndpoint, RoundTripsAFrameOverAStreamPair) {
  StreamPair s;
  shard::SocketEndpoint tx(s.a);
  shard::SocketEndpoint rx(s.b);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(tx.send(payload));
  const RecvResult r = rx.recv_frame(-1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame, payload);
  s.a = s.b = -1;  // the endpoints own the fds now
}

TEST(SocketEndpoint, TimesOutOnASilentPeer) {
  StreamPair s;
  shard::SocketEndpoint rx(s.b);
  const RecvResult r = rx.recv_frame(50);
  EXPECT_EQ(r.status, RecvResult::Status::kTimeout);
  s.b = -1;
}

TEST(SocketEndpoint, ReportsCleanEofWhenPeerClosesAtAFrameBoundary) {
  StreamPair s;
  s.close_a();
  shard::SocketEndpoint rx(s.b);
  const RecvResult r = rx.recv_frame(-1);
  EXPECT_EQ(r.status, RecvResult::Status::kDown);
  EXPECT_EQ(r.cause, DownCause::kEof);
  s.b = -1;
}

TEST(SocketEndpoint, ReportsHalfOpenStreamTruncationMidFrame) {
  // The writer announces a 64-byte frame, delivers 10 bytes, and closes:
  // the half-open read side must classify this as a mid-frame truncation,
  // not a clean shutdown.
  StreamPair s;
  const std::uint32_t len = 64;
  ASSERT_EQ(::write(s.a, &len, sizeof len),
            static_cast<ssize_t>(sizeof len));
  const std::uint8_t partial[10] = {};
  ASSERT_EQ(::write(s.a, partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  s.close_a();
  shard::SocketEndpoint rx(s.b);
  const RecvResult r = rx.recv_frame(-1);
  EXPECT_EQ(r.status, RecvResult::Status::kDown);
  EXPECT_EQ(r.cause, DownCause::kTruncated);
  s.b = -1;
}

TEST(SocketEndpoint, SendReturnsFalseOncePeerIsGone) {
  ::signal(SIGPIPE, SIG_IGN);  // normally done by ProcessTransport::spawn
  StreamPair s;
  s.close_a();
  shard::SocketEndpoint tx(s.b);
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  // AF_UNIX reports the closed peer on the first write (TCP may need a
  // round trip first); either way a finite number of sends must fail
  // without aborting.
  bool failed = false;
  for (int i = 0; i < 3 && !failed; ++i) failed = !tx.send(payload);
  EXPECT_TRUE(failed);
  s.b = -1;
}

// ---------------------------------------------------------------------
// SocketTransport process lifecycle: connect-then-vanish, kill, respawn
// over a fresh connection.
// ---------------------------------------------------------------------

void echo_serve(gossip::Decoder& d, gossip::Encoder& e) {
  shard::put_msg_type(e, shard::MsgType::kStageAResult);
  while (!d.exhausted()) e.put_u8(d.get_u8());
}

TEST(SocketTransport, ListensOnAnEphemeralLoopbackPort) {
  shard::SocketTransport t;
  EXPECT_NE(t.port(), 0);
}

TEST(SocketTransport, PeerThatConnectsThenVanishesReadsAsEof) {
  // The worker connects, completes the hello, and exits without ever
  // serving: the coordinator's next recv sees the FIN as a clean EOF and
  // the reaped exit status is the worker's real one.
  shard::SocketTransport t;
  t.spawn(1, [](std::size_t, shard::Endpoint&) { ::_exit(7); });
  const RecvResult r = t.endpoint(0).recv_frame(-1);
  EXPECT_EQ(r.status, RecvResult::Status::kDown);
  EXPECT_EQ(r.cause, DownCause::kEof);
  WorkerExit ex;
  do {  // WNOHANG reap: poll until the child actually died
    ex = t.exit_status(0);
  } while (ex.kind == WorkerExit::Kind::kRunning);
  EXPECT_EQ(ex.kind, WorkerExit::Kind::kExited);
  EXPECT_EQ(ex.value, 7);
  t.expect_down(0);
  t.join();
}

TEST(SocketTransport, RespawnAcceptsAFreshConnectionAfterKill) {
  shard::SocketTransport t;
  t.spawn(2, [](std::size_t, shard::Endpoint& ep) {
    shard::worker_loop(ep, echo_serve);
  });
  gossip::Encoder task;
  shard::put_msg_type(task, shard::MsgType::kStageATask);
  task.put_u8(11);

  // Shard 0 works, dies by SIGKILL, and is respawned over a brand-new
  // accepted connection (respawn-over-reconnect) that serves again.
  ASSERT_TRUE(t.endpoint(0).send(task.bytes()));
  ASSERT_TRUE(t.endpoint(0).recv_frame(-1).ok());
  t.kill_worker(0);
  const WorkerExit ex = t.exit_status(0);
  EXPECT_EQ(ex.kind, WorkerExit::Kind::kSignaled);
  EXPECT_EQ(ex.value, SIGKILL);
  t.respawn(0);
  ASSERT_TRUE(t.endpoint(0).send(task.bytes()));
  const RecvResult r = t.endpoint(0).recv_frame(-1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame.back(), 11);

  // Shard 1 was untouched throughout.
  ASSERT_TRUE(t.endpoint(1).send(task.bytes()));
  ASSERT_TRUE(t.endpoint(1).recv_frame(-1).ok());

  gossip::Encoder bye;
  shard::put_msg_type(bye, shard::MsgType::kShutdown);
  EXPECT_TRUE(t.endpoint(0).send(bye.bytes()));
  EXPECT_TRUE(t.endpoint(1).send(bye.bytes()));
  t.join();
}

// ---------------------------------------------------------------------
// Bootstrap over the wire: the payload round-trips through the serve
// factory, and bootstrap_worker_loop runs the result over a real stream.
// ---------------------------------------------------------------------

TEST(SocketBootstrap, PayloadRoundTripsThroughTheServeFactory) {
  // Encode the run-static description, decode it through the factory, and
  // check the rebuilt handler answers a task byte-for-byte like a handler
  // built directly from the same inputs — the bootstrap carries *all* the
  // state the serve closure needs.
  MinDisk p;
  core::SamplerConfig sampler;
  sampler.target = 54;
  sampler.log_n = 8;
  sampler.c = 2.5;
  sampler.strict = true;
  const MinDisk::Solution oracle{};  // value only compared via same_value
  const auto payload = core::detail::low_load_bootstrap_payload<MinDisk>(
      oracle, sampler, /*run_termination=*/true);

  gossip::Decoder d(payload);
  auto factory = core::detail::make_low_load_bootstrap_factory<MinDisk>(p);
  auto rebuilt = factory(d);
  EXPECT_TRUE(d.exhausted()) << "factory must consume the whole payload";
  core::detail::LowLoadServe<MinDisk> direct{p, oracle, sampler,
                                             /*run_termination=*/true};

  // An all-inactive task range exercises the full header/trailer codec
  // without needing live RNG state.
  gossip::Encoder task;
  task.put_u8(0);   // no solution snapshot yet
  task.put_u32(0);  // begin
  task.put_u32(3);  // end
  for (int v = 0; v < 3; ++v) task.put_u8(0);  // all inactive

  gossip::Encoder out_rebuilt;
  gossip::Decoder d1(task.bytes());
  rebuilt(d1, out_rebuilt);
  gossip::Encoder out_direct;
  gossip::Decoder d2(task.bytes());
  direct(d2, out_direct);
  EXPECT_EQ(out_rebuilt.bytes(), out_direct.bytes());
}

TEST(SocketBootstrap, WorkerLoopServesOnlyAfterItsBootstrapFrame) {
  // bootstrap_worker_loop over a real stream fd: the first frame carries
  // the handler's configuration (an echo prefix here), later task frames
  // are served with it, and the shutdown frame ends the loop.
  StreamPair s;
  std::thread worker([fd = s.b] {
    shard::SocketEndpoint ep(fd);
    shard::bootstrap_worker_loop(ep, [](gossip::Decoder& d) {
      const std::uint8_t prefix = d.get_u8();
      return [prefix](gossip::Decoder& task, gossip::Encoder& e) {
        shard::put_msg_type(e, shard::MsgType::kStageAResult);
        e.put_u8(prefix);
        while (!task.exhausted()) e.put_u8(task.get_u8());
      };
    });
  });
  s.b = -1;  // the worker's endpoint owns it now

  shard::SocketEndpoint coord(s.a);
  s.a = -1;
  gossip::Encoder boot;
  shard::put_msg_type(boot, shard::MsgType::kBootstrap);
  boot.put_u8(42);
  ASSERT_TRUE(coord.send(boot.bytes()));

  gossip::Encoder task;
  shard::put_msg_type(task, shard::MsgType::kStageATask);
  task.put_u8(1);
  task.put_u8(2);
  ASSERT_TRUE(coord.send(task.bytes()));
  const RecvResult r = coord.recv_frame(-1);
  ASSERT_TRUE(r.ok());
  gossip::Decoder rd(r.frame);
  EXPECT_EQ(shard::get_msg_type(rd), shard::MsgType::kStageAResult);
  EXPECT_EQ(rd.get_u8(), 42);  // the bootstrap-configured prefix
  EXPECT_EQ(rd.get_u8(), 1);
  EXPECT_EQ(rd.get_u8(), 2);

  gossip::Encoder bye;
  shard::put_msg_type(bye, shard::MsgType::kShutdown);
  ASSERT_TRUE(coord.send(bye.bytes()));
  worker.join();
}

// ---------------------------------------------------------------------
// End to end: the engine and the service over loopback TCP match the
// serial engine bit for bit.
// ---------------------------------------------------------------------

TEST(SocketEndToEnd, LowLoadOverSocketMatchesSerial) {
  MinDisk p;
  const std::size_t n = 192;
  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, n);
  core::LowLoadConfig base;
  base.seed = 21;
  const auto serial = core::run_low_load(p, pts, n, base);

  core::LowLoadConfig cfg = base;
  cfg.shard.shards = 3;
  cfg.shard.transport = TransportKind::kSocket;
  const auto res = core::run_low_load(p, pts, n, cfg);
  EXPECT_EQ(serial.solution, res.solution);
  EXPECT_EQ(serial.stats.rounds_to_first, res.stats.rounds_to_first);
  EXPECT_EQ(serial.stats.total_bytes, res.stats.total_bytes);
  EXPECT_EQ(serial.stats.sampling_attempts, res.stats.sampling_attempts);
}

TEST(SocketEndToEnd, ServiceAnswersDistributedQueryOverSocket) {
  service::ServiceConfig cfg;
  cfg.direct_cutoff = 32;
  cfg.distributed_nodes = 64;
  cfg.engine.shard.shards = 2;
  cfg.engine.shard.transport = TransportKind::kSocket;
  service::LptService svc(cfg);

  const auto pts = testsupport::golden_disk_points(DiskDataset::kHull, 64);
  service::QueryRequest q = svc.acquire_request();
  q.id = 4;
  q.kind = service::QueryKind::kMinDisk;
  q.seed = 5;
  q.points.assign(pts.begin(), pts.end());
  const std::vector<geom::Vec2> kept = q.points;  // before the move
  core::LowLoadConfig ref_cfg = svc.engine_config_for(q);
  ref_cfg.shard = {};  // the serial reference

  std::vector<service::QueryResponse> out;
  svc.submit(std::move(q));
  ASSERT_EQ(svc.run_epoch(out), 1u);
  EXPECT_EQ(out[0].status, service::QueryStatus::kOk);
  EXPECT_EQ(out[0].engine, service::EngineUsed::kDistributed);

  const auto ref = core::run_low_load(
      MinDisk{}, std::span<const geom::Vec2>(kept), cfg.distributed_nodes,
      ref_cfg);
  EXPECT_EQ(out[0].disk, ref.solution);
  EXPECT_EQ(out[0].rounds,
            static_cast<std::uint32_t>(ref.stats.rounds_to_first));
}

}  // namespace
}  // namespace lpt
