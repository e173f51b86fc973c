// Fault-injection regression tests for the socket transport's wire
// layer, driving rt::SocketTransport directly (no protocol stack):
//
//  - stream corruption (oversized length prefix, undecodable payload)
//    must tear the connection down, never resynchronize by guesswork;
//  - a slow reader must surface as fast send failures at the sender
//    (bounded outbound queue), never wedge the sending thread;
//  - a connection killed mid-frame must deliver whole frames or nothing
//    (single-buffer frames cannot be torn between header and payload);
//  - partial writes must resume correctly and preserve frame order;
//  - a well-formed frame whose src/dst does not match the connection it
//    arrived on must be rejected, never routed by its header.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/message.h"
#include "protocol/wire_codec.h"
#include "runtime/socket_transport.h"

namespace dcp::rt {
namespace {

constexpr auto kWaitBudget = std::chrono::seconds(10);

/// Spins (politely) until `cond` holds or the budget expires.
bool WaitFor(const std::function<bool()>& cond) {
  const auto deadline = std::chrono::steady_clock::now() + kWaitBudget;  // dcp-lint: allow(wall-clock) — real-time test deadline
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;  // dcp-lint: allow(wall-clock) — real-time test deadline
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Thread-safe recording sink: remembers every delivered rpc_id.
class RecordingSink : public net::MessageSink {
 public:
  void Deliver(net::Message msg) override {
    std::lock_guard<std::mutex> lock(mu_);
    rpc_ids_.push_back(msg.rpc_id);
  }

  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rpc_ids_.size();
  }

  std::vector<uint64_t> rpc_ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rpc_ids_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<uint64_t> rpc_ids_;
};

net::Message TestMessage(NodeId src, NodeId dst, uint64_t rpc_id,
                         size_t padding = 0) {
  net::Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.rpc_id = rpc_id;
  msg.kind = net::Message::Kind::kRequest;
  msg.type = net::TypeName("transport-fault-test");
  if (padding > 0) {
    // Fat frames via the status string — fills kernel buffers fast.
    msg.status = Status::Internal(std::string(padding, 'x'));
  }
  return msg;
}

class TransportFaultTest : public ::testing::Test {
 protected:
  void StartTransport(uint32_t nodes, SocketTransportOptions base = {}) {
    base.num_nodes = nodes;
    base.num_workers = 2;
    base.codec = protocol::MakeWireCodec();
    transport_ = std::make_unique<SocketTransport>(base);
    sinks_.clear();
    for (uint32_t i = 0; i < nodes; ++i) {
      sinks_.push_back(std::make_unique<RecordingSink>());
      transport_->Register(NodeId{i}, sinks_.back().get());
    }
    ASSERT_TRUE(transport_->Start().ok());
  }

  void TearDown() override {
    if (transport_) transport_->Stop();
  }

  std::unique_ptr<SocketTransport> transport_;
  std::vector<std::unique_ptr<RecordingSink>> sinks_;
};

TEST_F(TransportFaultTest, OversizedLengthPrefixTearsConnectionDown) {
  StartTransport(2);

  // Healthy traffic first.
  transport_->Send(TestMessage(0, 1, 1));
  ASSERT_TRUE(WaitFor([&] { return sinks_[1]->count() == 1; }));

  // Garbage with an impossible length prefix, then a valid frame behind
  // it. The pre-fix implementation cleared its read buffer and kept the
  // connection — later bytes could be misread as fresh frame headers.
  // The stream is desynchronized; the only safe move is teardown.
  ASSERT_TRUE(transport_
                  ->InjectRawBytesForTest(
                      0, 1, {0xff, 0xff, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef})
                  .ok());
  transport_->Send(TestMessage(0, 1, 2));

  ASSERT_TRUE(WaitFor([&] { return transport_->counters().decode_failures >= 1; }));

  // Nothing sent after the corruption point may be delivered.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(sinks_[1]->count(), 1u);
  EXPECT_EQ(sinks_[1]->rpc_ids(), (std::vector<uint64_t>{1}));

  // The teardown propagates to the write side: later sends fail fast.
  std::atomic<int> failed{0};
  ASSERT_TRUE(WaitFor([&] {
    transport_->Send(TestMessage(0, 1, 3), [&] { failed.fetch_add(1); });
    return failed.load() > 0;
  }));

  // Traffic between other pairs is unaffected... there is no third node
  // here, but the reverse direction of the same TCP connection must be
  // dead too (shutdown kills both directions).
  std::atomic<int> reverse_failed{0};
  ASSERT_TRUE(WaitFor([&] {
    transport_->Send(TestMessage(1, 0, 4), [&] { reverse_failed.fetch_add(1); });
    return reverse_failed.load() > 0;
  }));
}

TEST_F(TransportFaultTest, UndecodablePayloadTearsConnectionDown) {
  StartTransport(2);

  // A plausible length prefix (4 bytes) framing garbage that fails the
  // codec's magic check. Well-framed garbage is equally fatal: correct
  // peers never produce it, so the framing itself cannot be trusted.
  ASSERT_TRUE(transport_
                  ->InjectRawBytesForTest(0, 1,
                                          {0x04, 0x00, 0x00, 0x00,  // len=4
                                           0x00, 0x00, 0x00, 0x00})  // bad magic
                  .ok());
  ASSERT_TRUE(WaitFor([&] { return transport_->counters().decode_failures >= 1; }));

  std::atomic<int> failed{0};
  ASSERT_TRUE(WaitFor([&] {
    transport_->Send(TestMessage(0, 1, 1), [&] { failed.fetch_add(1); });
    return failed.load() > 0;
  }));
  EXPECT_EQ(sinks_[1]->count(), 0u);
}

/// A correctly encoded frame (length prefix + codec payload) for `msg`,
/// as a peer's transport would write it.
std::vector<uint8_t> EncodedFrame(const net::Message& msg) {
  std::vector<uint8_t> frame(4, 0);
  EXPECT_TRUE(protocol::MakeWireCodec().encode(msg, &frame));
  const size_t len = frame.size() - 4;
  for (size_t i = 0; i < 4; ++i) {
    frame[i] = static_cast<uint8_t>((len >> (8 * i)) & 0xff);
  }
  return frame;
}

TEST_F(TransportFaultTest, FrameWithSpoofedDstIsRejected) {
  StartTransport(3);

  // On the 0 -> 1 connection, a well-formed frame addressed to node 2.
  // Routing by the header would let one connection inject messages for
  // every node; the frame must instead read as stream corruption.
  const std::vector<uint8_t> spoofed_dst = EncodedFrame(TestMessage(0, 2, 7));
  ASSERT_TRUE(transport_->InjectRawBytesForTest(0, 1, spoofed_dst).ok());
  ASSERT_TRUE(WaitFor([&] { return transport_->counters().decode_failures >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (const auto& sink : sinks_) EXPECT_EQ(sink->count(), 0u);

  // The connection is torn down like any other corrupt stream.
  std::atomic<int> failed{0};
  ASSERT_TRUE(WaitFor([&] {
    transport_->Send(TestMessage(0, 1, 8), [&] { failed.fetch_add(1); });
    return failed.load() > 0;
  }));
  EXPECT_EQ(sinks_[1]->count(), 0u);
}

TEST_F(TransportFaultTest, FrameWithSpoofedSrcIsRejected) {
  StartTransport(3);

  // On the 0 -> 1 connection, a well-formed frame claiming to come from
  // node 2: node 1 must not believe node 2 said it.
  const std::vector<uint8_t> spoofed_src = EncodedFrame(TestMessage(2, 1, 7));
  ASSERT_TRUE(transport_->InjectRawBytesForTest(0, 1, spoofed_src).ok());
  ASSERT_TRUE(WaitFor([&] { return transport_->counters().decode_failures >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (const auto& sink : sinks_) EXPECT_EQ(sink->count(), 0u);

  // The genuine 2 -> 1 connection is unaffected.
  transport_->Send(TestMessage(2, 1, 9));
  ASSERT_TRUE(WaitFor([&] { return sinks_[1]->count() == 1; }));
  EXPECT_EQ(sinks_[1]->rpc_ids(), (std::vector<uint64_t>{9}));
}

TEST_F(TransportFaultTest, SlowReaderFailsSendsFastAndSenderStaysLive) {
  SocketTransportOptions o;
  o.max_queue_frames = 8;
  o.max_queue_bytes = 256 * 1024;
  StartTransport(3, o);

  // Node 1 stops reading what node 0 sends. The kernel buffers fill,
  // then the bounded outbound queue, then sends start failing fast —
  // the sending thread must never block (the pre-fix implementation
  // spun a worker thread in a poll/send loop forever).
  transport_->PauseReadsForTest(0, 1, true);

  std::atomic<int> failed{0};
  const auto flood_started = std::chrono::steady_clock::now();  // dcp-lint: allow(wall-clock) — real-time liveness bound
  for (int i = 0; i < 4000 && failed.load() == 0; ++i) {
    transport_->Send(TestMessage(0, 1, static_cast<uint64_t>(i), 32 * 1024),
                     [&] { failed.fetch_add(1); });
  }
  const auto flood_elapsed =
      std::chrono::steady_clock::now() - flood_started;  // dcp-lint: allow(wall-clock) — real-time liveness bound

  ASSERT_TRUE(WaitFor([&] { return failed.load() > 0; }))
      << "backpressure must surface as failed sends, not a blocked sender";
  EXPECT_GE(transport_->counters().send_queue_overflows, 1u);
  // 4000 * 32KiB non-blocking sends finish in far under the old code's
  // worst case (it would hang here until the test timeout).
  EXPECT_LT(flood_elapsed, kWaitBudget);

  // The sender is still live for other peers: 0 -> 2 flows normally.
  transport_->Send(TestMessage(0, 2, 777));
  ASSERT_TRUE(WaitFor([&] { return sinks_[2]->count() == 1; }));

  // Backpressure is not a failure: unpause, and the connection works
  // again (queued frames drain, new sends deliver).
  transport_->PauseReadsForTest(0, 1, false);
  ASSERT_TRUE(WaitFor([&] { return sinks_[1]->count() > 0; }));
  const size_t drained = sinks_[1]->count();
  transport_->Send(TestMessage(0, 1, 9999));
  ASSERT_TRUE(WaitFor([&] { return sinks_[1]->count() > drained; }));
}

TEST_F(TransportFaultTest, ConnectionKilledMidFrameNeverMisdelivers) {
  StartTransport(2);

  // Force flushes to dribble 5 bytes at a time, so a large frame is
  // guaranteed to be in flight when the connection dies.
  transport_->SetWriteCapForTest(5);
  std::atomic<int> failed{0};
  transport_->Send(TestMessage(0, 1, 42, 64 * 1024),
                   [&] { failed.fetch_add(1); });
  transport_->BreakConnectionForTest(0, 1);
  transport_->SetWriteCapForTest(0);

  // All-or-nothing: the receiver saw the whole frame or no frame, and a
  // half-received frame must read as connection death, never as
  // corruption or as a different message.
  ASSERT_TRUE(WaitFor([&] {
    return failed.load() > 0 || sinks_[1]->count() > 0;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(transport_->counters().decode_failures, 0u);
  EXPECT_LE(sinks_[1]->count(), 1u);
  if (sinks_[1]->count() == 1) {
    EXPECT_EQ(sinks_[1]->rpc_ids(), (std::vector<uint64_t>{42}));
  }

  // The torn connection stays down.
  std::atomic<int> later_failed{0};
  ASSERT_TRUE(WaitFor([&] {
    transport_->Send(TestMessage(0, 1, 43), [&] { later_failed.fetch_add(1); });
    return later_failed.load() > 0;
  }));
}

TEST_F(TransportFaultTest, PartialWritesResumeInOrder) {
  StartTransport(2);

  // Every flush is capped to 3 bytes: every frame straddles many writev
  // calls and the POLLOUT resumption path carries all the traffic.
  transport_->SetWriteCapForTest(3);
  constexpr uint64_t kFrames = 20;
  for (uint64_t i = 1; i <= kFrames; ++i) {
    transport_->Send(TestMessage(0, 1, i));
  }
  ASSERT_TRUE(WaitFor([&] { return sinks_[1]->count() == kFrames; }));
  transport_->SetWriteCapForTest(0);

  std::vector<uint64_t> expected(kFrames);
  for (uint64_t i = 0; i < kFrames; ++i) expected[i] = i + 1;
  EXPECT_EQ(sinks_[1]->rpc_ids(), expected)
      << "frames must arrive whole and in send order";
  EXPECT_EQ(transport_->counters().decode_failures, 0u);
}

TEST_F(TransportFaultTest, FloodDeliversInOrderWithPooledBuffers) {
  StartTransport(2);

  constexpr uint64_t kFrames = 2000;
  for (uint64_t i = 1; i <= kFrames; ++i) {
    transport_->Send(TestMessage(0, 1, i));
  }
  ASSERT_TRUE(WaitFor([&] { return sinks_[1]->count() == kFrames; }));

  std::vector<uint64_t> expected(kFrames);
  for (uint64_t i = 0; i < kFrames; ++i) expected[i] = i + 1;
  EXPECT_EQ(sinks_[1]->rpc_ids(), expected);

  const TransportCounters c = transport_->counters();
  EXPECT_EQ(c.frames_sent, kFrames);
  EXPECT_EQ(c.frames_received, kFrames);
  EXPECT_EQ(c.decode_failures, 0u);
  EXPECT_EQ(c.frames_dropped, 0u);
  EXPECT_GE(c.writev_calls, 1u);
  // Every non-blocked writev completes at least one frame; a little
  // slack covers the rare partial write on a full kernel buffer.
  EXPECT_LE(c.writev_calls, c.frames_sent + 16);
  // Steady state reuses encode buffers instead of allocating.
  EXPECT_GT(transport_->buffer_pool().hits(), 0u);
}

}  // namespace
}  // namespace dcp::rt
