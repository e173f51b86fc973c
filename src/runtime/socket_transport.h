#ifndef DCP_RUNTIME_SOCKET_TRANSPORT_H_
#define DCP_RUNTIME_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/message.h"
#include "runtime/transport.h"
#include "util/buffer_pool.h"
#include "util/mutex.h"
#include "util/node_set.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dcp::rt {

/// Serializes protocol messages for the wire. The runtime layer knows
/// nothing about payload types — the protocol layer supplies the codec
/// (see protocol::MakeWireCodec), keeping the dependency arrow pointing
/// the right way. `encode` appends the frame payload to `*out`
/// (preserving the caller's prefix — the transport reserves its length
/// header there, so header and payload share one pooled buffer) and
/// returns false for an unencodable message, restoring `*out`.
/// `decode` returns false on a malformed frame.
struct WireCodec {
  std::function<bool(const net::Message&, std::vector<uint8_t>* out)> encode;
  std::function<bool(const uint8_t* data, size_t len, net::Message* out)>
      decode;
};

struct SocketTransportOptions {
  uint32_t num_nodes = 0;
  /// Event-loop threads. 0 picks a default from the node count and the
  /// CPUs this process may run on (at least 2, so real thread
  /// interleavings happen even on tiny machines).
  uint32_t num_workers = 0;
  WireCodec codec;
  /// Frames coalesced into one writev per flush. 1 = one frame per
  /// syscall (header and payload still travel together — a frame is a
  /// single contiguous buffer, so it can never be torn by a failure
  /// between two writes).
  uint32_t max_batch_frames = 64;
  /// Bounded per-endpoint outbound queue. A send that would exceed
  /// either bound fails immediately via on_failed and counts as a
  /// send_queue_overflow — slow-peer backpressure surfaces to the
  /// sender instead of wedging the sending thread.
  size_t max_queue_frames = 4096;
  size_t max_queue_bytes = 8u << 20;
  /// Recycle frame-encode buffers through a free-list pool (see
  /// util::BufferPool); off = a fresh allocation per send.
  bool pool_buffers = true;
};

/// The real-threads backend of the transport/runtime seam: a full TCP
/// mesh over loopback carrying length-prefixed frames, driven by K
/// run-to-completion event-loop threads.
///
/// Threading model (see DESIGN.md section 11):
///  - Loop `n % K` owns node n: its timers, posted closures, self-send
///    inbox, and both sides of every endpoint the node holds. Each loop
///    waits in epoll over its own endpoints plus an eventfd. A readable
///    endpoint goes recv -> decode -> sink->Deliver on that one thread,
///    so protocol code is single-threaded per node — the actor model the
///    simulator provides, minus determinism — with no hand-off between a
///    reader thread and a handler thread.
///  - Sends encode into a pooled buffer, append to the endpoint's
///    bounded outbound queue, and flush inline with scatter-gather
///    writev (multiple frames per syscall). A send never blocks: if the
///    socket would block, the owning loop finishes the drain on EPOLLOUT;
///    if the queue is full, the send fails fast via on_failed.
///  - A post or timer from another thread wakes the owner loop through
///    its eventfd only when the loop may be asleep past the deadline; a
///    post from the loop's own thread never costs a syscall.
///
/// Each node gets a private Runtime (monotonic wall clock, thread-safe
/// timers, its own Observability — counters are not atomic, and only the
/// owning loop touches them). All interaction with a node from outside
/// must be posted onto its runtime.
///
/// Connection teardown: stream corruption (oversized length prefix,
/// undecodable frame, or a frame whose src/dst does not match the
/// connection it arrived on), a write error, or peer EOF marks the
/// connection broken — the socket is shut down, queued sends fail via
/// on_failed, and later sends to that peer fail fast. A desynchronized
/// TCP stream is never resynchronized by guesswork; the RPC layer's
/// timeouts treat the torn link like a partition.
///
/// Fail-stop administration: SetNodeUp(node, false) makes the node drop
/// inbound traffic (via the sink's IsUp guard, exactly like the sim
/// backend) and makes sends to it fail fast at the sender. Threads and
/// sockets stay alive — this transport models crashes, it does not
/// perform them.
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Binds loopback listeners, dials the full mesh, and starts the
  /// event-loop threads. Register every sink before sending traffic.
  [[nodiscard]] Status Start();

  /// Clean shutdown: drains nothing, joins every thread, closes every
  /// socket. Idempotent; the destructor calls it. Pending timers and
  /// queued messages are discarded.
  void Stop();

  // rt::Transport:
  void Register(NodeId node, net::MessageSink* sink) override;
  void SetNodeUp(NodeId node, bool up) override;
  bool IsUp(NodeId node) const override;
  void Send(net::Message msg,
            std::function<void()> on_failed = nullptr) override;
  Runtime* runtime(NodeId node) override;
  void set_send_tap(SendTap tap) override;
  TransportCounters counters() const override;

  /// Frames actually written to / read from sockets (self-sends bypass
  /// the wire and are not counted).
  [[nodiscard]] uint64_t frames_sent() const {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t frames_received() const {
    return frames_received_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const util::BufferPool& buffer_pool() const { return pool_; }

  /// Event-loop threads this transport runs (num_workers, or the default
  /// resolved from the node count and the CPUs this process may use).
  [[nodiscard]] uint32_t num_loops() const {
    return static_cast<uint32_t>(loops_.size());
  }

  // --- fault-injection hooks (tests only) -------------------------------

  /// Writes raw bytes onto the src -> dst socket, bypassing framing —
  /// the regression hook for stream-corruption handling.
  [[nodiscard]] Status InjectRawBytesForTest(NodeId src, NodeId dst,
                                             const std::vector<uint8_t>& raw);
  /// Makes `dst`'s loop stop (or resume) reading what `src` sends to
  /// `dst`, simulating a slow reader: the sender's kernel buffer fills,
  /// then its outbound queue, then sends start failing fast.
  void PauseReadsForTest(NodeId src, NodeId dst, bool paused);
  /// Caps the bytes any single flush may write, forcing frames to
  /// straddle multiple writev calls (partial-write resumption paths).
  void SetWriteCapForTest(size_t bytes);
  /// Tears down the a <-> b connection as if it died mid-stream.
  void BreakConnectionForTest(NodeId a, NodeId b);

 private:
  class NodeRuntime;
  class EventLoop;

  /// One queued outbound frame: `bytes` is the complete wire frame
  /// (4-byte LE length prefix + payload) in a pooled buffer.
  struct OutFrame {
    std::vector<uint8_t> bytes;
    NodeId src = kInvalidNode;
    std::function<void()> on_failed;
  };

  struct Endpoint {
    int fd = -1;
    NodeId owner = kInvalidNode;  ///< Local node that writes through here.
    NodeId peer = kInvalidNode;   ///< Remote node (inbound frames' sender).
    std::vector<uint8_t> rbuf;    ///< Owner-loop-only read buffer.
    /// Owner-loop-only: the epoll events registered for `fd` (0 = not in
    /// the loop's epoll set).
    uint32_t armed = 0;

    /// Torn down (corrupt stream / write error / EOF). Sends fail fast;
    /// the owner loop drops the fd from its epoll set.
    std::atomic<bool> broken{false};
    /// The owner loop should wait for EPOLLOUT and drain `outq`.
    std::atomic<bool> want_pollout{false};
    std::atomic<bool> read_paused{false};  ///< Test hook.

    util::Mutex out_mu;
    std::deque<OutFrame> outq DCP_GUARDED_BY(out_mu);
    /// Bytes of the front frame already written.
    size_t out_off DCP_GUARDED_BY(out_mu) = 0;
    size_t outq_bytes DCP_GUARDED_BY(out_mu) = 0;
    /// True while one thread runs the flush loop. The flusher drops
    /// `out_mu` across each writev (no lock held over a syscall), so
    /// concurrent senders keep appending — that is where batching comes
    /// from. Only the flusher pops frames; teardown while a flush is in
    /// flight defers queue cleanup to the flusher.
    bool flushing DCP_GUARDED_BY(out_mu) = false;
  };

  Time NowMs() const;
  NodeRuntime* node(NodeId id) const;
  /// Enqueues a self-sent message into its node's inbox (any thread).
  void DeliverLocal(net::Message msg);
  /// Enqueues a closure onto `node`'s loop (any thread).
  void PostClosure(NodeId node, std::function<void()> fn);
  /// Has `owner`'s loop bring its epoll interest in line with its
  /// endpoints' want_pollout / read_paused / broken flags before it next
  /// sleeps (any thread).
  void RequestResync(NodeId owner);
  /// Drains `ep.outq` with scatter-gather writev until empty or
  /// EWOULDBLOCK, and sets `ep.want_pollout` to whether a remainder is
  /// left for the owner loop's EPOLLOUT. Acquires `ep.out_mu` itself and
  /// drops it across each syscall (the single-flusher drop/reacquire
  /// protocol — DESIGN.md section 13); callers must NOT hold it. At most
  /// one flusher runs per endpoint; a caller that finds a flush in
  /// progress returns immediately (the active flusher picks its frames
  /// up). Handles write errors internally (teardown).
  void Flush(Endpoint& ep) DCP_EXCLUDES(ep.out_mu);
  /// Fails every queued send and empties the queue.
  void FailQueueLocked(Endpoint& ep) DCP_REQUIRES(ep.out_mu);
  /// Marks the connection broken, shuts the socket down, and fails every
  /// queued send (deferred to the active flusher if one is mid-writev).
  /// Idempotent.
  void TeardownLocked(Endpoint& ep) DCP_REQUIRES(ep.out_mu);
  void Teardown(Endpoint& ep) DCP_EXCLUDES(ep.out_mu);
  /// The body of one event-loop thread.
  void Run(EventLoop& loop);
  /// Runs one node's due timers, posted closures, and up to kDrainBatch
  /// self-sent messages (owner loop only).
  void RunNode(NodeRuntime& n, Time now);
  /// Registers, re-arms, or removes each of the loop's endpoints in its
  /// epoll set to match the endpoint's flags (owner loop only).
  void ResyncInterest(EventLoop& loop);
  /// Reads what `ep`'s peer sent (a bounded amount per pass) and delivers
  /// every complete frame inline (owner loop only).
  void ReadEndpoint(EventLoop& loop, Endpoint& ep);
  /// Drains `ep.rbuf` into complete frames; decodes and delivers them to
  /// `ep.owner`. Corruption tears the connection down.
  void ConsumeFrames(Endpoint& ep);

  SocketTransportOptions options_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  std::vector<std::unique_ptr<EventLoop>> loops_;

  // ep_[i][j]: the socket endpoint node i writes to reach node j
  // (i != j), and reads what j sends to i. Both directions of a pair
  // share one TCP connection; each side holds its own endpoint fd, owned
  // by its node's loop.
  std::vector<std::vector<std::unique_ptr<Endpoint>>> ep_;
  std::vector<int> listen_fds_;

  util::BufferPool pool_;

  SendTap send_tap_;  ///< Install before Start; may run on any thread.

  std::atomic<bool> started_{false};

  // Transport counters: written by the loops and sender threads
  // concurrently; read by bench/metrics threads at any time.
  // They are lock-free relaxed atomics on purpose — each is an
  // independent monotonic event count with no cross-field invariant, so
  // a relaxed snapshot is always some valid point in each counter's
  // history (and exact once writers quiesce, which is when counters()
  // is asserted on). Everything that does need cross-field consistency
  // lives under a mutex and is DCP_GUARDED_BY-annotated.
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_dropped_{0};
  std::atomic<uint64_t> decode_failures_{0};
  std::atomic<uint64_t> send_queue_overflows_{0};
  std::atomic<uint64_t> writev_calls_{0};
  std::atomic<size_t> write_cap_for_test_{0};  ///< 0 = uncapped.

  std::chrono::steady_clock::time_point epoch_;  // dcp-lint: allow(wall-clock) — this backend's monotonic clock IS wall time
};

}  // namespace dcp::rt

#endif  // DCP_RUNTIME_SOCKET_TRANSPORT_H_
