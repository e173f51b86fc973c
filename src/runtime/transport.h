#ifndef DCP_RUNTIME_TRANSPORT_H_
#define DCP_RUNTIME_TRANSPORT_H_

#include <cstdint>
#include <functional>

#include "net/message.h"
#include "runtime/runtime.h"
#include "util/node_set.h"

namespace dcp::rt {

/// Wire-level counters a transport backend may expose. All zeros on
/// backends without a wire (the simulator delivers message objects, so
/// nothing here can happen to it by construction).
///
///  - frames_sent/received: complete frames written to / decoded from
///    sockets (self-sends bypass the wire and are not counted).
///  - frames_dropped: outbound frames discarded by connection teardown
///    (their senders were notified via on_failed).
///  - decode_failures: inbound stream corruption — an oversized length
///    prefix or an undecodable payload. Each one tears the connection
///    down (a desynchronized byte stream cannot be trusted again).
///  - send_queue_overflows: sends rejected because the destination
///    endpoint's bounded outbound queue was full (slow-peer backpressure;
///    the sender was notified via on_failed instead of blocking).
///  - writev_calls: flush syscalls issued; frames_sent / writev_calls is
///    the realized batching factor.
///
/// A counters() snapshot is safe to take from any thread while traffic
/// flows: backends keep each counter in a lock-free relaxed atomic (they
/// are independent monotonic event counts with no cross-field invariant),
/// so a snapshot is some valid point in each counter's history — and
/// exact once the transport's threads quiesce, which is when tests and
/// benches assert on it.
struct TransportCounters {
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t frames_dropped = 0;
  uint64_t decode_failures = 0;
  uint64_t send_queue_overflows = 0;
  uint64_t writev_calls = 0;
};

/// Observes every message the transport accepts for sending, at the point
/// of send (before any latency, loss, or socket write). Used by the
/// cross-backend conformance test to compare protocol-visible message
/// sequences; a null tap costs one branch per send.
///
/// On the socket backend the tap runs on whichever thread issued the
/// send — a tap installed there must be thread-safe.
using SendTap = std::function<void(const net::Message&)>;

/// The message-boundary half of the transport/runtime seam (the dsnet
/// `Replica::ReceiveMessage` idiom): node registration, fail-stop
/// up/down administration, and an asynchronous send with sender-side
/// failure notification. The protocol layer talks only to this interface;
/// which side of it is a discrete-event simulation and which is a TCP
/// mesh is a deployment decision.
///
/// Backends:
///  - `net::Network` (the sim transport): deterministic virtual-time
///    delivery with the paper's fail-stop semantics plus opt-in message
///    faults. `runtime(n)` returns the shared simulator for every node.
///  - `rt::SocketTransport`: loopback TCP driven by run-to-completion
///    event-loop threads, each owning a subset of the nodes.
///    `runtime(n)` returns node n's private
///    runtime; all interaction with a node must happen on it.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers `sink` for `node`. Nodes start up.
  virtual void Register(NodeId node, net::MessageSink* sink) = 0;

  /// Crash / repair administration. Crashing does not drop registration;
  /// it only makes the node unreachable (fail-stop).
  virtual void SetNodeUp(NodeId node, bool up) = 0;
  [[nodiscard]] virtual bool IsUp(NodeId node) const = 0;

  /// Sends a message. If it turns out undeliverable, `on_failed` (when
  /// provided) fires at the sender side — the transport half of
  /// RPC.CallFailed. Delivery is asynchronous on every backend.
  virtual void Send(net::Message msg,
                    std::function<void()> on_failed = nullptr) = 0;

  /// The runtime hosting `node`'s execution context.
  virtual Runtime* runtime(NodeId node) = 0;

  /// Installs (or clears, with nullptr) the send tap.
  virtual void set_send_tap(SendTap tap) = 0;

  /// Wire-level counters (see TransportCounters). Backends without a
  /// wire report zeros.
  [[nodiscard]] virtual TransportCounters counters() const { return {}; }
};

}  // namespace dcp::rt

#endif  // DCP_RUNTIME_TRANSPORT_H_
