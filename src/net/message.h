#ifndef DCP_NET_MESSAGE_H_
#define DCP_NET_MESSAGE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/node_set.h"
#include "util/status.h"

namespace dcp::net {

/// An interned message-type name. The wire format has a small, fixed
/// vocabulary of request types ("lock", "2pc-prepare", ...), yet the
/// pre-interning implementation copied the type string once per fan-out
/// leg, once per Message, once per outstanding-call record and once per
/// delivery closure — the dominant allocation source on the RPC hot
/// path. A TypeName is a pointer into a process-wide intern table:
/// copying is free, equality is pointer equality, and the pointer value
/// doubles as a stable hash-map key for per-type traffic counters.
///
/// Interning happens on conversion from a string; passing `msg::k*`
/// constants costs one short-string hash, no allocation after first use.
/// The table only grows (types are a protocol vocabulary, not data). It
/// is guarded by a mutex so the socket backend's event-loop threads can
/// intern decoded type names concurrently; on the sim backend the lock
/// is uncontended and the hot path (pointer copies, pointer equality)
/// never touches the table at all.
class TypeName {
 public:
  TypeName() : s_(EmptyString()) {}
  TypeName(std::string_view s) : s_(Intern(s)) {}       // NOLINT: implicit
  TypeName(const char* s) : TypeName(std::string_view(s)) {}  // NOLINT
  TypeName(const std::string& s) : TypeName(std::string_view(s)) {}  // NOLINT

  const std::string& str() const { return *s_; }
  operator const std::string&() const { return *s_; }  // NOLINT: implicit
  bool empty() const { return s_->empty(); }

  /// The interned "<type>.reply" name. Cached per type, so the per-reply
  /// concatenation the RPC layer used to do is a single map probe.
  TypeName Reply() const;

  /// Stable, nonzero key for FlatMap indexing (the intern pointer).
  uint64_t key() const { return reinterpret_cast<uintptr_t>(s_); }

  friend bool operator==(TypeName a, TypeName b) { return a.s_ == b.s_; }
  friend bool operator==(TypeName a, std::string_view b) { return *a.s_ == b; }

 private:
  explicit TypeName(const std::string* s) : s_(s) {}
  static const std::string* Intern(std::string_view s);
  static const std::string* EmptyString();

  const std::string* s_;
};

/// Base class for all message payloads. Concrete request/response structs
/// (defined by the protocol layers) derive from this; the network carries
/// them type-erased and receivers downcast via `As<T>()` keyed on the
/// message's `type` string.
struct Payload {
  virtual ~Payload() = default;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Downcasts a payload. The caller asserts the type via the message's
/// `type` tag; a mismatch is a programming error.
template <typename T>
const T& As(const PayloadPtr& p) {
  assert(p != nullptr);
  const T* typed = dynamic_cast<const T*>(p.get());
  assert(typed != nullptr && "payload type mismatch");
  return *typed;
}

/// Convenience for building payloads.
template <typename T, typename... Args>
PayloadPtr MakePayload(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

/// A single message on the wire.
struct Message {
  enum class Kind {
    kRequest,     ///< RPC request; `type` names the operation.
    kResponse,    ///< RPC response to `rpc_id`; `status` is app-level.
    kCallFailed,  ///< RPC.CallFailed notification delivered to the caller.
  };

  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  uint64_t rpc_id = 0;
  Kind kind = Kind::kRequest;
  TypeName type;
  PayloadPtr payload;
  Status status;  ///< Application status for responses.
};

/// Receives messages addressed to a node. Implemented by RpcRuntime.
/// This is the receive half of the transport seam (see rt::Transport):
/// a backend delivers each inbound message by invoking the sink that the
/// destination node registered, on that node's execution context.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void Deliver(Message msg) = 0;
};

}  // namespace dcp::net

#endif  // DCP_NET_MESSAGE_H_
