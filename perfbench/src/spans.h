#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Tracing from outside the library: spans recorded by the benchmark's own
// wrappers around each call into a layer, and a ledger that attributes
// protocol messages to the client operation that caused them.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/message.h"
#include "runtime/socket_transport.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kClientOp,        ///< Client-visible op, first invoke to final wake.
  kPostWait,        ///< Runtime::Schedule on the client thread -> closure runs.
  kProtocolOp,      ///< StartWrite/StartRead call -> done callback.
  kCompletionWait,  ///< done callback -> client thread wakes.
  kEncode,          ///< WireCodec::encode of one frame.
  kDecode,          ///< WireCodec::decode of one frame.
  kRecover,         ///< One Cluster::Recover.
  kRunFor,          ///< One Cluster::RunFor slice of the measured window.
};

const char* SpanNameString(SpanName name);

enum class OpKind : uint8_t { kWrite = 0, kRead = 1, kOther = 2 };

struct Span {
  uint64_t op = 0;  ///< Client op id; 0 = not attributable to one op.
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  SpanName name = SpanName::kClientOp;
  OpKind kind = OpKind::kOther;
  bool virtual_time = false;  ///< Simulator time, not wall time.
  uint16_t tid = 0;
};

/// Process-wide span store. Each recording thread appends to its own
/// buffer (no shared lock on the hot path); Collect() merges them once
/// every recording thread has stopped.
class SpanLog {
 public:
  static SpanLog& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void Record(const Span& span);
  /// Moves every recorded span out (call when no thread records).
  std::vector<Span> Collect();

 private:
  struct Buffer {
    uint16_t tid = 0;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Writes at most `max_spans` spans (the earliest) as a Chrome
/// trace_event file: pid 1 holds wall-clock spans, pid 2 simulator-time
/// spans. Returns false if the file could not be written.
bool WriteChromeTrace(const std::vector<Span>& spans, size_t max_spans,
                      const std::string& path);

/// Marks the current thread as running client op `op` while it calls into
/// the protocol, so the messages that call sends are attributed to it.
class ScopedOpBinding {
 public:
  ScopedOpBinding(uint64_t op, OpKind kind);
  ~ScopedOpBinding();
  ScopedOpBinding(const ScopedOpBinding&) = delete;
  ScopedOpBinding& operator=(const ScopedOpBinding&) = delete;
};

/// Counts protocol messages seen by the transport's send tap and
/// attributes each to a client op: lock requests sent under a
/// ScopedOpBinding bind that attempt's LockOwner to the op; later
/// requests carrying the owner, and the replies to those requests, inherit
/// it. Thread-safe (the socket backend's tap runs on any thread).
class MessageLedger {
 public:
  struct Tag {
    uint64_t op = 0;
    OpKind kind = OpKind::kOther;
  };

  /// `replies_decoded`: replies will pass through OnDecode (socket
  /// backend), which then retires their request entry; otherwise the
  /// entry is retired when the reply is sent.
  explicit MessageLedger(bool replies_decoded)
      : replies_decoded_(replies_decoded) {}

  /// The send tap body.
  void OnSend(const dcp::net::Message& msg);
  /// Attribution of a decoded frame (lookup only, plus reply retirement).
  Tag OnDecode(const dcp::net::Message& msg);

  /// The tag of the last message this thread passed to OnSend (the codec
  /// wrapper encodes right after the tap, on the same thread).
  static Tag LastSendTag();

  struct Counts {
    uint64_t msgs[3] = {0, 0, 0};  ///< By OpKind.
    uint64_t exclusive_locks = 0;
    uint64_t shared_locks = 0;
    uint64_t stale_marks = 0;  ///< ObjectActions with mark_stale prepared.

    void Add(const Counts& o) {
      for (int k = 0; k < 3; ++k) msgs[k] += o.msgs[k];
      exclusive_locks += o.exclusive_locks;
      shared_locks += o.shared_locks;
      stale_marks += o.stale_marks;
    }
  };
  Counts counts();

 private:
  Tag Lookup(const dcp::net::Message& msg, bool retire_reply);

  const bool replies_decoded_;
  std::mutex mu_;
  std::unordered_map<uint64_t, Tag> owners_;  ///< LockOwner key -> op.
  std::unordered_map<uint64_t, Tag> calls_;   ///< (caller, rpc id) -> op.
  Counts counts_;
};

/// Frames and bytes through the timed codec (encoders run on any thread).
struct CodecCounts {
  std::atomic<uint64_t> frames_encoded{0};
  std::atomic<uint64_t> bytes_encoded{0};
};

/// Wraps `inner` so encode/decode record spans (a systematic sample of
/// frames), count every frame and byte, and attribute frames through
/// `ledger`.
dcp::rt::WireCodec TimedCodec(dcp::rt::WireCodec inner, MessageLedger* ledger,
                              std::shared_ptr<CodecCounts> counts);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
