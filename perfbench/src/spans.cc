#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "protocol/messages.h"
#include "report.h"

namespace perfbench {

namespace proto = dcp::protocol;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kClientOp: return "client_op";
    case SpanName::kPostWait: return "post_wait";
    case SpanName::kProtocolOp: return "protocol_op";
    case SpanName::kCompletionWait: return "completion_wait";
    case SpanName::kEncode: return "codec_encode";
    case SpanName::kDecode: return "codec_decode";
    case SpanName::kRecover: return "recover";
    case SpanName::kRunFor: return "run_for";
  }
  return "?";
}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer* SpanLog::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<uint16_t>(buffers_.size());
  }
  return buffer;
}

void SpanLog::Record(const Span& span) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Buffer* buffer = ThreadBuffer();
  buffer->spans.push_back(span);
  buffer->spans.back().tid = buffer->tid;
}

std::vector<Span> SpanLog::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  return all;
}

bool WriteChromeTrace(const std::vector<Span>& spans, size_t max_spans,
                      const std::string& path) {
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    if (a->virtual_time != b->virtual_time) return !a->virtual_time;
    return a->start_ns < b->start_ns;
  });
  if (order.size() > max_spans) order.resize(max_spans);
  int64_t base[2] = {0, 0};
  bool seen[2] = {false, false};
  for (const Span* s : order) {
    const int v = s->virtual_time ? 1 : 0;
    if (!seen[v]) {
      base[v] = s->start_ns;
      seen[v] = true;
    }
  }

  std::ofstream out(path);
  if (!out) return false;
  static const char* kKinds[] = {"write", "read", "other"};
  out << "{\"traceEvents\":[\n";
  char line[256];
  for (size_t i = 0; i < order.size(); ++i) {
    const Span& s = *order[i];
    const int v = s.virtual_time ? 1 : 0;
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%u,"
                  "\"args\":{\"op\":%llu}}",
                  i ? ",\n" : "", SpanNameString(s.name),
                  kKinds[static_cast<int>(s.kind)],
                  static_cast<double>(s.start_ns - base[v]) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, v + 1, s.tid,
                  static_cast<unsigned long long>(s.op));
    out << line;
  }
  out << "\n],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(out);
}

// --- op attribution --------------------------------------------------------

namespace {

thread_local MessageLedger::Tag t_binding;
thread_local MessageLedger::Tag t_last_send;

uint64_t OwnerKey(const dcp::storage::LockOwner& owner) {
  return (static_cast<uint64_t>(owner.coordinator) << 48) ^ owner.operation_id;
}

uint64_t CallKey(dcp::NodeId caller, uint64_t rpc_id) {
  return (static_cast<uint64_t>(caller) << 48) ^ rpc_id;
}

/// Interned request types (TypeName equality is a pointer compare).
struct Types {
  dcp::net::TypeName lock{proto::msg::kLock};
  dcp::net::TypeName unlock{proto::msg::kUnlock};
  dcp::net::TypeName fetch{proto::msg::kFetch};
  dcp::net::TypeName prepare{proto::msg::kPrepare};
  dcp::net::TypeName commit{proto::msg::kCommit};
  dcp::net::TypeName abort{proto::msg::kAbort};
  dcp::net::TypeName outcome{proto::msg::kOutcome};
};

const Types& T() {
  static const Types types;
  return types;
}

/// The LockOwner a request carries, if its type has one.
const dcp::storage::LockOwner* OwnerOf(const dcp::net::Message& msg) {
  using dcp::net::As;
  if (msg.payload == nullptr) return nullptr;
  if (msg.type == T().lock) {
    return &As<proto::LockRequest>(msg.payload).owner;
  }
  if (msg.type == T().unlock) {
    return &As<proto::UnlockRequest>(msg.payload).owner;
  }
  if (msg.type == T().fetch) {
    return &As<proto::FetchRequest>(msg.payload).owner;
  }
  if (msg.type == T().prepare) {
    return &As<proto::PrepareRequest>(msg.payload).owner;
  }
  if (msg.type == T().commit) {
    return &As<proto::CommitRequest>(msg.payload).owner;
  }
  if (msg.type == T().abort) {
    return &As<proto::AbortRequest>(msg.payload).owner;
  }
  if (msg.type == T().outcome) {
    return &As<proto::OutcomeRequest>(msg.payload).owner;
  }
  return nullptr;
}

}  // namespace

ScopedOpBinding::ScopedOpBinding(uint64_t op, OpKind kind) {
  t_binding = MessageLedger::Tag{op, kind};
}

ScopedOpBinding::~ScopedOpBinding() { t_binding = MessageLedger::Tag{}; }

MessageLedger::Tag MessageLedger::LastSendTag() { return t_last_send; }

void MessageLedger::OnSend(const dcp::net::Message& msg) {
  using Kind = dcp::net::Message::Kind;
  std::lock_guard<std::mutex> lock(mu_);
  Tag tag;
  if (msg.kind == Kind::kRequest) {
    const dcp::storage::LockOwner* owner = OwnerOf(msg);
    if (owner != nullptr) {
      const uint64_t key = OwnerKey(*owner);
      if (msg.type == T().lock) {
        const auto& req = dcp::net::As<proto::LockRequest>(msg.payload);
        if (req.mode == proto::LockMode::kExclusive) {
          ++counts_.exclusive_locks;
        } else {
          ++counts_.shared_locks;
        }
        if (t_binding.op != 0) owners_.emplace(key, t_binding);
      }
      auto it = owners_.find(key);
      if (it != owners_.end()) tag = it->second;
      if (msg.type == T().prepare) {
        for (const auto& action :
             dcp::net::As<proto::PrepareRequest>(msg.payload).action.objects) {
          if (action.mark_stale) ++counts_.stale_marks;
        }
      }
    }
    calls_[CallKey(msg.src, msg.rpc_id)] = tag;
  } else if (msg.kind == Kind::kResponse) {
    const bool retire = !replies_decoded_ || msg.src == msg.dst;
    tag = Lookup(msg, retire);
  }
  ++counts_.msgs[static_cast<int>(tag.kind)];
  t_last_send = tag;
}

MessageLedger::Tag MessageLedger::OnDecode(const dcp::net::Message& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(msg, /*retire_reply=*/true);
}

MessageLedger::Tag MessageLedger::Lookup(const dcp::net::Message& msg,
                                         bool retire_reply) {
  if (msg.kind == dcp::net::Message::Kind::kResponse) {
    auto it = calls_.find(CallKey(msg.dst, msg.rpc_id));
    if (it == calls_.end()) return Tag{};
    Tag tag = it->second;
    if (retire_reply) calls_.erase(it);
    return tag;
  }
  const dcp::storage::LockOwner* owner = OwnerOf(msg);
  if (owner == nullptr) return Tag{};
  auto it = owners_.find(OwnerKey(*owner));
  return it == owners_.end() ? Tag{} : it->second;
}

MessageLedger::Counts MessageLedger::counts() {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

// --- timed codec -----------------------------------------------------------

namespace {

/// Codec spans are kept for one frame in kCodecSpanSample per thread: a
/// traced run moves millions of frames, and a systematic sample gives the
/// same percentiles at a fraction of the memory. Frame and byte counts
/// stay exact.
constexpr uint32_t kCodecSpanSample = 8;

bool SampleCodecSpan() {
  thread_local uint32_t frames = 0;
  return frames++ % kCodecSpanSample == 0;
}

}  // namespace

dcp::rt::WireCodec TimedCodec(dcp::rt::WireCodec inner, MessageLedger* ledger,
                              std::shared_ptr<CodecCounts> counts) {
  dcp::rt::WireCodec codec;
  codec.encode = [encode = inner.encode, counts](
                     const dcp::net::Message& msg,
                     std::vector<uint8_t>* out) {
    const size_t before = out->size();
    const int64_t t0 = NowNs();
    const bool ok = encode(msg, out);
    const int64_t t1 = NowNs();
    if (SampleCodecSpan()) {
      const MessageLedger::Tag tag = MessageLedger::LastSendTag();
      SpanLog::Get().Record(
          Span{tag.op, t0, t1 - t0, SpanName::kEncode, tag.kind, false, 0});
    }
    counts->frames_encoded.fetch_add(1, std::memory_order_relaxed);
    counts->bytes_encoded.fetch_add(out->size() - before,
                                    std::memory_order_relaxed);
    return ok;
  };
  codec.decode = [decode = inner.decode, ledger](const uint8_t* data,
                                                 size_t len,
                                                 dcp::net::Message* out) {
    const int64_t t0 = NowNs();
    const bool ok = decode(data, len, out);
    const int64_t t1 = NowNs();
    const MessageLedger::Tag tag = ok ? ledger->OnDecode(*out)
                                      : MessageLedger::Tag{};
    if (SampleCodecSpan()) {
      SpanLog::Get().Record(
          Span{tag.op, t0, t1 - t0, SpanName::kDecode, tag.kind, false, 0});
    }
    return ok;
  };
  return codec;
}

}  // namespace perfbench
