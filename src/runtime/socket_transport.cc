#include "runtime/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <utility>

namespace dcp::rt {

namespace {

/// u32 little-endian length prefix preceding every frame's payload.
constexpr size_t kFrameHeaderBytes = 4;
/// Frames larger than this are treated as stream corruption.
constexpr uint32_t kMaxFrameBytes = 64u << 20;
/// Messages drained from one node's inbox per worker pass, bounding how
/// long one busy node can hold a worker while others wait.
constexpr size_t kDrainBatch = 64;
/// Poll timeout ceiling: even with no timers the I/O thread wakes at
/// this cadence to re-check the stop flag.
constexpr int kMaxPollMs = 100;
/// Stack-allocated iovec budget per writev; max_batch_frames clamps to
/// this (well under any platform's IOV_MAX).
constexpr size_t kMaxIovecs = 64;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void PatchFrameHeader(std::vector<uint8_t>& frame) {
  const uint32_t len =
      static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
  frame[0] = static_cast<uint8_t>(len & 0xff);
  frame[1] = static_cast<uint8_t>((len >> 8) & 0xff);
  frame[2] = static_cast<uint8_t>((len >> 16) & 0xff);
  frame[3] = static_cast<uint8_t>((len >> 24) & 0xff);
}

}  // namespace

/// Per-node execution context: mailbox (decoded inbound messages +
/// posted closures), timer heap, and a private observability context.
/// Mailbox and timers are mutex-guarded; the closures and message
/// handlers themselves run exclusively on whichever worker holds the
/// node (the `queued` flag arbitrates), giving per-node single-threaded
/// semantics with cross-worker happens-before from the queue mutexes.
class SocketTransport::NodeLoop final : public Runtime {
 public:
  NodeLoop(SocketTransport* transport, NodeId id)
      : transport_(transport), id_(id) {
    obs_.tracer.set_clock([this] { return Now(); });
  }

  // rt::Runtime:
  Time Now() const override { return transport_->NowMs(); }

  TimerId Schedule(Time delay, std::function<void()> fn) override {
    return ScheduleAt(Now() + std::max<Time>(delay, 0), std::move(fn));
  }

  TimerId ScheduleAt(Time when, std::function<void()> fn) override {
    uint64_t seq;
    {
      util::MutexLock lock(&mu_);
      seq = next_timer_seq_++;
      timers_.emplace(std::make_pair(when, seq), std::move(fn));
      timer_deadline_.emplace(seq, when);
    }
    // Only interrupt the I/O thread's sleep for deadlines earlier than
    // the one it is sleeping toward (RPC-timeout timers, the common
    // case, are far in the future and never cost a wakeup).
    if (when < transport_->io_deadline_.load(std::memory_order_acquire)) {
      transport_->WakeIo();
    }
    return TimerId{seq, id_};
  }

  bool Cancel(TimerId id) override {
    if (!id.valid()) return false;
    util::MutexLock lock(&mu_);
    auto it = timer_deadline_.find(id.seq);
    if (it == timer_deadline_.end()) return false;
    timers_.erase(std::make_pair(it->second, id.seq));
    timer_deadline_.erase(it);
    return true;
  }

  obs::Observability& obs() override { return obs_; }
  const obs::Observability& obs() const override { return obs_; }

 private:
  friend class SocketTransport;

  SocketTransport* transport_;
  NodeId id_;
  obs::Observability obs_;
  std::atomic<bool> up_{true};
  /// Set once via Register before traffic starts; read by workers.
  net::MessageSink* sink_ = nullptr;

  util::Mutex mu_;
  std::deque<net::Message> inbox_ DCP_GUARDED_BY(mu_);
  std::deque<std::function<void()>> posted_ DCP_GUARDED_BY(mu_);
  /// True while the node sits in the ready queue or a worker drains it;
  /// guarantees at most one worker runs this node's code at a time.
  bool queued_ DCP_GUARDED_BY(mu_) = false;

  // Timers, ordered by (deadline, seq); `timer_deadline_` maps a live
  // timer's seq to its key so Cancel is a lookup, not a scan.
  std::map<std::pair<Time, uint64_t>, std::function<void()>> timers_
      DCP_GUARDED_BY(mu_);
  std::map<uint64_t, Time> timer_deadline_ DCP_GUARDED_BY(mu_);
  uint64_t next_timer_seq_ DCP_GUARDED_BY(mu_) = 1;
};

namespace {

util::BufferPoolOptions PoolOptions(const SocketTransportOptions& o) {
  util::BufferPoolOptions p;
  p.enabled = o.pool_buffers;
  return p;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)),
      pool_(PoolOptions(options_)),
      epoch_(std::chrono::steady_clock::now()) {  // dcp-lint: allow(wall-clock) — epoch of this backend's monotonic clock
  assert(options_.num_nodes > 0);
  assert(options_.codec.encode && options_.codec.decode &&
         "SocketTransport needs a wire codec (see protocol::MakeWireCodec)");
  options_.max_batch_frames = std::max(options_.max_batch_frames, 1u);
  options_.max_queue_frames = std::max<size_t>(options_.max_queue_frames, 1);
  loops_.reserve(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    loops_.push_back(std::make_unique<NodeLoop>(this, NodeId{i}));
  }
  ep_.resize(options_.num_nodes);
  for (auto& row : ep_) row.resize(options_.num_nodes);
}

SocketTransport::~SocketTransport() { Stop(); }

Time SocketTransport::NowMs() const {
  auto d = std::chrono::steady_clock::now() - epoch_;  // dcp-lint: allow(wall-clock) — the socket backend's Runtime clock is real time by definition
  return std::chrono::duration<double, std::milli>(d).count();
}

SocketTransport::NodeLoop* SocketTransport::loop(NodeId node) const {
  assert(node < loops_.size());
  return loops_[node].get();
}

Status SocketTransport::Start() {
  if (started_.load()) return Status::OK();
  const uint32_t n = options_.num_nodes;

  // One loopback listener per node, ephemeral port.
  listen_fds_.assign(n, -1);
  std::vector<uint16_t> ports(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Errno("bind");
    }
    if (::listen(fd, static_cast<int>(n)) != 0) return Errno("listen");
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports[i] = ntohs(addr.sin_port);
    listen_fds_[i] = fd;
  }

  // Dial the full mesh: for each unordered pair {i, j} one connection,
  // dialed i -> j. Loopback connects complete synchronously against a
  // listening socket's backlog, so the matching accept follows inline.
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (cfd < 0) return Errno("socket");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(ports[j]);
      if (::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        ::close(cfd);
        return Errno("connect");
      }
      int afd = ::accept(listen_fds_[j], nullptr, nullptr);
      if (afd < 0) {
        ::close(cfd);
        return Errno("accept");
      }
      int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::setsockopt(afd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      SetNonBlocking(cfd);
      SetNonBlocking(afd);
      auto at_i = std::make_unique<Endpoint>();
      at_i->fd = cfd;
      at_i->owner = NodeId{i};
      at_i->peer = NodeId{j};
      auto at_j = std::make_unique<Endpoint>();
      at_j->fd = afd;
      at_j->owner = NodeId{j};
      at_j->peer = NodeId{i};
      ep_[i][j] = std::move(at_i);
      ep_[j][i] = std::move(at_j);
    }
  }

  if (::pipe(wake_pipe_) != 0) return Errno("pipe");
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  uint32_t workers = options_.num_workers;
  if (workers == 0) {
    uint32_t hw = std::thread::hardware_concurrency();
    workers = std::min(n, std::max(2u, hw / 2));
    workers = std::min(workers, 8u);
    workers = std::max(workers, 2u);
  }

  {
    util::MutexLock lock(&ready_mu_);
    stopping_ = false;
  }
  started_.store(true);
  io_thread_ = std::thread([this] { IoThread(); });
  workers_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  return Status::OK();
}

void SocketTransport::Stop() {
  if (!started_.exchange(false)) return;
  {
    util::MutexLock lock(&ready_mu_);
    stopping_ = true;
  }
  ready_cv_.NotifyAll();
  WakeIo();
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  for (auto& row : ep_) {
    for (auto& ep : row) {
      if (!ep) continue;
      // Mark broken under the queue lock first: a harness thread still
      // inside Send sees `broken` before the fd goes away, so no write
      // can race the close. An active flusher re-checks `broken` after
      // its in-flight syscall — wait it out (dropping the lock between
      // checks) before closing the fd.
      for (;;) {
        bool flusher_active = false;
        {
          util::MutexLock lock(&ep->out_mu);
          ep->broken.store(true, std::memory_order_release);
          if (ep->flushing) {
            flusher_active = true;
          } else {
            for (auto& f : ep->outq) pool_.Release(std::move(f.bytes));
            ep->outq.clear();
            ep->outq_bytes = 0;
            ep->out_off = 0;
          }
        }
        if (!flusher_active) break;
        std::this_thread::yield();
      }
      if (ep->fd >= 0) {
        ::close(ep->fd);
        ep->fd = -1;
      }
    }
  }
  for (int& fd : listen_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void SocketTransport::Register(NodeId node, net::MessageSink* sink) {
  loop(node)->sink_ = sink;
}

void SocketTransport::SetNodeUp(NodeId node, bool up) {
  loop(node)->up_.store(up, std::memory_order_release);
}

bool SocketTransport::IsUp(NodeId node) const {
  return loop(node)->up_.load(std::memory_order_acquire);
}

Runtime* SocketTransport::runtime(NodeId node) { return loop(node); }

void SocketTransport::set_send_tap(SendTap tap) {
  assert(!started_.load() && "install the send tap before Start()");
  send_tap_ = std::move(tap);
}

TransportCounters SocketTransport::counters() const {
  TransportCounters c;
  c.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  c.frames_received = frames_received_.load(std::memory_order_relaxed);
  c.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
  c.decode_failures = decode_failures_.load(std::memory_order_relaxed);
  c.send_queue_overflows =
      send_queue_overflows_.load(std::memory_order_relaxed);
  c.writev_calls = writev_calls_.load(std::memory_order_relaxed);
  return c;
}

void SocketTransport::EnqueueReady(NodeLoop* l) {
  bool enqueue = false;
  {
    util::MutexLock lock(&l->mu_);
    if (!l->queued_ && (!l->inbox_.empty() || !l->posted_.empty())) {
      l->queued_ = true;
      enqueue = true;
    }
  }
  if (enqueue) {
    {
      util::MutexLock lock(&ready_mu_);
      ready_.push_back(l->id_);
    }
    ready_cv_.NotifyOne();
  }
}

void SocketTransport::DeliverLocal(net::Message msg) {
  NodeLoop* l = loop(msg.dst);
  {
    util::MutexLock lock(&l->mu_);
    l->inbox_.push_back(std::move(msg));
  }
  EnqueueReady(l);
}

void SocketTransport::DeliverBatch(std::vector<net::Message> batch) {
  // One mailbox lock + one ready-queue wakeup per destination run. On a
  // mesh endpoint every frame targets the same node, so the whole batch
  // is usually a single run.
  size_t i = 0;
  while (i < batch.size()) {
    const NodeId dst = batch[i].dst;
    NodeLoop* l = loop(dst);
    bool enqueue = false;
    {
      util::MutexLock lock(&l->mu_);
      while (i < batch.size() && batch[i].dst == dst) {
        l->inbox_.push_back(std::move(batch[i]));
        ++i;
      }
      if (!l->queued_) {
        l->queued_ = true;  // Inbox is non-empty by construction.
        enqueue = true;
      }
    }
    if (enqueue) {
      {
        util::MutexLock lock(&ready_mu_);
        ready_.push_back(l->id_);
      }
      ready_cv_.NotifyOne();
    }
  }
}

void SocketTransport::PostClosure(NodeId node, std::function<void()> fn) {
  NodeLoop* l = loop(node);
  {
    util::MutexLock lock(&l->mu_);
    l->posted_.push_back(std::move(fn));
  }
  EnqueueReady(l);
}

void SocketTransport::WakeIo() {
  if (wake_pipe_[1] < 0) return;
  char b = 1;
  // A full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t r = ::write(wake_pipe_[1], &b, 1);
}

SocketTransport::FlushResult SocketTransport::Flush(Endpoint& ep) {
  ep.out_mu.Lock();
  // Single-flusher protocol: whoever sets `flushing` owns the drain
  // until the queue empties or the socket blocks. Everyone else just
  // appended their frame — the active flusher will pick it up, which is
  // exactly where multi-frame batches come from.
  if (ep.flushing) {
    ep.out_mu.Unlock();
    return FlushResult::kDrained;
  }
  ep.flushing = true;
  FlushResult result = FlushResult::kDrained;
  for (;;) {
    if (ep.broken.load(std::memory_order_acquire)) {
      result = FlushResult::kError;
      break;
    }
    if (ep.outq.empty()) break;

    // Gather up to max_batch_frames frames into one scatter-gather
    // send. The front frame may be partially written from an earlier
    // flush; it resumes at out_off, so a frame is never abandoned
    // mid-wire. The iovecs reference queued frames directly: deque
    // push_back never invalidates references, and only the flusher
    // pops, so the spans stay valid across the unlocked syscall.
    std::array<iovec, kMaxIovecs> iov;
    const size_t budget = std::min<size_t>(
        {ep.outq.size(), options_.max_batch_frames, kMaxIovecs});
    const size_t cap = write_cap_for_test_.load(std::memory_order_relaxed);
    size_t niov = 0;
    size_t total = 0;
    for (size_t i = 0; i < budget; ++i) {
      const OutFrame& f = ep.outq[i];
      const size_t skip = (i == 0) ? ep.out_off : 0;
      size_t len = f.bytes.size() - skip;
      if (cap > 0 && total + len > cap) {
        len = cap - total;
        if (len == 0) break;
      }
      iov[niov].iov_base = const_cast<uint8_t*>(f.bytes.data() + skip);
      iov[niov].iov_len = len;
      ++niov;
      total += len;
      if (cap > 0 && total >= cap) break;
    }
    const int fd = ep.fd;

    // No lock held over the syscall: concurrent senders keep appending
    // while the kernel copies this batch. This is the one sanctioned
    // lock-across-syscall site — the single-flusher drop/reacquire
    // protocol (DESIGN.md section 13).
    ep.out_mu.Unlock();
    msghdr mh{};
    mh.msg_iov = iov.data();
    mh.msg_iovlen = niov;
    // dcp-lint: allow(lock-across-syscall) — out_mu is dropped above and
    // reacquired below; `flushing` keeps this drain exclusive meanwhile.
    const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    const int err = errno;
    ep.out_mu.Lock();

    if (n < 0) {
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) {
        result = FlushResult::kBlocked;
        break;
      }
      TeardownLocked(ep);  // Queue cleanup happens below (we flush).
      result = FlushResult::kError;
      break;
    }
    writev_calls_.fetch_add(1, std::memory_order_relaxed);
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      OutFrame& f = ep.outq.front();
      const size_t remain = f.bytes.size() - ep.out_off;
      if (left >= remain) {
        left -= remain;
        ep.outq_bytes -= f.bytes.size();
        ep.out_off = 0;
        frames_sent_.fetch_add(1, std::memory_order_relaxed);
        pool_.Release(std::move(f.bytes));
        ep.outq.pop_front();
      } else {
        ep.out_off += left;
        left = 0;
      }
    }
    // Under a test write cap, yield to the I/O thread after each capped
    // write so fault tests can interleave teardowns mid-frame.
    if (cap > 0 && !ep.outq.empty()) {
      result = FlushResult::kBlocked;
      break;
    }
  }
  // A teardown that raced this flush deferred queue cleanup to us.
  if (ep.broken.load(std::memory_order_acquire) && !ep.outq.empty()) {
    FailQueueLocked(ep);
  }
  ep.flushing = false;
  ep.out_mu.Unlock();
  return result;
}

void SocketTransport::FailQueueLocked(Endpoint& ep) {
  frames_dropped_.fetch_add(ep.outq.size(), std::memory_order_relaxed);
  for (auto& f : ep.outq) {
    pool_.Release(std::move(f.bytes));
    if (f.on_failed) PostClosure(f.src, std::move(f.on_failed));
  }
  ep.outq.clear();
  ep.outq_bytes = 0;
  ep.out_off = 0;
}

void SocketTransport::TeardownLocked(Endpoint& ep) {
  if (ep.broken.exchange(true, std::memory_order_acq_rel)) return;
  // Shut down rather than close: the fd number stays valid (no reuse
  // races with the polling I/O thread); both directions of the shared
  // TCP connection die, so the peer side observes EOF and tears down
  // its endpoint symmetrically. The actual close happens in Stop().
  if (ep.fd >= 0) ::shutdown(ep.fd, SHUT_RDWR);
  // If a flusher is mid-syscall its iovecs still reference the queue;
  // it fails the queue itself as soon as it re-acquires the lock.
  if (!ep.flushing) FailQueueLocked(ep);
  ep.want_pollout.store(false, std::memory_order_release);
  WakeIo();  // Drop the fd from the I/O thread's poll set.
}

void SocketTransport::Teardown(Endpoint& ep) {
  util::MutexLock lock(&ep.out_mu);
  TeardownLocked(ep);
}

void SocketTransport::Send(net::Message msg, std::function<void()> on_failed) {
  // A crashed node cannot emit messages (fail-stop) — mirrors the sim
  // backend exactly.
  if (!IsUp(msg.src)) return;
  if (send_tap_) send_tap_(msg);

  const NodeId src = msg.src;
  const NodeId dst = msg.dst;
  if (dst >= loops_.size()) {
    if (on_failed) PostClosure(src, std::move(on_failed));
    return;
  }
  // Fail fast on administratively-down destinations: the sender learns
  // CallFailed without burning its RPC timeout, like the sim backend's
  // delivery-time IsUp check.
  if (!IsUp(dst)) {
    if (on_failed) PostClosure(src, std::move(on_failed));
    return;
  }
  if (dst == src) {
    // Self-sends skip the kernel; mailbox FIFO preserves order.
    DeliverLocal(std::move(msg));
    return;
  }

  // Encode into a pooled buffer with the frame header reserved up
  // front: header and payload are one contiguous buffer, written by one
  // writev — a frame can never be torn by a failure between two writes.
  std::vector<uint8_t> frame = pool_.Acquire();
  frame.resize(kFrameHeaderBytes);
  if (!options_.codec.encode(msg, &frame)) {
    assert(false && "wire codec cannot encode message type");
    pool_.Release(std::move(frame));
    if (on_failed) PostClosure(src, std::move(on_failed));
    return;
  }
  PatchFrameHeader(frame);

  Endpoint* ep = ep_[src][dst].get();
  bool failed = false;
  bool overflow = false;
  if (ep == nullptr) {
    failed = true;
  } else {
    util::MutexLock lock(&ep->out_mu);
    if (ep->broken.load(std::memory_order_acquire) || ep->fd < 0) {
      failed = true;
    } else if (ep->outq.size() >= options_.max_queue_frames ||
               ep->outq_bytes + frame.size() > options_.max_queue_bytes) {
      // Slow-peer backpressure: fail the send instead of blocking a
      // worker thread until the peer drains.
      overflow = failed = true;
    } else {
      ep->outq_bytes += frame.size();
      ep->outq.push_back(OutFrame{std::move(frame), src, std::move(on_failed)});
    }
  }
  if (failed) {
    if (overflow) {
      send_queue_overflows_.fetch_add(1, std::memory_order_relaxed);
    }
    pool_.Release(std::move(frame));
    if (on_failed) PostClosure(src, std::move(on_failed));
    return;
  }
  // Opportunistic inline flush, outside the enqueue scope: Flush owns
  // its own acquire/drop/reacquire cycle (see the header comment). The
  // gap between enqueue and flush is benign — whoever holds `flushing`
  // at that moment drains our frame, and a racing teardown fails it via
  // on_failed either way.
  switch (Flush(*ep)) {
    case FlushResult::kDrained:
      break;
    case FlushResult::kBlocked:
      // Hand the remainder to the I/O thread via POLLOUT re-arming.
      if (!ep->want_pollout.exchange(true, std::memory_order_acq_rel)) {
        WakeIo();
      }
      break;
    case FlushResult::kError:
      break;  // Torn down inside the flush; on_failed already posted.
  }
}

void SocketTransport::ConsumeFrames(Endpoint& ep) {
  size_t off = 0;
  std::vector<net::Message> batch;
  bool corrupt = false;
  while (ep.rbuf.size() - off >= kFrameHeaderBytes) {
    const uint8_t* p = ep.rbuf.data() + off;
    const uint32_t len = static_cast<uint32_t>(p[0]) |
                         (static_cast<uint32_t>(p[1]) << 8) |
                         (static_cast<uint32_t>(p[2]) << 16) |
                         (static_cast<uint32_t>(p[3]) << 24);
    if (len > kMaxFrameBytes) {
      // An oversized length prefix means the stream is desynchronized;
      // no later byte can be trusted as a frame boundary.
      corrupt = true;
      break;
    }
    if (ep.rbuf.size() - off - kFrameHeaderBytes < len) break;
    net::Message msg;
    if (!options_.codec.decode(p + kFrameHeaderBytes, len, &msg)) {
      // A well-framed but undecodable payload is equally fatal: correct
      // peers never produce one, so this length prefix was garbage that
      // happened to look plausible.
      corrupt = true;
      break;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    if (msg.dst < loops_.size()) batch.push_back(std::move(msg));
    off += kFrameHeaderBytes + len;
  }
  if (corrupt) {
    // Tear the connection down instead of clearing the buffer and
    // misreading subsequent bytes as fresh headers. Frames decoded
    // before the corruption point are still good and get delivered.
    decode_failures_.fetch_add(1, std::memory_order_relaxed);
    ep.rbuf.clear();
    Teardown(ep);
  } else if (off > 0) {
    ep.rbuf.erase(ep.rbuf.begin(),
                  ep.rbuf.begin() + static_cast<long>(off));
  }
  if (!batch.empty()) DeliverBatch(std::move(batch));
}

void SocketTransport::IoThread() {
  std::vector<pollfd> fds;
  std::vector<Endpoint*> eps;
  for (;;) {
    {
      util::MutexLock lock(&ready_mu_);
      if (stopping_) return;
    }

    // Fire due timers and find the next deadline across all nodes. The
    // upper bound goes out before the scan: a ScheduleAt landing on an
    // already-scanned loop compares against it and wakes the poll, where
    // the previous iteration's (usually already passed) deadline would
    // let it sleep a full kMaxPollMs.
    const Time now = NowMs();
    Time next_deadline = now + kMaxPollMs;
    io_deadline_.store(next_deadline, std::memory_order_release);
    for (auto& l : loops_) {
      bool fired = false;
      {
        util::MutexLock lock(&l->mu_);
        while (!l->timers_.empty() && l->timers_.begin()->first.first <= now) {
          auto it = l->timers_.begin();
          l->timer_deadline_.erase(it->first.second);
          l->posted_.push_back(std::move(it->second));
          l->timers_.erase(it);
          fired = true;
        }
        if (!l->timers_.empty()) {
          next_deadline =
              std::min(next_deadline, l->timers_.begin()->first.first);
        }
      }
      if (fired) EnqueueReady(l.get());
    }
    io_deadline_.store(next_deadline, std::memory_order_release);

    fds.clear();
    eps.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    eps.push_back(nullptr);
    for (auto& row : ep_) {
      for (auto& ep : row) {
        if (!ep || ep->fd < 0) continue;
        if (ep->broken.load(std::memory_order_acquire)) continue;
        short events = 0;
        if (!ep->read_paused.load(std::memory_order_acquire)) {
          events = POLLIN;
        }
        if (ep->want_pollout.load(std::memory_order_acquire)) {
          events = static_cast<short>(events | POLLOUT);
        }
        if (events == 0) continue;
        fds.push_back(pollfd{ep->fd, events, 0});
        eps.push_back(ep.get());
      }
    }

    int timeout_ms = static_cast<int>(next_deadline - NowMs()) + 1;
    timeout_ms = std::max(0, std::min(timeout_ms, kMaxPollMs));
    int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) return;
    if (rc <= 0) continue;

    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    for (size_t i = 1; i < fds.size(); ++i) {
      Endpoint& ep = *eps[i];
      if (fds[i].revents & POLLOUT) {
        // Drain the blocked outbound queue from the I/O thread — the
        // slow-peer wait lives here, never on a worker thread. Flush
        // acquires ep.out_mu itself and checks `broken` on entry.
        switch (Flush(ep)) {
          case FlushResult::kDrained:
            ep.want_pollout.store(false, std::memory_order_release);
            break;
          case FlushResult::kBlocked:
            break;  // Stay armed.
          case FlushResult::kError:
            break;  // Torn down inside the flush.
        }
      }
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (ep.read_paused.load(std::memory_order_acquire)) continue;
      bool eof = false;
      uint8_t buf[64 * 1024];
      for (;;) {
        ssize_t n = ::recv(ep.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          ep.rbuf.insert(ep.rbuf.end(), buf, buf + n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        eof = true;  // Peer closed or connection error.
        break;
      }
      ConsumeFrames(ep);
      if (eof && !ep.broken.load(std::memory_order_acquire)) {
        // The connection died under us (peer teardown or a mid-frame
        // kill). Fail our queued sends; a half-received frame in rbuf
        // is discarded with the connection, never misread.
        ep.rbuf.clear();
        Teardown(ep);
      }
    }
  }
}

void SocketTransport::WorkerThread() {
  for (;;) {
    uint32_t node;
    {
      util::MutexLock lock(&ready_mu_);
      // Manual predicate loop (not a wait-with-lambda): thread-safety
      // analysis does not see through lambda captures, and the explicit
      // form is what the spurious-wakeup tidy check expects anyway.
      while (!stopping_ && ready_.empty()) ready_cv_.Wait(lock);
      if (stopping_) return;
      node = ready_.front();
      ready_.pop_front();
    }
    NodeLoop* l = loop(node);

    std::deque<std::function<void()>> closures;
    std::deque<net::Message> messages;
    {
      util::MutexLock lock(&l->mu_);
      closures.swap(l->posted_);
      size_t take = std::min(l->inbox_.size(), kDrainBatch);
      for (size_t i = 0; i < take; ++i) {
        messages.push_back(std::move(l->inbox_.front()));
        l->inbox_.pop_front();
      }
    }

    // Posted closures first: timer firings and failed-send notifications
    // precede newly-arrived messages, roughly matching the sim's
    // schedule-order semantics.
    for (auto& fn : closures) fn();
    for (auto& m : messages) {
      if (l->sink_ != nullptr) l->sink_->Deliver(std::move(m));
    }

    bool more = false;
    {
      util::MutexLock lock(&l->mu_);
      if (l->inbox_.empty() && l->posted_.empty()) {
        l->queued_ = false;
      } else {
        more = true;  // Keep queued_; re-enter the ready queue.
      }
    }
    if (more) {
      {
        util::MutexLock lock(&ready_mu_);
        ready_.push_back(l->id_);
      }
      ready_cv_.NotifyOne();
    }
  }
}

// --- fault-injection hooks (tests only) -----------------------------------

Status SocketTransport::InjectRawBytesForTest(
    NodeId src, NodeId dst, const std::vector<uint8_t>& raw) {
  if (src >= ep_.size() || dst >= ep_.size() || ep_[src][dst] == nullptr) {
    return Status::InvalidArgument("no such endpoint");
  }
  Endpoint& ep = *ep_[src][dst];
  // Let any in-flight flush finish so the raw bytes land on a frame
  // boundary relative to already-written traffic, then keep out_mu held
  // across the raw writes so no flusher can interleave frames with them.
  for (;;) {
    {
      util::MutexLock lock(&ep.out_mu);
      if (!ep.flushing) {
        if (ep.broken.load(std::memory_order_acquire) || ep.fd < 0) {
          return Status::Unavailable("endpoint is broken");
        }
        const uint8_t* p = raw.data();
        size_t remaining = raw.size();
        while (remaining > 0) {
          // dcp-lint: allow(lock-across-syscall) — test-only hook; the
          // held lock is the point (it excludes concurrent flushers).
          ssize_t n = ::send(ep.fd, p, remaining, MSG_NOSIGNAL);
          if (n > 0) {
            p += n;
            remaining -= static_cast<size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pollfd pfd{ep.fd, POLLOUT, 0};
            // dcp-lint: allow(lock-across-syscall) — see above.
            ::poll(&pfd, 1, kMaxPollMs);
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          return Errno("send");
        }
        return Status::OK();
      }
    }
    std::this_thread::yield();
  }
}

void SocketTransport::PauseReadsForTest(NodeId src, NodeId dst, bool paused) {
  // Inbound src -> dst bytes are read on dst's side of the connection.
  if (dst >= ep_.size() || src >= ep_.size() || ep_[dst][src] == nullptr) {
    return;
  }
  ep_[dst][src]->read_paused.store(paused, std::memory_order_release);
  WakeIo();  // Rebuild the poll set either way.
}

void SocketTransport::SetWriteCapForTest(size_t bytes) {
  write_cap_for_test_.store(bytes, std::memory_order_relaxed);
}

void SocketTransport::BreakConnectionForTest(NodeId a, NodeId b) {
  if (a >= ep_.size() || b >= ep_.size()) return;
  if (ep_[a][b] != nullptr) Teardown(*ep_[a][b]);
  if (ep_[b][a] != nullptr) Teardown(*ep_[b][a]);
}

}  // namespace dcp::rt
