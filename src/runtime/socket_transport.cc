#include "runtime/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <utility>

namespace dcp::rt {

namespace {

/// u32 little-endian length prefix preceding every frame's payload.
constexpr size_t kFrameHeaderBytes = 4;
/// Frames larger than this are treated as stream corruption.
constexpr uint32_t kMaxFrameBytes = 64u << 20;
/// Self-sent messages drained from one node's inbox per loop pass,
/// bounding how long one busy node can hold its loop while others wait.
constexpr size_t kDrainBatch = 64;
/// Bytes read from one endpoint per loop pass, so one flooding peer
/// cannot starve the loop's other endpoints and nodes.
constexpr size_t kReadChunk = 64 * 1024;
constexpr size_t kMaxReadBytesPerPass = 4 * kReadChunk;
/// epoll events collected per wait.
constexpr int kMaxEvents = 64;
/// Wait ceiling: even with no timers a loop wakes at this cadence.
constexpr int kMaxPollMs = 100;
/// A loop's stored deadline while it is awake: it will scan its timers
/// and posts before it next sleeps, so no one needs to wake it.
constexpr double kAwake = -std::numeric_limits<double>::infinity();
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

uint32_t DefaultLoops(uint32_t nodes) {
  // The CPUs this process may run on, not the machine's: a process
  // confined to k CPUs should not start more loops than it can schedule.
  uint32_t cpus = std::thread::hardware_concurrency();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<uint32_t>(CPU_COUNT(&set));
  }
  return std::clamp(std::min(nodes, cpus / 2), 2u, 8u);
}

util::BufferPoolOptions PoolOptions(const SocketTransportOptions& o) {
  util::BufferPoolOptions p;
  p.enabled = o.pool_buffers;
  return p;
}

}  // namespace

/// One event-loop thread: an epoll set over its nodes' endpoints plus an
/// eventfd that other threads write to wake it.
class SocketTransport::EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop() {
    if (thread.joinable()) thread.join();
    if (epfd >= 0) ::close(epfd);
    if (efd >= 0) ::close(efd);
  }

  /// Interrupts the loop's epoll_wait (any thread). A no-op before Start
  /// has created the eventfd.
  void Wake() const {
    if (efd < 0) return;
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(efd, &one, sizeof(one));
  }

  /// Wakes the loop for work due at `when`, unless the caller is the loop
  /// itself or the loop will look before `when` anyway. `deadline` holds
  /// the time the loop sleeps toward, kAwake while it is running (it
  /// scans before sleeping), and — during the scan — an upper bound
  /// stored before the scan began, so work landing on an already-scanned
  /// node still wakes it.
  void WakeFor(Time when) const {
    if (current == this) return;
    if (when < deadline.load(std::memory_order_acquire)) Wake();
  }

  /// The loop whose thread is running, if any.
  static thread_local const EventLoop* current;

  std::vector<NodeRuntime*> nodes;  ///< Set at construction.
  int epfd = -1;
  int efd = -1;
  std::atomic<bool> stopping{false};
  /// Some endpoint's flags changed; re-sync the epoll set before sleeping.
  std::atomic<bool> resync{false};
  std::atomic<double> deadline{kAwake};
  // Loop-thread-only scratch, reused every pass.
  std::vector<std::function<void()>> closures;
  std::vector<net::Message> messages;
  std::vector<uint8_t> rx = std::vector<uint8_t>(kReadChunk);
  std::thread thread;  ///< Declared last: it uses every member above.
};

thread_local const SocketTransport::EventLoop*
    SocketTransport::EventLoop::current = nullptr;

/// Per-node execution context: self-send inbox, posted closures, timers,
/// and a private observability context. The queues are mutex-guarded so
/// any thread may post; the closures and message handlers themselves run
/// only on the owning loop's thread, giving per-node single-threaded
/// semantics.
class SocketTransport::NodeRuntime final : public Runtime {
 public:
  NodeRuntime(SocketTransport* transport, NodeId id, EventLoop* loop)
      : transport_(transport), id_(id), loop_(loop) {
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
    // Only deadlines earlier than the one the loop sleeps toward cost a
    // wakeup (RPC-timeout timers, the common case, never do).
    loop_->WakeFor(when);
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
  EventLoop* loop_;
  obs::Observability obs_;
  std::atomic<bool> up_{true};
  /// Set once via Register before traffic starts; read by the loop.
  net::MessageSink* sink_ = nullptr;

  util::Mutex mu_;
  std::deque<net::Message> inbox_ DCP_GUARDED_BY(mu_);
  std::deque<std::function<void()>> posted_ DCP_GUARDED_BY(mu_);

  // Timers, ordered by (deadline, seq); `timer_deadline_` maps a live
  // timer's seq to its key so Cancel is a lookup, not a scan.
  std::map<std::pair<Time, uint64_t>, std::function<void()>> timers_
      DCP_GUARDED_BY(mu_);
  std::map<uint64_t, Time> timer_deadline_ DCP_GUARDED_BY(mu_);
  uint64_t next_timer_seq_ DCP_GUARDED_BY(mu_) = 1;
};

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)),
      pool_(PoolOptions(options_)),
      epoch_(std::chrono::steady_clock::now()) {  // dcp-lint: allow(wall-clock) — epoch of this backend's monotonic clock
  assert(options_.num_nodes > 0);
  assert(options_.codec.encode && options_.codec.decode &&
         "SocketTransport needs a wire codec (see protocol::MakeWireCodec)");
  options_.max_batch_frames = std::max(options_.max_batch_frames, 1u);
  options_.max_queue_frames = std::max<size_t>(options_.max_queue_frames, 1);
  const uint32_t k = options_.num_workers > 0
                         ? options_.num_workers
                         : DefaultLoops(options_.num_nodes);
  for (uint32_t l = 0; l < k; ++l) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
  nodes_.reserve(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    EventLoop* owner = loops_[i % k].get();
    nodes_.push_back(std::make_unique<NodeRuntime>(this, NodeId{i}, owner));
    owner->nodes.push_back(nodes_.back().get());
  }
  ep_.resize(options_.num_nodes);
  for (auto& row : ep_) row.resize(options_.num_nodes);
}

SocketTransport::~SocketTransport() { Stop(); }

Time SocketTransport::NowMs() const {
  auto d = std::chrono::steady_clock::now() - epoch_;  // dcp-lint: allow(wall-clock) — the socket backend's Runtime clock is real time by definition
  return std::chrono::duration<double, std::milli>(d).count();
}

SocketTransport::NodeRuntime* SocketTransport::node(NodeId id) const {
  assert(id < nodes_.size());
  return nodes_[id].get();
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

  for (auto& l : loops_) {
    if (l->epfd < 0) {
      l->epfd = ::epoll_create1(EPOLL_CLOEXEC);
      if (l->epfd < 0) return Errno("epoll_create1");
    }
    if (l->efd < 0) {
      l->efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (l->efd < 0) return Errno("eventfd");
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = nullptr;
      if (::epoll_ctl(l->epfd, EPOLL_CTL_ADD, l->efd, &ev) != 0) {
        return Errno("epoll_ctl");
      }
    }
    l->stopping.store(false, std::memory_order_relaxed);
    // The first pass registers every endpoint the loop owns.
    l->resync.store(true, std::memory_order_relaxed);
  }
  started_.store(true);
  for (auto& l : loops_) {
    l->thread = std::thread([this, loop = l.get()] { Run(*loop); });
  }
  return Status::OK();
}

void SocketTransport::Stop() {
  if (!started_.exchange(false)) return;
  for (auto& l : loops_) {
    l->stopping.store(true, std::memory_order_release);
    l->Wake();
  }
  for (auto& l : loops_) {
    if (l->thread.joinable()) l->thread.join();
  }
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
        ::close(ep->fd);  // Also leaves its loop's epoll set.
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
}

void SocketTransport::Register(NodeId id, net::MessageSink* sink) {
  node(id)->sink_ = sink;
}

void SocketTransport::SetNodeUp(NodeId id, bool up) {
  node(id)->up_.store(up, std::memory_order_release);
}

bool SocketTransport::IsUp(NodeId id) const {
  return node(id)->up_.load(std::memory_order_acquire);
}

Runtime* SocketTransport::runtime(NodeId id) { return node(id); }

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

void SocketTransport::DeliverLocal(net::Message msg) {
  NodeRuntime* n = node(msg.dst);
  {
    util::MutexLock lock(&n->mu_);
    n->inbox_.push_back(std::move(msg));
  }
  n->loop_->WakeFor(kAwake);  // Due now: wakes any sleeping loop.
}

void SocketTransport::PostClosure(NodeId id, std::function<void()> fn) {
  NodeRuntime* n = node(id);
  {
    util::MutexLock lock(&n->mu_);
    n->posted_.push_back(std::move(fn));
  }
  n->loop_->WakeFor(kAwake);
}

void SocketTransport::RequestResync(NodeId owner) {
  EventLoop* l = node(owner)->loop_;
  l->resync.store(true, std::memory_order_release);
  // Another thread cannot tell whether the loop already passed its
  // pre-sleep resync, so it always wakes it; interest changes are rare.
  if (EventLoop::current != l) l->Wake();
}

void SocketTransport::Flush(Endpoint& ep) {
  ep.out_mu.Lock();
  // Single-flusher protocol: whoever sets `flushing` owns the drain
  // until the queue empties or the socket blocks. Everyone else just
  // appended their frame — the active flusher will pick it up, which is
  // exactly where multi-frame batches come from.
  if (ep.flushing) {
    ep.out_mu.Unlock();
    return;
  }
  ep.flushing = true;
  bool blocked = false;
  for (;;) {
    if (ep.broken.load(std::memory_order_acquire)) break;
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
        blocked = true;
        break;
      }
      TeardownLocked(ep);  // Queue cleanup happens below (we flush).
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
    // Under a test write cap, yield to the owner loop after each capped
    // write so fault tests can interleave teardowns mid-frame.
    if (cap > 0 && !ep.outq.empty()) {
      blocked = true;
      break;
    }
  }
  // A teardown that raced this flush deferred queue cleanup to us.
  const bool broken = ep.broken.load(std::memory_order_acquire);
  if (broken && !ep.outq.empty()) FailQueueLocked(ep);
  // The last flusher decides, under out_mu, whether a remainder waits
  // for EPOLLOUT — so a drain on one thread can never disarm a wait that
  // a blocked flush on another thread just asked for.
  const bool want = blocked && !broken;
  const bool rearm =
      ep.want_pollout.exchange(want, std::memory_order_acq_rel) != want;
  ep.flushing = false;
  ep.out_mu.Unlock();
  if (rearm) RequestResync(ep.owner);
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
  // races with the owner loop's epoll set); both directions of the shared
  // TCP connection die, so the peer side observes EOF and tears down
  // its endpoint symmetrically. The actual close happens in Stop().
  if (ep.fd >= 0) ::shutdown(ep.fd, SHUT_RDWR);
  // If a flusher is mid-syscall its iovecs still reference the queue;
  // it fails the queue itself as soon as it re-acquires the lock.
  if (!ep.flushing) FailQueueLocked(ep);
  ep.want_pollout.store(false, std::memory_order_release);
  RequestResync(ep.owner);  // Drop the fd from its loop's epoll set.
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
  if (dst >= nodes_.size()) {
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
    // Self-sends skip the kernel; the inbox's FIFO preserves order.
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
      // Slow-peer backpressure: fail the send instead of blocking the
      // sending thread until the peer drains.
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
  // on_failed either way. A remainder the socket would not take is left
  // to the owner loop's EPOLLOUT.
  Flush(*ep);
}

void SocketTransport::ConsumeFrames(Endpoint& ep) {
  NodeRuntime* owner = node(ep.owner);
  size_t off = 0;
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
    // A well-framed but undecodable payload is equally fatal: correct
    // peers never produce one, so this length prefix was garbage that
    // happened to look plausible. So is a frame that names another
    // sender or receiver than this connection's two ends — a correct
    // peer only ever writes its own messages to us here, and honoring
    // the header would let one connection speak for every node.
    if (!options_.codec.decode(p + kFrameHeaderBytes, len, &msg) ||
        msg.src != ep.peer || msg.dst != ep.owner) {
      corrupt = true;
      break;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    off += kFrameHeaderBytes + len;
    // Run to completion: the handler runs here, on the owner's loop.
    // Only this loop touches rbuf, so `off` stays valid across the call.
    if (owner->sink_ != nullptr) owner->sink_->Deliver(std::move(msg));
  }
  if (corrupt) {
    // Tear the connection down instead of clearing the buffer and
    // misreading subsequent bytes as fresh headers. Frames decoded
    // before the corruption point were good and have been delivered.
    decode_failures_.fetch_add(1, std::memory_order_relaxed);
    ep.rbuf.clear();
    Teardown(ep);
  } else if (off > 0) {
    ep.rbuf.erase(ep.rbuf.begin(),
                  ep.rbuf.begin() + static_cast<long>(off));
  }
}

void SocketTransport::ReadEndpoint(EventLoop& loop, Endpoint& ep) {
  if (ep.read_paused.load(std::memory_order_acquire)) return;
  bool eof = false;
  uint8_t* buf = loop.rx.data();
  for (size_t got = 0; got < kMaxReadBytesPerPass;) {
    const ssize_t n = ::recv(ep.fd, buf, loop.rx.size(), 0);
    if (n > 0) {
      ep.rbuf.insert(ep.rbuf.end(), buf, buf + n);
      got += static_cast<size_t>(n);
      // A short read drained the socket: skip the trailing EAGAIN call.
      if (static_cast<size_t>(n) < loop.rx.size()) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    eof = true;  // Peer closed or connection error.
    break;
  }
  // Whatever is left past the per-pass budget stays readable, so the
  // level-triggered epoll set reports it again next pass.
  ConsumeFrames(ep);
  if (eof && !ep.broken.load(std::memory_order_acquire)) {
    // The connection died under us (peer teardown or a mid-frame kill).
    // Fail our queued sends; a half-received frame in rbuf is discarded
    // with the connection, never misread.
    ep.rbuf.clear();
    Teardown(ep);
  }
}

void SocketTransport::RunNode(NodeRuntime& n, Time now) {
  EventLoop& l = *n.loop_;
  {
    util::MutexLock lock(&n.mu_);
    // Posted closures first, then due timers in deadline order: timer
    // firings and failed-send notifications precede newly-arrived
    // messages, roughly matching the sim's schedule-order semantics.
    for (auto& fn : n.posted_) l.closures.push_back(std::move(fn));
    n.posted_.clear();
    while (!n.timers_.empty() && n.timers_.begin()->first.first <= now) {
      auto it = n.timers_.begin();
      n.timer_deadline_.erase(it->first.second);
      l.closures.push_back(std::move(it->second));
      n.timers_.erase(it);
    }
    const size_t take = std::min(n.inbox_.size(), kDrainBatch);
    for (size_t i = 0; i < take; ++i) {
      l.messages.push_back(std::move(n.inbox_.front()));
      n.inbox_.pop_front();
    }
  }
  for (auto& fn : l.closures) fn();
  l.closures.clear();
  for (auto& m : l.messages) {
    if (n.sink_ != nullptr) n.sink_->Deliver(std::move(m));
  }
  l.messages.clear();
}

void SocketTransport::ResyncInterest(EventLoop& loop) {
  for (NodeRuntime* n : loop.nodes) {
    for (auto& ep : ep_[n->id_]) {
      if (!ep || ep->fd < 0) continue;
      uint32_t want = 0;
      if (!ep->broken.load(std::memory_order_acquire)) {
        if (!ep->read_paused.load(std::memory_order_acquire)) want |= EPOLLIN;
        if (ep->want_pollout.load(std::memory_order_acquire)) {
          want |= EPOLLOUT;
        }
      }
      if (want == ep->armed) continue;
      epoll_event ev{};
      ev.events = want;
      ev.data.ptr = ep.get();
      const int op = ep->armed == 0 ? EPOLL_CTL_ADD
                     : want == 0    ? EPOLL_CTL_DEL
                                    : EPOLL_CTL_MOD;
      ::epoll_ctl(loop.epfd, op, ep->fd, &ev);
      ep->armed = want;
    }
  }
}

void SocketTransport::Run(EventLoop& loop) {
  EventLoop::current = &loop;
  std::array<epoll_event, kMaxEvents> events{};
  while (!loop.stopping.load(std::memory_order_acquire)) {
    // Work: every node's due timers, posts, and self-sends. The stored
    // deadline is kAwake here, so posts from other threads cost nothing.
    const Time now = NowMs();
    for (NodeRuntime* n : loop.nodes) RunNode(*n, now);

    // Scan for the next deadline. The upper bound goes out before the
    // scan: work landing on an already-scanned node compares against it
    // and wakes the wait below, where a stale deadline would let the
    // loop sleep a full kMaxPollMs.
    const Time scan_now = NowMs();
    Time next = scan_now + kMaxPollMs;
    loop.deadline.store(next, std::memory_order_release);
    bool pending = false;
    for (NodeRuntime* n : loop.nodes) {
      util::MutexLock lock(&n->mu_);
      if (!n->posted_.empty() || !n->inbox_.empty()) pending = true;
      if (!n->timers_.empty()) {
        next = std::min(next, n->timers_.begin()->first.first);
      }
    }
    pending = pending || next <= scan_now;
    loop.deadline.store(pending ? kAwake : next, std::memory_order_release);
    if (loop.resync.exchange(false, std::memory_order_acq_rel)) {
      ResyncInterest(loop);
    }

    int timeout_ms = 0;
    if (!pending) {
      timeout_ms = static_cast<int>(std::ceil(next - NowMs()));
      timeout_ms = std::clamp(timeout_ms, 0, kMaxPollMs);
    }
    const int rc = ::epoll_wait(loop.epfd, events.data(), kMaxEvents,
                                timeout_ms);
    loop.deadline.store(kAwake, std::memory_order_release);
    if (rc < 0 && errno != EINTR) return;
    for (int i = 0; i < rc; ++i) {
      if (events[i].data.ptr == nullptr) {
        uint64_t count = 0;
        [[maybe_unused]] ssize_t r = ::read(loop.efd, &count, sizeof(count));
        continue;
      }
      Endpoint& ep = *static_cast<Endpoint*>(events[i].data.ptr);
      if (ep.broken.load(std::memory_order_acquire)) {
        // Torn down since the last resync: drop it before sleeping.
        loop.resync.store(true, std::memory_order_relaxed);
        continue;
      }
      // Drain the blocked outbound queue on the owner loop — the
      // slow-peer wait lives here, never on a sender. An error or hangup
      // also runs the flush: with reads paused, its failing write is
      // what tears the dead connection down.
      if (events[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) Flush(ep);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ReadEndpoint(loop, ep);
      }
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
  RequestResync(dst);
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
