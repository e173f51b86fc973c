#ifndef DCP_RUNTIME_RUNTIME_H_
#define DCP_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "obs/observability.h"

namespace dcp::rt {

/// Protocol time, in milliseconds (by convention of the protocol layer;
/// the unit is whatever the backend's clock ticks in). On the simulator
/// backend this is virtual time; on the socket backend it is a monotonic
/// wall clock with an arbitrary epoch.
using Time = double;

/// Opaque handle identifying a scheduled timer, usable to cancel it.
/// `seq` is a nonzero generation tag; `slot` locates backend storage so
/// Cancel never searches. A default-constructed id is invalid.
struct TimerId {
  uint64_t seq = 0;
  uint32_t slot = 0;
  [[nodiscard]] bool valid() const { return seq != 0; }
};

/// The execution-context half of the transport/runtime seam: a monotonic
/// clock, one-shot timers, and an observability context. This is exactly
/// the surface the protocol layer (replica_node, two_phase, operations,
/// epoch_mux) and the storage engine use — they never see a concrete
/// backend.
///
/// Backends:
///  - `sim::Simulator` implements Runtime directly (virtual time, single
///    thread, deterministic). Timer closures run when the simulation
///    reaches their deadline.
///  - `rt::SocketTransport` hands out one Runtime per node (wall-clock
///    time, closures run serialized on the node's execution context —
///    never concurrently with that node's message handlers).
///
/// Threading contract: Now/Schedule/ScheduleAt/Cancel may be called from
/// any thread on backends that have threads; scheduled closures always
/// run on the owning node's execution context, one at a time.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Current time on this runtime's monotonic clock.
  [[nodiscard]] virtual Time Now() const = 0;

  /// Schedules `fn` to run at `Now() + delay` (delay must be >= 0).
  virtual TimerId Schedule(Time delay, std::function<void()> fn) = 0;

  /// Schedules `fn` at absolute time `when` (>= Now()).
  virtual TimerId ScheduleAt(Time when, std::function<void()> fn) = 0;

  /// Cancels a pending timer. Returns false if it already ran or was
  /// cancelled.
  virtual bool Cancel(TimerId id) = 0;

  /// The observability context for code running on this runtime. On the
  /// simulator this is shared cluster-wide; on the socket backend each
  /// node runtime owns its own (counters are not atomic).
  virtual obs::Observability& obs() = 0;
  virtual const obs::Observability& obs() const = 0;

  obs::MetricsRegistry& metrics() { return obs().metrics; }
  obs::EventTracer& tracer() { return obs().tracer; }
};

/// Re-arms itself on a fixed period until stopped. Used for the paper's
/// "steady pulse of epoch checking operations" (Section 4.3).
///
/// The callback may Stop() — or even destroy — the timer: the scheduled
/// closure owns the timer state via a shared_ptr and never touches `this`,
/// so nothing dangles when `fn` tears the timer down mid-fire.
class PeriodicTimer {
 public:
  /// Starts firing `fn` every `period`, first at `Now() + initial_delay`.
  PeriodicTimer(Runtime* runtime, Time initial_delay, Time period,
                std::function<void()> fn);
  ~PeriodicTimer() { Stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void Stop();
  [[nodiscard]] bool running() const { return state_->running; }

 private:
  struct State {
    Runtime* runtime;
    Time period;
    std::function<void()> fn;
    TimerId pending{};
    bool running = true;
  };

  static void Arm(const std::shared_ptr<State>& state, Time delay);

  std::shared_ptr<State> state_;
};

}  // namespace dcp::rt

#endif  // DCP_RUNTIME_RUNTIME_H_
