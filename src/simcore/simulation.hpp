// The discrete-event simulation engine: a virtual clock plus an ordered
// event queue of resumable callbacks.
//
// Processes are `sim::Task<void>` coroutines registered with `spawn()`.
// Same-timestamp events run in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes every run deterministic.
//
// The event core is allocation-free in steady state: coroutine resumptions
// (delay(), Gate/Resource/FlowLimiter wakeups) are stored as bare handles,
// callbacks live in the event slab's inline storage (see event.hpp), process
// bookkeeping blocks are pooled across spawns, and coroutine frames come from
// a size-bucketed free list (frame_pool.hpp).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simcore/event.hpp"
#include "simcore/frame_pool.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace obs {
class Observer;  // see obs/observer.hpp; forward-declared to avoid a cycle
}

namespace sim {

class Simulation;

namespace detail {

/// State shared between a running root process and its ProcessHandle(s).
/// Recycled through Simulation's state pool when no handles are left, so the
/// joiners vector keeps its capacity across spawns.
struct ProcessState {
  bool done = false;
  std::exception_ptr error{};
  std::vector<std::coroutine_handle<>> joiners;
  std::string name;
};

/// Fire-and-forget coroutine wrapper used by Simulation::spawn. The frame
/// destroys itself at final_suspend.
struct Detached {
  struct promise_type {
    void* operator new(std::size_t n) { return FramePool::allocate(n); }
    void operator delete(void* p, std::size_t n) noexcept {
      FramePool::deallocate(p, n);
    }

    Detached get_return_object() {
      return Detached{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<> handle;
};

}  // namespace detail

/// A joinable reference to a spawned root process.
class ProcessHandle {
 public:
  ProcessHandle() = default;

  bool done() const { return state_ && state_->done; }
  const std::string& name() const { return state_->name; }

  /// Awaitable: suspends the caller until the process finishes. Rethrows
  /// nothing itself — process failures are surfaced by Simulation::run().
  auto join() noexcept {
    struct Awaiter {
      std::shared_ptr<detail::ProcessState> st;
      bool await_ready() const noexcept { return st->done; }
      void await_suspend(std::coroutine_handle<> h) {
        st->joiners.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{state_};
  }

 private:
  friend class Simulation;
  ProcessHandle(std::shared_ptr<detail::ProcessState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::ProcessState> state_;
};

/// The simulation engine. Not thread-safe by design: a simulation is a
/// single-threaded deterministic event loop; parallelism inside the modeled
/// world is expressed with coroutine processes, not host threads.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  TimePoint now() const noexcept { return now_; }

  /// Pre-sizes the event heap and payload slab for `n` simultaneously
  /// pending events (optional; the queue grows on demand either way).
  void reserve(std::size_t n) { queue_.reserve(n); }

  /// Schedules an arbitrary callback at `at` (must be >= now()). Callables
  /// up to detail::Event::kInlineCapacity bytes are stored inline.
  template <class F>
  void schedule_at(TimePoint at, F&& fn) {
    assert(at >= now_ && "cannot schedule into the past");
    queue_.push_callable(at, next_seq_++, std::forward<F>(fn));
  }

  /// Schedules a callback `delay` from now.
  template <class F>
  void schedule_in(Duration delay, F&& fn) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// Schedules resumption of a suspended coroutine. This is the kernel's
  /// hot path: the handle is stored directly in the event node, no callable
  /// wrapper is materialized.
  void schedule_resume(TimePoint at, std::coroutine_handle<> h) {
    assert(at >= now_ && "cannot schedule into the past");
    queue_.push_resume(at, next_seq_++, h);
  }

  /// Awaitable that suspends the caller for `d` of virtual time.
  /// `delay(0)` still yields through the event queue (a fair "yield").
  auto delay(Duration d) noexcept {
    struct Awaiter {
      Simulation& sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule_resume(sim.now_ + (d < 0 ? 0 : d), h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable that suspends the caller until absolute time `t` (or yields
  /// immediately through the queue if `t` is in the past).
  auto delay_until(TimePoint t) noexcept {
    return delay(t > now_ ? t - now_ : 0);
  }

  /// Registers a root process; it starts at the current virtual time.
  ProcessHandle spawn(Task<void> task, std::string name = {});

  /// Runs until the event queue is empty (or a process failed).
  /// Rethrows the first exception that escaped any root process.
  void run();

  /// Runs until virtual time would exceed `t`; the clock is left at
  /// min(t, time of last executed event). Returns true if events remain.
  bool run_until(TimePoint t);

  /// Executes a single event. Returns false if the queue was empty.
  bool step();

  /// Number of events executed so far (for kernel microbenchmarks).
  std::uint64_t events_executed() const noexcept { return events_executed_; }

  /// Number of still-live root processes.
  int live_processes() const noexcept { return live_processes_; }

  /// Attaches (or detaches, with nullptr) the observability hub. The engine
  /// itself never calls into it — layers built on the simulation check this
  /// pointer and skip all instrumentation when it is null, so an unobserved
  /// run is byte-identical to a build without the obs layer.
  void set_observer(obs::Observer* observer) noexcept {
    observer_ = observer;
  }
  obs::Observer* observer() const noexcept { return observer_; }

 private:
  detail::Detached run_process(Task<void> task,
                               std::shared_ptr<detail::ProcessState> st);
  std::shared_ptr<detail::ProcessState> acquire_state(std::string name);

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  int live_processes_ = 0;
  std::exception_ptr first_error_{};
  detail::EventQueue queue_;
  std::vector<std::shared_ptr<detail::ProcessState>> state_pool_;
  obs::Observer* observer_ = nullptr;
};

}  // namespace sim
