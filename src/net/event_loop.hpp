// Single-threaded epoll reactor: fd readiness callbacks, monotonic
// timers, and a thread-safe post() for cross-thread task injection.
// Each networked CLASH node runs one loop on one thread, so protocol
// handlers never need locks.
//
// That invariant is now a checked capability, not folklore. The loop
// owns a common::AffinityToken (loop_thread()); loop-affine state here
// and in the classes built on the loop (Connection, ClashNode) is
// CLASH_GUARDED_BY it, and loop-only methods CLASH_REQUIRES it. Entry
// points that clang cannot see through (fd-handler lambdas, posted
// tasks, timers) open with CLASH_ASSERT_ON_LOOP(loop): statically that
// asserts the capability for the rest of the scope; in
// CLASH_LOOP_CHECKS builds it also verifies at runtime that the caller
// *is* the loop thread — or that the loop is idle, which covers
// single-threaded setup/teardown and the documented run-inline
// fallback after the final drain.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include <optional>
#include <utility>

#include "common/affinity.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace clash::net {

class EventLoop {
 public:
  using Task = std::function<void()>;
  using FdHandler = std::function<void(std::uint32_t events)>;
  using Clock = std::chrono::steady_clock;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// The loop-affinity capability: state guarded by it may only be
  /// touched from the loop thread (or while the loop is idle).
  [[nodiscard]] common::AffinityToken& loop_thread()
      CLASH_RETURN_CAPABILITY(affinity_) {
    return affinity_;
  }

  /// Capability witness: see CLASH_ASSERT_ON_LOOP below.
  void assert_on_loop() const CLASH_ASSERT_CAPABILITY(affinity_) {
    affinity_.assert_held();
  }

  /// True when the calling thread may touch loop-affine state: it is
  /// the thread inside run(), or no run() is in progress at all.
  [[nodiscard]] bool on_loop_or_idle() const {
    return !running_.load(std::memory_order_acquire) ||
           loop_tid_.load(std::memory_order_acquire) ==
               std::this_thread::get_id();
  }

  /// Register interest in `events` (EPOLLIN/EPOLLOUT) for `fd`.
  void add_fd(int fd, std::uint32_t events, FdHandler handler)
      CLASH_REQUIRES(affinity_);
  void modify_fd(int fd, std::uint32_t events) CLASH_REQUIRES(affinity_);
  void remove_fd(int fd) CLASH_REQUIRES(affinity_);

  /// One-shot timer relative to now. Returns a cancellation id.
  std::uint64_t call_after(std::chrono::microseconds delay, Task task)
      CLASH_REQUIRES(affinity_);
  void cancel_timer(std::uint64_t id) CLASH_REQUIRES(affinity_);

  /// Run `task` once at the end of the current dispatch round, before
  /// the next epoll_wait (loop thread only). Connections use this to
  /// coalesce every frame queued during one tick into a single
  /// scatter-gather flush instead of one write per send.
  void defer(Task task) CLASH_REQUIRES(affinity_);

  /// Enqueue a task from any thread; runs on the loop thread. Returns
  /// false once the loop has finished its final drain (the task will
  /// never run): callers must execute it themselves or give up. Tasks
  /// accepted before that point are guaranteed to run, even when they
  /// race with stop() — run() drains the queue once more on exit.
  [[nodiscard]] bool post(Task task) CLASH_EXCLUDES(posted_mutex_);

  /// Run until stop(). Must be called from exactly one thread.
  void run();
  /// Signal the loop to exit (thread-safe).
  void stop();

  /// Clear the finished/exited latches from a previous run() before a
  /// new run becomes reachable to posters. run() also clears them, but
  /// only once the loop thread gets scheduled — an owner that spawns
  /// run() on a fresh thread must rearm first, or posts in the spawn
  /// window are spuriously refused against the stale latches.
  void rearm() CLASH_EXCLUDES(posted_mutex_);

  /// Attach tick observability (call before run()). Every dispatch
  /// round — from an epoll_wait wakeup to the next wait, idle time
  /// excluded — records its duration into `tick_hist`; rounds of 1ms
  /// or longer also land a kLoopTick span in `tracer` (when enabled).
  /// Timestamps are steady-clock microseconds. Null pointers detach.
  void set_obs(obs::Histogram* tick_hist, obs::TraceRecorder* tracer,
               std::uint64_t pid) CLASH_REQUIRES(affinity_) {
    tick_hist_ = tick_hist;
    tracer_ = tracer;
    obs_pid_ = pid;
  }

  /// Attach the flight recorder + post-hoc tick-budget fence (call
  /// before run()). A dispatch round that finishes but exceeded
  /// `budget_us` lands a kTickOverrun flight event and bumps
  /// `overruns`; the live wedged-tick case is the watchdog's job via
  /// current_tick(). Null flight detaches.
  /// `epoch_us` (steady-clock microseconds) is subtracted from event
  /// timestamps so they share the embedding node's timeline.
  void set_stall_obs(obs::FlightRecorder* flight, obs::Counter overruns,
                     std::int64_t budget_us, std::int64_t epoch_us = 0)
      CLASH_REQUIRES(affinity_) {
    flight_ = flight;
    tick_overruns_c_ = overruns;
    tick_budget_us_ = budget_us;
    stall_epoch_us_ = epoch_us;
  }

  /// Tick progress probe for the stall watchdog (any thread): while a
  /// dispatch round is in progress, its {sequence, start time in
  /// steady-clock microseconds}; nullopt while the loop is idle in
  /// epoll_wait (or not running). A seq/start pair read together is
  /// consistent enough for stall detection: at worst a probe lands on
  /// a tick boundary and reads the previous start, which only delays
  /// the verdict by one poll.
  [[nodiscard]] std::optional<std::pair<std::uint64_t, std::int64_t>>
  current_tick() const {
    if (!tick_busy_.load(std::memory_order_acquire)) return std::nullopt;
    return std::make_pair(tick_seq_.load(std::memory_order_relaxed),
                          tick_started_us_.load(std::memory_order_relaxed));
  }

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// True once run() has returned, i.e. the loop thread executes no
  /// further tasks. post() starts failing slightly before this (during
  /// the final drain); a caller that got refused must wait for
  /// exited() before touching loop-owned state from its own thread.
  [[nodiscard]] bool exited() const {
    return exited_.load(std::memory_order_acquire);
  }

 private:
  struct Timer {
    Clock::time_point deadline;
    std::uint64_t id;
    bool operator>(const Timer& o) const {
      return deadline == o.deadline ? id > o.id : o.deadline < deadline;
    }
  };

  /// run()'s bracket around the dispatch loop: publishes this thread
  /// as the loop thread (the runtime half of the capability) and
  /// acquires/releases the static capability so the loop body may
  /// touch guarded state.
  void enter_loop() CLASH_ACQUIRE(affinity_);
  void exit_loop() CLASH_RELEASE(affinity_);

  void drain_posted() CLASH_REQUIRES(affinity_);
  void run_deferred() CLASH_REQUIRES(affinity_);
  void note_tick(Clock::time_point start) CLASH_REQUIRES(affinity_);
  void fire_due_timers() CLASH_REQUIRES(affinity_);
  /// Milliseconds until the next live timer (cancelled timers at the
  /// head of the queue are discarded first, so they cost no wake-up).
  [[nodiscard]] int next_timeout_ms() CLASH_REQUIRES(affinity_);
  void wake();

  common::AffinityToken affinity_;

  int epoll_fd_ = -1;  // immutable after construction
  int wake_fd_ = -1;   // eventfd; immutable after construction
  /// Held by shared_ptr so dispatch pins a handler with a refcount
  /// bump instead of copying the std::function (a heap allocation for
  /// any non-trivially-copyable capture) — and a handler that removes
  /// itself still finishes running on the pinned copy.
  std::map<int, std::shared_ptr<FdHandler>> handlers_
      CLASH_GUARDED_BY(affinity_);

  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_
      CLASH_GUARDED_BY(affinity_);
  std::map<std::uint64_t, Task> timer_tasks_ CLASH_GUARDED_BY(affinity_);
  std::uint64_t next_timer_id_ CLASH_GUARDED_BY(affinity_) = 1;

  std::vector<Task> deferred_ CLASH_GUARDED_BY(affinity_);

  common::Mutex posted_mutex_;
  std::vector<Task> posted_ CLASH_GUARDED_BY(posted_mutex_);
  bool finished_ CLASH_GUARDED_BY(posted_mutex_) = false;
  std::atomic<bool> exited_{false};

  obs::Histogram* tick_hist_ CLASH_GUARDED_BY(affinity_) = nullptr;
  obs::TraceRecorder* tracer_ CLASH_GUARDED_BY(affinity_) = nullptr;
  std::uint64_t obs_pid_ CLASH_GUARDED_BY(affinity_) = 0;
  obs::FlightRecorder* flight_ CLASH_GUARDED_BY(affinity_) = nullptr;
  obs::Counter tick_overruns_c_ CLASH_GUARDED_BY(affinity_);
  std::int64_t tick_budget_us_ CLASH_GUARDED_BY(affinity_) = 0;
  std::int64_t stall_epoch_us_ CLASH_GUARDED_BY(affinity_) = 0;

  /// Published tick progress (lock-free; read by the watchdog thread).
  std::atomic<std::uint64_t> tick_seq_{0};
  std::atomic<std::int64_t> tick_started_us_{0};
  std::atomic<bool> tick_busy_{false};

  /// The thread currently inside run(); meaningful while running_.
  std::atomic<std::thread::id> loop_tid_{};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
};

}  // namespace clash::net

/// The loop-affinity witness. Statically: asserts `loop`'s capability
/// for the rest of the scope, satisfying -Wthread-safety for guarded
/// accesses and CLASH_REQUIRES calls. At runtime (CLASH_LOOP_CHECKS
/// builds): aborts with a diagnostic when the caller is neither the
/// loop thread nor running against an idle loop. Free in release
/// builds configured with -DCLASH_LOOP_CHECKS=OFF.
#define CLASH_ASSERT_ON_LOOP(loop) (loop).assert_on_loop()
