// Open-loop request generator: one non-blocking thread that sends
// pipelined AcceptObject request frames to the node that owns each
// key's group, on a fixed schedule, one connection per node, replies
// matched by request id. Built on the node's own transport
// (net::EventLoop + net::Connection); a timerfd wakes the loop at each
// request's due time with microsecond precision.
//
// Every latency is charged from the request's *due* time, not from
// when it was sent, so a stalled node cannot hide its queue by slowing
// the generator down (coordinated omission). When an owner refuses a
// key (IncorrectDepth) or its connection drops, the group's requests
// queue in sequence order and the generator probes the live nodes for
// the new owner, retrying the oldest queued request until one accepts
// it — the client behaviour that makes failover observable as delay
// rather than loss.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "stats.hpp"

namespace perfbench {

struct OpRecord {
  std::int64_t due_ns = 0;  // absolute, steady clock
  std::int64_t first_sent_ns = -1;
  std::int64_t done_ns = -1;
  std::uint32_t key_idx = 0;
  std::uint16_t sends = 0;
  std::int8_t sent_node = -1;   // node of the latest send
  std::int8_t acked_node = -1;  // node whose Ok completed the op
  bool on_time = false;  // first send left on the schedule path
};

struct PhaseResult {
  std::vector<OpRecord> ops;
  std::int64_t start_ns = 0;
  std::int64_t last_due_ns = 0;
  /// Requests scheduled but not completed when the last one was due.
  std::size_t backlog_at_last_due = 0;
  std::size_t unfinished = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t incorrect_depth = 0;  // refusals received
  std::uint64_t reroutes = 0;         // groups that lost their owner
};

/// Steady-clock nanoseconds (CLOCK_MONOTONIC, the timerfd's clock).
std::int64_t now_ns();

class OpenLoopGenerator {
 public:
  struct Config {
    std::vector<clash::net::Endpoint> endpoints;  // index = node
    std::vector<std::uint64_t> pool;              // key pool
    std::vector<int> route;                       // group -> node
  };

  explicit OpenLoopGenerator(Config cfg);
  ~OpenLoopGenerator();

  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  /// Run one phase: the schedule's offsets count from now. Blocks until
  /// every request completed or `drain_seconds` after the last was due.
  PhaseResult run(const std::vector<Arrival>& schedule, double drain_seconds);

  struct Acks {
    /// Highest acked op sequence per pool key (0 = never acked); a
    /// put's stream_rate is its sequence, so the owner's state must
    /// hold a sequence at least this high.
    std::vector<std::uint64_t> max_seq;
    /// Pool key of every op sequence issued so far (index = seq - 1).
    std::vector<std::uint32_t> seq_keys;
  };
  /// A copy taken on the loop thread: late replies keep arriving there.
  [[nodiscard]] Acks acks();

 private:
  struct Phase;

  void on_timer();
  void on_frame(std::size_t node, std::span<const std::uint8_t> frame);
  void on_close(std::size_t node);
  void connect(std::size_t node);
  void send_op(std::size_t idx, std::size_t node);
  void mark_unavailable(std::size_t group);
  void flush_backlog(std::size_t group);
  void try_finish(std::int64_t now);
  void arm(std::int64_t now);

  Config cfg_;
  clash::net::EventLoop loop_;
  int timer_fd_ = -1;
  std::vector<std::shared_ptr<clash::net::Connection>> conns_;
  /// Connections closed by the peer, released on the next timer tick.
  std::vector<std::shared_ptr<clash::net::Connection>> dead_conns_;
  std::vector<std::int64_t> next_reconnect_ns_;

  // Loop-thread state.
  std::unique_ptr<Phase> phase_;
  std::vector<std::uint64_t> acked_max_seq_;
  std::vector<std::uint32_t> seq_keys_;

  std::thread thread_;  // last: joined before the state above dies
};

}  // namespace perfbench
