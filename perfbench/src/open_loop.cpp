#include "open_loop.hpp"

#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <ctime>
#include <limits>
#include <stdexcept>

#include "cluster.hpp"
#include "wire/codec.hpp"

namespace perfbench {

namespace wire = clash::wire;
using clash::net::Connection;

namespace {
/// Spacing of owner probes for a group that lost its owner, and of
/// reconnect attempts to a node whose connection dropped.
constexpr std::int64_t kProbeGapNs = 2'000'000;
constexpr std::int64_t kReconnectGapNs = 20'000'000;
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct OpenLoopGenerator::Phase {
  PhaseResult result;
  std::uint64_t seq_base = 0;  // op i carries sequence seq_base + i + 1
  std::size_t next_to_send = 0;
  std::size_t done = 0;
  std::int64_t drain_ns = 0;
  std::vector<std::set<std::uint32_t>> backlog =
      std::vector<std::set<std::uint32_t>>(kGroups);
  std::vector<std::int64_t> probe_op = std::vector<std::int64_t>(kGroups, -1);
  std::vector<std::int64_t> next_probe_ns =
      std::vector<std::int64_t>(kGroups, 0);
  std::vector<std::size_t> rotor = std::vector<std::size_t>(kGroups, 0);
  std::promise<PhaseResult> finished;
};

OpenLoopGenerator::OpenLoopGenerator(Config cfg) : cfg_(std::move(cfg)) {
  acked_max_seq_.assign(cfg_.pool.size(), 0);
  conns_.resize(cfg_.endpoints.size());
  next_reconnect_ns_.assign(cfg_.endpoints.size(), 0);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) throw std::runtime_error("timerfd_create failed");
  // The loop is idle until the thread below runs it: setup may touch
  // loop-affine state from this thread.
  loop_.add_fd(timer_fd_, EPOLLIN, [this](std::uint32_t) { on_timer(); });
  for (std::size_t i = 0; i < conns_.size(); ++i) connect(i);
  thread_ = std::thread([this] {
    // Exact wake-ups: no timer slack on the generator's deadlines.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    // The CPU after the three node loops' (see Cluster).
    pin_current_thread(kNodes);
    loop_.run();
  });
}

OpenLoopGenerator::~OpenLoopGenerator() {
  loop_.stop();
  if (thread_.joinable()) thread_.join();
  conns_.clear();
  dead_conns_.clear();
  loop_.remove_fd(timer_fd_);
  ::close(timer_fd_);
}

void OpenLoopGenerator::connect(std::size_t node) {
  auto fd = clash::net::connect_tcp(cfg_.endpoints[node]);
  if (!fd.ok()) {
    next_reconnect_ns_[node] = now_ns() + kReconnectGapNs;
    return;
  }
  conns_[node] = Connection::adopt(
      loop_, std::move(fd).value(),
      [this, node](std::span<const std::uint8_t> frame) {
        on_frame(node, frame);
      },
      [this, node] { on_close(node); });
}

PhaseResult OpenLoopGenerator::run(const std::vector<Arrival>& schedule,
                                   double drain_seconds) {
  auto phase = std::make_unique<Phase>();
  auto done = phase->finished.get_future();
  // A small lead so the first request is not already late on arrival.
  const std::int64_t start = now_ns() + 2'000'000;
  phase->result.start_ns = start;
  phase->result.ops.resize(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    phase->result.ops[i].due_ns = start + schedule[i].due_ns;
    phase->result.ops[i].key_idx = schedule[i].key_idx;
  }
  phase->result.last_due_ns =
      schedule.empty() ? start : phase->result.ops.back().due_ns;
  phase->drain_ns =
      phase->result.last_due_ns + std::int64_t(drain_seconds * 1e9);
  // Tasks are copyable std::functions: hand the phase over through a
  // shared holder so a refused post still frees it.
  auto holder = std::make_shared<std::unique_ptr<Phase>>(std::move(phase));
  const bool posted = loop_.post([this, holder] {
    phase_ = std::move(*holder);
    phase_->seq_base = seq_keys_.size();
    for (const auto& op : phase_->result.ops) seq_keys_.push_back(op.key_idx);
    const std::int64_t now = now_ns();
    try_finish(now);  // an empty schedule finishes at once
    arm(now);
  });
  if (!posted) throw std::runtime_error("generator loop not running");
  return done.get();
}

OpenLoopGenerator::Acks OpenLoopGenerator::acks() {
  std::promise<Acks> copy;
  auto done = copy.get_future();
  if (!loop_.post([&] { copy.set_value(Acks{acked_max_seq_, seq_keys_}); })) {
    throw std::runtime_error("generator loop not running");
  }
  return done.get();
}

void OpenLoopGenerator::send_op(std::size_t idx, std::size_t node) {
  OpRecord& op = phase_->result.ops[idx];
  const std::uint64_t seq = phase_->seq_base + idx + 1;
  clash::AcceptObject obj;
  obj.key = clash::Key(cfg_.pool[op.key_idx], kKeyWidth);
  obj.depth = kInitialDepth;
  obj.kind = clash::ObjectKind::kData;
  obj.source = clash::ClientId{op.key_idx};
  // The rate carries the op's sequence: the owner's final state then
  // names exactly which put it holds for this source.
  obj.stream_rate = double(seq);
  auto w = wire::begin_frame(
      wire::Envelope{wire::FrameKind::kRequest, seq, clash::ServerId{}});
  wire::encode_message(w, clash::Message(obj));
  conns_[node]->send_wire_frame(wire::finish_frame(std::move(w)));
  if (op.first_sent_ns < 0) op.first_sent_ns = now_ns();
  ++op.sends;
  op.sent_node = std::int8_t(node);
  ++phase_->result.frames_sent;
}

void OpenLoopGenerator::mark_unavailable(std::size_t group) {
  const int old = cfg_.route[group];
  if (old < 0) return;
  cfg_.route[group] = -1;
  phase_->rotor[group] = std::size_t(old) + 1;
  phase_->next_probe_ns[group] = 0;
  ++phase_->result.reroutes;
}

void OpenLoopGenerator::flush_backlog(std::size_t group) {
  const int node = cfg_.route[group];
  auto& queued = phase_->backlog[group];
  for (const std::uint32_t idx : queued) send_op(idx, std::size_t(node));
  queued.clear();
}

void OpenLoopGenerator::on_frame(std::size_t node,
                                 std::span<const std::uint8_t> frame) {
  const auto decoded = wire::decode_frame(frame);
  if (!decoded.ok()) return;
  const auto reply = wire::decode_reply(decoded.value().payload);
  if (!reply.ok()) return;
  const std::uint64_t seq = decoded.value().envelope.request_id;
  if (seq == 0 || seq > seq_keys_.size()) return;
  const bool ok = std::holds_alternative<clash::AcceptObjectOk>(reply.value());
  if (ok) {
    auto& acked = acked_max_seq_[seq_keys_[seq - 1]];
    if (acked < seq) acked = seq;
  }
  if (phase_ == nullptr) return;
  ++phase_->result.frames_received;
  if (seq <= phase_->seq_base ||
      seq > phase_->seq_base + phase_->result.ops.size()) {
    return;  // a straggler of an earlier phase
  }
  const std::size_t idx = seq - phase_->seq_base - 1;
  OpRecord& op = phase_->result.ops[idx];
  const std::size_t group = group_index(cfg_.pool[op.key_idx]);
  const bool was_probe = phase_->probe_op[group] == std::int64_t(idx);
  if (was_probe) phase_->probe_op[group] = -1;
  const std::int64_t now = now_ns();
  if (ok) {
    if (op.done_ns < 0) {
      op.done_ns = now;
      op.acked_node = std::int8_t(node);
      ++phase_->done;
    }
    if (was_probe) {
      cfg_.route[group] = int(node);
      flush_backlog(group);
    }
  } else {
    ++phase_->result.incorrect_depth;
    if (op.done_ns >= 0) return;
    if (was_probe) {
      ++phase_->rotor[group];
      phase_->next_probe_ns[group] = now + kProbeGapNs;
    } else if (cfg_.route[group] == int(node)) {
      mark_unavailable(group);
    }
    phase_->backlog[group].insert(std::uint32_t(idx));
    if (cfg_.route[group] >= 0) flush_backlog(group);  // stale refusal
    arm(now);  // a probe may now be due
  }
  try_finish(now);
}

void OpenLoopGenerator::on_close(std::size_t node) {
  // Never destroy a connection inside its own callback.
  dead_conns_.push_back(std::move(conns_[node]));
  const std::int64_t now = now_ns();
  next_reconnect_ns_[node] = now + kReconnectGapNs;
  if (phase_ == nullptr) return;
  for (std::size_t g = 0; g < kGroups; ++g) {
    if (cfg_.route[g] == int(node)) mark_unavailable(g);
  }
  // Requests in flight on the lost connection are re-queued (in
  // sequence order) for whichever node owns their group next.
  auto& ops = phase_->result.ops;
  for (std::size_t i = 0; i < phase_->next_to_send; ++i) {
    OpRecord& op = ops[i];
    if (op.done_ns >= 0 || op.sent_node != std::int8_t(node)) continue;
    const std::size_t group = group_index(cfg_.pool[op.key_idx]);
    if (phase_->probe_op[group] == std::int64_t(i)) {
      phase_->probe_op[group] = -1;
    }
    op.sent_node = -1;
    phase_->backlog[group].insert(std::uint32_t(i));
  }
  arm(now);
}

void OpenLoopGenerator::on_timer() {
  std::uint64_t expirations = 0;
  (void)!::read(timer_fd_, &expirations, sizeof(expirations));
  dead_conns_.clear();
  const std::int64_t now = now_ns();
  if (phase_ != nullptr) {
    auto& ops = phase_->result.ops;
    while (phase_->next_to_send < ops.size() &&
           ops[phase_->next_to_send].due_ns <= now) {
      const std::size_t idx = phase_->next_to_send++;
      const std::size_t group = group_index(cfg_.pool[ops[idx].key_idx]);
      const int node = cfg_.route[group];
      if (node >= 0 && conns_[std::size_t(node)] != nullptr &&
          phase_->backlog[group].empty()) {
        send_op(idx, std::size_t(node));
        ops[idx].on_time = true;
      } else {
        phase_->backlog[group].insert(std::uint32_t(idx));
      }
      if (phase_->next_to_send == ops.size()) {
        phase_->result.backlog_at_last_due = ops.size() - phase_->done;
      }
    }
    for (std::size_t g = 0; g < kGroups; ++g) {
      if (cfg_.route[g] >= 0 || phase_->backlog[g].empty() ||
          phase_->probe_op[g] >= 0 || phase_->next_probe_ns[g] > now) {
        continue;
      }
      std::size_t target = conns_.size();
      for (std::size_t k = 0; k < conns_.size(); ++k) {
        const std::size_t c = (phase_->rotor[g] + k) % conns_.size();
        if (conns_[c] != nullptr) {
          target = c;
          break;
        }
      }
      phase_->next_probe_ns[g] = now + kProbeGapNs;
      if (target == conns_.size()) continue;
      phase_->rotor[g] = target;
      const std::uint32_t idx = *phase_->backlog[g].begin();
      phase_->backlog[g].erase(phase_->backlog[g].begin());
      phase_->probe_op[g] = idx;
      send_op(idx, target);
    }
    for (std::size_t n = 0; n < conns_.size(); ++n) {
      if (conns_[n] == nullptr && next_reconnect_ns_[n] <= now) connect(n);
    }
    try_finish(now);
  }
  arm(now);
}

void OpenLoopGenerator::try_finish(std::int64_t now) {
  if (phase_ == nullptr) return;
  const auto& ops = phase_->result.ops;
  if (phase_->next_to_send < ops.size()) return;
  if (phase_->done < ops.size() && now < phase_->drain_ns) return;
  phase_->result.unfinished = ops.size() - phase_->done;
  if (ops.empty()) phase_->result.backlog_at_last_due = 0;
  auto phase = std::move(phase_);
  phase->finished.set_value(std::move(phase->result));
}

void OpenLoopGenerator::arm(std::int64_t now) {
  std::int64_t next = kNever;
  if (phase_ != nullptr) {
    const auto& ops = phase_->result.ops;
    if (phase_->next_to_send < ops.size()) {
      next = ops[phase_->next_to_send].due_ns;
    }
    for (std::size_t g = 0; g < kGroups; ++g) {
      if (cfg_.route[g] < 0 && !phase_->backlog[g].empty() &&
          phase_->probe_op[g] < 0) {
        next = std::min(next, phase_->next_probe_ns[g]);
      }
    }
    for (std::size_t n = 0; n < conns_.size(); ++n) {
      if (conns_[n] == nullptr) next = std::min(next, next_reconnect_ns_[n]);
    }
    next = std::min(next, phase_->drain_ns);
  }
  itimerspec spec{};
  if (next != kNever) {
    next = std::max(next, now + 1);
    spec.it_value.tv_sec = next / 1'000'000'000;
    spec.it_value.tv_nsec = next % 1'000'000'000;
  }
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

}  // namespace perfbench
