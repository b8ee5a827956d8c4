#include "net/connection.hpp"

#include <sys/epoll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cstring>

#include "common/logging.hpp"
#include "wire/buffer.hpp"
#include "wire/buffer_pool.hpp"
#include "wire/codec.hpp"

namespace clash::net {
namespace {

/// Read granularity; also the arena growth step.
constexpr std::size_t kReadChunk = 64 * 1024;
/// Compact the inbound arena once this many consumed bytes sit in
/// front of unparsed data (amortises the memmove to O(1)/byte).
constexpr std::size_t kCompactThreshold = 64 * 1024;
/// Frames handed to one writev call.
constexpr std::size_t kMaxIov = 64;

}  // namespace

std::shared_ptr<Connection> Connection::adopt(EventLoop& loop, Fd fd,
                                              FrameHandler on_frame,
                                              CloseHandler on_close) {
  set_nonblocking(fd);
  auto conn = std::shared_ptr<Connection>(new Connection(
      loop, std::move(fd), std::move(on_frame), std::move(on_close)));
  conn->on_loop_.assert_held();
  conn->register_with_loop();
  return conn;
}

Connection::Connection(EventLoop& loop, Fd fd, FrameHandler on_frame,
                       CloseHandler on_close)
    : loop_(loop),
      on_loop_(loop.loop_thread()),
      fd_(std::move(fd)),
      on_frame_(std::move(on_frame)),
      on_close_(std::move(on_close)) {}

Connection::~Connection() {
  if (fd_.valid()) loop_.remove_fd(fd_.get());
}

void Connection::register_with_loop() {
  loop_.assert_on_loop();
  // Keep a weak reference: the owner (node/transport) holds the shared
  // pointer; the loop callback must not extend the lifetime on close.
  std::weak_ptr<Connection> weak = shared_from_this();
  loop_.add_fd(fd_.get(), EPOLLIN, [weak](std::uint32_t events) {
    const auto self = weak.lock();
    if (self == nullptr) return;
    self->on_loop_.assert_held();
    self->on_events(events);
  });
}

void Connection::set_obs(obs::Hub* hub, std::int64_t epoch_us) {
  on_loop_.assert_held();
  if (hub == nullptr) {
    frames_sent_c_ = {};
    bytes_sent_c_ = {};
    flush_syscalls_c_ = {};
    frames_received_c_ = {};
    bytes_received_c_ = {};
    flight_ = nullptr;
    return;
  }
  flight_ = &hub->flight;
  flight_epoch_us_ = epoch_us;
  auto& r = hub->registry;
  frames_sent_c_ = r.counter("clash_net_frames_sent_total");
  bytes_sent_c_ = r.counter("clash_net_bytes_sent_total");
  flush_syscalls_c_ = r.counter("clash_net_flush_syscalls_total");
  frames_received_c_ = r.counter("clash_net_frames_received_total");
  bytes_received_c_ = r.counter("clash_net_bytes_received_total");
}

void Connection::on_events(std::uint32_t events) {
  if (events & (EPOLLERR | EPOLLHUP)) {
    close();
    return;
  }
  if (events & EPOLLIN) handle_readable();
  if (!closed() && (events & EPOLLOUT)) flush();
}

void Connection::handle_readable() {
  for (;;) {
    // The arena's size() is its high-water mark: growing past it
    // zero-fills once, refills after compaction reuse it as-is.
    if (in_.size() - in_end_ < kReadChunk) in_.resize(in_end_ + kReadChunk);
    const std::size_t room = in_.size() - in_end_;
    const ssize_t n = ::read(fd_.get(), in_.data() + in_end_, room);
    if (n > 0) {
      in_end_ += std::size_t(n);
      stats_.bytes_received += std::uint64_t(n);
      bytes_received_c_.inc(std::uint64_t(n));
      // A short read drained the socket: stop instead of paying one
      // more read for its EAGAIN. The loop's epoll is level-triggered,
      // so bytes (or a FIN) that land after this read — or an EOF
      // that came with this data — raise EPOLLIN again next round.
      if (std::size_t(n) < room) break;
      continue;
    }
    if (n == 0) {
      close();  // orderly shutdown by peer
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CLASH_DEBUG << "read error on fd " << fd_.get() << ": "
                << std::strerror(errno);
    close();
    return;
  }
  parse_frames();
}

void Connection::parse_frames() {
  while (in_end_ - in_pos_ >= 4) {
    const std::uint32_t len = wire::load_u32_le(in_.data() + in_pos_);
    if (len > kMaxFrame) {
      CLASH_WARN << "oversized frame (" << len << " bytes); closing";
      close();
      return;
    }
    if (in_end_ - in_pos_ - 4 < len) break;  // incomplete
    ++stats_.frames_received;
    frames_received_c_.inc();
    on_frame_(std::span<const std::uint8_t>(in_.data() + in_pos_ + 4, len));
    if (closed()) return;  // handler may close
    in_pos_ += 4 + len;
  }
  if (in_pos_ == in_end_) {
    in_pos_ = in_end_ = 0;  // fully drained: rewind, no memmove
  } else if (in_pos_ >= kCompactThreshold) {
    std::memmove(in_.data(), in_.data() + in_pos_, in_end_ - in_pos_);
    in_end_ -= in_pos_;
    in_pos_ = 0;
  }
}

bool Connection::send_frame(std::span<const std::uint8_t> payload) {
  on_loop_.assert_held();
  if (closed()) return false;
  if (payload.size() > kMaxFrame) {
    ++stats_.send_oversized;
    CLASH_WARN << "rejecting oversized send (" << payload.size()
               << " bytes) on fd " << fd_.get();
    return false;
  }
  auto buf = wire::BufferPool::local().acquire();
  buf.resize(4 + payload.size());
  wire::store_u32_le(buf.data(), std::uint32_t(payload.size()));
  std::memcpy(buf.data() + 4, payload.data(), payload.size());
  return enqueue(std::move(buf));
}

bool Connection::send_wire_frame(std::vector<std::uint8_t>&& frame) {
  on_loop_.assert_held();
  if (closed()) return false;
  if (frame.size() < 4 ||
      wire::load_u32_le(frame.data()) != frame.size() - 4) {
    CLASH_WARN << "dropping malformed wire frame (" << frame.size()
               << " bytes) on fd " << fd_.get();
    return false;
  }
  if (frame.size() - 4 > kMaxFrame) {
    ++stats_.send_oversized;
    CLASH_WARN << "rejecting oversized send (" << frame.size() - 4
               << " bytes) on fd " << fd_.get();
    return false;
  }
  return enqueue(std::move(frame));
}

bool Connection::enqueue(std::vector<std::uint8_t>&& frame) {
  std::chrono::microseconds delay{0};
  if (fault_ != nullptr) {
    const auto verdict = fault_->judge();
    if (verdict.drop) {
      // The network ate it: the sender cannot tell, exactly like a
      // lossy link. The buffer still recycles.
      ++stats_.faults_dropped;
      if (flight_ != nullptr) {
        flight_->record(obs::FlightKind::kFaultDrop, 0, flight_now_us(),
                        std::uint64_t(fd_.get()), stats_.faults_dropped);
      }
      wire::BufferPool::local().release(std::move(frame));
      return true;
    }
    if (verdict.duplicate) ++stats_.faults_duplicated;
    if (verdict.corrupt) {
      // In-flight byte damage, scoped to the payload *content* of the
      // checksummed message kinds (Gossip / ReplAppend /
      // SnapshotChunk): the frame stays structurally parseable, so it
      // reaches the receiver's content-CRC fence instead of dying in
      // the codec. Envelope layout: [4 len][1 ver][1 kind][8 req]
      // [8 sender][1 msg type][content...] — type at 22, content
      // from 23.
      constexpr std::size_t kTypeOff = 22;
      constexpr std::size_t kContentOff = 23;
      const auto type = frame.size() > kContentOff
                            ? wire::MsgType(frame[kTypeOff])
                            : wire::MsgType(0);
      if (frame.size() > kContentOff &&
          (type == wire::MsgType::kGossip ||
           type == wire::MsgType::kReplAppend ||
           type == wire::MsgType::kSnapshotChunk)) {
        ++stats_.faults_corrupted;
        if (flight_ != nullptr) {
          flight_->record(obs::FlightKind::kFaultCorrupt, 0,
                          flight_now_us(), std::uint64_t(fd_.get()));
        }
        fault_->corrupt_byte(std::span<std::uint8_t>(
            frame.data() + kContentOff, frame.size() - kContentOff));
      }
    }
    if (verdict.reorder) {
      // Reordering bypasses the FIFO horizon entirely: the frame
      // lands after its jitter while later sends flow past it — the
      // wire-level twin of sim::LinkMatrix reordering. (TCP itself
      // delivers in order; this models multi-connection / datagram
      // deployments and adversarial relays.) A duplicate shares the
      // jitter: the copies travel together, as on a real relay.
      ++stats_.faults_reordered;
      if (verdict.duplicate) {
        auto copy = frame;
        schedule_reordered(std::move(copy), verdict.delay);
      }
      schedule_reordered(std::move(frame), verdict.delay);
      return true;
    }
    if (verdict.duplicate) {
      auto copy = frame;
      enqueue_fifo(std::move(copy), verdict.delay);
    }
    delay = verdict.delay;
  }
  return enqueue_fifo(std::move(frame), delay);
}

bool Connection::enqueue_fifo(std::vector<std::uint8_t>&& frame,
                              std::chrono::microseconds delay) {
  // In-order delivery across reconfigures: while earlier frames sit
  // in delay timers, later frames — even undelayed ones after the
  // injector was cleared — must not overtake them. Frames park in a
  // FIFO and every timer fire releases the head, so delivery order is
  // the send order no matter how same-instant timers interleave.
  if (delay.count() > 0 || !delayed_q_.empty()) {
    // The horizon (the latest scheduled release) keeps a follow-up
    // zero-delay frame from firing the queue head early.
    const auto now = EventLoop::Clock::now();
    const auto target = std::max(now + delay, delay_horizon_);
    delay_horizon_ = target;
    ++stats_.faults_delayed;
    delayed_q_.push_back(std::move(frame));
    std::weak_ptr<Connection> weak = weak_from_this();
    loop_.assert_on_loop();
    loop_.call_after(
        std::chrono::duration_cast<std::chrono::microseconds>(target - now),
        [weak] {
          const auto self = weak.lock();
          if (self == nullptr) return;
          self->on_loop_.assert_held();
          if (self->closed() || self->delayed_q_.empty()) return;
          auto head = std::move(self->delayed_q_.front());
          self->delayed_q_.pop_front();
          self->enqueue_now(std::move(head));
        });
    return true;
  }
  return enqueue_now(std::move(frame));
}

void Connection::schedule_reordered(std::vector<std::uint8_t>&& frame,
                                    std::chrono::microseconds delay) {
  std::weak_ptr<Connection> weak = weak_from_this();
  auto shared = std::make_shared<std::vector<std::uint8_t>>(std::move(frame));
  loop_.assert_on_loop();
  loop_.call_after(delay, [weak, shared] {
    const auto self = weak.lock();
    if (self == nullptr) return;
    self->on_loop_.assert_held();
    if (self->closed()) return;
    self->enqueue_now(std::move(*shared));
  });
}

bool Connection::enqueue_now(std::vector<std::uint8_t>&& frame) {
  out_q_.push_back(std::move(frame));
  ++stats_.frames_sent;
  frames_sent_c_.inc();
  // One flush per tick: the first frame schedules it; later sends in
  // the same tick ride along. When EPOLLOUT is armed the kernel
  // buffer is full — the readiness callback will flush instead.
  if (!flush_scheduled_ && !want_write_) {
    flush_scheduled_ = true;
    std::weak_ptr<Connection> weak = weak_from_this();
    loop_.assert_on_loop();
    loop_.defer([weak] {
      const auto self = weak.lock();
      if (self == nullptr) return;
      self->on_loop_.assert_held();
      self->flush();
    });
  }
  return true;
}

void Connection::flush() {
  flush_scheduled_ = false;
  const bool had_backlog = !out_q_.empty();
  while (!out_q_.empty() && !closed()) {
    std::array<iovec, kMaxIov> iov;
    std::size_t niov = 0;
    std::size_t offered = 0;
    std::size_t offset = out_head_offset_;
    for (auto it = out_q_.begin(); it != out_q_.end() && niov < kMaxIov;
         ++it) {
      iov[niov].iov_base = it->data() + offset;
      iov[niov].iov_len = it->size() - offset;
      offered += it->size() - offset;
      offset = 0;
      ++niov;
    }
    const ssize_t n = ::writev(fd_.get(), iov.data(), int(niov));
    ++stats_.flush_syscalls;
    flush_syscalls_c_.inc();
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CLASH_DEBUG << "write error on fd " << fd_.get() << ": "
                  << std::strerror(errno);
      close();
      return;
    }
    stats_.bytes_sent += std::uint64_t(n);
    bytes_sent_c_.inc(std::uint64_t(n));
    std::size_t consumed = std::size_t(n);
    while (consumed > 0) {
      auto& head = out_q_.front();
      const std::size_t remaining = head.size() - out_head_offset_;
      if (consumed < remaining) {
        out_head_offset_ += consumed;
        break;
      }
      consumed -= remaining;
      wire::BufferPool::local().release(std::move(head));
      out_q_.pop_front();
      out_head_offset_ = 0;
    }
    if (std::size_t(n) < offered) break;  // kernel buffer full
  }
  update_interest();
  if (had_backlog && out_q_.empty() && !closed() && on_drain_) on_drain_();
}

std::size_t Connection::send_queue_bytes() const {
  on_loop_.assert_held();
  std::size_t total = 0;
  for (const auto& f : out_q_) total += f.size();
  return total - out_head_offset_;
}

void Connection::update_interest() {
  const bool need_write = !out_q_.empty();
  if (need_write == want_write_) return;
  want_write_ = need_write;
  loop_.assert_on_loop();
  loop_.modify_fd(fd_.get(),
                  EPOLLIN | (need_write ? std::uint32_t(EPOLLOUT) : 0u));
}

void Connection::close() {
  on_loop_.assert_held();
  if (closed()) return;
  loop_.assert_on_loop();
  loop_.remove_fd(fd_.get());
  fd_.reset();
  auto& pool = wire::BufferPool::local();
  while (!out_q_.empty()) {
    pool.release(std::move(out_q_.front()));
    out_q_.pop_front();
  }
  while (!delayed_q_.empty()) {
    pool.release(std::move(delayed_q_.front()));
    delayed_q_.pop_front();
  }
  out_head_offset_ = 0;
  if (on_close_) on_close_();
}

}  // namespace clash::net
