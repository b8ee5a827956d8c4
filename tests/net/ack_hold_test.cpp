// Delayed positive replica acks over real TCP. A ClashNode holding a
// replica answers a fake owner (a bare listening socket the test reads
// frames from): positive ReplAcks of one group and epoch coalesce into
// the newest head and leave within the hold bound; a nack goes at once
// and releases the held positive ack ahead of itself; a node stopped
// and started again holds and releases from a clean slate.
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/node.hpp"
#include "net/socket.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"

namespace clash::net {
namespace {

using namespace std::chrono_literals;

constexpr ServerId kOwner{0};
constexpr ServerId kReplica{1};

/// The owner end: accepts the node's outbound peer connection and
/// decodes the oneway frames it sends.
class FakeOwner {
 public:
  FakeOwner()
      : listener_(listen_tcp(Endpoint{"127.0.0.1", 0}).value()),
        port_(bound_port(listener_).value()) {}

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Connections accepted so far (a restarted node dials a new one).
  [[nodiscard]] int links() const { return links_; }

  /// Next message the node sent, or nullopt after `timeout`.
  std::optional<Message> next(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      if (in_.size() >= 4) {
        const std::uint32_t len = wire::load_u32_le(in_.data());
        if (in_.size() >= 4 + std::size_t(len)) {
          const std::vector<std::uint8_t> body(in_.begin() + 4,
                                               in_.begin() + 4 + len);
          in_.erase(in_.begin(), in_.begin() + 4 + len);
          const auto frame = wire::decode_frame(body);
          if (!frame.ok()) return std::nullopt;
          auto msg = wire::decode_message(frame.value().payload);
          if (!msg.ok()) return std::nullopt;
          return std::move(msg).value();
        }
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      const int fd = conn_.valid() ? conn_.get() : listener_.get();
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, int(left.count())) <= 0) continue;
      if (!conn_.valid()) {
        auto accepted = accept_tcp(listener_);
        if (accepted.ok()) {
          conn_ = std::move(accepted).value();
          ++links_;
        }
        continue;
      }
      std::uint8_t buf[4096];
      const ssize_t n = ::read(conn_.get(), buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        conn_.reset();  // the node went away; a restart reconnects
        in_.clear();
        continue;
      }
      in_.insert(in_.end(), buf, buf + n);
    }
  }

 private:
  Fd listener_;
  std::uint16_t port_;
  Fd conn_;
  int links_ = 0;
  std::vector<std::uint8_t> in_;
};

ClashConfig replica_config() {
  ClashConfig cfg;
  cfg.key_width = 8;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;
  cfg.replication_factor = 2;
  cfg.replication_mode = ClashConfig::ReplicationMode::kLog;
  return cfg;
}

NodeConfig node_config(std::uint16_t owner_port) {
  NodeConfig cfg;
  cfg.id = kReplica;
  cfg.listen = Endpoint{"127.0.0.1", 0};
  cfg.members[kOwner] = Endpoint{"127.0.0.1", owner_port};
  cfg.members[kReplica] = cfg.listen;
  cfg.clash = replica_config();
  cfg.enable_membership = false;
  cfg.watchdog.enabled = false;
  return cfg;
}

void append_frame(std::vector<std::uint8_t>& out, const Message& msg) {
  auto w = wire::begin_frame(
      wire::Envelope{wire::FrameKind::kOneway, 0, kOwner});
  wire::encode_message(w, msg);
  const auto frame = wire::finish_frame(std::move(w));
  out.insert(out.end(), frame.begin(), frame.end());
}

/// Offer + single chunk installing an empty replica of the root group
/// at head (1, 0): the completed install answers with a positive ack.
void append_snapshot(std::vector<std::uint8_t>& out, const KeyGroup& group) {
  SnapshotOffer offer;
  offer.group = group;
  offer.owner = kOwner;
  offer.head = repl::LogHead{1, 0};
  offer.root = true;
  offer.total_chunks = 1;
  append_frame(out, Message(offer));
  SnapshotChunk chunk;
  chunk.group = group;
  chunk.head = offer.head;
  chunk.index = 0;
  chunk.total = 1;
  append_frame(out, Message(chunk));
}

void append_put(std::vector<std::uint8_t>& out, const KeyGroup& group,
                std::uint64_t base_seq) {
  ReplAppend app;
  app.group = group;
  app.owner = kOwner;
  app.epoch = 1;
  app.base_seq = base_seq;
  app.entries.push_back(repl::LogOp::put_stream(
      StreamInfo{ClientId{base_seq + 1}, Key(base_seq, 8), 1.0}));
  append_frame(out, Message(app));
}

/// Every byte in one write: the node reads and dispatches them in one
/// loop round.
void send_all(std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
  auto fd = connect_tcp(Endpoint{"127.0.0.1", port}).value();
  ASSERT_EQ(::write(fd.get(), bytes.data(), bytes.size()),
            ssize_t(bytes.size()));
  // Keep the connection open until the node has read it.
  std::this_thread::sleep_for(20ms);
}

const ReplAck* as_ack(const std::optional<Message>& msg) {
  return msg.has_value() ? std::get_if<ReplAck>(&*msg) : nullptr;
}

double hold_count(ClashNode& node) {
  const std::string text = node.scrape_text();
  const std::string key = "clash_repl_ack_hold_usec_count ";
  const auto at = text.find(key);
  return at == std::string::npos ? -1 : std::stod(text.substr(at + key.size()));
}

TEST(AckHold, AcksOfOneRoundCoalesceIntoTheNewestHead) {
  FakeOwner owner;
  ClashNode node(node_config(owner.port()));
  node.start();
  const KeyGroup root = KeyGroup::root(8);

  // Four positive acks (install + three appends), one group and epoch.
  std::vector<std::uint8_t> bytes;
  append_snapshot(bytes, root);
  for (std::uint64_t seq = 0; seq < 3; ++seq) append_put(bytes, root, seq);
  send_all(node.port(), bytes);

  const auto first = owner.next(2000ms);
  const ReplAck* ack = as_ack(first);
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->ok);
  EXPECT_EQ(ack->head, (repl::LogHead{1, 3}));
  // Nothing else follows: the older heads were subsumed, not queued.
  EXPECT_FALSE(owner.next(100ms).has_value());
  EXPECT_EQ(hold_count(node), 1.0);
  node.stop();
}

TEST(AckHold, HeldPositiveAckReachesOwnerBeforeLaterNack) {
  FakeOwner owner;
  ClashNode node(node_config(owner.port()));
  node.start();
  const KeyGroup root = KeyGroup::root(8);

  // Install + one append (positive ack, held), then an append past a
  // gap (nack, sent at once) — all dispatched in the same round.
  std::vector<std::uint8_t> bytes;
  append_snapshot(bytes, root);
  append_put(bytes, root, 0);
  append_put(bytes, root, 5);
  send_all(node.port(), bytes);

  const auto first = owner.next(2000ms);
  const auto second = owner.next(2000ms);
  const ReplAck* positive = as_ack(first);
  const ReplAck* nack = as_ack(second);
  ASSERT_NE(positive, nullptr);
  ASSERT_NE(nack, nullptr);
  EXPECT_TRUE(positive->ok);
  EXPECT_EQ(positive->head, (repl::LogHead{1, 1}));
  EXPECT_FALSE(nack->ok);
  EXPECT_EQ(nack->head, (repl::LogHead{1, 1}));
  node.stop();
}

TEST(AckHold, RestartedNodeStartsWithNothingHeld) {
  FakeOwner owner;
  ClashNode node(node_config(owner.port()));
  node.start();
  const KeyGroup left = KeyGroup::root(8).left_child();
  const KeyGroup right = KeyGroup::root(8).right_child();
  // Stop right after a hold: the held ack dies with the run (as on a
  // crash) and its timer must not keep the next run from arming one.
  (void)node.run_on_loop([&](ClashServer& server) {
    std::vector<std::uint8_t> bytes;
    append_snapshot(bytes, left);
    for (std::size_t at = 0; at < bytes.size();) {
      const std::uint32_t len = wire::load_u32_le(bytes.data() + at);
      const auto frame = wire::decode_frame(
          std::span<const std::uint8_t>(bytes).subspan(at + 4, len));
      server.deliver(kOwner,
                     wire::decode_message(frame.value().payload).value());
      at += 4 + len;
    }
    return true;
  });
  node.stop();
  // Drain the first run's link: the ack may have left before the stop.
  while (owner.next(100ms).has_value()) {
  }
  const int first_run_links = owner.links();
  node.start();

  // Nothing else goes to the owner after the restart, so only the
  // hold timer can release this ack.
  std::vector<std::uint8_t> bytes;
  append_snapshot(bytes, right);
  send_all(node.port(), bytes);
  const ReplAck* ack = nullptr;
  std::optional<Message> msg;
  while ((msg = owner.next(2000ms)).has_value()) {
    ack = as_ack(msg);
    if (ack == nullptr || owner.links() == first_run_links) continue;
    EXPECT_NE(ack->group, left) << "a held ack outlived stop()";
    if (ack->group == right) break;
  }
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->group, right);
  EXPECT_TRUE(ack->ok);
  node.stop();
}

}  // namespace
}  // namespace clash::net
