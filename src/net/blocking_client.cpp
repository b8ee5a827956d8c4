#include "net/blocking_client.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>

#include "common/logging.hpp"
#include "net/connection.hpp"
#include "wire/codec.hpp"

namespace clash::net {
namespace {

/// Read one length-prefixed frame into `buf` before `deadline`: poll,
/// then read everything available in one call, and go round again only
/// while the frame is incomplete. A reply that arrives whole costs one
/// poll + one read. Bytes past the frame stay in `buf` (consumed from
/// the front by the caller). Returns the frame length (prefix
/// excluded), or an error.
using Clock = std::chrono::steady_clock;

Expected<std::uint32_t> read_frame(int fd, std::vector<std::uint8_t>& buf,
                                   Clock::time_point deadline) {
  constexpr std::size_t kReadChunk = 4096;
  std::size_t need = 4;
  for (;;) {
    if (buf.size() >= 4) {
      const std::uint32_t len = wire::load_u32_le(buf.data());
      if (len > Connection::kMaxFrame) {
        return Error::protocol("oversized response frame");
      }
      need = 4 + std::size_t(len);
      if (buf.size() >= need) return len;
    }
    const auto remaining =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
    if (remaining.count() <= 0) {
      return Error{Error::Code::kTimeout, "response timeout"};
    }
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, int(remaining.count()));
    if (pr < 0 && errno == EINTR) continue;
    if (pr < 0) return Error{Error::Code::kClosed, "poll failed"};
    if (pr == 0) continue;  // the deadline check above reports it
    const std::size_t have = buf.size();
    buf.resize(have + std::max(kReadChunk, need - have));
    const ssize_t r = ::read(fd, buf.data() + have, buf.size() - have);
    buf.resize(have + std::size_t(std::max<ssize_t>(r, 0)));
    if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (r <= 0) return Error{Error::Code::kClosed, "connection closed"};
  }
}

bool write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w = ::write(fd, data.data() + sent, data.size() - sent);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    sent += std::size_t(w);
  }
  return true;
}

}  // namespace

BlockingClient::BlockingClient(Config config)
    : config_(std::move(config)),
      ring_(dht::ChordRing::Config{config_.hash_bits,
                                   config_.virtual_servers,
                                   config_.hash_algo, config_.ring_salt}) {
  for (const auto& [id, _] : config_.members) ring_.add_server(id);
  if (!config_.access_point.valid() && !config_.members.empty()) {
    config_.access_point = config_.members.begin()->first;
  }
}

BlockingClient::~BlockingClient() = default;

dht::LookupResult BlockingClient::dht_lookup(dht::HashKey h) {
  return ring_.lookup(h, config_.access_point);
}

Expected<BlockingClient::Link*> BlockingClient::connection_to(ServerId to) {
  const auto it = connections_.find(to);
  if (it != connections_.end() && it->second.fd.valid()) return &it->second;
  const auto member = config_.members.find(to);
  if (member == config_.members.end()) {
    return Error::not_found("unknown server " + to_string(to));
  }
  auto fd = connect_tcp(member->second);
  if (!fd.ok()) return fd.error();
  auto [slot, _] =
      connections_.insert_or_assign(to, Link{std::move(fd).value(), {}});
  return &slot->second;
}

Expected<std::vector<std::uint8_t>> BlockingClient::call(
    ServerId to, std::span<const std::uint8_t> wire_frame) {
  // `wire_frame` is a finished frame (u32 LE length prefix included),
  // written as-is — no re-framing copy.
  if (wire_frame.size() <= 4 ||
      wire_frame.size() - 4 > Connection::kMaxFrame) {
    return Error::invalid("frame size out of bounds");
  }
  auto conn = connection_to(to);
  if (!conn.ok()) return conn.error();
  Link& link = *conn.value();

  if (!write_all(link.fd.get(), wire_frame)) {
    connections_.erase(to);
    return Error{Error::Code::kClosed, "write failed"};
  }

  const auto len =
      read_frame(link.fd.get(), link.in, Clock::now() + config_.timeout);
  if (!len.ok()) {
    connections_.erase(to);
    return len.error();
  }
  const auto body = link.in.begin() + 4;
  std::vector<std::uint8_t> response(body, body + len.value());
  link.in.erase(link.in.begin(), body + len.value());
  return response;
}

AcceptObjectReply BlockingClient::rpc_accept_object(ServerId to,
                                                    const AcceptObject& msg) {
  auto w = wire::begin_frame(wire::Envelope{
      wire::FrameKind::kRequest, next_request_id_++, ServerId{}});
  wire::encode_message(w, Message(msg));
  const auto frame = wire::finish_frame(std::move(w));

  const auto response = call(to, frame);
  if (!response.ok()) {
    // Surface transport failure as "wrong everything": the depth search
    // widens back to the full range and retries elsewhere.
    ++transport_errors_;
    CLASH_DEBUG << "rpc to " << to_string(to)
                << " failed: " << response.error().message;
    return IncorrectDepth{0};
  }
  const auto decoded = wire::decode_frame(response.value());
  if (!decoded.ok()) {
    ++transport_errors_;
    return IncorrectDepth{0};
  }
  const auto reply = wire::decode_reply(decoded.value().payload);
  if (!reply.ok()) {
    ++transport_errors_;
    return IncorrectDepth{0};
  }
  return reply.value();
}

}  // namespace clash::net
