// Synchronous TCP client environment: lets the unmodified ClashClient
// (depth search, caching) run against a live cluster of ClashNodes.
// One connection per contacted server, blocking request/response with a
// timeout. Map() runs on a local full-membership ring view, mirroring
// the node side.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "clash/client.hpp"
#include "dht/chord.hpp"
#include "net/socket.hpp"

namespace clash::net {

class BlockingClient final : public ClientEnv {
 public:
  struct Config {
    std::map<ServerId, Endpoint> members;
    /// Access point whose routing tables price the DHT lookups.
    ServerId access_point{};
    unsigned hash_bits = 32;
    unsigned virtual_servers = 8;
    dht::KeyHasher::Algo hash_algo = dht::KeyHasher::Algo::kSha1;
    std::uint64_t ring_salt = 0;
    std::chrono::milliseconds timeout = std::chrono::seconds(5);
  };

  explicit BlockingClient(Config config);
  ~BlockingClient() override;

  dht::LookupResult dht_lookup(dht::HashKey h) override;
  AcceptObjectReply rpc_accept_object(ServerId to,
                                      const AcceptObject& msg) override;

  [[nodiscard]] const dht::KeyHasher& hasher() const {
    return ring_.hasher();
  }

  /// Count of RPC failures surfaced as INCORRECT_DEPTH(0) (timeouts,
  /// resets); the depth search restarts around them.
  [[nodiscard]] std::uint64_t transport_errors() const {
    return transport_errors_;
  }

 private:
  /// One server connection plus the bytes read past the last reply.
  struct Link {
    Fd fd;
    std::vector<std::uint8_t> in;
  };

  [[nodiscard]] Expected<Link*> connection_to(ServerId to);
  [[nodiscard]] Expected<std::vector<std::uint8_t>> call(
      ServerId to, std::span<const std::uint8_t> frame);

  Config config_;
  dht::ChordRing ring_;
  std::map<ServerId, Link> connections_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t transport_errors_ = 0;
};

}  // namespace clash::net
