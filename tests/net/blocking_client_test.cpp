// BlockingClient's reply path against a scripted server thread: a reply
// whose length header and body arrive in separate writes still decodes,
// and a server that never answers surfaces as a transport error once
// the configured timeout has passed — not before, and not much after.
#include "net/blocking_client.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"

namespace clash::net {
namespace {

using namespace std::chrono_literals;

/// One-connection server: accepts, reads one request frame, then runs
/// `respond` on the connected fd.
class ScriptedServer {
 public:
  template <typename Respond>
  explicit ScriptedServer(Respond respond)
      : listener_(listen_tcp(Endpoint{"127.0.0.1", 0}).value()),
        port_(bound_port(listener_).value()) {
    thread_ = std::thread([this, respond] {
      pollfd pfd{listener_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 5000) <= 0) return;
      auto conn = accept_tcp(listener_);
      if (!conn.ok()) return;
      Fd fd = std::move(conn).value();
      std::vector<std::uint8_t> in;
      while (in.size() < 4 ||
             in.size() < 4 + std::size_t(wire::load_u32_le(in.data()))) {
        pollfd rp{fd.get(), POLLIN, 0};
        if (::poll(&rp, 1, 5000) <= 0) return;
        std::uint8_t buf[512];
        const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
        if (n <= 0) return;
        in.insert(in.end(), buf, buf + n);
      }
      const auto request = wire::decode_frame(
          std::span<const std::uint8_t>(in).subspan(4));
      respond(fd.get(), request.ok() ? request.value().envelope.request_id
                                     : std::uint64_t{0});
      // Hold the connection until the client is done with it.
      pollfd hp{fd.get(), POLLIN, 0};
      (void)::poll(&hp, 1, 2000);
    });
  }
  ~ScriptedServer() { thread_.join(); }

  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  Fd listener_;
  std::uint16_t port_;
  std::thread thread_;
};

BlockingClient::Config client_config(std::uint16_t port,
                                     std::chrono::milliseconds timeout) {
  BlockingClient::Config cfg;
  cfg.members[ServerId{0}] = Endpoint{"127.0.0.1", port};
  cfg.timeout = timeout;
  return cfg;
}

AcceptObject probe() {
  AcceptObject obj;
  obj.key = Key(0x123456, 24);
  obj.depth = 4;
  obj.probe_only = true;
  return obj;
}

TEST(BlockingClient, ReplyHeaderAndBodyInSeparateWrites) {
  ScriptedServer server([](int fd, std::uint64_t request_id) {
    auto w = wire::begin_frame(wire::Envelope{wire::FrameKind::kResponse,
                                              request_id, ServerId{0}});
    wire::encode_reply(w, AcceptObjectReply(AcceptObjectOk{7}));
    const auto frame = wire::finish_frame(std::move(w));
    ASSERT_EQ(::write(fd, frame.data(), 4), 4);
    std::this_thread::sleep_for(30ms);
    ASSERT_EQ(::write(fd, frame.data() + 4, frame.size() - 4),
              ssize_t(frame.size() - 4));
  });
  BlockingClient client(client_config(server.port(), 2000ms));
  const AcceptObjectReply reply =
      client.rpc_accept_object(ServerId{0}, probe());
  const auto* ok = std::get_if<AcceptObjectOk>(&reply);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->depth, 7u);
  EXPECT_EQ(client.transport_errors(), 0u);
}

TEST(BlockingClient, SilentServerTimesOut) {
  ScriptedServer server([](int, std::uint64_t) {});  // never replies
  BlockingClient client(client_config(server.port(), 100ms));
  const auto start = std::chrono::steady_clock::now();
  const AcceptObjectReply reply =
      client.rpc_accept_object(ServerId{0}, probe());
  const auto waited = std::chrono::steady_clock::now() - start;
  const auto* depth = std::get_if<IncorrectDepth>(&reply);
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->dmin, 0u);
  EXPECT_EQ(client.transport_errors(), 1u);
  EXPECT_GE(waited, 100ms);
  EXPECT_LT(waited, 1500ms);
}

}  // namespace
}  // namespace clash::net
