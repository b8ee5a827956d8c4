// ClashNode: one CLASH server deployed over real TCP. Hosts a
// ClashServer on a single-threaded epoll loop; peers exchange the wire
// protocol of wire/codec.hpp. The config's member list is the address
// book (seed view); from there the SWIM membership driver keeps the
// ring live — it pings peers every protocol period, declares silent
// ones dead, shrinks the Chord ring, and promotes this node's replicas
// of the dead owner's groups when the ring now maps them here
// (automatic failover). Rejoining members are re-admitted once they
// refute their death rumour.
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "clash/server.hpp"
#include "clash/server_table.hpp"
#include "common/affinity.hpp"
#include "common/thread_annotations.hpp"
#include "dht/chord.hpp"
#include "membership/driver.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "obs/census.hpp"
#include "obs/hub.hpp"
#include "obs/postmortem.hpp"
#include "obs/watchdog.hpp"
#include "storage/backend.hpp"
#include "storage/store.hpp"

namespace clash::net {

struct NodeConfig {
  ServerId id{};
  Endpoint listen{};                      // port 0 = pick automatically
  std::map<ServerId, Endpoint> members;   // seed membership, incl. self
  ClashConfig clash;
  unsigned hash_bits = 32;
  unsigned virtual_servers = 8;
  dht::KeyHasher::Algo hash_algo = dht::KeyHasher::Algo::kSha1;
  std::uint64_t ring_salt = 0;
  /// Wall-clock cadence of load checks (the paper's LOAD_CHECK_PERIOD;
  /// tests shrink it to tens of milliseconds).
  std::chrono::microseconds load_check_interval = std::chrono::minutes(5);
  /// SWIM failure detection. Disabled reproduces the old static
  /// full-view behaviour (no gossip, ring fixed to the seed list).
  bool enable_membership = true;
  membership::MembershipConfig membership;
  /// Wall-clock SWIM protocol period (tests shrink it to milliseconds).
  std::chrono::microseconds protocol_period = std::chrono::seconds(1);
  /// Abandon a non-blocking peer connect after this long; the loop is
  /// never blocked while one is pending.
  std::chrono::microseconds connect_timeout = std::chrono::seconds(3);
  /// Log-replication mode: after a member death, hold each candidate
  /// promotion open this long so the surviving replica set can stream
  /// the missing log suffix (or a snapshot) to the heir before it
  /// installs — the RecoveryCoordinator's pull window over TCP.
  std::chrono::microseconds recovery_grace = std::chrono::milliseconds(250);
  /// Snapshot-chunk pacing: while a peer connection's outbound queue
  /// already holds this many bytes, no further SnapshotChunks are
  /// handed to it (ServerEnv::snapshot_chunk_budget returns 0); the
  /// connection's drain callback resumes the paused transfer. Keeps a
  /// huge group's snapshot from monopolising a slow link for a whole
  /// tick.
  std::size_t snapshot_pace_bytes = 256 * 1024;
  /// Chunks granted per budget ask while under the pace threshold.
  std::size_t snapshot_burst_chunks = 16;
  /// Durable-store data directory (WAL segments + group snapshots).
  /// Required when clash.durability_mode != kNone: a restarted node
  /// recovers its owned groups from here instead of pulling them over
  /// the network, then reconciles only the divergent suffix with the
  /// surviving replica set.
  std::string storage_dir;
  /// Live stats endpoint: serve the node's metrics registry as
  /// Prometheus text exposition over plain HTTP, read-only, off the
  /// existing event loop (no extra thread). -1 disables; 0 picks a
  /// free port — read it back with ClashNode::stats_port(). Besides
  /// the default metrics document it serves GET /trace (Chrome
  /// trace_event JSON), GET /healthz (liveness + census freshness),
  /// and GET /flightrec (flight-recorder ring + in-flight op table).
  int stats_port = -1;
  /// Cost-census dissemination knobs (records piggyback on SWIM
  /// gossip; inert when enable_membership is false).
  obs::CensusConfig census;
  /// Stall watchdog: a sidecar thread polling the loop's tick probe
  /// and the in-flight table; verdicts bump clash_stall_* and (rate
  /// limited) trigger a postmortem dump.
  obs::StallWatchdog::Config watchdog;
  /// Where this node's postmortem dumps land; "" defaults to
  /// storage_dir, and when that is empty too, dumps are disabled.
  std::string postmortem_dir;
  /// Install the process-wide SIGSEGV/SIGABRT/... dump-then-reraise
  /// handler on start(). Off by default: embedding processes (tests,
  /// benches) opt in explicitly, since signal disposition is global.
  bool install_crash_handler = false;
  /// Cadence of the loop-side refresh of the cached registry + census
  /// snapshot the postmortem source reads (the crash path must never
  /// hop to the loop).
  std::chrono::microseconds postmortem_refresh = std::chrono::seconds(1);
};

class ClashNode {
 public:
  explicit ClashNode(NodeConfig config);
  ~ClashNode();

  ClashNode(const ClashNode&) = delete;
  ClashNode& operator=(const ClashNode&) = delete;

  /// Bind, start the loop thread, begin periodic load checks.
  void start();
  void stop();

  [[nodiscard]] ServerId id() const { return config_.id; }
  /// Actual listening port (after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const { return running_; }

  /// Install bootstrap entries (before start, or routed to the loop).
  void install_entries(const std::vector<ServerTableEntry>& entries);

  /// Run `fn` on the loop thread and wait for its result — the
  /// thread-safe introspection door for tests and operators. When the
  /// loop has already finished (or a concurrent stop() wins the race),
  /// the task is executed inline: the loop thread no longer touches the
  /// server, so that is safe — and the caller can never hang on a
  /// posted lambda that would otherwise be silently dropped.
  template <typename Fn>
  auto run_on_loop(Fn fn) -> decltype(fn(std::declval<ClashServer&>())) {
    return call_on_loop([&] {
      on_loop_.assert_held();
      return fn(*server_);
    });
  }

  // --- Membership introspection (thread-safe) -------------------------
  /// Servers currently on this node's ring (self included).
  [[nodiscard]] std::size_t ring_server_count();
  /// This node's view of `id` (kDead when membership is disabled and
  /// the id is unknown).
  [[nodiscard]] MemberState member_state(ServerId id);

  /// Update the peer address table (all members must be known before
  /// protocol traffic flows).
  [[nodiscard]] const NodeConfig& config() const { return config_; }

  /// Durable store (null when durability is off). Stats only — the
  /// server owns all writes.
  [[nodiscard]] const storage::NodeStore* store() const {
    return store_.get();
  }

  // --- Observability ---------------------------------------------------
  /// This node's private metrics/trace hub: every layer the node hosts
  /// (server, store, membership, loop, connections) records here, not
  /// into the process-global hub, so co-located nodes in one test
  /// process never mix their series. Scrapes and gauge callbacks run
  /// on the loop thread; off-loop readers use scrape_text().
  [[nodiscard]] obs::Hub& hub() { return hub_; }
  /// Bound port of the stats endpoint (after start(); 0 when disabled).
  [[nodiscard]] std::uint16_t stats_port() const { return stats_port_; }
  /// Render the registry's text exposition on the loop thread — the
  /// same document the stats endpoint serves (thread-safe).
  [[nodiscard]] std::string scrape_text() {
    return call_on_loop([&] { return hub_.registry.render_text(); });
  }
  /// This node's converged view of the cluster census (thread-safe
  /// snapshot; empty until gossip has disseminated records).
  [[nodiscard]] obs::ClusterView cluster_view() {
    return call_on_loop([&] { return census_.view(); });
  }

  // --- Link-fault injection (thread-safe) -----------------------------
  /// Attach or reconfigure a deterministic FaultInjector on the
  /// outbound link to `peer`: applied to the live connection (if any)
  /// and to every future reconnect. Lets tests drop or delay protocol
  /// frames on one directed TCP link without touching the kernel.
  void set_link_fault(ServerId peer, FaultInjector::Config cfg);
  /// Detach the injector and deliver cleanly again.
  void clear_link_fault(ServerId peer);
  /// Counters of the injector on the link to `peer` (zeros when none).
  [[nodiscard]] FaultInjector::Stats link_fault_stats(ServerId peer);

 private:
  class Env;
  class GossipEnv;

  /// Run a zero-arg callable on the loop thread and wait; inline
  /// fallback only once the loop thread provably executes no further
  /// tasks. running_ flips false strictly after the loop thread is
  /// joined (see stop()), so the !running_ path never races it; a
  /// refused post means the loop is in its final drain — wait for
  /// exited() before touching loop-owned state from this thread.
  template <typename Fn>
  auto call_on_loop(Fn fn) -> decltype(fn()) {
    using R = decltype(fn());
    if (!running_) return fn();
    std::promise<R> promise;
    auto future = promise.get_future();
    if (!loop_->post([&] { promise.set_value(fn()); })) {
      while (!loop_->exited()) std::this_thread::yield();
      return fn();
    }
    return future.get();
  }

  /// A peer connect in flight: the non-blocking socket awaiting
  /// EPOLLOUT, frames queued for it meanwhile, and the abort timer.
  struct PendingConnect {
    Fd fd;
    std::uint64_t timeout_timer = 0;
    std::vector<std::vector<std::uint8_t>> queued;
  };
  /// Frames buffered per pending connect; beyond this they are
  /// dropped (SWIM retransmits, requests time out and retry).
  static constexpr std::size_t kMaxQueuedPerConnect = 128;

  /// An encoded positive ReplAck waiting for a ride to its owner.
  struct HeldAck {
    KeyGroup group;
    std::uint64_t epoch = 0;
    std::int64_t held_since_us = 0;  // node timeline (node_now_us)
    std::vector<std::uint8_t> frame;
  };
  /// Longest a positive ack waits for another frame to the same peer
  /// before a loop timer sends it alone (fires at the loop's
  /// millisecond timer resolution).
  static constexpr std::chrono::microseconds kAckHoldBound{1000};

  /// One in-flight stats-endpoint request: accumulated request bytes,
  /// then the rendered response draining through partial writes.
  struct StatsClient {
    Fd fd;
    std::string in;
    std::string out;
    std::size_t off = 0;
  };

  void on_listener_ready() CLASH_REQUIRES(on_loop_);
  void start_stats_listener() CLASH_REQUIRES(on_loop_);
  void on_stats_ready() CLASH_REQUIRES(on_loop_);
  void on_stats_client(int fd, std::uint32_t events)
      CLASH_REQUIRES(on_loop_);
  void close_stats_client(int fd) CLASH_REQUIRES(on_loop_);
  void register_node_gauges() CLASH_REQUIRES(on_loop_);
  void adopt_peer(Fd fd) CLASH_REQUIRES(on_loop_);
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    std::span<const std::uint8_t> frame)
      CLASH_REQUIRES(on_loop_);
  /// Takes an owned, finished wire frame (wire::finish_frame output).
  /// Releases the acks held for `to` first, then transmits.
  void send_to_peer(ServerId to, std::vector<std::uint8_t>&& frame)
      CLASH_REQUIRES(on_loop_);
  /// Put a frame on the wire to `to` (loopback, live connection, or
  /// pending connect), bypassing the ack hold.
  void transmit(ServerId to, std::vector<std::uint8_t>&& frame)
      CLASH_REQUIRES(on_loop_);
  /// Hold an encoded positive ReplAck for `to` (see held_acks_).
  void hold_ack(ServerId to, const ReplAck& ack,
                std::vector<std::uint8_t>&& frame) CLASH_REQUIRES(on_loop_);
  /// Send every ack held for `to`, oldest first.
  void release_held_acks(ServerId to) CLASH_REQUIRES(on_loop_);
  /// Discard the acks held for a dead peer.
  void drop_held_acks(ServerId to) CLASH_REQUIRES(on_loop_);
  /// Cancel the hold timer once no peer has an ack held.
  void disarm_ack_timer_if_idle() CLASH_REQUIRES(on_loop_);
  void begin_connect(ServerId to, std::vector<std::uint8_t>&& frame)
      CLASH_REQUIRES(on_loop_);
  void finish_connect(ServerId to, std::uint32_t events)
      CLASH_REQUIRES(on_loop_);
  void drop_pending_connect(ServerId to, const char* reason)
      CLASH_REQUIRES(on_loop_);
  std::shared_ptr<Connection> adopt_outbound(ServerId to, Fd fd)
      CLASH_REQUIRES(on_loop_);
  void schedule_load_check() CLASH_REQUIRES(on_loop_);
  void schedule_membership_tick() CLASH_REQUIRES(on_loop_);
  void schedule_postmortem_refresh() CLASH_REQUIRES(on_loop_);
  /// Rebuild the cached registry/census JSON the postmortem source
  /// serves (loop thread; the only writer of pm_cache_).
  void refresh_postmortem_cache() CLASH_REQUIRES(on_loop_);
  /// The postmortem source body: flight ring + in-flight table (lock
  /// free) + the cached state snapshot (try_lock; null when contended).
  /// Runs on whatever thread is dumping — crash-context safe.
  [[nodiscard]] std::string render_postmortem_source()
      CLASH_NO_THREAD_SAFETY_ANALYSIS;
  /// Microseconds since this node's epoch on the steady clock — the
  /// timebase of every flight event and in-flight stamp the node
  /// records (matches Env::now()).
  [[nodiscard]] std::int64_t node_now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  void on_member_dead(ServerId id) CLASH_REQUIRES(on_loop_);
  void on_member_joined(ServerId id) CLASH_REQUIRES(on_loop_);
  /// First start only: restore the durable image and re-promote every
  /// recovered group the ring still maps here (log mode holds the
  /// recovery-grace pull window first, exactly like a failover heir).
  void recover_from_storage() CLASH_REQUIRES(on_loop_);

  NodeConfig config_;  // immutable after construction
  /// Declared before env_/server_: the Env's obs() override hands this
  /// hub to the ClashServer constructor. Internally synchronized
  /// (Registry/TraceRecorder carry their own mutexes) — but gauge
  /// callbacks registered by this node touch loop-affine state, so
  /// scrapes of THIS hub must run on the loop (scrape_text() does).
  obs::Hub hub_;
  std::unique_ptr<EventLoop> loop_;
  /// The loop's affinity capability (alias of loop_->loop_thread());
  /// guards every loop-affine member below.
  common::AffinityToken& on_loop_;
  std::unique_ptr<dht::ChordRing> ring_ CLASH_PT_GUARDED_BY(on_loop_);
  std::unique_ptr<Env> env_;  // pointer immutable after construction
  std::unique_ptr<ClashServer> server_ CLASH_PT_GUARDED_BY(on_loop_);
  std::unique_ptr<storage::FileBackend> storage_backend_;
  std::unique_ptr<storage::NodeStore> store_ CLASH_PT_GUARDED_BY(on_loop_);
  bool recovered_ CLASH_GUARDED_BY(on_loop_) = false;
  /// Declared before membership_: the driver holds a raw pointer and
  /// absorbs into it until destroyed (reverse order protects this).
  /// Self-guarded: carries its own AffinityToken, bound to this loop.
  obs::Census census_;
  std::unique_ptr<GossipEnv> gossip_env_;
  std::unique_ptr<membership::MembershipDriver> membership_
      CLASH_PT_GUARDED_BY(on_loop_);

  Fd listener_ CLASH_GUARDED_BY(on_loop_);
  // port_/stats_port_ are written during start() (loop idle) and then
  // immutable; tests read them cross-thread, so they are deliberately
  // unguarded.
  std::uint16_t port_ = 0;
  Fd stats_listener_ CLASH_GUARDED_BY(on_loop_);
  std::uint16_t stats_port_ = 0;
  std::map<int, StatsClient> stats_clients_ CLASH_GUARDED_BY(on_loop_);
  std::map<ServerId, std::shared_ptr<Connection>> peers_
      CLASH_GUARDED_BY(on_loop_);
  std::map<ServerId, std::shared_ptr<FaultInjector>> link_faults_
      CLASH_GUARDED_BY(on_loop_);
  std::map<ServerId, PendingConnect> connecting_
      CLASH_GUARDED_BY(on_loop_);
  std::vector<std::shared_ptr<Connection>> inbound_
      CLASH_GUARDED_BY(on_loop_);
  /// Delayed positive replica acks, per peer, in hold order. A held ack
  /// is replaced by a newer one of the same group and epoch (acks are
  /// cumulative per epoch). Released ahead of the next frame to that
  /// peer, or by ack_hold_timer_ after kAckHoldBound; nacks are never
  /// held. A transport policy: the simulator delivers synchronously
  /// and holds nothing.
  std::map<ServerId, std::vector<HeldAck>> held_acks_
      CLASH_GUARDED_BY(on_loop_);
  /// Armed exactly while some ack is held; 0 = disarmed.
  std::uint64_t ack_hold_timer_ CLASH_GUARDED_BY(on_loop_) = 0;
  /// Replica side: how long each released ack was held (from the hold
  /// of the first ack its slot subsumed). The owner's
  /// clash_repl_commit_usec includes this wait.
  obs::HistogramHandle ack_hold_us_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_;  // set once in ctor

  /// Tokens of in-flight kConnect ops, keyed like connecting_.
  std::map<ServerId, std::uint64_t> connect_ops_ CLASH_GUARDED_BY(on_loop_);
  /// Cached registry/census JSON for the postmortem source: written by
  /// a loop timer, read (try_lock) from whatever thread is crashing.
  common::Mutex pm_cache_mu_;
  std::string pm_cache_ CLASH_GUARDED_BY(pm_cache_mu_);
  std::uint64_t pm_source_id_ = 0;  // set in start(), cleared in stop()
  std::unique_ptr<obs::StallWatchdog> watchdog_;
};

}  // namespace clash::net
