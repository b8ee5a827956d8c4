#include "cluster.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <stdexcept>

#include "clash/bootstrap.hpp"
#include "keys/key_group.hpp"
#include "obs/expose.hpp"

namespace perfbench {

using clash::ClashConfig;
using clash::ServerId;
namespace net = clash::net;

void pin_current_thread(std::size_t cpu) {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(int(cpu % std::size_t(cpus > 0 ? cpus : 1)), &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

void unpin_current_thread() {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = 0; c < cpus; ++c) CPU_SET(int(c), &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

namespace {
/// Start node `i` with its threads (loop, watchdog) pinned to CPU i.
void start_pinned(net::ClashNode& node, std::size_t i) {
  pin_current_thread(i);
  node.start();
  unpin_current_thread();
}
}  // namespace

ClashConfig bench_clash_config() {
  ClashConfig c;
  c.key_width = kKeyWidth;
  c.initial_depth = kInitialDepth;
  // No load-driven split may happen: the 64 bootstrap groups stay put.
  c.capacity = 1e18;
  c.replication_factor = 2;
  c.replication_mode = ClashConfig::ReplicationMode::kLog;
  c.durability_mode = ClashConfig::DurabilityMode::kWalSnapshot;
  // Group commit at the default cadence (kInterval, fsync_interval).
  return c;
}

Cluster::Cluster(const ClusterOptions& opts) {
  // Reserve three loopback ports at once so they are distinct.
  std::vector<net::Fd> holders;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto fd = net::listen_tcp(net::Endpoint{"127.0.0.1", 0});
    if (!fd.ok()) throw std::runtime_error(fd.error().message);
    const auto port = net::bound_port(fd.value());
    if (!port.ok()) throw std::runtime_error(port.error().message);
    members_[ServerId{i}] = net::Endpoint{"127.0.0.1", port.value()};
    holders.push_back(std::move(fd).value());
  }
  holders.clear();

  for (std::size_t i = 0; i < kNodes; ++i) {
    net::NodeConfig cfg;
    cfg.id = ServerId{i};
    cfg.listen = members_[cfg.id];
    cfg.members = members_;
    cfg.clash = bench_clash_config();
    cfg.ring_salt = kRingSalt;
    // Load checks also drive anti-entropy and replica refresh.
    cfg.load_check_interval = std::chrono::milliseconds(500);
    cfg.protocol_period = opts.protocol_period;
    cfg.storage_dir = opts.dir + "/node" + std::to_string(i);
    configs_.push_back(cfg);
  }

  clash::dht::ChordRing ring(clash::dht::ChordRing::Config{
      32, configs_[0].virtual_servers, configs_[0].hash_algo, kRingSalt});
  for (std::size_t i = 0; i < kNodes; ++i) ring.add_server(ServerId{i});
  const auto entries = clash::compute_bootstrap_entries(
      ring, ring.hasher(), configs_[0].clash);
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes_.push_back(std::make_unique<net::ClashNode>(configs_[i]));
    const auto it = entries.find(ServerId{i});
    if (it != entries.end()) nodes_[i]->install_entries(it->second);
  }
  for (std::size_t i = 0; i < kNodes; ++i) start_pinned(*nodes_[i], i);
}

Cluster::~Cluster() {
  for (auto& node : nodes_) {
    if (node != nullptr) node->stop();
  }
}

bool Cluster::converged() {
  std::size_t live = 0;
  for (std::size_t i = 0; i < kNodes; ++i) live += running(i) ? 1 : 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!running(i)) continue;
    if (nodes_[i]->ring_server_count() != live) return false;
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (j == i || !running(j)) continue;
      if (nodes_[i]->member_state(ServerId{j}) !=
          clash::MemberState::kAlive) {
        return false;
      }
    }
  }
  return true;
}

void Cluster::kill(std::size_t i) { nodes_[i]->stop(); }

void Cluster::restart(std::size_t i) {
  nodes_[i].reset();
  nodes_[i] = std::make_unique<net::ClashNode>(configs_[i]);
  start_pinned(*nodes_[i], i);
}

std::map<std::string, double> Cluster::scrape(std::size_t i) {
  if (!running(i)) return {};
  return clash::obs::parse_exposition(nodes_[i]->scrape_text());
}

GroupFacts group_facts(Cluster& cluster, std::size_t g) {
  const clash::Key key(std::uint64_t(g) << (kKeyWidth - kInitialDepth),
                       kKeyWidth);
  const clash::KeyGroup group = clash::KeyGroup::of(key, kInitialDepth);
  GroupFacts facts;
  std::optional<clash::repl::LogHead> head;
  for (std::size_t i = 0; i < kNodes && facts.owner < 0; ++i) {
    if (!cluster.running(i)) continue;
    head = cluster.node(i).run_on_loop(
        [&](clash::ClashServer& s) -> std::optional<clash::repl::LogHead> {
          const auto* entry = s.table().active_entry_for(key);
          if (entry == nullptr || entry->group != group) return std::nullopt;
          const auto h = s.log_head(group);
          return h ? h : clash::repl::LogHead{};
        });
    if (head) facts.owner = int(i);
  }
  if (facts.owner < 0) return facts;
  facts.epoch = head->epoch;
  facts.seq = head->seq;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (int(i) == facts.owner || !cluster.running(i)) continue;
    const auto rh = cluster.node(i).run_on_loop(
        [&](clash::ClashServer& s) { return s.replica_head(group); });
    if (rh && rh->epoch == head->epoch && rh->seq == head->seq) {
      facts.replica_in_sync = true;
    }
  }
  return facts;
}

}  // namespace perfbench
