// The benchmark's system under test: three in-process net::ClashNodes
// on loopback with log replication (factor 2) and the WAL + snapshot
// store, driven and observed only through the nodes' public API.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clash/config.hpp"
#include "dht/chord.hpp"
#include "net/node.hpp"

namespace perfbench {

constexpr std::size_t kNodes = 3;
constexpr unsigned kKeyWidth = 24;
constexpr unsigned kInitialDepth = 6;
constexpr std::size_t kGroups = std::size_t{1} << kInitialDepth;
constexpr std::uint64_t kRingSalt = 0x636c617368;

/// The protocol configuration every workload runs with.
clash::ClashConfig bench_clash_config();

/// Restrict the calling thread to CPU `cpu` (modulo the CPU count);
/// threads it creates afterwards inherit the restriction.
void pin_current_thread(std::size_t cpu);
/// Let the calling thread run on every CPU again.
void unpin_current_thread();

/// Index (0..63) of the bootstrap group holding `key`.
inline std::size_t group_index(std::uint64_t key) {
  return std::size_t(key >> (kKeyWidth - kInitialDepth));
}

struct ClusterOptions {
  std::string dir;  // one storage directory per node below it
  std::chrono::microseconds protocol_period = std::chrono::seconds(1);
};

class Cluster {
 public:
  /// Bind, configure and start all nodes with the bootstrap tree
  /// installed; returns once every node runs (not yet converged). Node
  /// i's threads are pinned to CPU i, so every run places the loops
  /// the same way.
  explicit Cluster(const ClusterOptions& opts);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  clash::net::ClashNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] bool running(std::size_t i) const {
    return nodes_[i] != nullptr && nodes_[i]->running();
  }
  [[nodiscard]] const std::map<clash::ServerId, clash::net::Endpoint>&
  members() const {
    return members_;
  }

  /// Every running node has every running node on its ring and alive.
  bool converged();

  /// Stop node `i` (its data directory stays).
  void kill(std::size_t i);
  /// Restart node `i` in place: a fresh ClashNode over the same
  /// address and data directory, recovering from local disk.
  void restart(std::size_t i);

  /// Parsed text exposition of node `i` (empty map if not running).
  std::map<std::string, double> scrape(std::size_t i);

 private:
  std::vector<clash::net::NodeConfig> configs_;
  std::vector<std::unique_ptr<clash::net::ClashNode>> nodes_;
  std::map<clash::ServerId, clash::net::Endpoint> members_;
};

/// Owner-side facts about one bootstrap group, read on the loop of the
/// node that actively owns it.
struct GroupFacts {
  int owner = -1;  // node index, -1 when no running node owns it
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  bool replica_in_sync = false;  // some other node's replica_head == head
};

/// Probe every running node for group `g`'s owner and replica heads.
GroupFacts group_facts(Cluster& cluster, std::size_t g);

}  // namespace perfbench
