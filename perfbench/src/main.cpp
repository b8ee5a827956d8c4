// CLASH node benchmark: three in-process ClashNodes on loopback (log
// replication factor 2, WAL + snapshots, group-commit fsync), driven by
// one of three workloads:
//
//   ingest    open-loop data-stream puts at a reference rate, then a
//             search for the highest rate meeting p99 <= 1 ms;
//   resolve   closed-loop cold depth searches (no cache, random first
//             guess) — the read path, no replication or storage work;
//   failover  open-loop puts while the owner of a known set of groups
//             is stopped and restarted in place, three times.
//
// Untraced runs print the end-to-end metrics; --trace 1 runs the same
// workload with the per-layer probes (node registry scrapes plus timed
// calls into each module's public functions) and prints the per-layer
// metrics and a stage table. Every run checks its results and exits
// nonzero on any violation. The last stdout line is the JSON result.
//
//   perfbench_node --workload ingest --seed 1 --seconds 20 --trace 0
//                  [--dir DIR]
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clash/client.hpp"
#include "clash/server.hpp"
#include "cluster.hpp"
#include "common/logging.hpp"
#include "layers.hpp"
#include "net/blocking_client.hpp"
#include "open_loop.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using clash::ClashClient;
using clash::Key;
using clash::ServerId;
using Scrape = std::map<std::string, double>;

// --- Fixed workload parameters ---------------------------------------
constexpr std::size_t kPoolKeys = 16384;
constexpr int kSetupReps = 9;
constexpr double kSloUs = 1000.0;            // p99 limit of the SLO
constexpr double kIngestRefRate = 10000.0;   // ops/s, well below the knee
constexpr double kFailoverRate = kIngestRefRate;
constexpr int kFailoverCycles = 3;
constexpr auto kFailoverPeriod = std::chrono::milliseconds(50);
constexpr std::size_t kResolveClients = 2;
/// A rate step is invalid when the generator itself ran this late.
constexpr double kMaxGenLagUs = 250.0;
constexpr double kScrapeEveryS = 1.0;  // traced runs' scrape cadence

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16;
  bool trace = false;
  std::string dir = ".bench_build/work";
};

double clock_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

/// Process CPU seconds: nodes, generator and clients together.
double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

std::string fs_name(const std::string& dir) {
  struct statfs sf {};
  if (::statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "fs-magic-0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

template <typename Pred>
bool wait_until(Pred pred, double seconds, double poll_ms = 1.0) {
  const std::int64_t deadline = now_ns() + std::int64_t(seconds * 1e9);
  while (now_ns() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(
        std::chrono::microseconds(std::int64_t(poll_ms * 1000)));
  }
  return pred();
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

/// Sum over running nodes of series `name`.
double sum_of(const std::vector<Scrape>& s, const std::string& name) {
  double v = 0;
  for (const auto& m : s) {
    const auto it = m.find(name);
    if (it != m.end()) v += it->second;
  }
  return v;
}
double max_of(const std::vector<Scrape>& s, const std::string& name) {
  double v = 0;
  for (const auto& m : s) {
    const auto it = m.find(name);
    if (it != m.end()) v = std::max(v, it->second);
  }
  return v;
}
std::string q(const std::string& hist, const char* quantile) {
  return hist + "{quantile=\"" + quantile + "\"}";
}

// --- The bench context --------------------------------------------------

struct Bench {
  Args args;
  Report report;
  std::vector<std::uint64_t> pool;
  std::unique_ptr<Cluster> cluster;
  std::vector<int> route = std::vector<int>(kGroups, -1);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::vector<Scrape> scrape_all() {
    std::vector<Scrape> out;
    for (std::size_t i = 0; i < kNodes; ++i) out.push_back(cluster->scrape(i));
    return out;
  }
  std::vector<clash::net::Endpoint> endpoints() const {
    std::vector<clash::net::Endpoint> eps;
    for (const auto& [id, ep] : cluster->members()) eps.push_back(ep);
    return eps;
  }
  clash::net::BlockingClient::Config client_config(std::size_t access) const {
    clash::net::BlockingClient::Config c;
    c.members = cluster->members();
    c.access_point = ServerId{access % kNodes};
    c.ring_salt = kRingSalt;
    return c;
  }
};

/// Start a fresh cluster `kSetupReps` times; keep the last. Set-up time
/// runs from construction until every node sees full membership and
/// the first put is acked. Returns the median.
double setup_cluster(Bench& b, const ClusterOptions& base) {
  std::vector<double> total, start, converge, first_put;
  for (int r = 0; r < kSetupReps; ++r) {
    b.cluster.reset();
    ClusterOptions o = base;
    o.dir = base.dir + "/setup" + std::to_string(r);
    std::filesystem::remove_all(o.dir);
    std::filesystem::create_directories(o.dir);
    const std::int64_t t0 = now_ns();
    auto c = std::make_unique<Cluster>(o);
    const std::int64_t t1 = now_ns();
    if (!wait_until([&] { return c->converged(); }, 10.0)) {
      throw std::runtime_error("cluster never converged");
    }
    const std::int64_t t2 = now_ns();
    b.cluster = std::move(c);
    clash::net::BlockingClient env(b.client_config(0));
    ClashClient client(bench_clash_config(), env, env.hasher());
    clash::AcceptObject obj;
    obj.key = Key(b.pool[0], kKeyWidth);
    obj.kind = clash::ObjectKind::kData;
    obj.source = clash::ClientId{std::uint64_t{1} << 41};
    obj.stream_rate = 1;
    if (!client.insert(obj).ok) throw std::runtime_error("first put failed");
    const std::int64_t t3 = now_ns();
    total.push_back(double(t3 - t0) / 1e9);
    start.push_back(double(t1 - t0) / 1e6);
    converge.push_back(double(t2 - t1) / 1e6);
    first_put.push_back(double(t3 - t2) / 1e6);
    if (r > 0) {
      std::filesystem::remove_all(base.dir + "/setup" + std::to_string(r - 1));
    }
  }
  std::printf(
      "set-up, median of %d: start %.2f ms, full membership %.2f ms, first "
      "put acked %.2f ms\n",
      kSetupReps, median(start), median(converge), median(first_put));
  return median(total);
}

/// Warm-up: a caching ClashClient resolves one key of every bootstrap
/// group, learning each group's server.
void learn_routes(Bench& b) {
  clash::net::BlockingClient env(b.client_config(0));
  ClashClient client(bench_clash_config(), env, env.hasher());
  for (std::size_t g = 0; g < kGroups; ++g) {
    const Key key((std::uint64_t(g) << (kKeyWidth - kInitialDepth)) | 0x2a5,
                  kKeyWidth);
    const auto out = client.resolve(key);
    if (!out.ok || out.depth != kInitialDepth) {
      throw std::runtime_error("warm-up could not resolve group " +
                               std::to_string(g));
    }
    b.route[g] = int(out.server.value);
  }
}

// --- Open-loop phase analysis -----------------------------------------

/// Latency windows of the steady workloads (the failover workload
/// uses one window per kill/restart cycle instead).
constexpr std::int64_t kWindowNs = 500'000'000;

struct OpenStats {
  LatencySummary lat;  // us, completed ops, from due time, pooled
  LatencySummary win;  // the same, median over latency windows
  double gen_lag_p99_us = 0;
  std::size_t ops = 0;
  std::size_t done = 0;
  std::size_t backlog = 0;
  std::uint64_t sends = 0;
};

OpenStats analyze(const PhaseResult& r, std::int64_t window_start_ns = 0,
                  std::int64_t window_ns = kWindowNs) {
  OpenStats s;
  s.ops = r.ops.size();
  std::vector<double> lat;
  std::vector<TimedSample> timed;
  std::vector<double> lag;
  lat.reserve(r.ops.size());
  timed.reserve(r.ops.size());
  for (const auto& op : r.ops) {
    s.sends += op.sends;
    if (op.on_time) lag.push_back(double(op.first_sent_ns - op.due_ns) / 1e3);
    if (op.done_ns < 0) continue;
    ++s.done;
    lat.push_back(double(op.done_ns - op.due_ns) / 1e3);
    timed.push_back({op.due_ns, lat.back()});
  }
  s.lat = summarize(std::move(lat));
  s.win = summarize_windows(
      timed, window_start_ns != 0 ? window_start_ns : r.start_ns, window_ns);
  std::sort(lag.begin(), lag.end());
  s.gen_lag_p99_us = percentile_sorted(lag, 99.0);
  s.backlog = r.backlog_at_last_due;
  return s;
}

void print_latency(const char* label, const LatencySummary& pooled,
                   const LatencySummary& windowed, const char* window) {
  std::printf(
      "  %s, pooled: %zu samples, p50 %.1f us, p99 %.1f us, p999 %.1f us, "
      "max %.1f us; highest percentile with >= 10 samples beyond it: p%g\n",
      label, pooled.samples, pooled.p50, pooled.p99, pooled.p999, pooled.max,
      pooled.supported);
  std::printf(
      "  %s, median over %s windows (reported): p50 %.1f us, p99 %.1f us, "
      "p999 %.1f us; highest percentile with >= 10 samples beyond it in "
      "every window: p%g\n",
      label, window, windowed.p50, windowed.p99, windowed.p999,
      windowed.supported);
}

// --- Correctness -------------------------------------------------------

/// Wait until every group has a live owner whose log head matches the
/// replica head on at least one other node; report groups that never
/// get there.
void check_replication(Bench& b, double settle_s) {
  std::vector<GroupFacts> facts(kGroups);
  const bool settled = wait_until(
      [&] {
        for (std::size_t g = 0; g < kGroups; ++g) {
          facts[g] = group_facts(*b.cluster, g);
          if (facts[g].owner < 0 || !facts[g].replica_in_sync) return false;
        }
        return true;
      },
      settle_s, 20.0);
  if (settled) return;
  for (std::size_t g = 0; g < kGroups; ++g) {
    if (facts[g].owner < 0) {
      b.report.violation("group " + std::to_string(g) + " has no live owner");
    } else if (!facts[g].replica_in_sync) {
      b.report.violation("group " + std::to_string(g) +
                         ": owner log_head " + std::to_string(facts[g].epoch) +
                         ":" + std::to_string(facts[g].seq) +
                         " matches no replica_head");
    }
  }
}

/// Every acked put must be in its owner's group state: the stream of
/// its source holds that put or a later one of the same source.
std::size_t count_lost_acked(Bench& b, OpenLoopGenerator& gen) {
  const auto snapshot = gen.acks();
  const auto& acked = snapshot.max_seq;
  const auto& seq_keys = snapshot.seq_keys;
  std::size_t lost = 0;
  std::vector<bool> seen(b.pool.size(), false);
  for (std::size_t n = 0; n < kNodes; ++n) {
    if (!b.cluster->running(n)) continue;
    lost += b.cluster->node(n).run_on_loop([&](clash::ClashServer& s) {
      std::size_t bad = 0;
      for (std::size_t i = 0; i < b.pool.size(); ++i) {
        if (acked[i] == 0) continue;
        const Key key(b.pool[i], kKeyWidth);
        const auto* entry = s.table().active_entry_for(key);
        if (entry == nullptr) continue;  // another node owns it
        seen[i] = true;
        const auto* gs = s.group_state(entry->group);
        const clash::StreamInfo* st = nullptr;
        if (gs != nullptr) {
          const auto it = gs->streams.find(clash::ClientId{i});
          if (it != gs->streams.end()) st = &it->second;
        }
        const auto seq = st == nullptr ? 0 : std::uint64_t(st->rate);
        const bool ok = st != nullptr && st->key == key &&
                        double(seq) == st->rate && seq >= acked[i] &&
                        seq <= seq_keys.size() && seq_keys[seq - 1] == i;
        if (!ok) ++bad;
      }
      return bad;
    });
  }
  for (std::size_t i = 0; i < b.pool.size(); ++i) {
    if (acked[i] != 0 && !seen[i]) ++lost;  // no owner at all
  }
  return lost;
}

void check_puts(Bench& b, OpenLoopGenerator& gen) {
  check_replication(b, 10.0);
  const std::size_t lost = count_lost_acked(b, gen);
  Report::info("lost_acked", double(lost), "count");
  if (lost > 0) {
    b.report.violation(std::to_string(lost) +
                       " acked puts missing from their owner's state");
  }
}

// --- Traced-run helpers -------------------------------------------------

/// Scrapes every node at a fixed cadence while a traced phase runs —
/// the observation load whose cost bench.trace_overhead_ratio reports.
class Scraper {
 public:
  explicit Scraper(Bench& b)
      : thread_([this, &b] {
          std::unique_lock<std::mutex> lock(mu_);
          while (!stop_) {
            lock.unlock();
            (void)b.scrape_all();
            lock.lock();
            cv_.wait_for(lock, std::chrono::duration<double>(kScrapeEveryS),
                         [this] { return stop_; });
          }
        }) {}
  ~Scraper() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // last: starts after the members it uses
};

/// What the layer metrics are computed from.
struct TracedWindow {
  std::vector<Scrape> before, after;
  /// Final counters of node incarnations stopped inside the window
  /// (a restarted node's registry starts again from zero).
  std::vector<Scrape> retired = std::vector<Scrape>(kNodes);
  double wall_s = 0;
  double ops = 0;            // client ops completed in the window
  double client_frames_sent = 0;
  double client_frames_received = 0;
  double client_puts_acked = 0;
  double p50_untraced_us = 0;
  double p50_traced_us = 0;
  double gen_lag_p99_us = 0;
  double storage_bytes = 0;  // delta of the owners' storage cost meter
  // Client-side per-op figures.
  double probes_per_op = 0;
  double wasted_probe_ratio = 0;
  double restarts_per_op = 0;
  double dht_lookups_per_op = 0;
  double dht_hops_per_op = 0;
};

double storage_bytes_total(Bench& b) {
  double total = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    if (!b.cluster->running(n)) continue;
    total += double(b.cluster->node(n).run_on_loop([](clash::ClashServer& s) {
      return s.total_group_cost().storage_bytes;
    }));
  }
  return total;
}

double get(const Scrape& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

/// Growth of counter `name` on node `n` over the window, summed over
/// the node's incarnations.
double node_delta(const TracedWindow& w, std::size_t n,
                  const std::string& name) {
  return get(w.after[n], name) + get(w.retired[n], name) -
         get(w.before[n], name);
}

double delta(const TracedWindow& w, const std::string& name) {
  double total = 0;
  for (std::size_t n = 0; n < kNodes; ++n) total += node_delta(w, n, name);
  return total;
}

/// Largest quantile `quantile` of histogram `hist` over the nodes that
/// recorded into it during the window (0 when none did). The quantile
/// itself covers the node incarnation's whole life.
double active_quantile(const TracedWindow& w, const std::string& hist,
                       const char* quantile) {
  double v = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    if (node_delta(w, n, hist + "_count") > 0) {
      v = std::max(v, get(w.after[n], q(hist, quantile)));
    }
  }
  return v;
}

/// Mean entries per ReplAppend frame the owners shipped in the window:
/// puts per loop tick of the busiest owner, at least 1 (one frame per
/// group per tick).
unsigned repl_batch_estimate(const TracedWindow& w) {
  double best = 1;
  for (std::size_t n = 0; n < kNodes; ++n) {
    const double ticks = node_delta(w, n, "clash_loop_tick_usec_count");
    if (ticks > 0) {
      best = std::max(best, node_delta(w, n, "clash_puts_total") / ticks);
    }
  }
  return unsigned(std::lround(best));
}

struct RecoveryTimes {
  std::vector<double> detect_ms, rejoin_ms, promote_ms;
};

void emit_layers(Bench& b, const TracedWindow& w, const LayerTimings& t,
                 const RecoveryTimes& rec, bool closed_loop) {
  auto& r = b.report;
  const double ops = std::max(1.0, w.ops);
  double busy = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    busy = std::max(busy, node_delta(w, n, "clash_loop_tick_usec_sum") /
                              (w.wall_s * 1e6));
  }
  Report::line("per-layer metrics:");
  r.metric("net.loop_busy_ratio", busy, "ratio");
  r.metric("net.loop_tick_p99_us",
           active_quantile(w, "clash_loop_tick_usec", "0.99"), "us");
  r.metric("net.frames_per_op",
           (delta(w, "clash_net_frames_sent_total") +
            delta(w, "clash_net_frames_received_total")) / ops, "count");
  r.metric("net.flush_syscalls_per_op",
           delta(w, "clash_net_flush_syscalls_total") / ops, "count");
  r.metric("net.bytes_per_op",
           (delta(w, "clash_net_bytes_sent_total") +
            delta(w, "clash_net_bytes_received_total")) / ops, "bytes");
  r.metric("net.rpc_us", t.rpc_us, "us");
  r.metric("wire.encode_ns.accept_object", t.encode_ns_accept, "ns");
  r.metric("wire.decode_ns.accept_object", t.decode_ns_accept, "ns");
  r.metric("wire.reply_ns", t.reply_ns, "ns");
  r.metric("wire.encode_ns.repl_append", t.encode_ns_repl, "ns");
  r.metric("wire.decode_ns.repl_append", t.decode_ns_repl, "ns");
  r.metric("wire.crc_ns.repl_append", t.crc_ns_repl, "ns");
  r.metric("wire.repl_append_batch", double(repl_batch_estimate(w)), "count");
  r.metric("clash.accept_us", t.accept_us, "us");
  r.metric("clash.table_lookup_ns", t.table_lookup_ns, "ns");
  r.metric("clash.incorrect_depth_ratio", w.wasted_probe_ratio, "ratio");
  r.metric("clash.search_restarts_per_op", w.restarts_per_op, "count");
  r.metric("dht.lookup_ns", t.dht_lookup_ns, "ns");
  r.metric("dht.lookups_per_op", w.dht_lookups_per_op, "count");
  r.metric("dht.hops_per_op", w.dht_hops_per_op, "count");
  r.metric("repl.log_append_ns", t.log_append_ns, "ns");
  r.metric("repl.commit_p50_us",
           active_quantile(w, "clash_repl_commit_usec", "0.5"), "us");
  r.metric("repl.commit_p99_us",
           active_quantile(w, "clash_repl_commit_usec", "0.99"), "us");
  r.metric("repl.compactions_per_kop",
           1000.0 * delta(w, "clash_msgs_log_compactions") / ops, "count");
  r.metric("repl.bytes_per_op", delta(w, "clash_repl_bytes_total") / ops,
           "bytes");
  r.metric("storage.append_us", t.storage_append_us, "us");
  r.metric("storage.fsync_p99_us",
           active_quantile(w, "clash_wal_fsync_usec", "0.99"), "us");
  r.metric("storage.bytes_per_op", w.storage_bytes / ops, "bytes");
  r.metric("membership.detect_ms", median(rec.detect_ms), "ms");
  r.metric("membership.rejoin_ms", median(rec.rejoin_ms), "ms");
  r.metric("recovery.promote_ms", median(rec.promote_ms), "ms");
  r.metric("recovery.failover_p50_us",
           active_quantile(w, "clash_failover_recovery_usec", "0.5"), "us");
  r.metric("obs.trace_record_ns", t.trace_record_ns, "ns");
  r.metric("bench.gen_lag_p99_us", w.gen_lag_p99_us, "us");

  // Stage table: where the traced client median goes.
  std::vector<StageRow> rows;
  const double wire_us =
      (t.encode_ns_accept + t.decode_ns_accept + t.reply_ns) / 1e3;
  const double transport_us = t.rpc_us - wire_us - t.table_lookup_ns / 1e3;
  if (closed_loop) {
    const double p = w.probes_per_op;
    rows.push_back({"dht.lookup x lookups/op",
                    w.dht_lookups_per_op * t.dht_lookup_ns / 1e3});
    rows.push_back({"wire.request+reply x probes/op", p * wire_us});
    rows.push_back({"clash.table_lookup x probes/op",
                    p * t.table_lookup_ns / 1e3});
    rows.push_back({"net.transport x probes/op", p * transport_us});
  } else {
    rows.push_back({"wire.encode accept_object", t.encode_ns_accept / 1e3});
    rows.push_back({"wire.decode accept_object", t.decode_ns_accept / 1e3});
    rows.push_back({"clash.accept (incl. log + WAL append)", t.accept_us});
    rows.push_back({"wire.reply encode+decode", t.reply_ns / 1e3});
    rows.push_back({"net.transport (rpc - wire - table)", transport_us});
  }
  const auto table = close_stage_table(rows, w.p50_traced_us);
  Report::line("stage table (traced client p50 " + fmt_num(w.p50_traced_us) +
               " us):");
  for (const auto& row : table) {
    std::printf("    %-42s %10.2f us\n", row.name.c_str(), row.us);
  }
  r.metric("bench.unattributed_us", table.back().us, "us");
  r.metric("bench.trace_overhead_ratio",
           w.p50_untraced_us > 0 ? w.p50_traced_us / w.p50_untraced_us : 0,
           "ratio");

  // Instrument cross-checks: the bench's own counts against the nodes'.
  const double puts = delta(w, "clash_puts_total");
  r.metric("bench.puts_drift",
           (puts - w.client_puts_acked) / std::max(1.0, w.client_puts_acked),
           "ratio");
  // Peer frames cancel out of (received - sent) over all nodes; what is
  // left is client requests minus replies, which the client counts too.
  const double node_balance = delta(w, "clash_net_frames_received_total") -
                              delta(w, "clash_net_frames_sent_total");
  const double client_balance =
      w.client_frames_sent - w.client_frames_received;
  r.metric("bench.frames_drift",
           (node_balance - client_balance) /
               std::max(1.0, w.client_frames_sent),
           "ratio");
  Report::line(
      "  exported, always 0 over TCP (only the simulator counts them; "
      "not attributed from):");
  for (const char* name : {"clash_msgs_repl_appends", "clash_msgs_repl_acks",
                           "clash_msgs_object_probes"}) {
    Report::info(std::string("    ") + name, sum_of(w.after, name), "count");
  }
}

// --- ingest --------------------------------------------------------------

struct StepOutcome {
  OpenStats st;
  bool valid = false;
  bool pass = false;
};

StepOutcome rate_step(OpenLoopGenerator& gen, std::uint64_t seed,
                      std::uint64_t tag, double rate, double seconds,
                      std::size_t pool) {
  StepOutcome o;
  const auto res = gen.run(make_schedule(seed, tag, rate, seconds, pool), 1.0);
  o.st = analyze(res);
  o.valid = o.st.gen_lag_p99_us <= kMaxGenLagUs;
  const double backlog_limit = std::max(8.0, rate * 0.002);
  o.pass = o.valid && res.unfinished == 0 && o.st.lat.p99 <= kSloUs &&
           double(o.st.backlog) <= backlog_limit;
  std::printf(
      "  step %8.0f ops/s: p99 %8.1f us, backlog %5zu, gen_lag_p99 %6.1f us"
      " -> %s\n",
      rate, o.st.lat.p99, o.st.backlog, o.st.gen_lag_p99_us,
      !o.valid ? "invalid (generator behind)" : o.pass ? "meets SLO" : "misses SLO");
  return o;
}

/// Highest offered rate meeting p99 <= 1 ms with no growing backlog:
/// geometric ascent from the reference rate, then bisection.
double search_max_rate(Bench& b, OpenLoopGenerator& gen, double budget_s) {
  constexpr double kStepS = 0.5;
  int steps = std::max(2, int(budget_s / kStepS));
  double lo = kIngestRefRate;  // passes (checked by the reference phase)
  double hi = 0;
  std::uint64_t tag = 100;
  while (steps-- > 0) {
    const double rate = hi == 0 ? lo * 1.5 : 0.5 * (lo + hi);
    if (hi != 0 && hi - lo < 0.03 * lo) break;
    auto o = rate_step(gen, b.args.seed, tag++, rate, kStepS, b.pool.size());
    if (!o.valid && steps-- > 0) {  // one retry of an invalid step
      o = rate_step(gen, b.args.seed, tag++, rate, kStepS, b.pool.size());
    }
    b.attempted += o.st.ops;
    if (o.pass) {
      lo = rate;
    } else {
      hi = rate;
    }
  }
  return lo;
}

/// Coordinated-omission self-check: stall one node's loop with a
/// sleeping task and show that every request due during the stall is
/// charged from its due time, i.e. at least until the stall ended.
void stall_selfcheck(Bench& b, OpenLoopGenerator& gen) {
  constexpr double kRate = 2000.0;
  constexpr auto kStall = std::chrono::milliseconds(40);
  const std::size_t victim = std::size_t(b.route[0]);
  std::int64_t stall_in = 0, stall_out = 0;
  auto run = std::async(std::launch::async, [&] {
    return gen.run(make_schedule(b.args.seed, 90, kRate, 1.0, b.pool.size()),
                   2.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  (void)b.cluster->node(victim).run_on_loop([&](clash::ClashServer&) {
    stall_in = now_ns();
    std::this_thread::sleep_for(kStall);
    stall_out = now_ns();
    return true;
  });
  const auto res = run.get();
  std::size_t behind = 0, undercharged = 0;
  for (const auto& op : res.ops) {
    if (op.acked_node != std::int8_t(victim)) continue;
    if (op.due_ns < stall_in || op.due_ns > stall_out - 1'000'000) continue;
    ++behind;
    if (op.done_ns - op.due_ns < stall_out - op.due_ns) ++undercharged;
  }
  b.attempted += res.ops.size();
  b.failed += res.unfinished;
  // The schedule keeps sending to the stalled node: about its share of
  // the rate for the stall's length must be queued behind it.
  const double expected = kRate * std::chrono::duration<double>(kStall).count() *
                          double(std::count(b.route.begin(), b.route.end(),
                                            int(victim))) /
                          double(kGroups);
  std::printf(
      "stall self-check: node %zu stalled %.1f ms; %zu requests due behind "
      "it (about %.0f expected), %zu charged less than the remaining stall\n",
      victim, double(stall_out - stall_in) / 1e6, behind, expected,
      undercharged);
  if (undercharged > 0 || double(behind) < 0.5 * expected) {
    b.report.violation("coordinated omission: stalled requests not charged "
                       "from their due time");
  }
}

void run_ingest(Bench& b) {
  const double S = b.args.seconds;
  ClusterOptions opts;
  opts.dir = b.args.dir;
  const double setup_s = setup_cluster(b, opts);
  learn_routes(b);
  OpenLoopGenerator gen({b.endpoints(), b.pool, b.route});
  // Long enough for every group to have cut its first compaction
  // snapshot (256 ops per group): the measured phase starts in steady
  // state.
  (void)gen.run(make_schedule(b.args.seed, 1, kIngestRefRate, 2.0,
                              b.pool.size()), 2.0);
  Report::line("workload ingest: open loop, " + fmt_num(kIngestRefRate) +
               " ops/s reference rate, SLO p99 <= " + fmt_num(kSloUs) +
               " us with no growing backlog");

  if (!b.args.trace) {
    const double ref_s = 0.6 * S;
    const double cpu0 = cpu_seconds();
    const auto ref = gen.run(
        make_schedule(b.args.seed, 2, kIngestRefRate, ref_s, b.pool.size()),
        2.0);
    const double cpu = cpu_seconds() - cpu0;
    const auto st = analyze(ref);
    b.attempted += st.ops;
    b.failed += ref.unfinished;
    print_latency("reference rate latency", st.lat, st.win, "0.5 s");
    Report::info("bench.gen_lag_p99_us (reference)", st.gen_lag_p99_us, "us");
    Report::line("rate search:");
    const double max_rate = search_max_rate(b, gen, 0.2 * S);
    stall_selfcheck(b, gen);
    check_puts(b, gen);
    Report::line("end-to-end metrics:");
    auto& r = b.report;
    r.metric("setup_s", setup_s, "s");
    r.metric("p50_us", st.win.p50, "us");
    Report::info("p99_us", st.win.p99, "us");
    Report::info("p999_us (pooled)", st.lat.p999, "us");
    r.metric("throughput_ops_s",
             double(st.done) / (double(ref.last_due_ns - ref.start_ns) / 1e9 +
                                1.0 / kIngestRefRate),
             "ops/s");
    r.metric("cpu_us_per_op", cpu * 1e6 / double(std::max<std::size_t>(1, st.done)),
             "us");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("probes_per_op", double(st.sends) / double(std::max<std::size_t>(1, st.ops)),
             "count");
    Report::info("max_rate_at_slo", max_rate, "ops/s");
    Report::info("fail_ratio", double(ref.unfinished) / double(std::max<std::size_t>(1, st.ops)),
                 "ratio");
    Report::info("repl_lag_p99_us",
                 max_of(b.scrape_all(), q("clash_repl_commit_usec", "0.99")),
                 "us");
    return;
  }

  TracedWindow w;
  const double pair_s = 0.3 * S;
  const auto untraced = gen.run(
      make_schedule(b.args.seed, 20, kIngestRefRate, pair_s, b.pool.size()), 2.0);
  w.p50_untraced_us = analyze(untraced).win.p50;
  w.before = b.scrape_all();
  w.storage_bytes = -storage_bytes_total(b);
  PhaseResult traced;
  {
    Scraper scraper(b);
    const std::int64_t t0 = now_ns();
    traced = gen.run(make_schedule(b.args.seed, 21, kIngestRefRate, 0.4 * S,
                                   b.pool.size()), 2.0);
    w.wall_s = double(now_ns() - t0) / 1e9;
  }
  w.after = b.scrape_all();
  w.storage_bytes += storage_bytes_total(b);
  const auto st = analyze(traced);
  print_latency("traced reference-rate latency", st.lat, st.win, "0.5 s");
  b.attempted += untraced.ops.size() + traced.ops.size();
  b.failed += untraced.unfinished + traced.unfinished;
  w.ops = double(st.done);
  w.p50_traced_us = st.win.p50;
  w.gen_lag_p99_us = st.gen_lag_p99_us;
  w.client_frames_sent = double(traced.frames_sent);
  w.client_frames_received = double(traced.frames_received);
  w.client_puts_acked = double(st.done);
  w.probes_per_op = double(st.sends) / std::max(1.0, double(st.ops));
  w.wasted_probe_ratio =
      double(traced.incorrect_depth) / std::max(1.0, double(st.sends));
  w.restarts_per_op = double(traced.reroutes) / std::max(1.0, double(st.ops));
  stall_selfcheck(b, gen);
  check_puts(b, gen);
  const auto t = time_layers(*b.cluster, b.pool, b.route, b.args.seed,
                             repl_batch_estimate(w), b.args.dir);
  emit_layers(b, w, t, RecoveryTimes{}, false);
}

// --- resolve ---------------------------------------------------------------

struct ClosedStats {
  LatencySummary lat;  // pooled
  LatencySummary win;  // median over 1 s windows
  std::size_t ops = 0, failed = 0;
  double seconds = 0, cpu = 0;
  std::uint64_t probes = 0, lookups = 0, hops = 0, restarts = 0;
};

/// `kResolveClients` threads, each a cold ClashClient (no cache, random
/// first guess) resolving seeded uniform pool keys back to back.
ClosedStats closed_loop(Bench& b, std::uint64_t tag, double seconds) {
  struct PerThread {
    std::vector<TimedSample> lat;
    std::size_t ops = 0, failed = 0;
    std::uint64_t probes = 0, lookups = 0, hops = 0, restarts = 0;
  };
  std::vector<PerThread> per(kResolveClients);
  std::vector<std::thread> threads;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + std::int64_t(seconds * 1e9);
  for (std::size_t c = 0; c < kResolveClients; ++c) {
    threads.emplace_back([&, c] {
      // The clients share the CPU after the node loops' (see Cluster).
      pin_current_thread(kNodes);
      clash::net::BlockingClient env(b.client_config(c));
      ClashClient::Options opts;
      opts.guess = ClashClient::Options::Guess::kRandom;
      opts.use_cache = false;
      ClashClient client(bench_clash_config(), env, env.hasher(), opts,
                         mix_seed(b.args.seed, tag * 16 + c));
      SplitMix64 rng(mix_seed(b.args.seed, tag * 16 + c + 1));
      auto& me = per[c];
      // Never reallocate mid-run: the harness's own memory would
      // otherwise jump in peak_rss_mb at a data-dependent moment.
      me.lat.reserve(std::size_t(4e6));
      while (now_ns() < deadline) {
        const std::size_t i = rng.below(b.pool.size());
        const Key key(b.pool[i], kKeyWidth);
        const std::int64_t s = now_ns();
        const auto out = client.resolve(key);
        me.lat.push_back({s, double(now_ns() - s) / 1e3});
        ++me.ops;
        me.probes += out.probes;
        me.lookups += out.dht_lookups;
        me.hops += out.dht_hops;
        me.restarts += out.restarts;
        const int owner = b.route[group_index(b.pool[i])];
        if (!out.ok || out.depth != kInitialDepth ||
            out.server.value != std::uint64_t(owner)) {
          ++me.failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ClosedStats s;
  s.seconds = double(now_ns() - t0) / 1e9;
  s.cpu = cpu_seconds() - cpu0;
  std::vector<TimedSample> all;
  for (auto& p : per) {
    all.insert(all.end(), p.lat.begin(), p.lat.end());
    s.ops += p.ops;
    s.failed += p.failed;
    s.probes += p.probes;
    s.lookups += p.lookups;
    s.hops += p.hops;
    s.restarts += p.restarts;
  }
  std::vector<double> pooled;
  pooled.reserve(all.size());
  for (const auto& x : all) pooled.push_back(x.value);
  s.lat = summarize(std::move(pooled));
  s.win = summarize_windows(all, t0, kWindowNs);
  return s;
}

void run_resolve(Bench& b) {
  const double S = b.args.seconds;
  ClusterOptions opts;
  opts.dir = b.args.dir;
  const double setup_s = setup_cluster(b, opts);
  learn_routes(b);
  Report::line("workload resolve: closed loop, " +
               std::to_string(kResolveClients) +
               " clients, cold depth search (no cache, random first guess)");
  (void)closed_loop(b, 1, 0.5);  // warm-up

  if (!b.args.trace) {
    const auto st = closed_loop(b, 2, 0.85 * S);
    b.attempted += st.ops;
    b.failed += st.failed;
    print_latency("resolve latency", st.lat, st.win, "0.5 s");
    if (st.failed > 0) {
      b.report.violation(std::to_string(st.failed) +
                         " resolves failed or named the wrong owner/depth");
    }
    Report::line("end-to-end metrics:");
    const double ops = double(std::max<std::size_t>(1, st.ops));
    auto& r = b.report;
    r.metric("setup_s", setup_s, "s");
    r.metric("p50_us", st.win.p50, "us");
    Report::info("p99_us", st.win.p99, "us");
    Report::info("p999_us (pooled)", st.lat.p999, "us");
    r.metric("throughput_ops_s", double(st.ops) / st.seconds, "ops/s");
    r.metric("cpu_us_per_op", st.cpu * 1e6 / ops, "us");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("probes_per_op", double(st.probes) / ops, "count");
    Report::info("fail_ratio", double(st.failed) / ops, "ratio");
    Report::info("lost_acked", 0, "count (resolve stores nothing)");
    return;
  }

  TracedWindow w;
  const auto untraced = closed_loop(b, 20, 0.3 * S);
  w.p50_untraced_us = untraced.win.p50;
  w.before = b.scrape_all();
  w.storage_bytes = -storage_bytes_total(b);
  ClosedStats st;
  {
    Scraper scraper(b);
    st = closed_loop(b, 21, 0.4 * S);
  }
  w.after = b.scrape_all();
  w.storage_bytes += storage_bytes_total(b);
  print_latency("traced resolve latency", st.lat, st.win, "0.5 s");
  b.attempted += untraced.ops + st.ops;
  b.failed += untraced.failed + st.failed;
  if (untraced.failed + st.failed > 0) {
    b.report.violation("resolves failed or named the wrong owner/depth");
  }
  const double ops = double(std::max<std::size_t>(1, st.ops));
  w.wall_s = st.seconds;
  w.ops = double(st.ops);
  w.p50_traced_us = st.win.p50;
  // Every probe is one request frame and one reply frame.
  w.client_frames_sent = double(st.probes);
  w.client_frames_received = double(st.probes);
  w.probes_per_op = double(st.probes) / ops;
  w.wasted_probe_ratio =
      double(st.probes - st.ops) / std::max(1.0, double(st.probes));
  w.restarts_per_op = double(st.restarts) / ops;
  w.dht_lookups_per_op = double(st.lookups) / ops;
  w.dht_hops_per_op = double(st.hops) / ops;
  const auto t = time_layers(*b.cluster, b.pool, b.route, b.args.seed,
                             repl_batch_estimate(w), b.args.dir);
  emit_layers(b, w, t, RecoveryTimes{}, true);
}

// --- failover --------------------------------------------------------------

struct Cycle {
  std::int64_t kill_ns = 0, restart_ns = 0, end_ns = 0;
  std::vector<std::size_t> victim_groups;
  std::vector<std::uint64_t> epochs_before;
};

/// Max gap between consecutive acks of victim-group ops in [from, to),
/// counting the gap from `from` to the first ack.
double longest_ack_gap_ms(const PhaseResult& r, const std::vector<bool>& in_v,
                          const std::vector<std::uint64_t>& pool,
                          std::int64_t from, std::int64_t to) {
  std::vector<std::int64_t> acks;
  for (const auto& op : r.ops) {
    if (op.done_ns < from || op.done_ns >= to) continue;
    if (in_v[group_index(pool[op.key_idx])]) acks.push_back(op.done_ns);
  }
  std::sort(acks.begin(), acks.end());
  std::int64_t prev = from, gap = 0;
  for (const auto a : acks) {
    gap = std::max(gap, a - prev);
    prev = a;
  }
  return double(gap) / 1e6;
}

void run_failover(Bench& b) {
  const double S = b.args.seconds;
  ClusterOptions opts;
  opts.dir = b.args.dir;
  opts.protocol_period = kFailoverPeriod;
  const double setup_s = setup_cluster(b, opts);
  learn_routes(b);
  constexpr std::size_t kVictim = 1;
  Report::line("workload failover: open loop, " + fmt_num(kFailoverRate) +
               " ops/s; SWIM protocol_period " +
               std::to_string(kFailoverPeriod.count()) + " ms; node " +
               std::to_string(kVictim) + " owns " +
               std::to_string(std::count(b.route.begin(), b.route.end(),
                                         int(kVictim))) +
               " of 64 groups and is stopped and restarted in place " +
               std::to_string(kFailoverCycles) + " times");
  OpenLoopGenerator gen({b.endpoints(), b.pool, b.route});
  (void)gen.run(make_schedule(b.args.seed, 1, kFailoverRate, 0.5,
                              b.pool.size()), 2.0);

  TracedWindow w;
  if (b.args.trace) {
    const auto untraced = gen.run(
        make_schedule(b.args.seed, 20, kFailoverRate, 0.15 * S, b.pool.size()),
        2.0);
    w.p50_untraced_us = analyze(untraced).win.p50;
    b.attempted += untraced.ops.size();
    b.failed += untraced.unfinished;
  }

  // The kill/restart cycles run against one long open-loop phase.
  // A cycle never shrinks below 3 s, so the restart always comes well
  // after the heir's promotion: restarting inside the recovery window
  // is a different scenario from the one this workload measures.
  const double cycle_s = std::max(
      3.0, ((b.args.trace ? 0.75 : 0.85) * S - 1.0) / kFailoverCycles);
  const double phase_s = 1.0 + cycle_s * kFailoverCycles;
  std::vector<Cycle> cycles(kFailoverCycles);
  RecoveryTimes rec;
  std::vector<std::int64_t> dead_ns(kFailoverCycles, 0);
  if (b.args.trace) {
    w.before = b.scrape_all();
    w.storage_bytes = -storage_bytes_total(b);
  }
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  auto phase = std::async(std::launch::async, [&] {
    return gen.run(
        make_schedule(b.args.seed, 3, kFailoverRate, phase_s, b.pool.size()),
        3.0);
  });
  for (int c = 0; c < kFailoverCycles; ++c) {
    auto& cy = cycles[std::size_t(c)];
    const std::int64_t kill_at = t0 + std::int64_t((0.8 + c * cycle_s) * 1e9);
    const std::int64_t restart_at = kill_at + std::int64_t(cycle_s * 0.45 * 1e9);
    sleep_until_ns(kill_at - 150'000'000);
    for (std::size_t g = 0; g < kGroups; ++g) {
      const auto f = group_facts(*b.cluster, g);
      // Epochs never fall across the previous cycle's restart either.
      const std::uint64_t floor =
          c > 0 ? cycles[std::size_t(c) - 1].epochs_before[g] : 0;
      if (f.owner >= 0 && f.epoch < floor) {
        b.report.violation("group " + std::to_string(g) + " epoch fell from " +
                           std::to_string(floor) + " to " +
                           std::to_string(f.epoch) + " across the restart");
      }
      cy.epochs_before.push_back(std::max(floor, f.epoch));
      if (f.owner == int(kVictim)) cy.victim_groups.push_back(g);
    }
    sleep_until_ns(kill_at);
    if (b.args.trace) {
      // Keep the incarnation's counters: its successor starts from 0.
      for (const auto& [name, v] : b.cluster->scrape(kVictim)) {
        w.retired[kVictim][name] += v;
      }
      w.storage_bytes += double(b.cluster->node(kVictim).run_on_loop(
          [](clash::ClashServer& s) {
            return s.total_group_cost().storage_bytes;
          }));
    }
    cy.kill_ns = now_ns();
    b.cluster->kill(kVictim);
    if (b.args.trace) {
      // membership.detect_ms: every survivor reads the victim dead.
      (void)wait_until(
          [&] {
            for (std::size_t n = 0; n < kNodes; ++n) {
              if (n == kVictim) continue;
              if (b.cluster->node(n).member_state(ServerId{kVictim}) !=
                  clash::MemberState::kDead) {
                return false;
              }
            }
            return true;
          },
          double(restart_at - now_ns()) / 1e9);
      dead_ns[std::size_t(c)] = now_ns();
      rec.detect_ms.push_back(double(dead_ns[std::size_t(c)] - cy.kill_ns) / 1e6);
    }
    // Epochs never fall across the kill: sample the promoted owners.
    sleep_until_ns(restart_at - 100'000'000);
    for (std::size_t g = 0; g < kGroups; ++g) {
      const auto f = group_facts(*b.cluster, g);
      if (f.owner >= 0 && f.epoch < cy.epochs_before[g]) {
        b.report.violation("group " + std::to_string(g) + " epoch fell from " +
                           std::to_string(cy.epochs_before[g]) + " to " +
                           std::to_string(f.epoch) + " across the kill");
      }
      cy.epochs_before[g] = std::max(cy.epochs_before[g], f.epoch);
    }
    sleep_until_ns(restart_at);
    cy.restart_ns = now_ns();
    b.cluster->restart(kVictim);
    if (b.args.trace) {
      (void)wait_until(
          [&] {
            for (std::size_t n = 0; n < kNodes; ++n) {
              if (b.cluster->node(n).ring_server_count() != kNodes) return false;
            }
            return true;
          },
          5.0);
      rec.rejoin_ms.push_back(double(now_ns() - cy.restart_ns) / 1e6);
    }
  }
  const auto res = phase.get();
  const double cpu = cpu_seconds() - cpu0;
  if (b.args.trace) {
    w.wall_s = double(now_ns() - t0) / 1e9;
    w.after = b.scrape_all();
    w.storage_bytes += storage_bytes_total(b);
  }
  // Epochs never fall across the restart either.
  for (std::size_t g = 0; g < kGroups; ++g) {
    const auto f = group_facts(*b.cluster, g);
    const std::uint64_t before = cycles.back().epochs_before[g];
    if (f.owner >= 0 && f.epoch < before) {
      b.report.violation("group " + std::to_string(g) + " epoch fell from " +
                         std::to_string(before) + " to " +
                         std::to_string(f.epoch) + " across the restart");
    }
  }

  // p50 over the usual 0.5 s windows; the tails over one window per
  // kill/restart cycle, each holding one outage.
  const auto st = analyze(res);
  const auto per_cycle = analyze(res, t0 + std::int64_t((0.8 - 0.4) * 1e9),
                                 std::int64_t(cycle_s * 1e9));
  b.attempted += st.ops;
  b.failed += res.unfinished;
  std::vector<double> unavail, rejoin_gap;
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    auto& cy = cycles[c];
    cy.end_ns = c + 1 < cycles.size() ? cycles[c + 1].kill_ns
                                      : res.last_due_ns;
    std::vector<bool> in_v(kGroups, false);
    for (const auto g : cy.victim_groups) in_v[g] = true;
    std::int64_t first_heir = -1;
    for (const auto& op : res.ops) {
      if (op.done_ns <= cy.kill_ns || op.acked_node == std::int8_t(kVictim) ||
          !in_v[group_index(b.pool[op.key_idx])]) {
        continue;
      }
      if (first_heir < 0 || op.done_ns < first_heir) first_heir = op.done_ns;
    }
    if (first_heir < 0) {
      b.report.violation("no heir ever acked the victim's keys in cycle " +
                         std::to_string(c));
      continue;
    }
    unavail.push_back(double(first_heir - cy.kill_ns) / 1e6);
    if (b.args.trace && dead_ns[c] > 0) {
      rec.promote_ms.push_back(double(first_heir - dead_ns[c]) / 1e6);
    }
    rejoin_gap.push_back(
        longest_ack_gap_ms(res, in_v, b.pool, cy.restart_ns, cy.end_ns));
    std::printf(
        "  cycle %zu: %zu victim groups, unavailable %.1f ms after the kill, "
        "longest ack gap after restart %.1f ms\n",
        c, cy.victim_groups.size(), unavail.back(), rejoin_gap.back());
  }
  if (!wait_until([&] { return b.cluster->converged(); }, 10.0)) {
    b.report.violation("cluster did not reconverge after the last restart");
  }
  check_puts(b, gen);

  if (!b.args.trace) {
    print_latency("latency, outages included", st.lat, st.win, "0.5 s");
    print_latency("latency, outages included", st.lat, per_cycle.win, "cycle");
    Report::line("end-to-end metrics:");
    auto& r = b.report;
    const double ops = double(std::max<std::size_t>(1, st.ops));
    r.metric("setup_s", setup_s, "s");
    r.metric("p50_us", st.win.p50, "us");
    Report::info("p99_us (per cycle)", per_cycle.win.p99, "us");
    Report::info("p999_us (pooled)", st.lat.p999, "us");
    r.metric("throughput_ops_s",
             double(st.done) / (double(res.last_due_ns - res.start_ns) / 1e9 +
                                1.0 / kFailoverRate),
             "ops/s");
    r.metric("cpu_us_per_op", cpu * 1e6 / double(std::max<std::size_t>(1, st.done)), "us");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("probes_per_op", double(st.sends) / ops, "count");
    Report::info("unavail_ms (median of cycles)", median(unavail), "ms");
    Report::info("rejoin_unavail_ms (median of cycles)", median(rejoin_gap), "ms");
    Report::info("fail_ratio", double(res.unfinished) / ops, "ratio");
    return;
  }

  print_latency("traced latency, outages included", st.lat, st.win, "0.5 s");
  w.ops = double(st.done);
  w.p50_traced_us = st.win.p50;
  w.gen_lag_p99_us = st.gen_lag_p99_us;
  w.client_frames_sent = double(res.frames_sent);
  w.client_frames_received = double(res.frames_received);
  w.client_puts_acked = double(st.done);
  w.probes_per_op = double(st.sends) / std::max(1.0, double(st.ops));
  w.wasted_probe_ratio =
      double(res.incorrect_depth) / std::max(1.0, double(st.sends));
  w.restarts_per_op = double(res.reroutes) / std::max(1.0, double(st.ops));
  const auto t = time_layers(*b.cluster, b.pool, b.route, b.args.seed,
                             repl_batch_estimate(w), b.args.dir);
  emit_layers(b, w, t, rec, false);
}

// --- main ---------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--dir") {
      a.dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds >= 4;
}

int run(int argc, char** argv) {
  Bench b;
  if (!parse_args(argc, argv, b.args)) {
    std::fprintf(stderr,
                 "usage: perfbench_node --workload ingest|resolve|failover "
                 "--seed N --seconds S (>= 4) --trace 0|1 [--dir DIR]\n");
    return 2;
  }
  // Node logs (connect-refused noise around the failover kills) stay off
  // the report.
  clash::log::set_level(clash::log::Level::kError);
  // A write to a peer that just went away must surface as EPIPE, not
  // end the process.
  std::signal(SIGPIPE, SIG_IGN);
  std::filesystem::create_directories(b.args.dir);
  b.pool = make_key_pool(b.args.seed, kPoolKeys, kKeyWidth);

  std::printf(
      "CLASH node benchmark: %zu ClashNodes on 127.0.0.1 (loopback, no "
      "injected delay), replication_factor 2 kLog, durability kWalSnapshot, "
      "fsync kInterval every 1 s, WAL on %s (%s); %ld CPUs; workload %s, "
      "seed %llu, %g s, trace %d\n",
      kNodes, fs_name(b.args.dir).c_str(), b.args.dir.c_str(),
      ::sysconf(_SC_NPROCESSORS_ONLN), b.args.workload.c_str(),
      static_cast<unsigned long long>(b.args.seed), b.args.seconds,
      b.args.trace ? 1 : 0);
  if (b.args.workload == "ingest") {
    run_ingest(b);
  } else if (b.args.workload == "resolve") {
    run_resolve(b);
  } else if (b.args.workload == "failover") {
    run_failover(b);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", b.args.workload.c_str());
    return 2;
  }
  b.cluster.reset();
  std::filesystem::remove_all(b.args.dir);
  if (b.failed > 0) {
    b.report.violation(std::to_string(b.failed) + " of " +
                       std::to_string(b.attempted) + " ops failed");
  }
  b.report.set_counts(std::max<std::uint64_t>(1, b.attempted), b.failed);
  b.report.emit_json();
  return b.report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_node: %s\n", e.what());
    return 1;
  }
}
