#include "layers.hpp"

#include <chrono>
#include <filesystem>

#include "clash/server.hpp"
#include "net/blocking_client.hpp"
#include "obs/trace.hpp"
#include "open_loop.hpp"
#include "repl/log.hpp"
#include "storage/backend.hpp"
#include "storage/store.hpp"
#include "wire/codec.hpp"

namespace perfbench {

namespace wire = clash::wire;
using clash::Key;
using clash::KeyGroup;

namespace {

/// Keep a computed value observable so the timed loop is not elided.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over `rounds` of the mean ns per call of `body(i)` for
/// `n` calls.
template <typename Fn>
double time_ns(std::size_t n, Fn&& body, int rounds = 5) {
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) body(i);
    per_call.push_back(double(now_ns() - t0) / double(n));
  }
  return median(per_call);
}

clash::AcceptObject put_of(const std::vector<std::uint64_t>& pool,
                           std::size_t idx, std::uint64_t seq) {
  clash::AcceptObject obj;
  obj.key = Key(pool[idx], kKeyWidth);
  obj.depth = kInitialDepth;
  obj.kind = clash::ObjectKind::kData;
  obj.source = clash::ClientId{idx};
  obj.stream_rate = double(seq);
  return obj;
}

}  // namespace

LayerTimings time_layers(Cluster& cluster,
                         const std::vector<std::uint64_t>& pool,
                         const std::vector<int>& route, std::uint64_t seed,
                         unsigned repl_batch, const std::string& scratch_dir) {
  LayerTimings t;
  constexpr std::size_t kN = 4096;
  SplitMix64 rng(mix_seed(seed, 0x6c61796572));
  std::vector<std::size_t> idx(kN);
  for (auto& i : idx) i = rng.below(pool.size());

  // --- wire: the workload's own request and reply messages ----------
  std::vector<clash::Message> requests;
  for (std::size_t i = 0; i < kN; ++i) {
    requests.emplace_back(put_of(pool, idx[i], i + 1));
  }
  std::vector<std::vector<std::uint8_t>> encoded(kN);
  t.encode_ns_accept = time_ns(kN, [&](std::size_t i) {
    wire::Writer w;
    wire::encode_message(w, requests[i]);
    keep(w.size());
    if (encoded[i].empty()) encoded[i] = w.data();
  });
  t.decode_ns_accept = time_ns(kN, [&](std::size_t i) {
    auto m = wire::decode_message(encoded[i]);
    keep(m);
  });
  const clash::AcceptObjectReply reply = clash::AcceptObjectOk{kInitialDepth};
  t.reply_ns = time_ns(kN, [&](std::size_t) {
    wire::Writer w;
    wire::encode_reply(w, reply);
    auto r = wire::decode_reply(w.data());
    keep(r);
  });

  // --- wire: ReplAppend batches as the owner ships them --------------
  const unsigned batch = std::max(1u, repl_batch);
  constexpr std::size_t kBatches = 512;
  std::vector<clash::ReplAppend> appends(kBatches);
  for (std::size_t b = 0; b < kBatches; ++b) {
    auto& m = appends[b];
    m.group = KeyGroup::of(Key(pool[idx[b]], kKeyWidth), kInitialDepth);
    m.owner = clash::ServerId{0};
    m.epoch = 2;
    m.base_seq = b * batch;
    for (unsigned e = 0; e < batch; ++e) {
      const std::size_t k = idx[(b * batch + e) % kN];
      m.entries.push_back(clash::repl::LogOp::put_stream(clash::StreamInfo{
          clash::ClientId{k}, Key(pool[k], kKeyWidth), double(b + e + 1)}));
    }
  }
  std::vector<std::vector<std::uint8_t>> encoded_appends(kBatches);
  t.encode_ns_repl = time_ns(kBatches, [&](std::size_t b) {
    clash::ReplAppend m = appends[b];
    m.checksum = wire::content_crc(m);  // the send-side stamp
    wire::Writer w;
    wire::encode_message(w, clash::Message(std::move(m)));
    keep(w.size());
    if (encoded_appends[b].empty()) encoded_appends[b] = w.data();
  });
  std::size_t crc_mismatches = 0;
  t.decode_ns_repl = time_ns(kBatches, [&](std::size_t b) {
    auto m = wire::decode_message(encoded_appends[b]);
    const auto& ra = std::get<clash::ReplAppend>(m.value());
    if (wire::content_crc(ra) != ra.checksum) ++crc_mismatches;  // verify
  });
  keep(crc_mismatches);
  t.crc_ns_repl = time_ns(kBatches, [&](std::size_t b) {
    keep(wire::content_crc(appends[b]));
  });

  // --- clash: server-table lookups on a live node's table ------------
  const clash::ServerTable table = cluster.node(0).run_on_loop(
      [](clash::ClashServer& s) { return s.table(); });
  std::vector<Key> keys;
  for (std::size_t i = 0; i < kN; ++i) keys.emplace_back(pool[idx[i]], kKeyWidth);
  t.table_lookup_ns = time_ns(kN, [&](std::size_t i) {
    // The AcceptObject handler's lookup: the active entry, else the
    // longest prefix match for the refusal.
    const auto* e = table.active_entry_for(keys[i]);
    if (e == nullptr) {
      keep(table.longest_prefix_match(keys[i]));
    } else {
      keep(e);
    }
  });

  // --- dht: ChordRing::lookup on the client's ring --------------------
  clash::dht::ChordRing ring(clash::dht::ChordRing::Config{
      32, cluster.node(0).config().virtual_servers,
      cluster.node(0).config().hash_algo, kRingSalt});
  for (std::size_t i = 0; i < kNodes; ++i) ring.add_server(clash::ServerId{i});
  std::vector<clash::dht::HashKey> hashes;
  for (std::size_t i = 0; i < kN; ++i) {
    const unsigned d = unsigned(rng.below(kKeyWidth + 1));
    hashes.push_back(ring.hasher().hash_key(clash::shape(keys[i], d)));
  }
  t.dht_lookup_ns = time_ns(kN, [&](std::size_t i) {
    keep(ring.lookup(hashes[i], clash::ServerId{i % kNodes}));
  });

  // --- repl: GroupLog::append, compacted at the server's threshold ----
  const unsigned compact_at = bench_clash_config().log_compact_threshold;
  {
    std::vector<clash::repl::LogOp> ops;
    for (std::size_t i = 0; i < kN; ++i) {
      ops.push_back(clash::repl::LogOp::put_stream(clash::StreamInfo{
          clash::ClientId{idx[i]}, keys[i], double(i + 1)}));
    }
    std::vector<double> per_call;
    for (int r = 0; r < 5; ++r) {
      clash::repl::GroupLog log(1, 0);
      std::int64_t spent = 0;
      for (std::size_t i = 0; i < kN;) {
        const std::size_t end = std::min(kN, i + compact_at);
        const std::int64_t t0 = now_ns();
        for (; i < end; ++i) keep(log.append(ops[i]));
        spent += now_ns() - t0;
        log.compact();
      }
      per_call.push_back(double(spent) / double(kN));
    }
    t.log_append_ns = median(per_call);
  }

  // --- storage: NodeStore::append_op on a fresh directory -------------
  {
    const std::string dir = scratch_dir + "/layer_store";
    std::filesystem::remove_all(dir);
    clash::storage::FileBackend backend(dir);
    clash::storage::NodeStore store(
        backend, clash::storage::NodeStore::Config::from(bench_clash_config()));
    constexpr std::size_t kAppends = 2048;
    const std::int64_t epoch = now_ns();
    std::vector<double> per_call;
    std::uint64_t seq = 0;
    for (int r = 0; r < 5; ++r) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < kAppends; ++i) {
        const KeyGroup group = KeyGroup::of(keys[i], kInitialDepth);
        ++seq;
        keep(store.append_op(
            group, clash::repl::LogHead{1, seq},
            clash::repl::LogOp::put_stream(clash::StreamInfo{
                clash::ClientId{idx[i]}, keys[i], double(seq)}),
            clash::SimTime((now_ns() - epoch) / 1000)));
      }
      per_call.push_back(double(now_ns() - t0) / 1000.0 / double(kAppends));
    }
    t.storage_append_us = median(per_call);
  }
  std::filesystem::remove_all(scratch_dir + "/layer_store");

  // --- obs: TraceRecorder::record with the node's enable setting ------
  {
    const bool enabled = cluster.node(0).hub().tracer.enabled();
    clash::obs::TraceRecorder rec;
    rec.set_enabled(enabled);
    t.trace_record_ns = time_ns(kN, [&](std::size_t i) {
      rec.record(clash::obs::SpanKind::kIngest, 0,
                 clash::SimTime(std::int64_t(i)), clash::SimDuration{0}, 0, 0);
    });
  }

  // --- net: one probe round trip to the key's owner --------------------
  {
    clash::net::BlockingClient::Config ccfg;
    ccfg.members = cluster.members();
    ccfg.ring_salt = kRingSalt;
    clash::net::BlockingClient client(ccfg);
    constexpr std::size_t kRpcs = 2000;
    std::vector<double> us;
    for (std::size_t i = 0; i < kRpcs; ++i) {
      auto obj = put_of(pool, idx[i], 0);
      obj.probe_only = true;
      const auto owner = clash::ServerId{std::size_t(
          route[group_index(pool[idx[i]])])};
      const std::int64_t t0 = now_ns();
      keep(client.rpc_accept_object(owner, obj));
      us.push_back(double(now_ns() - t0) / 1000.0);
    }
    t.rpc_us = median(us);
  }

  // --- clash: handle_accept_object on the owner's loop ----------------
  {
    constexpr std::size_t kAccepts = 2000;
    std::vector<double> us;
    for (std::size_t i = 0; i < kAccepts; ++i) {
      const int owner = route[group_index(pool[idx[i]])];
      if (owner < 0 || !cluster.running(std::size_t(owner))) continue;
      auto obj = put_of(pool, idx[i], 1);
      // A source outside the pool: the workload's state checks never
      // see these extra streams.
      obj.source = clash::ClientId{(std::uint64_t{1} << 40) + i};
      us.push_back(cluster.node(std::size_t(owner))
                       .run_on_loop([&](clash::ClashServer& s) {
                         const std::int64_t t0 = now_ns();
                         keep(s.handle_accept_object(obj));
                         return double(now_ns() - t0) / 1000.0;
                       }));
    }
    t.accept_us = median(us);
  }
  return t;
}

}  // namespace perfbench
