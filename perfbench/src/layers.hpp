// Per-layer costs timed from outside the nodes: each figure comes from
// calling one module's public functions on the workload's own inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster.hpp"

namespace perfbench {

struct LayerTimings {
  // wire: one AcceptObject request and one reply.
  double encode_ns_accept = 0;
  double decode_ns_accept = 0;
  double reply_ns = 0;  // encode_reply + decode_reply
  // wire: one ReplAppend of `repl_batch` entries, CRC stamp/verify
  // included the way the shipped path does them.
  double encode_ns_repl = 0;
  double decode_ns_repl = 0;
  double crc_ns_repl = 0;
  double table_lookup_ns = 0;   // active_entry_for (+ longest_prefix_match)
  double dht_lookup_ns = 0;     // ChordRing::lookup
  double log_append_ns = 0;     // repl::GroupLog::append
  double storage_append_us = 0; // NodeStore::append_op, kInterval policy
  double trace_record_ns = 0;   // TraceRecorder::record, node's setting
  double rpc_us = 0;            // BlockingClient::rpc_accept_object
  double accept_us = 0;         // handle_accept_object inside run_on_loop
};

/// Time every layer on `pool` keys routed by `route`. Writes only
/// below `scratch_dir`. The accept timing issues real puts, from
/// sources outside the pool, so it must run after the workload's own
/// counters were read.
LayerTimings time_layers(Cluster& cluster, const std::vector<std::uint64_t>& pool,
                         const std::vector<int>& route, std::uint64_t seed,
                         unsigned repl_batch, const std::string& scratch_dir);

}  // namespace perfbench
