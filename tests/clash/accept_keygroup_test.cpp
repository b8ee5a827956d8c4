// ACCEPT_KEYGROUP for a group this server already holds. A split brain
// (two survivors both promoted a group while its owner was down, then
// both handed it back on rejoin — or the rejoined owner re-promoted it
// from disk first) delivers a second transfer of a group that is
// already in the table. The receiver must merge it into the owned
// group, start a log line above both sides and acknowledge, instead of
// throwing "duplicate key group" out of the table insert.
#include <gtest/gtest.h>

#include "clash/server.hpp"
#include "tests/clash/test_util.hpp"

namespace clash {
namespace {

constexpr unsigned kWidth = 8;

ClashConfig log_config() {
  ClashConfig cfg;
  cfg.key_width = kWidth;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;
  cfg.replication_factor = 2;
  cfg.replication_mode = ClashConfig::ReplicationMode::kLog;
  return cfg;
}

AcceptKeyGroup transfer(const KeyGroup& group, std::uint64_t epoch,
                        std::vector<StreamInfo> streams,
                        std::vector<QueryInfo> queries) {
  AcceptKeyGroup m;
  m.group = group;
  m.parent = ServerId{0};
  m.root = true;
  m.epoch = epoch;
  m.streams = std::move(streams);
  m.queries = std::move(queries);
  return m;
}

StreamInfo stream(std::uint64_t source, std::uint64_t key, double rate) {
  return StreamInfo{ClientId{source}, Key(key, kWidth), rate};
}

std::size_t acks_to(const testing::MockServerEnv& env, ServerId to,
                    const KeyGroup& group) {
  std::size_t n = 0;
  for (const auto& [dst, msg] : env.sent) {
    const auto* ack = std::get_if<AcceptKeyGroupAck>(&msg);
    if (dst == to && ack != nullptr && ack->group == group) ++n;
  }
  return n;
}

TEST(AcceptKeyGroup, SecondTransferOfAnOwnedGroupMergesAndAcks) {
  testing::MockServerEnv env;
  ClashServer server(ServerId{9}, log_config(), env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));
  const KeyGroup root = KeyGroup::root(kWidth);

  server.deliver(ServerId{1},
                 Message(transfer(root, 3, {stream(1, 0x11, 2.0)},
                                  {QueryInfo{QueryId{7}, Key(0x21, kWidth)}})));
  const auto first_head = server.log_head(root);
  ASSERT_TRUE(first_head.has_value());
  EXPECT_GT(first_head->epoch, 3u);

  // The other survivor's copy: an older epoch than the line now
  // running here, one stream both sides hold, one only it holds.
  ASSERT_NO_THROW(server.deliver(
      ServerId{2},
      Message(transfer(root, 2, {stream(1, 0x11, 2.0), stream(2, 0x22, 1.0)},
                       {QueryInfo{QueryId{8}, Key(0x31, kWidth)}}))));

  const ServerTableEntry* entry = server.table().find(root);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->active);
  EXPECT_EQ(server.table().active_count(), 1u);

  const GroupState* st = server.group_state(root);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->streams.size(), 2u);
  EXPECT_DOUBLE_EQ(st->stream_rate, 3.0);  // the shared stream once
  EXPECT_EQ(st->queries.size(), 2u);

  // The new line runs above both the sender's epoch and the old line.
  const auto head = server.log_head(root);
  ASSERT_TRUE(head.has_value());
  EXPECT_GT(head->epoch, first_head->epoch);
  EXPECT_GT(head->epoch, 2u);

  EXPECT_EQ(acks_to(env, ServerId{1}, root), 1u);
  EXPECT_EQ(acks_to(env, ServerId{2}, root), 1u);
}

TEST(AcceptKeyGroup, TransferOfAnInactiveEntryReactivatesIt) {
  testing::MockServerEnv env;
  ClashServer server(ServerId{9}, log_config(), env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));
  const KeyGroup group = KeyGroup::root(kWidth).left_child().right_child();
  ServerTableEntry stale;
  stale.group = group;
  stale.parent = ServerId{0};
  stale.active = false;
  stale.right_child = ServerId{4};
  server.install_entry(stale);

  ASSERT_NO_THROW(server.deliver(
      ServerId{1}, Message(transfer(group, 1, {stream(3, 0x41, 1.5)}, {}))));

  const ServerTableEntry* entry = server.table().find(group);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->active);
  EXPECT_FALSE(entry->right_child.valid());
  const GroupState* st = server.group_state(group);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->streams.size(), 1u);
  EXPECT_EQ(acks_to(env, ServerId{1}, group), 1u);
}

}  // namespace
}  // namespace clash
