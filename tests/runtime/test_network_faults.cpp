// Fault accounting: dropped-message counters and uplink backpressure.
#include <gtest/gtest.h>

#include "consensus/predis/predis_engine.hpp"
#include "runtime/sim_runtime.hpp"

namespace predis::runtime {
namespace {

struct TestMsg final : Message {
  std::size_t size;
  explicit TestMsg(std::size_t s) : size(s) {}
  std::size_t wire_size() const override { return size; }
  const char* name() const override { return "Test"; }
};

class Recorder final : public Actor {
 public:
  void on_message(NodeId, const MsgPtr&) override { ++received; }
  std::size_t received = 0;
};

// 1 MB/s links so a 1000-byte message (936 + 64 overhead) takes 1 ms.
NodeConfig slow_node() {
  NodeConfig cfg;
  cfg.up_bw = 1e6;
  cfg.down_bw = 1e6;
  return cfg;
}

constexpr std::size_t kBody = 1000 - Runtime::kTransportOverhead;

/// Longer than any delivery in these tests takes to settle.
constexpr SimTime kSettle = seconds(60);

struct NetFixture {
  SimRuntime net{LatencyMatrix::uniform(1, milliseconds(10))};
  void run() { net.run_until(net.now() + kSettle); }
};

TEST(NetworkFaults, DropFilterCountsDroppedMessages) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec;
  f.net.attach(b, &rec);
  f.net.set_drop_filter(
      [](NodeId, NodeId to, const Message&) { return to == 1; });

  for (int i = 0; i < 5; ++i) {
    f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  }
  f.run();
  EXPECT_EQ(rec.received, 0u);
  EXPECT_EQ(f.net.stats(a).messages_dropped, 5u);
  // Dropped messages never made it onto the wire.
  EXPECT_EQ(f.net.stats(a).messages_sent, 0u);
  EXPECT_EQ(f.net.stats(a).bytes_sent, 0u);
}

TEST(NetworkFaults, SelectiveDropFilterOnlyCountsMatches) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  const NodeId c = f.net.add_node(slow_node());
  Recorder rb, rc;
  f.net.attach(b, &rb);
  f.net.attach(c, &rc);
  f.net.set_drop_filter(
      [&](NodeId, NodeId to, const Message&) { return to == b; });

  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.net.send(a, c, std::make_shared<TestMsg>(kBody));
  f.run();
  EXPECT_EQ(rb.received, 0u);
  EXPECT_EQ(rc.received, 1u);
  EXPECT_EQ(f.net.stats(a).messages_dropped, 1u);
  EXPECT_EQ(f.net.stats(a).messages_sent, 1u);
}

TEST(NetworkFaults, DownDestinationCountsDropAtSender) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec;
  f.net.attach(b, &rec);

  f.net.set_node_down(b, true);
  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  EXPECT_EQ(rec.received, 0u);
  EXPECT_EQ(f.net.stats(a).messages_dropped, 1u);

  // Back up: traffic flows and the drop counter stays put.
  f.net.set_node_down(b, false);
  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  EXPECT_EQ(rec.received, 1u);
  EXPECT_EQ(f.net.stats(a).messages_dropped, 1u);
}

TEST(NetworkFaults, DownSourceCountsOwnSendsAsDropped) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec;
  f.net.attach(b, &rec);

  f.net.set_node_down(a, true);
  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  EXPECT_EQ(rec.received, 0u);
  EXPECT_EQ(f.net.stats(a).messages_dropped, 1u);
  EXPECT_EQ(f.net.stats(a).messages_sent, 0u);
}

TEST(NetworkFaults, UplinkBacklogGrowsWithQueuedSendsAndDrains) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec;
  f.net.attach(b, &rec);

  EXPECT_EQ(f.net.uplink_backlog(a), 0);
  // Five 1 ms transmissions queue FIFO on the uplink.
  for (int i = 0; i < 5; ++i) {
    f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  }
  EXPECT_EQ(f.net.uplink_backlog(a), milliseconds(5));
  f.run();
  EXPECT_EQ(rec.received, 5u);
  EXPECT_EQ(f.net.uplink_backlog(a), 0);
}

TEST(NetworkFaults, EngineBackpressureShedsClientLoad) {
  using namespace predis::consensus;
  NetFixture f;
  std::vector<NodeId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(f.net.add_node(slow_node()));

  ConsensusConfig ccfg;
  ccfg.nodes = ids;
  ccfg.f = 1;
  std::vector<PublicKey> keys;
  for (NodeId id : ids) keys.push_back(KeyPair::from_seed(id).public_key());

  consensus::predis::PredisConfig pcfg;
  pcfg.bundle_size = 8;
  NodeContext ctx(f.net, ids[0], ccfg);
  consensus::predis::PredisEngine engine(ctx, pcfg, keys,
                                         KeyPair::from_seed(ids[0]));
  std::size_t produced = 0;
  engine.on_bundle_produced = [&](const Bundle&) { ++produced; };

  std::uint64_t next_seq = 0;
  auto batch = [&] {
    std::vector<Transaction> txs;
    for (std::size_t i = 0; i < pcfg.bundle_size; ++i) {
      Transaction tx;
      tx.client = 99;
      tx.seq = next_seq;
      tx.payload_seed = next_seq++;
      txs.push_back(tx);
    }
    return txs;
  };

  // Idle uplink: a full bundle's worth of transactions packs eagerly.
  engine.enqueue(batch());
  EXPECT_EQ(produced, 1u);

  // Saturate the uplink far past the backpressure threshold; the
  // engine must shed the new batch instead of queueing it.
  f.net.send(ids[0], ids[1],
             std::make_shared<TestMsg>(static_cast<std::size_t>(
                 to_seconds(pcfg.backpressure + seconds(1)) * 1e6)));
  ASSERT_GT(f.net.uplink_backlog(ids[0]), pcfg.backpressure);
  engine.enqueue(batch());
  EXPECT_EQ(produced, 1u);

  // Once the backlog drains, load is accepted again.
  f.run();
  EXPECT_EQ(f.net.uplink_backlog(ids[0]), 0);
  engine.enqueue(batch());
  EXPECT_EQ(produced, 2u);
}

}  // namespace
}  // namespace predis::runtime
