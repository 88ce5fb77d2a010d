// The deterministic backend's fluid network model, driven through
// SimRuntime.
#include "runtime/sim_runtime.hpp"

#include <gtest/gtest.h>

#include "runtime/environments.hpp"

namespace predis::runtime {
namespace {

/// Message with an exact wire size (excluding transport overhead).
struct TestMsg final : Message {
  std::size_t size;
  explicit TestMsg(std::size_t s) : size(s) {}
  std::size_t wire_size() const override { return size; }
  const char* name() const override { return "Test"; }
};

/// Records every delivery with its timestamp.
class Recorder final : public Actor {
 public:
  explicit Recorder(const Runtime& net) : net_(net) {}
  void on_message(NodeId from, const MsgPtr&) override {
    deliveries.emplace_back(from, net_.now());
  }
  std::vector<std::pair<NodeId, SimTime>> deliveries;

 private:
  const Runtime& net_;
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
  SimRuntime net{LatencyMatrix::uniform(1, milliseconds(100))};
  void run() { net.run_until(net.now() + kSettle); }
};

TEST(Network, SingleTransferTiming) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec(f.net);
  f.net.attach(b, &rec);

  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  // Idle symmetric links: serialization (1 ms) + propagation (100 ms).
  ASSERT_EQ(rec.deliveries.size(), 1u);
  EXPECT_EQ(rec.deliveries[0].second, milliseconds(101));
}

TEST(Network, UplinkSerializesConsecutiveSends) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec(f.net);
  f.net.attach(b, &rec);

  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  ASSERT_EQ(rec.deliveries.size(), 2u);
  EXPECT_EQ(rec.deliveries[0].second, milliseconds(101));
  EXPECT_EQ(rec.deliveries[1].second, milliseconds(102));
}

TEST(Network, DownlinkContentionQueuesInboundFlows) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  const NodeId c = f.net.add_node(slow_node());
  Recorder rec(f.net);
  f.net.attach(c, &rec);

  f.net.send(a, c, std::make_shared<TestMsg>(kBody));
  f.net.send(b, c, std::make_shared<TestMsg>(kBody));
  f.run();
  ASSERT_EQ(rec.deliveries.size(), 2u);
  EXPECT_EQ(rec.deliveries[0].second, milliseconds(101));
  // The second flow queues behind the first on c's downlink.
  EXPECT_EQ(rec.deliveries[1].second, milliseconds(102));
}

TEST(Network, MulticastCostsOneTransmissionPerReceiver) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  const NodeId c = f.net.add_node(slow_node());
  Recorder rb(f.net), rc(f.net);
  f.net.attach(b, &rb);
  f.net.attach(c, &rc);

  f.net.multicast(a, {a, b, c}, std::make_shared<TestMsg>(kBody));
  f.run();
  ASSERT_EQ(rb.deliveries.size(), 1u);
  ASSERT_EQ(rc.deliveries.size(), 1u);
  // Self is skipped; two copies serialize on a's uplink.
  EXPECT_EQ(rb.deliveries[0].second, milliseconds(101));
  EXPECT_EQ(rc.deliveries[0].second, milliseconds(102));
  EXPECT_EQ(f.net.stats(a).messages_sent, 2u);
  EXPECT_EQ(f.net.stats(a).bytes_sent, 2000u);
}

TEST(Network, DownNodeSendsAndReceivesNothing) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec(f.net);
  f.net.attach(b, &rec);

  f.net.set_node_down(b, true);
  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  EXPECT_TRUE(rec.deliveries.empty());
  EXPECT_EQ(f.net.stats(a).messages_dropped, 1u);

  f.net.set_node_down(a, true);
  f.net.set_node_down(b, false);
  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  EXPECT_TRUE(rec.deliveries.empty());
}

TEST(Network, DropFilterDropsSelectedMessages) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec(f.net);
  f.net.attach(b, &rec);

  int drops = 0;
  f.net.set_drop_filter([&](NodeId, NodeId, const Message&) {
    return ++drops <= 1;  // drop the first message only
  });
  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  ASSERT_EQ(rec.deliveries.size(), 1u);
}

TEST(Network, ExtraDelayApplies) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec(f.net);
  f.net.attach(b, &rec);

  f.net.set_extra_delay([](NodeId, NodeId) { return milliseconds(50); });
  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  ASSERT_EQ(rec.deliveries.size(), 1u);
  EXPECT_EQ(rec.deliveries[0].second, milliseconds(151));
}

TEST(Network, RegionLatencyMatrixRespected) {
  SimRuntime net(wan_latency());
  NodeConfig fast = node_100mbps(0);
  const NodeId a = net.add_node(fast);              // Ulanqab
  const NodeId b = net.add_node(node_100mbps(1));   // Shanghai
  Recorder rec(net);
  net.attach(b, &rec);

  net.send(a, b, std::make_shared<TestMsg>(0));
  net.run_until(kSettle);
  ASSERT_EQ(rec.deliveries.size(), 1u);
  // 64-byte overhead at 12.5 MB/s is ~5.1 us; latency dominates.
  EXPECT_GT(rec.deliveries[0].second, milliseconds(15));
  EXPECT_LT(rec.deliveries[0].second, milliseconds(16));
}

TEST(Network, StatsTrackBothDirections) {
  NetFixture f;
  const NodeId a = f.net.add_node(slow_node());
  const NodeId b = f.net.add_node(slow_node());
  Recorder rec(f.net);
  f.net.attach(b, &rec);

  f.net.send(a, b, std::make_shared<TestMsg>(kBody));
  f.run();
  EXPECT_EQ(f.net.stats(a).bytes_sent, 1000u);
  EXPECT_EQ(f.net.stats(b).bytes_received, 1000u);
  EXPECT_EQ(f.net.stats(b).messages_received, 1u);
  EXPECT_EQ(f.net.total_bytes_sent(), 1000u);
}

TEST(Network, InvalidConfigRejected) {
  SimRuntime net(LatencyMatrix::uniform(1, 0));
  NodeConfig bad;
  bad.region = 5;
  EXPECT_THROW(net.add_node(bad), std::invalid_argument);
  bad.region = 0;
  bad.up_bw = 0;
  EXPECT_THROW(net.add_node(bad), std::invalid_argument);
}

}  // namespace
}  // namespace predis::runtime
