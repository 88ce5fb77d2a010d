// Conservation and ordering properties of the network model.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "runtime/sim_runtime.hpp"

namespace predis::runtime {
namespace {

struct SizedMsg final : Message {
  std::size_t size;
  explicit SizedMsg(std::size_t s) : size(s) {}
  std::size_t wire_size() const override { return size; }
  const char* name() const override { return "Sized"; }
};

class Counter final : public Actor {
 public:
  explicit Counter(const Runtime& net) : net_(net) {}
  void on_message(NodeId, const MsgPtr&) override {
    ++received;
    last_at = net_.now();
  }
  std::size_t received = 0;
  SimTime last_at = 0;

 private:
  const Runtime& net_;
};

/// Far past the last delivery of every test here.
constexpr SimTime kHorizon = seconds(60);

class NetworkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkProperty, BytesAreConserved) {
  SimRuntime net(LatencyMatrix::uniform(1, milliseconds(3)));
  Rng rng(GetParam());

  const std::size_t n = 5;
  std::vector<NodeId> ids;
  std::vector<std::unique_ptr<Counter>> actors;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(net.add_node(NodeConfig{}));
    actors.push_back(std::make_unique<Counter>(net));
    net.attach(ids[i], actors.back().get());
  }

  std::size_t sent = 0;
  for (int k = 0; k < 200; ++k) {
    const NodeId from = ids[rng.next_below(n)];
    NodeId to = from;
    while (to == from) to = ids[rng.next_below(n)];
    net.send(from, to, std::make_shared<SizedMsg>(rng.next_below(5000)));
    ++sent;
  }
  net.run_until(kHorizon);

  std::uint64_t bytes_out = 0, bytes_in = 0;
  std::size_t msgs_in = 0;
  for (NodeId id : ids) {
    bytes_out += net.stats(id).bytes_sent;
    bytes_in += net.stats(id).bytes_received;
    msgs_in += net.stats(id).messages_received;
  }
  // No loss configured: everything sent is delivered, byte for byte.
  EXPECT_EQ(bytes_out, bytes_in);
  EXPECT_EQ(msgs_in, sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(NetworkProperty, PerPairDeliveryIsFifo) {
  // Messages between one (sender, receiver) pair arrive in send order
  // even with mixed sizes (cut-through still serializes the uplink).
  SimRuntime net(LatencyMatrix::uniform(1, milliseconds(5)));
  const NodeId a = net.add_node(NodeConfig{});
  const NodeId b = net.add_node(NodeConfig{});

  struct SeqMsg final : Message {
    int seq;
    std::size_t size;
    SeqMsg(int s, std::size_t sz) : seq(s), size(sz) {}
    std::size_t wire_size() const override { return size; }
    const char* name() const override { return "Seq"; }
  };
  class OrderCheck final : public Actor {
   public:
    void on_message(NodeId, const MsgPtr& msg) override {
      const auto& m = dynamic_cast<const SeqMsg&>(*msg);
      order.push_back(m.seq);
    }
    std::vector<int> order;
  };
  OrderCheck check;
  net.attach(b, &check);

  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    net.send(a, b, std::make_shared<SeqMsg>(i, 100 + rng.next_below(90000)));
  }
  net.run_until(kHorizon);
  ASSERT_EQ(check.order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(check.order[i], i);
}

TEST(NetworkProperty, BacklogReflectsQueuedBytes) {
  SimRuntime net(LatencyMatrix::uniform(1, 0));
  NodeConfig slow;
  slow.up_bw = 1e6;  // 1 MB/s
  const NodeId a = net.add_node(slow);
  const NodeId b = net.add_node(NodeConfig{});
  Counter counter(net);
  net.attach(b, &counter);

  EXPECT_EQ(net.uplink_backlog(a), 0);
  // ~2 MB queued on a 1 MB/s uplink = ~2 s of backlog.
  net.send(a, b, std::make_shared<SizedMsg>(2'000'000));
  const SimTime backlog = net.uplink_backlog(a);
  EXPECT_GT(backlog, milliseconds(1900));
  EXPECT_LT(backlog, milliseconds(2100));
  net.run_until(kHorizon);
  EXPECT_EQ(net.uplink_backlog(a), 0);
}

TEST(NetworkProperty, UplinkFigureNeverExceedsCapacity) {
  // ~2 MB on a 1 MB/s (8 Mbps) uplink, read 1 s in: dividing by the
  // elapsed time alone would report 16 Mbps.
  SimRuntime net(LatencyMatrix::uniform(1, 0));
  NodeConfig slow;
  slow.up_bw = 1e6;
  const NodeId a = net.add_node(slow);
  const NodeId b = net.add_node(NodeConfig{});
  Counter counter(net);
  net.attach(b, &counter);

  net.send(a, b, std::make_shared<SizedMsg>(2'000'000));
  net.run_until(seconds(1));
  EXPECT_NEAR(mean_uplink_mbps(net, {a}), 8.0, 1e-6);
  // Read again the instant the last of the 2,000,064 wire bytes leaves.
  net.run_until(microseconds(2'000'064));
  EXPECT_EQ(counter.received, 1u);
  EXPECT_NEAR(mean_uplink_mbps(net, {a}), 8.0, 1e-6);
  EXPECT_NEAR(mean_uplink_mbps(net, {a, b}), 4.0, 1e-6);  // b sent nothing
}

}  // namespace
}  // namespace predis::runtime
