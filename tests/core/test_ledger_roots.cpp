// Each node's ledger records, for every block it executes, a
// transaction root it already holds: the Predis block's own root (when
// the local cut tips match the block), a batch payload's digest, or one
// computed at commit. These tests pin that the recorded root is still
// the Merkle root over the transactions that node actually executed —
// in 4-node clusters of all six protocols, steady, through a
// crash-restart with catch-up, and through a leader-crash view change.
//
// A node's executed transactions are observed from outside: every node
// acknowledges the transactions of the clients it serves (client id ≡
// node index mod n, ReplyManager) with one reply per executed block, in
// execution order. A single client whose id maps to the observed node
// therefore sees every transaction that node executed, block by block.
#include <gtest/gtest.h>

#include <map>

#include "../consensus/cluster.hpp"
#include "core/experiment.hpp"
#include "core/ledger.hpp"

namespace predis::core {
namespace {

using consensus::testing::cluster_config;
using consensus::testing::TestCluster;

enum class Scenario { kSteady, kCrashRestart, kLeaderCrash };

constexpr std::size_t kN = 4;
constexpr std::size_t kF = 1;
// A 200 ms outage: the restarted node catches up on the blocks it
// missed and executes some of them (a longer one sends plain PBFT into a
// restart it never recovers from, see ROADMAP item 1).
constexpr SimTime kRestartAt = milliseconds(1000);

struct RootCluster {
  RootCluster(Protocol protocol, std::size_t observed)
      : cluster(kN, kF), ledgers(kN) {
    const ClusterConfig cfg = cluster_config(protocol, kN, kF);
    const auto& ids = cluster.consensus_ids();
    for (std::size_t i = 0; i < kN; ++i) {
      auto& ledger = ledgers[i];
      auto record = [&ledger](const Hash32& digest, const Hash32& tx_root,
                              std::size_t tx_count, SimTime when) {
        ledger.append_block(digest, tx_root, tx_count, when);
      };
      cluster.nodes.push_back(make_consensus_node(
          cfg, i, cluster.context(i), cluster.keys, cluster.ledger, nullptr,
          record));
    }
    // Pad the id space so the client's id maps to the observed node.
    NodeId pad = cluster.net().add_node(runtime::node_100mbps(0));
    while ((pad + 1) % kN != observed) {
      pad = cluster.net().add_node(runtime::node_100mbps(0));
    }
    // Node 1 is never crashed below, so Predis-style load keeps flowing.
    const std::vector<NodeId> targets =
        clients_broadcast(protocol) ? ids : std::vector<NodeId>{ids[1]};
    client = cluster.add_client(targets, 1500, seconds(3))->id();
    const NodeId observed_id = ids[observed];
    cluster.net().set_drop_filter([this, observed_id](
                                      NodeId from, NodeId to,
                                      const runtime::Message& msg) {
      if (from == client) {
        if (const auto* req = dynamic_cast<const ClientRequestMsg*>(&msg)) {
          for (const auto& tx : req->txs) submitted[tx.seq] = tx;
        }
      } else if (from == observed_id && to == client) {
        if (const auto* rep = dynamic_cast<const ClientReplyMsg*>(&msg)) {
          replies.push_back(rep->seqs);
        }
      }
      return false;
    });
  }

  void run(Scenario scenario) {
    cluster.net().start();
    const auto outage = [this](std::size_t node, SimTime down, SimTime up) {
      const NodeId id = cluster.consensus_ids()[node];
      cluster.net().run_until(down);
      cluster.net().set_node_down(id, true);
      if (up > 0) {
        cluster.net().run_until(up);
        cluster.net().set_node_down(id, false);
      }
    };
    if (scenario == Scenario::kCrashRestart) {
      outage(3, milliseconds(800), kRestartAt);
    } else if (scenario == Scenario::kLeaderCrash) {
      outage(0, milliseconds(800), 0);  // never returns
    }
    cluster.net().run_until(seconds(5));
  }

  TestCluster cluster;
  std::vector<Ledger> ledgers;
  NodeId client = kNoNode;
  std::map<TxSeq, Transaction> submitted;
  std::vector<std::vector<TxSeq>> replies;  ///< Observed node, in order.
};

class LedgerRoots
    : public ::testing::TestWithParam<std::tuple<Protocol, Scenario>> {};

TEST_P(LedgerRoots, RecordTheRootOfWhatEachNodeExecuted) {
  const auto [protocol, scenario] = GetParam();
  for (std::size_t observed = 0; observed < kN; ++observed) {
    SCOPED_TRACE("observed node " + std::to_string(observed));
    RootCluster rc(protocol, observed);
    rc.run(scenario);
    const Ledger& ledger = rc.ledgers[observed];
    ASSERT_TRUE(ledger.verify_chain());

    std::size_t next_reply = 0;
    std::size_t executed_txs = 0;
    std::size_t executed_after_restart = 0;
    for (BlockHeight h = 1; h <= ledger.size(); ++h) {
      const LedgerEntry& e = *ledger.at(h);
      if (e.tx_count == 0) {
        EXPECT_EQ(e.tx_root, kZeroHash) << "height " << h;
        continue;
      }
      ASSERT_LT(next_reply, rc.replies.size()) << "height " << h;
      std::vector<Transaction> txs;
      for (TxSeq seq : rc.replies[next_reply++]) {
        ASSERT_EQ(rc.submitted.count(seq), 1u);
        txs.push_back(rc.submitted.at(seq));
      }
      EXPECT_EQ(e.tx_count, txs.size()) << "height " << h;
      EXPECT_EQ(e.tx_root, tx_merkle_root(txs)) << "height " << h;
      executed_txs += txs.size();
      if (e.committed_at >= kRestartAt) executed_after_restart += txs.size();
    }
    EXPECT_EQ(next_reply, rc.replies.size());
    // The observed node executed a real share of the 4500 offered
    // transactions: the leader that crashed for good only up to its
    // crash, the restarted node also after catching up.
    const bool crashed_for_good =
        scenario == Scenario::kLeaderCrash && observed == 0;
    EXPECT_GT(executed_txs, crashed_for_good ? 100u : 1000u);
    if (scenario == Scenario::kCrashRestart && observed == 3) {
      EXPECT_GT(executed_after_restart, 100u);
    }
  }
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<Protocol, Scenario>>& info) {
  static const char* const kProtocols[] = {"Pbft",      "HotStuff",
                                           "PredisPbft", "PredisHotStuff",
                                           "Narwhal",   "Stratus"};
  static const char* const kScenarios[] = {"Steady", "CrashRestart",
                                           "LeaderCrash"};
  return std::string(kProtocols[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kScenarios[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, LedgerRoots,
    ::testing::Combine(
        ::testing::Values(Protocol::kPbft, Protocol::kHotStuff,
                          Protocol::kPredisPbft, Protocol::kPredisHotStuff,
                          Protocol::kNarwhal, Protocol::kStratus),
        ::testing::Values(Scenario::kSteady, Scenario::kCrashRestart,
                          Scenario::kLeaderCrash)),
    case_name);

}  // namespace
}  // namespace predis::core
