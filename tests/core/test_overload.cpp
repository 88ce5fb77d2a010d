// Overload plateau regressions: past the ~20 k tx/s LAN knee, the
// shared-mempool protocols must level off instead of collapsing. Before
// confirmation-bounded admission, P-PBFT committed 4.3 k tx/s at 40 k
// offered and P-HS/Narwhal/Stratus 0.6-2.0 k, with no latency samples.
// `ctest -L overload` runs exactly these.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace predis::core {
namespace {

// The `predis-sim cluster --duration 8` shape: LAN, 4 nodes, 8 clients,
// the first third of the run is warmup.
ClusterConfig overload_config(Protocol protocol, double load) {
  ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n_consensus = 4;
  cfg.f = 1;
  cfg.wan = false;
  cfg.offered_load_tps = load;
  cfg.n_clients = 8;
  cfg.duration = seconds(8);
  cfg.warmup = cfg.duration / 3;
  return cfg;
}

TEST(OverloadPlateau, PPbftHoldsTheKneeAt30k) {
  const ClusterResult r =
      run_cluster(overload_config(Protocol::kPredisPbft, 30'000));
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.ledgers_consistent);
  EXPECT_GE(r.throughput_tps, 18'000.0);
  ASSERT_GT(r.latency_samples, 0u);
  EXPECT_LE(r.p99_latency_ms, 1'500.0);
  // The unconfirmed cap is the rule doing the work.
  EXPECT_GT(r.shed_unconfirmed_txs, 0u);
}

class OverloadPlateauAt40k : public ::testing::TestWithParam<Protocol> {};

TEST_P(OverloadPlateauAt40k, CommitsAtLeast14k) {
  const ClusterResult r = run_cluster(overload_config(GetParam(), 40'000));
  EXPECT_TRUE(r.consistent) << to_string(GetParam());
  EXPECT_TRUE(r.ledgers_consistent) << to_string(GetParam());
  EXPECT_GE(r.throughput_tps, 14'000.0) << to_string(GetParam());
  EXPECT_GT(r.latency_samples, 0u) << to_string(GetParam());
  EXPECT_GT(r.shed_unconfirmed_txs, 0u) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    SharedMempool, OverloadPlateauAt40k,
    ::testing::Values(Protocol::kPredisHotStuff, Protocol::kNarwhal,
                      Protocol::kStratus),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace predis::core
