#include "core/adversary.hpp"

#include <memory>

#include "bundle/bundle.hpp"
#include "common/codec.hpp"
#include "common/sha256.hpp"
#include "consensus/hotstuff/hotstuff_core.hpp"
#include "consensus/narwhal/shared_mempool.hpp"
#include "consensus/payloads.hpp"
#include "consensus/pbft/pbft_core.hpp"
#include "consensus/predis/messages.hpp"
#include "multizone/messages.hpp"

namespace predis::core {

using namespace predis::consensus;

const char* to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kNone:
      return "none";
    case AttackKind::kEquivocate:
      return "equivocate";
    case AttackKind::kWithhold:
      return "withhold";
    case AttackKind::kThrottle:
      return "throttle";
    case AttackKind::kGarbage:
      return "garbage";
    case AttackKind::kChurnStorm:
      return "churn-storm";
  }
  return "?";
}

std::optional<AttackKind> attack_from_flag(const std::string& flag) {
  for (std::size_t i = 0; i < kAttackKindCount; ++i) {
    const auto kind = static_cast<AttackKind>(i);
    if (flag == to_string(kind)) return kind;
  }
  if (flag == "churn") return AttackKind::kChurnStorm;
  return std::nullopt;
}

void configure_attack(runtime::FaultPlanConfig& plan, AttackKind attack,
                      std::size_t events) {
  plan.crashes = false;
  plan.pair_partitions = false;
  plan.zone_partitions = false;
  plan.jitter = false;
  plan.drops = false;
  plan.equivocation = false;
  plan.throttle = false;
  plan.withhold = false;
  plan.garbage = false;
  plan.churn_storms = false;
  plan.events = events;
  plan.pin_node = static_cast<std::size_t>(-1);
  switch (attack) {
    case AttackKind::kNone:
      plan.events = 0;
      break;
    case AttackKind::kEquivocate:
      plan.equivocation = true;
      plan.pin_node = 0;
      break;
    case AttackKind::kWithhold:
      plan.withhold = true;
      plan.pin_node = 0;
      break;
    case AttackKind::kThrottle:
      plan.throttle = true;
      plan.pin_node = 0;
      break;
    case AttackKind::kGarbage:
      plan.garbage = true;
      plan.pin_node = 0;
      break;
    case AttackKind::kChurnStorm:
      plan.churn_storms = true;
      break;
  }
}

namespace {

/// Deterministic junk digest derived from a nonce.
Hash32 junk_hash(std::uint64_t nonce) {
  Writer w;
  w.u64(0xbadc0de5ULL);
  w.u64(nonce);
  return Sha256::hash(BytesView{w.data()});
}

Transaction junk_tx(std::uint64_t nonce) {
  Transaction tx;
  tx.client = kNoNode;
  tx.seq = nonce;
  tx.size = 64;
  tx.payload_seed = 0xbad00000ULL + nonce;
  return tx;
}

/// A bundle nobody signed: its signature verifies against no registered
/// key, exactly like attacker-fabricated bytes on a real wire.
Bundle unsigned_bundle(NodeId claimed_producer, BundleHeight height,
                       std::size_t n, std::uint64_t nonce) {
  Bundle b;
  b.header.producer = claimed_producer;
  b.header.height = height;
  b.header.parent_hash = junk_hash(nonce);
  b.header.tip_list.assign(n, height);
  b.txs = {junk_tx(nonce)};
  b.header.tx_root = Bundle::tx_root_of(b.txs);
  return b;
}

/// Absurd-but-in-range sequence/round base, far above anything a run
/// legitimately reaches yet far from integer overflow.
constexpr std::uint64_t kAbsurd = 1ULL << 40;

}  // namespace

HostileInjector::HostileInjector(runtime::Runtime& net, Protocol protocol,
                                 std::vector<NodeId> group)
    : net_(&net), protocol_(protocol), group_(std::move(group)) {}

std::size_t HostileInjector::index_of(NodeId id) const {
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (group_[i] == id) return i;
  }
  return group_.size();
}

void HostileInjector::shoot(NodeId from, NodeId to, runtime::MsgPtr msg) {
  net_->send(from, to, std::move(msg));
  ++injected_;
}

std::size_t HostileInjector::burst(NodeId attacker) {
  const std::size_t self = index_of(attacker);
  if (self == group_.size() || group_.size() < 2) return 0;
  const std::size_t before = injected_;
  const std::uint64_t nonce = ++nonce_;
  const std::size_t n = group_.size();
  // Deterministic victim rotation, never the attacker itself.
  auto victim = [&](std::uint64_t k) {
    std::size_t v = static_cast<std::size_t>((nonce + k) % n);
    if (v == self) v = (v + 1) % n;
    return v;
  };

  const bool predis_family = protocol_ == Protocol::kPredisPbft ||
                             protocol_ == Protocol::kPredisHotStuff;
  const bool pbft_family =
      protocol_ == Protocol::kPbft || protocol_ == Protocol::kPredisPbft;
  const bool hs_family = !pbft_family;  // HotStuff-cored engines.

  if (predis_family) {
    // Signed bundle at an absurd height: a Byzantine producer really
    // can sign any header it likes — receivers buffer it as
    // missing-parent and must not let the fetch machinery explode.
    {
      auto msg = std::make_shared<predis::BundleMsg>();
      msg->bundle = make_bundle(
          attacker, kAbsurd + nonce, junk_hash(nonce),
          std::vector<BundleHeight>(n, kAbsurd + nonce), {junk_tx(nonce)},
          KeyPair::from_seed(attacker));
      shoot(attacker, group_[victim(0)], std::move(msg));
    }
    // Fetch for a chain id that does not exist.
    {
      auto msg = std::make_shared<predis::BundleFetchMsg>();
      msg->refs.push_back(
          MissingBundleRef{static_cast<NodeId>(0xbad0bad0u), kAbsurd});
      msg->refs.push_back(MissingBundleRef{attacker, kAbsurd + nonce});
      shoot(attacker, group_[victim(1)], std::move(msg));
    }
    // Unsolicited batch of bundles nobody signed.
    {
      auto msg = std::make_shared<predis::BundleBatchMsg>();
      msg->bundles.push_back(
          unsigned_bundle(group_[victim(2)], 1 + nonce, n, nonce));
      shoot(attacker, group_[victim(2)], std::move(msg));
    }
    // Fabricated equivocation evidence against an honest producer: the
    // headers are unsigned, so verification must fail and nobody bans.
    {
      auto msg = std::make_shared<predis::ConflictMsg>();
      const NodeId framed = group_[victim(3)];
      msg->evidence.first =
          unsigned_bundle(framed, 1, n, nonce).header;
      msg->evidence.second =
          unsigned_bundle(framed, 1, n, nonce + 1).header;
      shoot(attacker, group_[victim(0)], std::move(msg));
    }
  }

  if (pbft_family) {
    // Votes for a slot far beyond any watermark.
    {
      auto msg = std::make_shared<pbft::PrepareMsg>();
      msg->view = 0;
      msg->seq = kAbsurd + nonce;
      msg->digest = junk_hash(nonce);
      shoot(attacker, group_[victim(0)], std::move(msg));
    }
    {
      auto msg = std::make_shared<pbft::CommitMsg>();
      msg->view = 0;
      msg->seq = kAbsurd + nonce;
      msg->digest = junk_hash(nonce + 1);
      shoot(attacker, group_[victim(1)], std::move(msg));
    }
    // Checkpoint claim for state nobody reached.
    {
      auto msg = std::make_shared<pbft::CheckpointMsg>();
      msg->seq = kAbsurd + nonce;
      msg->digest = junk_hash(nonce + 2);
      shoot(attacker, group_[victim(2)], std::move(msg));
    }
    // View change into a far-future view, carrying a "prepared" entry
    // with no prepare certificate behind it (proof = 0 — an attacker
    // cannot forge a quorum's worth of prepare signatures).
    {
      auto msg = std::make_shared<pbft::ViewChangeMsg>();
      msg->new_view = kAbsurd + nonce;
      msg->last_exec = kAbsurd;
      pbft::ViewChangeMsg::Prepared junk;
      junk.view = kAbsurd;
      junk.seq = kAbsurd + nonce;
      junk.payload = std::make_shared<TxBatchPayload>(
          std::vector<Transaction>{junk_tx(nonce)});
      msg->prepared.push_back(std::move(junk));
      shoot(attacker, group_[victim(3)], std::move(msg));
    }
    // Uncertified snapshot: must be rejected against checkpoint certs.
    {
      auto msg = std::make_shared<pbft::StateSnapshotMsg>();
      msg->seq = kAbsurd + nonce;
      msg->digest = junk_hash(nonce + 3);
      msg->blob = Bytes{0xba, 0xdb, 0x10, 0xb5};
      shoot(attacker, group_[victim(0)], std::move(msg));
    }
  }

  if (hs_family) {
    // NewView carrying a QC whose aggregate signature does not verify
    // (modeled: signers below quorum). If accepted it would poison
    // high_qc with an unreachable round forever.
    {
      auto msg = std::make_shared<hotstuff::NewViewMsg>();
      msg->round = kAbsurd + nonce;
      msg->high_qc =
          hotstuff::QuorumCert{kAbsurd + nonce, junk_hash(nonce), 0};
      shoot(attacker, group_[victim(0)], std::move(msg));
    }
    // Vote for a block hash nobody proposed, in a far-future round.
    {
      auto msg = std::make_shared<hotstuff::VoteMsg>();
      msg->round = kAbsurd + nonce;
      msg->block_hash = junk_hash(nonce + 1);
      shoot(attacker, group_[victim(1)], std::move(msg));
    }
    // Proposal for a round the attacker legitimately leads (round
    // chosen so leader_index(round, n) == attacker), justified by a
    // forged QC — the QC check, not the leader check, must refuse it.
    if (protocol_ == Protocol::kHotStuff) {
      const hotstuff::Round round = (kAbsurd + nonce) * n + self;
      auto msg = std::make_shared<hotstuff::ProposalMsg>();
      msg->block = hotstuff::make_block(
          round, junk_hash(nonce),
          hotstuff::QuorumCert{round - 1, junk_hash(nonce), 0},
          std::make_shared<TxBatchPayload>(
              std::vector<Transaction>{junk_tx(nonce)}));
      shoot(attacker, group_[victim(2)], std::move(msg));
    }
  }

  if (protocol_ == Protocol::kNarwhal || protocol_ == Protocol::kStratus) {
    // Impersonation: a microblock claiming another producer's chain.
    {
      auto msg = std::make_shared<narwhal::MicroblockMsg>();
      msg->mb.producer = static_cast<NodeId>(victim(0));
      msg->mb.index = nonce;
      msg->mb.txs = {junk_tx(nonce)};
      shoot(attacker, group_[victim(1)], std::move(msg));
    }
    // Producer index outside the group entirely.
    {
      auto msg = std::make_shared<narwhal::MicroblockMsg>();
      msg->mb.producer = static_cast<NodeId>(0xbad0bad0u);
      msg->mb.index = kAbsurd + nonce;
      msg->mb.txs = {junk_tx(nonce + 1)};
      shoot(attacker, group_[victim(2)], std::move(msg));
    }
    // Availability certificate with no acks behind it (signers = 0: a
    // forged aggregate signature verifies for nobody).
    {
      auto msg = std::make_shared<narwhal::MbCertMsg>();
      msg->ref = narwhal::MicroblockRef{static_cast<NodeId>(victim(0)),
                                        kAbsurd + nonce, junk_hash(nonce)};
      msg->signers = 0;
      shoot(attacker, group_[victim(3)], std::move(msg));
    }
    // Certificate naming a producer outside the group.
    {
      auto msg = std::make_shared<narwhal::MbCertMsg>();
      msg->ref = narwhal::MicroblockRef{static_cast<NodeId>(0xbad0bad0u),
                                        nonce, junk_hash(nonce + 2)};
      msg->signers = 0;
      shoot(attacker, group_[victim(0)], std::move(msg));
    }
    // Ack for a microblock the victim never produced.
    {
      auto msg = std::make_shared<narwhal::MbAckMsg>();
      msg->ref = narwhal::MicroblockRef{static_cast<NodeId>(victim(1)),
                                        kAbsurd + nonce, junk_hash(nonce)};
      shoot(attacker, group_[victim(1)], std::move(msg));
    }
    // Unsolicited batch: a microblock whose content does not hash to
    // any id the receiver asked for (transaction substitution).
    {
      auto msg = std::make_shared<narwhal::MbBatchMsg>();
      narwhal::Microblock sub;
      sub.producer = static_cast<NodeId>(victim(2));
      sub.index = 0;
      sub.txs = {junk_tx(nonce + 3)};
      msg->mbs.push_back(std::move(sub));
      shoot(attacker, group_[victim(2)], std::move(msg));
    }
    // Fetch for refs that cannot exist.
    {
      auto msg = std::make_shared<narwhal::MbFetchMsg>();
      msg->refs.push_back(narwhal::MicroblockRef{
          static_cast<NodeId>(0xbad0bad0u), kAbsurd, junk_hash(nonce)});
      shoot(attacker, group_[victim(3)], std::move(msg));
    }
  }

  return injected_ - before;
}

std::size_t hostile_gossip_burst(runtime::Runtime& net, NodeId attacker,
                                 const std::vector<NodeId>& peers,
                                 std::size_t n_consensus,
                                 std::uint64_t nonce) {
  std::size_t sent = 0;
  auto shoot = [&](NodeId to, runtime::MsgPtr msg) {
    if (to == attacker) return;
    net.send(attacker, to, std::move(msg));
    ++sent;
  };
  if (peers.empty()) return 0;
  auto peer = [&](std::uint64_t k) {
    return peers[static_cast<std::size_t>((nonce + k) % peers.size())];
  };

  // Stripe with an absurd stripe index and an unsigned header: index
  // bounds and header signature must both be checked before use.
  {
    auto msg = std::make_shared<multizone::StripeMsg>();
    msg->header = unsigned_bundle(static_cast<NodeId>(0xbad0bad0u),
                                  kAbsurd + nonce, n_consensus, nonce)
                      .header;
    msg->index = static_cast<multizone::StripeIndex>(1'000'000 + nonce);
    msg->body_bytes = 64;
    msg->proof_bytes = 32;
    shoot(peer(0), std::move(msg));
  }
  // Referral to a child node id that does not exist: following it
  // blindly would address a nonexistent network node.
  {
    auto msg = std::make_shared<multizone::RejectSubscribeMsg>();
    msg->stripes = {0};
    msg->children = {static_cast<NodeId>(0xbad5eedu),
                     static_cast<NodeId>(0xbad5eeeu)};
    shoot(peer(1), std::move(msg));
  }
  // Pushed bundle that verifies against nothing.
  {
    auto msg = std::make_shared<multizone::BundlePushMsg>();
    msg->bundles.push_back(
        unsigned_bundle(static_cast<NodeId>(nonce % n_consensus),
                        kAbsurd + nonce, n_consensus, nonce));
    shoot(peer(2), std::move(msg));
  }
  // Lying digest: claims absurd heights on every chain, and a second
  // one whose chain count does not match the cluster at all.
  {
    auto msg = std::make_shared<multizone::DigestMsg>();
    msg->heights.assign(n_consensus, kAbsurd + nonce);
    shoot(peer(3), std::move(msg));
  }
  {
    auto msg = std::make_shared<multizone::DigestMsg>();
    msg->heights.assign(n_consensus + 7, kAbsurd);
    shoot(peer(4), std::move(msg));
  }
  // Subscription to stripe streams that do not exist.
  {
    auto msg = std::make_shared<multizone::SubscribeMsg>();
    msg->stripes = {static_cast<multizone::StripeIndex>(7'000'000 + nonce),
                    static_cast<multizone::StripeIndex>(0xffffffffu)};
    shoot(peer(5), std::move(msg));
  }
  // Pull for bundle refs on chains that do not exist.
  {
    auto msg = std::make_shared<multizone::BundlePullMsg>();
    msg->refs.push_back(
        MissingBundleRef{static_cast<NodeId>(0xbad0bad0u), kAbsurd});
    shoot(peer(6), std::move(msg));
  }
  // Relayer advertisement for absurd stripe streams (about itself, so
  // the identity is genuine — the stripe set is the lie).
  {
    auto msg = std::make_shared<multizone::RelayerAliveMsg>();
    msg->relayer = attacker;
    msg->relayed = {static_cast<multizone::StripeIndex>(9'000'000 + nonce)};
    msg->join_time = 0;
    shoot(peer(0), std::move(msg));
  }
  return sent;
}

}  // namespace predis::core
