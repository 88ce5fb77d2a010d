// bench_report — runs the erasure and micro hot-path benchmarks with a
// built-in wall-clock harness and emits machine-readable JSON
// (BENCH_erasure.json, BENCH_micro.json) that seeds the repo's perf
// trajectory. Future PRs regress against these files.
//
// The erasure report carries before/after numbers: every encode shape
// is measured twice, once through the fused-row-kernel path and once
// through a faithful reimplementation of the seed's element-wise
// GF256::mul encoder, so the recorded speedup is measured on the same
// machine at the same moment rather than quoted from an older run.
//
// Usage: bench_report [--smoke] [--out-dir DIR]
//   --smoke    reduced iteration budget (exercises the emitters in CI)
//   --out-dir  directory for the JSON files (default: cwd)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bundle/predis_block.hpp"
#include "common/rng.hpp"
#include "common/sha256_kernels.hpp"
#include "erasure/stripe_codec.hpp"

// Prevents the optimizer from deleting measured work; never read back.
volatile std::size_t benchmark_sink_slot = 0;

namespace {

void benchmark_sink(std::size_t v) { benchmark_sink_slot = v; }

using predis::Bytes;
using predis::BytesView;
using predis::Hash32;
using predis::KeyPair;
using predis::MerkleTree;
using predis::MutBytesView;
using predis::Rng;
using predis::Sha256;
// predis-lint: allow(D2): wall-clock is the point of a host benchmark.
using Clock = std::chrono::steady_clock;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Run `fn` repeatedly for ~`budget_ms` and return seconds per call.
double time_per_call(const std::function<void()>& fn, double budget_ms) {
  fn();  // warm up tables / caches
  std::size_t iters = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed * 1e3 >= budget_ms || iters > (1u << 24)) {
      return elapsed / static_cast<double>(iters);
    }
    // Aim straight at the budget instead of doubling forever.
    const double target = budget_ms / 1e3;
    const std::size_t next =
        elapsed > 0 ? static_cast<std::size_t>(
                          static_cast<double>(iters) * target / elapsed * 1.2)
                    : iters * 2;
    iters = next > iters ? next : iters * 2;
  }
}

/// The seed's element-wise encode path, kept verbatim as the measured
/// baseline: one GF256::mul table lookup per output byte.
std::vector<Bytes> baseline_encode(const predis::erasure::ReedSolomon& rs,
                                   BytesView payload) {
  using predis::erasure::GF;
  using predis::erasure::GF256;
  const std::size_t k = rs.data_shards();
  const std::size_t n = rs.total_shards();
  const std::size_t total = 4 + payload.size();
  const std::size_t shard_size = (total + k - 1) / k;

  std::vector<Bytes> shards(n, Bytes(shard_size, 0));
  Bytes prefixed(shard_size * k, 0);
  prefixed[0] = static_cast<std::uint8_t>(payload.size());
  prefixed[1] = static_cast<std::uint8_t>(payload.size() >> 8);
  prefixed[2] = static_cast<std::uint8_t>(payload.size() >> 16);
  prefixed[3] = static_cast<std::uint8_t>(payload.size() >> 24);
  if (!payload.empty()) {
    std::memcpy(prefixed.data() + 4, payload.data(), payload.size());
  }
  for (std::size_t i = 0; i < k; ++i) {
    std::memcpy(shards[i].data(), prefixed.data() + i * shard_size,
                shard_size);
  }
  const predis::erasure::Matrix& coding = rs.coding_matrix();
  for (std::size_t r = k; r < n; ++r) {
    Bytes& out = shards[r];
    for (std::size_t c = 0; c < k; ++c) {
      const GF factor = coding.at(r, c);
      if (factor == 0) continue;
      const Bytes& in = shards[c];
      for (std::size_t b = 0; b < shard_size; ++b) {
        out[b] ^= GF256::mul(factor, in[b]);
      }
    }
  }
  return shards;
}

struct JsonWriter {
  std::string buf;
  void raw(const std::string& s) { buf += s; }
  void kv(const char* key, double v, bool comma = true) {
    char tmp[96];
    std::snprintf(tmp, sizeof(tmp), "\"%s\": %.3f%s", key, v,
                  comma ? ", " : "");
    buf += tmp;
  }
  void kv(const char* key, std::size_t v, bool comma = true) {
    char tmp[96];
    std::snprintf(tmp, sizeof(tmp), "\"%s\": %zu%s", key, v,
                  comma ? ", " : "");
    buf += tmp;
  }
  void kv(const char* key, const char* v, bool comma = true) {
    buf += std::string("\"") + key + "\": \"" + v + "\"" +
           (comma ? ", " : "");
  }
  void kv(const char* key, bool v, bool comma = true) {
    buf += std::string("\"") + key + "\": " + (v ? "true" : "false") +
           (comma ? ", " : "");
  }
};

struct Shape {
  std::size_t k;
  std::size_t n;
  std::size_t payload;
};

int write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
    return 1;
  }
  out << content;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int emit_erasure(const std::string& dir, bool smoke, double budget_ms) {
  using predis::erasure::GF256;
  using predis::erasure::ReedSolomon;

  const std::vector<Shape> shapes =
      smoke ? std::vector<Shape>{{3, 4, 25'600}, {7, 10, 65'536}}
            : std::vector<Shape>{{3, 4, 25'600},
                                 {6, 8, 25'600},
                                 {11, 16, 25'600},
                                 {7, 10, 16'384},
                                 {7, 10, 65'536},
                                 {7, 10, 262'144}};

  JsonWriter j;
  j.raw("{\n  ");
  j.kv("schema", "predis-bench-erasure/1");
  j.kv("tool", "bench_report");
  j.kv("smoke", smoke);
  j.kv("simd_enabled", GF256::simd_enabled());
  j.raw("\"baseline\": \"seed element-wise GF256::mul encoder "
        "(re-measured in-process)\",\n  \"encode\": [\n");

  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const Shape& shape = shapes[s];
    const ReedSolomon rs(shape.k, shape.n);
    const Bytes payload = random_bytes(shape.payload, 11 + s);

    // Fast path: arena encode_into (the steady-state hot loop).
    std::vector<Bytes> shards(shape.n, Bytes(rs.shard_size(shape.payload)));
    std::vector<MutBytesView> views(shape.n);
    for (std::size_t i = 0; i < shape.n; ++i) {
      views[i] = MutBytesView(shards[i]);
    }
    const double fast_s = time_per_call(
        [&] { rs.encode_into(payload, views); }, budget_ms);
    const double base_s = time_per_call(
        [&] {
          auto out = baseline_encode(rs, payload);
          benchmark_sink(out.back().back());
        },
        budget_ms);
    const double mb = static_cast<double>(shape.payload) / 1e6;
    const double fast_mbps = mb / fast_s;
    const double base_mbps = mb / base_s;

    j.raw("    {");
    j.kv("k", shape.k);
    j.kv("n", shape.n);
    j.kv("payload_bytes", shape.payload);
    j.kv("mb_per_s", fast_mbps);
    j.kv("baseline_mb_per_s", base_mbps);
    j.kv("speedup", fast_mbps / base_mbps, false);
    j.raw(s + 1 < shapes.size() ? "},\n" : "}\n");
  }

  j.raw("  ],\n  \"decode\": [\n");
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const Shape& shape = shapes[s];
    const ReedSolomon rs(shape.k, shape.n);
    const Bytes payload = random_bytes(shape.payload, 23 + s);
    const auto shards = rs.encode(payload);
    std::vector<std::optional<Bytes>> input(shards.begin(), shards.end());
    for (std::size_t i = 0; i < shape.n - shape.k; ++i) input[i].reset();
    const double dec_s = time_per_call(
        [&] {
          auto out = rs.try_decode(input);
          benchmark_sink(out.ok() ? out.value().size() : 0);
        },
        budget_ms);
    j.raw("    {");
    j.kv("k", shape.k);
    j.kv("n", shape.n);
    j.kv("payload_bytes", shape.payload);
    j.kv("dropped_shards", shape.n - shape.k);
    j.kv("mb_per_s", static_cast<double>(shape.payload) / 1e6 / dec_s,
         false);
    j.raw(s + 1 < shapes.size() ? "},\n" : "}\n");
  }

  j.raw("  ],\n  \"mul_row_add\": [\n");
  const std::vector<std::size_t> lens =
      smoke ? std::vector<std::size_t>{65'536}
            : std::vector<std::size_t>{1'024, 9'362, 65'536};
  for (std::size_t s = 0; s < lens.size(); ++s) {
    const std::size_t len = lens[s];
    const Bytes src = random_bytes(len, 31);
    Bytes dst = random_bytes(len, 32);
    const double fused_s = time_per_call(
        [&] { GF256::mul_row_add(dst.data(), src.data(), 0x57, len); },
        budget_ms);
    const double portable_s = time_per_call(
        [&] {
          GF256::mul_row_add_portable(dst.data(), src.data(), 0x57, len);
        },
        budget_ms);
    j.raw("    {");
    j.kv("len", len);
    j.kv("mb_per_s", static_cast<double>(len) / 1e6 / fused_s);
    j.kv("portable_mb_per_s", static_cast<double>(len) / 1e6 / portable_s,
         false);
    j.raw(s + 1 < lens.size() ? "},\n" : "}\n");
  }
  j.raw("  ]\n}\n");
  return write_file(dir + "/BENCH_erasure.json", j.buf);
}

int emit_micro(const std::string& dir, bool smoke, double budget_ms) {
  struct Entry {
    std::string name;
    std::size_t bytes;  // 0 = no throughput figure
    std::function<void()> fn;
  };
  namespace sk = predis::sha256_kernels;

  const Bytes data = random_bytes(25'600, 41);
  std::vector<Hash32> leaves;
  for (int i = 0; i < 800; ++i) {
    leaves.push_back(Sha256::hash(predis::as_bytes("leaf" + std::to_string(i))));
  }
  const KeyPair key = KeyPair::from_seed(42);
  const Bytes msg = random_bytes(256, 2);
  const predis::Signature sig = key.sign(msg);

  const predis::erasure::StripeCodec codec(7, 10);
  std::vector<predis::Transaction> txs(50);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    txs[i].client = 1;
    txs[i].seq = i;
    txs[i].payload_seed = i * 0x9e37;
  }
  const predis::Bundle bundle =
      predis::make_bundle(0, 1, predis::kZeroHash, {1, 0, 0, 0}, txs, key);
  predis::erasure::StripeCodec::Encoded arena;

  // Transaction-path structure hashing: a 4-chain mempool holding two
  // 50-tx bundles per chain, and the block a leader cuts over it (the
  // shape of one P-PBFT proposal: 4 header hashes, 400 Merkle leaves).
  constexpr std::size_t kChains = 4;
  std::vector<predis::PublicKey> producer_keys;
  for (std::size_t i = 0; i < kChains; ++i) {
    producer_keys.push_back(KeyPair::from_seed(i).public_key());
  }
  predis::Mempool mempool(kChains, producer_keys);
  for (std::size_t p = 0; p < kChains; ++p) {
    Hash32 parent = predis::kZeroHash;
    for (predis::BundleHeight h = 1; h <= 2; ++h) {
      std::vector<predis::Transaction> chain_txs(50);
      for (std::size_t i = 0; i < chain_txs.size(); ++i) {
        chain_txs[i].client = static_cast<predis::NodeId>(p);
        chain_txs[i].seq = h * 1000 + i;
      }
      const predis::Bundle b = predis::make_bundle(
          static_cast<predis::NodeId>(p), h, parent,
          std::vector<predis::BundleHeight>(kChains, 2), std::move(chain_txs),
          KeyPair::from_seed(p));
      parent = b.header.hash();
      mempool.add(b);
    }
  }
  const predis::PredisBlock block = predis::build_predis_block(
      mempool, 0, 1, 1, 0, predis::kZeroHash,
      std::vector<predis::BundleHeight>(kChains, 0), KeyPair::from_seed(0));
  if (predis::verify_predis_block(mempool, block, producer_keys[0]) !=
      predis::BlockVerifyResult::kOk) {
    std::fprintf(stderr, "bench_report: predis_block_verify fixture invalid\n");
    return 1;
  }

  std::vector<Entry> entries;
  entries.push_back({"sha256/25600", 25'600, [&] {
                       benchmark_sink(Sha256::hash(data)[0]);
                     }});
  entries.push_back({"merkle_root/800", 0, [&] {
                       benchmark_sink(MerkleTree::root_of(leaves)[0]);
                     }});
  entries.push_back({"sign_verify/256", 0, [&] {
                       benchmark_sink(
                           predis::verify(key.public_key(), msg, sig) ? 1 : 0);
                     }});
  entries.push_back({"tx_id", 0, [&] {
                       benchmark_sink(txs[7].id()[0]);
                     }});
  entries.push_back({"bundle_header_hash", 0, [&] {
                       benchmark_sink(bundle.header.hash()[0]);
                     }});
  entries.push_back({"predis_block_verify", 0, [&] {
                       benchmark_sink(static_cast<std::size_t>(
                           predis::verify_predis_block(
                               mempool, block, producer_keys[0])));
                     }});
  entries.push_back({"stripe_codec_encode_into/k7n10", 0, [&] {
                       codec.encode_into(bundle, arena);
                       benchmark_sink(arena.stripes.back().data.back());
                     }});

  // Crypto-kernel sweep: the single-stream and pair-batch shapes timed
  // through every compiled-in + CPU-supported kernel, so the report
  // records the dispatch win on this machine. Note the avx2 kernel is
  // multi-buffer only — its single-stream compress resolves to the
  // portable rounds by design, and the sweep shows exactly that.
  constexpr std::uint32_t kIv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  const Bytes stream = random_bytes(400 * 64, 43);  // 25.6 KB, 400 blocks
  const Bytes pair_msgs = random_bytes(512 * 64, 44);
  static std::vector<Hash32> pair_out(512);
  for (sk::Kernel k :
       {sk::Kernel::kPortable, sk::Kernel::kShaNi, sk::Kernel::kAvx2}) {
    if (!sk::available(k)) continue;
    const sk::CompressFn compress = sk::compress(k);
    const sk::PairBatchFn pairs = sk::hash_pairs(k);
    entries.push_back({std::string("sha256_compress/25600/") + sk::name(k),
                       400 * 64, [compress, &stream, &kIv] {
                         std::uint32_t st[8];
                         std::memcpy(st, kIv, sizeof(st));
                         compress(st, stream.data(), 400);
                         benchmark_sink(st[0]);
                       }});
    entries.push_back({std::string("sha256_hash_pairs/512/") + sk::name(k),
                       512 * 64, [pairs, &pair_msgs] {
                         pairs(pair_msgs.data(), 512, pair_out.data());
                         benchmark_sink(pair_out[0][0]);
                       }});
  }

  JsonWriter j;
  j.raw("{\n  ");
  j.kv("schema", "predis-bench-micro/1");
  j.kv("tool", "bench_report");
  j.kv("smoke", smoke);
  j.kv("sha256_kernel", sk::name(sk::active()));
  j.raw("\"benches\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const double per_call = time_per_call(entries[i].fn, budget_ms);
    j.raw("    {");
    j.kv("name", entries[i].name.c_str());
    if (entries[i].bytes > 0) {
      j.kv("ns_per_op", per_call * 1e9);
      j.kv("mb_per_s",
           static_cast<double>(entries[i].bytes) / 1e6 / per_call, false);
    } else {
      j.kv("ns_per_op", per_call * 1e9, false);
    }
    j.raw(i + 1 < entries.size() ? "},\n" : "}\n");
  }
  j.raw("  ]\n}\n");
  return write_file(dir + "/BENCH_micro.json", j.buf);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out-dir DIR]\n", argv[0]);
      return 2;
    }
  }
  const double budget_ms = smoke ? 10.0 : 250.0;
  int rc = emit_erasure(out_dir, smoke, budget_ms);
  rc |= emit_micro(out_dir, smoke, budget_ms);
  return rc;
}
