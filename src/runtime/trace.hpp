// Trace digest: a running SHA-256 chain over a backend's delivery
// sequence. Two runs with the same seed must produce byte-identical
// event sequences on a deterministic backend, so equal digests are the
// checkable witness of deterministic replay (and unequal digests
// pinpoint divergence). The wall-clock ThreadRuntime has no
// deterministic delivery order, so tracers are only meaningful on
// SimRuntime.
#pragma once

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"

namespace predis::runtime {

class TraceHasher {
 public:
  /// Fold one delivered message into the digest chain.
  void record_delivery(SimTime when, NodeId from, NodeId to,
                       std::size_t size, const char* name) {
    Writer w;
    w.hash(digest_);
    w.i64(when);
    w.u32(from);
    w.u32(to);
    w.u64(size);
    w.raw(as_bytes(name));
    digest_ = Sha256::hash(w.data());
    ++events_;
  }

  const Hash32& digest() const { return digest_; }
  std::uint64_t events() const { return events_; }

 private:
  Hash32 digest_ = kZeroHash;
  std::uint64_t events_ = 0;
};

}  // namespace predis::runtime
