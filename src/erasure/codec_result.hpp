// Result type of the erasure codec's decode path (ReedSolomon and
// StripeCodec try_decode, used by the swarm harness invariant checks
// and the relayer decode paths): a minimal expected<T, CodecFailure> —
// std::expected is C++23 and this codebase is C++20. Decoding never
// throws; a failure names its CodecErrorCode.
#pragma once

#include <string>
#include <utility>
#include <variant>

namespace predis::erasure {

enum class CodecErrorCode {
  kWrongShardCount,    ///< Input has != n shard slots.
  kShardSizeMismatch,  ///< Present shards have unequal sizes.
  kNotEnoughShards,    ///< Fewer than k shards present.
  kSingularMatrix,     ///< Decode submatrix not invertible.
  kCorruptPayload,     ///< Recovered length prefix is malformed.
  kBadStripeIndex,     ///< Stripe index >= n.
  kMalformedBundle,    ///< Payload decoded but bundle deserialization failed.
};

inline const char* to_string(CodecErrorCode code) {
  switch (code) {
    case CodecErrorCode::kWrongShardCount: return "wrong shard count";
    case CodecErrorCode::kShardSizeMismatch: return "shard size mismatch";
    case CodecErrorCode::kNotEnoughShards: return "not enough shards";
    case CodecErrorCode::kSingularMatrix: return "singular decode matrix";
    case CodecErrorCode::kCorruptPayload: return "corrupt payload";
    case CodecErrorCode::kBadStripeIndex: return "bad stripe index";
    case CodecErrorCode::kMalformedBundle: return "malformed bundle";
  }
  return "?";
}

struct CodecFailure {
  CodecErrorCode code = CodecErrorCode::kCorruptPayload;
  std::string message;
};

/// Holds either a T or the CodecFailure explaining why there is none.
template <typename T>
class Expected {
 public:
  Expected(T value)  // NOLINT(google-explicit-constructor)
      : state_(std::in_place_index<0>, std::move(value)) {}
  Expected(CodecFailure failure)  // NOLINT(google-explicit-constructor)
      : state_(std::in_place_index<1>, std::move(failure)) {}

  bool ok() const { return state_.index() == 0; }
  explicit operator bool() const { return ok(); }

  T& value() & { return std::get<0>(state_); }
  const T& value() const& { return std::get<0>(state_); }
  T&& value() && { return std::get<0>(std::move(state_)); }

  const CodecFailure& error() const { return std::get<1>(state_); }

 private:
  std::variant<T, CodecFailure> state_;
};

}  // namespace predis::erasure
