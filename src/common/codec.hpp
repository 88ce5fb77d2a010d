// Binary serialization: a little-endian Writer/Reader pair used for every
// wire message and hashable structure in the framework.
//
// The format is deliberately simple and deterministic (no varints): fixed
// little-endian integers, length-prefixed containers. Determinism matters
// because structure hashes (bundle hashes, block hashes) are computed over
// the encoded form.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/sha256.hpp"

namespace predis {

/// Thrown by Reader when the input is truncated or malformed.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends values to a byte buffer.
class Writer {
 public:
  Writer() = default;

  /// Adopt an existing buffer, clearing its contents but keeping its
  /// capacity — lets hot paths reuse one allocation across encodes:
  ///   Writer w(std::move(scratch)); ...; scratch = std::move(w).take();
  explicit Writer(Bytes&& buf) : buf_(std::move(buf)) { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) { write_le(v); }
  void u32(std::uint32_t v) { write_le(v); }
  void u64(std::uint64_t v) { write_le(v); }
  void i64(std::int64_t v) { write_le(static_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(BytesView data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }

  void str(const std::string& s) { bytes(as_bytes(s)); }

  void hash(const Hash32& h) { raw(BytesView{h.data(), h.size()}); }

  /// Append without a length prefix.
  void raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  /// Serialize a vector of encodable items: each item provides
  /// encode(Writer&).
  template <typename T>
  void vec(const std::vector<T>& items) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) item.encode(*this);
  }

  /// Serialize a vector of u64 (common case: tip lists, height lists).
  void vec_u64(const std::vector<std::uint64_t>& items) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (auto v : items) u64(v);
  }

  /// Serialize a vector of hashes.
  void vec_hash(const std::vector<Hash32>& items) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& h : items) hash(h);
  }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void write_le(T v) {
    // Assemble on the stack, then one append: a single capacity check
    // per field instead of one per byte.
    std::uint8_t le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), le, le + sizeof(T));
  }

  Bytes buf_;
};

/// Reads values back out of a byte span; throws CodecError on underrun.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  bool boolean() { return u8() != 0; }

  Bytes bytes() {
    const std::uint32_t len = u32();
    check(len);
    // No copy from the end of the input: GCC 12 at -O3 flags that, even
    // empty, as -Warray-bounds.
    if (len == 0) return {};
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  std::string str() {
    Bytes b = bytes();
    return std::string(b.begin(), b.end());
  }

  Hash32 hash() {
    check(32);
    Hash32 h;
    std::memcpy(h.data(), data_.data() + pos_, 32);
    pos_ += 32;
    return h;
  }

  /// Decode a vector of items with a static T::decode(Reader&) factory.
  template <typename T>
  std::vector<T> vec() {
    const std::uint32_t n = u32();
    std::vector<T> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(T::decode(*this));
    return out;
  }

  std::vector<std::uint64_t> vec_u64() {
    const std::uint32_t n = u32();
    std::vector<std::uint64_t> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(u64());
    return out;
  }

  std::vector<Hash32> vec_hash() {
    const std::uint32_t n = u32();
    std::vector<Hash32> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(hash());
    return out;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T read_le() {
    check(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<std::uint64_t>(data_[pos_ + i])
                              << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  void check(std::size_t need) const {
    if (pos_ + need > data_.size()) {
      throw CodecError("Reader: truncated input");
    }
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

namespace codec_detail {

/// Scratch buffers that grew past this are freed after use, so one
/// oversized encode cannot pin memory for the rest of a thread's life.
inline constexpr std::size_t kScratchKeepBytes = 4096;

/// Per-thread encode buffer reused by with_encoding().
inline thread_local Bytes scratch;

}  // namespace codec_detail

/// Runs `encode(Writer&)` into this thread's reused scratch buffer and
/// returns `use(BytesView)` over the result — structure hashing and
/// signing without a heap allocation per call. Re-entrant: a nested
/// call (an encode() that itself hashes) finds the scratch taken, grows
/// a buffer of its own for the duration, and the outer call's buffer
/// wins when both are handed back. The view is valid only inside `use`.
template <typename Encode, typename Use>
auto with_encoding(Encode&& encode, Use&& use) {
  Writer w(std::move(codec_detail::scratch));
  encode(w);
  auto result = use(BytesView{w.data()});
  Bytes buf = std::move(w).take();
  if (buf.capacity() <= codec_detail::kScratchKeepBytes) {
    codec_detail::scratch = std::move(buf);
  }
  return result;
}

/// Hash an encodable structure: SHA-256 over its deterministic encoding.
template <typename T>
Hash32 hash_of(const T& value) {
  return with_encoding([&value](Writer& w) { value.encode(w); },
                       &Sha256::hash);
}

}  // namespace predis
