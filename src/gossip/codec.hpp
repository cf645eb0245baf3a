// Wire encoding for gossip messages.
//
// The model restricts messages to O(log n) bits (Section 1.2).  The
// simulator does not need real serialization to *run*, but the byte
// accounting in WorkMeter should reflect what a real deployment would put
// on the wire.  This codec defines that format — little-endian fixed-width
// scalars, length-prefixed sequences — and the tests assert that the
// wire_size() values used by the mailboxes equal the codec's encoded
// sizes, so the reported bytes are honest.
//
// A coordinate (double) is 64 bits = O(log n) for any polynomial-precision
// input, an element id is 32 bits, and a basis message carries at most
// dim elements — O(d log n) bits, constant-dimension O(log n).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "geometry/vec2.hpp"
#include "lp/halfplane.hpp"
#include "util/assert.hpp"

namespace lpt::gossip {

/// Appends encoded values to a byte buffer: its own, or a caller-owned one
/// that outlives the encoder.  A caller that encodes a frame per round into
/// one retained buffer keeps its capacity and never copies the frame out.
class Encoder {
 public:
  Encoder() = default;
  /// Encode into `out`, which is cleared first.
  explicit Encoder(std::vector<std::uint8_t>& out) : buf_(&out) {
    out.clear();
  }
  Encoder(const Encoder&) = delete;  // buf_ may point at own_
  Encoder& operator=(const Encoder&) = delete;

  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_f64(double v) { put_raw(&v, sizeof v); }
  void put_u8(std::uint8_t v) { put_raw(&v, sizeof v); }

  void put(const geom::Vec2& p) {
    put_f64(p.x);
    put_f64(p.y);
  }
  void put(const lp::Halfplane& h) {
    put(h.a);
    put_f64(h.b);
  }
  void put(std::uint32_t v) { put_u32(v); }

  template <typename T>
  void put_sequence(std::span<const T> xs) {
    LPT_CHECK_MSG(xs.size() < (1u << 16), "sequence too long for the wire");
    put_u32(static_cast<std::uint32_t>(xs.size()));
    for (const auto& x : xs) put(x);
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return *buf_; }
  std::size_t size() const noexcept { return buf_->size(); }

 private:
  // resize + memcpy rather than vector::insert: the insert's inlined
  // range-copy trips GCC 12's -Wstringop-overflow analysis in Release
  // (a false positive against the freshly allocated buffer), and memcpy
  // into resized storage is what the insert lowers to anyway.
  void put_raw(const void* p, std::size_t len) {
    const std::size_t old_size = buf_->size();
    buf_->resize(old_size + len);
    std::memcpy(buf_->data() + old_size, p, len);
  }
  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* buf_ = &own_;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t get_u32() { return get_raw<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_raw<std::uint64_t>(); }
  double get_f64() { return get_raw<double>(); }
  std::uint8_t get_u8() { return get_raw<std::uint8_t>(); }

  geom::Vec2 get_vec2() {
    geom::Vec2 p;
    p.x = get_f64();
    p.y = get_f64();
    return p;
  }
  lp::Halfplane get_halfplane() {
    lp::Halfplane h;
    h.a = get_vec2();
    h.b = get_f64();
    return h;
  }

  template <typename T, typename GetOne>
  std::vector<T> get_sequence(GetOne&& get_one) {
    const std::uint32_t len = get_u32();
    std::vector<T> out;
    out.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) out.push_back(get_one(*this));
    return out;
  }

  bool exhausted() const noexcept { return pos_ == bytes_.size(); }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  template <typename T>
  T get_raw() {
    LPT_CHECK_MSG(pos_ + sizeof(T) <= bytes_.size(), "decode past end");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Encoded size (bytes) of one element of each gossiped type — these are
/// the constants the mailboxes' wire_size() accounting must agree with.
constexpr std::size_t kWireBytesVec2 = 16;     // two f64 coordinates
constexpr std::size_t kWireBytesHalfplane = 24;  // normal + offset
constexpr std::size_t kWireBytesElementId = 4;   // hitting-set element

}  // namespace lpt::gossip
