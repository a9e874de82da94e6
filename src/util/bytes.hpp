#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace concord::util {

/// Error raised by ByteReader when the input is truncated or malformed.
/// Block/schedule deserialization treats this as "reject the block"; it is
/// never a programming error, because the bytes come from the (untrusted)
/// network in the real deployment the paper assumes.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only binary encoder used for block, transaction and schedule
/// serialization. Integers use LEB128 varints so that schedules (mostly
/// small indices) stay compact, matching the paper's concern that the
/// published fork-join schedule must fit in the block.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  /// Little-endian fixed-width 32-bit write (used for hashes and other
  /// fields whose width is part of the wire format).
  void put_u32_fixed(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// Little-endian fixed-width 64-bit write.
  void put_u64_fixed(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// Unsigned LEB128 varint.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Length-prefixed byte string.
  void put_bytes(std::span<const std::uint8_t> bytes) {
    put_varint(bytes.size());
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Length-prefixed UTF-8 string.
  void put_string(std::string_view s) {
    put_varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Raw bytes with no length prefix (caller controls framing).
  void put_raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  /// Empties the buffer but keeps its capacity, for writers reused in a loop.
  void clear() noexcept { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential binary decoder matching ByteWriter's format. Every read
/// checks bounds and throws DecodeError on truncated input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  std::uint8_t get_u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint32_t get_u32_fixed() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t get_u64_fixed() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      require(1);
      const std::uint8_t byte = data_[pos_++];
      if (shift == 63 && (byte & 0x7e) != 0) throw DecodeError("varint overflows 64 bits");
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Canonical (minimal) encodings only: a final 0x00 byte after a
        // continuation adds no value bits, so "80 00" and "00" would
        // decode to the same integer from different bytes. The writer
        // never emits such padding; accepting it would break the wire
        // layer's decode→re-encode byte-identity guarantee and give
        // every framed message a mutable twin.
        if (byte == 0 && shift > 0) throw DecodeError("non-canonical varint padding");
        return v;
      }
      shift += 7;
      if (shift > 63) throw DecodeError("varint too long");
    }
  }

  /// Reads an element count for a collection whose elements occupy at
  /// least `min_item_bytes` each, rejecting counts that could not
  /// possibly fit in the remaining input. This bounds attacker-controlled
  /// pre-allocation: without it, a forged count of 2^60 turns a reserve()
  /// into std::bad_alloc instead of a clean DecodeError.
  std::uint64_t get_count(std::size_t min_item_bytes) {
    const std::uint64_t n = get_varint();
    if (min_item_bytes > 0 && n > remaining() / min_item_bytes) {
      throw DecodeError("collection count exceeds remaining input");
    }
    return n;
  }

  std::vector<std::uint8_t> get_bytes() {
    const std::uint64_t n = get_varint();
    require(n);
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string get_string() {
    const std::uint64_t n = get_varint();
    require(n);
    std::string out(reinterpret_cast<const char*>(data_.data()) + pos_, n);
    pos_ += n;
    return out;
  }

  /// Reads exactly `n` bytes with no length prefix.
  std::span<const std::uint8_t> get_raw(std::size_t n) {
    require(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  void require(std::uint64_t n) const {
    // Subtraction form, never `pos_ + n`: n is attacker-controlled (a
    // decoded 64-bit length), and the addition can wrap past SIZE_MAX
    // back under size() — turning a forged length into an out-of-bounds
    // read instead of a clean DecodeError. pos_ <= size() always holds.
    if (n > data_.size() - pos_) throw DecodeError("truncated input");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Lowercase hex encoding of a byte span ("deadbeef" style, no prefix).
std::string to_hex(std::span<const std::uint8_t> bytes);

/// Inverse of to_hex. Throws DecodeError on odd length or non-hex chars.
std::vector<std::uint8_t> from_hex(std::string_view hex);

}  // namespace concord::util
