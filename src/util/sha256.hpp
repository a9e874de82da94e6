#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace concord::util {

/// A 256-bit digest value (block hashes, state roots, document hashcodes).
struct Hash256 {
  std::array<std::uint8_t, 32> bytes{};

  friend auto operator<=>(const Hash256&, const Hash256&) = default;

  [[nodiscard]] bool is_zero() const noexcept {
    for (const auto b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  /// Lowercase hex rendering ("e3b0c442...").
  [[nodiscard]] std::string to_hex() const;

  /// First 8 bytes as a little-endian integer — a convenient short form
  /// for log output and for deterministic map keys in tests.
  [[nodiscard]] std::uint64_t prefix64() const noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[static_cast<std::size_t>(i)]) << (8 * i);
    return v;
  }
};

class Sha256;

namespace detail {

/// A SHA-256 compression function: folds `blocks` consecutive 64-byte
/// blocks starting at `data` into `state`.
using CompressFn = void (*)(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                            std::size_t blocks) noexcept;

/// True when this CPU has the SHA extensions and Sha256 runs on them.
[[nodiscard]] bool sha_ni_active() noexcept;

/// One-shot SHA-256 through the portable compression function whatever
/// the CPU: the reference the SHA-NI path is tested against.
[[nodiscard]] Hash256 sha256_portable(std::span<const std::uint8_t> data) noexcept;

}  // namespace detail

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch so the
/// repository has no external dependencies. Used for block hashes, state
/// roots and EtherDoc document hashcodes. The compression function is
/// picked once per process: the x86 SHA extensions (SHA-NI) when the CPU
/// has them, the portable C++ rounds otherwise. Both give the same bytes.
class Sha256 {
 public:
  Sha256() noexcept;

  /// Restores the initial state.
  void reset() noexcept;

  /// Absorbs `data`.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept {
    update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(data.data()),
                                         data.size()));
  }

  /// Finishes the computation and returns the digest. The object must be
  /// reset() before reuse.
  [[nodiscard]] Hash256 finish() noexcept;

 private:
  friend Hash256 detail::sha256_portable(std::span<const std::uint8_t> data) noexcept;

  explicit Sha256(detail::CompressFn compress) noexcept : compress_(compress) { reset(); }

  detail::CompressFn compress_;
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot convenience.
[[nodiscard]] Hash256 sha256(std::span<const std::uint8_t> data) noexcept;
[[nodiscard]] Hash256 sha256(std::string_view data) noexcept;

}  // namespace concord::util
