#include "util/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "util/bytes.hpp"

namespace concord::util {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

void compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                       std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w{};
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0];
    std::uint32_t b = state[1];
    std::uint32_t c = state[2];
    std::uint32_t d = state[3];
    std::uint32_t e = state[4];
    std::uint32_t f = state[5];
    std::uint32_t g = state[6];
    std::uint32_t h = state[7];

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

/// Lane-wise 32-bit add (the one generic SIMD operation the rounds need).
__attribute__((target("sha,sse4.1"))) inline __m128i add32(__m128i a, __m128i b) noexcept {
  return _mm_add_epi32(a, b);  // NOLINT(portability-simd-intrinsics): x86-only by construction.
}

/// The same compression on the SHA extensions. The state is kept as the
/// two registers the sha256rnds2 instruction works on, ABEF and CDGH.
/// Each group g of four rounds consumes message words W[4g..4g+3] from
/// msg[g % 4]; groups 3..14 extend the schedule one group ahead
/// (sha256msg1 / sha256msg2), so each register is overwritten only after
/// its last read.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data, std::size_t blocks) noexcept {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* words = reinterpret_cast<const __m128i*>(state.data());
  __m128i dcba = _mm_loadu_si128(words);
  __m128i hgfe = _mm_loadu_si128(words + 1);
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  hgfe = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];  // A std::array would drop __m128i's alignment attribute.
    for (std::size_t i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), byte_swap);
    }
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
      const __m128i& cur = msg[g % 4];
      const __m128i wk = add32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        __m128i& next = msg[(g + 1) % 4];
        next = add32(next, _mm_alignr_epi8(cur, msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (g >= 1 && g <= 12) msg[(g + 3) % 4] = _mm_sha256msg1_epu32(msg[(g + 3) % 4], cur);
    }
    abef = add32(abef, abef_in);
    cdgh = add32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  auto* out = reinterpret_cast<__m128i*>(state.data());
  _mm_storeu_si128(out, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(out + 1, _mm_alignr_epi8(dchg, feba, 8));
}

/// CPUID leaf 7 EBX bit 29 (SHA) and leaf 1 ECX bits 9 and 19 (SSSE3,
/// SSE4.1), which the shuffles and blends need.
bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & (1U << 9)) != 0 && (ecx & (1U << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse && (ebx & (1U << 29)) != 0;
}

#endif

/// The process-wide compression function, chosen on first use.
detail::CompressFn active_compress() noexcept {
#if defined(__x86_64__)
  static const detail::CompressFn chosen = cpu_has_sha_ni() ? compress_sha_ni : compress_portable;
  return chosen;
#else
  return compress_portable;
#endif
}

}  // namespace

std::string Hash256::to_hex() const { return util::to_hex(bytes); }

Sha256::Sha256() noexcept : Sha256(active_compress()) {}

void Sha256::reset() noexcept {
  state_ = kInitialState;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_bytes_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();

  if (buffered_ > 0) {
    const std::size_t take = std::min(left, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    left -= take;
    if (buffered_ < buffer_.size()) return;
    compress_(state_, buffer_.data(), 1);
    buffered_ = 0;
  }

  if (const std::size_t blocks = left / 64; blocks > 0) {
    compress_(state_, in, blocks);
    in += blocks * 64;
    left -= blocks * 64;
  }

  if (left > 0) {
    std::memcpy(buffer_.data(), in, left);
    buffered_ = left;
  }
}

Hash256 Sha256::finish() noexcept {
  // The 0x80 terminator, zeros up to 56 mod 64, then the 64-bit
  // big-endian message length: one or two blocks, compressed in one call.
  std::array<std::uint8_t, 128> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t blocks = buffered_ < 56 ? 1 : 2;
  const std::uint64_t bit_length = total_bytes_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[64 * blocks - 1 - i] = static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  compress_(state_, tail.data(), blocks);

  Hash256 out;
  for (std::size_t i = 0; i < 8; ++i) {
    out.bytes[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

namespace detail {

bool sha_ni_active() noexcept { return active_compress() != compress_portable; }

Hash256 sha256_portable(std::span<const std::uint8_t> data) noexcept {
  Sha256 h(compress_portable);
  h.update(data);
  return h.finish();
}

}  // namespace detail

Hash256 sha256(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Hash256 sha256(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace concord::util
