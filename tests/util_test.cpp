#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/cycle_burner.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"
#include "util/zipf.hpp"

namespace concord::util {
namespace {

// ---------------------------------------------------------------- Rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10'000; ++i) ++seen[rng.below(10)];
  for (const int count : seen) EXPECT_GT(count, 800);  // Roughly uniform.
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChancePercentExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance_percent(0));
    EXPECT_TRUE(rng.chance_percent(100));
  }
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ReseedRestartsSequence) {
  Rng rng(5);
  const std::uint64_t first = rng.next();
  rng.next();
  rng.reseed(5);
  EXPECT_EQ(rng.next(), first);
}

// -------------------------------------------------------------- Bytes ---

TEST(Bytes, VarintRoundTrip) {
  const std::vector<std::uint64_t> values = {0,    1,    127,  128,   255,    300,
                                             1u << 14, (1u << 21) - 7, 1ull << 35, ~0ull};
  ByteWriter w;
  for (const auto v : values) w.put_varint(v);
  ByteReader r(w.bytes());
  for (const auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u32_fixed(0xdeadbeef);
  w.put_u64_fixed(0x0123456789abcdefULL);
  w.put_u8(0x7f);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u32_fixed(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64_fixed(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_u8(), 0x7f);
}

TEST(Bytes, StringAndBytesRoundTrip) {
  ByteWriter w;
  w.put_string("hello contracts");
  w.put_bytes(std::vector<std::uint8_t>{1, 2, 3});
  w.put_string("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello contracts");
  EXPECT_EQ(r.get_bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, TruncatedInputThrows) {
  ByteWriter w;
  w.put_string("abcdef");
  auto bytes = w.bytes();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_THROW((void)r.get_string(), DecodeError);
}

TEST(Bytes, TruncatedVarintThrows) {
  const std::vector<std::uint8_t> bad = {0x80, 0x80};  // Continuation, no end.
  ByteReader r(bad);
  EXPECT_THROW((void)r.get_varint(), DecodeError);
}

TEST(Bytes, OverlongVarintThrows) {
  const std::vector<std::uint8_t> bad(11, 0x80);
  ByteReader r(bad);
  EXPECT_THROW((void)r.get_varint(), DecodeError);
}

TEST(Bytes, HexRoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(data), "00deadbeefff");
  EXPECT_EQ(from_hex("00deadbeefff"), data);
}

TEST(Bytes, BadHexThrows) {
  EXPECT_THROW((void)from_hex("abc"), DecodeError);   // Odd length.
  EXPECT_THROW((void)from_hex("zz"), DecodeError);    // Bad digit.
}

TEST(Bytes, RawReadWrite) {
  ByteWriter w;
  const std::vector<std::uint8_t> raw = {9, 8, 7};
  w.put_raw(raw);
  ByteReader r(w.bytes());
  const auto back = r.get_raw(3);
  EXPECT_TRUE(std::equal(raw.begin(), raw.end(), back.begin()));
  EXPECT_THROW((void)r.get_raw(1), DecodeError);
}

TEST(Bytes, NonCanonicalVarintPaddingThrows) {
  // 0x85 0x00 decodes to 5 under a permissive reader, but 5 encodes as
  // a single byte — two encodings for one value would break the wire
  // layer's decode→re-encode byte-identity guarantee.
  {
    const std::vector<std::uint8_t> padded = {0x85, 0x00};
    ByteReader r(padded);
    EXPECT_THROW((void)r.get_varint(), DecodeError);
  }
  // Multi-byte padding flavor: 128 is {0x80, 0x01}; {0x80, 0x81, 0x00}
  // sneaks an empty continuation group on top.
  {
    const std::vector<std::uint8_t> padded = {0x80, 0x81, 0x00};
    ByteReader r(padded);
    EXPECT_THROW((void)r.get_varint(), DecodeError);
  }
  // The canonical encodings stay accepted — including a legitimate
  // trailing zero *group* that carries high bits ({0x80, 0x01} = 128).
  const std::vector<std::uint8_t> canonical = {0x80, 0x01};
  ByteReader r(canonical);
  EXPECT_EQ(r.get_varint(), 128u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, ForgedGiantLengthIsTypedErrorNotOverflow) {
  // Regression: `pos_ + n` wraps for n near 2^64, letting a forged
  // length pass the bounds check and read out of bounds. The subtraction
  // form must reject every oversized n with a typed error.
  const std::vector<std::uint8_t> data = {1, 2, 3};
  ByteReader r(data);
  EXPECT_EQ(r.get_u8(), 1);  // pos_ = 1, so pos_ + ~0ull wraps to 0.
  EXPECT_THROW((void)r.get_raw(~0ull), DecodeError);
  EXPECT_THROW((void)r.get_raw(~0ull - 1), DecodeError);
  // The reader stays usable after the rejected read.
  EXPECT_EQ(r.get_u8(), 2);
}

TEST(Bytes, ForgedCollectionCountRejectedBeforeAllocation) {
  // A length-prefixed field claiming ~2^61 elements must die on the
  // bounds check, not in the allocator.
  ByteWriter w;
  w.put_varint(1ull << 61);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get_count(/*min_item_bytes=*/1), DecodeError);
}

// ------------------------------------------------------------- Sha256 ---

TEST(Sha256, EmptyStringVector) {
  // FIPS 180-4 test vector.
  EXPECT_EQ(sha256("").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(sha256("abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAVector) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finish().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog and more";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(data).substr(0, split));
    h.update(std::string_view(data).substr(split));
    EXPECT_EQ(h.finish(), sha256(data));
  }
}

// The portable compression function through the test seam, on the same
// FIPS 180-4 vectors (the tests above run whichever path the CPU picks).
TEST(Sha256, FipsVectorsOnPortablePath) {
  const auto portable = [](std::string_view text) {
    return detail::sha256_portable(
        std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  };
  EXPECT_EQ(portable("").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(portable("abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(portable("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(portable(std::string(1'000'000, 'a')).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

/// Random bytes: `size` of them, plus 63 of slack for start offsets.
std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> bytes(size + 63);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

// Every length across the padding boundaries (0..130) and random lengths
// up to 4 KiB, each at every start offset 0..63: the SHA-NI path reads
// its input with unaligned loads, so misalignment must not change a byte.
TEST(Sha256, ShaNiMatchesPortableAtEveryOffset) {
  if (!detail::sha_ni_active()) GTEST_SKIP() << "this CPU has no SHA extensions";
  Rng rng(0x5A);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 130; ++len) lengths.push_back(len);
  for (int i = 0; i < 48; ++i) lengths.push_back(rng.below(4'097));
  lengths.push_back(4'096);
  for (const std::size_t len : lengths) {
    const std::vector<std::uint8_t> bytes = random_bytes(rng, len);
    for (std::size_t offset = 0; offset < 64; ++offset) {
      const std::span<const std::uint8_t> message(bytes.data() + offset, len);
      ASSERT_EQ(sha256(message), detail::sha256_portable(message))
          << "length " << len << ", offset " << offset;
    }
  }
}

// Incremental updates split at random points hand the compression
// function buffered blocks and runs of several blocks in one call.
TEST(Sha256, ShaNiIncrementalSplitsMatchPortable) {
  if (!detail::sha_ni_active()) GTEST_SKIP() << "this CPU has no SHA extensions";
  Rng rng(0x5B);
  for (int round = 0; round < 300; ++round) {
    const std::size_t len = rng.below(4'097);
    const std::vector<std::uint8_t> bytes = random_bytes(rng, len);
    const std::span<const std::uint8_t> message(bytes.data() + rng.below(64), len);
    Sha256 h;
    for (std::size_t at = 0; at < len;) {
      const std::size_t take = std::min<std::size_t>(len - at, rng.below(300));
      h.update(message.subspan(at, take));
      at += take;
    }
    ASSERT_EQ(h.finish(), detail::sha256_portable(message)) << "round " << round;
  }
}

TEST(Sha256, Hash256Helpers) {
  const Hash256 zero{};
  EXPECT_TRUE(zero.is_zero());
  const Hash256 h = sha256("x");
  EXPECT_FALSE(h.is_zero());
  EXPECT_NE(h.prefix64(), 0u);
  EXPECT_EQ(h.to_hex().size(), 64u);
}

// -------------------------------------------------------------- Stats ---

TEST(Stats, MeanAndStddev) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // Sample stddev.
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, SummarizeMs) {
  const auto summary = summarize_ms({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(summary.mean_ms, 2.0);
  EXPECT_EQ(summary.samples, 3u);
}

// ------------------------------------------------------- Cycle burner ---

// --------------------------------------------------------------- Zipf ---

TEST(Zipf, SameSeedSameSequence) {
  const ZipfSampler zipf(10'000, 0.9);
  Rng a(777);
  Rng b(777);
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_EQ(zipf.sample(a), zipf.sample(b));
  }
}

TEST(Zipf, SamplesStayInRange) {
  const ZipfSampler zipf(100, 1.2);
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(zipf.sample(rng), 100u);
  }
}

TEST(Zipf, ZeroSkewIsUniform) {
  const ZipfSampler zipf(1'000, 0.0);
  // Analytic check: with s=0 every rank has mass 1/n exactly.
  EXPECT_NEAR(zipf.mass_below(1), 0.001, 1e-12);
  EXPECT_NEAR(zipf.mass_below(500), 0.5, 1e-9);
  // Empirical check: hottest 10% of ranks draw about 10% of samples.
  Rng rng(99);
  int hot = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.sample(rng) < 100) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, 0.1, 0.01);
}

TEST(Zipf, SkewConcentratesMassOnHotRanks) {
  // At s=0.9 over 1M ranks, the hot head carries far more than its
  // uniform share; and empirical frequency tracks mass_below.
  const ZipfSampler zipf(1'000'000, 0.9);
  const double hot_mass = zipf.mass_below(1'000);  // Hottest 0.1% of ranks.
  EXPECT_GT(hot_mass, 0.3);
  EXPECT_LT(hot_mass, 0.9);

  Rng rng(4242);
  int hot = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.sample(rng) < 1'000) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, hot_mass, 0.02);
}

TEST(Zipf, MassBelowIsMonotoneAndCapsAtOne) {
  const ZipfSampler zipf(50, 1.0);
  EXPECT_EQ(zipf.mass_below(0), 0.0);
  double prev = 0.0;
  for (std::size_t k = 1; k <= 50; ++k) {
    const double m = zipf.mass_below(k);
    EXPECT_GE(m, prev);
    prev = m;
  }
  EXPECT_DOUBLE_EQ(zipf.mass_below(50), 1.0);
  EXPECT_DOUBLE_EQ(zipf.mass_below(999), 1.0);  // Clamped past the end.
  EXPECT_EQ(zipf.size(), 50u);
}

TEST(Zipf, RejectsDegenerateParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
}

TEST(CycleBurner, DeterministicResult) {
  EXPECT_EQ(burn_iterations(1000), burn_iterations(1000));
  EXPECT_NE(burn_iterations(1000), burn_iterations(1001));
}

TEST(CycleBurner, CalibrationIsPositiveAndCached) {
  const auto a = iterations_per_microsecond();
  const auto b = iterations_per_microsecond();
  EXPECT_GT(a, 0u);
  EXPECT_EQ(a, b);
}

TEST(CycleBurner, BurnMicrosecondsTakesRoughlyThatLong) {
  using Clock = std::chrono::steady_clock;
  (void)iterations_per_microsecond();  // Calibrate outside timing.
  const auto start = Clock::now();
  volatile std::uint64_t sink = burn_microseconds(2000);
  (void)sink;
  const double elapsed_us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  EXPECT_GT(elapsed_us, 500.0);     // At least a quarter of the target.
  // Generous upper bound: under `ctest -j` the burner contends with other
  // test binaries for cores (and sanitizer builds slow it further), so a
  // tight cap flakes in CI. Still catches a burner that's off by orders of
  // magnitude.
  EXPECT_LT(elapsed_us, 200'000.0);
}

}  // namespace
}  // namespace concord::util
