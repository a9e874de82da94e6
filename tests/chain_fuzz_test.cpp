// Robustness of the wire format against corruption: a validator decodes
// blocks from untrusted peers, so for ANY byte-level mutation of a valid
// encoding, Block::decode must either throw util::DecodeError or yield a
// block object — never crash, never hang, never accept silently corrupted
// commitments. (Structured fuzzing with deterministic seeds: every
// failure is reproducible from the test name.)

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "chain/block.hpp"
#include "core/miner.hpp"
#include "core/validator.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace concord::chain {
namespace {

Block make_reference_block(
    const workload::WorkloadSpec& spec = {workload::BenchmarkKind::kMixed, 30, 40, 5}) {
  auto fixture = workload::make_fixture(spec);
  core::Miner miner(*fixture.world, core::MinerConfig{.threads = 3, .nanos_per_gas = 0.0});
  return miner.mine(fixture.transactions, fixture.genesis());
}

std::vector<std::uint8_t> encode_block(const Block& block) {
  util::ByteWriter w;
  block.encode(w);
  return std::move(w).take();
}

/// Picks a random transaction and the first other transaction holding two
/// of its locks, and swaps the pair's counters on one shared lock. False
/// when the pick shares no two locks with anyone.
bool swap_counters_across_locks(BlockSchedule& schedule, util::Rng& rng) {
  stm::LockProfile& u = schedule.profiles[rng.below(schedule.profiles.size())];
  for (stm::LockProfile& v : schedule.profiles) {
    if (&v == &u) continue;
    std::vector<std::pair<stm::LockProfileEntry*, stm::LockProfileEntry*>> shared;
    for (stm::LockProfileEntry& eu : u.entries) {
      for (stm::LockProfileEntry& ev : v.entries) {
        if (eu.lock == ev.lock) shared.emplace_back(&eu, &ev);
      }
    }
    if (shared.size() < 2) continue;
    const auto [eu, ev] = shared[rng.below(shared.size())];
    std::swap(eu->counter, ev->counter);
    return true;
  }
  return false;
}

class ChainFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainFuzz, SingleByteMutationsNeverCrashOrSlipThrough) {
  static const Block reference = make_reference_block();
  static const std::vector<std::uint8_t> encoded = encode_block(reference);

  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> corrupted = encoded;
    const std::size_t pos = rng.below(corrupted.size());
    const auto old = corrupted[pos];
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    ASSERT_NE(corrupted[pos], old);

    util::ByteReader reader(corrupted);
    try {
      const Block decoded = Block::decode(reader);
      // Decoded fine: the mutation must be *detectable* — either the
      // header commitments no longer match the body, or the header
      // itself changed (block hash differs), or trailing garbage remains.
      const bool detectable = !decoded.commitments_consistent() ||
                              decoded.hash() != reference.hash() || !reader.exhausted() ||
                              decoded == reference;
      EXPECT_TRUE(detectable) << "undetected mutation at byte " << pos;
    } catch (const util::DecodeError&) {
      // Expected for structural corruption.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainFuzz, ::testing::Range(std::uint64_t{1}, std::uint64_t{9}),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

TEST(ChainFuzz, TruncationsAlwaysThrow) {
  const Block reference = make_reference_block();
  const std::vector<std::uint8_t> encoded = encode_block(reference);
  // Every strict prefix must fail to decode (the format has no trailing
  // optionality).
  util::Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t cut = rng.below(encoded.size());
    const std::vector<std::uint8_t> truncated(encoded.begin(),
                                              encoded.begin() + static_cast<std::ptrdiff_t>(cut));
    util::ByteReader reader(truncated);
    EXPECT_THROW((void)Block::decode(reader), util::DecodeError) << "cut at " << cut;
  }
}

TEST(ChainFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> garbage(rng.below(600));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.below(256));
    util::ByteReader reader(garbage);
    try {
      const Block decoded = Block::decode(reader);
      // Vanishingly unlikely, but if it decodes it must not validate as
      // internally consistent *and* non-trivial.
      if (!decoded.transactions.empty()) {
        EXPECT_FALSE(decoded.commitments_consistent());
      }
    } catch (const util::DecodeError&) {
    }
  }
}

TEST(ChainFuzz, CorruptedScheduleStillRejectsAtValidation) {
  // End-to-end: flip bytes inside the *schedule region* specifically,
  // re-seal the commitments (simulating a malicious miner rather than
  // line noise), and require the semantic validator to reject.
  const workload::WorkloadSpec spec{workload::BenchmarkKind::kBallot, 40, 50, 6};
  const Block honest = make_reference_block(spec);

  util::Rng rng(4321);
  int footprint_forgeries = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Block forged = honest;
    ASSERT_FALSE(forged.schedule.profiles.empty());
    auto& profile = forged.schedule.profiles[rng.below(forged.schedule.profiles.size())];
    if (profile.entries.empty()) continue;
    auto& entry = profile.entries[rng.below(profile.entries.size())];

    // Footprint forgeries — the profile now claims locks/modes the replay
    // trace cannot reproduce. These MUST always be rejected.
    const bool flip_lock = rng.chance_percent(50);
    if (flip_lock) {
      entry.lock.key ^= 1;
    } else {
      entry.mode = entry.mode == stm::LockMode::kRead ? stm::LockMode::kWrite
                                                      : stm::LockMode::kRead;
    }
    forged.header.schedule_hash = forged.schedule.hash();

    auto replica = workload::make_fixture(spec);
    core::Validator validator(*replica.world,
                              core::ValidatorConfig{.threads = 3, .nanos_per_gas = 0.0});
    const auto report = validator.validate_parallel(forged);
    ++footprint_forgeries;
    EXPECT_FALSE(report.ok) << "trial " << trial << (flip_lock ? " (lock)" : " (mode)");
  }
  EXPECT_GT(footprint_forgeries, 0);

  // Counter forgeries are different: they re-order the *claimed*
  // schedule. A shift moves one holder along one lock; a cross-lock swap
  // exchanges two transactions' counters on one of two locks they share,
  // so the pair may now claim opposite orders on the two. A forgery whose
  // derived graph is cyclic must be rejected as such, before replay. An
  // acyclic one may yield an equivalent (or merely over-serialized)
  // schedule, which a validator legitimately accepts — but acceptance must
  // imply the replayed state still matches, and no forgery may crash or
  // hang. The auction block is where swaps close cycles: every two bids
  // hold the highest-bid and highest-bidder locks, while Ballot's shared
  // locks are voter entries and commuting tallies.
  const workload::WorkloadSpec auction_spec{workload::BenchmarkKind::kSimpleAuction, 40, 50, 6};
  const std::pair<workload::WorkloadSpec, Block> counter_cases[] = {
      {spec, honest}, {auction_spec, make_reference_block(auction_spec)}};
  int cyclic_forgeries = 0;
  for (const auto& [counter_spec, mined] : counter_cases) {
    for (int trial = 0; trial < 40; ++trial) {
      Block forged = mined;
      if (trial % 2 == 0) {
        auto& profile = forged.schedule.profiles[rng.below(forged.schedule.profiles.size())];
        if (profile.entries.empty()) continue;
        profile.entries[rng.below(profile.entries.size())].counter += 1 + rng.below(5);
      } else if (!swap_counters_across_locks(forged.schedule, rng)) {
        continue;
      }
      forged.header.schedule_hash = forged.schedule.hash();
      const bool cyclic = !forged.schedule.to_graph(forged.transactions.size()).is_acyclic();

      auto replica = workload::make_fixture(counter_spec);
      core::Validator validator(*replica.world,
                                core::ValidatorConfig{.threads = 3, .nanos_per_gas = 0.0});
      const auto report = validator.validate_parallel(forged);
      if (cyclic) {
        ++cyclic_forgeries;
        EXPECT_EQ(report.reason, core::RejectReason::kCyclicSchedule)
            << workload::to_string(counter_spec.kind) << " trial " << trial;
      } else if (report.ok) {
        // Accepted ⇒ the reordering was semantically equivalent: the
        // replay reproduced the block's exact statuses and state root.
        EXPECT_EQ(replica.world->state_root(), forged.header.state_root);
      }
    }
  }
  EXPECT_GT(cyclic_forgeries, 0);
}

}  // namespace
}  // namespace concord::chain
