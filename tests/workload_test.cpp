#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "contracts/ballot.hpp"
#include "contracts/etherdoc.hpp"
#include "contracts/simple_auction.hpp"
#include "contracts/token.hpp"
#include "workload/workload.hpp"

namespace concord::workload {
namespace {

// ------------------------------------------------------ Conflict math ---

TEST(ConflictCount, ZeroPercentIsZero) {
  EXPECT_EQ(conflicting_tx_count(200, 0), 0u);
}

TEST(ConflictCount, HundredPercentIsEverything) {
  EXPECT_EQ(conflicting_tx_count(200, 100), 200u);
}

TEST(ConflictCount, RoundsUpToPairs) {
  // 15% of 10 = 1.5 → 1 → rounded to 2 (a conflict needs a partner).
  EXPECT_EQ(conflicting_tx_count(10, 15), 2u);
  EXPECT_EQ(conflicting_tx_count(100, 15), 16u);  // 15 → 16.
  EXPECT_EQ(conflicting_tx_count(200, 15), 30u);
}

TEST(ConflictCount, NeverExceedsTransactionCount) {
  for (unsigned c : {0u, 15u, 50u, 99u, 100u}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{10}, std::size_t{401}}) {
      EXPECT_LE(conflicting_tx_count(n, c), n) << n << " txs at " << c << "%";
    }
  }
}

// ---------------------------------------------------------- Fixtures ----

TEST(Fixture, DeterministicForSameSpec) {
  const WorkloadSpec spec{BenchmarkKind::kMixed, 120, 40, 99};
  const Fixture a = make_fixture(spec);
  const Fixture b = make_fixture(spec);
  ASSERT_EQ(a.transactions.size(), b.transactions.size());
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.world->state_root(), b.world->state_root());
}

TEST(Fixture, SeedChangesOrderNotSemantics) {
  WorkloadSpec spec{BenchmarkKind::kBallot, 100, 20, 1};
  const Fixture a = make_fixture(spec);
  spec.seed = 2;
  const Fixture b = make_fixture(spec);
  EXPECT_NE(a.transactions, b.transactions);          // Different shuffle.
  EXPECT_EQ(a.world->state_root(), b.world->state_root());  // Same genesis.
}

TEST(Fixture, RequestedSizeIsHonored) {
  for (const BenchmarkKind kind : kAllBenchmarks) {
    for (const std::size_t n : {std::size_t{10}, std::size_t{33}, std::size_t{200}}) {
      const Fixture fixture = make_fixture(WorkloadSpec{kind, n, 15, 42});
      EXPECT_EQ(fixture.transactions.size(), n)
          << to_string(kind) << " at " << n << " transactions";
    }
  }
}

TEST(Fixture, GenesisCommitsToInitialState) {
  const Fixture fixture = make_fixture(WorkloadSpec{BenchmarkKind::kBallot, 50, 0, 42});
  const chain::Block genesis = fixture.genesis();
  EXPECT_EQ(genesis.header.number, 0u);
  EXPECT_EQ(genesis.header.state_root, fixture.world->state_root());
  EXPECT_TRUE(genesis.commitments_consistent());
}

TEST(BallotWorkload, DoubleVotersMatchConflictPercent) {
  const std::size_t n = 100;
  const unsigned conflict = 40;
  const Fixture fixture = make_fixture(WorkloadSpec{BenchmarkKind::kBallot, n, conflict, 42});

  // Count transactions per sender: conflicting voters appear twice.
  std::map<vm::Address, int> per_sender;
  for (const auto& tx : fixture.transactions) ++per_sender[tx.sender];
  std::size_t doubled = 0;
  for (const auto& [sender, count] : per_sender) {
    EXPECT_LE(count, 2);
    doubled += count == 2 ? 2 : 0;
  }
  EXPECT_EQ(doubled, conflicting_tx_count(n, conflict));
}

TEST(BallotWorkload, AllVotersRegisteredWithWeightOne) {
  const Fixture fixture = make_fixture(WorkloadSpec{BenchmarkKind::kBallot, 60, 30, 42});
  auto& ballot = fixture.world->contracts().as<contracts::Ballot>(fixture.ballot);
  for (const auto& tx : fixture.transactions) {
    EXPECT_EQ(ballot.raw_voter(tx.sender).weight, 1) << tx.sender.to_hex();
  }
}

TEST(AuctionWorkload, SplitsWithdrawersAndBidders) {
  const std::size_t n = 100;
  const unsigned conflict = 30;
  const Fixture fixture =
      make_fixture(WorkloadSpec{BenchmarkKind::kSimpleAuction, n, conflict, 42});
  std::size_t withdraws = 0;
  std::size_t bid_plus_ones = 0;
  for (const auto& tx : fixture.transactions) {
    if (tx.selector == contracts::SimpleAuction::kWithdraw) ++withdraws;
    if (tx.selector == contracts::SimpleAuction::kBidPlusOne) ++bid_plus_ones;
  }
  EXPECT_EQ(bid_plus_ones, conflicting_tx_count(n, conflict));
  EXPECT_EQ(withdraws + bid_plus_ones, n);

  // Every withdrawer has a seeded pending return to collect.
  auto& auction = fixture.world->contracts().as<contracts::SimpleAuction>(fixture.auction);
  for (const auto& tx : fixture.transactions) {
    if (tx.selector == contracts::SimpleAuction::kWithdraw) {
      EXPECT_GT(auction.raw_pending(tx.sender), 0);
    }
  }
}

TEST(AuctionWorkload, EscrowCoversLiabilities) {
  const Fixture fixture =
      make_fixture(WorkloadSpec{BenchmarkKind::kSimpleAuction, 80, 25, 42});
  auto& auction = fixture.world->contracts().as<contracts::SimpleAuction>(fixture.auction);
  vm::Amount liabilities = auction.raw_highest_bid();
  for (const auto& tx : fixture.transactions) liabilities += auction.raw_pending(tx.sender);
  EXPECT_GE(fixture.world->balances().raw_get(fixture.auction), liabilities);
}

TEST(EtherDocWorkload, TransfersTargetTheCreator) {
  const std::size_t n = 90;
  const unsigned conflict = 50;
  const Fixture fixture = make_fixture(WorkloadSpec{BenchmarkKind::kEtherDoc, n, conflict, 42});
  auto& etherdoc = fixture.world->contracts().as<contracts::EtherDoc>(fixture.etherdoc);

  std::size_t transfers = 0;
  for (const auto& tx : fixture.transactions) {
    if (tx.selector == contracts::EtherDoc::kTransferOwnership) {
      ++transfers;
      util::ByteReader args(tx.args);
      const std::uint64_t hashcode = args.get_varint();
      EXPECT_TRUE(etherdoc.raw_exists(hashcode));
      EXPECT_EQ(etherdoc.raw_document(hashcode).owner, tx.sender);  // Sender owns it.
      vm::Address to;
      const auto raw = args.get_raw(20);
      std::copy(raw.begin(), raw.end(), to.bytes.begin());
      EXPECT_EQ(to, etherdoc.creator());
    }
  }
  EXPECT_EQ(transfers, conflicting_tx_count(n, conflict));
}

TEST(MixedWorkload, CombinesAllThreeContracts) {
  const Fixture fixture = make_fixture(WorkloadSpec{BenchmarkKind::kMixed, 120, 30, 42});
  std::size_t ballot = 0;
  std::size_t auction = 0;
  std::size_t etherdoc = 0;
  for (const auto& tx : fixture.transactions) {
    if (tx.contract == fixture.ballot) ++ballot;
    if (tx.contract == fixture.auction) ++auction;
    if (tx.contract == fixture.etherdoc) ++etherdoc;
  }
  EXPECT_EQ(ballot + auction + etherdoc, 120u);
  // "Equal proportions", remainder going to the first benchmark.
  EXPECT_EQ(auction, 40u);
  EXPECT_EQ(etherdoc, 40u);
  EXPECT_EQ(ballot, 40u);
}

TEST(MixedWorkload, HandlesNonDivisibleSizes) {
  const Fixture fixture = make_fixture(WorkloadSpec{BenchmarkKind::kMixed, 100, 15, 42});
  EXPECT_EQ(fixture.transactions.size(), 100u);
}

TEST(Workload, ZeroTransactionsIsValid) {
  for (const BenchmarkKind kind : kAllBenchmarks) {
    const Fixture fixture = make_fixture(WorkloadSpec{kind, 0, 50, 42});
    EXPECT_TRUE(fixture.transactions.empty());
    EXPECT_FALSE(fixture.genesis().header.state_root.is_zero());
  }
}

TEST(Workload, NamesAreStable) {
  EXPECT_EQ(to_string(BenchmarkKind::kBallot), "Ballot");
  EXPECT_EQ(to_string(BenchmarkKind::kSimpleAuction), "SimpleAuction");
  EXPECT_EQ(to_string(BenchmarkKind::kEtherDoc), "EtherDoc");
  EXPECT_EQ(to_string(BenchmarkKind::kMixed), "Mixed");
}

// ------------------------------------------- Zipf large-state fixtures ---

TEST(ZipfFixture, DeterministicForSameSpec) {
  ZipfSpec spec;
  spec.accounts = 2'000;
  spec.transactions = 200;
  const Fixture a = make_zipf_fixture(spec);
  const Fixture b = make_zipf_fixture(spec);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.world->state_root(), b.world->state_root());
}

TEST(ZipfFixture, ArenaIsInvisibleToStateAndTransactions) {
  // The memory-layer acceptance property, in unit form: same spec with
  // the arena on and off must produce byte-identical genesis roots and
  // transaction streams for every scenario.
  for (const ZipfScenario scenario : kAllZipfScenarios) {
    ZipfSpec on;
    on.scenario = scenario;
    on.accounts = 3'000;
    on.transactions = 150;
    ZipfSpec off = on;
    off.use_arena = false;

    const Fixture with_arena = make_zipf_fixture(on);
    const Fixture without = make_zipf_fixture(off);
    EXPECT_NE(with_arena.world->arena(), nullptr);
    EXPECT_EQ(without.world->arena(), nullptr);
    EXPECT_EQ(with_arena.world->state_root(), without.world->state_root())
        << to_string(scenario);
    EXPECT_EQ(with_arena.transactions, without.transactions);
  }
}

TEST(PaperFixture, ArenaIsInvisibleToStateAndTransactions) {
  // Same property for the paper's four benchmark workloads.
  for (const BenchmarkKind kind : kAllBenchmarks) {
    WorkloadSpec on;
    on.kind = kind;
    on.transactions = 120;
    WorkloadSpec off = on;
    off.use_arena = false;

    const Fixture with_arena = make_fixture(on);
    const Fixture without = make_fixture(off);
    EXPECT_EQ(with_arena.world->state_root(), without.world->state_root())
        << to_string(kind);
    EXPECT_EQ(with_arena.transactions, without.transactions);
  }
}

TEST(ZipfFixture, GenesisSeedsTheRequestedAccountCount) {
  ZipfSpec spec;
  spec.scenario = ZipfScenario::kTokenTransfers;
  spec.accounts = 1'500;
  spec.transactions = 50;
  const Fixture fixture = make_zipf_fixture(spec);
  ASSERT_NE(fixture.world, nullptr);
  auto& token = fixture.world->contracts().as<contracts::Token>(fixture.token);
  EXPECT_EQ(token.holder_count(), 1'500u);
  EXPECT_EQ(fixture.transactions.size(), 50u);
}

TEST(ZipfFixture, ScenarioNamesAreStable) {
  EXPECT_EQ(to_string(ZipfScenario::kTokenTransfers), "TokenTransfers");
  EXPECT_EQ(to_string(ZipfScenario::kHotPool), "HotPool");
  EXPECT_EQ(to_string(ZipfScenario::kAirdrop), "Airdrop");
}

// ------------------------------------------------- Bulk genesis seeding ---

/// Zipf account `rank`, as the fixtures address it.
vm::Address zipf_account(std::uint64_t rank) { return vm::Address::from_u64(rank, 0x05); }

/// The genesis `fixture` was built for, rebuilt the per-key way: one
/// raw_set per account on a directory that grows by doubling.
std::unique_ptr<vm::World> per_key_genesis(const ZipfSpec& spec, const Fixture& fixture) {
  auto world =
      std::make_unique<vm::World>(spec.use_arena ? vm::make_arena() : vm::ArenaHandle{});
  if (spec.scenario == ZipfScenario::kHotPool) {
    const auto& seeded = fixture.world->contracts().as<contracts::SimpleAuction>(fixture.auction);
    auto& auction = static_cast<contracts::SimpleAuction&>(world->contracts().add(
        std::make_unique<contracts::SimpleAuction>(fixture.auction, seeded.beneficiary())));
    for (std::size_t a = 0; a < spec.accounts; ++a) auction.raw_add_pending(zipf_account(a), 100);
    auction.raw_set_highest(seeded.raw_highest_bidder(), seeded.raw_highest_bid());
    world->balances().raw_set(fixture.auction,
                              fixture.world->balances().raw_get(fixture.auction));
  } else {
    const auto& seeded = fixture.world->contracts().as<contracts::Token>(fixture.token);
    auto& token = static_cast<contracts::Token&>(world->contracts().add(
        std::make_unique<contracts::Token>(fixture.token, seeded.symbol(), seeded.issuer())));
    for (std::size_t a = 0; a < spec.accounts; ++a) {
      token.raw_set_balance(zipf_account(a), 1'000'000);
    }
  }
  return world;
}

TEST(BulkSeeding, GenesisRootMatchesPerKeySeeding) {
  for (const ZipfScenario scenario : kAllZipfScenarios) {
    for (const bool use_arena : {true, false}) {
      for (const std::size_t accounts : {std::size_t{1}, std::size_t{4'099}, std::size_t{20'000}}) {
        ZipfSpec spec;
        spec.scenario = scenario;
        spec.accounts = accounts;
        spec.transactions = 10;
        spec.use_arena = use_arena;
        const Fixture fixture = make_zipf_fixture(spec);
        EXPECT_EQ(fixture.world->state_root(), per_key_genesis(spec, fixture)->state_root())
            << to_string(scenario) << ", " << accounts << " accounts, arena "
            << (use_arena ? "on" : "off");
      }
    }
  }
}

// A bulk seed on one side of a fork never writes through to the other:
// once with a directory the seed must grow (a fresh one is built), once
// with a directory reserved ahead (the shared one and its pages are
// copied before the seed writes).
TEST(BulkSeeding, ForkSharingTheDirectoryIsDetached) {
  for (const std::size_t reserved : {std::size_t{0}, std::size_t{10'000}}) {
    vm::World world;
    auto& token = static_cast<contracts::Token&>(world.contracts().add(
        std::make_unique<contracts::Token>(vm::Address::from_u64(4, 0xCC), "T",
                                           vm::Address::from_u64(4, 0x04))));
    token.raw_reserve(reserved);
    token.raw_seed_balances(1'000, zipf_account, 7);
    const util::Hash256 before = world.state_root();
    const std::unique_ptr<vm::World> fork = world.fork();

    token.raw_seed_balances(
        2'000, [](std::size_t i) { return zipf_account(1'000 + i); }, 9);
    const auto& forked = fork->contracts().as<contracts::Token>(token.address());
    EXPECT_EQ(forked.holder_count(), 1'000u) << "reserved " << reserved;
    EXPECT_EQ(forked.raw_balance(zipf_account(1'500)), 0) << "reserved " << reserved;
    EXPECT_EQ(fork->state_root(), before) << "reserved " << reserved;
    EXPECT_EQ(token.holder_count(), 3'000u);
    EXPECT_EQ(token.raw_balance(zipf_account(1'500)), 9);
    EXPECT_EQ(token.raw_balance(zipf_account(500)), 7);
    EXPECT_NE(world.state_root(), before);
  }
}

// The zipf-1m genesis root, pinned: bulk seeding must not move it.
TEST(BulkSeeding, MillionAccountGenesisRootIsUnchanged) {
  ZipfSpec spec;
  spec.scenario = ZipfScenario::kTokenTransfers;
  spec.accounts = 1'000'000;
  spec.transactions = 10;
  const Fixture fixture = make_zipf_fixture(spec);
  EXPECT_EQ(fixture.world->state_root().to_hex(),
            "b2df83fd7533d6a362552becfd01b375a0f2ebb945709c3123c1c5cfd4ca3d63");
}

}  // namespace
}  // namespace concord::workload
