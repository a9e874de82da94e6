#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "contracts/ballot.hpp"
#include "contracts/etherdoc.hpp"
#include "contracts/kv_store.hpp"
#include "contracts/payment_splitter.hpp"
#include "contracts/simple_auction.hpp"
#include "contracts/token.hpp"
#include "core/miner.hpp"
#include "core/pool_parallel.hpp"
#include "sched/fork_join.hpp"
#include "util/rng.hpp"
#include "vm/boosted_array.hpp"
#include "vm/boosted_map.hpp"
#include "vm/cow.hpp"
#include "vm/exec_context.hpp"
#include "vm/gas.hpp"
#include "vm/world.hpp"
#include "workload/workload.hpp"

namespace concord::vm {
namespace {

Address addr(std::uint64_t n, std::uint8_t salt) { return Address::from_u64(n, salt); }

/// The flat root format, kept as a test oracle: each map folds all of its
/// entries, sorted by encoded key, straight into the one root hash. It
/// shares no code with CowPages::digest, so it is an independent
/// canonical encoding of the same abstract state: two worlds must have
/// equal roots exactly when their flat roots are equal.
class FlatOracleHasher final : public StateHasher {
 public:
  void put_map(std::string_view label, const HashableMap& map) override {
    using Bytes = std::vector<std::uint8_t>;
    std::vector<std::pair<Bytes, Bytes>> entries;
    map.for_each_encoded(
        [&entries](std::span<const std::uint8_t> key, std::span<const std::uint8_t> value) {
          entries.emplace_back(Bytes(key.begin(), key.end()), Bytes(value.begin(), value.end()));
        });
    std::sort(entries.begin(), entries.end());
    begin_section(label);
    put_u64(entries.size());
    for (const auto& [key, value] : entries) {
      put_bytes(key);
      put_bytes(value);
    }
  }
};

util::Hash256 flat_root(const World& world) {
  FlatOracleHasher hasher;
  world.hash_state(hasher);
  return hasher.finish();
}

const Address kBallotAddr = addr(1, 0xCC);
const Address kAuctionAddr = addr(2, 0xCC);
const Address kEtherDocAddr = addr(3, 0xCC);
const Address kTokenAddr = addr(4, 0xCC);
const Address kSplitterAddr = addr(5, 0xCC);
const Address kEagerKvAddr = addr(6, 0xCC);
const Address kLazyKvAddr = addr(7, 0xCC);

/// One world holding every contract the repository ships — both KvStore
/// backends included — with non-trivial state in every boosted field
/// kind (map, counter map, scalar, lazy map) plus native balances.
std::unique_ptr<World> make_six_contract_world(bool use_arena = true) {
  auto world = std::make_unique<World>(use_arena ? make_arena() : ArenaHandle{});

  auto ballot = std::make_unique<contracts::Ballot>(
      kBallotAddr, addr(1, 0x04), std::vector<std::string>{"alpha", "beta"});
  ballot->raw_register_voter(addr(7, 0x01), 3);
  world->contracts().add(std::move(ballot));

  auto auction = std::make_unique<contracts::SimpleAuction>(kAuctionAddr, addr(2, 0x04));
  auction->raw_set_highest(addr(8, 0x02), 500);
  auction->raw_add_pending(addr(9, 0x02), 120);
  world->contracts().add(std::move(auction));

  auto etherdoc = std::make_unique<contracts::EtherDoc>(kEtherDocAddr, addr(3, 0x04));
  etherdoc->raw_add_document(42, addr(10, 0x03));
  world->contracts().add(std::move(etherdoc));

  auto token = std::make_unique<contracts::Token>(kTokenAddr, "CNC", addr(4, 0x04));
  token->raw_mint(addr(11, 0x05), 1'000);
  world->contracts().add(std::move(token));

  world->contracts().add(std::make_unique<contracts::PaymentSplitter>(
      kSplitterAddr, kTokenAddr, std::vector<Address>{addr(11, 0x05), addr(12, 0x05)}));

  auto eager = std::make_unique<contracts::KvStore>(kEagerKvAddr,
                                                    contracts::KvStore::Backend::kEager);
  eager->raw_put(1, 11);
  world->contracts().add(std::move(eager));

  auto lazy_kv = std::make_unique<contracts::KvStore>(kLazyKvAddr,
                                                      contracts::KvStore::Backend::kLazy);
  lazy_kv->raw_put(2, 22);
  world->contracts().add(std::move(lazy_kv));

  world->balances().raw_set(addr(20, 0x06), 9'000);
  // Enough native balances for a digest tree two internal levels deep.
  for (std::uint64_t i = 0; i < 300; ++i) {
    world->balances().raw_set(addr(5'000 + i, 0x06), static_cast<Amount>(i + 1));
  }
  return world;
}

// --------------------------------------------------------- World::fork ---

TEST(WorldFork, RoundTripsStateRootForAllSixContracts) {
  const auto world = make_six_contract_world();
  const auto replica = world->fork();
  EXPECT_EQ(replica->state_root(), world->state_root());
  EXPECT_EQ(replica->contracts().size(), world->contracts().size());
  // The fork resolves the same typed contracts at the same addresses.
  EXPECT_EQ(replica->contracts().as<contracts::Token>(kTokenAddr).raw_balance(addr(11, 0x05)),
            1'000);
  EXPECT_EQ(replica->contracts().as<contracts::KvStore>(kLazyKvAddr).raw_get(2), 22);
}

TEST(WorldFork, ForkIsIndependentInBothDirections) {
  const auto world = make_six_contract_world();
  const auto original_root = world->state_root();
  const auto replica = world->fork();

  // Mutating the fork leaves the original frozen (detach-on-write)…
  replica->contracts().as<contracts::Token>(kTokenAddr).raw_mint(addr(13, 0x05), 5);
  EXPECT_NE(replica->state_root(), original_root);
  EXPECT_EQ(world->state_root(), original_root);

  // …and mutating the original leaves the fork untouched.
  const auto replica_root = replica->state_root();
  world->balances().raw_set(addr(21, 0x06), 1);
  EXPECT_EQ(replica->state_root(), replica_root);
}

TEST(WorldFork, SurvivesItsParentWorld) {
  auto world = make_six_contract_world();
  const auto original_root = world->state_root();
  auto replica = world->fork();
  world.reset();  // Shared pages must outlive the lineage that made them.
  EXPECT_EQ(replica->state_root(), original_root);
  EXPECT_EQ(replica->contracts().as<contracts::KvStore>(kEagerKvAddr).raw_get(1), 11);
}

class WorldForkWorkloads : public ::testing::TestWithParam<workload::BenchmarkKind> {};

TEST_P(WorldForkWorkloads, RoundTripsGenesisStateRoot) {
  workload::WorkloadSpec spec;
  spec.kind = GetParam();
  spec.transactions = 60;
  spec.conflict_percent = 20;
  const auto fixture = workload::make_fixture(spec);
  EXPECT_EQ(fixture.world->fork()->state_root(), fixture.world->state_root());
}

/// Forks are taken at block boundaries in the node, so the root must
/// round-trip from post-block state too — not just pristine genesis.
TEST_P(WorldForkWorkloads, RoundTripsPostBlockStateRoot) {
  workload::WorkloadSpec spec;
  spec.kind = GetParam();
  spec.transactions = 40;
  spec.conflict_percent = 25;
  const auto fixture = workload::make_fixture(spec);
  core::MinerConfig config;
  config.nanos_per_gas = 0.0;
  core::Miner miner(*fixture.world, config);
  const chain::Block block = miner.mine_serial(fixture.transactions, fixture.genesis());

  const auto replica = fixture.world->fork();
  EXPECT_EQ(replica->state_root(), fixture.world->state_root());
  EXPECT_EQ(replica->state_root(), block.header.state_root);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorldForkWorkloads,
                         ::testing::ValuesIn(workload::kAllBenchmarks),
                         [](const auto& info) {
                           return std::string(workload::to_string(info.param));
                         });

// ----------------------------------------------- COW aliasing fuzz -------

/// One raw mutation against the six-contract world, replayable: the fuzz
/// compares every forked lineage against a reference world rebuilt from
/// genesis + its mutation log, so any page aliasing between lineages (a
/// write leaking through a shared page, a detach losing entries, a stale
/// cached digest) shows up as a root mismatch.
struct Mutation {
  std::uint64_t op = 0;
  std::uint64_t a = 0;
  std::int64_t b = 0;
};

/// Kinds 0–7 change the abstract state. Kinds 8 and 9 change only a
/// map's directory size (a reserve; a run of inserts that doubles the
/// directory and is then erased), so they must leave every root as it
/// was, and the replay reference skips them. The native balances keep
/// their natural size, so writes to them exercise the cached digest path.
constexpr std::uint64_t kMutationKinds = 10;

bool layout_only(const Mutation& m) { return m.op % kMutationKinds >= 8; }

void apply_mutation(World& world, const Mutation& m) {
  switch (m.op % kMutationKinds) {
    case 0:
      world.contracts().as<contracts::Token>(kTokenAddr).raw_mint(addr(m.a % 37, 0x05),
                                                                  1 + (m.b % 999));
      break;
    case 1:
      world.balances().raw_set(addr(m.a % 37, 0x06), m.b % 100'000);
      break;
    case 2:
      world.contracts().as<contracts::KvStore>(kEagerKvAddr).raw_put(m.a % 53, m.b);
      break;
    case 3:
      world.contracts().as<contracts::KvStore>(kLazyKvAddr).raw_put(m.a % 53, m.b);
      break;
    case 4:
      world.contracts().as<contracts::SimpleAuction>(kAuctionAddr)
          .raw_add_pending(addr(m.a % 37, 0x02), 1 + (m.b % 500));
      break;
    case 5:
      world.contracts().as<contracts::SimpleAuction>(kAuctionAddr)
          .raw_set_highest(addr(m.a % 37, 0x02), m.b % 10'000);
      break;
    case 6:
      world.contracts().as<contracts::EtherDoc>(kEtherDocAddr)
          .raw_add_document(m.a % 29, addr(static_cast<std::uint64_t>(m.b) % 37, 0x03));
      break;
    case 7:
      world.contracts().as<contracts::Ballot>(kBallotAddr)
          .raw_register_voter(addr(m.a % 37, 0x01), 1 + (m.b % 5));
      break;
    case 8: {
      const std::size_t entries = 64 + m.a % 4096;
      if (m.b % 3 == 2) {
        world.contracts().as<contracts::Token>(kTokenAddr).raw_reserve(entries);
      } else {
        world.contracts().as<contracts::KvStore>(m.b % 3 == 0 ? kEagerKvAddr : kLazyKvAddr)
            .raw_reserve(entries);
      }
      break;
    }
    default: {
      // More fresh holders than the map holds doubles its directory at
      // its natural size; a zero balance erases each one again.
      auto& token = world.contracts().as<contracts::Token>(kTokenAddr);
      const std::size_t fresh = token.holder_count() + 9 + m.a % 64;
      for (std::size_t i = 0; i < fresh; ++i) token.raw_set_balance(addr(i, 0x07), 1);
      for (std::size_t i = 0; i < fresh; ++i) token.raw_set_balance(addr(i, 0x07), 0);
      break;
    }
  }
}

/// A forked lineage plus the full mutation history that produced it.
struct Lineage {
  std::unique_ptr<World> world;
  std::vector<Mutation> log;
};

/// A fresh world carrying `log`'s state changes: no cached digest and no
/// layout-only history, so its root is computed from scratch over
/// naturally sized directories.
std::unique_ptr<World> replay_reference(const std::vector<Mutation>& log) {
  auto reference = make_six_contract_world();
  for (const Mutation& m : log) {
    if (!layout_only(m)) apply_mutation(*reference, m);
  }
  return reference;
}

TEST(WorldForkFuzz, InterleavedForkMutateMatchesEagerReplayReference) {
  constexpr int kSteps = 48;
  constexpr std::size_t kMaxLineages = 5;

  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng;
  };

  // Two genesis lineages, arena on and off: the same state on different
  // allocators must hash alike.
  std::vector<Lineage> pool;
  pool.push_back(Lineage{make_six_contract_world(/*use_arena=*/true), {}});
  pool.push_back(Lineage{make_six_contract_world(/*use_arena=*/false), {}});

  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t r = next();
    if ((r >> 40) % 3 == 0) {
      // Fork a lineage. When the pool is full, retire the oldest lineage
      // first — forks must survive the worlds they came from.
      if (pool.size() == kMaxLineages) pool.erase(pool.begin());
      const std::size_t parent = (r >> 4) % pool.size();
      pool.push_back(Lineage{pool[parent].world->fork(), pool[parent].log});
    } else {
      const std::size_t pick = (r >> 4) % pool.size();
      Mutation m{next(), next(), static_cast<std::int64_t>(next() % 1'000'000)};
      apply_mutation(*pool[pick].world, m);
      pool[pick].log.push_back(m);
    }

    // Every lineage's root, computed through the digests it and its
    // relatives cached in earlier steps, must equal its reference's
    // root computed from scratch: no write may leak into (or be lost
    // from) a sibling, and no cached digest may go stale.
    std::vector<util::Hash256> roots;
    std::vector<util::Hash256> flats;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const auto reference = replay_reference(pool[i].log);
      roots.push_back(pool[i].world->state_root());
      flats.push_back(flat_root(*pool[i].world));
      ASSERT_EQ(roots[i], reference->state_root())
          << "lineage " << i << " diverged from its replay reference after step " << step;
      ASSERT_EQ(flats[i], flat_root(*reference)) << "lineage " << i << " after step " << step;
    }
    // And the root is a function of the state the flat oracle sees.
    for (std::size_t i = 0; i < pool.size(); ++i) {
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        ASSERT_EQ(roots[i] == roots[j], flats[i] == flats[j])
            << "lineages " << i << " and " << j << " after step " << step;
      }
    }
  }
}

/// CowPages at four directory sizes holding one entry set: grown
/// naturally, reserved far ahead, doubled by inserts that were then
/// erased, and arena-backed. Only the first has the canonical size (and
/// uses the digest cache); all four must produce one digest.
TEST(WorldForkFuzz, SameEntriesInAnyDirectorySizeGiveOneDigest) {
  using Pages = CowPages<std::uint64_t, std::int64_t, StableKeyHash>;
  constexpr std::uint64_t kEntries = 300;
  const auto fill = [](Pages& pages) {
    for (std::uint64_t k = 0; k < kEntries; ++k) {
      pages.insert_or_assign(k, static_cast<std::int64_t>(k) * 3);
    }
  };

  Pages grown;
  fill(grown);
  Pages reserved;
  reserved.reserve(100'000);
  fill(reserved);
  Pages doubled;
  fill(doubled);
  const std::size_t natural_pages = doubled.page_count();
  std::uint64_t extra = kEntries;
  while (doubled.page_count() == natural_pages) doubled.insert_or_assign(extra++, 1);
  for (std::uint64_t k = kEntries; k < extra; ++k) ASSERT_TRUE(doubled.erase(k));
  Pages pooled(make_arena());
  fill(pooled);

  ASSERT_EQ(doubled.size(), kEntries);
  EXPECT_GT(reserved.page_count(), grown.page_count());
  EXPECT_GT(doubled.page_count(), grown.page_count());
  const util::Hash256 digest = grown.digest();
  EXPECT_EQ(grown.digest(), digest);  // Second call: served from the cache.
  EXPECT_EQ(reserved.digest(), digest);
  EXPECT_EQ(doubled.digest(), digest);
  EXPECT_EQ(pooled.digest(), digest);

  // A fork shares the cached digests; a write through it changes its own
  // digest and leaves the original's alone.
  Pages fork = grown.fork();
  EXPECT_EQ(fork.digest(), digest);
  fork.insert_or_assign(7, 22);
  EXPECT_NE(fork.digest(), digest);
  EXPECT_EQ(grown.digest(), digest);
  fork.insert_or_assign(7, 21);
  EXPECT_EQ(fork.digest(), digest);
}

// ----------------------------------------------- BoostedArray fork -------

util::Hash256 array_hash(const BoostedArray<std::int64_t>& array) {
  StateHasher hasher;
  array.hash_state(hasher, "array");
  return hasher.finish();
}

/// No shipped contract holds a BoostedArray, so the chunk-level COW gets
/// its aliasing coverage here: fork across chunk boundaries, then write,
/// push and pop on both sides.
TEST(BoostedArrayFork, DetachesOnlyTheTouchedChunkInEitherDirection) {
  World world;
  BoostedArray<std::int64_t> original(7);
  // Two full chunks plus a partial one.
  for (std::int64_t i = 0; i < 150; ++i) original.raw_push_back(i);

  BoostedArray<std::int64_t> replica(7);
  replica.fork_state_from(original);
  EXPECT_EQ(array_hash(replica), array_hash(original));

  GasMeter meter(gas::kDefaultTxGasLimit, 0.0);
  ExecContext ctx = ExecContext::serial(world, meter);

  replica.set(ctx, 3, -1);    // Chunk 0 of the replica detaches…
  replica.set(ctx, 140, -2);  // …and chunk 2.
  EXPECT_EQ(original.raw_get(3), 3);  // The original still reads the frozen chunks.
  EXPECT_EQ(original.raw_get(140), 140);
  EXPECT_EQ(replica.raw_get(3), -1);
  EXPECT_EQ(replica.raw_get(70), 70);  // Untouched chunk 1 is still shared.

  original.set(ctx, 70, -3);  // Writes on the original don't reach the fork.
  EXPECT_EQ(replica.raw_get(70), 70);
  EXPECT_EQ(original.raw_get(70), -3);

  (void)replica.push_back(ctx, 999);
  original.pop_back(ctx);
  EXPECT_EQ(replica.size(), 151u);
  EXPECT_EQ(original.size(), 149u);
  EXPECT_EQ(replica.raw_get(150), 999);
  EXPECT_EQ(replica.raw_get(149), 149);  // The popped element survives in the fork.
}

TEST(BoostedArrayFork, LockSpaceMismatchThrows) {
  BoostedArray<std::int64_t> a(7);
  BoostedArray<std::int64_t> b(8);
  EXPECT_THROW(b.fork_state_from(a), std::logic_error);
}

// ------------------------------------------------------- WorldSnapshot ---

TEST(WorldSnapshotHandle, StaysFrozenWhileTheSourceMutates) {
  auto world = make_six_contract_world();
  const WorldSnapshot snapshot(*world);
  const auto frozen_root = snapshot.state_root();
  EXPECT_EQ(frozen_root, world->state_root());

  world->balances().raw_set(addr(20, 0x06), 1);
  EXPECT_NE(world->state_root(), frozen_root);
  EXPECT_EQ(snapshot.state_root(), frozen_root);
  EXPECT_EQ(snapshot.world().state_root(), frozen_root);
}

TEST(WorldSnapshotHandle, MaterializeMintsIndependentReplicas) {
  const auto world = make_six_contract_world();
  const WorldSnapshot snapshot(*world);
  const WorldSnapshot handle = snapshot;  // Copies share the frozen state.
  EXPECT_EQ(handle.state_root(), snapshot.state_root());

  const auto replica = handle.materialize();
  EXPECT_EQ(replica->state_root(), snapshot.state_root());
  replica->balances().raw_set(addr(22, 0x06), 7);
  EXPECT_NE(replica->state_root(), snapshot.state_root());
  EXPECT_EQ(snapshot.world().state_root(), handle.state_root());
}

TEST(WorldSnapshotHandle, SeededRootSkipsTheHashAndMatches) {
  const auto world = make_six_contract_world();
  const auto known_root = world->state_root();
  // The node's fast path: the boundary's root was just computed (and
  // verified) by the block that ended there, so the snapshot takes it on
  // trust instead of rehashing O(state).
  const WorldSnapshot snapshot(*world, known_root);
  EXPECT_EQ(snapshot.state_root(), known_root);
  EXPECT_EQ(snapshot.world().state_root(), known_root);
  EXPECT_EQ(snapshot.materialize()->state_root(), known_root);
}

TEST(WorldSnapshotHandle, EmptyHandleIsInvalidWithZeroRoot) {
  const WorldSnapshot empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_TRUE(empty.state_root().is_zero());

  const auto world = make_six_contract_world();
  const WorldSnapshot frozen(*world);
  EXPECT_TRUE(frozen.valid());
  EXPECT_FALSE(frozen.state_root().is_zero());
}

TEST(WorldSnapshotHandle, UseCountTracksSharedHandles) {
  const auto world = make_six_contract_world();
  WorldSnapshot snapshot(*world);
  EXPECT_EQ(snapshot.use_count(), 1);
  {
    const WorldSnapshot shared = snapshot;  // The ring-entry case.
    EXPECT_EQ(snapshot.use_count(), 2);
    EXPECT_EQ(shared.use_count(), 2);
    // Materializing forks the state; it does not pin another handle.
    const auto replica = shared.materialize();
    EXPECT_EQ(snapshot.use_count(), 2);
  }
  EXPECT_EQ(snapshot.use_count(), 1);

  // A moved-from handle releases its share and reads as empty.
  const WorldSnapshot taken = std::move(snapshot);
  EXPECT_EQ(taken.use_count(), 1);
  EXPECT_TRUE(taken.valid());
}

// --------------------------------------------- concurrent COW sharing ----

/// The TSan target for the COW redesign: materialize() on handles sharing
/// one frozen world is now pointer-sharing (refcount bumps on shared
/// pages), not a memcpy of private state — and it runs concurrently with
/// a writer detaching pages from that same frozen state. Any in-place
/// mutation of a shared page, or a non-atomic handoff in the ensure-
/// unique path, is a data race this test exposes under -fsanitize=thread.
TEST(WorldForkConcurrency, SharedFrozenPagesServeConcurrentMaterializeAndWrites) {
  auto world = make_six_contract_world();
  // Enough balance entries for a multi-page directory, so readers and
  // the writer actually overlap on shared pages.
  for (std::uint64_t i = 0; i < 512; ++i) {
    world->balances().raw_set(addr(1'000 + i, 0x06), static_cast<Amount>(i + 1));
  }
  const WorldSnapshot boundary(*world);
  const util::Hash256 frozen_root = boundary.state_root();

  std::atomic<int> mismatches{0};
  {
    std::vector<std::jthread> validators;
    for (int t = 0; t < 3; ++t) {
      validators.emplace_back([&boundary, &frozen_root, &mismatches, t] {
        for (int round = 0; round < 4; ++round) {
          auto replica = boundary.materialize();
          if (replica->state_root() != frozen_root) mismatches.fetch_add(1);
          // Replica writes detach pages shared with the frozen world.
          for (std::uint64_t i = 0; i < 64; ++i) {
            replica->balances().raw_set(
                addr(2'000 + static_cast<std::uint64_t>(t) * 100 + i, 0x06), 7);
          }
          if (replica->state_root() == frozen_root) mismatches.fetch_add(1);
        }
      });
    }
    // Meanwhile the "miner" keeps advancing the original world, peeling
    // its own pages off the same frozen state.
    for (std::uint64_t i = 0; i < 256; ++i) {
      world->balances().raw_set(addr(1'000 + (i % 512), 0x06), static_cast<Amount>(i));
      world->contracts().as<contracts::KvStore>(kEagerKvAddr).raw_put(i % 64, 1);
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(boundary.state_root(), frozen_root);
}

/// A six-contract world plus `accounts` native balances: large enough that
/// the balance map's digest splits into subtrees a pool can fill.
std::unique_ptr<World> make_large_world(std::uint64_t accounts) {
  auto world = make_six_contract_world();
  world->balances().raw_seed(
      accounts, [](std::size_t i) { return addr(i, 0x08); }, 5);
  return world;
}

/// Random balance writes: overwrites, fresh accounts and erasures (a zero
/// balance), spread over the whole table.
void scatter_writes(World& world, std::uint64_t accounts, std::uint64_t seed, int count) {
  util::Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const std::uint64_t account = rng.below(accounts + accounts / 8);
    world.balances().raw_set(addr(account, 0x08), static_cast<Amount>(rng.below(3)));
  }
}

// A root hashed with dirty subtrees filled on a 4-thread pool equals the
// serial root, on forks written independently, on a reserved
// (non-canonical) directory and on one grown then erased back; and it
// equals the root of the same state built from scratch, which the flat
// oracle confirms is the same state.
TEST(WorldParallelRoot, MatchesSerialRootAndOracleAcrossForks) {
  constexpr std::uint64_t kAccounts = 200'000;
  sched::ForkJoinPool pool(4);
  const ParallelFor parallel = core::pool_parallel_for(pool);

  const auto base = make_large_world(kAccounts);
  const util::Hash256 base_root = base->state_root(&parallel);
  EXPECT_EQ(base_root, make_large_world(kAccounts)->state_root());

  // Forks 0 and 1 come from the base, 2 and 3 from forks 0 and 1; each
  // scatters its own writes, listed by seed in `history`.
  std::vector<std::unique_ptr<World>> forks;
  std::vector<std::vector<std::uint64_t>> history;
  for (std::uint64_t f = 0; f < 4; ++f) {
    forks.push_back(f < 2 ? base->fork() : forks[f - 2]->fork());
    history.push_back(f < 2 ? std::vector<std::uint64_t>{} : history[f - 2]);
    history.back().push_back(0xF0 + f);
    scatter_writes(*forks.back(), kAccounts, 0xF0 + f, 2'000);
  }
  // Reserved ahead: the directory is larger than its entry count needs.
  forks[1]->balances().raw_reserve(4 * kAccounts);
  // Grown past a doubling, then erased back to the same entries.
  {
    auto& balances = forks[3]->balances();
    const std::size_t fresh = kAccounts / 2;
    for (std::size_t i = 0; i < fresh; ++i) balances.raw_set(addr(i, 0x09), 1);
    for (std::size_t i = 0; i < fresh; ++i) balances.raw_set(addr(i, 0x09), 0);
  }

  for (std::size_t f = 0; f < forks.size(); ++f) {
    const World& world = *forks[f];
    // Alternate which path meets the cold cells first.
    util::Hash256 parallel_root;
    util::Hash256 serial_root;
    if (f % 2 == 0) {
      parallel_root = world.state_root(&parallel);
      serial_root = world.state_root();
    } else {
      serial_root = world.state_root();
      parallel_root = world.state_root(&parallel);
    }
    const auto reference = make_large_world(kAccounts);
    for (const std::uint64_t seed : history[f]) scatter_writes(*reference, kAccounts, seed, 2'000);
    EXPECT_EQ(parallel_root, serial_root) << "fork " << f;
    EXPECT_EQ(parallel_root, reference->state_root()) << "fork " << f;
    EXPECT_EQ(flat_root(world), flat_root(*reference)) << "fork " << f;
    EXPECT_NE(parallel_root, base_root) << "fork " << f;
  }
  EXPECT_EQ(base->state_root(&parallel), base_root);
  EXPECT_EQ(WorldSnapshot(*forks[0]).state_root(&parallel), forks[0]->state_root());
}

/// The TSan target for the digest cache: pages and a directory whose
/// digests nobody has computed yet, shared by four forks. Three threads
/// race to fill the same cache cells while the fourth writes, which
/// copies the directory (and its cells) out from under them. Every root
/// must equal the from-scratch root of an independently built world.
TEST(WorldForkConcurrency, RootsRacingOnColdSharedPagesMatchTheOracle) {
  constexpr std::uint64_t kAccounts = 2'048;
  const auto seeded = [] {
    auto world = make_six_contract_world();
    for (std::uint64_t i = 0; i < kAccounts; ++i) {
      world->balances().raw_set(addr(1'000 + i, 0x06), static_cast<Amount>(i + 1));
    }
    return world;
  };
  const auto write = [](World& world) {
    for (std::uint64_t i = 0; i < 300; ++i) {
      world.balances().raw_set(addr(1'000 + (i * 7) % kAccounts, 0x06), -7);
    }
  };
  const auto reference = seeded();
  const util::Hash256 expected = reference->state_root();
  write(*reference);
  const util::Hash256 expected_written = reference->state_root();

  const auto cold = seeded();  // No root computed: every cache cell is empty.
  std::vector<std::unique_ptr<World>> forks;
  for (int f = 0; f < 4; ++f) forks.push_back(cold->fork());

  std::vector<util::Hash256> roots(3);
  util::Hash256 written_root;
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < roots.size(); ++t) {
      threads.emplace_back([&forks, &roots, t] {
        for (int round = 0; round < 3; ++round) roots[t] = forks[t]->state_root();
      });
    }
    threads.emplace_back([&forks, &write, &written_root] {
      write(*forks[3]);
      written_root = forks[3]->state_root();
    });
  }
  for (const util::Hash256& root : roots) EXPECT_EQ(root, expected);
  EXPECT_EQ(written_root, expected_written);
  EXPECT_EQ(cold->state_root(), expected);
  EXPECT_EQ(flat_root(*cold), flat_root(*seeded()));
}

// The parallel fill beside a writer and a serial root: three forks share
// one cold directory. One hashes on a 4-thread pool, one hashes serially,
// and one writes (copying the directory and its cells out from under the
// other two) and then hashes on the pool. Every root must equal the root
// of an independently built world.
TEST(WorldForkConcurrency, ParallelRootRacesASerialRootAndAWriter) {
  constexpr std::uint64_t kAccounts = 200'000;
  const auto write = [](World& world) { scatter_writes(world, kAccounts, 0xAB, 500); };
  const auto reference = make_large_world(kAccounts);
  const util::Hash256 expected = reference->state_root();
  write(*reference);
  const util::Hash256 expected_written = reference->state_root();

  const auto cold = make_large_world(kAccounts);
  std::vector<std::unique_ptr<World>> forks;
  for (int f = 0; f < 3; ++f) forks.push_back(cold->fork());

  sched::ForkJoinPool reader_pool(4);
  sched::ForkJoinPool writer_pool(4);
  const ParallelFor reader_parallel = core::pool_parallel_for(reader_pool);
  const ParallelFor writer_parallel = core::pool_parallel_for(writer_pool);
  util::Hash256 parallel_root;
  util::Hash256 serial_root;
  util::Hash256 written_root;
  {
    const std::jthread parallel_reader(
        [&] { parallel_root = forks[0]->state_root(&reader_parallel); });
    const std::jthread serial_reader([&] { serial_root = forks[1]->state_root(); });
    const std::jthread writer([&] {
      write(*forks[2]);
      written_root = forks[2]->state_root(&writer_parallel);
    });
  }
  EXPECT_EQ(parallel_root, expected);
  EXPECT_EQ(serial_root, expected);
  EXPECT_EQ(written_root, expected_written);
  EXPECT_EQ(cold->state_root(&reader_parallel), expected);
}

}  // namespace
}  // namespace concord::vm
