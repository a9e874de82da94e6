#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "contracts/token.hpp"
#include "core/miner.hpp"
#include "core/validator.hpp"
#include "graph/happens_before.hpp"
#include "stm/runtime.hpp"
#include "stm/speculative_action.hpp"
#include "util/rng.hpp"
#include "vm/exec_context.hpp"
#include "workload/workload.hpp"

namespace concord::core {
namespace {

using workload::BenchmarkKind;
using workload::Fixture;
using workload::WorkloadSpec;
using workload::make_fixture;

/// Unit tests skip the calibrated gas burn; the speedup benches enable it.
MinerConfig fast_miner(unsigned threads = 3) {
  MinerConfig cfg;
  cfg.threads = threads;
  cfg.nanos_per_gas = 0.0;
  return cfg;
}

ValidatorConfig fast_validator(unsigned threads = 3) {
  ValidatorConfig cfg;
  cfg.threads = threads;
  cfg.nanos_per_gas = 0.0;
  return cfg;
}

WorkloadSpec spec_of(BenchmarkKind kind, std::size_t txs, unsigned conflict,
                     std::uint64_t seed = 42) {
  WorkloadSpec spec;
  spec.kind = kind;
  spec.transactions = txs;
  spec.conflict_percent = conflict;
  spec.seed = seed;
  return spec;
}

/// Mines `spec` in parallel and returns (block, fixture-after-mining).
std::pair<chain::Block, Fixture> mine_parallel(const WorkloadSpec& spec) {
  Fixture fixture = make_fixture(spec);
  Miner miner(*fixture.world, fast_miner());
  chain::Block block = miner.mine(fixture.transactions, fixture.genesis());
  return {std::move(block), std::move(fixture)};
}

/// A topological order of `hb` that breaks ties at random, so
/// different seeds walk different linear extensions. Shorter than the
/// node count when the graph has a cycle.
std::vector<std::uint32_t> random_topological_order(const graph::HappensBeforeGraph& hb,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::size_t> indegree(hb.node_count(), 0);
  for (const auto& succ : hb.successor_lists()) {
    for (const std::uint32_t v : succ) ++indegree[v];
  }
  std::vector<std::uint32_t> ready;
  for (std::uint32_t v = 0; v < hb.node_count(); ++v) {
    if (indegree[v] == 0) ready.push_back(v);
  }
  std::vector<std::uint32_t> order;
  while (!ready.empty()) {
    const std::size_t pick = rng.below(ready.size());
    const std::uint32_t u = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (const std::uint32_t v : hb.successors(u)) {
      if (--indegree[v] == 0) ready.push_back(v);
    }
  }
  return order;
}

/// THE serializability oracle (paper §5, the linear-extension property):
/// replaying any topological order of the block's happens-before graph
/// one transaction at a time from the pre-block state of `spec` must
/// reproduce the block's statuses and its header root. Checks four
/// seeded random orders; a failure names its seed.
void expect_serially_equivalent(const chain::Block& block, const WorkloadSpec& spec) {
  const std::size_t n = block.transactions.size();
  const graph::HappensBeforeGraph hb = block.schedule.to_graph(n);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<std::uint32_t> order = random_topological_order(hb, seed);
    ASSERT_EQ(order.size(), n) << "cyclic schedule";
    std::vector<chain::Transaction> txs;
    txs.reserve(n);
    for (const std::uint32_t i : order) txs.push_back(block.transactions[i]);

    Fixture fixture = make_fixture(spec);
    Miner serial(*fixture.world, fast_miner(1));
    const std::vector<vm::TxStatus> replayed = serial.execute_serial_baseline(txs);
    std::vector<vm::TxStatus> statuses(n);
    for (std::size_t k = 0; k < n; ++k) statuses[order[k]] = replayed[k];
    EXPECT_EQ(statuses, block.statuses) << "order seed " << seed;
    EXPECT_EQ(fixture.world->state_root(), block.header.state_root) << "order seed " << seed;
  }
}

// ----------------------------------------------------- Serial mining ---

TEST(MinerSerial, ProducesValidatableBlock) {
  Fixture fixture = make_fixture(spec_of(BenchmarkKind::kBallot, 50, 20));
  Miner miner(*fixture.world, fast_miner());
  const chain::Block block = miner.mine_serial(fixture.transactions, fixture.genesis());

  EXPECT_TRUE(block.commitments_consistent());
  EXPECT_EQ(block.schedule.profiles.size(), 50u);
  // The synthetic counters of a serially-mined block (block order on
  // every lock) derive an acyclic graph that replays cleanly.
  Fixture replay = make_fixture(spec_of(BenchmarkKind::kBallot, 50, 20));
  Validator validator(*replay.world, fast_validator());
  const ValidationReport report = validator.validate_parallel(block);
  EXPECT_TRUE(report.ok) << to_string(report.reason) << ": " << report.detail;
}

TEST(MinerSerial, BaselineMatchesSerialMining) {
  Fixture a = make_fixture(spec_of(BenchmarkKind::kBallot, 60, 30));
  Fixture b = make_fixture(spec_of(BenchmarkKind::kBallot, 60, 30));
  Miner miner_a(*a.world, fast_miner());
  Miner miner_b(*b.world, fast_miner());
  const auto statuses = miner_a.execute_serial_baseline(a.transactions);
  const chain::Block block = miner_b.mine_serial(b.transactions, b.genesis());
  EXPECT_EQ(statuses, block.statuses);
  EXPECT_EQ(a.world->state_root(), block.header.state_root);
}

// --------------------------------------------------- Parallel mining ---

class ParallelMiningCorrectness
    : public ::testing::TestWithParam<std::tuple<BenchmarkKind, std::size_t, unsigned>> {};

/// THE serializability property (paper §5): the parallel miner's final
/// state must equal executing a serial order its schedule allows one
/// transaction at a time from the same initial state, with identical
/// per-transaction outcomes — for every such order, not just one.
TEST_P(ParallelMiningCorrectness, EquivalentToDiscoveredSerialOrder) {
  const auto [kind, txs, conflict] = GetParam();
  const WorkloadSpec spec = spec_of(kind, txs, conflict);

  auto [block, mined_fixture] = mine_parallel(spec);
  ASSERT_EQ(block.transactions.size(), txs);
  expect_serially_equivalent(block, spec);
}

TEST_P(ParallelMiningCorrectness, ParallelValidatorAccepts) {
  const auto [kind, txs, conflict] = GetParam();
  const WorkloadSpec spec = spec_of(kind, txs, conflict);

  auto [block, mined_fixture] = mine_parallel(spec);
  Fixture replay_fixture = make_fixture(spec);
  Validator validator(*replay_fixture.world, fast_validator());
  const ValidationReport report = validator.validate_parallel(block);
  EXPECT_TRUE(report.ok) << to_string(report.reason) << ": " << report.detail;
  EXPECT_EQ(replay_fixture.world->state_root(), mined_fixture.world->state_root());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ParallelMiningCorrectness,
    ::testing::Combine(::testing::Values(BenchmarkKind::kBallot, BenchmarkKind::kSimpleAuction,
                                         BenchmarkKind::kEtherDoc, BenchmarkKind::kMixed),
                       ::testing::Values(std::size_t{10}, std::size_t{60}, std::size_t{150}),
                       ::testing::Values(0u, 15u, 50u, 100u)),
    [](const auto& info) {
      // No structured bindings here: the commas inside [k, t, c] would be
      // parsed as macro-argument separators by INSTANTIATE_TEST_SUITE_P.
      return std::string(workload::to_string(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "txs_" +
             std::to_string(std::get<2>(info.param)) + "pct";
    });

TEST(MinerParallel, ManySeedsManySchedulesAllSerializable) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WorkloadSpec spec = spec_of(BenchmarkKind::kMixed, 90, 40, seed);
    auto [block, mined] = mine_parallel(spec);
    SCOPED_TRACE("workload seed " + std::to_string(seed));
    expect_serially_equivalent(block, spec);
  }
}

TEST(MinerParallel, DerivedScheduleIsAcyclicAndOrdered) {
  auto [block, fixture] = mine_parallel(spec_of(BenchmarkKind::kBallot, 100, 50));
  const auto order = block.schedule.to_graph(block.transactions.size()).topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), block.transactions.size());
}

TEST(MinerParallel, ConflictingPairsAreOrderedInSchedule) {
  // At 100% conflict every Ballot voter votes twice; each pair must be
  // connected in the happens-before graph (same voter entry, W/W).
  auto [block, fixture] = mine_parallel(spec_of(BenchmarkKind::kBallot, 40, 100));
  const auto graph = block.schedule.to_graph(40);
  // Exactly one vote per pair succeeds, the other reverts.
  std::size_t reverted = 0;
  for (const auto s : block.statuses) reverted += s == vm::TxStatus::kReverted ? 1 : 0;
  EXPECT_EQ(reverted, 20u);
  EXPECT_GE(graph.edge_count(), 20u);
}

TEST(MinerParallel, NoConflictBlockHasNoEdgesAmongSuccesses) {
  auto [block, fixture] = mine_parallel(spec_of(BenchmarkKind::kEtherDoc, 80, 0));
  // Pure lookups on distinct documents: no edges at all.
  EXPECT_EQ(block.schedule.to_graph(80).edge_count(), 0u);
  for (const auto s : block.statuses) EXPECT_EQ(s, vm::TxStatus::kSuccess);
}

TEST(MinerParallel, StatsAreCoherent) {
  Fixture fixture = make_fixture(spec_of(BenchmarkKind::kSimpleAuction, 100, 60));
  Miner miner(*fixture.world, fast_miner());
  (void)miner.mine(fixture.transactions, fixture.genesis());
  const MinerStats& stats = miner.last_stats();
  EXPECT_EQ(stats.transactions, 100u);
  EXPECT_GE(stats.attempts, 100u);
  EXPECT_EQ(stats.attempts - 100u, stats.conflict_aborts);
  EXPECT_GT(stats.schedule_bytes, 0u);
}

TEST(MinerParallel, SingleThreadMatchesMultiThreadStateRoot) {
  const WorkloadSpec spec = spec_of(BenchmarkKind::kBallot, 80, 15);
  Fixture one = make_fixture(spec);
  Miner miner_one(*one.world, fast_miner(1));
  const auto block_one = miner_one.mine(one.transactions, one.genesis());

  Fixture many = make_fixture(spec);
  Miner miner_many(*many.world, fast_miner(6));
  const auto block_many = miner_many.mine(many.transactions, many.genesis());

  // Schedules may differ (different discovery), but both must be valid
  // and Ballot's final state is order-independent here: same voters, same
  // proposal tallies.
  EXPECT_EQ(block_one.header.state_root, block_many.header.state_root);
}

TEST(MinerParallel, ZeroThreadsRejectedAtConstruction) {
  // A pool without workers would hang the first non-empty mine().
  const WorkloadSpec spec = spec_of(BenchmarkKind::kBallot, 10, 0);
  Fixture fixture = make_fixture(spec);
  EXPECT_THROW(Miner(*fixture.world, fast_miner(0)), std::invalid_argument);
  EXPECT_THROW(Validator(*fixture.world, fast_validator(0)), std::invalid_argument);
}

// ----------------------------------------------------- Validation ------

class TamperRejection : public ::testing::Test {
 protected:
  TamperRejection() {
    const WorkloadSpec spec = spec_of(BenchmarkKind::kMixed, 60, 30);
    auto [block, fixture] = mine_parallel(spec);
    block_ = std::move(block);
    spec_ = spec;
  }

  /// Re-seals header commitments after mutating the body, so the tampering
  /// is only detectable semantically (the harder case).
  void reseal() {
    block_.header.tx_root = block_.compute_tx_root();
    block_.header.status_root = block_.compute_status_root();
    block_.header.schedule_hash = block_.schedule.hash();
  }

  ValidationReport validate() {
    Fixture fixture = make_fixture(spec_);
    Validator validator(*fixture.world, fast_validator());
    return validator.validate_parallel(block_);
  }

  chain::Block block_;
  WorkloadSpec spec_;
};

TEST_F(TamperRejection, HonestBlockAccepted) {
  const auto report = validate();
  EXPECT_TRUE(report.ok) << to_string(report.reason) << ": " << report.detail;
}

TEST_F(TamperRejection, UnsealedTamperingHitsCommitments) {
  block_.statuses[0] = block_.statuses[0] == vm::TxStatus::kSuccess ? vm::TxStatus::kReverted
                                                                    : vm::TxStatus::kSuccess;
  const auto report = validate();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.reason, RejectReason::kBadCommitments);
}

TEST_F(TamperRejection, WrongStateRootRejected) {
  block_.header.state_root = util::sha256("forged state");
  const auto report = validate();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.reason, RejectReason::kStateRootMismatch);
}

TEST_F(TamperRejection, ForgedProfileRejected) {
  // Claim tx 0 touches nothing: the replay trace will disagree.
  block_.schedule.profiles[0].entries.clear();
  reseal();
  const auto report = validate();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.reason, RejectReason::kProfileMismatch);
}

TEST_F(TamperRejection, CyclicScheduleRejected) {
  // Lying counters: tx 0 claims to precede tx 1 on one lock and to follow
  // it on another. The rest of the block stays honest, so the derived
  // graph still has roots — replaying it would start and then wait
  // forever on the cycle, which is why it must be rejected first.
  const stm::LockId first{0xC7C1E, 1};
  const stm::LockId second{0xC7C1E, 2};
  auto& p0 = block_.schedule.profiles[0].entries;
  auto& p1 = block_.schedule.profiles[1].entries;
  p0.push_back({first, stm::LockMode::kWrite, 1});
  p0.push_back({second, stm::LockMode::kWrite, 2});
  p1.push_back({first, stm::LockMode::kWrite, 2});
  p1.push_back({second, stm::LockMode::kWrite, 1});
  block_.schedule.profiles[0].canonicalize();
  block_.schedule.profiles[1].canonicalize();
  reseal();

  const auto hb = block_.schedule.to_graph(block_.transactions.size());
  ASSERT_FALSE(hb.is_acyclic());
  std::vector<bool> has_predecessor(hb.node_count(), false);
  for (const auto& succ : hb.successor_lists()) {
    for (const std::uint32_t v : succ) has_predecessor[v] = true;
  }
  ASSERT_NE(std::find(has_predecessor.begin(), has_predecessor.end(), false),
            has_predecessor.end())
      << "the forged graph needs a root for the cycle to be partial";

  const auto report = validate();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.reason, RejectReason::kCyclicSchedule);
}

/// Regression: one verdict. A write weakened to a read on a lock no other
/// transaction holds changes no happens-before edge, so only the replay
/// trace can catch it; the parallel validator must.
TEST_F(TamperRejection, RegressionWeakenedPrivateWriteRejected) {
  std::map<stm::LockId, std::size_t> holders;
  for (const auto& profile : block_.schedule.profiles) {
    for (const auto& entry : profile.entries) ++holders[entry.lock];
  }
  stm::LockProfileEntry* weakened = nullptr;
  for (auto& profile : block_.schedule.profiles) {
    for (auto& entry : profile.entries) {
      if (weakened == nullptr && entry.mode == stm::LockMode::kWrite &&
          holders[entry.lock] == 1) {
        weakened = &entry;
      }
    }
  }
  ASSERT_NE(weakened, nullptr) << "no private write lock in this block";
  weakened->mode = stm::LockMode::kRead;
  reseal();
  const auto report = validate();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.reason, RejectReason::kProfileMismatch);
}

TEST_F(TamperRejection, MalformedProfileIndexRejected) {
  block_.schedule.profiles[0].tx = 59;  // Duplicate of the last tx index.
  reseal();
  const auto report = validate();
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.reason, RejectReason::kMalformedSchedule);
}

TEST_F(TamperRejection, ForgedStatusVectorRejected) {
  // Flip one status and reseal: structural checks pass, replay disagrees.
  auto& s = block_.statuses[0];
  s = s == vm::TxStatus::kSuccess ? vm::TxStatus::kReverted : vm::TxStatus::kSuccess;
  reseal();
  const auto report = validate();
  EXPECT_FALSE(report.ok);
  // Either the per-profile reverted flag disagrees with the replayed
  // outcome (profile mismatch) or the status vector comparison fires.
  EXPECT_TRUE(report.reason == RejectReason::kStatusMismatch ||
              report.reason == RejectReason::kProfileMismatch)
      << to_string(report.reason);
}

/// A contract whose every call throws an exception the VM does not
/// catch — stands in for a bug surfacing mid-replay.
class ThrowingContract final : public vm::Contract {
 public:
  explicit ThrowingContract(vm::Address address) : Contract(address, "throwing") {}
  void execute(const vm::Call& /*call*/, vm::ExecContext& /*ctx*/) override {
    throw std::logic_error("replay bug");
  }
  void hash_state(vm::StateHasher& /*hasher*/) const override {}
  [[nodiscard]] std::unique_ptr<vm::Contract> fork() const override {
    return std::make_unique<ThrowingContract>(address());
  }
};

TEST_F(TamperRejection, ThrowingReplayRejectedAndPoolReusable) {
  const chain::Block honest = block_;
  const vm::Address target = vm::Address::from_u64(0xB0B, 0xEE);
  block_.transactions[0].contract = target;
  reseal();

  Fixture fixture = make_fixture(spec_);
  fixture.world->contracts().add(std::make_unique<ThrowingContract>(target));
  Validator validator(*fixture.world, fast_validator());
  const auto report = validator.validate_parallel(block_);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.reason, RejectReason::kProfileMismatch);
  EXPECT_EQ(report.detail, "replay task raised an unexpected error");
  EXPECT_EQ(report.replayed, block_.transactions.size());

  // Same validator, same pool, a fresh replica: the honest block passes.
  Fixture fresh = make_fixture(spec_);
  validator.resume_from(*fresh.world);
  const auto again = validator.validate_parallel(honest);
  EXPECT_TRUE(again.ok) << to_string(again.reason) << ": " << again.detail;
}

// ------------------------------------------------ Validator variants ---

TEST(Validator, DeterministicAcrossThreadCounts) {
  const WorkloadSpec spec = spec_of(BenchmarkKind::kMixed, 120, 50);
  auto [block, mined] = mine_parallel(spec);
  for (const unsigned threads : {1u, 2u, 3u, 6u}) {
    Fixture fixture = make_fixture(spec);
    Validator validator(*fixture.world, fast_validator(threads));
    const auto report = validator.validate_parallel(block);
    EXPECT_TRUE(report.ok) << threads << " threads: " << to_string(report.reason) << " "
                           << report.detail;
    EXPECT_EQ(fixture.world->state_root(), block.header.state_root);
  }
}

TEST(Validator, RepeatedValidationIsStable) {
  const WorkloadSpec spec = spec_of(BenchmarkKind::kSimpleAuction, 100, 40);
  auto [block, mined] = mine_parallel(spec);
  Fixture fixture = make_fixture(spec);
  Validator validator(*fixture.world, fast_validator());
  EXPECT_TRUE(validator.validate_parallel(block).ok);
  // Second validation from a *fresh* world must agree.
  Fixture fixture2 = make_fixture(spec);
  Validator validator2(*fixture2.world, fast_validator());
  EXPECT_TRUE(validator2.validate_parallel(block).ok);
  EXPECT_EQ(fixture.world->state_root(), fixture2.world->state_root());
}

TEST(Validator, SerialAndParallelValidatorsAgree) {
  const WorkloadSpec spec = spec_of(BenchmarkKind::kEtherDoc, 90, 70);
  auto [block, mined] = mine_parallel(spec);
  expect_serially_equivalent(block, spec);
  Fixture fixture = make_fixture(spec);
  Validator parallel(*fixture.world, fast_validator());
  EXPECT_TRUE(parallel.validate_parallel(block).ok);
  EXPECT_EQ(fixture.world->state_root(), block.header.state_root);
}

TEST(Validator, EmptyBlockValidates) {
  Fixture fixture = make_fixture(spec_of(BenchmarkKind::kBallot, 0, 0));
  Miner miner(*fixture.world, fast_miner());
  const auto block = miner.mine({}, fixture.genesis());
  Fixture replay = make_fixture(spec_of(BenchmarkKind::kBallot, 0, 0));
  Validator validator(*replay.world, fast_validator());
  EXPECT_TRUE(validator.validate_parallel(block).ok);
}

// ------------------------------------- Resumable-from-snapshot seam ---

/// The re-org recovery entry point: a validator whose replica went
/// stale (here: already advanced past the block's pre-state) rejects
/// the replay — and accepts it again after resume_from() re-points it
/// at a fresh replica materialized from the boundary snapshot.
TEST(Validator, ResumeFromSnapshotRevalidatesAfterADirtyWorld) {
  const WorkloadSpec spec = spec_of(BenchmarkKind::kMixed, 80, 30);
  Fixture fixture = make_fixture(spec);
  const vm::WorldSnapshot boundary(*fixture.world);  // Pre-block state.
  Miner miner(*fixture.world, fast_miner());
  const chain::Block block = miner.mine_serial(fixture.transactions, fixture.genesis());

  // First replay consumes the replica; replaying the same block again on
  // the now-dirty world must fail the root cross-check.
  auto replica = boundary.materialize();
  Validator validator(*replica, fast_validator());
  ASSERT_TRUE(validator.validate_parallel(block).ok);
  const ValidationReport stale = validator.validate_parallel(block);
  ASSERT_FALSE(stale.ok);

  // Recovery: re-materialize from the boundary snapshot and resume.
  auto fresh = boundary.materialize();
  validator.resume_from(*fresh);
  const ValidationReport resumed = validator.validate_parallel(block);
  EXPECT_TRUE(resumed.ok) << to_string(resumed.reason) << ": " << resumed.detail;
  EXPECT_EQ(fresh->state_root(), block.header.state_root);
}

/// Miner half of the same seam: after resume_from() the miner re-mines
/// the identical batch from the identical pre-state — byte-identical
/// blocks, as the post-recovery pipeline requires.
TEST(MinerSerial, ResumeFromSnapshotReminesIdenticalBlock) {
  const WorkloadSpec spec = spec_of(BenchmarkKind::kBallot, 60, 25);
  Fixture fixture = make_fixture(spec);
  const vm::WorldSnapshot boundary(*fixture.world);
  const chain::Block parent = fixture.genesis();  // Captured pre-mining.
  Miner miner(*fixture.world, fast_miner());
  const chain::Block first = miner.mine_serial(fixture.transactions, parent);

  auto rewound = boundary.materialize();
  miner.resume_from(*rewound);
  const chain::Block again = miner.mine_serial(fixture.transactions, parent);
  EXPECT_EQ(first, again);
  EXPECT_EQ(first.hash(), again.hash());
}

/// The root depends on the state, not on the miner's history: an aborted
/// speculative mint doubled the miner's balance directory (the 65th holder
/// of a table sized for 64) and left it doubled after the undo. The
/// validator replays on a replica that never saw the attempt, so its
/// directory kept its natural size, and it must reproduce the header root.
TEST(MinerValidator, AbortedDirectoryGrowthKeepsTheRootReproducible) {
  workload::ZipfSpec spec;
  spec.accounts = 64;
  spec.transactions = 40;
  Fixture fixture = workload::make_zipf_fixture(spec);
  const chain::Block genesis = fixture.genesis();
  const vm::WorldSnapshot boundary(*fixture.world, genesis.header.state_root);

  auto& token = fixture.world->contracts().as<contracts::Token>(fixture.token);
  {
    stm::BoostingRuntime runtime;
    stm::SpeculativeAction attempt(runtime, 0, runtime.next_birth());
    vm::ExecContext ctx = vm::ExecContext::speculative(
        *fixture.world, runtime, attempt, vm::GasMeter(vm::gas::kDefaultTxGasLimit, 0.0));
    ctx.push_msg(vm::MsgContext{token.issuer(), fixture.token, 0});
    token.mint(ctx, vm::Address::from_u64(1'000'000, 0x77), 5);
    ASSERT_EQ(token.holder_count(), spec.accounts + 1);
    ctx.pop_msg();
    attempt.abort();
  }
  ASSERT_EQ(token.holder_count(), spec.accounts);
  ASSERT_EQ(fixture.world->state_root(), genesis.header.state_root);

  Miner miner(*fixture.world, fast_miner());
  const chain::Block block = miner.mine(fixture.transactions, genesis);
  auto replica = boundary.materialize();
  Validator validator(*replica, fast_validator());
  const ValidationReport report = validator.validate_parallel(block);
  EXPECT_TRUE(report.ok) << to_string(report.reason) << ": " << report.detail;
  EXPECT_EQ(replica->state_root(), block.header.state_root);
  EXPECT_EQ(fixture.world->state_root(), block.header.state_root);
}

}  // namespace
}  // namespace concord::core
