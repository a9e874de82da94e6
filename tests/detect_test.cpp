// ConcordSan end-to-end: mutant contracts that under-declare their
// abstract locks must be flagged (and nothing else may be). The mutants
// are driven through the ExecContext::inject_declare_fault seam — the
// production collections cannot under-declare by construction, so the
// fault is injected at the declaration choke point instead, giving
// exactly the two bug shapes a hand-written storage type could exhibit:
// a missing declaration (kDrop) and a too-weak one (kWeakenToRead).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "contracts/token.hpp"
#include "core/miner.hpp"
#include "core/validator.hpp"
#include "detect/detect.hpp"
#include "node/node.hpp"
#include "util/bytes.hpp"
#include "vm/boosted_counter_map.hpp"
#include "vm/contract.hpp"
#include "vm/errors.hpp"
#include "vm/world.hpp"
#include "workload/workload.hpp"

namespace concord {
namespace {

vm::Address read_address(util::ByteReader& r) {
  vm::Address a;
  const auto raw = r.get_raw(a.bytes.size());
  std::copy(raw.begin(), raw.end(), a.bytes.begin());
  return a;
}

/// A Token variant whose storage discipline is deliberately broken: when
/// the transaction sender is `victim`, the next lock declaration is
/// corrupted per `fault` before the balance access it should cover.
class MutantToken final : public vm::Contract {
 public:
  static constexpr vm::Selector kTransfer = 1;
  static constexpr vm::Selector kSetBalance = 2;

  MutantToken(vm::Address address, vm::DeclareFault fault, vm::Address victim)
      : Contract(address, "MutantToken"),
        fault_(fault),
        victim_(victim),
        balances_(field_space("balances")) {}

  void execute(const vm::Call& call, vm::ExecContext& ctx) override {
    util::ByteReader args(call.args);
    switch (call.selector) {
      case kTransfer: {
        const vm::Address to = read_address(args);
        const auto amount = static_cast<vm::Amount>(args.get_varint());
        const vm::Address from = ctx.msg().sender;
        // The seeded bug: the overdraft read's WRITE declaration is the
        // one that goes missing — "writing a balance without its key
        // lock" (the later set re-declares, so only the read is bare).
        arm(ctx);
        const vm::Amount available = balances_.get_for_update(ctx, from);
        if (available < amount) throw vm::RevertError("insufficient balance");
        balances_.set(ctx, from, available - amount);
        balances_.add(ctx, to, amount);
        return;
      }
      case kSetBalance: {
        const vm::Address who = read_address(args);
        const auto value = static_cast<std::int64_t>(args.get_varint());
        arm(ctx);
        balances_.set(ctx, who, value);
        return;
      }
      default:
        throw vm::BadCall("MutantToken: unknown selector");
    }
  }

  void hash_state(vm::StateHasher& hasher) const override {
    balances_.hash_state(hasher, "balances");
  }

  [[nodiscard]] std::unique_ptr<vm::Contract> fork() const override {
    auto copy = std::make_unique<MutantToken>(address(), fault_, victim_);
    copy->balances_.fork_state_from(balances_);
    return copy;
  }

  void raw_set_balance(const vm::Address& who, std::int64_t v) { balances_.raw_set(who, v); }

  [[nodiscard]] static chain::Transaction make_transfer_tx(const vm::Address& contract,
                                                           const vm::Address& sender,
                                                           const vm::Address& to,
                                                           vm::Amount amount) {
    return chain::TxBuilder(contract, sender, kTransfer)
        .arg_address(to)
        .arg_u64(static_cast<std::uint64_t>(amount))
        .build();
  }

  [[nodiscard]] static chain::Transaction make_set_balance_tx(const vm::Address& contract,
                                                              const vm::Address& sender,
                                                              const vm::Address& who,
                                                              std::int64_t value) {
    return chain::TxBuilder(contract, sender, kSetBalance)
        .arg_address(who)
        .arg_u64(static_cast<std::uint64_t>(value))
        .build();
  }

 private:
  void arm(vm::ExecContext& ctx) const {
    if (ctx.msg().sender == victim_) ctx.inject_declare_fault(fault_);
  }

  vm::DeclareFault fault_;
  vm::Address victim_;
  vm::BoostedCounterMap<vm::Address> balances_;
};

struct MutantFixture {
  std::unique_ptr<vm::World> world;
  vm::Address contract;
};

MutantFixture make_mutant_fixture(vm::DeclareFault fault, const vm::Address& victim) {
  MutantFixture fx;
  fx.world = std::make_unique<vm::World>();
  fx.contract = vm::Address::from_u64(0xbad, 1);
  auto& token = static_cast<MutantToken&>(
      fx.world->contracts().add(std::make_unique<MutantToken>(fx.contract, fault, victim)));
  for (std::uint64_t i = 1; i <= 8; ++i) {
    token.raw_set_balance(vm::Address::from_u64(i), 1'000);
  }
  return fx;
}

core::MinerConfig detect_miner(unsigned threads = 3) {
  core::MinerConfig cfg;
  cfg.threads = threads;
  cfg.nanos_per_gas = 0.0;
  cfg.detect = true;
  return cfg;
}

chain::Block genesis_of(const vm::World& world) {
  chain::Block genesis;
  genesis.header.state_root = world.state_root();
  return genesis;
}

// ------------------------------------------------ Stock workloads clean ---

class StockWorkloadsClean : public ::testing::TestWithParam<workload::BenchmarkKind> {};

// All six stock contracts (the four workloads cover Ballot, SimpleAuction,
// EtherDoc, and — through Mixed — Token, PaymentSplitter and KvStore)
// declare exactly what they touch: ConcordSan must stay silent under both
// mining modes, on conflict-free and conflict-heavy blocks alike.
TEST_P(StockWorkloadsClean, NoViolationsEitherMiningMode) {
  for (const unsigned conflict : {0u, 40u, 100u}) {
    workload::WorkloadSpec spec;
    spec.kind = GetParam();
    spec.transactions = 60;
    spec.conflict_percent = conflict;

    workload::Fixture fixture = workload::make_fixture(spec);
    core::Miner miner(*fixture.world, detect_miner());
    (void)miner.mine(fixture.transactions, fixture.genesis());
    EXPECT_TRUE(miner.last_detect_report().clean())
        << "speculative, conflict=" << conflict << ": "
        << miner.last_detect_report().to_json();
    EXPECT_EQ(miner.last_stats().detect_violations, 0u);
    EXPECT_GT(miner.last_detect_report().accesses, 0u);

    workload::Fixture serial_fixture = workload::make_fixture(spec);
    core::Miner serial_miner(*serial_fixture.world, detect_miner());
    (void)serial_miner.mine_serial(serial_fixture.transactions, serial_fixture.genesis());
    EXPECT_TRUE(serial_miner.last_detect_report().clean())
        << "serial, conflict=" << conflict << ": "
        << serial_miner.last_detect_report().to_json();
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, StockWorkloadsClean,
                         ::testing::ValuesIn(workload::kAllBenchmarks),
                         [](const auto& info) {
                           return std::string(workload::to_string(info.param));
                         });

// ---------------------------------------------------- Seeded mutants ---

TEST(Lockset, DropFaultFlaggedExactlyOnce) {
  const vm::Address victim = vm::Address::from_u64(1);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kDrop, victim);
  const chain::Block genesis = genesis_of(*fx.world);

  std::vector<chain::Transaction> txs = {
      MutantToken::make_set_balance_tx(fx.contract, victim, vm::Address::from_u64(2), 7)};
  core::Miner miner(*fx.world, detect_miner());
  (void)miner.mine_serial(txs, genesis);

  const detect::DetectReport& report = miner.last_detect_report();
  ASSERT_EQ(report.lockset.size(), 1u) << report.to_json();
  EXPECT_TRUE(report.soundness.empty());
  const detect::Violation& v = report.lockset[0];
  EXPECT_EQ(v.tx, 0u);
  EXPECT_FALSE(v.declared);
  EXPECT_EQ(v.access, stm::LockMode::kWrite);
  EXPECT_STREQ(v.op, "counter.set");
  EXPECT_EQ(v.selector, MutantToken::kSetBalance);
  EXPECT_EQ(miner.last_stats().detect_violations, 1u);
}

TEST(Lockset, WeakenFaultReportsHeldMode) {
  const vm::Address victim = vm::Address::from_u64(1);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kWeakenToRead, victim);
  const chain::Block genesis = genesis_of(*fx.world);

  std::vector<chain::Transaction> txs = {
      MutantToken::make_set_balance_tx(fx.contract, victim, vm::Address::from_u64(2), 7)};
  core::Miner miner(*fx.world, detect_miner());
  (void)miner.mine_serial(txs, genesis);

  const detect::DetectReport& report = miner.last_detect_report();
  ASSERT_EQ(report.lockset.size(), 1u) << report.to_json();
  const detect::Violation& v = report.lockset[0];
  EXPECT_TRUE(v.declared);
  EXPECT_EQ(v.held, stm::LockMode::kRead);
  EXPECT_EQ(v.access, stm::LockMode::kWrite);
}

TEST(Lockset, TransferReadWithoutLockFlagged) {
  // The canonical seed from the issue: a Token variant touching a balance
  // without the key lock its access class requires. Only the overdraft
  // read's declaration is dropped; the subsequent set re-declares WRITE,
  // so exactly one access goes uncovered.
  const vm::Address victim = vm::Address::from_u64(1);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kDrop, victim);
  const chain::Block genesis = genesis_of(*fx.world);

  std::vector<chain::Transaction> txs = {
      MutantToken::make_transfer_tx(fx.contract, victim, vm::Address::from_u64(2), 10)};
  core::Miner miner(*fx.world, detect_miner());
  (void)miner.mine_serial(txs, genesis);

  const detect::DetectReport& report = miner.last_detect_report();
  ASSERT_EQ(report.lockset.size(), 1u) << report.to_json();
  EXPECT_STREQ(report.lockset[0].op, "counter.get_for_update");
  EXPECT_FALSE(report.lockset[0].declared);
}

TEST(Lockset, NonVictimSendersStayClean) {
  const vm::Address victim = vm::Address::from_u64(1);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kDrop, victim);
  const chain::Block genesis = genesis_of(*fx.world);

  std::vector<chain::Transaction> txs = {
      MutantToken::make_transfer_tx(fx.contract, vm::Address::from_u64(2),
                                    vm::Address::from_u64(3), 10),
      MutantToken::make_set_balance_tx(fx.contract, vm::Address::from_u64(4),
                                       vm::Address::from_u64(4), 55)};
  core::Miner miner(*fx.world, detect_miner());
  (void)miner.mine_serial(txs, genesis);
  EXPECT_TRUE(miner.last_detect_report().clean())
      << miner.last_detect_report().to_json();
}

TEST(Lockset, SpeculativeMiningFlagsMutantToo) {
  const vm::Address victim = vm::Address::from_u64(1);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kDrop, victim);
  const chain::Block genesis = genesis_of(*fx.world);

  std::vector<chain::Transaction> txs = {
      MutantToken::make_set_balance_tx(fx.contract, victim, vm::Address::from_u64(2), 7)};
  core::Miner miner(*fx.world, detect_miner());
  (void)miner.mine(txs, genesis);

  ASSERT_EQ(miner.last_detect_report().lockset.size(), 1u)
      << miner.last_detect_report().to_json();
  EXPECT_FALSE(miner.last_detect_report().lockset[0].declared);
}

TEST(Lockset, DetectOffRecordsNothing) {
  const vm::Address victim = vm::Address::from_u64(1);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kDrop, victim);
  const chain::Block genesis = genesis_of(*fx.world);

  std::vector<chain::Transaction> txs = {
      MutantToken::make_set_balance_tx(fx.contract, victim, vm::Address::from_u64(2), 7)};
  core::MinerConfig cfg = detect_miner();
  cfg.detect = false;
  core::Miner miner(*fx.world, cfg);
  (void)miner.mine_serial(txs, genesis);

  EXPECT_TRUE(miner.last_detect_report().clean());
  EXPECT_EQ(miner.last_detect_report().accesses, 0u);
  EXPECT_EQ(miner.last_stats().detect_violations, 0u);
}

// ------------------------------------------------- Soundness oracle ---

TEST(SoundnessOracle, UndeclaredConflictBreaksTheoremOne) {
  // tx0's write on key A never declares its lock, so the derived graph
  // has no edge between tx0 and tx1 (an honest write to the same A) —
  // the published schedule claims they commute. The oracle must call
  // that out: Theorem 1's "locks rule" precondition does not hold.
  const vm::Address victim = vm::Address::from_u64(1);
  const vm::Address shared_key = vm::Address::from_u64(7);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kDrop, victim);
  const chain::Block genesis = genesis_of(*fx.world);

  std::vector<chain::Transaction> txs = {
      MutantToken::make_set_balance_tx(fx.contract, victim, shared_key, 5),
      MutantToken::make_set_balance_tx(fx.contract, vm::Address::from_u64(2), shared_key, 9)};
  core::Miner miner(*fx.world, detect_miner());
  const chain::Block block = miner.mine_serial(txs, genesis);
  // The seeded hole.
  ASSERT_EQ(block.schedule.to_graph(block.transactions.size()).edge_count(), 0u);

  const detect::DetectReport& report = miner.last_detect_report();
  ASSERT_EQ(report.soundness.size(), 1u) << report.to_json();
  const detect::SoundnessViolation& v = report.soundness[0];
  EXPECT_EQ(v.tx_a, 0u);
  EXPECT_EQ(v.tx_b, 1u);
  EXPECT_EQ(v.mode_a, stm::LockMode::kWrite);
  EXPECT_EQ(v.mode_b, stm::LockMode::kWrite);
  // The missing declaration itself is also a lockset violation.
  EXPECT_EQ(report.lockset.size(), 1u);
  EXPECT_EQ(miner.last_stats().detect_violations, 2u);
}

TEST(SoundnessOracle, CommutingUnorderedPairIsNotFlagged) {
  // Two honest transfers crediting the same receiver: both add
  // (INCREMENT) to the shared key, increments commute, so the pair may
  // legitimately stay unordered — the oracle must not cry wolf.
  const vm::Address nobody = vm::Address::from_u64(99);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kDrop, nobody);
  const chain::Block genesis = genesis_of(*fx.world);

  const vm::Address receiver = vm::Address::from_u64(7);
  std::vector<chain::Transaction> txs = {
      MutantToken::make_transfer_tx(fx.contract, vm::Address::from_u64(1), receiver, 5),
      MutantToken::make_transfer_tx(fx.contract, vm::Address::from_u64(2), receiver, 9)};
  core::Miner miner(*fx.world, detect_miner());
  const chain::Block block = miner.mine_serial(txs, genesis);

  EXPECT_TRUE(miner.last_detect_report().clean())
      << miner.last_detect_report().to_json();
  // Sanity: the pair really is unordered (credits share only the
  // INCREMENT-mode lock).
  EXPECT_EQ(block.schedule.to_graph(block.transactions.size()).edge_count(), 0u);
}

// ----------------------------------------------- Node-level plumbing ---

TEST(NodeDetect, PipelinedStreamsCleanAtDepths124) {
  for (const std::size_t depth : {1u, 2u, 4u}) {
    workload::StreamSpec spec;
    spec.kind = workload::BenchmarkKind::kMixed;
    spec.blocks = 20;
    spec.txs_per_block = 25;
    spec.conflict_percent = 20;

    workload::Fixture fixture = workload::make_stream_fixture(spec);
    node::NodeConfig config;
    config.miner = detect_miner();
    config.validator.nanos_per_gas = 0.0;
    config.batch.target_txs = spec.txs_per_block;
    config.pipelined = true;
    config.pipeline_depth = depth;

    node::Node node(std::move(fixture.world), config);
    std::jthread producer([&node, txs = std::move(fixture.transactions)]() mutable {
      (void)node.mempool().submit_many(std::move(txs));
      node.mempool().close();
    });
    node.run();

    EXPECT_TRUE(node.ok());
    EXPECT_EQ(node.stats().blocks, spec.blocks) << "depth " << depth;
    EXPECT_EQ(node.stats().detect_violations, 0u) << "depth " << depth;
    EXPECT_FALSE(node.first_detect_report().has_value());
  }
}

TEST(NodeDetect, FirstDirtyReportSurfaces) {
  const vm::Address victim = vm::Address::from_u64(1);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kDrop, victim);

  node::NodeConfig config;
  config.miner = detect_miner();
  config.validator.nanos_per_gas = 0.0;
  config.batch.target_txs = 1;
  config.pipelined = false;
  config.mining = node::MiningMode::kSerial;

  node::Node node(std::move(fx.world), config);
  (void)node.mempool().submit_many(
      {MutantToken::make_set_balance_tx(fx.contract, victim, vm::Address::from_u64(2), 7),
       MutantToken::make_set_balance_tx(fx.contract, vm::Address::from_u64(3),
                                        vm::Address::from_u64(3), 9)});
  node.mempool().close();
  node.run();

  EXPECT_EQ(node.stats().detect_violations, 1u);
  ASSERT_TRUE(node.first_detect_report().has_value());
  EXPECT_EQ(node.first_detect_report()->lockset.size(), 1u);
}

// -------------------------------------------------------- Reporting ---

TEST(DetectReport, JsonCarriesViolations) {
  const vm::Address victim = vm::Address::from_u64(1);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kWeakenToRead, victim);
  const chain::Block genesis = genesis_of(*fx.world);

  std::vector<chain::Transaction> txs = {
      MutantToken::make_set_balance_tx(fx.contract, victim, vm::Address::from_u64(2), 7)};
  core::Miner miner(*fx.world, detect_miner());
  (void)miner.mine_serial(txs, genesis);

  const std::string json = miner.last_detect_report().to_json();
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"op\": \"counter.set\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"held\": \"read\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"soundness_violations\": []"), std::string::npos) << json;
}

TEST(DetectReport, ArtifactWrittenWhenDirConfigured) {
  detect::DetectReport report;
  report.block_number = 3;
  report.transactions = 2;

  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(::setenv("CONCORD_DETECT_REPORT_DIR", dir.c_str(), 1), 0);
  const std::string path = detect::write_report_artifact(report, "detect_block3");
  ::unsetenv("CONCORD_DETECT_REPORT_DIR");

  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"block\": 3"), std::string::npos);
}

TEST(DetectReport, MinerAutoExportsDirtyBlocks) {
  // The miner itself writes the artifact for a non-clean block when the
  // report dir is configured — CI's detect lane relies on this to upload
  // the violation report on failure.
  const std::string dir = ::testing::TempDir() + "/concordsan_miner";
  ASSERT_EQ(::setenv("CONCORD_DETECT_REPORT_DIR", dir.c_str(), 1), 0);

  const vm::Address victim = vm::Address::from_u64(1);
  MutantFixture fx = make_mutant_fixture(vm::DeclareFault::kDrop, victim);
  std::vector<chain::Transaction> txs = {
      MutantToken::make_set_balance_tx(fx.contract, victim, vm::Address::from_u64(2), 7)};
  core::Miner miner(*fx.world, detect_miner());
  const chain::Block block = miner.mine_serial(txs, genesis_of(*fx.world));
  ::unsetenv("CONCORD_DETECT_REPORT_DIR");

  std::ifstream in(dir + "/detect_block" + std::to_string(block.header.number) + ".json");
  ASSERT_TRUE(in.is_open());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"clean\": false"), std::string::npos);
}

TEST(DetectReport, ArtifactSkippedWithoutDir) {
  ::unsetenv("CONCORD_DETECT_REPORT_DIR");
  detect::DetectReport report;
  EXPECT_TRUE(detect::write_report_artifact(report, "nope").empty());
}

TEST(AccessRecorder, ClearedOnSpeculativeRetry) {
  // Direct unit check of the retry contract: execute_speculative clears
  // the log at each attempt start, so after a conflict-free run the log
  // holds exactly the final attempt's events.
  stm::AccessRecorder rec;
  rec.declare(stm::LockId{1, 2}, stm::LockMode::kWrite);
  rec.access(stm::LockId{1, 2}, stm::LockMode::kWrite, "map.put");
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.access_count(), 1u);
  rec.clear();
  EXPECT_TRUE(rec.empty());
}

}  // namespace
}  // namespace concord
