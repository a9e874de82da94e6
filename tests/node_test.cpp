#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/miner.hpp"
#include "core/validator.hpp"
#include "node/node.hpp"
#include "workload/workload.hpp"

namespace concord::node {
namespace {

using workload::BenchmarkKind;
using workload::StreamSpec;
using workload::make_stream_fixture;

StreamSpec stream_spec(BenchmarkKind kind, std::size_t blocks, std::size_t txs_per_block,
                       unsigned conflict) {
  StreamSpec spec;
  spec.kind = kind;
  spec.blocks = blocks;
  spec.txs_per_block = txs_per_block;
  spec.conflict_percent = conflict;
  return spec;
}

/// The whole suite runs at ring depth 1 unless the harness says
/// otherwise: the CMake registration re-runs it with
/// CONCORD_PIPELINE_DEPTH ∈ {2, 4} so the k=1 regression lane and the
/// ring lanes both stay green (tests that pin their own depth ignore
/// this).
std::size_t env_pipeline_depth() {
  if (const char* env = std::getenv("CONCORD_PIPELINE_DEPTH")) {
    if (const unsigned long depth = std::strtoul(env, nullptr, 10); depth >= 1) return depth;
  }
  return 1;
}

/// Unit tests skip the calibrated gas burn.
NodeConfig fast_node(const StreamSpec& spec) {
  NodeConfig config;
  config.miner.nanos_per_gas = 0.0;
  config.validator.nanos_per_gas = 0.0;
  config.batch.target_txs = spec.txs_per_block;
  config.pipeline_depth = env_pipeline_depth();
  return config;
}

/// A node plus the transaction stream born from the SAME fixture build:
/// one genesis world (the node forks the validator replica itself), one
/// stream — nothing is rebuilt and re-matched by hand.
struct NodeUnderTest {
  std::unique_ptr<Node> node;
  std::vector<chain::Transaction> stream;
};

NodeUnderTest make_node(const StreamSpec& spec, NodeConfig config) {
  auto fixture = make_stream_fixture(spec);
  auto stream = std::move(fixture.transactions);
  return {std::make_unique<Node>(std::move(fixture.world), config), std::move(stream)};
}

/// Runs `node` over the stream with a concurrent producer; expects clean
/// completion.
void drive(Node& node, std::vector<chain::Transaction> stream) {
  std::jthread producer([&node, &stream] {
    (void)node.mempool().submit_many(std::move(stream));
    node.mempool().close();
  });
  node.run();
}

/// The unpipelined reference the acceptance criterion names: cut the
/// stream into policy-sized batches, serial-mine each, validate, append —
/// one block fully finished before the next begins.
chain::Blockchain sequential_reference(const StreamSpec& spec) {
  auto mine_side = make_stream_fixture(spec);
  auto validate_world = mine_side.world->fork();  // One genesis, two views (COW).
  core::MinerConfig miner_config;
  miner_config.nanos_per_gas = 0.0;
  core::ValidatorConfig validator_config;
  validator_config.nanos_per_gas = 0.0;
  core::Miner miner(*mine_side.world, miner_config);
  core::Validator validator(*validate_world, validator_config);

  chain::Blockchain chain(mine_side.world->state_root());
  const auto& stream = mine_side.transactions;
  for (std::size_t start = 0; start < stream.size(); start += spec.txs_per_block) {
    const std::size_t end = std::min(start + spec.txs_per_block, stream.size());
    const std::vector<chain::Transaction> batch(stream.begin() + static_cast<std::ptrdiff_t>(start),
                                                stream.begin() + static_cast<std::ptrdiff_t>(end));
    chain::Block block = miner.mine_serial(batch, chain.tip());
    const core::ValidationReport report = validator.validate_parallel(block);
    EXPECT_TRUE(report.ok) << core::to_string(report.reason) << ": " << report.detail;
    chain.append(std::move(block));
  }
  return chain;
}

// ------------------------------------------- Pipeline determinism ---

class PipelineDeterminism : public ::testing::TestWithParam<BenchmarkKind> {};

/// The acceptance criterion: a pipelined node in deterministic (serial)
/// mining mode over ≥20 blocks produces a chain byte-identical — block
/// hashes, state roots, statuses, schedules — to the sequential
/// mine→validate→append loop over the same mempool stream.
TEST_P(PipelineDeterminism, PipelinedChainIsByteIdenticalToSequentialLoop) {
  const StreamSpec spec = stream_spec(GetParam(), /*blocks=*/20, /*txs_per_block=*/25,
                                      /*conflict=*/20);

  NodeConfig config = fast_node(spec);
  config.pipelined = true;
  config.mining = MiningMode::kSerial;
  auto [node, stream] = make_node(spec, config);
  drive(*node, std::move(stream));

  ASSERT_TRUE(node->ok());
  const chain::Blockchain& pipelined = node->chain();
  const chain::Blockchain reference = sequential_reference(spec);

  ASSERT_EQ(pipelined.height(), spec.blocks);
  ASSERT_EQ(pipelined.height(), reference.height());
  for (std::uint64_t n = 0; n <= reference.height(); ++n) {
    EXPECT_EQ(pipelined.at(n), reference.at(n)) << "block " << n << " diverged";
    EXPECT_EQ(pipelined.at(n).hash(), reference.at(n).hash());
  }
  EXPECT_TRUE(pipelined.verify_links());
}

/// Pipelining is a scheduling change, not a semantic one: the same node
/// config with pipelined=false must also reproduce the reference chain.
TEST_P(PipelineDeterminism, SequentialNodeMatchesPipelinedNode) {
  const StreamSpec spec = stream_spec(GetParam(), /*blocks=*/8, /*txs_per_block=*/20,
                                      /*conflict=*/30);

  NodeConfig pipelined_config = fast_node(spec);
  pipelined_config.pipelined = true;
  pipelined_config.mining = MiningMode::kSerial;
  auto [pipelined, pipelined_stream] = make_node(spec, pipelined_config);
  drive(*pipelined, std::move(pipelined_stream));

  NodeConfig sequential_config = fast_node(spec);
  sequential_config.pipelined = false;
  sequential_config.mining = MiningMode::kSerial;
  auto [sequential, sequential_stream] = make_node(spec, sequential_config);
  drive(*sequential, std::move(sequential_stream));

  ASSERT_TRUE(pipelined->ok());
  ASSERT_TRUE(sequential->ok());
  ASSERT_EQ(pipelined->chain().height(), sequential->chain().height());
  for (std::uint64_t n = 0; n <= pipelined->chain().height(); ++n) {
    EXPECT_EQ(pipelined->chain().at(n), sequential->chain().at(n));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PipelineDeterminism,
                         ::testing::Values(BenchmarkKind::kBallot, BenchmarkKind::kSimpleAuction,
                                           BenchmarkKind::kEtherDoc, BenchmarkKind::kMixed),
                         [](const auto& info) {
                           return std::string(workload::to_string(info.param));
                         });

// --------------------------------------------- Depth-k determinism ---

/// Ring depth is a scheduling knob, not a semantic one: the acceptance
/// criterion requires the serial-mode pipelined chain byte-identical to
/// the sequential reference at depths 1, 2 and 4 (explicitly, whatever
/// CONCORD_PIPELINE_DEPTH says).
class PipelineDepthDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelineDepthDeterminism, RingDepthDoesNotChangeTheChain) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kMixed, /*blocks=*/20, /*txs_per_block=*/25,
                                      /*conflict=*/20);
  NodeConfig config = fast_node(spec);
  config.pipelined = true;
  config.mining = MiningMode::kSerial;
  config.pipeline_depth = GetParam();
  auto [node, stream] = make_node(spec, config);
  drive(*node, std::move(stream));

  ASSERT_TRUE(node->ok());
  const chain::Blockchain reference = sequential_reference(spec);
  ASSERT_EQ(node->chain().height(), reference.height());
  for (std::uint64_t n = 0; n <= reference.height(); ++n) {
    EXPECT_EQ(node->chain().at(n), reference.at(n)) << "block " << n << " diverged";
  }
  const NodeStats& stats = node->stats();
  EXPECT_LE(stats.ring_high_water, GetParam());
  EXPECT_EQ(stats.rejected_blocks, 0u);
  EXPECT_EQ(stats.dropped_transactions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepthDeterminism, ::testing::Values(1u, 2u, 4u),
                         [](const auto& info) {
                           return "depth" + std::to_string(info.param);
                         });

// --------------------------------------------- Speculative pipeline ---

/// With speculative mining the schedule depends on thread timing, so the
/// chain is not byte-reproducible — but every block must still validate
/// and the stream must be fully processed.
TEST(NodePipeline, SpeculativeStreamFullyValidated) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kMixed, /*blocks=*/20, /*txs_per_block=*/25,
                                      /*conflict=*/25);
  NodeConfig config = fast_node(spec);
  config.pipelined = true;
  config.mining = MiningMode::kSpeculative;
  config.mempool_capacity = 2 * spec.txs_per_block;  // Exercise backpressure too.
  auto [node, stream] = make_node(spec, config);
  drive(*node, std::move(stream));

  ASSERT_TRUE(node->ok()) << core::to_string(node->failure().reason);
  EXPECT_EQ(node->chain().height(), spec.blocks);
  EXPECT_TRUE(node->chain().verify_links());

  const NodeStats& stats = node->stats();
  EXPECT_EQ(stats.blocks, spec.blocks);
  EXPECT_EQ(stats.transactions, spec.total_transactions());
  EXPECT_GE(stats.attempts, stats.transactions);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GT(stats.mine_ms, 0.0);
  EXPECT_GT(stats.validate_ms, 0.0);
  EXPECT_GT(stats.lock_table_high_water, 0u);
}

// ----------------------------------------------- Shutdown semantics ---

TEST(NodePipeline, ShortFinalBatchDrainsOnClose) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kBallot, /*blocks=*/3, /*txs_per_block=*/20,
                                      /*conflict=*/0);
  NodeConfig config = fast_node(spec);
  auto [node, stream] = make_node(spec, config);

  // 47 transactions at target 20: blocks of 20, 20, then 7 on close.
  stream.resize(47);
  drive(*node, std::move(stream));

  ASSERT_TRUE(node->ok());
  ASSERT_EQ(node->chain().height(), 3u);
  EXPECT_EQ(node->chain().at(1).transactions.size(), 20u);
  EXPECT_EQ(node->chain().at(2).transactions.size(), 20u);
  EXPECT_EQ(node->chain().at(3).transactions.size(), 7u);
}

TEST(NodePipeline, MaxBlocksStopsTheStream) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kEtherDoc, /*blocks=*/10,
                                      /*txs_per_block=*/15, /*conflict=*/10);
  NodeConfig config = fast_node(spec);
  config.max_blocks = 4;
  auto [node, stream] = make_node(spec, config);
  drive(*node, std::move(stream));

  ASSERT_TRUE(node->ok());
  EXPECT_EQ(node->chain().height(), 4u);
  // run() closes the mempool so producers can't hang on a stopped node.
  EXPECT_TRUE(node->mempool().closed());
}

TEST(NodePipeline, RunTwiceThrows) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kBallot, 1, 5, 0);
  auto node = make_node(spec, fast_node(spec)).node;
  node->mempool().close();
  node->run();
  EXPECT_THROW(node->run(), std::logic_error);
}

// ------------------------------------------------- Re-org recovery ---

/// Validator slow enough (calibrated gas burn at 200 ns/gas ≈ tens of
/// ms per block; workload transactions carry four-to-five-figure gas)
/// that the zero-burn miner always runs the full ring ahead before the
/// first verdict lands — which pins exactly which blocks are in flight
/// when the rejection happens, making the recovery tests deterministic.
constexpr double kSlowValidatorNanosPerGas = 200.0;

/// The read-path settings every recovery case runs under: off, and the
/// default window. The recovery anchor is the accepted-boundary fork the
/// read path publishes, so rollback must not depend on publishing it.
constexpr std::array<std::size_t, 2> kRetainSnapshots{0, 8};

/// A serial-mining pipelined node whose post-mine hook corrupts the
/// published state root of the FIRST block mined as number
/// `faulty_number` — the post-root-corrupting fault of the acceptance
/// criterion. One-shot, so a block re-mined with the same number after
/// recovery validates cleanly.
NodeConfig faulty_node(const StreamSpec& spec, std::size_t depth, std::uint64_t faulty_number,
                       std::size_t retain_snapshots) {
  NodeConfig config;
  config.miner.nanos_per_gas = 0.0;
  config.validator.nanos_per_gas = kSlowValidatorNanosPerGas;
  config.batch.target_txs = spec.txs_per_block;
  config.pipelined = true;
  config.mining = MiningMode::kSerial;
  config.pipeline_depth = depth;
  config.retain_snapshots = retain_snapshots;
  config.post_mine_hook = [faulty_number, fired = std::make_shared<bool>(false)](
                              chain::Block& block) {
    if (!*fired && block.header.number == faulty_number) {
      *fired = true;
      block.header.state_root.bytes[0] ^= 0xff;
    }
  };
  return config;
}

/// Rejection at depth k with the whole remaining stream already
/// speculated: blocks 3..6 sit in the ring when block 2's verdict comes
/// back. The node must abort the suffix and the committed chain must be
/// the sequential reference truncated at the rejection point — not a
/// torn-down node, not a chain containing any doomed block.
TEST(NodeRecovery, SuffixAbortTruncatesChainAtTheRejectionPoint) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kMixed, /*blocks=*/6, /*txs_per_block=*/20,
                                      /*conflict=*/20);
  const chain::Blockchain reference = sequential_reference(spec);
  for (const std::size_t retain : kRetainSnapshots) {
    SCOPED_TRACE("retain_snapshots=" + std::to_string(retain));
    // Depth ≥ remaining blocks: 3..6 all fit in flight behind block 2.
    NodeConfig config = faulty_node(spec, /*depth=*/6, /*faulty_number=*/2, retain);
    // "All of 3..6 are in flight when 2's verdict lands" is pinned by a
    // barrier, not a slow validator (a timing bet TSan's scheduler can
    // lose): the validator holds block 2 until the miner has drained the
    // stream, so the suffix is in the ring by construction, at full
    // speed, under any scheduler.
    config.validator.nanos_per_gas = 0.0;
    auto gate = std::make_shared<std::atomic<Node*>>(nullptr);
    config.pre_validate_hook = [gate](const chain::Block& block) {
      if (block.header.number != 2) return;
      const Node* running = nullptr;
      while ((running = gate->load(std::memory_order_acquire)) == nullptr ||
             !running->mining_done()) {
        std::this_thread::yield();
      }
    };
    auto [node, stream] = make_node(spec, config);
    gate->store(node.get(), std::memory_order_release);
    drive(*node, std::move(stream));

    // The rejection is reported — but it did not tear the node down; the
    // run completed and the chain below the fault is intact.
    ASSERT_FALSE(node->ok());
    EXPECT_EQ(node->failure().reason, core::RejectReason::kStateRootMismatch);

    ASSERT_EQ(node->chain().height(), 1u);
    for (std::uint64_t n = 0; n <= 1; ++n) {
      EXPECT_EQ(node->chain().at(n), reference.at(n)) << "block " << n << " diverged";
    }
    EXPECT_TRUE(node->chain().verify_links());

    const NodeStats& stats = node->stats();
    EXPECT_EQ(stats.rejected_blocks, 1u);
    EXPECT_EQ(stats.aborted_blocks, 4u);  // Blocks 3..6, drained from the ring.
    // The re-org completed (validator re-materialized) even though the
    // miner — its stream already drained — never resumed mining.
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_EQ(stats.blocks, 1u);
    EXPECT_EQ(stats.transactions, 20u);
    // Accounting closes: every consumed transaction either committed or
    // was dropped by the re-org.
    EXPECT_EQ(stats.dropped_transactions, 100u);
    EXPECT_EQ(stats.transactions + stats.dropped_transactions, spec.total_transactions());
    EXPECT_GE(stats.ring_high_water, 4u);
  }
}

/// The liveness half: after the re-org the node re-materializes the
/// miner from the last accepted boundary snapshot and KEEPS MINING —
/// the post-recovery block must land on top of block 1 and be
/// byte-identical to serially mining its batch there.
TEST(NodeRecovery, MiningResumesFromTheAcceptedBoundaryAfterRecovery) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kMixed, /*blocks=*/6, /*txs_per_block=*/20,
                                      /*conflict=*/20);
  // Expected chain: batch 1, then batch 6 mined on the post-1 state —
  // the same fixture mined serially with the dropped window left out.
  auto ref = make_stream_fixture(spec);
  core::MinerConfig miner_config;
  miner_config.nanos_per_gas = 0.0;
  core::Miner ref_miner(*ref.world, miner_config);
  chain::Blockchain expected(ref.world->state_root());
  const auto batch = [&ref](std::size_t index) {
    const auto first = ref.transactions.begin() + static_cast<std::ptrdiff_t>(index * 20);
    return std::vector<chain::Transaction>(first, first + 20);
  };
  expected.append(ref_miner.mine_serial(batch(0), expected.tip()));
  expected.append(ref_miner.mine_serial(batch(5), expected.tip()));

  for (const std::size_t retain : kRetainSnapshots) {
    SCOPED_TRACE("retain_snapshots=" + std::to_string(retain));
    // Depth 2, fault at block 2: while the slow validator chews block 2,
    // the miner fills the ring with 3,4 and parks pushing 5. The re-org
    // drains 3,4, fails the push of 5, and batch 6 — still in the
    // mempool — is mined post-recovery as the new block 2.
    auto [node, stream] =
        make_node(spec, faulty_node(spec, /*depth=*/2, /*faulty_number=*/2, retain));
    drive(*node, std::move(stream));

    ASSERT_FALSE(node->ok());
    EXPECT_EQ(node->failure().reason, core::RejectReason::kStateRootMismatch);
    ASSERT_EQ(node->chain().height(), 2u);
    EXPECT_TRUE(node->chain().verify_links());
    for (std::uint64_t n = 0; n <= 2; ++n) {
      EXPECT_EQ(node->chain().at(n), expected.at(n)) << "block " << n << " diverged";
    }

    const NodeStats& stats = node->stats();
    EXPECT_EQ(stats.rejected_blocks, 1u);
    EXPECT_EQ(stats.aborted_blocks, 3u);  // 3,4 drained + 5 dropped at the failed push.
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_EQ(stats.blocks, 2u);
    EXPECT_EQ(stats.transactions, 40u);
    EXPECT_EQ(stats.dropped_transactions, 80u);  // Batches 2,3,4,5.
    EXPECT_EQ(stats.transactions + stats.dropped_transactions, spec.total_transactions());
    EXPECT_GT(stats.recovery_ms, 0.0);
    EXPECT_GT(stats.snapshot_ms, 0.0);
  }
}

/// Sequential mode recovers through the same path (no suffix in the
/// ring — just the rejected block unwinding), and with one thread the
/// whole scenario is timing-independent: batch 3 is dropped, everything
/// else commits.
TEST(NodeRecovery, SequentialModeDropsOnlyTheRejectedBatch) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kMixed, /*blocks=*/6, /*txs_per_block=*/20,
                                      /*conflict=*/20);
  // Expected: batches 1,2,4,5,6 mined in order with batch 3 left out.
  auto ref = make_stream_fixture(spec);
  core::MinerConfig miner_config;
  miner_config.nanos_per_gas = 0.0;
  core::Miner ref_miner(*ref.world, miner_config);
  chain::Blockchain expected(ref.world->state_root());
  const auto batch = [&ref](std::size_t index) {
    const auto first = ref.transactions.begin() + static_cast<std::ptrdiff_t>(index * 20);
    return std::vector<chain::Transaction>(first, first + 20);
  };
  for (const std::size_t index : {0u, 1u, 3u, 4u, 5u}) {
    expected.append(ref_miner.mine_serial(batch(index), expected.tip()));
  }

  for (const std::size_t retain : kRetainSnapshots) {
    SCOPED_TRACE("retain_snapshots=" + std::to_string(retain));
    NodeConfig config = faulty_node(spec, /*depth=*/1, /*faulty_number=*/3, retain);
    config.pipelined = false;
    config.validator.nanos_per_gas = 0.0;  // No timing pin needed.
    // The hook fires for every block about to be validated, inline too.
    std::size_t pre_validated = 0;
    config.pre_validate_hook = [&pre_validated](const chain::Block&) { ++pre_validated; };
    auto [node, stream] = make_node(spec, config);
    drive(*node, std::move(stream));

    ASSERT_FALSE(node->ok());
    ASSERT_EQ(node->chain().height(), 5u);
    EXPECT_TRUE(node->chain().verify_links());
    for (std::uint64_t n = 0; n <= expected.height(); ++n) {
      EXPECT_EQ(node->chain().at(n), expected.at(n)) << "block " << n << " diverged";
    }
    EXPECT_EQ(pre_validated, 6u);  // Once per mined block, the rejected one included.

    const NodeStats& stats = node->stats();
    EXPECT_EQ(stats.rejected_blocks, 1u);
    EXPECT_EQ(stats.aborted_blocks, 0u);  // No speculative suffix exists.
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_EQ(stats.dropped_transactions, 20u);
    EXPECT_EQ(stats.transactions, 100u);
  }
}

/// A fault in the FIRST block recovers to the genesis boundary — the
/// anchor frozen at construction, before any block was accepted.
TEST(NodeRecovery, RecoveryFromTheGenesisBoundary) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kBallot, /*blocks=*/3, /*txs_per_block=*/15,
                                      /*conflict=*/0);
  for (const std::size_t retain : kRetainSnapshots) {
    SCOPED_TRACE("retain_snapshots=" + std::to_string(retain));
    NodeConfig config = faulty_node(spec, /*depth=*/1, /*faulty_number=*/1, retain);
    config.pipelined = false;
    config.validator.nanos_per_gas = 0.0;
    auto [node, stream] = make_node(spec, config);
    drive(*node, std::move(stream));

    ASSERT_FALSE(node->ok());
    ASSERT_EQ(node->chain().height(), 2u);
    EXPECT_EQ(node->chain().at(0).header.state_root, node->genesis_snapshot().state_root());
    EXPECT_TRUE(node->chain().verify_links());
    EXPECT_EQ(node->stats().recoveries, 1u);
    EXPECT_EQ(node->stats().dropped_transactions, 15u);
  }
}

// ------------------------------------------------ Construction guards ---

TEST(NodeConstruction, RejectsNullWorld) {
  EXPECT_THROW(Node(nullptr, NodeConfig{}), std::invalid_argument);
}

TEST(NodeConstruction, RejectsZeroPipelineDepth) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kBallot, 2, 10, 0);
  NodeConfig config;
  config.pipeline_depth = 0;
  EXPECT_THROW(Node(make_stream_fixture(spec).world, config), std::invalid_argument);
  // The same guard block: a block has one miner, so mine_shards must be 1.
  config.pipeline_depth = 1;
  config.mine_shards = 2;
  EXPECT_THROW(Node(make_stream_fixture(spec).world, config), std::invalid_argument);
}

TEST(NodeConstruction, RejectsZeroStageThreads) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kBallot, 2, 10, 0);
  NodeConfig config;
  config.miner.threads = 0;
  EXPECT_THROW(Node(make_stream_fixture(spec).world, config), std::invalid_argument);
  // The guard must fire even before a world could be cloned.
  EXPECT_THROW(Node(nullptr, config), std::invalid_argument);
  config.miner.threads = 1;
  config.validator.threads = 0;
  EXPECT_THROW(Node(nullptr, config), std::invalid_argument);
}

TEST(NodeConstruction, RejectsLockSemanticsDisagreement) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kBallot, 2, 10, 0);
  NodeConfig config;
  config.miner.exclusive_locks_only = true;
  EXPECT_THROW(Node(make_stream_fixture(spec).world, config), std::invalid_argument);
  // The guard must fire even before a world could be cloned.
  EXPECT_THROW(Node(nullptr, config), std::invalid_argument);
}

// ------------------------------------------------- Genesis snapshot ---

/// The snapshot seam: frozen at construction, root-identical to the
/// chain's genesis, and still frozen after the miner's world has moved
/// twenty blocks past it.
TEST(NodeGenesisSnapshot, StaysFrozenWhileTheChainAdvances) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kMixed, /*blocks=*/4, /*txs_per_block=*/20,
                                      /*conflict=*/15);
  auto fixture = make_stream_fixture(spec);
  const auto genesis_root = fixture.world->state_root();

  auto node = std::make_unique<Node>(std::move(fixture.world), fast_node(spec));
  EXPECT_EQ(node->genesis_snapshot().state_root(), genesis_root);
  EXPECT_EQ(node->chain().at(0).header.state_root, genesis_root);

  drive(*node, std::move(fixture.transactions));
  ASSERT_TRUE(node->ok());
  ASSERT_EQ(node->chain().height(), spec.blocks);

  // The chain moved; the snapshot did not — and it can still mint fresh
  // replicas of genesis (the depth-k re-org recovery path).
  EXPECT_NE(node->chain().tip().header.state_root, genesis_root);
  EXPECT_EQ(node->genesis_snapshot().state_root(), genesis_root);
  EXPECT_EQ(node->genesis_snapshot().world().state_root(), genesis_root);
  EXPECT_EQ(node->genesis_snapshot().materialize()->state_root(), genesis_root);
}

// --------------------------------------- Content-order determinism ---

/// Mempool purity, end to end: with the content-ordered cut the chain is
/// a function of the transaction MULTISET — shuffling arrival order
/// changes nothing, because the cut reads only pool content. The whole
/// stream is submitted and the pool closed before the node runs so the
/// cut sees identical pool content in every permutation.
TEST(NodeDeterminism, ShuffledArrivalProducesAnIdenticalChain) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kMixed, /*blocks=*/20, /*txs_per_block=*/25,
                                      /*conflict=*/20);

  const auto run_with_order = [&](unsigned seed) {
    NodeConfig config = fast_node(spec);
    config.pipelined = true;
    config.mining = MiningMode::kSerial;
    config.batch.content_order = true;
    auto [node, stream] = make_node(spec, config);
    if (seed != 0) {
      std::mt19937 rng(seed);
      std::shuffle(stream.begin(), stream.end(), rng);
    }
    (void)node->mempool().submit_many(std::move(stream));
    node->mempool().close();
    node->run();
    return std::move(node);
  };

  const auto base = run_with_order(0);
  ASSERT_TRUE(base->ok()) << core::to_string(base->failure().reason);
  EXPECT_EQ(base->stats().transactions, spec.total_transactions());
  EXPECT_TRUE(base->chain().verify_links());

  for (const unsigned seed : {1u, 2u}) {
    const auto shuffled = run_with_order(seed);
    ASSERT_TRUE(shuffled->ok()) << core::to_string(shuffled->failure().reason);
    ASSERT_EQ(shuffled->chain().height(), base->chain().height());
    for (std::uint64_t n = 0; n <= base->chain().height(); ++n) {
      EXPECT_EQ(shuffled->chain().at(n), base->chain().at(n)) << "block " << n << " diverged";
      EXPECT_EQ(shuffled->chain().at(n).hash(), base->chain().at(n).hash());
    }
  }
}

/// Byte-reproducibility under the pipelined producer: two identical runs
/// produce identical chains even though mining and validation overlap on
/// separate threads, and both match the sequential reference byte for byte.
TEST(NodeDeterminism, RepeatedRunsAreByteReproducible) {
  const StreamSpec spec = stream_spec(BenchmarkKind::kMixed, /*blocks=*/20, /*txs_per_block=*/25,
                                      /*conflict=*/20);

  const auto run_once = [&] {
    NodeConfig config = fast_node(spec);
    config.pipelined = true;
    config.mining = MiningMode::kSerial;
    auto [node, stream] = make_node(spec, config);
    drive(*node, std::move(stream));
    return std::move(node);
  };

  const auto first = run_once();
  const auto second = run_once();
  for (const auto* node : {first.get(), second.get()}) {
    ASSERT_TRUE(node->ok()) << core::to_string(node->failure().reason);
    EXPECT_EQ(node->stats().transactions, spec.total_transactions());
    EXPECT_TRUE(node->chain().verify_links());
  }

  ASSERT_EQ(first->chain().height(), second->chain().height());
  for (std::uint64_t n = 0; n <= first->chain().height(); ++n) {
    EXPECT_EQ(first->chain().at(n), second->chain().at(n)) << "block " << n << " diverged";
    EXPECT_EQ(first->chain().at(n).hash(), second->chain().at(n).hash());
  }

  const chain::Blockchain reference = sequential_reference(spec);
  ASSERT_EQ(first->chain().height(), reference.height());
  for (std::uint64_t n = 0; n <= reference.height(); ++n) {
    EXPECT_EQ(first->chain().at(n), reference.at(n)) << "block " << n << " diverged";
  }
}

}  // namespace
}  // namespace concord::node
