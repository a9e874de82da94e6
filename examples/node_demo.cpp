// Node demo: the continuously-running subsystem end to end, re-org
// included. A producer thread feeds a stream of Mixed-workload
// transactions into the mempool; the node cuts block-sized batches,
// mines each speculatively (Algorithm 1) and validates through a
// depth-3 handoff ring — while the validator replays block N (Algorithm
// 2), the miner is already up to three blocks ahead against its own
// unvalidated output. Midway through, an injected fault corrupts one
// block's published state root: the validator rejects it, the
// speculative suffix is aborted out of the ring, both stages
// re-materialize from the last accepted boundary snapshot, and the node
// keeps mining — rejection is a recoverable event, not a crash.
//
// Build & run:  ./build/examples/node_demo
// Pass --detect to run with ConcordSan on: every mined block's access
// logs go through the lockset checker and the schedule-soundness oracle,
// and the run fails if any block is non-clean.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "node/node.hpp"
#include "workload/workload.hpp"

using namespace concord;

int main(int argc, char** argv) {
  bool detect = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--detect") == 0) detect = true;
  }

  workload::StreamSpec spec;
  spec.kind = workload::BenchmarkKind::kMixed;
  spec.blocks = 12;
  spec.txs_per_block = 80;
  spec.conflict_percent = 20;

  // One genesis world. The node snapshots it at construction and forks
  // the validator's replica from the snapshot (a COW page-sharing fork,
  // not a deep copy), so both stages share a single state by
  // construction.
  workload::Fixture fixture = workload::make_stream_fixture(spec);
  std::vector<chain::Transaction> stream = std::move(fixture.transactions);

  node::NodeConfig config;
  config.miner.detect = detect;
  config.batch.target_txs = spec.txs_per_block;
  config.mempool_capacity = 2 * spec.txs_per_block;  // Producer backpressure.
  config.pipelined = true;
  config.pipeline_depth = 3;  // Mining may run 3 blocks ahead of validation.
  // The chaos seam: corrupt the FIRST block mined as number 5. Its
  // rejection dooms whatever the miner speculated on top; the node rolls
  // back to the last accepted boundary (block 4's) and mines on.
  config.post_mine_hook = [fired = std::make_shared<bool>(false)](chain::Block& block) {
    if (!*fired && block.header.number == 5) {
      *fired = true;
      std::printf("chaos: corrupting the state root of mined block #5\n");
      block.header.state_root.bytes[0] ^= 0xff;
    }
  };

  node::Node node(std::move(fixture.world), config);

  // The client side: submit the whole stream, then announce end-of-traffic.
  std::jthread producer([&node, &stream] {
    std::printf("producer: submitting %zu transactions\n", stream.size());
    (void)node.mempool().submit_many(std::move(stream));
    node.mempool().close();
  });

  // The read side: a client thread serving "as of the latest block"
  // balance queries against pinned MVCC snapshots the whole time the
  // node mines — across the injected re-org included. Queries never
  // take the write path's locks; they read a frozen boundary world.
  std::atomic<bool> storm_done{false};
  std::jthread reader([&node, &storm_done] {
    const vm::Address probe = vm::Address::from_u64(1, 0xAB);
    while (!storm_done.load(std::memory_order_relaxed)) {
      const core::QueryOutcome outcome =
          node.query_latest([&probe](const vm::World& world, vm::ExecContext& ctx) {
            (void)world.balances().get(ctx, probe);
          });
      if (outcome.status != core::QueryStatus::kOk) break;
      std::this_thread::yield();
    }
  });

  node.run();
  storm_done.store(true, std::memory_order_relaxed);
  reader.join();

  const chain::Blockchain& chain = node.chain();
  const bool links_ok = chain.verify_links();
  for (std::uint64_t n = 1; n <= chain.height(); ++n) {
    const chain::Block& block = chain.at(n);
    std::printf("block #%llu: %zu txs, %zu schedule edges, state root %.16s…\n",
                static_cast<unsigned long long>(block.header.number), block.transactions.size(),
                block.schedule.to_graph(block.transactions.size()).edge_count(),
                block.header.state_root.to_hex().c_str());
  }

  const node::NodeStats& stats = node.stats();
  if (!node.ok()) {
    std::printf("\nrejection observed: %s (%s) — recovered, node kept running\n",
                std::string(core::to_string(node.failure().reason)).c_str(),
                node.failure().detail.c_str());
  }
  std::printf("chain height %llu, links verified: %s\n",
              static_cast<unsigned long long>(chain.height()), links_ok ? "yes" : "NO");
  std::printf("sustained: %.0f tx/s, %.2f blocks/s over %.1f ms wall\n", stats.tx_per_sec(),
              stats.blocks_per_sec(), stats.wall_ms);
  std::printf("stages: mine %.1f ms, validate %.1f ms (overlapped), snapshots %.1f ms\n",
              stats.mine_ms, stats.validate_ms, stats.snapshot_ms);
  std::printf("stalls: mempool %.1f ms, handoff %.1f ms, validator %.1f ms\n",
              stats.mempool_wait_ms, stats.handoff_wait_ms, stats.validator_stall_ms);
  std::printf("ring: depth %zu, high water %zu in flight\n", config.pipeline_depth,
              stats.ring_high_water);
  std::printf("re-org: %llu rejected, %llu speculative blocks aborted, %llu txs dropped, "
              "%llu recoveries in %.1f ms\n",
              static_cast<unsigned long long>(stats.rejected_blocks),
              static_cast<unsigned long long>(stats.aborted_blocks),
              static_cast<unsigned long long>(stats.dropped_transactions),
              static_cast<unsigned long long>(stats.recoveries), stats.recovery_ms);
  std::printf("speculation: %llu attempts, %llu conflict aborts, lock-table high water %zu\n",
              static_cast<unsigned long long>(stats.attempts),
              static_cast<unsigned long long>(stats.conflict_aborts),
              stats.lock_table_high_water);
  std::printf("read path: %llu queries served (%llu gas metered), %zu snapshots retained "
              "at high water, %llu pins expired\n",
              static_cast<unsigned long long>(stats.queries_served),
              static_cast<unsigned long long>(stats.query_gas_used),
              stats.snapshots_retained_high_water,
              static_cast<unsigned long long>(stats.pins_expired));

  bool detect_clean = true;
  if (detect) {
    detect_clean = stats.detect_violations == 0;
    std::printf("concordsan: %llu violations across %llu blocks\n",
                static_cast<unsigned long long>(stats.detect_violations),
                static_cast<unsigned long long>(stats.blocks + stats.rejected_blocks));
    if (const auto& report = node.first_detect_report(); report.has_value()) {
      for (const auto& v : report->lockset) std::printf("  %s\n", v.describe().c_str());
      for (const auto& v : report->soundness) std::printf("  %s\n", v.describe().c_str());
    }
  }

  // The smoke-test contract: exit 0 means the chain is linked AND the
  // injected rejection was recovered from (not fatal, accounting closed)
  // AND the concurrent reader was actually served queries AND — under
  // --detect — ConcordSan found nothing.
  const bool recovered = stats.rejected_blocks == 1 &&
                         stats.transactions + stats.dropped_transactions ==
                             spec.total_transactions();
  const bool reads_served = stats.queries_served > 0;
  return (links_ok && recovered && reads_served && detect_clean) ? 0 : 1;
}
