#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/miner.hpp"
#include "core/query.hpp"
#include "core/validator.hpp"
#include "detect/detect.hpp"
#include "node/handoff_ring.hpp"
#include "node/mempool.hpp"
#include "node/snapshot_ring.hpp"
#include "vm/world.hpp"

namespace concord::net {
class Peer;  // node.hpp stays light; run_follower's definition includes net/peer.hpp.
}

namespace concord::node {

/// How the node's mining stage executes a batch.
enum class MiningMode : std::uint8_t {
  /// Algorithm 1: speculative parallel mining. Fast, but which of two
  /// conflicting transactions commits first depends on thread timing, so
  /// the resulting chain is valid-but-not-reproducible.
  kSpeculative,
  /// Serial mining with schedule capture. Slower, but the chain is a pure
  /// function of the transaction stream — the determinism tests run the
  /// pipeline in this mode and require byte-identical output.
  kSerial,
};

/// Everything the node needs to bring up both stages. The miner and
/// validator configs carry the shared ExecutionConfig; they must agree on
/// exclusive_locks_only (enforced at construction).
struct NodeConfig {
  core::MinerConfig miner;
  core::ValidatorConfig validator;
  BatchPolicy batch;
  std::size_t mempool_capacity = 0;  ///< 0 = unbounded (no producer backpressure).
  /// true = a validator thread replays block N while the miner mines
  /// ahead through the handoff ring; false = the mining loop validates
  /// each block inline before cutting the next (same chain, no overlap).
  bool pipelined = true;
  MiningMode mining = MiningMode::kSpeculative;
  std::size_t max_blocks = 0;        ///< 0 = run until the mempool closes and drains.

  /// Must be 1 (enforced at construction); kept only while bench/e2e
  /// still assigns it.
  std::uint32_t mine_shards = 1;

  /// Capacity of the miner→validator handoff ring: how many mined blocks
  /// may be in flight (handed off but not yet validated) at once, i.e.
  /// how far mining may speculate past validation. 1 = the original
  /// depth-1 slot. Must be ≥ 1 (enforced at construction). Only
  /// meaningful when `pipelined`.
  std::size_t pipeline_depth = 1;

  /// Test/chaos seam: invoked on each mined block (miner thread) before
  /// it is handed to validation. May mutate the block — e.g. corrupt its
  /// state root — to exercise the rejection/re-org recovery path. Not
  /// part of the consensus surface.
  std::function<void(chain::Block&)> post_mine_hook;

  /// Test seam symmetric to post_mine_hook, on the other stage: invoked
  /// for each block about to be validated — on the validator thread
  /// when `pipelined`, inline on the run() thread otherwise. Lets tests
  /// pin the pipeline's interleaving (e.g. hold validation of block N
  /// until Node::mining_done(), so the ring fill at a rejection is
  /// deterministic instead of a race between the stages). Not part of
  /// the consensus surface.
  std::function<void(const chain::Block&)> pre_validate_hook;

  /// Replication egress: invoked with each block the moment it is
  /// accepted — validated, appended, and (when the read path is on)
  /// published to the snapshot ring. Runs on whichever thread appends
  /// (the validator stage when pipelined), AFTER the block is fully
  /// visible to local readers, so a remote follower can never observe a
  /// block before the leader's own read path does. A blocking hook (a
  /// leader whose followers' inbound rings are full) backpressures the
  /// validation stage — the replication analogue of mempool
  /// backpressure. Install net::Leader::announcer() here.
  std::function<void(const chain::Block&)> on_block_accepted;

  /// MVCC read path: how many ACCEPTED block boundaries stay published
  /// for "as of block N" queries (the SnapshotRing window — see
  /// Node::query_at). 0 disables read serving entirely: nothing is
  /// published and every query entry point throws. Each published
  /// boundary is the very fork the node keeps as its recovery anchor
  /// (see Node), so serving reads adds no fork per block — and 0 does
  /// not remove that fork either.
  std::size_t retain_snapshots = 8;

  /// Gas policy applied to every query this node serves.
  core::QueryConfig query;
};

/// Per-stage counters for one run() — the sustained-traffic numbers the
/// one-shot benches cannot produce.
struct NodeStats {
  std::uint64_t blocks = 0;        ///< Blocks mined, validated and appended.
  std::uint64_t transactions = 0;  ///< Transactions across those blocks.
  double wall_ms = 0.0;            ///< run() duration.
  double mine_ms = 0.0;            ///< Total time inside the mining stage.
  double validate_ms = 0.0;        ///< Total time inside the validation stage.
  /// Mining stage blocked on an empty mempool (ingress starvation).
  double mempool_wait_ms = 0.0;
  /// Mining stage blocked on a full handoff ring — the pipeline's stall
  /// time when validation is the bottleneck.
  double handoff_wait_ms = 0.0;
  /// Validation stage blocked waiting for a mined block — the pipeline's
  /// stall time when mining is the bottleneck.
  double validator_stall_ms = 0.0;

  // Re-org recovery (all zero on a clean run).
  std::uint64_t rejected_blocks = 0;  ///< Blocks the validator refused.
  /// Speculative suffix blocks discarded by re-orgs: entries drained
  /// from the ring plus blocks the miner dropped at a failed handoff.
  std::uint64_t aborted_blocks = 0;
  /// Transactions inside rejected + aborted blocks. These left the
  /// mempool but never reached the chain: `transactions` + this is the
  /// full consumed stream.
  std::uint64_t dropped_transactions = 0;
  /// Re-orgs recovered: rejections unwound by snapshot
  /// re-materialization (the miner's half of the handshake completes
  /// lazily and may be skipped entirely when the stream ends first, so
  /// this counts per re-org, not per stage).
  std::uint64_t recoveries = 0;
  double recovery_ms = 0.0;      ///< Time re-materializing worlds after rejections.
  /// Time spent freezing the accepted-boundary fork, once per accepted
  /// block on the appending thread. That one fork is both the recovery
  /// anchor and the read path's published boundary: O(contracts) page
  /// sharing with the verified root seeded — no state hash — so it stays
  /// flat as state grows; the real cost surfaces as detach-on-write
  /// inside validate_ms, proportional to each block's dirty set.
  double snapshot_ms = 0.0;
  /// Max mined-but-unvalidated blocks in flight at once (≤ pipeline_depth).
  std::size_t ring_high_water = 0;

  // Aggregated over every mined block.
  std::uint64_t attempts = 0;
  std::uint64_t conflict_aborts = 0;
  std::uint64_t deadlock_victims = 0;
  std::size_t schedule_bytes = 0;
  std::size_t lock_table_high_water = 0;
  /// Arena counters of the miner lineage after the last mined block —
  /// cumulative for the whole run, since every fork shares the world's
  /// arena. All zero when the world runs the heap baseline.
  vm::ArenaStats arena;
  /// ConcordSan violations summed over every mined block (0 unless
  /// MinerConfig::detect). The first non-clean block's full report is in
  /// Node::first_detect_report().
  std::uint64_t detect_violations = 0;

  // MVCC read path (all zero when NodeConfig::retain_snapshots == 0).
  // Snapshotted when run() returns; queries served after that keep
  // counting in the node but are not re-folded here.
  std::uint64_t queries_served = 0;   ///< Queries answered (any status).
  std::uint64_t query_gas_used = 0;   ///< Gas metered across those queries.
  /// pin_at()/pin_latest() requests that could not be served (beyond
  /// head, evicted by the window, or re-orged away) — each threw
  /// SnapshotEvicted rather than returning torn state.
  std::uint64_t pins_expired = 0;
  /// Most boundaries simultaneously resident in the ring (≤ retain).
  std::size_t snapshots_retained_high_water = 0;

  // Follower mode (all zero unless run_follower() drove this node).
  std::uint64_t net_sessions = 0;        ///< run_follower() sessions completed.
  std::uint64_t net_announces = 0;       ///< BlockAnnounce messages received.
  std::uint64_t net_acks_sent = 0;       ///< Blocks acknowledged to the leader.
  std::uint64_t net_nacks_sent = 0;      ///< Rejections reported to the leader.
  std::uint64_t net_requests_sent = 0;   ///< Retransmissions / catch-up pulls asked for.
  std::uint64_t net_wire_errors = 0;     ///< Sessions that died on undecodable bytes.

  [[nodiscard]] double blocks_per_sec() const noexcept {
    return wall_ms > 0 ? static_cast<double>(blocks) * 1e3 / wall_ms : 0.0;
  }
  /// Sustained throughput: every transaction both mined *and* validated,
  /// over wall time — the honest end-to-end number.
  [[nodiscard]] double tx_per_sec() const noexcept {
    return wall_ms > 0 ? static_cast<double>(transactions) * 1e3 / wall_ms : 0.0;
  }
};

/// A continuously-running node: mempool → speculative miner → overlapped
/// validator, appending to its own chain.
///
/// The node owns ONE genesis world. At construction it freezes a
/// WorldSnapshot of it and derives the validator's private replica from
/// that snapshot — both stages share a single state by construction, so
/// there is no dual-genesis drift to guard against and nothing for
/// callers to keep in sync. The miner's world then advances as it mines:
/// after block N it already holds the post-N state, which *is* the
/// snapshot block N+1 executes against. The validator replays each block
/// against its replica at post-(N−1) state and cross-checks the
/// published state root.
///
/// run() is ONE loop: cut a batch, mine it, hand the block to the
/// validation step. With `pipelined`, the handoff is a HandoffRing of
/// `pipeline_depth` in-flight blocks drained by a validator thread, so
/// the miner keeps mining N+1..N+k on top of its own unvalidated output
/// (depth 1 is the original two-stage slot — the ring bounds how far a
/// bad block can let the miner run ahead). Without it, the loop runs the
/// same validation step inline: a synchronous handoff.
///
/// The recovery anchor is the last ACCEPTED boundary, kept on the
/// validating side: every accepted block freezes the validator's replica
/// (its root seeded from the verified header) and that one fork is both
/// the anchor and the read path's published boundary. When block N is
/// rejected the node *recovers* instead of dying, in both modes through
/// the ring's abort handshake: the speculative suffix N+1..N+k is
/// drained (empty when validating inline), the validator re-materializes
/// from the anchor, the miner collects the anchor from the ring before
/// its next batch and resumes on top of the last accepted block, and the
/// rejection is reported through ok()/failure() and the NodeStats abort
/// counters. A follower (run_follower) recovers to the same anchor.
///
/// Usage: construct with the genesis world, feed mempool() from any
/// number of producer threads, call run() (blocking), close() the
/// mempool to shut down cleanly.
class Node {
 public:
  /// Takes ownership of the genesis world; the validator's replica is
  /// forked from it internally. Throws std::invalid_argument when
  /// `world` is null, the miner/validator configs disagree on lock
  /// semantics, or pipeline_depth is 0.
  Node(std::unique_ptr<vm::World> world, NodeConfig config);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] Mempool& mempool() noexcept { return mempool_; }

  /// The immutable genesis snapshot both stages were derived from — also
  /// the recovery anchor until the first block is accepted.
  [[nodiscard]] const vm::WorldSnapshot& genesis_snapshot() const noexcept { return genesis_; }

  /// Processes the stream until the mempool closes and drains or
  /// max_blocks blocks are mined. Call once; blocking. The mempool is
  /// closed by the time run() returns, so producers never hang.
  void run();

  /// Follower mode: drives ONE replication session over `peer`, the
  /// other side of the trust boundary from run(). Instead of mining, the
  /// node consumes fully serialized BlockAnnounce frames from a leader,
  /// validates each against its published schedule exactly as the local
  /// pipeline would (same Validator, same replica), appends on success
  /// (publishing the boundary to the snapshot ring — query_at serves
  /// reads from a follower) and Acks; on rejection it Nacks with the
  /// reject reason, runs the standard re-org recovery back to the last
  /// accepted boundary, and asks for a retransmission — a Byzantine
  /// leader cannot make the follower diverge, only stall.
  ///
  /// Returns when the session ends (remote closed, wire failure, or
  /// max_blocks reached). Callable repeatedly — one call per session —
  /// so a follower outlives reconnects; stats accumulate across
  /// sessions. Mutually exclusive with run() for the node's lifetime.
  void run_follower(net::Peer& peer);

  [[nodiscard]] const chain::Blockchain& chain() const noexcept { return chain_; }

  /// Valid after run() returns.
  [[nodiscard]] const NodeStats& stats() const noexcept { return stats_; }

  /// False when validation rejected at least one block. The run still
  /// completed — the chain holds every block accepted before and after
  /// the re-orgs, and stats() counts what was dropped.
  [[nodiscard]] bool ok() const noexcept { return !failure_.has_value(); }

  /// The FIRST rejection's report (valid when !ok()).
  [[nodiscard]] const core::ValidationReport& failure() const { return failure_.value(); }

  /// The first non-clean ConcordSan report of the run, when
  /// MinerConfig::detect was on and a block had violations.
  [[nodiscard]] const std::optional<detect::DetectReport>& first_detect_report() const noexcept {
    return first_detect_report_;
  }

  /// True once the mining stage has pushed its last block (or failed) —
  /// from then on the handoff ring only drains. The validator-side
  /// ordering signal pre_validate_hook tests synchronize on.
  [[nodiscard]] bool mining_done() const noexcept {
    return mining_done_.load(std::memory_order_acquire);
  }

  // ── MVCC read path ────────────────────────────────────────────────
  // Thread-safe against the running pipeline: any number of reader
  // threads may pin and query while run() mines and appends. All query
  // entry points throw std::logic_error when the read path is disabled
  // (retain_snapshots == 0).

  /// A pinned boundary: holding it keeps the frozen state alive past
  /// ring eviction, so a long scan at block N stays byte-stable no
  /// matter how far the chain advances. Drop the pointer to unpin.
  using Pin = std::shared_ptr<const PublishedBoundary>;

  [[nodiscard]] bool read_path_enabled() const noexcept {
    return config_.retain_snapshots > 0;
  }

  /// The retention ring itself (tests/benches; queries normally go
  /// through pin_*/query_*).
  [[nodiscard]] const SnapshotRing& snapshots() const noexcept { return snapshots_; }

  /// Pins the newest accepted boundary. At least genesis is always
  /// published, so after construction this only throws SnapshotEvicted
  /// under persistent re-org churn (bounded-retry miss).
  [[nodiscard]] Pin pin_latest() const;

  /// Pins the boundary of accepted block `block`. Throws SnapshotEvicted
  /// — with a reason distinguishing beyond-head / evicted-by-window /
  /// re-orged-away — when it cannot be served; never returns torn state.
  [[nodiscard]] Pin pin_at(std::uint64_t block) const;

  /// Read-your-writes session pin: blocks until some boundary numbered
  /// >= `block` is published, then pins the newest. A client that wrote
  /// in block N calls pin_no_older_than(N) and is guaranteed to read
  /// state that includes its write — on a follower, this is exactly
  /// "wait for replication to catch up to my write". Throws
  /// SnapshotEvicted when the deadline passes first (the leader stalled,
  /// the session died, or N is simply beyond what this node will see).
  [[nodiscard]] Pin pin_no_older_than(std::uint64_t block,
                                      std::chrono::milliseconds timeout) const;

  /// Runs a read-only query against a held pin (see core::run_query).
  core::QueryOutcome query_pinned(const Pin& pin, const core::QueryFn& fn) const;

  /// query_pinned(pin_latest(), fn): one-shot read at the newest boundary.
  core::QueryOutcome query_latest(const core::QueryFn& fn) const;

  /// query_pinned(pin_at(block), fn): one-shot "as of block N" read.
  core::QueryOutcome query_at(std::uint64_t block, const core::QueryFn& fn) const;

  /// Call-shaped query at the newest boundary (core::run_query_call):
  /// `tx` executes read-only against the frozen state, never enters any
  /// block.
  core::QueryOutcome query_call(const chain::Transaction& tx) const;

 private:
  /// Mines one batch in the configured mode and returns the block
  /// extending `parent`; folds the miner's stats and detect report and
  /// applies post_mine_hook.
  [[nodiscard]] chain::Block mine_block(const std::vector<chain::Transaction>& batch,
                                        const chain::Block& parent);

  /// Validates and appends. On acceptance freezes the new boundary into
  /// accepted_ and publishes that same handle to the read path; on
  /// rejection records the report and returns false, leaving the
  /// validator world dirty for recover_validator().
  bool validate_and_append(chain::Block block);

  /// The leader's validation step, the same in both modes: one block
  /// through validate_and_append, and on rejection the consumer half of
  /// the ring's abort handshake — drain the speculative suffix, hand the
  /// miner accepted_ as its recovery point — then recover_validator().
  void validate_step(HandoffRing& ring, chain::Block block);

  /// Rolls the validator back to accepted_: re-materializes its replica,
  /// rewinds the read path to the surviving tip and counts the re-org.
  void recover_validator();

  /// Throws std::logic_error when retain_snapshots == 0.
  void require_read_path() const;

  /// Copies the read-path atomics into stats_ (run() epilogue, both the
  /// normal and failure exits).
  void fold_read_stats();

  NodeConfig config_;
  std::unique_ptr<vm::World> miner_world_;
  vm::WorldSnapshot genesis_;  ///< Frozen before the miner's world moves.
  std::unique_ptr<vm::World> validator_world_;  ///< genesis_.materialize().
  /// The recovery anchor: the last ACCEPTED boundary, a frozen fork of
  /// validator_world_ with its verified root. Starts as genesis_, is
  /// refreshed by every accepted block and outlives follower sessions.
  /// Owned by the appending thread; the miner only ever sees a copy,
  /// handed over through the ring's abort handshake.
  vm::WorldSnapshot accepted_;
  Mempool mempool_;
  core::Miner miner_;  ///< Mines over miner_world_.
  core::Validator validator_;
  chain::Blockchain chain_;
  /// The MVCC retention window (sized 1 but never published into when
  /// the read path is disabled). Written only by whichever thread runs
  /// validate_and_append; read by any number of query threads.
  SnapshotRing snapshots_;
  // Read-path counters, bumped from reader threads (hence atomic and
  // mutable — queries are logically const).
  mutable std::atomic<std::uint64_t> queries_served_{0};
  mutable std::atomic<std::uint64_t> query_gas_used_{0};
  mutable std::atomic<std::uint64_t> pins_expired_{0};
  NodeStats stats_;
  std::optional<core::ValidationReport> failure_;
  /// The MOST RECENT rejection (failure_ keeps only the first; the
  /// follower Nacks every rejection with its own reason).
  std::optional<core::ValidationReport> last_rejection_;
  std::optional<detect::DetectReport> first_detect_report_;
  std::atomic<bool> mining_done_{false};
  bool ran_ = false;
  bool following_ = false;  ///< run_follower() owns this node (excludes run()).
  bool in_session_ = false; ///< A run_follower() call is currently active.
};

}  // namespace concord::node
