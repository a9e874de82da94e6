#include "core/miner.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "graph/happens_before.hpp"
#include "vm/trace.hpp"

namespace concord::core {

Miner::Miner(vm::World& world, MinerConfig config)
    : config_(config), engine_(world, config.engine()), pool_(config.threads) {
  if (config_.lock_table_reserve > 0) runtime_.locks().reserve(config_.lock_table_reserve);
}

void Miner::bind_arena_stripe() {
  if (affinity_width_ == 0) return;
  // One bind per (thread, miner): pool workers live as long as the miner,
  // so after the first task this is a single thread_local compare. The
  // node's lane-pool workers serve a different lane miner from block to
  // block and re-bind whenever they switch — the cursor keeps rotating
  // them through each miner's stripe slice.
  static thread_local const Miner* bound_for = nullptr;
  static thread_local unsigned bound_value = 0;
  if (bound_for != this) {
    bound_for = this;
    bound_value =
        affinity_base_ + affinity_cursor_.fetch_add(1, std::memory_order_relaxed) % affinity_width_;
  }
  vm::PageArena::bind_thread_stripe(bound_value);
}

void Miner::run_speculative(const std::vector<chain::Transaction>& txs,
                            std::vector<stm::LockProfile>& profiles,
                            std::vector<vm::TxStatus>& statuses,
                            std::vector<stm::AccessRecorder>& logs) {
  const auto n = static_cast<std::uint32_t>(txs.size());
  bind_arena_stripe();  // The calling thread assembles here too.
  runtime_.reset();  // "When a miner starts a block, it sets these counters to zero."
  stats_ = MinerStats{};
  stats_.transactions = n;

  profiles.assign(n, stm::LockProfile{});
  statuses.assign(n, vm::TxStatus::kSuccess);
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> aborts{0};

  // ConcordSan logs, one per transaction. Pool workers write only their
  // own slot, so the preallocated vector needs no synchronization.
  logs.clear();
  logs.resize(config_.detect ? n : 0);

  pool_.run_batch(n, [&](std::uint32_t i) {
    bind_arena_stripe();
    SpeculativeOutcome outcome = engine_.execute_speculative(
        runtime_, i, txs[i], config_.max_attempts, logs.empty() ? nullptr : &logs[i]);
    profiles[i] = std::move(outcome.profile);
    statuses[i] = outcome.status;
    attempts.fetch_add(outcome.attempts, std::memory_order_relaxed);
    aborts.fetch_add(outcome.aborts, std::memory_order_relaxed);
  });

  stats_.attempts = attempts.load(std::memory_order_relaxed);
  stats_.conflict_aborts = aborts.load(std::memory_order_relaxed);
  stats_.deadlock_victims = runtime_.deadlocks().victims();
  stats_.lock_table_high_water = runtime_.locks().high_water();
}

void Miner::run_serial(const std::vector<chain::Transaction>& txs,
                       std::vector<stm::LockProfile>& profiles,
                       std::vector<vm::TxStatus>& statuses,
                       std::vector<stm::AccessRecorder>& logs) {
  const auto n = static_cast<std::uint32_t>(txs.size());
  bind_arena_stripe();
  stats_ = MinerStats{};
  stats_.transactions = n;
  stats_.attempts = n;

  profiles.assign(n, stm::LockProfile{});
  statuses.assign(n, vm::TxStatus::kSuccess);
  logs.clear();
  logs.resize(config_.detect ? n : 0);
  // Synthetic use counters: serial execution *is* a lock-acquisition
  // order, so number each lock's holders 1, 2, 3… in block order.
  std::unordered_map<stm::LockId, std::uint64_t, stm::LockIdHash> counters;

  for (std::uint32_t i = 0; i < n; ++i) {
    vm::TraceRecorder trace;
    statuses[i] = engine_.execute_traced(txs[i], trace, logs.empty() ? nullptr : &logs[i]);

    stm::LockProfile& profile = profiles[i];
    profile.tx = i;
    profile.reverted = statuses[i] != vm::TxStatus::kSuccess;
    for (const auto& [lock, mode] : trace.canonical()) {
      profile.entries.push_back(stm::LockProfileEntry{lock, mode, ++counters[lock]});
    }
  }
}

chain::Block Miner::mine(const std::vector<chain::Transaction>& txs, const chain::Block& parent) {
  std::vector<stm::LockProfile> profiles;
  std::vector<vm::TxStatus> statuses;
  std::vector<stm::AccessRecorder> logs;
  run_speculative(txs, profiles, statuses, logs);
  chain::Block block = assemble(txs, std::move(statuses), std::move(profiles), parent);
  run_detect(block, logs);
  return block;
}

chain::Block Miner::mine_serial(const std::vector<chain::Transaction>& txs,
                                const chain::Block& parent) {
  std::vector<stm::LockProfile> profiles;
  std::vector<vm::TxStatus> statuses;
  std::vector<stm::AccessRecorder> logs;
  run_serial(txs, profiles, statuses, logs);
  chain::Block block = assemble(txs, std::move(statuses), std::move(profiles), parent);
  run_detect(block, logs);
  return block;
}

Miner::LaneResult Miner::mine_lane(const std::vector<chain::Transaction>& txs) {
  std::vector<stm::LockProfile> profiles;
  std::vector<vm::TxStatus> statuses;
  std::vector<stm::AccessRecorder> logs;
  run_speculative(txs, profiles, statuses, logs);

  // Re-sort the lane into its derived schedule's serial order, so the
  // published lane order is a topological order of the lane's own graph
  // (chain::merge_shards's stated precondition). Counters are left
  // untouched — the per-lock holder sequence is a property of the
  // execution, not of the labeling — and profile.tx is remapped to the
  // new position, which relabels the derived graph without changing it.
  const std::size_t n = txs.size();
  const graph::HappensBeforeGraph hb = graph::derive_happens_before(profiles, n);
  auto order = hb.topological_order();
  if (!order) throw std::logic_error("derived happens-before graph is cyclic");

  LaneResult result;
  result.lane.transactions.reserve(n);
  result.lane.statuses.reserve(n);
  result.lane.profiles.reserve(n);
  if (!logs.empty()) result.logs.reserve(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::uint32_t i = (*order)[pos];
    result.lane.transactions.push_back(txs[i]);
    result.lane.statuses.push_back(statuses[i]);
    stm::LockProfile profile = std::move(profiles[i]);
    profile.tx = static_cast<std::uint32_t>(pos);
    result.lane.profiles.push_back(std::move(profile));
    if (!logs.empty()) result.logs.push_back(std::move(logs[i]));
  }
  return result;
}

Miner::LaneResult Miner::mine_lane_serial(const std::vector<chain::Transaction>& txs) {
  LaneResult result;
  std::vector<stm::LockProfile> profiles;
  std::vector<vm::TxStatus> statuses;
  run_serial(txs, profiles, statuses, result.logs);
  result.lane.transactions = txs;
  result.lane.statuses = std::move(statuses);
  result.lane.profiles = std::move(profiles);
  return result;
}

chain::Block Miner::seal_merged(chain::ShardMergeResult merged,
                                std::vector<stm::AccessRecorder> lane0_logs,
                                const chain::Block& parent) {
  bind_arena_stripe();  // Lane 0 may have run on another thread.
  const std::size_t n = merged.transactions.size();
  std::vector<stm::AccessRecorder> logs(config_.detect ? n : 0);

  // Merged order is lane-concatenated, so this loop replays lane 1's
  // winners, then lane 2's, … serially on the primary world — lane 0's
  // effects are already here from its own lane execution.
  for (std::size_t m = 0; m < n; ++m) {
    const chain::ShardOrigin origin = merged.origins[m];
    if (origin.lane == 0) {
      if (!logs.empty() && origin.local < lane0_logs.size()) {
        logs[m] = std::move(lane0_logs[origin.local]);
      }
      continue;
    }
    vm::TraceRecorder trace;
    const vm::TxStatus status = engine_.execute_traced(merged.transactions[m], trace,
                                                       logs.empty() ? nullptr : &logs[m]);
    if (status != merged.statuses[m] || !trace.matches(merged.profiles[m])) {
      // Arbitration promises replay equivalence; divergence means the
      // conflict relation (or the merge) is broken, not the workload.
      throw std::logic_error("shard-merge replay diverged from its lane execution");
    }
  }

  // Note: stats_ is NOT reset here — it still holds this miner's lane-0
  // execution counters; assemble() adds the block-level fields on top.
  chain::Block block = assemble(merged.transactions, std::move(merged.statuses),
                                std::move(merged.profiles), parent,
                                std::move(merged.lane_counts));
  run_detect(block, logs);
  return block;
}

void Miner::run_detect(const chain::Block& block, std::span<const stm::AccessRecorder> logs) {
  detect_report_ = detect::DetectReport{};
  if (!config_.detect) return;
  detect_report_ = detect::analyze_block(block, logs);
  stats_.detect_violations = detect_report_.total_violations();
  if (!detect_report_.clean()) {
    // CI's detect lane sets CONCORD_DETECT_REPORT_DIR and uploads
    // whatever lands there as the failure artifact; a no-op otherwise.
    (void)detect::write_report_artifact(
        detect_report_,
        "detect_block" + std::to_string(block.header.number));
  }
}

void Miner::resume_from(vm::World& world) {
  engine_.rebind(world);
  runtime_.reset();
}

std::vector<vm::TxStatus> Miner::execute_serial_baseline(
    const std::vector<chain::Transaction>& txs) {
  std::vector<vm::TxStatus> statuses;
  statuses.reserve(txs.size());
  for (const auto& tx : txs) {
    statuses.push_back(engine_.execute_serial(tx));
  }
  return statuses;
}

chain::Block Miner::assemble(const std::vector<chain::Transaction>& txs,
                             std::vector<vm::TxStatus> statuses,
                             std::vector<stm::LockProfile> profiles, const chain::Block& parent,
                             std::vector<std::uint32_t> shard_lanes) {
  const std::size_t n = txs.size();
  const graph::HappensBeforeGraph hb = graph::derive_happens_before(profiles, n);
  auto order = hb.topological_order();
  if (!order) {
    // Strict two-phase locking makes commit order consistent across
    // locks; a cycle here means an STM invariant broke.
    throw std::logic_error("derived happens-before graph is cyclic");
  }

  chain::Block block;
  block.transactions = txs;
  block.statuses = std::move(statuses);
  block.schedule.profiles = std::move(profiles);
  block.schedule.edges = hb.edges();
  block.schedule.serial_order = std::move(*order);
  block.schedule.shard_lanes = std::move(shard_lanes);

  block.header.number = parent.header.number + 1;
  block.header.parent_hash = parent.hash();
  {
    const auto begin = std::chrono::steady_clock::now();
    block.header.state_root = engine_.world().state_root();
    stats_.state_root_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - begin)
            .count();
  }
  block.header.tx_root = block.compute_tx_root();
  block.header.status_root = block.compute_status_root();
  block.header.schedule_hash = block.schedule.hash();

  stats_.schedule_bytes = block.schedule.encoded_size();
  stats_.arena = engine_.world().arena_stats();
  return block;
}

}  // namespace concord::core
