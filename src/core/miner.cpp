#include "core/miner.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "graph/happens_before.hpp"
#include "vm/trace.hpp"

namespace concord::core {

Miner::Miner(vm::World& world, MinerConfig config)
    : config_(config),
      engine_(world, config.engine()),
      pool_(config.threads),
      parallel_(pool_parallel_for(pool_)) {
  if (config_.lock_table_reserve > 0) runtime_.locks().reserve(config_.lock_table_reserve);
}

chain::Block Miner::mine(const std::vector<chain::Transaction>& txs, const chain::Block& parent) {
  const auto n = static_cast<std::uint32_t>(txs.size());
  runtime_.reset();  // "When a miner starts a block, it sets these counters to zero."
  stats_ = MinerStats{};
  stats_.transactions = n;

  std::vector<stm::LockProfile> profiles(n);
  std::vector<vm::TxStatus> statuses(n, vm::TxStatus::kSuccess);
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> aborts{0};

  // ConcordSan logs, one per transaction. Pool workers write only their
  // own slot, so the preallocated vector needs no synchronization.
  std::vector<stm::AccessRecorder> logs(config_.detect ? n : 0);

  pool_.run_batch(n, [&](std::uint32_t i) {
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

  chain::Block block = assemble(txs, std::move(statuses), std::move(profiles), parent);
  run_detect(block, logs);
  return block;
}

chain::Block Miner::mine_serial(const std::vector<chain::Transaction>& txs,
                                const chain::Block& parent) {
  const auto n = static_cast<std::uint32_t>(txs.size());
  stats_ = MinerStats{};
  stats_.transactions = n;
  stats_.attempts = n;

  std::vector<stm::LockProfile> profiles(n);
  std::vector<vm::TxStatus> statuses(n, vm::TxStatus::kSuccess);
  std::vector<stm::AccessRecorder> logs(config_.detect ? n : 0);
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

  chain::Block block = assemble(txs, std::move(statuses), std::move(profiles), parent);
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
                             std::vector<stm::LockProfile> profiles, const chain::Block& parent) {
  chain::Block block;
  block.transactions = txs;
  block.statuses = std::move(statuses);
  block.schedule.profiles = std::move(profiles);
  if (!block.schedule.to_graph(txs.size()).is_acyclic()) {
    // Strict two-phase locking makes commit order consistent across
    // locks; a cycle here means an STM invariant broke.
    throw std::logic_error("derived happens-before graph is cyclic");
  }

  block.header.number = parent.header.number + 1;
  block.header.parent_hash = parent.hash();
  {
    const auto begin = std::chrono::steady_clock::now();
    block.header.state_root = engine_.world().state_root(&parallel_);
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
