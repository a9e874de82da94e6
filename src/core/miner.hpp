#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chain/block.hpp"
#include "chain/transaction.hpp"
#include "core/execution_engine.hpp"
#include "core/pool_parallel.hpp"
#include "detect/detect.hpp"
#include "sched/fork_join.hpp"
#include "stm/runtime.hpp"
#include "vm/gas.hpp"
#include "vm/world.hpp"

namespace concord::core {

/// Miner tuning knobs.
struct MinerConfig {
  /// Speculative worker threads (at least 1). The paper uses 3 ("a fixed
  /// pool of three threads, leaving one core available for garbage
  /// collection and other system processes"); its Java ExecutorService
  /// pool is here an edgeless job on a sched::ForkJoinPool.
  unsigned threads = 3;
  /// Wall-clock weight of gas (see vm::GasMeter); benches override this to
  /// scale per-transaction work.
  double nanos_per_gas = vm::GasMeter::kDefaultNanosPerGas;
  /// Safety valve: attempts per transaction before declaring livelock.
  /// Deadlock-victim aging makes hitting this a bug, not a workload
  /// property.
  std::size_t max_attempts = 1'000;
  /// Workload hint: expected distinct abstract-lock ids, pre-bucketing
  /// the lock table at construction (LockTable::reserve). 0 = no hint.
  /// The Zipfian large-state benches seed this from the account count.
  std::size_t lock_table_reserve = 0;
  /// Ablation: strictly-exclusive abstract locks (no READ/INCREMENT
  /// sharing). Blocks mined this way must be validated with the same
  /// setting. See bench_ablation_modes.
  bool exclusive_locks_only = false;
  /// ConcordSan: record per-transaction access logs during mining and run
  /// the lockset checker plus the schedule-soundness oracle on every
  /// mined block (see detect/detect.hpp). Off by default — the release
  /// hot path then pays one untaken null test per storage op. Building
  /// with -DCONCORD_DETECT=ON flips the default, giving a tree whose
  /// every test and bench runs instrumented.
#ifdef CONCORD_DETECT
  bool detect = true;
#else
  bool detect = false;
#endif

  /// The execution-side subset, shared verbatim with the Validator so
  /// both stages run on the same ExecutionEngine semantics.
  [[nodiscard]] ExecutionConfig engine() const noexcept {
    return ExecutionConfig{nanos_per_gas, exclusive_locks_only};
  }
};

/// Counters describing one mining run.
struct MinerStats {
  std::uint64_t transactions = 0;
  std::uint64_t attempts = 0;          ///< Total speculative attempts (≥ transactions).
  std::uint64_t conflict_aborts = 0;   ///< Attempts that rolled back and retried.
  std::uint64_t deadlock_victims = 0;  ///< Aborts initiated by the deadlock detector.
  std::size_t schedule_bytes = 0;      ///< Serialized size of the published schedule.
  std::size_t lock_table_high_water = 0;  ///< Max table size over the miner's lifetime.
  /// Arena counters of the mined world's lineage (all zero when the
  /// world runs the heap baseline). Snapshot at block assembly.
  vm::ArenaStats arena;
  /// Time computing the block's state root during assembly: O(pages the
  /// block dirtied) once the parent state's digests are cached.
  double state_root_ms = 0.0;
  /// ConcordSan violations found in this block (lockset + soundness);
  /// always 0 when MinerConfig::detect is off. Details live in
  /// Miner::last_detect_report().
  std::uint64_t detect_violations = 0;
};

/// The paper's miner. mine() implements Algorithm 1: execute the block's
/// transactions as speculative actions on the miner's pool (one edgeless
/// fork-join job per block, standing in for §6.1's ExecutorService),
/// record lock profiles, check that the happens-before graph they induce
/// is acyclic, and publish the profiles in the block.
///
/// mine_serial() is the serial miner: it executes transactions one at a
/// time in block order (no locks, no speculation) and publishes the
/// trivially-correct sequential schedule — the paper's §4 aside about a
/// miner that publishes "a correct sequential schedule equivalent to, but
/// slower than its actual parallel schedule" made honest.
///
/// execute_serial_baseline() is the undecorated serial execution used as
/// the speedup baseline in §7 (no schedule capture at all).
class Miner {
 public:
  explicit Miner(vm::World& world, MinerConfig config = {});

  /// Speculative parallel mining (Algorithm 1). Mutates the world to the
  /// post-block state and returns the block extending `parent`.
  [[nodiscard]] chain::Block mine(const std::vector<chain::Transaction>& txs,
                                  const chain::Block& parent);

  /// Serial mining with schedule capture (one thread, no speculation).
  [[nodiscard]] chain::Block mine_serial(const std::vector<chain::Transaction>& txs,
                                         const chain::Block& parent);

  /// Plain serial execution; returns per-tx statuses. The §7 baseline.
  std::vector<vm::TxStatus> execute_serial_baseline(
      const std::vector<chain::Transaction>& txs);

  /// Resumable-from-snapshot entry point: re-points the miner at `world`
  /// (freshly materialized from the last accepted boundary snapshot
  /// after a rejected block invalidated the speculative suffix) and
  /// clears the boosting runtime — the retained lock working set and
  /// deadlock state describe executions that no longer exist. Must not
  /// be called while mining. The miner's stats (high-water marks
  /// included) survive the resume.
  void resume_from(vm::World& world);

  [[nodiscard]] const MinerStats& last_stats() const noexcept { return stats_; }
  [[nodiscard]] unsigned threads() const noexcept { return pool_.size(); }

  /// The miner's pool as a vm::ParallelFor, for state roots computed
  /// while the miner is idle (the node's genesis root).
  [[nodiscard]] const vm::ParallelFor& parallel_for() const noexcept { return parallel_; }

  /// ConcordSan findings for the last mined block. Empty (clean) when
  /// MinerConfig::detect is off or no block has been mined yet.
  [[nodiscard]] const detect::DetectReport& last_detect_report() const noexcept {
    return detect_report_;
  }

 private:
  /// Builds the block: derives the happens-before graph from `profiles`,
  /// topologically sorts it, snapshots the state root.
  [[nodiscard]] chain::Block assemble(const std::vector<chain::Transaction>& txs,
                                      std::vector<vm::TxStatus> statuses,
                                      std::vector<stm::LockProfile> profiles,
                                      const chain::Block& parent);

  /// Runs ConcordSan over a just-assembled block when detect is on:
  /// populates detect_report_ and stats_.detect_violations.
  void run_detect(const chain::Block& block, std::span<const stm::AccessRecorder> logs);

  MinerConfig config_;
  ExecutionEngine engine_;
  stm::BoostingRuntime runtime_;
  sched::ForkJoinPool pool_;
  vm::ParallelFor parallel_;  ///< pool_, for the block's state root.
  MinerStats stats_;
  detect::DetectReport detect_report_;
};

}  // namespace concord::core
