#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "chain/block.hpp"
#include "core/execution_engine.hpp"
#include "core/pool_parallel.hpp"
#include "graph/happens_before.hpp"
#include "sched/fork_join.hpp"
#include "vm/gas.hpp"
#include "vm/world.hpp"

namespace concord::core {

/// Why a block was rejected. Ordered roughly by how early in validation
/// the check runs.
enum class RejectReason : std::uint8_t {
  kNone = 0,
  kBadCommitments,      ///< Header does not commit to the body it carries.
  kMalformedSchedule,   ///< Profiles not one per transaction, in index order.
  kCyclicSchedule,      ///< Profile counters order some transactions both ways.
  kProfileMismatch,     ///< Replay trace differs from a published profile.
  kStatusMismatch,      ///< Replayed tx outcomes differ from the block's.
  kStateRootMismatch,   ///< Replayed final state differs from the header.
};

[[nodiscard]] std::string_view to_string(RejectReason reason) noexcept;

/// Outcome of validating one block.
struct ValidationReport {
  bool ok = false;
  RejectReason reason = RejectReason::kNone;
  std::string detail;            ///< Human-readable specifics (first failure).
  std::uint64_t replayed = 0;    ///< Transactions re-executed.
  /// The validator pool's steal count after this replay: cumulative over
  /// the validator's lifetime, not per block — diff consecutive reports
  /// for a block's own steals.
  std::uint64_t steals = 0;
};

/// Validator tuning knobs.
struct ValidatorConfig {
  unsigned threads = 3;  ///< At least 1; 3 matches the paper's evaluation setup.
  double nanos_per_gas = vm::GasMeter::kDefaultNanosPerGas;
  /// Must match the mining-side MinerConfig::exclusive_locks_only.
  bool exclusive_locks_only = false;

  /// The execution-side subset, shared verbatim with the Miner so both
  /// stages run on the same ExecutionEngine semantics.
  [[nodiscard]] ExecutionConfig engine() const noexcept {
    return ExecutionConfig{nanos_per_gas, exclusive_locks_only};
  }
};

/// The paper's validator (§4 / Algorithm 2).
///
/// validate_parallel() derives the happens-before graph from the
/// published lock profiles and turns it into a deterministic fork-join
/// program on a work-stealing pool: each transaction replays (no abstract
/// locks, no conflict detection, no rollback machinery) once all of its
/// graph predecessors finish, while a thread-local TraceRecorder captures
/// the locks it *would* have taken. The block is accepted only if (1) the
/// profile-derived graph is acyclic, (2) every replay trace matches its
/// published profile, (3) the replayed status vector matches, and (4) the
/// final state root matches.
///
/// Validation mutates the world to the post-block state once it reaches
/// the re-execution stage; the caller provides a world positioned at the
/// parent state (and owns rebuilding it if validation fails mid-way).
class Validator {
 public:
  explicit Validator(vm::World& world, ValidatorConfig config = {});

  [[nodiscard]] ValidationReport validate_parallel(const chain::Block& block);

  /// Resumable-from-snapshot entry point: re-points the validator at
  /// `world`. A failed validation leaves the replica dirty (replay
  /// mutates it up to the point of divergence — or all the way, when
  /// only the published root was wrong), so re-org recovery materializes
  /// a fresh world from the last accepted boundary snapshot and resumes
  /// here. Must not be called while validating.
  void resume_from(vm::World& world) noexcept { engine_.rebind(world); }

  [[nodiscard]] unsigned threads() const noexcept { return pool_.size(); }

 private:
  /// Checks everything that does not require re-execution. Returns the
  /// profile-derived happens-before graph when `report` is still clean, so
  /// the replay runs on the graph the checks accepted.
  std::optional<graph::HappensBeforeGraph> structural_checks(const chain::Block& block,
                                                             ValidationReport& report) const;

  ValidatorConfig config_;
  ExecutionEngine engine_;
  sched::ForkJoinPool pool_;
  vm::ParallelFor parallel_;  ///< pool_, for validate_parallel's state root.
};

}  // namespace concord::core
