#include "core/validator.hpp"

#include <atomic>
#include <optional>
#include <vector>

#include "vm/trace.hpp"

namespace concord::core {

std::string_view to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "accepted";
    case RejectReason::kBadCommitments: return "header commitments do not match body";
    case RejectReason::kMalformedSchedule: return "malformed schedule";
    case RejectReason::kMissingConstraint: return "schedule misses a happens-before constraint";
    case RejectReason::kCyclicSchedule: return "published schedule graph is cyclic";
    case RejectReason::kBadSerialOrder: return "published serial order is not a topological sort";
    case RejectReason::kProfileMismatch: return "replay trace differs from published lock profile";
    case RejectReason::kStatusMismatch: return "replayed statuses differ from block";
    case RejectReason::kStateRootMismatch: return "replayed state root differs from header";
  }
  return "?";
}

Validator::Validator(vm::World& world, ValidatorConfig config)
    : config_(config),
      engine_(world, config.engine()),
      pool_(config.threads),
      parallel_(pool_parallel_for(pool_)) {}

std::optional<graph::HappensBeforeGraph> Validator::structural_checks(
    const chain::Block& block, ValidationReport& report) const {
  const auto fail = [&report](RejectReason reason,
                              std::string detail) -> std::optional<graph::HappensBeforeGraph> {
    report.ok = false;
    report.reason = reason;
    report.detail = std::move(detail);
    return std::nullopt;
  };

  if (!block.commitments_consistent()) {
    return fail(RejectReason::kBadCommitments, "tx/status/schedule roots");
  }

  const std::size_t n = block.transactions.size();
  const auto& schedule = block.schedule;
  if (schedule.profiles.size() != n) {
    return fail(RejectReason::kMalformedSchedule, "profile count != transaction count");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (schedule.profiles[i].tx != i) {
      return fail(RejectReason::kMalformedSchedule, "profiles not indexed by transaction");
    }
  }
  for (const auto& [u, v] : schedule.edges) {
    if (u >= n || v >= n || u == v) {
      return fail(RejectReason::kMalformedSchedule, "edge endpoint out of range");
    }
  }

  // "Naturally, the validator must be able to check that the proposed
  // schedule really is serializable": the published graph must imply
  // every ordering the profiles' use counters demand, otherwise two
  // conflicting transactions could replay concurrently (a data race).
  graph::HappensBeforeGraph published = schedule.to_graph(n);
  const graph::HappensBeforeGraph derived = graph::derive_happens_before(schedule.profiles, n);
  if (!published.implies(derived)) {
    return fail(RejectReason::kMissingConstraint, "profile-derived edge not covered");
  }
  if (!published.is_acyclic()) {
    return fail(RejectReason::kCyclicSchedule, "cycle in published edges");
  }
  if (!published.is_topological_order(schedule.serial_order)) {
    return fail(RejectReason::kBadSerialOrder, "serial order inconsistent with graph");
  }
  return published;
}

ValidationReport Validator::validate_parallel(const chain::Block& block) {
  ValidationReport report;
  const std::optional<graph::HappensBeforeGraph> published = structural_checks(block, report);
  if (!published) return report;

  const std::size_t n = block.transactions.size();
  std::vector<vm::TxStatus> statuses(n, vm::TxStatus::kSuccess);
  std::atomic<bool> profile_mismatch{false};

  // Algorithm 2: each transaction's task joins its happens-before
  // predecessors (dependency counting in the pool) and then re-executes
  // the transaction, recording thread-locally the locks it would have
  // acquired. A replay that throws still lets the DAG drain; the pool
  // rethrows here afterwards.
  try {
    pool_.run_dag(published->successor_lists(), [&](std::uint32_t i) {
      vm::TraceRecorder trace;
      statuses[i] = engine_.execute_traced(block.transactions[i], trace);
      const stm::LockProfile& expected = block.schedule.profiles[i];
      const bool reverted = statuses[i] != vm::TxStatus::kSuccess;
      if (!trace.matches(expected) || expected.reverted != reverted) {
        profile_mismatch.store(true, std::memory_order_relaxed);
      }
    });
  } catch (...) {
    report.reason = RejectReason::kProfileMismatch;
    report.detail = "replay task raised an unexpected error";
  }
  report.replayed = n;
  report.steals = pool_.steal_count();
  if (report.reason != RejectReason::kNone) return report;

  // "At the end of the execution, the validator's VM compares the traces
  // it generated with the lock profiles provided by the miner. If they
  // differ, the block is rejected."
  if (profile_mismatch.load()) {
    report.reason = RejectReason::kProfileMismatch;
    report.detail = "lock trace/profile divergence";
    return report;
  }
  if (statuses != block.statuses) {
    report.reason = RejectReason::kStatusMismatch;
    report.detail = "transaction outcome divergence";
    return report;
  }
  if (engine_.world().state_root(&parallel_) != block.header.state_root) {
    report.reason = RejectReason::kStateRootMismatch;
    report.detail = "final state divergence";
    return report;
  }
  report.ok = true;
  return report;
}

ValidationReport Validator::validate_serial(const chain::Block& block) {
  ValidationReport report;
  if (!structural_checks(block, report)) return report;

  const std::size_t n = block.transactions.size();
  std::vector<vm::TxStatus> statuses(n, vm::TxStatus::kSuccess);
  // Serial re-execution follows the published equivalent serial order S,
  // exactly as pre-paper validators re-run the block's transactions "in
  // block-order".
  for (const std::uint32_t i : block.schedule.serial_order) {
    statuses[i] = engine_.execute_serial(block.transactions[i]);
  }
  report.replayed = n;

  if (statuses != block.statuses) {
    report.reason = RejectReason::kStatusMismatch;
    report.detail = "transaction outcome divergence (serial)";
    return report;
  }
  if (engine_.world().state_root() != block.header.state_root) {
    report.reason = RejectReason::kStateRootMismatch;
    report.detail = "final state divergence (serial)";
    return report;
  }
  report.ok = true;
  return report;
}

}  // namespace concord::core
