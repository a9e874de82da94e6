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
    case RejectReason::kCyclicSchedule: return "profile-derived schedule graph is cyclic";
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

  // The use counters are the schedule. Counters that order two
  // transactions both ways leave no serial order to replay, and a cycle
  // that spares some roots would stall run_dag forever, so it is
  // rejected here.
  graph::HappensBeforeGraph derived = schedule.to_graph(n);
  if (!derived.is_acyclic()) {
    return fail(RejectReason::kCyclicSchedule, "cycle in profile-derived graph");
  }
  return derived;
}

ValidationReport Validator::validate_parallel(const chain::Block& block) {
  ValidationReport report;
  const std::optional<graph::HappensBeforeGraph> hb = structural_checks(block, report);
  if (!hb) return report;

  const std::size_t n = block.transactions.size();
  std::vector<vm::TxStatus> statuses(n, vm::TxStatus::kSuccess);
  std::atomic<bool> profile_mismatch{false};

  // Algorithm 2: each transaction's task joins its happens-before
  // predecessors (dependency counting in the pool) and then re-executes
  // the transaction, recording thread-locally the locks it would have
  // acquired. A replay that throws still lets the DAG drain; the pool
  // rethrows here afterwards.
  try {
    pool_.run_dag(hb->successor_lists(), [&](std::uint32_t i) {
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

}  // namespace concord::core
