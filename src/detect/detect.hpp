#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chain/block.hpp"
#include "graph/happens_before.hpp"
#include "stm/access_log.hpp"
#include "stm/lock_id.hpp"
#include "stm/lock_mode.hpp"

namespace concord::detect {

/// ConcordSan — the abstract-lock race detector.
///
/// The paper's whole construction rests on one precondition: "if two
/// storage operations map to distinct abstract locks, then they must
/// commute", and every operation declares (and under speculation,
/// acquires) the abstract lock covering it *before* touching data. The
/// boosted collections uphold this by construction — but a hand-written
/// contract layered on new storage types, or a future lazy/OCC path,
/// could silently break it, and nothing in the miner would notice: the
/// block still assembles, the validator still replays it, and the race
/// only shows up as a state-root divergence on some other machine.
///
/// ConcordSan makes the precondition checkable. During an instrumented
/// run every boosted operation emits two events into a per-transaction
/// AccessRecorder: the *declaration* (what lock, what mode — the point
/// the lock is acquired under strict two-phase locking) and the *physical
/// access* (what data was actually touched, with its true commutativity
/// class). Two checks consume the logs:
///
///  1. Lockset check (Eraser lifted to abstract locks): replay each
///     transaction's event stream; every access must be covered by a
///     previously-declared lock in a compatible mode. Because boosting
///     uses strict two-phase locking, "declared earlier in this attempt"
///     is exactly "held now" — no lock-release events needed.
///
///  2. Schedule-soundness oracle (paper Theorem 1 as an executable
///     assertion): transactions left unordered by the happens-before
///     graph of the published profiles must have non-conflicting access
///     footprints, otherwise the fork-join replay could race.
struct Violation {
  std::uint32_t tx = 0;               ///< Block index of the offending transaction.
  std::string contract;               ///< Target contract address (hex).
  std::uint32_t selector = 0;         ///< Method selector.
  stm::LockId lock;                   ///< The abstract lock the access maps to.
  stm::LockMode access = stm::LockMode::kRead;  ///< Physical access class.
  const char* op = "";                ///< Collection operation label.
  bool declared = false;              ///< Lock declared at all this transaction?
  stm::LockMode held = stm::LockMode::kRead;  ///< Combined held mode (when declared).

  /// "tx 3 token.transfer: map.put on (5f3a…, 91c2…) — lock never declared"
  [[nodiscard]] std::string describe() const;
};

/// Two transactions the published schedule allows to run concurrently
/// whose physical footprints conflict on `lock`.
struct SoundnessViolation {
  std::uint32_t tx_a = 0;
  std::uint32_t tx_b = 0;
  stm::LockId lock;
  stm::LockMode mode_a = stm::LockMode::kRead;  ///< tx_a's combined access class.
  stm::LockMode mode_b = stm::LockMode::kRead;  ///< tx_b's combined access class.

  [[nodiscard]] std::string describe() const;
};

/// Everything one block's instrumented run produced.
struct DetectReport {
  std::uint64_t block_number = 0;
  std::uint64_t transactions = 0;
  std::uint64_t accesses = 0;  ///< Physical accesses checked.
  std::vector<Violation> lockset;
  std::vector<SoundnessViolation> soundness;

  [[nodiscard]] bool clean() const noexcept { return lockset.empty() && soundness.empty(); }
  [[nodiscard]] std::size_t total_violations() const noexcept {
    return lockset.size() + soundness.size();
  }

  /// Machine-readable form (one JSON object) — uploaded as a CI artifact
  /// when the detect lane fails, so a red run carries its own evidence.
  [[nodiscard]] std::string to_json() const;
};

/// Lockset check over one transaction's event stream (check 1 above).
/// Appends any violations to `report`; `tx` indexes the transaction in
/// its block and `txn` supplies contract/selector for the report.
void check_lockset(std::uint32_t tx, const chain::Transaction& txn,
                   const stm::AccessRecorder& log, DetectReport& report);

/// Schedule-soundness oracle (check 2 above) over a whole block: for
/// every pair of transactions unordered by `hb` (neither reaches the
/// other), their combined physical footprints must be pairwise
/// non-conflicting. O(n² · footprint) with BFS reachability — blocks are
/// a few hundred transactions, so this stays well under replay cost.
void check_schedule_soundness(const graph::HappensBeforeGraph& hb,
                              std::span<const stm::AccessRecorder> logs, DetectReport& report);

/// Runs both checks over a freshly-mined block and its per-transaction
/// access logs (logs[i] belongs to block.transactions[i]).
[[nodiscard]] DetectReport analyze_block(const chain::Block& block,
                                         std::span<const stm::AccessRecorder> logs);

/// Writes `report.to_json()` to `$CONCORD_DETECT_REPORT_DIR/<tag>.json`
/// when that environment variable is set (the CI detect lane points it at
/// an artifact directory). Returns the path written, or empty when the
/// variable is unset or the file could not be created.
std::string write_report_artifact(const DetectReport& report, const std::string& tag);

}  // namespace concord::detect
