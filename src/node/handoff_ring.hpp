#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "chain/block.hpp"
#include "vm/world.hpp"

namespace concord::node {

/// Where a re-org lands: the last *accepted* boundary. The consumer
/// fills this in when it rejects a block — a copy of the verified
/// boundary handle it already keeps, so recovery costs no extra fork —
/// and the producer collects it when it acknowledges the abort,
/// re-materializes its world from `world` and resumes mining on top of
/// `parent`.
struct RecoveryPoint {
  vm::WorldSnapshot world;  ///< State at the last accepted block boundary.
  chain::Block parent;      ///< The last accepted block (the new mining parent).
};

/// Lifetime counters for one ring (all fields monotone).
struct HandoffRingStats {
  std::size_t high_water = 0;             ///< Max entries in flight at once.
  std::uint64_t delivered = 0;            ///< Entries accepted into the ring.
  std::uint64_t aborts = 0;               ///< Re-orgs (abort_and_drain calls).
  std::uint64_t drained_blocks = 0;       ///< Speculative suffix entries discarded.
  std::uint64_t drained_transactions = 0; ///< Transactions inside those entries.
};

/// Bounded SPSC ring of mined-but-unvalidated blocks between the miner
/// (producer) and the validator (consumer). The depth is how far mining
/// may run ahead of validation — depth 1 degenerates to the original
/// handoff slot. A block carries nothing but itself: the recovery anchor
/// lives on the consumer side (the last accepted boundary), so no entry
/// needs a pre-state of its own. Mutex + condition variables rather than
/// a lock-free ring: traffic is one block at a time, and the abort
/// handshake below wants the linearization a single mutex gives for
/// free.
///
/// Abort protocol (single outstanding abort by construction):
///  1. The consumer rejects block N and calls abort_and_drain(point):
///     every queued block is discarded (all were mined on top of N), the
///     recovery point is published, the abort flag raised, and a
///     producer blocked in push() is woken.
///  2. The producer observes the flag — either as a failed push
///     (kAborted: the pushed block was part of the doomed suffix and is
///     NOT delivered) or via abort_requested() before mining its next
///     batch — and calls acknowledge_abort(), which hands back the
///     recovery point and reopens the ring.
///  3. The consumer meanwhile waits in pop() for the first
///     post-recovery block. It cannot reject a block it has not seen,
///     so a second abort cannot be raised before the first is
///     acknowledged; one flag suffices.
///
/// A node that validates inline (NodeConfig::pipelined == false) never
/// pushes: it runs step 1 on an empty ring and step 2 before its next
/// batch, so both modes share one re-org path.
class HandoffRing {
 public:
  enum class PushOutcome : std::uint8_t {
    kDelivered,  ///< Entry queued for the consumer.
    kAborted,    ///< Re-org pending: entry discarded; acknowledge_abort().
    kClosed,     ///< Ring closed; entry discarded, stop producing.
  };

  struct DrainResult {
    std::size_t blocks = 0;
    std::size_t transactions = 0;
  };

  explicit HandoffRing(std::size_t depth) : depth_(depth) {
    if (depth == 0) throw std::invalid_argument("handoff ring: depth must be >= 1");
  }

  HandoffRing(const HandoffRing&) = delete;
  HandoffRing& operator=(const HandoffRing&) = delete;

  /// Producer. Blocks while the ring is full; this wait is the
  /// pipeline's stall time when validation is the bottleneck.
  [[nodiscard]] PushOutcome push(chain::Block block) {
    std::unique_lock lk(mu_);
    space_.wait(lk, [&] { return ring_.size() < depth_ || abort_pending_ || closed_; });
    if (abort_pending_) return PushOutcome::kAborted;
    if (closed_) return PushOutcome::kClosed;
    ring_.push_back(std::move(block));
    stats_.high_water = std::max(stats_.high_water, ring_.size());
    ++stats_.delivered;
    lk.unlock();
    filled_.notify_one();
    return PushOutcome::kDelivered;
  }

  /// Consumer. Blocks until an entry is available — the pipeline's stall
  /// time when mining is the bottleneck — or the ring is closed and
  /// drained (nullopt, the shutdown signal). While an abort is pending
  /// the ring is empty and stays empty, so this also waits out the
  /// recovery handshake and returns the first post-recovery block.
  [[nodiscard]] std::optional<chain::Block> pop() {
    std::unique_lock lk(mu_);
    filled_.wait(lk, [&] { return !ring_.empty() || closed_; });
    if (ring_.empty()) return std::nullopt;
    chain::Block block = std::move(ring_.front());
    ring_.pop_front();
    lk.unlock();
    space_.notify_one();
    return block;
  }

  /// Consumer, after rejecting the block it holds: discard the queued
  /// suffix (every entry was mined on top of the rejected block),
  /// publish the recovery point and flag the producer. Returns what was
  /// discarded so the caller can account for the dropped transactions.
  DrainResult abort_and_drain(RecoveryPoint point) {
    DrainResult result;
    {
      std::scoped_lock lk(mu_);
      if (abort_pending_) throw std::logic_error("handoff ring: abort already pending");
      for (const chain::Block& block : ring_) {
        ++result.blocks;
        result.transactions += block.transactions.size();
      }
      ring_.clear();
      abort_pending_ = true;
      recovery_ = std::move(point);
      ++stats_.aborts;
      stats_.drained_blocks += result.blocks;
      stats_.drained_transactions += result.transactions;
    }
    space_.notify_all();
    return result;
  }

  /// Producer. True while a re-org is waiting to be acknowledged. Check
  /// between batches so a doomed parent is not mined on a second time.
  [[nodiscard]] bool abort_requested() const {
    std::scoped_lock lk(mu_);
    return abort_pending_;
  }

  /// Producer. Completes the handshake: clears the flag, reopens pushes
  /// and returns the recovery point to resume from. Throws when no abort
  /// is pending (a protocol bug, not a race — see class comment).
  [[nodiscard]] RecoveryPoint acknowledge_abort() {
    std::scoped_lock lk(mu_);
    if (!abort_pending_) throw std::logic_error("handoff ring: no abort to acknowledge");
    abort_pending_ = false;
    RecoveryPoint point = std::move(*recovery_);
    recovery_.reset();
    return point;
  }

  /// Either side. Producer: end-of-stream — the consumer drains what is
  /// queued, then pop() returns nullopt. Consumer (a validation error):
  /// wakes a producer blocked in push() with kClosed. Idempotent.
  void close() {
    {
      std::scoped_lock lk(mu_);
      closed_ = true;
    }
    space_.notify_all();
    filled_.notify_all();
  }

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lk(mu_);
    return ring_.size();
  }

  [[nodiscard]] bool closed() const {
    std::scoped_lock lk(mu_);
    return closed_;
  }

  [[nodiscard]] HandoffRingStats stats() const {
    std::scoped_lock lk(mu_);
    return stats_;
  }

 private:
  std::size_t depth_;
  mutable std::mutex mu_;
  std::condition_variable space_;   ///< Producer waits here: ring full.
  std::condition_variable filled_;  ///< Consumer waits here: ring empty.
  std::deque<chain::Block> ring_;   ///< Front = oldest in-flight block.
  bool closed_ = false;
  bool abort_pending_ = false;
  std::optional<RecoveryPoint> recovery_;
  HandoffRingStats stats_;
};

}  // namespace concord::node
