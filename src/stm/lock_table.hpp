#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "stm/abstract_lock.hpp"
#include "stm/lock_id.hpp"

namespace concord::stm {

/// Striped, on-demand table of abstract locks.
///
/// Locks are created the first time any transaction touches their LockId
/// and live across block boundaries: reset() implements the paper's §4
/// "When a miner starts a block, it sets these counters to zero" by
/// zeroing every lock's counter in place, reusing the node and the
/// holder-vector capacity — under a sustained block stream this removes a
/// full drop-and-reallocate of the table per block.
///
/// Between that in-place recycle and the wholesale drop sits a decay
/// sweep: each lock remembers the block (reset epoch) it was last
/// touched in, and reset() evicts locks idle for `decay_blocks`
/// consecutive blocks. Under a stream touching disjoint ids every block,
/// cold locks age out within decay_blocks while the hot working set
/// survives indefinitely — instead of the whole table (hot locks
/// included) periodically hitting the shrink fallback. That fallback
/// remains the hard bound: a table past `shrink_threshold` distinct
/// locks (e.g. one block touching more ids than the decay horizon can
/// shed) is still dropped wholesale.
///
/// Pointers returned by get() are stable until a reset() evicts that
/// lock (decay) or drops the table (shrink); reset() only runs between
/// blocks when no speculative action is live.
class LockTable {
 public:
  /// Above this many retained locks, reset() falls back to dropping the
  /// table instead of recycling it (memory bound for long streams).
  static constexpr std::size_t kDefaultShrinkThreshold = 1u << 18;

  /// A lock untouched for this many consecutive blocks is evicted by the
  /// decay sweep. 0 disables decay (pure recycle-or-drop, the pre-decay
  /// behavior).
  static constexpr std::size_t kDefaultDecayBlocks = 64;

  LockTable() = default;
  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// Returns the lock for `id`, creating it if needed, and stamps it as
  /// touched in the current block (the decay sweep's freshness signal).
  [[nodiscard]] AbstractLock& get(const LockId& id) {
    Stripe& stripe = stripes_[stripe_index(id)];
    std::scoped_lock lk(stripe.mu);
    auto [it, inserted] = stripe.locks.try_emplace(id);
    if (inserted) it->second.lock = std::make_unique<AbstractLock>(id);
    it->second.touched_epoch = epoch_.load(std::memory_order_relaxed);
    return *it->second.lock;
  }

  /// Zeroes every use counter for the next block, keeping allocations;
  /// evicts locks idle for `decay_blocks` consecutive blocks; drops the
  /// table wholesale past `shrink_threshold` (see class comment). Caller
  /// must guarantee no action holds or waits on any lock.
  void reset(std::size_t shrink_threshold = kDefaultShrinkThreshold,
             std::size_t decay_blocks = kDefaultDecayBlocks) {
    const std::size_t current = size();
    if (std::size_t hw = high_water_.load(std::memory_order_relaxed); current > hw) {
      high_water_.store(current, std::memory_order_relaxed);
    }
    if (std::size_t bytes = approx_memory_bytes();
        bytes > memory_high_water_.load(std::memory_order_relaxed)) {
      memory_high_water_.store(bytes, std::memory_order_relaxed);
    }
    const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    for (auto& stripe : stripes_) {
      std::scoped_lock lk(stripe.mu);
      if (current > shrink_threshold) {
        // Not clear(): that keeps the bucket array, and after a
        // million-id block those arrays *are* the footprint. A fresh map
        // releases them; rebuilds can reserve() their way back.
        decltype(stripe.locks){}.swap(stripe.locks);
        continue;
      }
      for (auto it = stripe.locks.begin(); it != stripe.locks.end();) {
        // blocks-since-last-touch: 0 = touched in the block just ended.
        if (decay_blocks > 0 && epoch - it->second.touched_epoch >= decay_blocks) {
          it = stripe.locks.erase(it);
          evicted_.fetch_add(1, std::memory_order_relaxed);
        } else {
          it->second.lock->reset_for_next_block();
          ++it;
        }
      }
    }
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Total number of distinct abstract locks materialized (diagnostic).
  /// Counters recycled by reset() stay counted — the retained set *is*
  /// the table's working set.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& stripe : stripes_) {
      std::scoped_lock lk(stripe.mu);
      n += stripe.locks.size();
    }
    return n;
  }

  /// Largest size() ever observed at a reset() boundary or now —
  /// surfaced as MinerStats::lock_table_high_water.
  [[nodiscard]] std::size_t high_water() const {
    return std::max(high_water_.load(std::memory_order_relaxed), size());
  }

  /// Total hash-table buckets across all stripes — the table's slot
  /// footprint, which unordered_map never shrinks on erase. Together
  /// with approx_memory_bytes() this is what the million-id regression
  /// test bounds: decay eviction must keep *entries* bounded, and the
  /// wholesale-drop fallback must keep *buckets* bounded.
  [[nodiscard]] std::size_t bucket_count() const {
    std::size_t n = 0;
    for (const auto& stripe : stripes_) {
      std::scoped_lock lk(stripe.mu);
      n += stripe.locks.bucket_count();
    }
    return n;
  }

  /// Estimated resident bytes of the table: bucket array plus per-entry
  /// node + lock object. Holder-vector capacities inside the locks are
  /// not visible from here, so this is a floor — but it tracks exactly
  /// the components that grow with distinct-id count, which is what the
  /// memory bound is about.
  [[nodiscard]] std::size_t approx_memory_bytes() const {
    constexpr std::size_t kPerBucket = sizeof(void*);
    // Node: the pair, the unordered_map's next pointer + cached hash, and
    // the heap AbstractLock the Entry points at.
    constexpr std::size_t kPerEntry = sizeof(std::pair<const LockId, Entry>) +
                                      2 * sizeof(void*) + sizeof(AbstractLock);
    std::size_t bytes = 0;
    for (const auto& stripe : stripes_) {
      std::scoped_lock lk(stripe.mu);
      bytes += stripe.locks.bucket_count() * kPerBucket +
               stripe.locks.size() * kPerEntry;
    }
    return bytes;
  }

  /// Largest approx_memory_bytes() observed at a reset() boundary or now.
  [[nodiscard]] std::size_t memory_high_water() const {
    return std::max(memory_high_water_.load(std::memory_order_relaxed),
                    approx_memory_bytes());
  }

  /// Workload hint: pre-buckets every stripe for `expected_locks` total
  /// distinct ids, so a block stream with a known working set (the
  /// Zipfian benchmarks seed this from the account count) skips the
  /// incremental rehashing a million try_emplace calls would pay.
  /// Never shrinks; safe to call between blocks only (like reset()).
  void reserve(std::size_t expected_locks) {
    const std::size_t per_stripe = expected_locks / kStripes + 1;
    for (auto& stripe : stripes_) {
      std::scoped_lock lk(stripe.mu);
      stripe.locks.reserve(per_stripe);
    }
  }

  /// Locks removed by the decay sweep over the table's lifetime
  /// (diagnostic; wholesale drops are not counted here).
  [[nodiscard]] std::uint64_t evicted() const noexcept {
    return evicted_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStripes = 64;

  [[nodiscard]] static std::size_t stripe_index(const LockId& id) noexcept {
    return LockIdHash{}(id) % kStripes;
  }

  /// Map value: the lock plus the reset epoch it was last touched in.
  /// The stamp lives beside the pointer (not inside AbstractLock) — it
  /// is table bookkeeping, written under the stripe mutex get() already
  /// holds.
  struct Entry {
    std::unique_ptr<AbstractLock> lock;
    std::uint64_t touched_epoch = 0;
  };

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<LockId, Entry, LockIdHash> locks;
  };

  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::size_t> memory_high_water_{0};
  /// Number of completed reset()s — the "current block" stamp get()
  /// writes. Atomic so diagnostic reads stay clean; get()/reset() are
  /// already excluded by the reset contract.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> evicted_{0};
};

}  // namespace concord::stm
