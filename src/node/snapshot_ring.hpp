#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "vm/world.hpp"

namespace concord::node {

/// One accepted block boundary as published to readers: the boundary's
/// number and its frozen world (root seeded from the verified header, so
/// readers never rehash). Readers hold these via
/// shared_ptr — a held pointer IS a pin: eviction from the ring only
/// drops the ring's reference, never the state under an active reader.
struct PublishedBoundary {
  std::uint64_t number = 0;
  vm::WorldSnapshot snapshot;
};

/// Thrown by the pinning API when "as of block N" cannot be served: N is
/// beyond the head, was evicted by the retention window, or disappeared
/// in a re-org. Explicitly NOT a torn read — the ring either returns a
/// complete boundary or nothing.
class SnapshotEvicted : public std::runtime_error {
 public:
  explicit SnapshotEvicted(const std::string& reason) : std::runtime_error(reason) {}
};

/// The MVCC retention window: the last K accepted boundaries, published
/// by exactly one writer (whichever thread runs validate-and-append —
/// the validator stage when pipelined, the main loop otherwise) and read
/// by any number of query threads with no locks.
///
/// Layout: K slots of atomic<shared_ptr<const PublishedBoundary>>, slot
/// number % K, plus an atomic head block number. Publishing stores the
/// slot, then advances head (release); a reader loads head (acquire),
/// checks the window, loads the slot, and verifies the entry's number
/// still matches — a concurrent wrap-around overwrite makes the numbers
/// disagree and the reader simply misses (correct: that boundary left
/// the window). rewind_to() handles re-orgs by clearing the abandoned
/// suffix BEFORE lowering head, so readers never see a head that
/// promises a slot holding a dead branch's state.
class SnapshotRing {
 public:
  explicit SnapshotRing(std::size_t retain)
      : retain_(retain == 0 ? 1 : retain),
        slots_(std::make_unique<Slot[]>(retain == 0 ? 1 : retain)) {}

  SnapshotRing(const SnapshotRing&) = delete;
  SnapshotRing& operator=(const SnapshotRing&) = delete;

  [[nodiscard]] std::size_t retain() const noexcept { return retain_; }

  /// Publishes boundary `number`. Single-writer; numbers must be
  /// monotonically increasing between rewinds (the chain append order).
  void publish(std::uint64_t number, vm::WorldSnapshot snapshot) {
    auto entry = std::make_shared<const PublishedBoundary>(
        PublishedBoundary{number, std::move(snapshot)});
    slots_[slot_of(number)].store(std::move(entry), std::memory_order_release);
    head_.store(number, std::memory_order_release);
    // Wake read-your-writes waiters (wait_for_head). The empty critical
    // section orders the head store before the notify against a waiter
    // that checked the predicate just before blocking.
    {
      std::scoped_lock lk(wait_mu_);
    }
    head_advanced_.notify_all();
    ++published_;
    const std::size_t resident = static_cast<std::size_t>(std::min<std::uint64_t>(
        number + 1, static_cast<std::uint64_t>(retain_)));
    if (resident > high_water_) high_water_ = resident;
  }

  /// The boundary for block `number`, or nullptr when it is outside the
  /// window (never published, already evicted, or re-orged away).
  [[nodiscard]] std::shared_ptr<const PublishedBoundary> at(std::uint64_t number) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (head == kEmpty || number > head) return nullptr;
    if (number + retain_ <= head) return nullptr;  // Evicted by the window.
    auto entry = slots_[slot_of(number)].load(std::memory_order_acquire);
    if (entry == nullptr || entry->number != number) return nullptr;  // Lost a wrap race.
    return entry;
  }

  /// The newest published boundary, or nullptr when nothing is published
  /// yet. Bounded retry: between the head load and the slot load the
  /// writer may lap us, in which case the slot holds an even NEWER
  /// boundary — acceptable for "latest" — so only a cleared slot
  /// (mid-rewind) retries.
  [[nodiscard]] std::shared_ptr<const PublishedBoundary> latest() const {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::uint64_t head = head_.load(std::memory_order_acquire);
      if (head == kEmpty) return nullptr;
      auto entry = slots_[slot_of(head)].load(std::memory_order_acquire);
      if (entry != nullptr && entry->number >= head) return entry;
    }
    return nullptr;  // Persistent rewind churn; callers treat as evicted.
  }

  /// Re-org: drop every boundary above `number` (the surviving tip),
  /// keeping the rest of the window intact. Single-writer, same thread
  /// as publish().
  void rewind_to(std::uint64_t number) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == kEmpty || head <= number) return;
    // Clear the abandoned suffix first: a reader that still sees the old
    // head finds empty slots (miss, retry latest()), never stale state.
    const std::uint64_t clear_from =
        head - number > retain_ ? head - retain_ + 1 : number + 1;
    for (std::uint64_t n = clear_from; n <= head; ++n) {
      slots_[slot_of(n)].store(nullptr, std::memory_order_release);
    }
    head_.store(number, std::memory_order_release);
  }

  /// Read-your-writes support: blocks until the head reaches `number`
  /// (true) or the deadline passes (false). A true return means block
  /// `number` WAS published; whether it is still in the window is the
  /// caller's pin to win — under re-org churn the head can drop again,
  /// which is why Node::pin_no_older_than re-checks the pin it gets.
  [[nodiscard]] bool wait_for_head(std::uint64_t number,
                                   std::chrono::steady_clock::time_point deadline) const {
    std::unique_lock lk(wait_mu_);
    return head_advanced_.wait_until(lk, deadline, [&] {
      const std::uint64_t head = head_.load(std::memory_order_acquire);
      return head != kEmpty && head >= number;
    });
  }

  /// Newest published block number (nullopt before the first publish).
  [[nodiscard]] std::optional<std::uint64_t> head_number() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (head == kEmpty) return std::nullopt;
    return head;
  }

  /// Lifetime publish count and the most boundaries ever simultaneously
  /// resident (≤ retain). Writer-thread accuracy; diagnostic.
  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }
  [[nodiscard]] std::size_t retained_high_water() const noexcept { return high_water_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  using Slot = std::atomic<std::shared_ptr<const PublishedBoundary>>;

  [[nodiscard]] std::size_t slot_of(std::uint64_t number) const noexcept {
    return static_cast<std::size_t>(number % retain_);
  }

  std::size_t retain_;
  std::unique_ptr<Slot[]> slots_;  ///< atomics are non-movable; vector won't do.
  std::atomic<std::uint64_t> head_{kEmpty};
  mutable std::mutex wait_mu_;                      ///< Guards only the cv below.
  mutable std::condition_variable head_advanced_;   ///< wait_for_head sleepers.
  std::uint64_t published_ = 0;    ///< Writer-thread only.
  std::size_t high_water_ = 0;     ///< Writer-thread only.
};

}  // namespace concord::node
