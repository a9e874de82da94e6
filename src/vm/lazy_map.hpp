#pragma once

#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "stm/lock_id.hpp"
#include "stm/lock_mode.hpp"
#include "stm/speculative_action.hpp"
#include "vm/boosted_map.hpp"
#include "vm/cow.hpp"
#include "vm/exec_context.hpp"
#include "vm/gas.hpp"
#include "vm/state_hasher.hpp"
#include "vm/types.hpp"

namespace concord::vm {

/// Lazy-version-management boosted map — the paper's §3 alternative:
/// "The scheme described here is eager, acquiring locks, applying
/// operations, and recording inverses. An alternative lazy implementation
/// could buffer changes to a contract's storage, applying them only on
/// commit."
///
/// Locking is unchanged (encounter-time abstract locks, strict two-phase),
/// so conflict behaviour and published profiles are identical to
/// BoostedMap. What changes is version management:
///  - writes go to a per-lineage overlay; main storage is untouched;
///  - reads consult the own overlay first (read-your-writes);
///  - commit applies the overlay while all locks are still held;
///  - abort just discards the overlay — no inverse log, no undo replay.
///
/// The trade: aborts become O(1) and inverses are never allocated, but
/// every read pays an overlay lookup and commit pays a second pass.
/// bench_ablation_lazy measures both sides against the eager BoostedMap.
///
/// In serial and replay modes there is no speculation to buffer for, so
/// operations behave exactly like BoostedMap (eager + local undo).
template <typename K, typename V>
class LazyMap {
 public:
  explicit LazyMap(std::uint64_t space) : space_(space) {}

  LazyMap(const LazyMap&) = delete;
  LazyMap& operator=(const LazyMap&) = delete;

  // --- Transactional storage operations -------------------------------

  [[nodiscard]] std::optional<V> get(ExecContext& ctx, const K& key) const {
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kRead);
    ctx.on_data_access(lock_id(key), stm::LockMode::kRead, "lazy.get");
    std::scoped_lock lk(mu_);
    // Own writes win — including buffered erases, which read as absent.
    if (const auto* buffered = find_buffered_entry(ctx, key)) return *buffered;
    const V* value = data_.find(key);
    return value != nullptr ? std::optional<V>(*value) : std::nullopt;
  }

  [[nodiscard]] V get_or(ExecContext& ctx, const K& key, V fallback) const {
    auto v = get(ctx, key);
    return v ? std::move(*v) : std::move(fallback);
  }

  [[nodiscard]] std::optional<V> get_for_update(ExecContext& ctx, const K& key) const {
    ctx.gas().charge(gas::kSload);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kWrite);
    ctx.on_data_access(lock_id(key), stm::LockMode::kRead, "lazy.get_for_update");
    std::scoped_lock lk(mu_);
    if (const auto* buffered = find_buffered_entry(ctx, key)) return *buffered;
    const V* value = data_.find(key);
    return value != nullptr ? std::optional<V>(*value) : std::nullopt;
  }

  [[nodiscard]] bool contains(ExecContext& ctx, const K& key) const {
    return get(ctx, key).has_value();
  }

  void put(ExecContext& ctx, const K& key, V value) {
    ctx.gas().charge(gas::kSstore);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kWrite);
    ctx.on_data_access(lock_id(key), stm::LockMode::kWrite, "lazy.put");
    write(ctx, key, std::optional<V>(std::move(value)));
  }

  bool erase(ExecContext& ctx, const K& key) {
    ctx.gas().charge(gas::kSstore);
    ctx.on_storage_op(lock_id(key), stm::LockMode::kWrite);
    ctx.on_data_access(lock_id(key), stm::LockMode::kWrite, "lazy.erase");
    std::scoped_lock lk(mu_);
    const bool existed = [&] {
      if (const auto* buffered = find_buffered_entry(ctx, key)) return buffered->has_value();
      return data_.contains(key);
    }();
    write_locked(ctx, key, std::nullopt);
    return existed;
  }

  // --- Non-transactional access ----------------------------------------

  /// Copy-on-write fork (World::fork): adopts `other`'s *committed* state
  /// as a shared-page replica in O(1). Forks are taken at block
  /// boundaries, when no speculative action is live — a lineage with a
  /// buffered overlay would make "the state" ambiguous, so forking a
  /// non-quiescent map throws. Overlays created in `other` *after* the
  /// fork never reach this replica: buffered writes live outside the
  /// shared pages, and applying them at commit detaches `other`'s touched
  /// pages first (see the fork-precondition tests in lazy_test).
  void fork_state_from(const LazyMap& other) {
    if (space_ != other.space_) {
      throw std::logic_error("LazyMap::fork_state_from: lock-space mismatch");
    }
    std::scoped_lock lk(mu_, other.mu_);
    if (!other.overlays_.empty()) {
      throw std::logic_error("LazyMap::fork_state_from: live overlays (fork between blocks)");
    }
    data_ = other.data_.fork();
    overlays_.clear();
  }

  void raw_put(const K& key, V value) {
    std::scoped_lock lk(mu_);
    data_.insert_or_assign(key, std::move(value));
  }

  /// Routes future page allocations of the *committed* store through
  /// `arena` (overlays are transient per-lineage heap objects and stay on
  /// the heap). See CowPages::set_arena.
  void set_arena(ArenaHandle arena) {
    std::scoped_lock lk(mu_);
    data_.set_arena(std::move(arena));
  }

  /// Pre-sizes the committed store's page directory. See
  /// CowPages::reserve.
  void raw_reserve(std::size_t expected_entries) {
    std::scoped_lock lk(mu_);
    data_.reserve(expected_entries);
  }

  [[nodiscard]] std::optional<V> raw_get(const K& key) const {
    std::scoped_lock lk(mu_);
    const V* value = data_.find(key);
    return value != nullptr ? std::optional<V>(*value) : std::nullopt;
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lk(mu_);
    return data_.size();
  }

  /// Number of lineages with live overlays (diagnostic; 0 when quiescent).
  [[nodiscard]] std::size_t pending_lineages() const {
    std::scoped_lock lk(mu_);
    return overlays_.size();
  }

  /// Committed state only; buffered overlays are not state. See
  /// BoostedMap::hash_state.
  void hash_state(StateHasher& hasher, std::string_view label) const {
    std::scoped_lock lk(mu_);
    hasher.put_map(label, data_);
  }

  [[nodiscard]] std::uint64_t space() const noexcept { return space_; }

 private:
  /// nullopt value in an overlay = buffered erase.
  using Overlay = std::unordered_map<K, std::optional<V>, StableKeyHash>;

  [[nodiscard]] stm::LockId lock_id(const K& key) const noexcept {
    return stm::LockId{space_, lock_key_of(key)};
  }

  /// Caller holds mu_. The buffered optional-entry for this lineage, or
  /// nullptr when none exists.
  [[nodiscard]] const std::optional<V>* find_buffered_entry(const ExecContext& ctx,
                                                            const K& key) const {
    const stm::SpeculativeAction* action = ctx.speculative_action();
    if (action == nullptr) return nullptr;
    const auto overlay_it = overlays_.find(action->root_id());
    if (overlay_it == overlays_.end()) return nullptr;
    const auto it = overlay_it->second.find(key);
    return it != overlay_it->second.end() ? &it->second : nullptr;
  }

  void write(ExecContext& ctx, const K& key, std::optional<V> value) {
    std::scoped_lock lk(mu_);
    write_locked(ctx, key, std::move(value));
  }

  /// Caller holds mu_.
  void write_locked(ExecContext& ctx, const K& key, std::optional<V> value) {
    stm::SpeculativeAction* action = ctx.speculative_action();
    if (action == nullptr) {
      // Serial/replay: eager with local undo, exactly like BoostedMap.
      std::optional<V> old;
      const V* existing = data_.find(key);
      if (existing != nullptr) old = *existing;
      apply(key, std::move(value));
      ctx.log_inverse([this, key, old = std::move(old)]() {
        std::scoped_lock relock(mu_);
        apply(key, old);
      });
      return;
    }

    const std::uint64_t root = action->root_id();
    auto [overlay_it, fresh] = overlays_.try_emplace(root);
    if (fresh) {
      // First buffered write of this lineage: hook its fate to the action.
      // (If `action` is nested and later commits, the hook transfers to
      // its parent along with its locks.)
      action->add_hook(stm::SpeculativeAction::LifecycleHook{
          .on_commit = [this, root] { apply_overlay(root); },
          .on_abort = [this, root] { discard_overlay(root); },
      });
    }

    // Overlay mutations are themselves undoable: a nested child that
    // aborts must restore the overlay to the parent's view (the child's
    // buffered writes vanish; the parent's survive). The inverse touches
    // only the overlay, never main storage — aborting a lazy transaction
    // still never has to patch committed state.
    std::optional<std::optional<V>> previous;
    if (const auto it = overlay_it->second.find(key); it != overlay_it->second.end()) {
      previous = it->second;
    }
    ctx.log_inverse([this, root, key, previous = std::move(previous)]() {
      std::scoped_lock relock(mu_);
      const auto it = overlays_.find(root);
      if (it == overlays_.end()) return;
      if (previous) {
        it->second.insert_or_assign(key, *previous);
      } else {
        it->second.erase(key);
      }
    });
    overlay_it->second.insert_or_assign(key, std::move(value));
  }

  /// Caller holds mu_. Applies a present-or-erase write to main storage.
  void apply(const K& key, const std::optional<V>& value) {
    if (value) {
      data_.insert_or_assign(key, *value);
    } else {
      data_.erase(key);
    }
  }

  void apply_overlay(std::uint64_t root) {
    std::scoped_lock lk(mu_);
    const auto it = overlays_.find(root);
    if (it == overlays_.end()) return;
    for (const auto& [key, value] : it->second) apply(key, value);
    overlays_.erase(it);
  }

  void discard_overlay(std::uint64_t root) {
    std::scoped_lock lk(mu_);
    overlays_.erase(root);
  }

  std::uint64_t space_;
  mutable std::mutex mu_;
  /// Committed state: COW pages, shared across forked lineages.
  CowPages<K, V, StableKeyHash> data_;
  /// Buffered speculative writes: strictly per-instance, never forked.
  mutable std::unordered_map<std::uint64_t, Overlay> overlays_;
};

}  // namespace concord::vm
