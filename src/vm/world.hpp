#pragma once

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/sha256.hpp"
#include "vm/arena.hpp"
#include "vm/boosted_counter_map.hpp"
#include "vm/contract.hpp"
#include "vm/types.hpp"

namespace concord::vm {

/// The complete on-chain state a block executes against: the deployed
/// contracts plus the native account balances ("each block also includes
/// an explicit state capturing the cumulative effect of transactions in
/// prior blocks" — paper §2).
///
/// Balances are a BoostedCounterMap, so plain transfers between distinct
/// accounts commute and mine in parallel, while reads of a balance
/// serialize against payments touching it — the same fine-grained
/// semantics the contracts get.
///
/// Memory layer: every World owns an ArenaHandle that its COW state
/// (balances + every contract field deployed through contracts().add)
/// allocates from, and fork() shares it — one PageArena serves an entire
/// World lineage, so the pages a retiring snapshot frees are recycled by
/// the miner's next detach instead of bouncing through the global heap.
/// The default constructor turns the arena on; constructing with a null
/// handle reproduces the plain-heap baseline (bench_state_scale's
/// ablation). State roots are byte-identical either way — the arena
/// changes where pages live, never what they contain.
class World {
 public:
  World() : World(make_arena()) {}

  /// `arena` backs all COW state of this world and its forks; null
  /// disables pooling (global-heap baseline).
  explicit World(ArenaHandle arena)
      : arena_(std::move(arena)), balances_(stm::fnv1a64("__world/balances")) {
    contracts_.set_arena(arena_);
    balances_.set_arena(arena_);
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] ContractRegistry& contracts() noexcept { return contracts_; }
  [[nodiscard]] const ContractRegistry& contracts() const noexcept { return contracts_; }

  [[nodiscard]] BoostedCounterMap<Address>& balances() noexcept { return balances_; }
  [[nodiscard]] const BoostedCounterMap<Address>& balances() const noexcept { return balances_; }

  /// Transfers `amount` between accounts as two commutative increments.
  /// Overdraft protection is the caller's business (contracts check their
  /// own invariants; checking here would force a READ and serialize all
  /// payments from the same account — the classic boosting trade-off).
  void transfer(ExecContext& ctx, const Address& from, const Address& to, Amount amount) {
    balances_.add(ctx, from, -amount);
    balances_.add(ctx, to, amount);
  }

  /// Layout of state_root(), folded in first so roots of different
  /// layouts never compare equal. 1 was one flat SHA-256 over every map's
  /// sorted entries; 2 folds each map's Merkle digest (CowPages::digest).
  static constexpr std::uint64_t kStateRootFormat = 2;

  /// Folds all persistent state into `hasher`, in a fixed order.
  void hash_state(StateHasher& hasher) const {
    hasher.put_u64(kStateRootFormat);
    contracts_.hash_state(hasher);
    balances_.hash_state(hasher, "__world/balances");
  }

  /// Canonical digest of all persistent state; the block's state root.
  /// Incremental: a map rehashes only the pages written since its digests
  /// were last computed, on this world or on any fork sharing the pages.
  /// With `parallel`, a large map hashes its dirty subtrees on that pool
  /// (CowPages::digest); the root is the same bytes either way.
  [[nodiscard]] util::Hash256 state_root(const ParallelFor* parallel = nullptr) const {
    StateHasher hasher(parallel);
    hash_state(hasher);
    return hasher.finish();
  }

  /// Copy-on-write fork of the whole world: an independent replica with
  /// an identical state_root() by construction, built in O(contracts) —
  /// every boosted collection shares its committed pages with the
  /// original, and the first write to a page on either side detaches a
  /// private copy of just that page. Call between blocks only (no
  /// speculative action may be live). This is how one genesis state
  /// serves both pipeline stages and how the node affords a frozen
  /// snapshot of every accepted boundary: the validator keeps mutating
  /// its replica (peeling off the dirty pages) while re-org recovery and
  /// read serving share the frozen rest.
  [[nodiscard]] std::unique_ptr<World> fork() const {
    auto replica = std::make_unique<World>(arena_);
    replica->contracts_ = contracts_.fork();
    replica->balances_.fork_state_from(balances_);
    return replica;
  }

  /// The arena this lineage allocates from (null = heap baseline).
  [[nodiscard]] const ArenaHandle& arena() const noexcept { return arena_; }

  /// Allocator counters for this lineage (all-zero when the arena is
  /// off) — surfaced through MinerStats/NodeStats and the bench JSON.
  [[nodiscard]] ArenaStats arena_stats() const noexcept {
    return arena_ ? arena_->stats() : ArenaStats{};
  }

 private:
  ArenaHandle arena_;
  ContractRegistry contracts_;
  BoostedCounterMap<Address> balances_;
};

/// An immutable world state frozen at a block boundary: a COW fork taken
/// at construction plus its (lazily computed) state root. Copying the
/// handle shares the frozen fork; materialize() mints fresh mutable
/// replicas — another fork, so both freezing and materializing cost
/// O(contracts), not O(state). The only other work on this path is
/// hashing: state_root() runs at most once per snapshot, on first demand
/// (or never, when the caller seeds a known root), and rehashes only the
/// pages no fork sharing them has hashed yet.
///
/// This is the seam the node's recovery and read path build on: the last
/// accepted boundary re-derives both stages' worlds after a re-org, and
/// read serving answers queries from published boundaries while the
/// stages' worlds are in flux.
class WorldSnapshot {
 public:
  /// An empty handle (valid() == false). Lets snapshot slots — a
  /// default-constructed aggregate, a moved-from handle — exist without
  /// a frozen world behind them.
  WorldSnapshot() = default;

  /// Freezes `world`'s current state as a shared-page fork. The original
  /// is untouched and may keep advancing (detaching the pages it dirties);
  /// the snapshot's state never changes.
  explicit WorldSnapshot(const World& world) : frozen_(std::make_shared<Frozen>(world.fork())) {}

  /// Freezes `world` and seeds the root cache with `known_root` — for
  /// callers that froze at a boundary whose root is already computed and
  /// verified (the node snapshots right after a block carrying that very
  /// root). Skips the hash entirely.
  WorldSnapshot(const World& world, const util::Hash256& known_root)
      : frozen_(std::make_shared<Frozen>(world.fork())) {
    std::call_once(frozen_->once, [&] { frozen_->root = known_root; });
  }

  /// False for a default-constructed (or moved-from) handle. world() and
  /// materialize() require valid().
  [[nodiscard]] bool valid() const noexcept { return frozen_ != nullptr; }

  /// How many handles share this frozen state (0 for an empty handle) —
  /// the ring-occupancy diagnostic: a depth-k pipeline holds at most one
  /// live boundary per in-flight block.
  [[nodiscard]] long use_count() const noexcept { return frozen_.use_count(); }

  /// The frozen state, for read-only serving. Throws std::logic_error on
  /// an empty handle — dereferencing a snapshot that never froze a world
  /// is a caller bug and must fail loudly, not as UB.
  [[nodiscard]] const World& world() const {
    require_valid("world()");
    return *frozen_->world;
  }

  /// The state root at the moment the snapshot was taken (zero hash for
  /// an empty handle). Computed on first call and cached in the shared
  /// frozen state; safe to race from handles sharing one snapshot.
  /// `parallel` is used only by the call that computes it.
  [[nodiscard]] const util::Hash256& state_root(const ParallelFor* parallel = nullptr) const {
    static const util::Hash256 kZeroRoot{};
    if (!valid()) return kZeroRoot;
    std::call_once(frozen_->once,
                   [this, parallel] { frozen_->root = frozen_->world->state_root(parallel); });
    return frozen_->root;
  }

  /// A fresh mutable world replica of the frozen state — how a validator
  /// (or a re-org recovery path) gets a private copy to execute against.
  /// Concurrent materialize() calls on handles sharing one frozen world
  /// are safe: forking only reads the immutable shared pages (and bumps
  /// their refcounts), it never mutates them. Throws std::logic_error on
  /// an empty handle (see world()).
  [[nodiscard]] std::unique_ptr<World> materialize() const {
    require_valid("materialize()");
    return frozen_->world->fork();
  }

 private:
  void require_valid(const char* op) const {
    if (frozen_ == nullptr) {
      throw std::logic_error(std::string("WorldSnapshot::") + op +
                             " on an invalid handle (default-constructed or moved-from); "
                             "check valid() first");
    }
  }

  struct Frozen {
    explicit Frozen(std::unique_ptr<World> w) : world(std::move(w)) {}
    std::unique_ptr<const World> world;
    mutable std::once_flag once;   ///< Guards the lazy root computation.
    mutable util::Hash256 root{};  ///< Valid once `once` has run.
  };

  std::shared_ptr<const Frozen> frozen_;
};

}  // namespace concord::vm
