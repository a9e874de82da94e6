#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

namespace concord::vm {

/// Counters describing a PageArena's traffic (all monotone except the
/// live gauges). Surfaced through MinerStats/NodeStats and the bench
/// --json schema so the allocator's behaviour under a workload is a
/// first-class measurement, not a profiler session.
struct ArenaStats {
  std::uint64_t chunks = 0;         ///< Slab chunks carved from the OS heap.
  std::uint64_t chunk_bytes = 0;    ///< Total bytes reserved in those chunks.
  std::uint64_t live_blocks = 0;    ///< Blocks handed out and not yet freed.
  std::uint64_t live_bytes = 0;     ///< Size-class bytes in live blocks.
  std::uint64_t live_high_water = 0;  ///< Max live_blocks ever observed.
  std::uint64_t fresh_allocs = 0;   ///< Served by carving fresh slab space.
  std::uint64_t recycle_hits = 0;   ///< Served from a size-class free list.
  std::uint64_t oversize_allocs = 0;  ///< Past the largest class; plain heap.
  /// Cross-stripe contention: how often a dry stripe probed a sibling's
  /// free list (a try_lock each) and how often a probe adopted one. High
  /// attempts with low hits means stripes are fighting over the same
  /// recycled pages.
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_hits = 0;
};

/// A size-class slab allocator for the COW state layer's page traffic.
///
/// The COW structures allocate three kinds of object, all small and all
/// churning at block cadence: shared_ptr control blocks + their payloads
/// (pages, chunks, boxed scalars), the pages' entry buffers, and the
/// per-collection directories. Under a sustained stream every block
/// detaches a fresh copy of each dirty page and, one boundary later,
/// frees the page the retired snapshot was holding — the next block's
/// detach then needs a block of exactly the size just freed. The global
/// heap serves that pattern through malloc's general machinery; the
/// arena serves it from a per-size-class free list, so steady-state
/// mining recycles its own pages instead of hammering the allocator
/// (the ROADMAP's million-account unlock).
///
/// Design (the givy superpage/size-class idiom, scaled down):
///  - memory is carved from cache-line-aligned kChunkBytes slabs; slabs
///    hand out per-stripe bump runs so the central lock is rare;
///  - requests are rounded up to a power-of-two size class in
///    [kMinBlockBytes, kMaxBlockBytes]; each class stripe keeps an
///    intrusive free list threaded through the freed blocks themselves;
///  - allocate = pop the stripe's free list, else bump-carve from its
///    open run, else bulk-steal a sibling stripe's free list, else carve
///    a fresh run (exhaustion never fails until the OS does);
///  - larger requests (big directories, 1M-account CDF tables) fall
///    through to the global heap, counted but not pooled — they are rare
///    and reuse-friendly there;
///  - slabs are mapped from the OS and only returned to it (unmapped)
///    when the arena dies.
///
/// Thread safety: fully thread-safe. Each size class is split into
/// kStripeCount stripes; threads are round-robined onto stripes, so the
/// hot path takes an uncontended mutex on a cache line the thread
/// already owns, and all traffic counters are plain fields under that
/// same lock — no shared atomics ping-ponging between miner threads.
/// Pages are freed by whichever thread drops the last reference (a
/// validator or a snapshot-holding ring entry, not necessarily the miner
/// that allocated them); frees land in the freeing thread's stripe, and
/// an allocating stripe whose own free list and bump run are empty
/// bulk-steals a sibling's list (try_lock only, so no lock-order cycle)
/// before carving fresh slab space. The refcount protocol above the
/// arena is untouched: ownership is still plain shared_ptr machinery,
/// and the `sole_owner` acquire-fence check in cow.hpp works exactly as
/// before because the arena only ever sees memory whose last reference
/// is already gone.
///
/// Lifetime: the arena is owned by ArenaHandle (shared_ptr) copies held
/// at the *collection* level — every World and every COW collection
/// (CowPages/CowChunks/CowBox) keeps one, declared before its page
/// pointers so the pages die first. ArenaAllocator itself carries only a
/// non-owning PageArena*: embedding the handle in every allocate_shared
/// control block would put an atomic refcount bump/drop on one shared
/// cache line into every page detach and release, which measurably
/// throttles million-account mining. See ArenaAllocator's comment for
/// the exact contract.
class PageArena {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;   ///< 1 MiB slabs.
  static constexpr std::size_t kMinBlockBytes = 64;                  ///< Smallest class.
  static constexpr std::size_t kMaxBlockBytes = std::size_t{1} << 16;  ///< 64 KiB.
  static constexpr unsigned kStripeCount = 8;  ///< Per-class contention shards.

  PageArena() = default;
  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;
  ~PageArena();

  /// Rounds `bytes` up to its size class (or returns `bytes` unchanged
  /// when it falls through to the heap).
  [[nodiscard]] static std::size_t class_bytes(std::size_t bytes) noexcept;

  /// True when a request of `bytes` is served from the slabs (as opposed
  /// to the oversize heap fallback).
  [[nodiscard]] static bool pooled(std::size_t bytes) noexcept {
    return bytes <= kMaxBlockBytes;
  }

  /// Never returns nullptr (throws std::bad_alloc downstream). Pooled
  /// blocks are kMinBlockBytes-aligned — cache-line alignment, so no two
  /// blocks share a line and adjacent pages owned by different threads
  /// cannot false-share. (Oversize requests get the global heap's usual
  /// max_align_t alignment.)
  [[nodiscard]] void* allocate(std::size_t bytes);

  /// `bytes` must be the size passed to the matching allocate().
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// Pins the calling thread onto stripe `stripe % kStripeCount` (for
  /// every arena — the override is thread-local, not per-instance),
  /// replacing the default lifetime round-robin. A test seam: it lets a
  /// test put two threads on one stripe or on chosen siblings, so the
  /// recycle and steal paths run deterministically. Persists until the
  /// thread rebinds; unbound threads keep the round-robin mapping.
  static void bind_thread_stripe(unsigned stripe) noexcept;

  /// A consistent-enough snapshot for diagnostics (counters are atomics;
  /// cross-field skew is harmless).
  [[nodiscard]] ArenaStats stats() const noexcept;

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  /// One contention shard of a size class: its own free list, its own
  /// bump run carved from the shared slabs, and plain traffic counters —
  /// everything a hot-path allocate/deallocate touches lives under this
  /// one mutex, on this one (alignas-isolated) cache-line group. The
  /// free-list head is atomic only so sibling stripes can peek at it
  /// lock-free when deciding whether a steal is worth a try_lock; every
  /// mutation still happens under mu.
  struct alignas(64) Stripe {
    mutable std::mutex mu;  ///< mutable: stats() locks stripes of a const arena.
    std::atomic<FreeBlock*> free_list{nullptr};
    std::byte* bump = nullptr;   ///< Next unserved byte of the open run.
    std::byte* bump_end = nullptr;
    std::uint64_t fresh = 0;
    std::uint64_t recycles = 0;
    std::uint64_t steal_attempts = 0;  ///< Sibling free lists this stripe probed.
    std::uint64_t steal_hits = 0;      ///< Probes that adopted a sibling's list.
    std::int64_t live_blocks = 0;  ///< Cross-stripe frees can dip negative.
    std::int64_t live_bytes = 0;
    std::int64_t live_high = 0;    ///< Per-stripe peak; stats() sums them.
  };

  /// One power-of-two size class: kStripeCount stripes, each recycling
  /// blocks at exactly the class size with no splitting/coalescing.
  struct SizeClass {
    Stripe stripes[kStripeCount];
  };

  [[nodiscard]] static unsigned class_index(std::size_t bytes) noexcept;

  /// Carves a bump run of [block, preferred] bytes (a multiple of block)
  /// for one stripe from the shared open slab, starting a new slab when
  /// the open one cannot fit even a single block. Central lock taken once
  /// per run — a small fraction of allocations.
  [[nodiscard]] std::pair<std::byte*, std::size_t> carve_run(std::size_t block,
                                                             std::size_t preferred);

  /// All slabs ever carved, so the destructor can return them, plus the
  /// open slab's carve frontier. Guarded by chunks_mu_.
  mutable std::mutex chunks_mu_;
  std::byte* chunk_head_ = nullptr;  ///< Intrusive list through slab headers.
  std::byte* chunk_bump_ = nullptr;  ///< Next run starts here…
  std::byte* chunk_end_ = nullptr;   ///< …and may extend to here.
  std::uint64_t chunks_ = 0;         ///< Guarded by chunks_mu_.
  std::uint64_t chunk_bytes_ = 0;    ///< Guarded by chunks_mu_.

  static constexpr unsigned kClassCount = 11;  // 64B .. 64KiB, powers of two.
  SizeClass classes_[kClassCount];

  std::atomic<std::uint64_t> oversize_allocs_{0};
};

/// The World-scoped handle the COW layer carries around. Null = arena
/// disabled, every allocation goes to the global heap — the baseline
/// side of bench_state_scale's arena ablation.
using ArenaHandle = std::shared_ptr<PageArena>;

/// A fresh arena for one World lineage (forks share it through the
/// handle; see World::fork).
[[nodiscard]] inline ArenaHandle make_arena() { return std::make_shared<PageArena>(); }

/// Standard-allocator adaptor over a PageArena. A null arena falls back
/// to the global heap, so one container type serves both the
/// arena-backed and the baseline configuration — which is what keeps
/// state roots trivially byte-identical across the ablation.
///
/// The pointer is NON-OWNING, deliberately: a copy of this allocator
/// sits inside every arena-backed container and allocate_shared control
/// block, and at million-account scale those are copied and destroyed
/// ~10^5 times per block across the miner threads. An owning
/// ArenaHandle here would turn each of those into an atomic RMW on the
/// arena's one refcount cache line — a measured double-digit-percent
/// hit on sustained tx/s. Instead the lifetime contract is: whoever
/// roots arena-backed memory (World, and each COW collection via its
/// `arena_` member, declared before the page pointers it covers) holds
/// an ArenaHandle that outlives every block allocated through it. New
/// holders of arena-backed shared_ptrs outside those types must keep
/// their own handle alive alongside.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(const ArenaHandle& arena) noexcept : arena_(arena.get()) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = checked_bytes(n);
    if (arena_ != nullptr) return static_cast<T*>(arena_->allocate(bytes));
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      arena_->deallocate(p, bytes);
    } else {
      ::operator delete(p, bytes);
    }
  }

  /// The arena this allocator routes to (non-owning; null = heap).
  [[nodiscard]] PageArena* arena() const noexcept { return arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  [[nodiscard]] static std::size_t checked_bytes(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    return n * sizeof(T);
  }

  PageArena* arena_ = nullptr;
};

/// make_shared that routes both the control block and the payload through
/// `arena` (global heap when the handle is null). The construction
/// arguments are forwarded unchanged, so allocator-aware payloads (the
/// COW page vectors) can take their own element allocator on top. The
/// returned shared_ptr does NOT keep the arena alive — the caller's
/// lineage must (see ArenaAllocator).
template <typename T, typename... Args>
[[nodiscard]] std::shared_ptr<T> arena_make_shared(const ArenaHandle& arena, Args&&... args) {
  if (!arena) return std::make_shared<T>(std::forward<Args>(args)...);
  return std::allocate_shared<T>(ArenaAllocator<T>(arena), std::forward<Args>(args)...);
}

}  // namespace concord::vm
