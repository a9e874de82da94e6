#include "vm/arena.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <new>

#include <sys/mman.h>

namespace concord::vm {

namespace {

/// Slab layout: a raw kChunkBytes block whose first kMinBlockBytes-sized
/// slot stores the next-slab pointer; the rest is carve space. Keeping
/// the link inside the slab avoids a per-slab node allocation (which
/// would itself be heap traffic the arena exists to remove). The header
/// is a full cache line and the slab itself is allocated line-aligned,
/// so every block offset — all class sizes are multiples of
/// kMinBlockBytes — lands on a line boundary: no block straddles two
/// lines and no two blocks share one.
constexpr std::size_t kChunkHeaderBytes = PageArena::kMinBlockBytes;
static_assert(kChunkHeaderBytes >= sizeof(std::byte*));

/// Slabs are mapped straight from the OS (page-aligned, so line-aligned)
/// and unmapped when the arena dies. Taken from malloc instead, a 1 MiB
/// slab lands in the allocating thread's heap once malloc's dynamic mmap
/// threshold has grown past it, and a heap keeps freed interior memory
/// resident: every short-lived lineage (a node per benchmark episode)
/// would leave its slabs behind in whichever thread heaps carved them.
std::byte* map_slab() {
  void* slab = ::mmap(nullptr, PageArena::kChunkBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  // MAP_FAILED is (void*)-1 by definition, an integer-to-pointer cast.
  if (slab == MAP_FAILED) throw std::bad_alloc();  // NOLINT(performance-no-int-to-ptr)
  return static_cast<std::byte*>(slab);
}

void unmap_slab(std::byte* slab) noexcept { ::munmap(slab, PageArena::kChunkBytes); }

/// Bytes a stripe asks for per bump run: enough blocks that the central
/// chunk lock is a rounding error, small enough that eleven classes times
/// eight stripes of half-open runs stay a few MiB.
constexpr std::size_t run_preferred_bytes(std::size_t block) noexcept {
  return std::max<std::size_t>(block * 8, 16 * 1024);
}

/// Sentinel for "no explicit stripe bound"; see bind_thread_stripe.
constexpr unsigned kNoBoundStripe = ~0u;
thread_local unsigned bound_stripe = kNoBoundStripe;

/// Round-robins threads onto stripes. A thread keeps its stripe for life
/// (and across arenas): the point is that concurrent miner threads land
/// on different stripes, not that the mapping is balanced per arena. An
/// explicit bind_thread_stripe() takes precedence over the round-robin.
unsigned stripe_index() noexcept {
  if (bound_stripe != kNoBoundStripe) return bound_stripe;
  static std::atomic<unsigned> next{0};
  static thread_local const unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx % PageArena::kStripeCount;
}

}  // namespace

void PageArena::bind_thread_stripe(unsigned stripe) noexcept {
  bound_stripe = stripe % kStripeCount;
}

PageArena::~PageArena() {
  std::byte* chunk = chunk_head_;
  while (chunk != nullptr) {
    std::byte* next = nullptr;
    std::memcpy(&next, chunk, sizeof(next));
    unmap_slab(chunk);
    chunk = next;
  }
}

std::size_t PageArena::class_bytes(std::size_t bytes) noexcept {
  if (!pooled(bytes)) return bytes;
  return std::bit_ceil(bytes < kMinBlockBytes ? kMinBlockBytes : bytes);
}

unsigned PageArena::class_index(std::size_t bytes) noexcept {
  // class 0 = 64B, 1 = 128B, ... kClassCount-1 = 64KiB.
  const auto width = static_cast<unsigned>(std::bit_width(class_bytes(bytes) - 1));
  constexpr auto kMinWidth = static_cast<unsigned>(std::bit_width(kMinBlockBytes - 1));
  return width - kMinWidth;
}

std::pair<std::byte*, std::size_t> PageArena::carve_run(std::size_t block,
                                                        std::size_t preferred) {
  std::scoped_lock lk(chunks_mu_);
  if (static_cast<std::size_t>(chunk_end_ - chunk_bump_) < block) {
    // Open slab exhausted (or first use): start a fresh one. The slab's
    // leftover tail, if any, is abandoned — bounded waste of < one block
    // per slab, never leaked (the slab list owns it).
    std::byte* chunk = map_slab();
    std::memcpy(chunk, &chunk_head_, sizeof(chunk_head_));
    chunk_head_ = chunk;
    ++chunks_;
    chunk_bytes_ += kChunkBytes;
    chunk_bump_ = chunk + kChunkHeaderBytes;
    chunk_end_ = chunk + kChunkBytes;
  }
  const auto avail = static_cast<std::size_t>(chunk_end_ - chunk_bump_);
  const std::size_t len = std::min(preferred, avail / block * block);
  std::byte* run = chunk_bump_;
  chunk_bump_ += len;
  return {run, len};
}

void* PageArena::allocate(std::size_t bytes) {
  if (!pooled(bytes)) {
    oversize_allocs_.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes);
  }
  const std::size_t block = class_bytes(bytes);
  SizeClass& cls = classes_[class_index(bytes)];
  Stripe& mine = cls.stripes[stripe_index()];

  std::scoped_lock lk(mine.mu);
  void* result = nullptr;
  if (FreeBlock* head = mine.free_list.load(std::memory_order_relaxed)) {
    mine.free_list.store(head->next, std::memory_order_relaxed);
    result = head;
    ++mine.recycles;
  } else if (static_cast<std::size_t>(mine.bump_end - mine.bump) >= block) {
    result = mine.bump;
    mine.bump += block;
    ++mine.fresh;
  } else {
    // Own list and run are dry. Blocks freed by other threads pile up in
    // *their* stripes; adopt a sibling's whole list before carving fresh
    // memory. try_lock only — two stripes stealing from each other must
    // skip, not deadlock — and the unlocked peek is what the atomic
    // free-list head is for.
    for (unsigned probe = 1; probe < kStripeCount && result == nullptr; ++probe) {
      Stripe& victim = cls.stripes[(stripe_index() + probe) % kStripeCount];
      if (victim.free_list.load(std::memory_order_relaxed) == nullptr) continue;
      ++mine.steal_attempts;
      if (!victim.mu.try_lock()) continue;
      FreeBlock* stolen = victim.free_list.exchange(nullptr, std::memory_order_relaxed);
      victim.mu.unlock();
      if (stolen != nullptr) {
        result = stolen;
        mine.free_list.store(stolen->next, std::memory_order_relaxed);
        ++mine.recycles;
        ++mine.steal_hits;
      }
    }
    if (result == nullptr) {
      const auto [run, len] = carve_run(block, run_preferred_bytes(block));
      mine.bump = run + block;
      mine.bump_end = run + len;
      result = run;
      ++mine.fresh;
    }
  }

  mine.live_blocks += 1;
  mine.live_bytes += static_cast<std::int64_t>(block);
  mine.live_high = std::max(mine.live_high, mine.live_blocks);
  return result;
}

void PageArena::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (!pooled(bytes)) {
    ::operator delete(p, bytes);
    return;
  }
  const std::size_t block = class_bytes(bytes);
  Stripe& mine = classes_[class_index(bytes)].stripes[stripe_index()];
  auto* freed = static_cast<FreeBlock*>(p);

  std::scoped_lock lk(mine.mu);
  freed->next = mine.free_list.load(std::memory_order_relaxed);
  mine.free_list.store(freed, std::memory_order_relaxed);
  mine.live_blocks -= 1;
  mine.live_bytes -= static_cast<std::int64_t>(block);
}

ArenaStats PageArena::stats() const noexcept {
  ArenaStats s;
  {
    std::scoped_lock lk(chunks_mu_);
    s.chunks = chunks_;
    s.chunk_bytes = chunk_bytes_;
  }
  // Per-stripe gauges can individually dip negative (blocks allocated in
  // one stripe, freed into another); the sums are exact. live_high_water
  // is the sum of per-stripe peaks — exact single-threaded, an upper
  // bound under concurrency. Diagnostic, not load-bearing.
  std::int64_t live_blocks = 0;
  std::int64_t live_bytes = 0;
  std::int64_t live_high = 0;
  for (const SizeClass& cls : classes_) {
    for (const Stripe& stripe : cls.stripes) {
      std::scoped_lock lk(stripe.mu);
      s.fresh_allocs += stripe.fresh;
      s.recycle_hits += stripe.recycles;
      s.steal_attempts += stripe.steal_attempts;
      s.steal_hits += stripe.steal_hits;
      live_blocks += stripe.live_blocks;
      live_bytes += stripe.live_bytes;
      live_high += stripe.live_high;
    }
  }
  s.live_blocks = static_cast<std::uint64_t>(std::max<std::int64_t>(live_blocks, 0));
  s.live_bytes = static_cast<std::uint64_t>(std::max<std::int64_t>(live_bytes, 0));
  s.live_high_water = static_cast<std::uint64_t>(std::max<std::int64_t>(live_high, 0));
  s.oversize_allocs = oversize_allocs_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace concord::vm
