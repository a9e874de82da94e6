// PageArena unit tests: size-class rounding, alignment, free-list
// recycling, slab exhaustion, oversize fallthrough, the allocator
// adaptor's null-handle baseline, and — under the TSan `concurrency`
// lane — three threads forking, materializing and detaching Worlds
// that share one arena (the cross-thread free path the per-class
// mutexes exist for).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "vm/arena.hpp"
#include "vm/world.hpp"

namespace concord::vm {
namespace {

TEST(ArenaSizeClasses, RoundsUpToPowersOfTwoWithinThePooledRange) {
  EXPECT_EQ(PageArena::class_bytes(1), PageArena::kMinBlockBytes);
  EXPECT_EQ(PageArena::class_bytes(63), 64u);
  EXPECT_EQ(PageArena::class_bytes(64), 64u);
  EXPECT_EQ(PageArena::class_bytes(65), 128u);
  EXPECT_EQ(PageArena::class_bytes(129), 256u);
  EXPECT_EQ(PageArena::class_bytes(4096), 4096u);
  EXPECT_EQ(PageArena::class_bytes(4097), 8192u);
  EXPECT_EQ(PageArena::class_bytes(PageArena::kMaxBlockBytes), PageArena::kMaxBlockBytes);
}

TEST(ArenaSizeClasses, OversizeRequestsPassThroughUnrounded) {
  const std::size_t over = PageArena::kMaxBlockBytes + 1;
  EXPECT_FALSE(PageArena::pooled(over));
  EXPECT_EQ(PageArena::class_bytes(over), over);
  EXPECT_TRUE(PageArena::pooled(PageArena::kMaxBlockBytes));
  EXPECT_TRUE(PageArena::pooled(1));
}

TEST(ArenaAllocate, EveryClassIsCacheLineAlignedAndWritable) {
  PageArena arena;
  for (std::size_t bytes = 1; bytes <= PageArena::kMaxBlockBytes; bytes *= 2) {
    void* p = arena.allocate(bytes);
    ASSERT_NE(p, nullptr);
    // Line alignment (not just max_align_t): blocks from adjacent carves
    // must never share a cache line across threads.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % PageArena::kMinBlockBytes, 0u)
        << "class " << bytes;
    std::memset(p, 0xAB, bytes);  // ASan/valgrind would catch a short block.
    arena.deallocate(p, bytes);
  }
}

TEST(ArenaAllocate, FreeListRecyclesTheExactBlockJustFreed) {
  PageArena arena;
  void* first = arena.allocate(200);  // Class 256.
  arena.deallocate(first, 200);
  void* second = arena.allocate(256);  // Same class, different request size.
  EXPECT_EQ(second, first);

  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.fresh_allocs, 1u);
  EXPECT_EQ(stats.recycle_hits, 1u);
  EXPECT_EQ(stats.live_blocks, 1u);
  EXPECT_EQ(stats.live_bytes, 256u);
  arena.deallocate(second, 256);
  EXPECT_EQ(arena.stats().live_blocks, 0u);
}

TEST(ArenaAllocate, ExhaustedSlabStartsANewChunkInsteadOfFailing) {
  PageArena arena;
  // 64 KiB blocks: a 1 MiB slab (minus its header) holds at most 15, so
  // 40 blocks must span at least three chunks.
  constexpr std::size_t kBlock = PageArena::kMaxBlockBytes;
  std::vector<void*> blocks;
  std::set<void*> distinct;
  for (int i = 0; i < 40; ++i) {
    void* p = arena.allocate(kBlock);
    ASSERT_NE(p, nullptr);
    std::memset(p, i, 64);  // Spot-write; full memset of 40x64KiB is slow under TSan.
    blocks.push_back(p);
    distinct.insert(p);
  }
  EXPECT_EQ(distinct.size(), blocks.size());

  const ArenaStats stats = arena.stats();
  EXPECT_GE(stats.chunks, 3u);
  EXPECT_EQ(stats.chunk_bytes, stats.chunks * PageArena::kChunkBytes);
  EXPECT_EQ(stats.live_blocks, 40u);
  EXPECT_EQ(stats.live_high_water, 40u);
  for (void* p : blocks) arena.deallocate(p, kBlock);
  EXPECT_EQ(arena.stats().live_blocks, 0u);
  EXPECT_EQ(arena.stats().live_high_water, 40u);  // High water survives frees.
}

TEST(ArenaAllocate, OversizeGoesToTheHeapAndIsCounted) {
  PageArena arena;
  const std::size_t bytes = PageArena::kMaxBlockBytes * 4;
  void* p = arena.allocate(bytes);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xCD, bytes);
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.oversize_allocs, 1u);
  EXPECT_EQ(stats.fresh_allocs, 0u);
  EXPECT_EQ(stats.chunks, 0u);  // No slab was started for it.
  arena.deallocate(p, bytes);
}

TEST(ArenaAllocator, NullHandleFallsBackToTheGlobalHeap) {
  std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>{}};
  v.assign(1000, 7);
  EXPECT_EQ(v[999], 7);
  EXPECT_EQ(ArenaAllocator<int>{}, ArenaAllocator<long>{});  // Both null.
}

TEST(ArenaAllocator, HandlesCompareByArenaIdentity) {
  ArenaHandle a = make_arena();
  ArenaHandle b = make_arena();
  EXPECT_EQ(ArenaAllocator<int>(a), ArenaAllocator<long>(a));
  EXPECT_FALSE(ArenaAllocator<int>(a) == ArenaAllocator<int>(b));
  EXPECT_FALSE(ArenaAllocator<int>(a) == ArenaAllocator<int>{});
}

TEST(ArenaMakeShared, SoleOwnerSemanticsAndNonOwningControlBlock) {
  ArenaHandle arena = make_arena();
  std::shared_ptr<int> sp = arena_make_shared<int>(arena, 42);
  // allocate_shared must preserve plain shared_ptr semantics — the COW
  // layer's sole_owner (use_count()==1) detach protocol rides on it.
  EXPECT_EQ(sp.use_count(), 1);
  EXPECT_EQ(*sp, 42);
  auto copy = sp;
  EXPECT_EQ(sp.use_count(), 2);
  copy.reset();
  EXPECT_EQ(sp.use_count(), 1);

  // The control block deliberately does NOT own the arena (that refcount
  // traffic is the thing the raw-pointer allocator removes); the only
  // owner here is our handle. Blocks must be released before it drops.
  std::weak_ptr<PageArena> watch = arena;
  sp.reset();
  arena.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(ArenaMakeShared, WorldLineageOwnsTheArenaItsPagesLiveIn) {
  // The lifetime contract behind the non-owning allocator: every object
  // rooting arena-backed pages (World, and each COW collection through
  // its arena_ member) holds an ArenaHandle, so pages can never outlive
  // the arena even when the creating handle is long gone.
  std::weak_ptr<PageArena> watch;
  {
    auto world = std::make_unique<World>(make_arena());
    watch = world->arena();
    for (std::uint64_t i = 0; i < 256; ++i) {
      world->balances().raw_set(Address::from_u64(i, 0x5A), 10);
    }
    WorldSnapshot snap(*world);
    world.reset();
    // The snapshot's frozen fork still owns the arena its pages live in.
    EXPECT_FALSE(watch.expired());
    EXPECT_EQ(snap.world().balances().raw_get(Address::from_u64(7, 0x5A)), 10);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(ArenaMakeShared, NullHandleUsesPlainMakeShared) {
  std::shared_ptr<int> sp = arena_make_shared<int>(ArenaHandle{}, 7);
  EXPECT_EQ(sp.use_count(), 1);
  EXPECT_EQ(*sp, 7);
}

/// The TSan-lane case: three threads hammer one arena through the full
/// World lifecycle — materialize a replica from a shared snapshot,
/// detach pages by writing, freeze their own snapshots, drop everything.
/// Pages freed by one thread are recycled by another; any missing
/// synchronization in the free lists or the sole_owner handoff shows up
/// under -fsanitize=thread.
TEST(ArenaConcurrency, ThreeThreadsForkMaterializeDetachOnOneArena) {
  World genesis;  // Default constructor: arena on.
  for (std::uint64_t i = 0; i < 512; ++i) {
    genesis.balances().raw_set(Address::from_u64(i, 0xAA), 1000);
  }
  const WorldSnapshot snap(genesis);
  const util::Hash256 genesis_root = snap.state_root();

  constexpr int kThreads = 3;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&snap, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::unique_ptr<World> replica = snap.materialize();
        // Touch a thread-distinct key range: detaches pages, allocates
        // from (and later frees back to) the shared arena.
        for (std::uint64_t i = 0; i < 64; ++i) {
          replica->balances().raw_set(
              Address::from_u64(1'000 + static_cast<std::uint64_t>(t) * 64 + i, 0xAA),
              static_cast<std::int64_t>(round + 1));
        }
        const WorldSnapshot boundary(*replica);
        std::unique_ptr<World> second = boundary.materialize();
        second->balances().raw_set(Address::from_u64(static_cast<std::uint64_t>(t), 0xBB),
                                   7);
        // replica, boundary and second all die here — frees race with
        // the other threads' allocations by design.
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // The genesis snapshot was never written through: its root must be
  // untouched by all that churn.
  EXPECT_EQ(snap.state_root(), genesis_root);
  EXPECT_GT(genesis.arena_stats().recycle_hits, 0u);
}

// ---------------------------------------- Stripe affinity + stealing ---

/// Runs `body` on a fresh thread pinned to `stripe` and joins — the
/// explicit bind is thread-local and sticky, so tests never bind the
/// gtest main thread.
template <typename Fn>
void on_bound_thread(unsigned stripe, Fn body) {
  std::thread th([stripe, body = std::move(body)] {
    PageArena::bind_thread_stripe(stripe);
    body();
  });
  th.join();
}

TEST(ArenaAffinity, BoundThreadsShareAStripeWithoutStealing) {
  PageArena arena;
  void* freed = nullptr;
  // Thread A, stripe 2: allocate a block and free it into stripe 2's list.
  on_bound_thread(2, [&] {
    freed = arena.allocate(128);
    arena.deallocate(freed, 128);
  });
  // Thread B, same stripe: the free block is on its OWN list — recycled
  // directly, no sibling probing.
  on_bound_thread(2, [&] {
    void* block = arena.allocate(128);
    EXPECT_EQ(block, freed);
    arena.deallocate(block, 128);
  });
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.recycle_hits, 1u);  // B recycled A's block (A's alloc was fresh).
  EXPECT_EQ(stats.steal_attempts, 0u);
  EXPECT_EQ(stats.steal_hits, 0u);
}

TEST(ArenaAffinity, CrossStripeFreeIsAdoptedByACountedSteal) {
  PageArena arena;
  // Stripe 0 ends up holding the only free block of the class…
  on_bound_thread(0, [&] {
    void* block = arena.allocate(128);
    arena.deallocate(block, 128);
  });
  // …and stripe 5's first allocation finds its own list and bump run
  // empty, probes the siblings, and adopts stripe 0's list — exactly one
  // counted steal instead of carving a fresh run.
  on_bound_thread(5, [&] {
    void* block = arena.allocate(128);
    arena.deallocate(block, 128);
  });
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.steal_attempts, 1u);
  EXPECT_EQ(stats.steal_hits, 1u);
  EXPECT_EQ(stats.recycle_hits, 1u);  // The stolen block satisfied the alloc.
}

TEST(ArenaAffinity, BindWrapsModuloStripeCount) {
  PageArena arena;
  void* freed = nullptr;
  on_bound_thread(3, [&] {
    freed = arena.allocate(64);
    arena.deallocate(freed, 64);
  });
  // kStripeCount + 3 wraps onto stripe 3: same list, direct recycle.
  on_bound_thread(PageArena::kStripeCount + 3, [&] {
    void* block = arena.allocate(64);
    EXPECT_EQ(block, freed);
    arena.deallocate(block, 64);
  });
  EXPECT_EQ(arena.stats().steal_attempts, 0u);
}

}  // namespace
}  // namespace concord::vm
