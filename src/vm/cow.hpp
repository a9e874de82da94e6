#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/sha256.hpp"
#include "vm/arena.hpp"
#include "vm/codec.hpp"
#include "vm/state_hasher.hpp"

namespace concord::vm {

/// Copy-on-write backing stores for the boosted collections.
///
/// Every collection keeps its committed state behind one of these value
/// types. Copying one is the *fork* operation: it shares the underlying
/// pages through shared_ptr handles in O(1), and the first mutation after
/// a fork detaches only what it touches (ensure-unique on write). That is
/// what makes `World::fork()` an O(contracts) operation and a block-
/// boundary `WorldSnapshot` O(dirty set since the last boundary) instead
/// of O(state) — the frozen side of a fork keeps reading the shared pages
/// while the mutable side peels off private copies entry by entry.
///
/// Memory layer: every allocation these types make — page payloads and
/// their control blocks, entry buffers, directories — is routed through
/// an optional World-scoped PageArena (see arena.hpp). The arena handle
/// travels with the value on copy/fork, so an entire World lineage
/// (snapshots, ring entries, validator replicas) recycles pages from one
/// pool; a null handle (the default) reproduces the plain-heap baseline
/// byte for byte. set_arena() only steers *future* allocations — already
/// shared pages keep their original backing, which is what lets a lineage
/// adopt an arena mid-life without touching shared state.
///
/// Concurrency contract (matches the collections' existing one): all
/// access to a *given* CowPages/CowChunks/CowBox instance must be
/// externally serialized (the collections hold their short physical mutex
/// across every call). Distinct instances that *share pages* may be used
/// from different threads freely: shared pages are never mutated in
/// place — a writer first proves sole ownership (sole_owner below) or
/// copies. The uniqueness check is sound because gaining a new reference
/// to a page requires copying a handle that owns it, which the owning
/// instance's external lock serializes; a concurrent *release* elsewhere
/// can only make a page spuriously look shared, forcing a harmless copy.
/// The arena slots freed by that releasing thread re-enter circulation
/// through PageArena's internal lock, so recycled memory is equally
/// ordered. The one exception to "shared objects are immutable" is the
/// digest cache inside CowPages' pages and directories, which is written
/// through atomics (cow_detail::DigestCell, CowPages::Page).

namespace cow_detail {

/// splitmix64 finalizer (local copy — cow.hpp stays dependency-light).
/// Page indices must stay well-distributed even when the caller's hash is
/// only mixed in the high bits.
[[nodiscard]] constexpr std::uint64_t remix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// True when `handle` is the only owner, with the memory ordering that
/// makes in-place mutation after the check sound. use_count() loads
/// relaxed, so observing 1 alone does not synchronize with the thread
/// that just *released* the other reference — its reads of the page
/// could still race with our upcoming writes (the reason
/// shared_ptr::unique() was deprecated). The acquire fence pairs with
/// the release semantics of that final refcount decrement, ordering the
/// releaser's accesses before ours. Arena-backed pages use the standard
/// shared_ptr control block (allocate_shared), so this protocol is
/// identical with the arena on or off.
template <typename T>
[[nodiscard]] inline bool sole_owner(const std::shared_ptr<T>& handle) noexcept {
  if (handle.use_count() != 1) return false;
  std::atomic_thread_fence(std::memory_order_acquire);
  return true;
}

/// A digest cached inside a shared directory, one per internal node of the
/// map digest's tree. Forks sharing the directory share the cell, so
/// several threads may compute the same digest at once. publish() lets
/// exactly one of them store it: an atomic claim, then the bytes, then
/// the ready state. get() reads the bytes only after it sees that state.
/// The copy constructor and clear() touch a cell no other thread can
/// reach (an object under construction; an object its caller solely
/// owns, after the ensure-unique check), so their stores are relaxed; the
/// ownership handoff orders them.
class DigestCell {
 public:
  DigestCell() = default;

  /// Carries over a published digest (a directory copy keeps its
  /// source's cache); an unpublished one starts empty.
  DigestCell(const DigestCell& other) noexcept {
    if (const util::Hash256* digest = other.get()) {
      digest_ = *digest;
      state_.store(kReady, std::memory_order_relaxed);
    }
  }
  DigestCell& operator=(const DigestCell&) = delete;

  [[nodiscard]] const util::Hash256* get() const noexcept {
    return state_.load() == kReady ? &digest_ : nullptr;
  }

  /// First claimant stores; a thread that loses the claim keeps its copy.
  void publish(const util::Hash256& digest) const noexcept {
    std::uint8_t expected = kEmpty;
    if (!state_.compare_exchange_strong(expected, kWriting)) return;
    digest_ = digest;
    state_.store(kReady);
  }

  void clear() noexcept { state_.store(kEmpty, std::memory_order_relaxed); }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kWriting = 1;
  static constexpr std::uint8_t kReady = 2;
  mutable std::atomic<std::uint8_t> state_{kEmpty};
  mutable util::Hash256 digest_{};
};

/// Fan-out of the map digest's internal nodes. Sixteen keeps the cached
/// upper levels (which every directory copy carries) near 1/15 of the
/// page count, while a dirty page's path to the root stays
/// ~log16(pages) nodes long.
inline constexpr std::size_t kDigestFanout = 16;

/// Domain separation between leaf and internal preimages.
inline constexpr std::uint8_t kLeafTag = 0x00;
inline constexpr std::uint8_t kNodeTag = 0x01;

/// Level sizes of a digest tree over `leaves` leaves: level 0 holds the
/// leaves and each level above holds ceil(below / kDigestFanout) nodes,
/// up to a single root. `offset` places levels ≥ 1 in a directory's flat
/// node array, lowest level first.
struct DigestShape {
  /// 2^62 leaves need 16 internal levels, plus the leaf level.
  static constexpr std::size_t kMaxLevels = 17;

  explicit DigestShape(std::size_t leaves) noexcept {
    count[0] = leaves;
    levels = 1;
    while (count[levels - 1] > 1) {
      offset[levels] = internal;
      count[levels] = (count[levels - 1] + kDigestFanout - 1) / kDigestFanout;
      internal += count[levels];
      ++levels;
    }
  }

  std::size_t levels = 0;    ///< Including the leaf level; the root is levels - 1.
  std::size_t internal = 0;  ///< Internal nodes over all levels.
  std::array<std::size_t, kMaxLevels> count{};
  std::array<std::size_t, kMaxLevels> offset{};
};

}  // namespace cow_detail

/// A paged COW hash table: the map form all three boosted maps build on.
///
/// Two-level structure, copy-on-write at both levels:
///   directory (shared_ptr) ──▶ [ page*, page*, … ]  each page (shared_ptr)
///                                                    ──▶ small vector of
///                                                        (key, value)
/// Copying a CowPages copies one shared_ptr. The first write after a fork
/// copies the directory (a vector of page handles, ~size/kTargetFill
/// entries) and the one touched page (≤ ~2·kTargetFill entries); every
/// further write to an already-private page is as cheap as before the
/// fork. Pages are small unsorted vectors searched linearly — at the
/// target fill that beats a per-page hash table on both copy cost and
/// memory, and iteration order never matters because digest() sorts each
/// leaf by encoded key.
///
/// digest() is the map's contribution to the state root: a Merkle tree
/// whose leaves are key-hash buckets. Each page caches its leaf digest
/// and the directory caches the internal nodes (DigestCells), and every
/// write clears the written page's digest and its path to the root.
/// A block's root therefore rehashes only the pages it dirtied, and a
/// digest computed through one fork serves every fork sharing the page or
/// directory. The bucket count is a function of the entry count alone
/// (pages_for(size())), so the digest never depends on history; when the
/// directory is larger than that (reserve(), erasures, growth undone by an
/// abort) it is hashed from the pages on a slow path that leaves the
/// cache alone.
template <typename K, typename V, typename Hash>
class CowPages final : public HashableMap {
 public:
  CowPages() : CowPages(ArenaHandle{}) {}

  /// All allocations (pages, buffers, directories) go through `arena`;
  /// null = global heap.
  explicit CowPages(ArenaHandle arena) : arena_(std::move(arena)) {
    dir_ = make_dir(1);
    dir_->pages.push_back(make_page());
  }

  /// Copying IS forking: O(1), shares the directory and every page (and
  /// the arena they live in).
  CowPages(const CowPages&) = default;
  CowPages& operator=(const CowPages&) = default;
  CowPages(CowPages&&) noexcept = default;
  CowPages& operator=(CowPages&&) noexcept = default;

  /// Named fork for call-site readability.
  [[nodiscard]] CowPages fork() const { return *this; }

  /// Routes future allocations through `arena` (existing pages keep the
  /// backing they were allocated from). Call while externally
  /// serialized, like every other mutation — and only before the first
  /// arena-backed page exists (World binds at construction): the handle
  /// stored here is what keeps the arena alive for this collection's
  /// pages, so swapping it later could orphan them.
  void set_arena(ArenaHandle arena) { arena_ = std::move(arena); }

  [[nodiscard]] const ArenaHandle& arena() const noexcept { return arena_; }

  [[nodiscard]] std::size_t size() const noexcept override { return size_; }

  /// Number of pages in the directory (diagnostic; forks copy this many
  /// handles on their first post-fork write).
  [[nodiscard]] std::size_t page_count() const noexcept { return dir_->pages.size(); }

  /// Pre-sizes the directory for `expected_entries` total entries, so a
  /// large genesis seed (the million-account workloads) runs without the
  /// doubling walk — each doubling is O(size) and reallocates every page,
  /// which is exactly the repeated-rehash traffic reserve() removes.
  /// Never shrinks. Safe at any fill (entries are rehashed once); like
  /// every mutation it detaches from any fork sharing the directory.
  void reserve(std::size_t expected_entries) {
    const std::size_t target = pages_for(expected_entries);
    if (target > dir_->pages.size()) rehash_to(target);
  }

  [[nodiscard]] const V* find(const K& key) const {
    for (const Entry& entry : dir_->pages[page_index(key)]->entries) {
      if (entry.first == key) return &entry.second;
    }
    return nullptr;
  }

  [[nodiscard]] bool contains(const K& key) const { return find(key) != nullptr; }

  void insert_or_assign(const K& key, V value) {
    Page& page = mutable_page_for(key);
    if (V* bound = find_in(page, key)) {
      *bound = std::move(value);
    } else {
      (void)emplace_new(page, key, std::move(value));
    }
  }

  /// Returns whether a binding existed. An absent key detaches nothing.
  bool erase(const K& key) {
    if (!contains(key)) return false;
    Entries& entries = mutable_page_for(key).entries;
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&key](const Entry& entry) { return entry.first == key; });
    // Swap-remove; order within a page is free (digest() sorts).
    if (it != entries.end() - 1) *it = std::move(entries.back());
    entries.pop_back();
    --size_;
    return true;
  }

  /// The read-modify-write primitive behind BoostedMap::update: detaches
  /// the page, binds `fallback` when the key is absent, and returns a
  /// mutable reference valid until the next call on this instance.
  /// `inserted` (optional) reports whether the fallback was used.
  V& get_or_emplace(const K& key, V fallback, bool* inserted = nullptr) {
    Page& page = mutable_page_for(key);
    V* bound = find_in(page, key);
    if (inserted != nullptr) *inserted = bound == nullptr;
    return bound != nullptr ? *bound : emplace_new(page, key, std::move(fallback));
  }

  /// Visits every entry as fn(const K&, const V&); unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& page : dir_->pages) {
      for (const Entry& entry : page->entries) fn(entry.first, entry.second);
    }
  }

  /// Binds key_at(i) to `value` for every i in [0, count): the result of
  /// `count` insert_or_assign calls (same entries, same directory size,
  /// same digest) in one pass. Precondition: the keys are absent and
  /// distinct. Counts the keys per page, counting-sorts their indices by
  /// page, then fills each touched page once with an exact reserve and
  /// clears its digest path once. No (key, value) list is built:
  /// key_at(i) is called twice per index instead. Like every mutation it
  /// detaches from any fork sharing the directory or a page.
  template <typename KeyAt>
  void insert_absent(std::size_t count, KeyAt&& key_at, const V& value) {
    if (count > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("CowPages::insert_absent: more than 2^32 - 1 keys");
    }
    if (count == 0) return;
    reserve(size_ + count);
    if (!cow_detail::sole_owner(dir_)) dir_ = copy_dir(*dir_);
    const std::size_t pages = dir_->pages.size();

    // begin[p + 1] counts page p's keys, then (prefix sums) begin[p] is
    // where page p's run of indices starts in `order`.
    std::vector<std::uint32_t> begin(pages + 1, 0);
    for (std::size_t i = 0; i < count; ++i) ++begin[slot_of(key_at(i), pages) + 1];
    for (std::size_t p = 0; p < pages; ++p) begin[p + 1] += begin[p];
    std::vector<std::uint32_t> order(count);
    {
      std::vector<std::uint32_t> cursor(begin.begin(), begin.end() - 1);
      for (std::size_t i = 0; i < count; ++i) {
        order[cursor[slot_of(key_at(i), pages)]++] = static_cast<std::uint32_t>(i);
      }
    }

    for (std::size_t p = 0; p < pages; ++p) {
      if (begin[p] == begin[p + 1]) continue;
      Page& page = detach_page(p);
      page.entries.reserve(page.entries.size() + (begin[p + 1] - begin[p]));
      for (std::uint32_t at = begin[p]; at < begin[p + 1]; ++at) {
        K key = key_at(order[at]);
        assert(find_in(page, key) == nullptr && "insert_absent: key already bound");
        page.entries.emplace_back(std::move(key), value);
      }
    }
    size_ += count;
  }

  /// Merkle digest of the entry set (see the class comment). O(pages
  /// written since the cached digests were computed) when the directory
  /// has its canonical size, O(size) otherwise. With `parallel` (and a
  /// canonical directory), the subtrees no digest covers yet are filled on
  /// that pool first (fill_cold_subtrees); the walk below then reads
  /// their cached digests.
  [[nodiscard]] util::Hash256 digest(const ParallelFor* parallel = nullptr) const override {
    const std::size_t buckets = pages_for(size_);
    const cow_detail::DigestShape shape(buckets);
    const bool canonical = buckets == dir_->pages.size();
    if (canonical && parallel != nullptr && parallel->workers() > 1) {
      fill_cold_subtrees(shape, *parallel);
    }
    LeafScratch scratch;
    return subtree_digest(shape, shape.levels - 1, 0, canonical, scratch);
  }

  void for_each_encoded(const EntryVisitor& visit) const override {
    for_each([&visit](const K& key, const V& value) {
      visit(encoded_bytes(key), encoded_bytes(value));
    });
  }

 private:
  using Entry = std::pair<K, V>;
  using Entries = std::vector<Entry, ArenaAllocator<Entry>>;

  /// One bucket of entries plus its cached leaf digest. The digest hangs
  /// off a pointer so the page object stays in the arena's 64-byte class:
  /// every directory copy and release touches each page's control block,
  /// and doubling their footprint at a million accounts doubles that cost.
  /// The pointer follows DigestCell's protocol: the first publisher's
  /// compare-exchange installs its digest, a loser frees its own, and
  /// only a sole owner clears it.
  struct Page {
    explicit Page(const ArenaHandle& arena) : entries(ArenaAllocator<Entry>(arena)) {}
    /// Copies the entries only: the copy is about to be written.
    Page(const Page& src, const ArenaHandle& arena)
        : entries(src.entries, ArenaAllocator<Entry>(arena)) {}
    Page(const Page&) = delete;
    Page& operator=(const Page&) = delete;
    ~Page() { clear_digest(); }

    [[nodiscard]] const util::Hash256* cached_digest() const noexcept { return digest.load(); }

    void publish_digest(const util::Hash256& value) const {
      ArenaAllocator<util::Hash256> alloc(entries.get_allocator());
      util::Hash256* fresh = std::construct_at(alloc.allocate(1), value);
      util::Hash256* expected = nullptr;
      if (!digest.compare_exchange_strong(expected, fresh)) alloc.deallocate(fresh, 1);
    }

    void clear_digest() noexcept {
      if (util::Hash256* old = digest.exchange(nullptr, std::memory_order_relaxed)) {
        ArenaAllocator<util::Hash256>(entries.get_allocator()).deallocate(old, 1);
      }
    }

    Entries entries;
    mutable std::atomic<util::Hash256*> digest{nullptr};  ///< Leaf digest, canonical layout only.
  };

  using PageRef = std::shared_ptr<Page>;

  struct Dir {
    Dir(std::size_t page_count, const ArenaHandle& arena)
        : pages(ArenaAllocator<PageRef>(arena)),
          nodes(cow_detail::DigestShape(page_count).internal,
                ArenaAllocator<cow_detail::DigestCell>(arena)) {
      pages.reserve(page_count);
    }
    /// Shares every page and keeps every published node digest.
    Dir(const Dir& src, const ArenaHandle& arena)
        : pages(src.pages, ArenaAllocator<PageRef>(arena)),
          nodes(src.nodes, ArenaAllocator<cow_detail::DigestCell>(arena)) {}

    /// Clears the cached digests above page `index` (the page's own cell
    /// is the caller's).
    void invalidate_path(std::size_t index) noexcept {
      std::size_t offset = 0;
      for (std::size_t count = pages.size(); count > 1;) {
        index /= cow_detail::kDigestFanout;
        count = (count + cow_detail::kDigestFanout - 1) / cow_detail::kDigestFanout;
        nodes[offset + index].clear();
        offset += count;
      }
    }

    std::vector<PageRef, ArenaAllocator<PageRef>> pages;
    /// Internal nodes of the digest tree over `pages`, laid out as
    /// DigestShape(pages.size()) describes.
    std::vector<cow_detail::DigestCell, ArenaAllocator<cow_detail::DigestCell>> nodes;
  };

  /// Average entries per page before the directory doubles. Small enough
  /// that a post-fork detach copies a handful of entries; large enough
  /// that the directory (copied wholesale on the first post-fork write)
  /// stays a fraction of the entry count.
  static constexpr std::size_t kTargetFill = 8;

  /// The canonical page count for `entries` entries: the smallest power of
  /// two that holds them at kTargetFill. Growth keeps the directory at
  /// least this large.
  [[nodiscard]] static std::size_t pages_for(std::size_t entries) noexcept {
    std::size_t pages = 1;
    while (pages * kTargetFill < entries && pages < (std::size_t{1} << 62)) pages <<= 1;
    return pages;
  }

  [[nodiscard]] PageRef make_page() const { return arena_make_shared<Page>(arena_, arena_); }

  [[nodiscard]] PageRef copy_page(const Page& src) const {
    return arena_make_shared<Page>(arena_, src, arena_);
  }

  [[nodiscard]] std::shared_ptr<Dir> make_dir(std::size_t page_count) const {
    return arena_make_shared<Dir>(arena_, page_count, arena_);
  }

  [[nodiscard]] std::shared_ptr<Dir> copy_dir(const Dir& src) const {
    return arena_make_shared<Dir>(arena_, src, arena_);
  }

  [[nodiscard]] static std::size_t slot_of(const K& key, std::size_t pages) noexcept {
    return static_cast<std::size_t>(cow_detail::remix64(Hash{}(key))) & (pages - 1);
  }

  [[nodiscard]] std::size_t page_index(const K& key) const noexcept {
    return slot_of(key, dir_->pages.size());
  }

  /// Ensure-unique on write, both levels: private directory, then a
  /// private copy of the page the key lands in.
  Page& mutable_page_for(const K& key) {
    if (!cow_detail::sole_owner(dir_)) dir_ = copy_dir(*dir_);
    return detach_page(page_index(key));
  }

  /// Page `index` of a directory this instance solely owns, made private
  /// (copied unless this directory is its sole owner). Either way the
  /// page's digest and its path are cleared, since the caller is about
  /// to write.
  Page& detach_page(std::size_t index) {
    PageRef& slot = dir_->pages[index];
    if (cow_detail::sole_owner(slot)) {
      slot->clear_digest();
    } else {
      slot = copy_page(*slot);
    }
    dir_->invalidate_path(index);
    return *slot;
  }

  [[nodiscard]] static V* find_in(Page& page, const K& key) noexcept {
    for (Entry& entry : page.entries) {
      if (entry.first == key) return &entry.second;
    }
    return nullptr;
  }

  /// Binds an absent key into `page` (its detached page), doubling the
  /// directory first when the average fill has reached the target — the
  /// same threshold for every insert path, so growth alone keeps the
  /// directory at pages_for(size()). The doubling is O(size), amortized
  /// O(1) per insert, and only runs on a growing lineage, never as part
  /// of fork or snapshot.
  V& emplace_new(Page& page, const K& key, V value) {
    Page* target = &page;
    if (size_ >= dir_->pages.size() * kTargetFill) {
      rehash_to(dir_->pages.size() * 2);
      target = &mutable_page_for(key);  // The old page reference is stale.
    }
    ++size_;
    return target->entries.emplace_back(key, std::move(value)).second;
  }

  /// Rebuilds the directory at `new_pages` slots (a power of two),
  /// redistributing every entry. Shared by the doubling path and
  /// reserve().
  void rehash_to(std::size_t new_pages) {
    auto grown = make_dir(new_pages);
    for (std::size_t i = 0; i < new_pages; ++i) grown->pages.push_back(make_page());
    for (const auto& page : dir_->pages) {
      for (const Entry& entry : page->entries) {
        grown->pages[slot_of(entry.first, new_pages)]->entries.push_back(entry);
      }
    }
    dir_ = std::move(grown);
  }

  /// Buffers one digest() call reuses for every leaf it hashes.
  struct LeafScratch {
    struct Item {
      std::size_t key_begin, key_end, value_end;  ///< Offsets into `encoded`.
    };
    util::ByteWriter encoded;   ///< The bucket's keys and values, back to back.
    std::vector<Item> items;
    util::ByteWriter preimage;  ///< The leaf's hash input.
  };

  /// A parallel fill splits the tree at its highest level with at least
  /// this many nodes, so each task is a subtree and the serial walk left
  /// over touches fewer than this many nodes per level above it.
  static constexpr std::size_t kParallelLevelNodes = 64;
  /// Fewer uncached subtrees than this are not worth waking the pool for.
  static constexpr std::size_t kParallelMinSubtrees = 16;

  [[nodiscard]] bool is_cached(const cow_detail::DigestShape& shape, std::size_t level,
                               std::size_t index) const noexcept {
    return level == 0 ? dir_->pages[index]->cached_digest() != nullptr
                      : dir_->nodes[shape.offset[level] + index].get() != nullptr;
  }

  /// Computes, on `parallel`'s workers, every uncached node of the split
  /// level (see kParallelLevelNodes) and publishes it with its subtree.
  /// Each worker keeps one LeafScratch and claims subtrees from a shared
  /// cursor. Caller: digest(), canonical directory. A fork sharing the
  /// directory may fill the same cells at the same time; the
  /// claim-then-publish protocol keeps one digest, and both are equal.
  void fill_cold_subtrees(const cow_detail::DigestShape& shape,
                          const ParallelFor& parallel) const {
    std::size_t level = shape.levels - 1;
    while (level > 0 && shape.count[level] < kParallelLevelNodes) --level;
    if (shape.count[level] < kParallelLevelNodes) return;
    std::vector<std::size_t> cold;
    for (std::size_t i = 0; i < shape.count[level]; ++i) {
      if (!is_cached(shape, level, i)) cold.push_back(i);
    }
    if (cold.size() < kParallelMinSubtrees) return;
    std::atomic<std::size_t> next{0};
    parallel(std::min<std::size_t>(parallel.workers(), cold.size()), [&](std::size_t) {
      LeafScratch scratch;
      for (std::size_t c = next.fetch_add(1); c < cold.size(); c = next.fetch_add(1)) {
        (void)subtree_digest(shape, level, cold[c], true, scratch);
      }
    });
  }

  /// Digest of node `index` at `level` of the tree `shape` describes.
  /// With `cached`, the directory is canonical and its cached digests are
  /// read and filled; otherwise every node is computed from the pages.
  [[nodiscard]] util::Hash256 subtree_digest(const cow_detail::DigestShape& shape,
                                             std::size_t level, std::size_t index, bool cached,
                                             LeafScratch& scratch) const {
    if (level == 0) {
      const Page* page = cached ? dir_->pages[index].get() : nullptr;
      if (page != nullptr) {
        if (const util::Hash256* hit = page->cached_digest()) return *hit;
      }
      const util::Hash256 digest = bucket_digest(index, shape.count[0], scratch);
      if (page != nullptr) page->publish_digest(digest);
      return digest;
    }
    const cow_detail::DigestCell* cell =
        cached ? &dir_->nodes[shape.offset[level] + index] : nullptr;
    if (cell != nullptr) {
      if (const util::Hash256* hit = cell->get()) return *hit;
    }
    util::Sha256 sha;
    sha.update(std::span(&cow_detail::kNodeTag, 1));
    const std::size_t first = index * cow_detail::kDigestFanout;
    const std::size_t last = std::min(first + cow_detail::kDigestFanout, shape.count[level - 1]);
    for (std::size_t child = first; child < last; ++child) {
      sha.update(subtree_digest(shape, level - 1, child, cached, scratch).bytes);
    }
    const util::Hash256 digest = sha.finish();
    if (cell != nullptr) cell->publish(digest);
    return digest;
  }

  /// Leaf digest of key-hash bucket `bucket` out of `buckets`: SHA-256
  /// over the leaf tag, the entry count, and each entry's encoded key and
  /// value, sorted by key. The bucket is the pages ≡ bucket (mod buckets),
  /// one page when the directory is canonical.
  [[nodiscard]] util::Hash256 bucket_digest(std::size_t bucket, std::size_t buckets,
                                            LeafScratch& scratch) const {
    util::ByteWriter& encoded = scratch.encoded;
    auto& items = scratch.items;
    encoded.clear();
    items.clear();
    for (std::size_t p = bucket; p < dir_->pages.size(); p += buckets) {
      for (const Entry& entry : dir_->pages[p]->entries) {
        const std::size_t key_begin = encoded.size();
        encode_value(encoded, entry.first);
        const std::size_t key_end = encoded.size();
        encode_value(encoded, entry.second);
        items.push_back({key_begin, key_end, encoded.size()});
      }
    }
    const std::uint8_t* buf = encoded.bytes().data();
    std::sort(items.begin(), items.end(), [buf](const auto& a, const auto& b) {
      return std::lexicographical_compare(buf + a.key_begin, buf + a.key_end,
                                          buf + b.key_begin, buf + b.key_end);
    });
    util::ByteWriter& leaf = scratch.preimage;
    leaf.clear();
    leaf.put_u8(cow_detail::kLeafTag);
    leaf.put_varint(items.size());
    for (const auto& item : items) {
      leaf.put_bytes(std::span(buf + item.key_begin, item.key_end - item.key_begin));
      leaf.put_bytes(std::span(buf + item.key_end, item.value_end - item.key_end));
    }
    return util::sha256(std::span<const std::uint8_t>(leaf.bytes()));
  }

  /// Owns the arena on behalf of every page below. Must stay declared
  /// before dir_: ArenaAllocator is non-owning, so the pages have to be
  /// destroyed (and their memory returned) before the handle drops.
  ArenaHandle arena_;
  std::shared_ptr<Dir> dir_;
  std::size_t size_ = 0;
};

/// A chunked COW vector: BoostedArray's backing store. Same two-level
/// scheme as CowPages with fixed-capacity chunks, so set/push/pop after a
/// fork detach one chunk (≤ kChunkCapacity elements), not the array.
template <typename T>
class CowChunks {
 public:
  static constexpr std::size_t kChunkCapacity = 64;

  CowChunks() : CowChunks(ArenaHandle{}) {}

  explicit CowChunks(ArenaHandle arena) : arena_(std::move(arena)) { dir_ = make_dir(); }

  CowChunks(const CowChunks&) = default;
  CowChunks& operator=(const CowChunks&) = default;
  CowChunks(CowChunks&&) noexcept = default;
  CowChunks& operator=(CowChunks&&) noexcept = default;

  [[nodiscard]] CowChunks fork() const { return *this; }

  /// See CowPages::set_arena.
  void set_arena(ArenaHandle arena) { arena_ = std::move(arena); }

  [[nodiscard]] const ArenaHandle& arena() const noexcept { return arena_; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Bounds-checked, like std::vector::at (the callers' safety nets —
  /// BoostedArray's revert-on-out-of-range contract — lean on it).
  [[nodiscard]] const T& at(std::size_t index) const {
    if (index >= size_) throw std::out_of_range("CowChunks::at");
    return (*(*dir_)[index / kChunkCapacity])[index % kChunkCapacity];
  }

  [[nodiscard]] const T& back() const { return at(size_ - 1); }

  void set(std::size_t index, T value) {
    if (index >= size_) throw std::out_of_range("CowChunks::set");
    mutable_chunk(index / kChunkCapacity)[index % kChunkCapacity] = std::move(value);
  }

  /// In-place read-modify-write of one element (commutative adds).
  template <typename Fn>
  void mutate(std::size_t index, Fn&& fn) {
    if (index >= size_) throw std::out_of_range("CowChunks::mutate");
    fn(mutable_chunk(index / kChunkCapacity)[index % kChunkCapacity]);
  }

  void push_back(T value) {
    ensure_unique_dir();
    if (size_ % kChunkCapacity == 0) {
      auto chunk = make_chunk();
      chunk->reserve(kChunkCapacity);
      dir_->push_back(std::move(chunk));
    }
    mutable_chunk(size_ / kChunkCapacity).push_back(std::move(value));
    ++size_;
  }

  /// Precondition: !empty().
  void pop_back() {
    ensure_unique_dir();
    const std::size_t last = size_ - 1;
    mutable_chunk(last / kChunkCapacity).pop_back();
    if (last % kChunkCapacity == 0) dir_->pop_back();  // Chunk emptied out.
    --size_;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& chunk : *dir_) {
      for (const T& value : *chunk) fn(value);
    }
  }

 private:
  using Chunk = std::vector<T, ArenaAllocator<T>>;
  using Dir = std::vector<std::shared_ptr<Chunk>, ArenaAllocator<std::shared_ptr<Chunk>>>;

  [[nodiscard]] std::shared_ptr<Chunk> make_chunk() const {
    return arena_make_shared<Chunk>(arena_, ArenaAllocator<T>(arena_));
  }

  [[nodiscard]] std::shared_ptr<Dir> make_dir() const {
    return arena_make_shared<Dir>(arena_, ArenaAllocator<std::shared_ptr<Chunk>>(arena_));
  }

  void ensure_unique_dir() {
    if (!cow_detail::sole_owner(dir_)) {
      dir_ = arena_make_shared<Dir>(arena_, *dir_, ArenaAllocator<std::shared_ptr<Chunk>>(arena_));
    }
  }

  Chunk& mutable_chunk(std::size_t chunk_index) {
    ensure_unique_dir();
    auto& slot = (*dir_)[chunk_index];
    if (!cow_detail::sole_owner(slot)) {
      auto copy = make_chunk();
      copy->reserve(kChunkCapacity);
      copy->assign(slot->begin(), slot->end());
      slot = std::move(copy);
    }
    return *slot;
  }

  ArenaHandle arena_;  ///< Before dir_ — pages must die first (see CowPages).
  std::shared_ptr<Dir> dir_;
  std::size_t size_ = 0;
};

/// A single COW value: BoostedScalar's backing store. One level — the
/// value itself is the page.
template <typename T>
class CowBox {
 public:
  explicit CowBox(T initial) : value_(std::make_shared<T>(std::move(initial))) {}

  CowBox(const CowBox&) = default;
  CowBox& operator=(const CowBox&) = default;
  CowBox(CowBox&&) noexcept = default;
  CowBox& operator=(CowBox&&) noexcept = default;

  [[nodiscard]] CowBox fork() const { return *this; }

  /// See CowPages::set_arena: future detaches allocate from `arena`.
  void set_arena(ArenaHandle arena) { arena_ = std::move(arena); }

  [[nodiscard]] const T& get() const noexcept { return *value_; }

  /// Ensure-unique, then expose the private value. Valid until the next
  /// fork of this instance.
  [[nodiscard]] T& mutable_ref() {
    if (!cow_detail::sole_owner(value_)) value_ = arena_make_shared<T>(arena_, *value_);
    return *value_;
  }

  void set(T value) { mutable_ref() = std::move(value); }

 private:
  ArenaHandle arena_;  ///< Before value_ — the box must die first (see CowPages).
  std::shared_ptr<T> value_;
};

}  // namespace concord::vm
