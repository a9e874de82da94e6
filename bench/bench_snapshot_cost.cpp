// Snapshot + materialize cost vs state size: the price of the node's
// per-block accepted-boundary snapshot, before and after the COW state
// layer.
//
// Two strategies over identical worlds (a KvStore with N keys plus N/10
// native balances):
//
//  - deep: the PR-4 deep-clone baseline, reproduced through the COW API
//    by forking and then rewriting every key (detaching every page — a
//    full structural copy) and eagerly hashing the replica, which is
//    exactly the work `WorldSnapshot` used to do per block: O(state)
//    copy + O(state) root hash.
//  - cow: what the node does today — `WorldSnapshot(world)` (an
//    O(contracts) page-sharing fork; the root is lazy and the node seeds
//    it from the accepted block, so no hash runs), then a small dirty
//    set of writes on the live world (the detach-on-write cost the fork
//    defers to the next block's execution), then `materialize()` (another
//    fork — the validator/recovery side).
//
// The honest COW boundary cost is snapshot + dirty-detach; the
// acceptance bar for the redesign is deep / (snapshot + dirty) ≥ 10 at
// 100k keys.
//
// Usage: bench_snapshot_cost [--quick] [--samples=N] [--json=FILE] ...

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "contracts/kv_store.hpp"
#include "harness.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vm/world.hpp"

namespace {

using namespace concord;
using Clock = std::chrono::steady_clock;

const vm::Address kStoreAddr = vm::Address::from_u64(90, 0xCC);
constexpr std::size_t kDirtyWrites = 16;  ///< Small per-block dirty set.

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::unique_ptr<vm::World> make_world(std::size_t keys) {
  auto world = std::make_unique<vm::World>();
  auto store = std::make_unique<contracts::KvStore>(kStoreAddr, contracts::KvStore::Backend::kEager);
  for (std::size_t k = 0; k < keys; ++k) {
    store->raw_put(k, static_cast<std::int64_t>(k * 7 + 1));
  }
  world->contracts().add(std::move(store));
  for (std::size_t a = 0; a < keys / 10; ++a) {
    world->balances().raw_set(vm::Address::from_u64(a, 0x06), static_cast<vm::Amount>(a + 1));
  }
  return world;
}

/// The deep-clone baseline: fork, then force a full structural copy by
/// rewriting every entry (same values, so the state is unchanged), then
/// hash eagerly — the O(state)+O(state) work the pre-COW WorldSnapshot
/// constructor performed per block boundary.
std::unique_ptr<vm::World> deep_clone(const vm::World& world, std::size_t keys) {
  auto replica = world.fork();
  auto& store = replica->contracts().as<contracts::KvStore>(kStoreAddr);
  for (std::size_t k = 0; k < keys; ++k) {
    store.raw_put(k, static_cast<std::int64_t>(k * 7 + 1));
  }
  for (std::size_t a = 0; a < keys / 10; ++a) {
    replica->balances().raw_set(vm::Address::from_u64(a, 0x06), static_cast<vm::Amount>(a + 1));
  }
  (void)replica->state_root();
  return replica;
}

struct SizeResult {
  util::RunningStats deep;
  util::RunningStats snapshot;
  util::RunningStats dirty;
  util::RunningStats materialize;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::RunConfig config = bench::RunConfig::from_args(argc, argv);
  // The 100k point is the acceptance criterion, so even --quick keeps the
  // full axis and only trims samples.
  const std::vector<std::size_t> sizes = {1'000, 10'000, 100'000};

  std::printf("Snapshot cost: deep-clone baseline vs COW fork (dirty set = %zu writes)\n\n",
              kDirtyWrites);
  std::printf("# %8s %12s %12s %12s %14s %10s\n", "keys", "deep_ms", "snapshot_ms", "dirty_ms",
              "materialize_ms", "speedup");

  for (const std::size_t keys : sizes) {
    const auto world = make_world(keys);
    SizeResult result;
    util::Rng rng(keys);

    for (int r = 0; r < config.warmups + config.samples; ++r) {
      const bool measured = r >= config.warmups;
      {
        const auto t0 = Clock::now();
        auto deep = deep_clone(*world, keys);
        if (measured) result.deep.add(ms_since(t0));
      }
      {
        const auto t0 = Clock::now();
        const vm::WorldSnapshot boundary(*world);
        const double snapshot_ms = ms_since(t0);

        // The deferred COW cost: the next block's writes detach the pages
        // they touch while the snapshot keeps the frozen versions alive.
        auto& store = world->contracts().as<contracts::KvStore>(kStoreAddr);
        const auto t1 = Clock::now();
        for (std::size_t w = 0; w < kDirtyWrites; ++w) {
          store.raw_put(rng.below(keys), static_cast<std::int64_t>(rng.below(1'000'000)));
        }
        const double dirty_ms = ms_since(t1);

        const auto t2 = Clock::now();
        auto replica = boundary.materialize();
        const double materialize_ms = ms_since(t2);
        if (measured) {
          result.snapshot.add(snapshot_ms);
          result.dirty.add(dirty_ms);
          result.materialize.add(materialize_ms);
        }
      }
    }

    const double boundary_cost = result.snapshot.mean() + result.dirty.mean();
    const double speedup = boundary_cost > 0 ? result.deep.mean() / boundary_cost : 0.0;
    std::printf("%10zu %12.4f %12.4f %12.4f %14.4f %9.1fx\n", keys, result.deep.mean(),
                result.snapshot.mean(), result.dirty.mean(), result.materialize.mean(), speedup);
    std::fflush(stdout);

    std::ostringstream object;
    object << "{\"benchmark\": \"SnapshotCost/KvStore\""
           << ", \"keys\": " << keys
           << ", \"dirty_writes\": " << kDirtyWrites
           << ", \"deep_clone_ms\": " << result.deep.mean()
           << ", \"deep_clone_stddev_ms\": " << result.deep.stddev()
           << ", \"cow_snapshot_ms\": " << result.snapshot.mean()
           << ", \"cow_dirty_detach_ms\": " << result.dirty.mean()
           << ", \"cow_materialize_ms\": " << result.materialize.mean()
           << ", \"boundary_speedup\": " << speedup << "}";
    bench::write_json_object(object.str());
  }

  std::printf(
      "\nspeedup = deep_ms / (snapshot_ms + dirty_ms): the per-boundary cost ratio.\n"
      "deep reproduces the pre-COW WorldSnapshot (full copy + eager root hash);\n"
      "the node's real snapshot path is the cow columns (lazy root, seeded).\n");
  return 0;
}
