#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sched/fork_join.hpp"
#include "sched/work_stealing_deque.hpp"

namespace concord::sched {
namespace {

// ------------------------------------------------- WorkStealingDeque ---

TEST(Deque, LifoForOwner) {
  WorkStealingDeque dq;
  dq.push(1);
  dq.push(2);
  dq.push(3);
  EXPECT_EQ(dq.pop(), 3u);
  EXPECT_EQ(dq.pop(), 2u);
  EXPECT_EQ(dq.pop(), 1u);
  EXPECT_EQ(dq.pop(), std::nullopt);
}

TEST(Deque, FifoForThief) {
  WorkStealingDeque dq;
  dq.push(1);
  dq.push(2);
  dq.push(3);
  EXPECT_EQ(dq.steal(), 1u);
  EXPECT_EQ(dq.steal(), 2u);
  EXPECT_EQ(dq.pop(), 3u);
  EXPECT_EQ(dq.steal(), std::nullopt);
}

TEST(Deque, GrowthPreservesContents) {
  WorkStealingDeque dq(4);
  for (std::uint32_t i = 0; i < 1000; ++i) dq.push(i);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(dq.steal(), i);
}

TEST(Deque, OwnerAndThievesNoDuplicatesNoLosses) {
  constexpr std::uint32_t kItems = 100'000;
  constexpr int kThieves = 3;
  WorkStealingDeque dq;
  std::vector<std::atomic<int>> seen(kItems);

  std::atomic<bool> done{false};
  std::vector<std::jthread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (auto v = dq.steal()) seen[*v].fetch_add(1);
      }
      while (auto v = dq.steal()) seen[*v].fetch_add(1);
    });
  }

  for (std::uint32_t i = 0; i < kItems; ++i) {
    dq.push(i);
    if (i % 3 == 0) {
      if (auto v = dq.pop()) seen[*v].fetch_add(1);
    }
  }
  while (auto v = dq.pop()) seen[*v].fetch_add(1);
  done.store(true, std::memory_order_release);
  thieves.clear();  // Join; thieves drain the rest.

  for (std::uint32_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

// --------------------------------------------------------- ForkJoin ----

/// Successor lists of the chain 0 → 1 → … → n-1.
std::vector<std::vector<std::uint32_t>> chain_of(std::size_t n) {
  std::vector<std::vector<std::uint32_t>> succs(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) succs[i] = {i + 1};
  return succs;
}

/// Successor lists of the diamond 0 → {1..8} → 9.
std::vector<std::vector<std::uint32_t>> diamond() {
  std::vector<std::vector<std::uint32_t>> succs(10);
  for (std::uint32_t i = 1; i < 9; ++i) {
    succs[0].push_back(i);
    succs[i] = {9};
  }
  return succs;
}

TEST(ForkJoin, ExecutesEveryTaskOnce) {
  // An edgeless DAG, once through run_dag and once as a batch.
  ForkJoinPool pool(3);
  constexpr std::size_t n = 500;
  const std::vector<std::vector<std::uint32_t>> succs(n);
  std::vector<std::atomic<int>> runs(n);
  pool.run_dag(succs, [&](std::uint32_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1);
  pool.run_batch(n, [&](std::uint32_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 2);
}

TEST(ForkJoin, RespectsChainOrder) {
  ForkJoinPool pool(3);
  constexpr std::size_t n = 100;
  std::vector<std::uint32_t> order;
  std::mutex mu;
  pool.run_dag(chain_of(n), [&](std::uint32_t i) {
    std::scoped_lock lk(mu);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
}

TEST(ForkJoin, RespectsDiamondDependencies) {
  ForkJoinPool pool(4);
  std::atomic<int> started_mid{0};
  std::atomic<bool> root_done{false};
  std::atomic<bool> sink_saw_all{false};
  pool.run_dag(diamond(), [&](std::uint32_t i) {
    if (i == 0) {
      root_done.store(true);
    } else if (i == 9) {
      sink_saw_all.store(started_mid.load() == 8);
    } else {
      EXPECT_TRUE(root_done.load());
      started_mid.fetch_add(1);
    }
  });
  EXPECT_TRUE(sink_saw_all.load());
}

TEST(ForkJoin, ParallelismActuallyHappens) {
  // Rendezvous: tasks 0 and 1 each check in, then wait (bounded spin) for
  // the other. Two workers must hold them at once for both to see the
  // pair; no sleep length decides the outcome.
  ForkJoinPool pool(3);
  const std::vector<std::vector<std::uint32_t>> succs(2);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  pool.run_dag(succs, [&](std::uint32_t) {
    const int now = running.fetch_add(1) + 1;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    for (int spin = 0; spin < 10'000'000 && peak.load() < 2; ++spin) std::this_thread::yield();
    running.fetch_sub(1);
  });
  EXPECT_GE(peak.load(), 2);
}

TEST(ForkJoin, ReusableAcrossRuns) {
  ForkJoinPool pool(2);
  for (int round = 0; round < 20; ++round) {
    constexpr std::size_t n = 50;
    std::vector<std::vector<std::uint32_t>> succs(n);
    for (std::uint32_t i = 1; i < n; ++i) succs[i / 2].push_back(i);
    std::atomic<int> count{0};
    pool.run_dag(succs, [&](std::uint32_t) { count.fetch_add(1); });
    pool.run_batch(n, [&](std::uint32_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), static_cast<int>(2 * n));
  }
}

TEST(ForkJoin, EmptyDagReturnsImmediately) {
  ForkJoinPool pool(2);
  pool.run_dag({}, [](std::uint32_t) { FAIL(); });
  pool.run_batch(0, [](std::uint32_t) { FAIL(); });
  SUCCEED();
}

TEST(ForkJoin, RootlessGraphThrows) {
  ForkJoinPool pool(2);
  const std::vector<std::vector<std::uint32_t>> succs = {{1}, {0}};  // 2-cycle.
  EXPECT_THROW(pool.run_dag(succs, [](std::uint32_t) {}), std::invalid_argument);
}

TEST(ForkJoin, ShutdownStress) {
  // Guards the destructor ordering fix: workers must be joined in the
  // destructor body before mu_/epoch_cv_/parked_cv_ are destroyed.
  // Construct, (sometimes) run a small DAG, and destroy in a tight loop so
  // the TSan lane catches any worker still touching a sync primitive while
  // the pool dies. Odd iterations destroy immediately after construction —
  // the tightest window, with workers still starting up.
  constexpr int kIterations = 120;
  constexpr std::size_t n = 8;
  const auto succs = chain_of(n);
  for (int iter = 0; iter < kIterations; ++iter) {
    ForkJoinPool pool(4);
    if (iter % 2 == 0) {
      std::atomic<int> count{0};
      pool.run_dag(succs, [&](std::uint32_t) { count.fetch_add(1); });
      EXPECT_EQ(count.load(), static_cast<int>(n));
    }
  }
}

TEST(ForkJoin, SingleWorkerStillCompletesDag) {
  ForkJoinPool pool(1);
  constexpr std::size_t n = 64;
  std::vector<std::vector<std::uint32_t>> succs(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) succs[i].push_back(i + 1);
  for (std::uint32_t i = 0; i + 2 < n; ++i) succs[i].push_back(i + 2);
  std::atomic<int> count{0};
  pool.run_dag(succs, [&](std::uint32_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), static_cast<int>(n));
}

TEST(ForkJoin, BatchWorkersStartTasksInAscendingOrder) {
  // The miner's birth stamps follow task start order; a worker must never
  // start a lower index after a higher one.
  ForkJoinPool pool(4);
  constexpr std::size_t n = 2'000;
  std::mutex mu;
  std::unordered_map<std::thread::id, std::uint32_t> last;
  bool ascending = true;
  pool.run_batch(n, [&](std::uint32_t i) {
    std::scoped_lock lk(mu);
    const auto [it, fresh] = last.try_emplace(std::this_thread::get_id(), i);
    if (!fresh) {
      ascending = ascending && it->second < i;
      it->second = i;
    }
  });
  EXPECT_TRUE(ascending);
}

// ----------------------------------------------------- Task errors ----

struct TaskError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs the DAG `succs` with task `thrower` throwing, checks the
/// exception reaches the caller only after every other task ran exactly
/// once, then checks the same pool runs the DAG again cleanly.
void expect_error_drains(ForkJoinPool& pool, const std::vector<std::vector<std::uint32_t>>& succs,
                         std::uint32_t thrower) {
  const std::size_t n = succs.size();
  std::vector<std::atomic<int>> runs(n);
  EXPECT_THROW(pool.run_dag(succs,
                            [&](std::uint32_t i) {
                              runs[i].fetch_add(1);
                              if (i == thrower) throw TaskError("task failed");
                            }),
               TaskError);
  // run_dag returned, so the DAG drained: successors of the thrower ran.
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << "task " << i;

  std::atomic<int> count{0};
  pool.run_dag(succs, [&](std::uint32_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), static_cast<int>(n));
}

TEST(ForkJoinErrors, ChainRethrowsAfterDrain) {
  ForkJoinPool pool(3);
  expect_error_drains(pool, chain_of(50), 10);
}

TEST(ForkJoinErrors, DiamondRethrowsAfterDrain) {
  ForkJoinPool pool(4);
  // The diamond with the root throwing: every successor still runs.
  expect_error_drains(pool, diamond(), 0);
  expect_error_drains(pool, diamond(), 4);
}

TEST(ForkJoinErrors, BatchRethrowsAfterDrain) {
  ForkJoinPool pool(3);
  constexpr std::size_t n = 200;
  std::vector<std::atomic<int>> runs(n);
  EXPECT_THROW(pool.run_batch(n,
                              [&](std::uint32_t i) {
                                runs[i].fetch_add(1);
                                if (i % 50 == 7) throw TaskError("task failed");
                              }),
               TaskError);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << "task " << i;

  std::atomic<int> count{0};
  pool.run_batch(n, [&](std::uint32_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), static_cast<int>(n));
}

}  // namespace
}  // namespace concord::sched
