#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "sched/work_stealing_deque.hpp"

namespace concord::sched {

/// Work-stealing fork-join pool — the one thread pool under the miner
/// and the validator.
///
/// The validator's engine (paper §4 / Algorithm 2) is run_dag(). Algorithm
/// 2 builds, for each transaction, a fork-join task that "first joins with
/// all tasks according to its in-edges on the happens-before graph"
/// before executing. The standard work-stealing realization of
/// join-on-predecessors is dependency counting: each task carries the
/// number of unfinished predecessors; completing a task decrements its
/// successors and forks (pushes) every task that reaches zero onto the
/// worker's own deque, where idle workers steal from the top. No locks,
/// no conflict detection, no rollback — "the fork-join structure ensures
/// that conflicting actions never execute concurrently."
///
/// The miner's pool (the paper's Java ExecutorService, §6.1, which "runs
/// a collection of callable objects in parallel") is run_batch(): a DAG
/// with no edges, run through the same job lifecycle and worker loop.
///
/// Workers are persistent across jobs (the paper's pools are long-lived);
/// the calling thread blocks until the job drains, and a pool runs one
/// job at a time. A task that throws does not stop the job: its
/// successors are still released, every other task still runs once, and
/// the first exception is rethrown on the caller after the drain. The
/// pool stays usable afterwards.
class ForkJoinPool {
 public:
  /// Throws std::invalid_argument when `threads` is 0.
  explicit ForkJoinPool(unsigned threads);
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  /// Executes tasks 0..n-1, n = successors.size(). `successors[i]` lists
  /// the tasks that wait for task i (no duplicates); each task's
  /// in-degree is counted from these lists. `body(i)` runs exactly once
  /// per task. Throws std::invalid_argument for a non-empty graph with no
  /// roots.
  void run_dag(std::span<const std::vector<std::uint32_t>> successors,
               const std::function<void(std::uint32_t)>& body);

  /// Executes n independent tasks. Workers claim them from a shared
  /// cursor, so tasks start in ascending index order — the FIFO order of
  /// a submit-all-then-wait executor.
  void run_batch(std::size_t n, const std::function<void(std::uint32_t)>& body);

  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Number of successful steals over the pool's lifetime (cumulative
  /// across jobs; batches never steal).
  [[nodiscard]] std::uint64_t steal_count() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::uint32_t)>* body = nullptr;
    /// Successor lists of a DAG, n of them; null for a batch, whose tasks
    /// come from `next` instead of the deques.
    const std::vector<std::uint32_t>* successors = nullptr;
    std::vector<std::atomic<std::int32_t>> pending;  ///< Unfinished predecessor counts (DAG).
    std::atomic<std::size_t> next{0};                ///< Next unclaimed task (batch).
    std::atomic<std::size_t> remaining{0};           ///< Tasks not yet executed.
    std::mutex error_mu;
    std::exception_ptr error;  ///< First task exception, rethrown by run().
  };

  /// The job lifecycle: waits for every worker to park, seeds a DAG's
  /// roots, publishes `job`, blocks until it drains and every worker has
  /// parked again, then rethrows the first task exception.
  void run(Job& job);
  void worker_loop(unsigned self);
  /// Runs `task` (capturing its exception) and forks newly-ready
  /// successors onto deque `self`.
  void execute(Job& job, unsigned self, std::uint32_t task);
  /// Finds work for `self`: a batch's cursor, or a DAG's own deque first,
  /// then round-robin stealing.
  [[nodiscard]] std::optional<std::uint32_t> find_work(Job& job, unsigned self);

  std::vector<std::unique_ptr<WorkStealingDeque>> deques_;
  /// Ordering constraint: workers_ is joined explicitly in the destructor
  /// body (workers_.clear()) because the sync primitives below are
  /// declared after it — implicit member destruction would destroy them
  /// before the jthreads join, racing a worker's final notify/wait
  /// against pthread_cond_destroy.
  std::vector<std::jthread> workers_;

  std::mutex mu_;
  std::condition_variable epoch_cv_;   ///< Wakes workers for a new job.
  std::condition_variable done_cv_;    ///< Wakes the caller when drained.
  std::condition_variable parked_cv_;  ///< Signals all workers quiescent.
  std::uint64_t epoch_ = 0;
  std::size_t parked_ = 0;  ///< Workers currently blocked on epoch_cv_.
  bool stopping_ = false;
  Job* job_ = nullptr;

  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace concord::sched
