#include "sched/fork_join.hpp"

#include <cassert>
#include <stdexcept>

namespace concord::sched {

ForkJoinPool::ForkJoinPool(unsigned threads) {
  if (threads == 0) throw std::invalid_argument("ForkJoinPool needs at least one worker");
  deques_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) deques_.push_back(std::make_unique<WorkStealingDeque>());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ForkJoinPool::~ForkJoinPool() {
  {
    std::scoped_lock lk(mu_);
    stopping_ = true;
    ++epoch_;
  }
  epoch_cv_.notify_all();
  // Join the workers here, in the destructor body, NOT via member
  // destruction: `workers_` is declared before `mu_` / `epoch_cv_` /
  // `parked_cv_`, so implicit member destruction would tear down those
  // sync primitives first and only then join — letting a still-exiting
  // worker call parked_cv_.notify_all() / epoch_cv_.wait() on destroyed
  // objects (TSan: pthread_cond_destroy races notify). Every worker must
  // be fully joined before any sync primitive dies.
  workers_.clear();
}

void ForkJoinPool::run_dag(std::span<const std::vector<std::uint32_t>> successors,
                           const std::function<void(std::uint32_t)>& body) {
  const std::size_t n = successors.size();
  if (n == 0) return;

  Job job;
  job.n = n;
  job.successors = successors.data();
  job.body = &body;
  job.pending = std::vector<std::atomic<std::int32_t>>(n);
  for (const auto& succs : successors) {
    for (const std::uint32_t succ : succs) {
      assert(succ < n);
      job.pending[succ].fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::size_t roots = 0;
  for (const auto& pending : job.pending) {
    if (pending.load(std::memory_order_relaxed) == 0) ++roots;
  }
  if (roots == 0) {
    throw std::invalid_argument("run_dag: graph has no roots (cycle); validate first");
  }
  run(job);
}

void ForkJoinPool::run_batch(std::size_t n, const std::function<void(std::uint32_t)>& body) {
  if (n == 0) return;
  Job job;
  job.n = n;
  job.body = &body;
  run(job);
}

void ForkJoinPool::run(Job& job) {
  job.remaining.store(job.n, std::memory_order_relaxed);
  {
    std::unique_lock lk(mu_);
    // Wait until every worker is parked (startup, or the tail of the
    // previous run), so the single-owner deques are quiescent and the
    // caller may seed a DAG's roots round-robin.
    parked_cv_.wait(lk, [this] { return parked_ == workers_.size(); });
    if (job.successors != nullptr) {
      unsigned next = 0;
      for (std::uint32_t i = 0; i < job.n; ++i) {
        if (job.pending[i].load(std::memory_order_relaxed) == 0) {
          deques_[next % deques_.size()]->push(i);
          ++next;
        }
      }
    }
    job_ = &job;
    ++epoch_;
  }
  epoch_cv_.notify_all();

  {
    std::unique_lock lk(mu_);
    // First wait for the job to drain, then for every worker to park —
    // `job` lives on the caller's stack frame, so no worker may touch it
    // (even a final remaining-check) once we return.
    done_cv_.wait(lk, [&job] { return job.remaining.load(std::memory_order_acquire) == 0; });
    job_ = nullptr;
    parked_cv_.wait(lk, [this] { return parked_ == workers_.size(); });
  }
  // Every worker has parked through mu_ since its last execute(), so
  // job.error is safe to read without job.error_mu.
  if (job.error) std::rethrow_exception(job.error);
}

void ForkJoinPool::worker_loop(unsigned self) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lk(mu_);
      ++parked_;
      parked_cv_.notify_all();
      epoch_cv_.wait(lk, [&] { return stopping_ || epoch_ != seen_epoch; });
      seen_epoch = epoch_;
      --parked_;
      if (stopping_) return;
      job = job_;
    }
    if (job == nullptr) continue;  // Raced with a drain; park again.

    while (job->remaining.load(std::memory_order_acquire) != 0) {
      if (auto task = find_work(*job, self)) {
        execute(*job, self, *task);
      } else if (job->successors == nullptr) {
        break;  // A claimed-out batch never gains work: park, don't spin.
      } else {
        std::this_thread::yield();
      }
    }
    // remaining is modified outside mu_, so bridge the gap: acquiring and
    // releasing the mutex before notifying guarantees the caller is either
    // past its predicate check or fully asleep.
    { std::scoped_lock lk(mu_); }
    done_cv_.notify_all();
  }
}

void ForkJoinPool::execute(Job& job, unsigned self, std::uint32_t task) {
  try {
    (*job.body)(task);
  } catch (...) {
    // Record and carry on: the successor bookkeeping below must still
    // run, or the job never drains.
    std::scoped_lock lk(job.error_mu);
    if (!job.error) job.error = std::current_exception();
  }
  if (job.successors != nullptr) {
    for (const std::uint32_t succ : job.successors[task]) {
      if (job.pending[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        deques_[self]->push(succ);
      }
    }
  }
  job.remaining.fetch_sub(1, std::memory_order_acq_rel);
}

std::optional<std::uint32_t> ForkJoinPool::find_work(Job& job, unsigned self) {
  if (job.successors == nullptr) {
    // Batch: claim the next index. The load keeps idle workers off the
    // shared counter once the batch is fully claimed, which also bounds
    // the overshoot past n to one claim per worker.
    if (job.next.load(std::memory_order_relaxed) >= job.n) return std::nullopt;
    const std::size_t task = job.next.fetch_add(1, std::memory_order_relaxed);
    if (task >= job.n) return std::nullopt;
    return static_cast<std::uint32_t>(task);
  }
  if (auto task = deques_[self]->pop()) return task;
  const std::size_t n = deques_.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (auto task = deques_[(self + i) % n]->steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return std::nullopt;
}

}  // namespace concord::sched
