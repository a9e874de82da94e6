#pragma once

#include <cstdint>

#include "sched/fork_join.hpp"
#include "vm/state_hasher.hpp"

namespace concord::core {

/// `pool` as the vm layer's ParallelFor: each run is one edgeless batch
/// (ForkJoinPool::run_batch). A pool runs one job at a time, so a stage
/// hands this only to work it runs itself between its own jobs — the
/// state root it computes after executing a block.
[[nodiscard]] inline vm::ParallelFor pool_parallel_for(sched::ForkJoinPool& pool) {
  return vm::ParallelFor(pool.size(),
                         [&pool](std::size_t tasks, const vm::ParallelFor::Body& body) {
                           pool.run_batch(tasks, [&body](std::uint32_t task) { body(task); });
                         });
}

}  // namespace concord::core
