#pragma once

#include <cstdint>
#include <vector>

#include "core/miner.hpp"
#include "core/validator.hpp"
#include "graph/happens_before.hpp"
#include "util/stats.hpp"
#include "workload/workload.hpp"

namespace concord::bench {

/// Shared methodology for the figure/table benches, mirroring the paper's
/// §7.2: "The running time is collected five times and the mean and
/// standard deviation are measured. All runs are given three warm-up runs
/// per collection." The miner and the validator both run with a pool of
/// three threads; the serial miner is the baseline.
struct RunConfig {
  unsigned threads = 3;
  int warmups = 3;
  int samples = 5;
  double nanos_per_gas = vm::GasMeter::kDefaultNanosPerGas;
  bool exclusive_locks_only = false;

  bool quick = false;

  /// Parses --quick (1 warmup / 3 samples, thinner axes), --samples=N,
  /// --warmups=N, --threads=N and --nanos-per-gas=X from argv. Unknown
  /// flags are ignored so binaries can layer their own.
  static RunConfig from_args(int argc, char** argv);
};

/// Measured results for one (benchmark, txs, conflict%) point.
struct PointResult {
  workload::WorkloadSpec spec;
  util::TimingSummary serial;
  util::TimingSummary miner;
  util::TimingSummary validator;
  core::MinerStats mining_stats;       ///< From the last mining sample.
  graph::ScheduleMetrics schedule;     ///< Of the last mined block.

  [[nodiscard]] double miner_speedup() const {
    return miner.mean_ms > 0 ? serial.mean_ms / miner.mean_ms : 0.0;
  }
  [[nodiscard]] double validator_speedup() const {
    return validator.mean_ms > 0 ? serial.mean_ms / validator.mean_ms : 0.0;
  }
};

/// Times serial baseline, parallel miner and parallel validator for one
/// workload point, each from a freshly-rebuilt fixture per run. Verifies
/// on every validator sample that the block is accepted (a benchmark that
/// silently measured rejected blocks would be meaningless) and aborts via
/// exception otherwise.
[[nodiscard]] PointResult measure_point(const workload::WorkloadSpec& spec,
                                        const RunConfig& config);

/// The paper's sweep axes.
[[nodiscard]] std::vector<std::size_t> blocksize_axis(bool quick);
[[nodiscard]] std::vector<unsigned> conflict_axis(bool quick);

/// gnuplot-friendly table row output helpers.
void print_point_header();
void print_point(const PointResult& point);

}  // namespace concord::bench
