// ConcordSan overhead: miner throughput with detection off versus on.
//
// The detect-off column is the production path: with MinerConfig::detect
// false no AccessRecorder is wired into the ExecContext, every
// on_data_access call short-circuits on a null pointer, and the hot path
// must measure the same as before the analysis layer existed (bench/e2e
// runs detect off, so bench/ab.sh is where a cost there would show).
// The detect-on column prices the lane itself — per-access event
// recording plus the post-block lockset sweep and soundness oracle — so
// CI has a number to watch when the detector grows.
//
// Usage: bench_detect_overhead [--quick] [--samples=N] [--threads=N]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/stats.hpp"

using namespace concord;

namespace {

struct OverheadPoint {
  util::TimingSummary off;
  util::TimingSummary on;
  std::uint64_t accesses = 0;  ///< Events the detect-on run recorded.
};

/// Times Miner::mine() over freshly-rebuilt fixtures, detect as given.
util::TimingSummary time_mine(const workload::WorkloadSpec& spec, const bench::RunConfig& run,
                              bool detect, std::uint64_t* accesses_out) {
  core::MinerConfig config;
  config.threads = run.threads;
  config.nanos_per_gas = run.nanos_per_gas;
  config.exclusive_locks_only = run.exclusive_locks_only;
  config.detect = detect;

  std::vector<double> runs_ms;
  for (int i = 0; i < run.warmups + run.samples; ++i) {
    workload::Fixture fixture = workload::make_fixture(spec);
    core::Miner miner(*fixture.world, config);
    const auto start = std::chrono::steady_clock::now();
    const chain::Block block = miner.mine(fixture.transactions, fixture.genesis());
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (block.transactions.empty()) throw std::runtime_error("bench_detect_overhead: empty block");
    if (detect && !miner.last_detect_report().clean()) {
      throw std::runtime_error("bench_detect_overhead: stock workload flagged: " +
                               miner.last_detect_report().to_json());
    }
    if (i >= run.warmups) runs_ms.push_back(ms);
    if (accesses_out != nullptr) *accesses_out = miner.last_detect_report().accesses;
  }
  return util::summarize_ms(runs_ms);
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunConfig config = bench::RunConfig::from_args(argc, argv);
  const std::size_t txs = config.quick ? 100 : 200;
  const unsigned conflict = 15;

  std::printf("ConcordSan overhead: speculative mining, detect off vs on\n");
  std::printf("%zu transactions/block, conflict %u%%, %u threads, %d samples\n\n", txs, conflict,
              config.threads, config.samples);
  std::printf("%-14s %12s %12s %10s %10s %10s\n", "benchmark", "off tx/s", "on tx/s", "overhead",
              "off ms", "accesses");

  for (const auto kind : workload::kAllBenchmarks) {
    workload::WorkloadSpec spec{kind, txs, conflict, 42};
    OverheadPoint point;
    point.off = time_mine(spec, config, /*detect=*/false, nullptr);
    point.on = time_mine(spec, config, /*detect=*/true, &point.accesses);

    const double off_tx = point.off.mean_ms > 0
                              ? static_cast<double>(txs) * 1e3 / point.off.mean_ms
                              : 0.0;
    const double on_tx =
        point.on.mean_ms > 0 ? static_cast<double>(txs) * 1e3 / point.on.mean_ms : 0.0;
    const double overhead =
        point.off.mean_ms > 0 ? (point.on.mean_ms - point.off.mean_ms) / point.off.mean_ms : 0.0;

    const std::string name(workload::to_string(kind));
    std::printf("%-14s %12.0f %12.0f %9.1f%% %10.3f %10llu\n", name.c_str(), off_tx, on_tx,
                overhead * 100.0, point.off.mean_ms,
                static_cast<unsigned long long>(point.accesses));
  }

  std::printf("\nDetect defaults off; the on/off gap is the price of the lane.\n");
  return 0;
}
