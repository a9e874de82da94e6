#include "harness.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

namespace concord::bench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

bool parse_flag(std::string_view arg, std::string_view name, long& out) {
  if (!arg.starts_with(name)) return false;
  arg.remove_prefix(name.size());
  if (arg.empty() || arg[0] != '=') return false;
  out = std::strtol(arg.data() + 1, nullptr, 10);
  return true;
}

bool parse_flag_double(std::string_view arg, std::string_view name, double& out) {
  if (!arg.starts_with(name)) return false;
  arg.remove_prefix(name.size());
  if (arg.empty() || arg[0] != '=') return false;
  out = std::strtod(arg.data() + 1, nullptr);
  return true;
}

}  // namespace

RunConfig RunConfig::from_args(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    long value = 0;
    double dvalue = 0.0;
    if (arg == "--quick") {
      config.quick = true;
      config.warmups = 1;
      config.samples = 3;
    } else if (parse_flag(arg, "--samples", value)) {
      config.samples = static_cast<int>(value);
    } else if (parse_flag(arg, "--warmups", value)) {
      config.warmups = static_cast<int>(value);
    } else if (parse_flag(arg, "--threads", value)) {
      config.threads = static_cast<unsigned>(value);
    } else if (parse_flag_double(arg, "--nanos-per-gas", dvalue)) {
      config.nanos_per_gas = dvalue;
    } else if (arg == "--exclusive-locks") {
      config.exclusive_locks_only = true;
    }
  }
  return config;
}

PointResult measure_point(const workload::WorkloadSpec& spec, const RunConfig& config) {
  PointResult point;
  point.spec = spec;

  core::MinerConfig miner_config;
  miner_config.threads = config.threads;
  miner_config.nanos_per_gas = config.nanos_per_gas;
  miner_config.exclusive_locks_only = config.exclusive_locks_only;

  core::ValidatorConfig validator_config;
  validator_config.threads = config.threads;
  validator_config.nanos_per_gas = config.nanos_per_gas;
  validator_config.exclusive_locks_only = config.exclusive_locks_only;

  const int total_runs = config.warmups + config.samples;

  // --- Serial baseline --------------------------------------------------
  {
    std::vector<double> runs;
    for (int r = 0; r < total_runs; ++r) {
      auto fixture = workload::make_fixture(spec);
      core::Miner miner(*fixture.world, miner_config);
      const auto start = Clock::now();
      (void)miner.execute_serial_baseline(fixture.transactions);
      const double ms = ms_since(start);
      if (r >= config.warmups) runs.push_back(ms);
    }
    point.serial = util::summarize_ms(runs);
  }

  // --- Parallel (speculative) miner --------------------------------------
  chain::Block reference_block;  // Last mined block, reused for validation.
  {
    std::vector<double> runs;
    for (int r = 0; r < total_runs; ++r) {
      auto fixture = workload::make_fixture(spec);
      const chain::Block parent = fixture.genesis();
      core::Miner miner(*fixture.world, miner_config);
      const auto start = Clock::now();
      chain::Block block = miner.mine(fixture.transactions, parent);
      const double ms = ms_since(start);
      if (r >= config.warmups) runs.push_back(ms);
      point.mining_stats = miner.last_stats();
      reference_block = std::move(block);
    }
    point.miner = util::summarize_ms(runs);
    point.schedule = graph::compute_metrics(
        reference_block.schedule.to_graph(reference_block.transactions.size()));
  }

  // --- Parallel (deterministic fork-join) validator -----------------------
  {
    std::vector<double> runs;
    for (int r = 0; r < total_runs; ++r) {
      auto fixture = workload::make_fixture(spec);
      core::Validator validator(*fixture.world, validator_config);
      const auto start = Clock::now();
      const core::ValidationReport report = validator.validate_parallel(reference_block);
      const double ms = ms_since(start);
      if (!report.ok) {
        throw std::runtime_error(std::string("benchmark block rejected: ") +
                                 std::string(core::to_string(report.reason)) + " — " +
                                 report.detail);
      }
      if (r >= config.warmups) runs.push_back(ms);
    }
    point.validator = util::summarize_ms(runs);
  }

  return point;
}

std::vector<std::size_t> blocksize_axis(bool quick) {
  if (quick) return {10, 50, 100, 200};
  return {10, 25, 50, 100, 150, 200, 250, 300, 350, 400};
}

std::vector<unsigned> conflict_axis(bool quick) {
  if (quick) return {0, 30, 60, 100};
  return {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
}

void print_point_header() {
  std::printf("# %-14s %5s %9s %12s %12s %14s %8s %8s %10s %7s %9s\n", "benchmark", "txs",
              "conflict%", "serial_ms", "miner_ms", "validator_ms", "m_spd", "v_spd", "aborts",
              "cpath", "sched_B");
}

void print_point(const PointResult& point) {
  std::printf("%-16s %5zu %9u %9.3f±%-5.3f %9.3f±%-5.3f %9.3f±%-5.3f %8.2fx %8.2fx %10llu %7zu %9zu\n",
              std::string(workload::to_string(point.spec.kind)).c_str(),
              point.spec.transactions, point.spec.conflict_percent, point.serial.mean_ms,
              point.serial.stddev_ms, point.miner.mean_ms, point.miner.stddev_ms,
              point.validator.mean_ms, point.validator.stddev_ms, point.miner_speedup(),
              point.validator_speedup(),
              static_cast<unsigned long long>(point.mining_stats.conflict_aborts),
              point.schedule.critical_path, point.mining_stats.schedule_bytes);
  std::fflush(stdout);
}

}  // namespace concord::bench
