// Sustained node throughput: a stream of blocks through the full
// mempool → miner → validator pipeline, pipelined (validation of block N
// overlapped with mining of N+1..N+k through the depth-k handoff ring)
// versus the unpipelined mine-then-validate baseline on the identical
// transaction stream. This is the regime the one-shot figure benches
// can't see — and the regime follow-on frameworks (OptSmart et al.)
// evaluate. It is the repository's only pipeline-depth sweep; bench/e2e
// runs depth 2.
//
// Usage: bench_node_throughput [--quick] [--samples=N] [--threads=N]
//                              [--blocks=N] [--block-txs=N]
//                              [--pipeline-depth=1,2,4] ...

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "node/node.hpp"
#include "util/stats.hpp"

namespace {

using namespace concord;

struct ModeResult {
  util::TimingSummary wall;
  node::NodeStats last;  ///< Stats of the last sample run.

  [[nodiscard]] double tx_per_sec() const {
    return wall.mean_ms > 0 ? static_cast<double>(last.transactions) * 1e3 / wall.mean_ms : 0.0;
  }
};

/// One full stream run: one genesis world (the node forks the
/// validator's replica itself), a producer thread feeding the mempool,
/// the node driving both stages to drain. `pipeline_depth` is the
/// handoff ring's capacity; ignored by the sequential baseline.
node::NodeStats run_stream(const workload::StreamSpec& spec, const bench::RunConfig& config,
                           bool pipelined, std::size_t pipeline_depth) {
  workload::Fixture fixture = workload::make_stream_fixture(spec);
  std::vector<chain::Transaction> stream = std::move(fixture.transactions);

  node::NodeConfig node_config;
  node_config.miner.threads = config.threads;
  node_config.miner.nanos_per_gas = config.nanos_per_gas;
  node_config.miner.exclusive_locks_only = config.exclusive_locks_only;
  node_config.validator.threads = config.threads;
  node_config.validator.nanos_per_gas = config.nanos_per_gas;
  node_config.validator.exclusive_locks_only = config.exclusive_locks_only;
  node_config.batch.target_txs = spec.txs_per_block;
  node_config.mempool_capacity = 4 * spec.txs_per_block;  // Realistic backpressure.
  node_config.pipelined = pipelined;
  node_config.pipeline_depth = pipeline_depth;
  node_config.mining = node::MiningMode::kSpeculative;

  node::Node node(std::move(fixture.world), node_config);
  std::jthread producer([&node, &stream] {
    (void)node.mempool().submit_many(std::move(stream));
    node.mempool().close();
  });
  node.run();
  if (!node.ok()) {
    throw std::runtime_error(std::string("node rejected a block: ") +
                             std::string(core::to_string(node.failure().reason)) + " — " +
                             node.failure().detail);
  }
  return node.stats();
}

ModeResult measure_mode(const workload::StreamSpec& spec, const bench::RunConfig& config,
                        bool pipelined, std::size_t pipeline_depth) {
  ModeResult result;
  std::vector<double> runs;
  for (int r = 0; r < config.warmups + config.samples; ++r) {
    const node::NodeStats stats = run_stream(spec, config, pipelined, pipeline_depth);
    if (r >= config.warmups) runs.push_back(stats.wall_ms);
    result.last = stats;
  }
  result.wall = util::summarize_ms(runs);
  return result;
}

std::vector<std::size_t> parse_depths(std::string_view csv) {
  std::vector<std::size_t> depths;
  while (!csv.empty()) {
    char* end = nullptr;
    const unsigned long depth = std::strtoul(csv.data(), &end, 10);
    if (end == csv.data() || depth == 0) return {};  // Signal a usage error.
    depths.push_back(depth);
    csv.remove_prefix(static_cast<std::size_t>(end - csv.data()));
    if (!csv.empty() && csv.front() == ',') csv.remove_prefix(1);
  }
  return depths;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::RunConfig config = bench::RunConfig::from_args(argc, argv);

  workload::StreamSpec base;
  base.blocks = config.quick ? 8 : 20;
  base.txs_per_block = config.quick ? 50 : 150;
  base.conflict_percent = 15;
  std::vector<std::size_t> depths{1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--blocks=")) base.blocks = std::strtoul(arg.data() + 9, nullptr, 10);
    if (arg.starts_with("--block-txs=")) {
      base.txs_per_block = std::strtoul(arg.data() + 12, nullptr, 10);
    }
    if (arg.starts_with("--pipeline-depth=")) {
      depths = parse_depths(arg.substr(17));
    }
  }
  if (base.blocks == 0 || base.txs_per_block == 0 || depths.empty()) {
    // A typo'd flag must not print a degenerate zero-throughput point.
    std::fprintf(stderr,
                 "bench_node_throughput: --blocks/--block-txs must be positive integers and "
                 "--pipeline-depth a comma list of positive values\n");
    return 2;
  }

  std::printf(
      "Node pipeline throughput: %zu blocks x %zu txs, 15%% conflict, %u threads/stage\n",
      base.blocks, base.txs_per_block, config.threads);
  if (const unsigned hw = std::thread::hardware_concurrency(); hw < 2 * config.threads) {
    std::printf(
        "note: %u hardware thread(s) for two %u-thread stages — both stages are CPU-bound,\n"
        "      so pipeline overlap can only beat the sequential baseline on parallel hardware\n",
        hw, config.threads);
  }
  std::printf("# %-14s %6s %10s %14s %14s %9s %12s %12s %12s\n", "benchmark", "depth", "blocks",
              "seq_tx/s", "pipe_tx/s", "overlap", "mine_ms", "validate_ms", "stall_ms");

  for (const workload::BenchmarkKind kind : workload::kAllBenchmarks) {
    workload::StreamSpec spec = base;
    spec.kind = kind;

    const ModeResult sequential = measure_mode(spec, config, /*pipelined=*/false, 1);

    for (const std::size_t depth : depths) {
      const ModeResult pipelined = measure_mode(spec, config, /*pipelined=*/true, depth);
      const double overlap =
          pipelined.wall.mean_ms > 0 ? sequential.wall.mean_ms / pipelined.wall.mean_ms : 0.0;

      std::printf("%-16s %6zu %10llu %14.0f %14.0f %8.2fx %12.1f %12.1f %12.1f\n",
                  std::string(workload::to_string(kind)).c_str(), depth,
                  static_cast<unsigned long long>(pipelined.last.blocks), sequential.tx_per_sec(),
                  pipelined.tx_per_sec(), overlap, pipelined.last.mine_ms,
                  pipelined.last.validate_ms,
                  pipelined.last.handoff_wait_ms + pipelined.last.validator_stall_ms);
      std::fflush(stdout);
    }
  }
  return 0;
}
