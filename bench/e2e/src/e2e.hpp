// Shared declarations of the end-to-end benchmark: workload table,
// generated inputs, the leader+follower node pass, the one-call-at-a-time
// layer pass, and the span recorder both passes write into.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "chain/transaction.hpp"
#include "core/miner.hpp"
#include "core/validator.hpp"
#include "vm/exec_context.hpp"
#include "vm/types.hpp"
#include "vm/world.hpp"
#include "workload/workload.hpp"

namespace concord::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ── Statistics ─────────────────────────────────────────────────────────

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Uniform fixed-size sample of an unbounded stream (Algorithm R), so a
/// closed-loop reader running millions of operations keeps exact,
/// unquantized latencies without holding them all.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity, std::uint64_t seed) : capacity_(capacity), rng_(seed) {}
  void add(double value);
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::size_t capacity_;
  std::uint64_t rng_;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
};

// ── Tracing ────────────────────────────────────────────────────────────

/// Trace lanes (Chrome trace "threads"). Node-pass lanes live in pid 1,
/// the layer pass in pid 2.
enum Lane : std::uint32_t {
  kLaneLeaderMiner = 1,
  kLaneLeaderRing,
  kLaneLeaderValidator,
  kLaneFollower,
  kLaneReader0,
  kLaneReader1,
  kLaneLayer = 100,
};

struct Span {
  const char* name = "";  ///< Static string.
  std::uint32_t pid = 1;
  std::uint32_t lane = 0;
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t episode = -1;
  std::int64_t block = -1;
  /// Emit a flow arrow from the previous span carrying the same
  /// (episode, block) — how one block is followed across threads.
  bool flow = false;
};

/// In-memory span store, written out as a Chrome trace-event file when
/// the benchmark ends. Disabled tracers drop everything. Only the main
/// thread merges: threads that record keep their own spans until joined.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void merge(std::vector<Span> spans);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Chrome trace-event JSON (opens in Perfetto and chrome://tracing).
  /// Returns false when the file could not be written.
  [[nodiscard]] bool write_chrome(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ── Workloads ──────────────────────────────────────────────────────────

enum class Loop : std::uint8_t { kClosed, kOpen };

/// One set of inputs the benchmark runs. Sizes are the full-size values;
/// --smoke shrinks them (see smoke()).
struct Workload {
  std::string_view name;
  Loop loop = Loop::kClosed;
  /// Generator: a paper benchmark stream (accounts == 0) or Token
  /// transfers between Zipf(0.9)-drawn accounts out of `accounts`.
  workload::BenchmarkKind kind = workload::BenchmarkKind::kMixed;
  unsigned conflict_percent = 15;
  std::size_t accounts = 0;
  std::size_t txs_per_block = 400;
  /// Closed loop: blocks per episode (each episode gets a fresh
  /// leader+follower pair and fresh inputs from seed + episode).
  std::size_t blocks_per_episode = 8;
  std::size_t max_episodes = 1;
  /// Open loop: arrival rate of writes. Only the open loop runs readers,
  /// beside the writes.
  double rate_tx_per_s = 0;
  /// Blocks the layer pass pushes through one call at a time.
  std::size_t layer_blocks = 8;
};

[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string_view> workload_names();
[[nodiscard]] Workload smoke(Workload w);

/// Generated inputs: a genesis world plus the transaction stream. The
/// node sees only the transactions; `read_keys` are the accounts readers
/// ask about (the stream's senders, so reads follow the write skew).
struct Inputs {
  std::unique_ptr<vm::World> genesis;
  std::vector<chain::Transaction> txs;
  vm::Address token;  ///< Nonzero: reads go to Token::balance_of, else native balances.
  std::vector<vm::Address> read_keys;
};

/// Deterministic in (workload, seed, total_txs).
[[nodiscard]] Inputs make_inputs(const Workload& w, std::uint64_t seed, std::size_t total_txs);

/// Transactions one episode generates: a closed-loop episode's blocks, or
/// an open loop's arrivals over `seconds`.
[[nodiscard]] std::size_t episode_txs(const Workload& w, double seconds);

struct ReadTarget {
  vm::Address token;
  vm::Address who;
};

/// The read a client issues: a Token balance when the workload has a
/// token, else the account's native balance.
void read_balance(const vm::World& world, vm::ExecContext& ctx, const ReadTarget& target);

// ── Passes ─────────────────────────────────────────────────────────────

/// Threads of each pipeline stage: the leader miner, the leader validator
/// and the follower validator.
inline constexpr unsigned kStageThreads = 2;

/// Engine-only stage configs (no simulated gas burn), shared by both passes.
[[nodiscard]] core::MinerConfig stage_miner_config();
[[nodiscard]] core::ValidatorConfig stage_validator_config();

/// Everything one node pass measured (all episodes pooled).
struct NodePassResult {
  // Load.
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;  ///< Transactions accepted exactly once on the follower.
  double measured_s = 0;       ///< Σ episodes (first submit → last follower accept).
  std::vector<double> episode_tx_per_s;
  std::vector<double> confirm_ms;
  std::vector<double> setup_s;  ///< Every episode's set-up plus the extra ones.
  double generator_lag_ms_p99 = 0;  ///< Open loop: how late the generator ran.
  std::size_t episodes = 0;

  // Reads (open loop only).
  std::vector<double> read_us;  ///< Reservoir sample of every reader op.
  std::vector<double> pin_us;   ///< Reservoir sample of pin_at ops.
  std::uint64_t read_ops = 0;
  double reads_per_s = 0;       ///< Σ over concurrent readers of ops / wall time.

  // Failures (each counts against failed_ratio).
  std::uint64_t queries_not_ok = 0;
  std::uint64_t pin_evictions = 0;
  std::uint64_t pin_root_mismatches = 0;
  std::uint64_t nacks = 0;
  std::uint64_t wire_errors = 0;
  std::uint64_t diverged_blocks = 0;
  bool nodes_ok = true;
  std::vector<std::string> gate_failures;

  // Layer counters (traced pass).
  std::uint64_t blocks = 0;
  double mempool_wait_ms = 0;
  double handoff_wait_ms = 0;
  double validator_stall_ms = 0;
  std::size_t ring_high_water = 0;
  std::size_t mempool_high_water = 0;
  std::vector<double> handoff_ms;
  std::vector<double> propagation_ms;

  [[nodiscard]] std::uint64_t failed() const {
    return (submitted - accepted) + queries_not_ok + pin_evictions + pin_root_mismatches + nacks +
           wire_errors + diverged_blocks + (nodes_ok ? 0 : 1);
  }
  [[nodiscard]] std::uint64_t attempted() const { return submitted + read_ops; }
  [[nodiscard]] double tx_per_s() const { return measured_s > 0 ? accepted / measured_s : 0; }
};

/// Runs the workload on the leader+follower topology for `seconds` of
/// measured time; episode i's inputs come from seed + i.
[[nodiscard]] NodePassResult run_node_pass(const Workload& w, std::uint64_t seed, double seconds,
                                           Tracer& tracer);

/// Per-layer numbers of the layer pass (see layer_pass.cpp).
using Metrics = std::map<std::string, std::pair<double, std::string>>;  ///< name → (value, unit).

struct LayerPassResult {
  Metrics metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
};

/// Pushes the first `w.layer_blocks` blocks of the node pass's first
/// episode (generated as for a node pass of `node_seconds`) through each
/// layer's public call, one call at a time, each call a span.
[[nodiscard]] LayerPassResult run_layer_pass(const Workload& w, std::uint64_t seed,
                                             double node_seconds, Tracer& tracer);

/// Resident-set high-water mark of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace concord::e2e
