// The layer pass: the node pass's inputs pushed through each layer's
// public call one at a time, every call a span, so each layer gets its
// own time and the spans tile the pass's wall time (the remainder is
// reported as trace.unaccounted_ms).

#include <algorithm>
#include <variant>

#include "chain/blockchain.hpp"
#include "core/miner.hpp"
#include "core/query.hpp"
#include "core/validator.hpp"
#include "e2e.hpp"
#include "graph/happens_before.hpp"
#include "net/wire.hpp"
#include "node/mempool.hpp"
#include "util/rng.hpp"

namespace concord::e2e {

namespace {

constexpr std::size_t kQueries = 4096;  ///< run_query calls across the pass (≥ 10 beyond p99).

/// Times `fn` as one top-level span of the layer pass.
class SpanClock {
 public:
  template <typename Fn>
  double time(const char* name, std::int64_t block, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    spans_.push_back(Span{name, 2, kLaneLayer, t0, t1, 0, block, false});
    return ms_between(t0, t1);
  }

  [[nodiscard]] double covered_ms() const {
    double sum = 0;
    for (const Span& s : spans_) sum += ms_between(s.start, s.end);
    return sum;
  }

  std::vector<Span> take() { return std::move(spans_); }

 private:
  std::vector<Span> spans_;
};

}  // namespace

LayerPassResult run_layer_pass(const Workload& w, std::uint64_t seed, double node_seconds,
                               Tracer& tracer) {
  LayerPassResult result;
  Inputs inputs = make_inputs(w, seed, episode_txs(w, node_seconds));
  const std::size_t prefix = std::min(inputs.txs.size(), w.layer_blocks * w.txs_per_block);
  std::vector<chain::Transaction> stream(inputs.txs.begin(),
                                         inputs.txs.begin() + static_cast<std::ptrdiff_t>(prefix));

  // The three worlds a leader+follower pair runs: the miner's, the leader
  // validator's replica and the follower's, all forks of one genesis.
  std::unique_ptr<vm::World> miner_world = std::move(inputs.genesis);
  std::unique_ptr<vm::World> leader_world = miner_world->fork();
  std::unique_ptr<vm::World> follower_world = miner_world->fork();
  core::Miner miner(*miner_world, stage_miner_config());
  core::Validator leader_validator(*leader_world, stage_validator_config());
  core::Validator follower_validator(*follower_world, stage_validator_config());
  chain::Blockchain chain(miner_world->state_root());
  node::Mempool pool(node::BatchPolicy{.target_txs = w.txs_per_block});

  std::vector<double> mine_ms, exec_ms, miner_root_ms, root_ms, snapshot_us, validate_ms,
      follower_validate_ms, derive_ms, append_ms, encode_us, decode_us, query_us,
      critical_path, parallelism;
  std::uint64_t txs = 0, attempts = 0, aborts = 0, victims = 0, edges = 0, schedule_bytes = 0,
                wire_bytes = 0, steals = 0, blocks = 0, queries_not_ok = 0;
  std::size_t lock_high_water = 0;
  std::uint64_t prev_steals = 0;
  util::Rng rng(seed ^ 0x1a7e5ULL);
  ReadTarget target{inputs.token, {}};
  const core::QueryFn query = [&target](const vm::World& world, vm::ExecContext& ctx) {
    read_balance(world, ctx, target);
  };
  const std::size_t queries_per_block =
      std::max<std::size_t>(1, kQueries / std::max<std::size_t>(1, w.layer_blocks));

  SpanClock clock;
  const Clock::time_point wall_start = Clock::now();
  clock.time("node.Mempool::submit_many", -1, [&] {
    (void)pool.submit_many(stream);
    pool.close();
  });

  const chain::Block* parent = &chain.tip();
  std::size_t offset = 0;
  while (true) {
    const auto number = static_cast<std::int64_t>(blocks + 1);
    std::optional<std::vector<chain::Transaction>> batch;
    clock.time("node.Mempool::next_batch", number, [&] { batch = pool.next_batch(); });
    if (!batch.has_value()) break;
    ++blocks;

    chain::Block block;
    mine_ms.push_back(clock.time("core.Miner::mine", number,
                                 [&] { block = miner.mine(*batch, *parent); }));
    const core::MinerStats& ms = miner.last_stats();
    miner_root_ms.push_back(ms.state_root_ms);
    exec_ms.push_back(mine_ms.back() - ms.state_root_ms);
    txs += ms.transactions;
    attempts += ms.attempts;
    aborts += ms.conflict_aborts;
    victims += ms.deadlock_victims;
    lock_high_water = std::max(lock_high_water, ms.lock_table_high_water);
    const std::size_t n = block.transactions.size();
    if (!std::equal(block.transactions.begin(), block.transactions.end(),
                    stream.begin() + static_cast<std::ptrdiff_t>(offset))) {
      result.gate_failures.push_back("a mined block is not the next FIFO batch");
    }
    offset += n;

    std::optional<graph::HappensBeforeGraph> graph;
    derive_ms.push_back(clock.time("graph.derive_happens_before+topological_order", number, [&] {
      graph.emplace(graph::derive_happens_before(block.schedule.profiles, n));
      if (!graph->topological_order().has_value()) {
        result.gate_failures.push_back("derived happens-before graph is cyclic");
      }
    }));
    graph::ScheduleMetrics shape;
    clock.time("graph.compute_metrics", number, [&] { shape = graph::compute_metrics(*graph); });
    edges += shape.edges;
    critical_path.push_back(static_cast<double>(shape.critical_path));
    parallelism.push_back(shape.parallelism);

    clock.time("chain.BlockSchedule::encoded_size", number,
               [&] { schedule_bytes += block.schedule.encoded_size(); });

    vm::WorldSnapshot snapshot;
    snapshot_us.push_back(
        1e3 * clock.time("vm.WorldSnapshot", number, [&] { snapshot = vm::WorldSnapshot(*miner_world); }));

    // Encode/decode the announce exactly as net::Leader ships it.
    net::Message message{net::BlockAnnounce{std::move(block)}};
    std::vector<std::uint8_t> payload;
    encode_us.push_back(1e3 * clock.time("net.encode_message", number,
                                         [&] { payload = net::encode_message(message); }));
    wire_bytes += payload.size();
    block = std::move(std::get<net::BlockAnnounce>(message).block);
    net::Message received;
    decode_us.push_back(1e3 * clock.time("net.decode_message", number,
                                         [&] { received = net::decode_message(payload); }));
    const chain::Block& follower_block = std::get<net::BlockAnnounce>(received).block;

    core::ValidationReport leader_report;
    validate_ms.push_back(clock.time("core.Validator::validate_parallel(leader)", number, [&] {
      leader_report = leader_validator.validate_parallel(block);
    }));
    steals += leader_report.steals - prev_steals;
    prev_steals = leader_report.steals;
    core::ValidationReport follower_report;
    follower_validate_ms.push_back(
        clock.time("core.Validator::validate_parallel(follower)", number, [&] {
          follower_report = follower_validator.validate_parallel(follower_block);
        }));
    if (!leader_report.ok || !follower_report.ok) {
      result.gate_failures.push_back("a validator rejected block " + std::to_string(number) +
                                     ": " + leader_report.detail + follower_report.detail);
    }

    util::Hash256 root;
    root_ms.push_back(clock.time("vm.World::state_root", number,
                                 [&] { root = follower_world->state_root(); }));
    if (root != block.header.state_root) {
      result.gate_failures.push_back("follower state root differs from the header");
    }

    append_ms.push_back(
        clock.time("chain.Blockchain::append", number, [&] { chain.append(std::move(block)); }));
    parent = &chain.tip();

    clock.time("core.run_query", number, [&] {
      for (std::size_t q = 0; q < queries_per_block; ++q) {
        target.who = inputs.read_keys[rng.below(inputs.read_keys.size())];
        const Clock::time_point t0 = Clock::now();
        const core::QueryOutcome outcome = core::run_query(snapshot, core::QueryConfig{}, query);
        query_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
        if (outcome.status != core::QueryStatus::kOk) ++queries_not_ok;
      }
    });
  }
  const double wall_ms = ms_between(wall_start, Clock::now());
  const double unaccounted_ms = wall_ms - clock.covered_ms();
  tracer.merge(clock.take());

  if (offset != stream.size()) result.gate_failures.push_back("layer pass lost transactions");
  result.attempted = stream.size() + query_us.size();
  result.failed = result.gate_failures.size() + queries_not_ok;
  if (queries_not_ok > 0) {
    result.gate_failures.push_back(std::to_string(queries_not_ok) + " queries did not return kOk");
  }
  result.correct = result.gate_failures.empty();

  const vm::ArenaStats arena = miner_world->arena_stats();
  const double per_tx = txs > 0 ? 1.0 / static_cast<double>(txs) : 0.0;
  const double per_block = blocks > 0 ? 1.0 / static_cast<double>(blocks) : 0.0;
  const auto recycled = static_cast<double>(arena.recycle_hits);
  const double allocs = recycled + static_cast<double>(arena.fresh_allocs);
  Metrics& m = result.metrics;
  m["vm.state_root_ms"] = {median(root_ms), "ms"};
  m["vm.miner_state_root_ms"] = {median(miner_root_ms), "ms"};
  m["vm.snapshot_us"] = {median(snapshot_us), "us"};
  m["vm.arena_recycle_ratio"] = {allocs > 0 ? recycled / allocs : 0.0, "ratio"};
  m["vm.arena_chunk_mb"] = {static_cast<double>(arena.chunk_bytes) / (1 << 20), "MB"};
  m["core.mine_ms"] = {median(mine_ms), "ms"};
  m["core.exec_ms"] = {median(exec_ms), "ms"};
  m["core.validate_ms"] = {median(validate_ms), "ms"};
  m["core.follower_validate_ms"] = {median(follower_validate_ms), "ms"};
  m["core.query_us_p50"] = {quantile(query_us, 0.50), "us"};
  m["core.query_us_p99"] = {quantile(query_us, 0.99), "us"};
  m["stm.attempts_per_tx"] = {static_cast<double>(attempts) * per_tx, "ratio"};
  m["stm.conflict_aborts"] = {static_cast<double>(aborts), "count"};
  m["stm.deadlock_victims"] = {static_cast<double>(victims), "count"};
  m["stm.lock_table_high_water"] = {static_cast<double>(lock_high_water), "count"};
  m["graph.derive_ms"] = {median(derive_ms), "ms"};
  m["graph.edges_per_tx"] = {static_cast<double>(edges) * per_tx, "ratio"};
  m["graph.critical_path"] = {median(critical_path), "count"};
  m["graph.parallelism"] = {mean(parallelism), "ratio"};
  m["sched.steals_per_block"] = {static_cast<double>(steals) * per_block, "count"};
  m["chain.schedule_bytes_per_tx"] = {static_cast<double>(schedule_bytes) * per_tx, "B"};
  m["chain.append_ms"] = {median(append_ms), "ms"};
  m["net.encode_us"] = {median(encode_us), "us"};
  m["net.decode_us"] = {median(decode_us), "us"};
  m["net.bytes_per_tx"] = {static_cast<double>(wire_bytes) * per_tx, "B"};
  m["trace.layer_wall_ms"] = {wall_ms, "ms"};
  m["trace.unaccounted_ms"] = {unaccounted_ms, "ms"};
  return result;
}

}  // namespace concord::e2e
