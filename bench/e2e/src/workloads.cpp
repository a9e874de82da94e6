#include <algorithm>
#include <array>

#include "e2e.hpp"

namespace concord::e2e {

namespace {

/// Closed-loop workloads run as many episodes as fit in the run.
constexpr std::size_t kUnbounded = ~std::size_t{0};

// Why each workload exists is in README.md; the short form:
//  - paper-mixed: the paper's §7 regime, execution-bound; moves with the
//    parallel engine (STM, happens-before derivation, replay).
//  - hot-auction: the same layers under 90% conflict; near-serial
//    happens-before chains, so it catches low-contention-only wins.
//  - zipf-1m: O(state) root dominates every stage; moves with the state
//    layer, not the engine.
//  - replica-reads: the only open loop and the only one with reads beside
//    writes; confirmation latency below capacity plus the MVCC read path.
const std::array<Workload, 4> kWorkloads = {{
    {.name = "paper-mixed",
     .loop = Loop::kClosed,
     .kind = workload::BenchmarkKind::kMixed,
     .conflict_percent = 15,
     .txs_per_block = 400,
     .blocks_per_episode = 8,
     .max_episodes = kUnbounded,
     .layer_blocks = 8},
    {.name = "hot-auction",
     .loop = Loop::kClosed,
     .kind = workload::BenchmarkKind::kSimpleAuction,
     .conflict_percent = 90,
     .txs_per_block = 400,
     .blocks_per_episode = 8,
     .max_episodes = kUnbounded,
     .layer_blocks = 8},
    {.name = "zipf-1m",
     .loop = Loop::kClosed,
     .accounts = 1'000'000,
     .txs_per_block = 500,
     .blocks_per_episode = 8,
     .max_episodes = kUnbounded,
     .layer_blocks = 4},
    {.name = "replica-reads",
     .loop = Loop::kOpen,
     .accounts = 10'000,
     .txs_per_block = 100,
     .rate_tx_per_s = 2'000,
     .layer_blocks = 40},
}};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> names;
  for (const Workload& w : kWorkloads) names.push_back(w.name);
  return names;
}

Workload smoke(Workload w) {
  w.txs_per_block = std::min<std::size_t>(w.txs_per_block, 50);
  w.blocks_per_episode = std::min<std::size_t>(w.blocks_per_episode, 3);
  w.max_episodes = std::min<std::size_t>(w.max_episodes, 2);
  w.layer_blocks = 2;
  if (w.accounts > 0) w.accounts = std::min<std::size_t>(w.accounts, 20'000);
  return w;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed, std::size_t total_txs) {
  workload::Fixture fixture;
  if (w.accounts == 0) {
    workload::StreamSpec spec;
    spec.kind = w.kind;
    spec.txs_per_block = w.txs_per_block;
    spec.blocks = (total_txs + w.txs_per_block - 1) / w.txs_per_block;
    spec.conflict_percent = w.conflict_percent;
    spec.seed = seed;
    fixture = workload::make_stream_fixture(spec);
  } else {
    workload::ZipfSpec spec;
    spec.scenario = workload::ZipfScenario::kTokenTransfers;
    spec.accounts = w.accounts;
    spec.skew = 0.9;  // Real chain-traffic skew (see workload::ZipfSpec).
    spec.transactions = total_txs;
    spec.seed = seed;
    fixture = workload::make_zipf_fixture(spec);
  }

  Inputs inputs;
  inputs.genesis = std::move(fixture.world);
  inputs.txs = std::move(fixture.transactions);
  inputs.token = fixture.token;
  inputs.read_keys.reserve(inputs.txs.size());
  for (const chain::Transaction& tx : inputs.txs) inputs.read_keys.push_back(tx.sender);
  return inputs;
}

}  // namespace concord::e2e
