// Quickstart: the full miner → blockchain → validator pipeline in ~100
// lines. Deploys the Ballot contract, mines a block of votes speculatively
// in parallel (paper Algorithm 1), then re-validates it deterministically
// with a fork-join replay (Algorithm 2) on an independent "node".
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "chain/blockchain.hpp"
#include "contracts/ballot.hpp"
#include "core/miner.hpp"
#include "core/validator.hpp"
#include "vm/world.hpp"

using namespace concord;

namespace {

constexpr std::uint64_t kVoters = 64;
const vm::Address kBallotAddr = vm::Address::from_u64(1, 0xCC);
const vm::Address kChair = vm::Address::from_u64(1, 0x04);

/// Both the miner node and the validator node bootstrap the same genesis
/// state — in a real deployment this is the chain's prior state.
std::unique_ptr<vm::World> make_genesis_world() {
  auto world = std::make_unique<vm::World>();
  auto ballot = std::make_unique<contracts::Ballot>(
      kBallotAddr, kChair, std::vector<std::string>{"mountains", "seaside"});
  for (std::uint64_t v = 0; v < kVoters; ++v) {
    ballot->raw_register_voter(vm::Address::from_u64(v, 0x01), 1);
  }
  world->contracts().add(std::move(ballot));
  return world;
}

}  // namespace

int main() {
  // --- Miner node --------------------------------------------------------
  auto miner_world = make_genesis_world();
  chain::Blockchain chain(miner_world->state_root());

  // A block of votes; voter 7 tries to vote twice (the second must revert,
  // and must revert *deterministically* on every validator too).
  std::vector<chain::Transaction> txs;
  for (std::uint64_t v = 0; v < kVoters; ++v) {
    txs.push_back(contracts::Ballot::make_vote_tx(
        kBallotAddr, vm::Address::from_u64(v, 0x01), v % 2));
  }
  txs.push_back(contracts::Ballot::make_vote_tx(kBallotAddr, vm::Address::from_u64(7, 0x01), 0));

  core::Miner miner(*miner_world, core::MinerConfig{.threads = 3});
  const chain::Block block = miner.mine(txs, chain.tip());
  chain.append(block);

  const core::MinerStats& stats = miner.last_stats();
  std::printf("mined block #%llu: %zu txs, %llu speculative attempts, %llu conflict aborts\n",
              static_cast<unsigned long long>(block.header.number), block.transactions.size(),
              static_cast<unsigned long long>(stats.attempts),
              static_cast<unsigned long long>(stats.conflict_aborts));
  std::printf("published schedule: %zu bytes of lock profiles, %zu happens-before edges\n",
              stats.schedule_bytes,
              block.schedule.to_graph(block.transactions.size()).edge_count());
  std::printf("state root: %s\n", block.header.state_root.to_hex().c_str());

  // --- Validator node ------------------------------------------------------
  auto validator_world = make_genesis_world();
  core::Validator validator(*validator_world, core::ValidatorConfig{.threads = 3});
  const core::ValidationReport report = validator.validate_parallel(block);
  if (!report.ok) {
    std::printf("VALIDATION FAILED: %s (%s)\n",
                std::string(core::to_string(report.reason)).c_str(), report.detail.c_str());
    return 1;
  }
  std::printf("validator accepted the block (replayed %llu txs, %llu steals)\n",
              static_cast<unsigned long long>(report.replayed),
              static_cast<unsigned long long>(report.steals));

  // Inspect the outcome on the validator's copy of the state.
  auto& ballot = validator_world->contracts().as<contracts::Ballot>(kBallotAddr);
  std::printf("tallies: mountains=%lld seaside=%lld (double vote reverted as expected)\n",
              static_cast<long long>(ballot.raw_vote_count(0)),
              static_cast<long long>(ballot.raw_vote_count(1)));
  return 0;
}
