// A full election lifecycle on the Ballot contract across three mined
// blocks: registration, a voting wave (with double-vote attempts and
// delegation), and the tally. Demonstrates that reverted transactions are
// first-class citizens of the published schedule: every validator replays
// them into the same failure.
//
// Build & run:  ./build/examples/ballot_election

#include <cstdio>
#include <memory>

#include "chain/blockchain.hpp"
#include "contracts/ballot.hpp"
#include "core/miner.hpp"
#include "core/validator.hpp"
#include "vm/world.hpp"

using namespace concord;

namespace {

const vm::Address kBallot = vm::Address::from_u64(1, 0xCC);
const vm::Address kChair = vm::Address::from_u64(999, 0x04);
constexpr std::uint64_t kVoters = 90;

vm::Address voter(std::uint64_t i) { return vm::Address::from_u64(i, 0x01); }

std::unique_ptr<vm::World> make_world() {
  auto world = std::make_unique<vm::World>();
  world->contracts().add(std::make_unique<contracts::Ballot>(
      kBallot, kChair,
      std::vector<std::string>{"expand-the-harbor", "build-the-library", "fix-the-roads"}));
  return world;
}

}  // namespace

int main() {
  auto world = make_world();
  chain::Blockchain chain(world->state_root());
  core::Miner miner(*world, core::MinerConfig{.threads = 3});

  // Block 1 — the chairperson registers every voter. All transactions
  // write distinct voter entries: embarrassingly parallel.
  std::vector<chain::Transaction> registrations;
  for (std::uint64_t v = 0; v < kVoters; ++v) {
    registrations.push_back(contracts::Ballot::make_give_right_tx(kBallot, kChair, voter(v)));
  }
  chain.append(miner.mine(registrations, chain.tip()));
  std::printf("block 1: %zu registrations, %zu happens-before edges\n", registrations.size(),
              chain.tip().schedule.to_graph(registrations.size()).edge_count());

  // Block 2 — voting. A third of the electorate delegates; a few voters
  // try to vote twice (those must revert, deterministically).
  std::vector<chain::Transaction> votes;
  for (std::uint64_t v = 0; v < 60; ++v) {
    votes.push_back(contracts::Ballot::make_vote_tx(kBallot, voter(v), v % 3));
  }
  for (std::uint64_t v = 60; v < kVoters; ++v) {
    votes.push_back(contracts::Ballot::make_delegate_tx(kBallot, voter(v), voter(v - 60)));
  }
  votes.push_back(contracts::Ballot::make_vote_tx(kBallot, voter(3), 0));  // Double vote.
  votes.push_back(contracts::Ballot::make_vote_tx(kBallot, voter(4), 0));  // Double vote.
  chain.append(miner.mine(votes, chain.tip()));

  std::size_t reverted = 0;
  for (const auto status : chain.tip().statuses) {
    reverted += status == vm::TxStatus::kReverted ? 1 : 0;
  }
  std::printf("block 2: %zu ballots (%zu reverted), %llu speculative attempts\n", votes.size(),
              reverted, static_cast<unsigned long long>(miner.last_stats().attempts));

  // Block 3 — close the election: one winningProposal() query.
  chain.append(miner.mine({contracts::Ballot::make_winning_proposal_tx(kBallot, kChair)},
                          chain.tip()));

  // An independent validator node replays the whole chain.
  auto replica = make_world();
  core::Validator validator(*replica, core::ValidatorConfig{.threads = 3});
  for (std::uint64_t b = 1; b <= chain.height(); ++b) {
    const auto report = validator.validate_parallel(chain.at(b));
    if (!report.ok) {
      std::printf("block %llu REJECTED: %s\n", static_cast<unsigned long long>(b),
                  std::string(core::to_string(report.reason)).c_str());
      return 1;
    }
  }
  std::printf("validator replayed %llu blocks successfully\n",
              static_cast<unsigned long long>(chain.height()));

  auto& ballot = replica->contracts().as<contracts::Ballot>(kBallot);
  for (std::size_t p = 0; p < ballot.proposal_count(); ++p) {
    std::printf("  %-20s %lld votes\n", ballot.proposal_names()[p].c_str(),
                static_cast<long long>(ballot.raw_vote_count(p)));
  }
  return 0;
}
