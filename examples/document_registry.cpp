// A proof-of-existence registry on EtherDoc, demonstrating the tamper
// detection path: after mining an honest block, this example forges three
// dishonest variants — a lock profile that claims a read where the
// transaction writes (the "data race" case), a block claiming a wrong
// final state, and a flipped transaction outcome — and shows the validator
// rejecting each with a precise reason. Exits non-zero if the honest block
// is rejected or a forgery accepted.
//
// Build & run:  ./build/examples/document_registry

#include <cstdio>
#include <memory>

#include "contracts/etherdoc.hpp"
#include "core/miner.hpp"
#include "core/validator.hpp"
#include "util/sha256.hpp"
#include "vm/world.hpp"

using namespace concord;

namespace {

const vm::Address kRegistry = vm::Address::from_u64(3, 0xCC);
const vm::Address kNotary = vm::Address::from_u64(999, 0x04);
constexpr std::uint64_t kDocs = 40;

vm::Address owner(std::uint64_t i) { return vm::Address::from_u64(i, 0x03); }

std::unique_ptr<vm::World> make_world() {
  auto world = std::make_unique<vm::World>();
  auto registry = std::make_unique<contracts::EtherDoc>(kRegistry, kNotary);
  for (std::uint64_t d = 0; d < kDocs; ++d) {
    // Document hashcodes come from content digests, as EtherDoc intends.
    registry->raw_add_document(util::sha256("deed #" + std::to_string(d)).prefix64(), owner(d));
  }
  world->contracts().add(std::move(registry));
  return world;
}

chain::Block genesis_of(const vm::World& world) {
  chain::Block genesis;
  genesis.header.state_root = world.state_root();
  genesis.header.tx_root = genesis.compute_tx_root();
  genesis.header.status_root = genesis.compute_status_root();
  genesis.header.schedule_hash = genesis.schedule.hash();
  return genesis;
}

bool try_validate(const char* label, const chain::Block& block) {
  auto replica = make_world();
  core::Validator validator(*replica, core::ValidatorConfig{.threads = 3});
  const auto report = validator.validate_parallel(block);
  std::printf("%-24s → %s%s%s\n", label, report.ok ? "ACCEPTED" : "REJECTED: ",
              report.ok ? "" : std::string(core::to_string(report.reason)).c_str(),
              report.ok ? "" : (" (" + report.detail + ")").c_str());
  return report.ok;
}

/// Claims a read where the block's first write happened.
void weaken_first_write(chain::BlockSchedule& schedule) {
  for (auto& profile : schedule.profiles) {
    for (auto& entry : profile.entries) {
      if (entry.mode == stm::LockMode::kWrite) {
        entry.mode = stm::LockMode::kRead;
        return;
      }
    }
  }
}

}  // namespace

int main() {
  auto world = make_world();
  core::Miner miner(*world, core::MinerConfig{.threads = 3});

  // Half existence checks (parallel reads), half transfers to the notary
  // (all serialized on the notary's document list).
  std::vector<chain::Transaction> txs;
  for (std::uint64_t d = 0; d < kDocs; ++d) {
    const std::uint64_t hashcode = util::sha256("deed #" + std::to_string(d)).prefix64();
    if (d % 2 == 0) {
      txs.push_back(contracts::EtherDoc::make_exists_tx(kRegistry, owner(d), hashcode));
    } else {
      txs.push_back(contracts::EtherDoc::make_transfer_tx(kRegistry, owner(d), hashcode, kNotary));
    }
  }
  const chain::Block honest = miner.mine(txs, genesis_of(*world));
  std::printf("mined %zu txs: %zu schedule edges, %zu schedule bytes\n", txs.size(),
              honest.schedule.to_graph(txs.size()).edge_count(),
              miner.last_stats().schedule_bytes);

  const bool honest_ok = try_validate("honest block", honest);

  // Forgery 1: weaken a write in the published lock profiles to a read.
  // The validator derives the happens-before edges from the profiles, so
  // under-claiming a footprint is how a miner would publish a racy
  // schedule; the header is re-sealed so only the replay can catch it.
  chain::Block racy = honest;
  weaken_first_write(racy.schedule);
  racy.header.schedule_hash = racy.schedule.hash();
  const bool racy_ok = try_validate("weakened lock profile", racy);

  // Forgery 2: claim a different final state.
  chain::Block forged_state = honest;
  forged_state.header.state_root = util::sha256("not the real state");
  const bool state_ok = try_validate("forged state root", forged_state);

  // Forgery 3: flip one transaction's recorded outcome and re-seal.
  chain::Block forged_status = honest;
  forged_status.statuses[1] = vm::TxStatus::kReverted;
  forged_status.header.status_root = forged_status.compute_status_root();
  const bool status_ok = try_validate("forged tx status", forged_status);

  return honest_ok && !racy_ok && !state_ok && !status_ok ? 0 : 1;
}
