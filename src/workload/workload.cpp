#include "workload/workload.hpp"

#include <algorithm>
#include <cassert>

#include "contracts/ballot.hpp"
#include "contracts/etherdoc.hpp"
#include "contracts/simple_auction.hpp"
#include "contracts/token.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace concord::workload {

namespace {

using contracts::Ballot;
using contracts::EtherDoc;
using contracts::SimpleAuction;
using contracts::Token;

// Address salts keep the actors of different benchmarks distinct even
// when a Mixed fixture deploys all three contracts into one world.
constexpr std::uint8_t kContractSalt = 0xCC;
constexpr std::uint8_t kVoterSalt = 0x01;
constexpr std::uint8_t kBidderSalt = 0x02;
constexpr std::uint8_t kOwnerSalt = 0x03;
constexpr std::uint8_t kPersonaSalt = 0x04;  // chairpersons, beneficiaries, creators
constexpr std::uint8_t kAccountSalt = 0x05;  // Zipf-workload account space

const vm::Address kBallotAddr = vm::Address::from_u64(1, kContractSalt);
const vm::Address kAuctionAddr = vm::Address::from_u64(2, kContractSalt);
const vm::Address kEtherDocAddr = vm::Address::from_u64(3, kContractSalt);
const vm::Address kTokenAddr = vm::Address::from_u64(4, kContractSalt);

const vm::Address kChairperson = vm::Address::from_u64(1, kPersonaSalt);
const vm::Address kBeneficiary = vm::Address::from_u64(2, kPersonaSalt);
const vm::Address kCreator = vm::Address::from_u64(3, kPersonaSalt);
const vm::Address kIssuer = vm::Address::from_u64(4, kPersonaSalt);

/// Account `rank` of a Zipf fixture (rank 0 = hottest).
[[nodiscard]] vm::Address account_addr(std::uint64_t rank) {
  return vm::Address::from_u64(rank, kAccountSalt);
}

/// Fisher–Yates with the fixture RNG: block order is deterministic per
/// seed but uncorrelated with how conflicts were laid out.
void shuffle(std::vector<chain::Transaction>& txs, util::Rng& rng) {
  for (std::size_t i = txs.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(txs[i - 1], txs[j]);
  }
}

/// Ballot (§7.1): "All block transactions for this benchmark are requests
/// to vote on the same proposal. To add data conflict, some voters attempt
/// to double-vote, creating two transactions that contend for the same
/// voter data. 100% data conflict occurs when all voters attempt to vote
/// twice."
void build_ballot(vm::World& world, const WorkloadSpec& spec, std::uint64_t actor_base,
                  std::vector<chain::Transaction>& out) {
  const std::size_t n = spec.transactions;
  const std::size_t conflicting = conflicting_tx_count(n, spec.conflict_percent);
  const std::size_t pairs = conflicting / 2;
  const std::size_t singles = n - 2 * pairs;

  auto ballot = std::make_unique<Ballot>(
      kBallotAddr, kChairperson,
      std::vector<std::string>{"proposal-alpha", "proposal-beta", "proposal-gamma"});
  // "For all benchmarks, the contract is put into an initial state where
  // voters are already registered."
  for (std::size_t v = 0; v < pairs + singles; ++v) {
    ballot->raw_register_voter(vm::Address::from_u64(actor_base + v, kVoterSalt), 1);
  }
  world.contracts().add(std::move(ballot));

  std::size_t voter = 0;
  for (std::size_t p = 0; p < pairs; ++p, ++voter) {
    const vm::Address a = vm::Address::from_u64(actor_base + voter, kVoterSalt);
    out.push_back(Ballot::make_vote_tx(kBallotAddr, a, 0));
    out.push_back(Ballot::make_vote_tx(kBallotAddr, a, 0));  // The double vote.
  }
  for (std::size_t s = 0; s < singles; ++s, ++voter) {
    const vm::Address a = vm::Address::from_u64(actor_base + voter, kVoterSalt);
    out.push_back(Ballot::make_vote_tx(kBallotAddr, a, 0));
  }
}

/// SimpleAuction (§7.1): "the contract state is initialized by several
/// bidders entering a bid. The block consists of transactions that
/// withdraw these bids. Data conflict is added by including new bidders
/// who call bidPlusOne() to read and increase the highest bid... 100% data
/// conflict happens when all transactions are bidPlusOne() bids."
void build_auction(vm::World& world, const WorkloadSpec& spec, std::uint64_t actor_base,
                   std::vector<chain::Transaction>& out) {
  const std::size_t n = spec.transactions;
  const std::size_t conflicting = conflicting_tx_count(n, spec.conflict_percent);
  const std::size_t withdrawers = n - conflicting;
  constexpr vm::Amount kSeedBid = 100;

  auto auction = std::make_unique<SimpleAuction>(kAuctionAddr, kBeneficiary);
  vm::Amount escrow = 0;
  for (std::size_t w = 0; w < withdrawers; ++w) {
    auction->raw_add_pending(vm::Address::from_u64(actor_base + w, kBidderSalt), kSeedBid);
    escrow += kSeedBid;
  }
  // A standing leader so bidPlusOne always has someone to outbid.
  const vm::Address seed_leader = vm::Address::from_u64(actor_base + 900'000, kBidderSalt);
  auction->raw_set_highest(seed_leader, 1'000);
  escrow += 1'000;
  world.contracts().add(std::move(auction));
  // The auction contract holds the escrowed funds it will pay out.
  world.balances().raw_set(kAuctionAddr, world.balances().raw_get(kAuctionAddr) + escrow);

  for (std::size_t w = 0; w < withdrawers; ++w) {
    out.push_back(SimpleAuction::make_withdraw_tx(
        kAuctionAddr, vm::Address::from_u64(actor_base + w, kBidderSalt)));
  }
  for (std::size_t c = 0; c < conflicting; ++c) {
    // Fresh bidders, distinct from withdrawers: their only contention is
    // the shared highestBid/highestBidder scalars.
    out.push_back(SimpleAuction::make_bid_plus_one_tx(
        kAuctionAddr, vm::Address::from_u64(actor_base + 1'000'000 + c, kBidderSalt)));
  }
}

/// EtherDoc (§7.1): "the contract is initialized with a number of
/// documents and owners. Transactions consist of owners checking the
/// existence of the document by hashcode. Data conflict is added by
/// including transactions that transfer ownership to the contract
/// creator... 100% data conflict happens when all transactions are
/// transfers."
void build_etherdoc(vm::World& world, const WorkloadSpec& spec, std::uint64_t actor_base,
                    std::vector<chain::Transaction>& out) {
  const std::size_t n = spec.transactions;
  const std::size_t conflicting = conflicting_tx_count(n, spec.conflict_percent);
  const std::size_t lookups = n - conflicting;

  auto etherdoc = std::make_unique<EtherDoc>(kEtherDocAddr, kCreator);
  // One document per transaction, each with its own owner: lookups touch
  // disjoint documents; transfers conflict only through the creator's
  // document list.
  for (std::size_t d = 0; d < n; ++d) {
    etherdoc->raw_add_document(actor_base + d,
                               vm::Address::from_u64(actor_base + d, kOwnerSalt));
  }
  world.contracts().add(std::move(etherdoc));

  for (std::size_t d = 0; d < lookups; ++d) {
    out.push_back(EtherDoc::make_exists_tx(
        kEtherDocAddr, vm::Address::from_u64(actor_base + d, kOwnerSalt), actor_base + d));
  }
  for (std::size_t d = lookups; d < n; ++d) {
    out.push_back(EtherDoc::make_transfer_tx(kEtherDocAddr,
                                             vm::Address::from_u64(actor_base + d, kOwnerSalt),
                                             actor_base + d, kCreator));
  }
}

/// Deploys a Token provisioned with `accounts` seeded balances. Deploy
/// *first*, then seed: ContractRegistry::add binds the world's arena, so
/// the genesis pages themselves come out of the pool — at 1M accounts
/// genesis is most of the fixture's allocation traffic. The bulk seed
/// sizes the directory once and fills each page once.
Token& deploy_seeded_token(vm::World& world, std::size_t accounts, vm::Amount seed_balance) {
  auto& token = static_cast<Token&>(
      world.contracts().add(std::make_unique<Token>(kTokenAddr, "ZPF", kIssuer)));
  token.raw_seed_balances(accounts, account_addr, seed_balance);
  return token;
}

/// kTokenTransfers: skew → sender-side WRITE contention, uniform page
/// pressure across the whole table.
void build_zipf_transfers(vm::World& world, const ZipfSpec& spec, util::Rng& rng,
                          std::vector<chain::Transaction>& out) {
  constexpr vm::Amount kSeedBalance = 1'000'000;
  deploy_seeded_token(world, spec.accounts, kSeedBalance);
  const util::ZipfSampler zipf(spec.accounts, spec.skew);
  for (std::size_t t = 0; t < spec.transactions; ++t) {
    const vm::Address sender = account_addr(zipf.sample(rng));
    const vm::Address to = account_addr(zipf.sample(rng));
    out.push_back(Token::make_transfer_tx(kTokenAddr, sender, to, 1));
  }
}

/// kHotPool: conflict_percent of the block hits the shared pool scalars
/// (bidPlusOne), the rest withdraw their escrowed stake — the AMM shape:
/// a tiny redline-hot core inside a huge cold table.
void build_zipf_hot_pool(vm::World& world, const ZipfSpec& spec, util::Rng& rng,
                         std::vector<chain::Transaction>& out) {
  constexpr vm::Amount kSeedBid = 100;
  auto& auction = static_cast<SimpleAuction&>(
      world.contracts().add(std::make_unique<SimpleAuction>(kAuctionAddr, kBeneficiary)));
  auction.raw_seed_pending(spec.accounts, account_addr, kSeedBid);
  const vm::Address seed_leader = account_addr(spec.accounts);  // Outside the bidder range.
  auction.raw_set_highest(seed_leader, 1'000);
  const auto escrow =
      static_cast<vm::Amount>(spec.accounts) * kSeedBid + 1'000;
  world.balances().raw_set(kAuctionAddr, escrow);

  const std::size_t pool_txs =
      spec.transactions * std::min(spec.conflict_percent, 100u) / 100;
  const util::ZipfSampler zipf(spec.accounts, spec.skew);
  // Every pool bid comes from one whale outside the withdrawer range.
  // bid-plus-one refunds the previous leader, so *distinct* bidders
  // would make the refund ledger depend on the miner's commit order and
  // the final root would vary run to run — the arena ablation's
  // byte-identical-roots check needs order-independent state. A whale
  // rebidding against itself keeps the scalars exactly as contended
  // (each bid still takes the exclusive for-update lock) while any
  // serial order of its identical transactions lands on the same state.
  const vm::Address whale = account_addr(spec.accounts + 1);
  for (std::size_t t = 0; t < spec.transactions; ++t) {
    if (t < pool_txs) {
      out.push_back(SimpleAuction::make_bid_plus_one_tx(kAuctionAddr, whale));
    } else {
      // Zipf-drawn withdrawers. A repeated draw withdraws an
      // already-zeroed slot — a no-op by the withdrawal pattern — which
      // mirrors real traffic re-touching a hot account.
      out.push_back(
          SimpleAuction::make_withdraw_tx(kAuctionAddr, account_addr(zipf.sample(rng))));
    }
  }
}

/// kAirdrop: every transaction credits a previously-unseen account, so
/// the block is pure table growth — insert traffic, page splits and
/// directory doubling over a table that is already `accounts` large.
void build_zipf_airdrop(vm::World& world, const ZipfSpec& spec, util::Rng& rng,
                        std::vector<chain::Transaction>& out) {
  constexpr vm::Amount kSeedBalance = 1'000'000;
  (void)rng;  // Recipients are sequential-fresh; nothing to draw.
  deploy_seeded_token(world, spec.accounts, kSeedBalance);
  for (std::size_t t = 0; t < spec.transactions; ++t) {
    out.push_back(
        Token::make_mint_tx(kTokenAddr, kIssuer, account_addr(spec.accounts + t), 1));
  }
}

}  // namespace

std::string_view to_string(BenchmarkKind kind) noexcept {
  switch (kind) {
    case BenchmarkKind::kBallot: return "Ballot";
    case BenchmarkKind::kSimpleAuction: return "SimpleAuction";
    case BenchmarkKind::kEtherDoc: return "EtherDoc";
    case BenchmarkKind::kMixed: return "Mixed";
  }
  return "?";
}

std::size_t conflicting_tx_count(std::size_t transactions, unsigned conflict_percent) {
  std::size_t count = transactions * conflict_percent / 100;
  if (count % 2 != 0) ++count;  // Conflicts come in pairs at minimum.
  return std::min(count, transactions - transactions % 2);
}

chain::Block Fixture::genesis() const {
  chain::Block genesis;
  genesis.header.number = 0;
  genesis.header.state_root = world->state_root();
  genesis.header.tx_root = genesis.compute_tx_root();
  genesis.header.status_root = genesis.compute_status_root();
  genesis.header.schedule_hash = genesis.schedule.hash();
  return genesis;
}

Fixture make_stream_fixture(const StreamSpec& spec) {
  // A stream is a single oversized workload cut into blocks downstream:
  // conflicts are laid out across the whole stream (a conflicting pair
  // may straddle a block boundary), which is exactly the regime a real
  // mempool produces — contention does not respect block edges.
  WorkloadSpec flat;
  flat.kind = spec.kind;
  flat.transactions = spec.total_transactions();
  flat.conflict_percent = spec.conflict_percent;
  flat.seed = spec.seed;
  flat.use_arena = spec.use_arena;
  return make_fixture(flat);
}

std::string_view to_string(ZipfScenario scenario) noexcept {
  switch (scenario) {
    case ZipfScenario::kTokenTransfers: return "TokenTransfers";
    case ZipfScenario::kHotPool: return "HotPool";
    case ZipfScenario::kAirdrop: return "Airdrop";
  }
  return "?";
}

Fixture make_zipf_fixture(const ZipfSpec& spec) {
  Fixture fixture;
  fixture.world = std::make_unique<vm::World>(spec.use_arena ? vm::make_arena()
                                                             : vm::ArenaHandle{});
  // Salt the RNG stream per scenario so e.g. HotPool and TokenTransfers
  // at the same seed draw uncorrelated sequences.
  util::Rng rng(spec.seed ^ 0x5A1Full ^ (static_cast<std::uint64_t>(spec.scenario) << 56));

  switch (spec.scenario) {
    case ZipfScenario::kTokenTransfers:
      build_zipf_transfers(*fixture.world, spec, rng, fixture.transactions);
      fixture.token = kTokenAddr;
      break;
    case ZipfScenario::kHotPool:
      build_zipf_hot_pool(*fixture.world, spec, rng, fixture.transactions);
      fixture.auction = kAuctionAddr;
      break;
    case ZipfScenario::kAirdrop:
      build_zipf_airdrop(*fixture.world, spec, rng, fixture.transactions);
      fixture.token = kTokenAddr;
      break;
  }

  shuffle(fixture.transactions, rng);
  return fixture;
}

Fixture make_fixture(const WorkloadSpec& spec) {
  Fixture fixture;
  fixture.world = std::make_unique<vm::World>(spec.use_arena ? vm::make_arena()
                                                             : vm::ArenaHandle{});
  util::Rng rng(spec.seed ^ (static_cast<std::uint64_t>(spec.kind) << 56));

  switch (spec.kind) {
    case BenchmarkKind::kBallot:
      build_ballot(*fixture.world, spec, 0, fixture.transactions);
      fixture.ballot = kBallotAddr;
      break;
    case BenchmarkKind::kSimpleAuction:
      build_auction(*fixture.world, spec, 0, fixture.transactions);
      fixture.auction = kAuctionAddr;
      break;
    case BenchmarkKind::kEtherDoc:
      build_etherdoc(*fixture.world, spec, 0, fixture.transactions);
      fixture.etherdoc = kEtherDocAddr;
      break;
    case BenchmarkKind::kMixed: {
      // "This benchmark combines transactions on the above smart
      // contracts in equal proportions, and data conflict is added the
      // same way in equal proportions from their corresponding
      // benchmarks."
      WorkloadSpec third = spec;
      third.transactions = spec.transactions / 3;
      WorkloadSpec first = third;
      first.transactions += spec.transactions - 3 * third.transactions;  // Remainder.
      build_ballot(*fixture.world, first, 0, fixture.transactions);
      build_auction(*fixture.world, third, 10'000'000, fixture.transactions);
      build_etherdoc(*fixture.world, third, 20'000'000, fixture.transactions);
      fixture.ballot = kBallotAddr;
      fixture.auction = kAuctionAddr;
      fixture.etherdoc = kEtherDocAddr;
      break;
    }
  }

  shuffle(fixture.transactions, rng);
  return fixture;
}

}  // namespace concord::workload
