#pragma once

#include <cstdint>
#include <utility>

#include "chain/transaction.hpp"
#include "vm/boosted_counter_map.hpp"
#include "vm/boosted_scalar.hpp"
#include "vm/contract.hpp"
#include "vm/errors.hpp"

namespace concord::contracts {

/// The SimpleAuction contract from the Solidity documentation (paper
/// §7.1): "There is a single owner who initiates the auction, while any
/// participant can place bids with the bid() method. A mapping tracks how
/// much money needs to be returned to which bidder once the auction is
/// over. Bidders can then withdraw() their money."
///
/// Conflict structure:
///  - withdraw() touches only the caller's own pendingReturns slot, so
///    withdrawals from distinct bidders commute — the benchmark's
///    parallel-friendly transactions.
///  - bid()/bidPlusOne() read and then overwrite `highestBid` and
///    `highestBidder`, so *every pair* of them conflicts on the same two
///    scalars — the benchmark's conflict generator ("all contending
///    transactions touch the same shared data, so we expect a faster
///    drop-off in speedup with increased data conflict").
///  - outbidding credits the previous leader's pendingReturns with a
///    commutative add.
class SimpleAuction final : public vm::Contract {
 public:
  static constexpr vm::Selector kBid = 1;
  static constexpr vm::Selector kWithdraw = 2;
  static constexpr vm::Selector kBidPlusOne = 3;
  static constexpr vm::Selector kAuctionEnd = 4;

  SimpleAuction(vm::Address address, vm::Address beneficiary);

  void execute(const vm::Call& call, vm::ExecContext& ctx) override;
  void hash_state(vm::StateHasher& hasher) const override;
  [[nodiscard]] std::unique_ptr<vm::Contract> fork() const override;
  void bind_arena(const vm::ArenaHandle& arena) override {
    highest_bidder_.set_arena(arena);
    highest_bid_.set_arena(arena);
    pending_returns_.set_arena(arena);
    ended_.set_arena(arena);
  }

  // --- Typed API --------------------------------------------------------

  /// Places a bid of msg.value; reverts unless it beats the current
  /// highest. The outbid leader's stake moves to pendingReturns.
  void bid(vm::ExecContext& ctx);

  /// Returns the caller's refundable balance to their account.
  void withdraw(vm::ExecContext& ctx);

  /// The benchmark's conflict transaction: reads the current highest bid
  /// and outbids it by exactly one unit (paper §7.1: "new bidders who call
  /// bidPlusOne() to read and increase the highest bid").
  void bid_plus_one(vm::ExecContext& ctx);

  /// Closes the auction and pays the beneficiary.
  void auction_end(vm::ExecContext& ctx);

  // --- Genesis & inspection --------------------------------------------

  /// Seeds the auction as if `bidder` had bid `amount` (genesis only).
  void raw_set_highest(const vm::Address& bidder, vm::Amount amount);
  /// Seeds a refundable balance (genesis only).
  void raw_add_pending(const vm::Address& bidder, vm::Amount amount);
  /// Seeds `amount` for each of `bidders` bidders, bidder_at(0..bidders-1),
  /// in one pass (vm::BoostedCounterMap::raw_seed). Precondition: the
  /// bidders have nothing pending yet and are distinct.
  template <typename AddressAt>
  void raw_seed_pending(std::size_t bidders, AddressAt&& bidder_at, vm::Amount amount) {
    pending_returns_.raw_seed(bidders, std::forward<AddressAt>(bidder_at), amount);
  }

  [[nodiscard]] vm::Amount raw_highest_bid() const { return highest_bid_.raw_get(); }
  [[nodiscard]] vm::Address raw_highest_bidder() const { return highest_bidder_.raw_get(); }
  [[nodiscard]] vm::Amount raw_pending(const vm::Address& bidder) const {
    return pending_returns_.raw_get(bidder);
  }
  [[nodiscard]] bool raw_ended() const { return ended_.raw_get(); }
  [[nodiscard]] const vm::Address& beneficiary() const noexcept { return beneficiary_; }

  // --- Transaction builders --------------------------------------------

  [[nodiscard]] static chain::Transaction make_bid_tx(const vm::Address& contract,
                                                      const vm::Address& sender,
                                                      vm::Amount amount);
  [[nodiscard]] static chain::Transaction make_withdraw_tx(const vm::Address& contract,
                                                           const vm::Address& sender);
  [[nodiscard]] static chain::Transaction make_bid_plus_one_tx(const vm::Address& contract,
                                                               const vm::Address& sender);
  [[nodiscard]] static chain::Transaction make_auction_end_tx(const vm::Address& contract,
                                                              const vm::Address& sender);

 private:
  static constexpr std::uint64_t kBidComputeGas = 3'500;
  static constexpr std::uint64_t kWithdrawComputeGas = 3'500;
  static constexpr std::uint64_t kEndComputeGas = 2'000;

  const vm::Address beneficiary_;  ///< Immutable after genesis.
  vm::BoostedScalar<vm::Address> highest_bidder_;
  vm::BoostedScalar<vm::Amount> highest_bid_;
  vm::BoostedCounterMap<vm::Address> pending_returns_;
  vm::BoostedScalar<bool> ended_;
};

}  // namespace concord::contracts
