#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "chain/transaction.hpp"
#include "vm/boosted_counter_map.hpp"
#include "vm/contract.hpp"
#include "vm/errors.hpp"

namespace concord::contracts {

/// A minimal fungible-token contract (ERC20-style balances + transfer).
/// Not one of the paper's three benchmarks — it exists to exercise the
/// parts of the runtime they do not: cross-contract calls target it from
/// PaymentSplitter (nested speculative actions), and its transfer path is
/// the canonical example of boosting's judgment call between a
/// commutative credit and a checked, serializing debit.
class Token final : public vm::Contract {
 public:
  static constexpr vm::Selector kTransfer = 1;
  static constexpr vm::Selector kMint = 2;
  static constexpr vm::Selector kBalanceOf = 3;

  Token(vm::Address address, std::string symbol, vm::Address issuer);

  void execute(const vm::Call& call, vm::ExecContext& ctx) override;
  void hash_state(vm::StateHasher& hasher) const override;
  [[nodiscard]] std::unique_ptr<vm::Contract> fork() const override;
  void bind_arena(const vm::ArenaHandle& arena) override { balances_.set_arena(arena); }

  /// Pre-sizes the balance table for `holders` accounts (genesis seeding
  /// of million-account worlds; see CowPages::reserve).
  void raw_reserve(std::size_t holders) { balances_.raw_reserve(holders); }

  /// Moves `amount` from msg.sender to `to`. The debit reads the sender's
  /// balance (overdraft check) and writes it — an exclusive for-update
  /// access — while the credit is a commutative add, so transfers with
  /// distinct senders and any receivers run in parallel.
  void transfer(vm::ExecContext& ctx, const vm::Address& to, vm::Amount amount);

  /// Issues new tokens; only the issuer may call.
  void mint(vm::ExecContext& ctx, const vm::Address& to, vm::Amount amount);

  [[nodiscard]] vm::Amount balance_of(vm::ExecContext& ctx, const vm::Address& who) const;

  // --- Genesis & inspection --------------------------------------------
  void raw_mint(const vm::Address& to, vm::Amount amount);
  void raw_set_balance(const vm::Address& who, vm::Amount amount) {
    balances_.raw_set(who, amount);
  }
  /// Gives `amount` to each of `holders` accounts, address_at(0..holders-1),
  /// in one pass (vm::BoostedCounterMap::raw_seed). Precondition: the
  /// accounts hold no balance yet and are distinct.
  template <typename AddressAt>
  void raw_seed_balances(std::size_t holders, AddressAt&& address_at, vm::Amount amount) {
    balances_.raw_seed(holders, std::forward<AddressAt>(address_at), amount);
  }
  [[nodiscard]] vm::Amount raw_balance(const vm::Address& who) const {
    return balances_.raw_get(who);
  }
  [[nodiscard]] vm::Amount raw_total_supply() const { return balances_.raw_total(); }
  /// Accounts holding a non-zero balance (the Zipf fixtures seed one per
  /// genesis account).
  [[nodiscard]] std::size_t holder_count() const { return balances_.size(); }
  [[nodiscard]] const std::string& symbol() const noexcept { return symbol_; }
  [[nodiscard]] const vm::Address& issuer() const noexcept { return issuer_; }

  // --- Transaction builders --------------------------------------------
  [[nodiscard]] static chain::Transaction make_transfer_tx(const vm::Address& contract,
                                                           const vm::Address& sender,
                                                           const vm::Address& to,
                                                           vm::Amount amount);
  [[nodiscard]] static chain::Transaction make_mint_tx(const vm::Address& contract,
                                                       const vm::Address& issuer,
                                                       const vm::Address& to, vm::Amount amount);

 private:
  static constexpr std::uint64_t kTransferComputeGas = 3'000;

  const std::string symbol_;   ///< Immutable after genesis.
  const vm::Address issuer_;   ///< Immutable after genesis.
  vm::BoostedCounterMap<vm::Address> balances_;
};

}  // namespace concord::contracts
