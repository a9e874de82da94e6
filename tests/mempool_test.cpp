#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "node/mempool.hpp"

namespace concord::node {
namespace {

chain::Transaction make_tx(std::uint64_t producer, std::uint32_t seq,
                           std::uint64_t gas_limit = vm::gas::kDefaultTxGasLimit) {
  chain::Transaction tx;
  tx.contract = vm::Address::from_u64(1, 0xAA);
  tx.sender = vm::Address::from_u64(producer, 0x01);
  tx.selector = seq;
  tx.gas_limit = gas_limit;
  return tx;
}

/// Like make_tx but spread across distinct contracts, so every
/// transaction hashes differently.
chain::Transaction make_contract_tx(std::uint64_t contract, std::uint32_t seq) {
  chain::Transaction tx = make_tx(0, seq);
  tx.contract = vm::Address::from_u64(contract, 0xAA);
  return tx;
}

std::vector<chain::Transaction> make_stream(std::size_t n) {
  std::vector<chain::Transaction> txs;
  txs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) txs.push_back(make_tx(0, static_cast<std::uint32_t>(i)));
  return txs;
}

// ------------------------------------------------------ Batch policy ---

TEST(Mempool, CutsBatchesAtTargetTxCount) {
  Mempool pool(BatchPolicy{.target_txs = 4});
  EXPECT_EQ(pool.submit_many(make_stream(10)), 10u);
  pool.close();

  auto first = pool.next_batch();
  auto second = pool.next_batch();
  auto remainder = pool.next_batch();
  ASSERT_TRUE(first && second && remainder);
  EXPECT_EQ(first->size(), 4u);
  EXPECT_EQ(second->size(), 4u);
  EXPECT_EQ(remainder->size(), 2u);  // Close drains the short tail.
  EXPECT_EQ(pool.next_batch(), std::nullopt);

  // FIFO: batches partition the stream in submission order.
  EXPECT_EQ((*first)[0].selector, 0u);
  EXPECT_EQ((*second)[0].selector, 4u);
  EXPECT_EQ((*remainder)[1].selector, 9u);
}

TEST(Mempool, CutsBatchesAtTargetGas) {
  Mempool pool(BatchPolicy{.target_txs = 100, .target_gas = 250});
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(pool.submit(make_tx(0, i, /*gas_limit=*/100)));
  }
  pool.close();

  // 100+100+100 ≥ 250 cuts after three transactions.
  auto first = pool.next_batch();
  auto second = pool.next_batch();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->size(), 3u);
  EXPECT_EQ(second->size(), 3u);
  EXPECT_EQ(pool.next_batch(), std::nullopt);
}

TEST(Mempool, RejectsDeadlockProneConfigs) {
  // A capacity that can't fit one full batch would block producers
  // against a batch count that can never be reached.
  EXPECT_THROW(Mempool(BatchPolicy{.target_txs = 10}, /*capacity=*/5), std::invalid_argument);
  EXPECT_THROW(Mempool(BatchPolicy{.target_txs = 0}), std::invalid_argument);
  EXPECT_NO_THROW(Mempool(BatchPolicy{.target_txs = 10}, /*capacity=*/10));
}

TEST(Mempool, SubmitAfterCloseIsRejected) {
  Mempool pool;
  pool.close();
  EXPECT_FALSE(pool.submit(make_tx(0, 0)));
  EXPECT_EQ(pool.next_batch(), std::nullopt);
  EXPECT_EQ(pool.stats().rejected, 1u);
}

TEST(Mempool, SubmitManyCountsDroppedTailAsRejected) {
  Mempool pool(BatchPolicy{.target_txs = 4});
  pool.close();
  // The first submit is refused (and counted) by submit(); the remaining
  // four are dropped by submit_many and must be counted as rejected too.
  EXPECT_EQ(pool.submit_many(make_stream(5)), 0u);
  const MempoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.rejected, 5u);
}

TEST(Mempool, SubmitManyOnOpenPoolRejectsNothing) {
  Mempool pool(BatchPolicy{.target_txs = 4});
  EXPECT_EQ(pool.submit_many(make_stream(5)), 5u);
  EXPECT_EQ(pool.stats().rejected, 0u);
}

TEST(Mempool, StatsCountTraffic) {
  Mempool pool(BatchPolicy{.target_txs = 5});
  EXPECT_EQ(pool.submit_many(make_stream(12)), 12u);
  pool.close();
  while (pool.next_batch()) {
  }
  const MempoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.high_water, 12u);
}

TEST(Mempool, ContentOrderCutsAreArrivalOrderIndependent) {
  std::vector<chain::Transaction> stream;
  for (std::uint32_t i = 0; i < 9; ++i) stream.push_back(make_contract_tx(i, i));
  std::vector<chain::Transaction> reversed(stream.rbegin(), stream.rend());

  Mempool forward(BatchPolicy{.target_txs = 4, .content_order = true});
  Mempool backward(BatchPolicy{.target_txs = 4, .content_order = true});
  EXPECT_EQ(forward.submit_many(stream), 9u);
  EXPECT_EQ(backward.submit_many(reversed), 9u);
  forward.close();
  backward.close();

  while (true) {
    const auto a = forward.next_batch();
    const auto b = backward.next_batch();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(*a, *b);  // Identical batches, element for element.
  }
}

// -------------------------------------- Concurrency (TSan-targeted) ---

TEST(MempoolConcurrency, ManyProducersOneConsumerLosesNothing) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 500;
  // Small capacity + small batches force constant blocking on both CVs.
  Mempool pool(BatchPolicy{.target_txs = 16}, /*capacity=*/32);

  std::vector<std::jthread> producers;
  producers.reserve(kProducers);
  std::atomic<std::uint64_t> accepted{0};
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &accepted, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        if (pool.submit(make_tx(p, i))) accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::jthread closer([&producers, &pool] {
    for (auto& producer : producers) producer.join();
    pool.close();
  });

  // Per producer, every sequence number exactly once and in order — the
  // queue must not reorder one producer's submissions.
  std::map<std::uint64_t, std::vector<std::uint32_t>> seen;
  std::uint64_t drained = 0;
  while (auto batch = pool.next_batch()) {
    for (const auto& tx : *batch) {
      seen[tx.sender.bytes[0]].push_back(tx.selector);
      ++drained;
    }
  }

  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
  EXPECT_EQ(drained, kProducers * kPerProducer);
  ASSERT_EQ(seen.size(), kProducers);
  for (const auto& [producer, selectors] : seen) {
    ASSERT_EQ(selectors.size(), kPerProducer);
    for (std::uint32_t i = 0; i < kPerProducer; ++i) EXPECT_EQ(selectors[i], i);
  }
  EXPECT_LE(pool.stats().high_water, 32u);
}

}  // namespace
}  // namespace concord::node
