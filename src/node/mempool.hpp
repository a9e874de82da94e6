#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "chain/transaction.hpp"
#include "util/sha256.hpp"

namespace concord::node {

/// When the mempool cuts a block-sized batch. A batch closes as soon as
/// either target is reached; gas is accumulated from each transaction's
/// gas_limit (the only a-priori cost bound a node has before executing).
/// Both policies cut on queue *content*, never on timing, so a given
/// submission order always yields the same batch boundaries — the node's
/// determinism guarantee starts here.
struct BatchPolicy {
  std::size_t target_txs = 100;  ///< Cut after this many transactions.
  /// 0 = no gas bound; else cut at the first transaction whose gas_limit
  /// brings the batch to or past the target (so a batch may overshoot by
  /// up to one transaction's gas_limit — the target is a trigger, not a
  /// hard ceiling).
  std::uint64_t target_gas = 0;
  /// Canonical content ordering: queue and cut in transaction-hash order
  /// instead of arrival order. With this, the batches a given queue
  /// *content* yields are independent even of the submission order — the
  /// strongest determinism the pool offers (the shuffled-arrival chain
  /// test runs on it). Off by default: arrival-order FIFO is the fair
  /// policy a real ingress wants, and it is still a pure function of the
  /// submission order.
  bool content_order = false;
};

/// Counters describing the pool's lifetime traffic.
struct MempoolStats {
  std::uint64_t submitted = 0;   ///< Transactions accepted by submit().
  /// Transactions refused because the pool was closed — including the
  /// undelivered tail of a submit_many() stopped mid-stream.
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;     ///< Batches handed to the miner.
  std::size_t high_water = 0;    ///< Max transactions queued at once.
};

/// Thread-safe transaction queue with block batching — the node's
/// ingress stage. Any number of producer threads submit(); one miner
/// thread consumes next_batch(). Producers block while the pool is at
/// capacity (backpressure instead of unbounded memory under sustained
/// overload); the consumer blocks until a full batch is available or the
/// pool is closed, at which point the remainder drains as a final short
/// batch. The queue is kept in one global order: arrival, or content hash
/// under BatchPolicy::content_order.
class Mempool {
 public:
  /// `capacity` == 0 means unbounded (no producer backpressure). A
  /// bounded capacity must fit a full tx-count batch — otherwise
  /// producers would block at capacity while next_batch() waits for a
  /// count that can never be reached (throws std::invalid_argument).
  /// A target_gas unreachable within `capacity` transactions deadlocks
  /// the same way; the tx-count target (always enforced) is the cap's
  /// safety net, so keep target_txs ≤ capacity sized realistically.
  explicit Mempool(BatchPolicy policy = {}, std::size_t capacity = 0);

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  /// Enqueues one transaction, blocking while the pool is full. Returns
  /// false (and drops the transaction) when the pool is closed.
  bool submit(chain::Transaction tx);

  /// Enqueues a stream in order; returns how many were accepted (all of
  /// them unless the pool closes mid-stream, in which case the whole
  /// undelivered tail counts as rejected).
  std::size_t submit_many(std::vector<chain::Transaction> txs);

  /// Blocks until a policy-complete batch is available, then pops it off
  /// the queue front. After close(), drains whatever remains as one final
  /// (possibly short) batch; returns nullopt once closed *and* empty —
  /// the miner's shutdown signal.
  [[nodiscard]] std::optional<std::vector<chain::Transaction>> next_batch();

  /// Stops accepting submissions and wakes every waiter. Idempotent.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const BatchPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] MempoolStats stats() const;

 private:
  /// One queued transaction; `content` is its hash, computed only under
  /// content_order.
  struct Entry {
    util::Hash256 content{};
    chain::Transaction tx;
  };

  /// Caller holds mu_. True when the queued content satisfies the policy.
  [[nodiscard]] bool batch_ready() const;

  /// Caller holds mu_. Pops the policy-sized prefix of the queue.
  [[nodiscard]] std::vector<chain::Transaction> cut_batch();

  BatchPolicy policy_;
  std::size_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable space_available_;  ///< Producers wait here when full.
  std::condition_variable batch_available_;  ///< The miner waits here when starved.
  std::deque<Entry> queue_;       ///< In global order.
  std::uint64_t queued_gas_ = 0;  ///< Sum of gas_limit over the queue (O(1) readiness check).
  bool closed_ = false;
  MempoolStats stats_;
};

}  // namespace concord::node
