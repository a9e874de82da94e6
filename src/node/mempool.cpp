#include "node/mempool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace concord::node {

Mempool::Mempool(BatchPolicy policy, std::size_t capacity)
    : policy_(policy), capacity_(capacity) {
  if (policy_.target_txs == 0) {
    throw std::invalid_argument("mempool: target_txs must be positive");
  }
  if (capacity_ != 0 && capacity_ < policy_.target_txs) {
    throw std::invalid_argument(
        "mempool: capacity smaller than target_txs would deadlock producers "
        "against a batch that can never fill");
  }
}

bool Mempool::submit(chain::Transaction tx) {
  std::unique_lock lk(mu_);
  space_available_.wait(
      lk, [this] { return closed_ || capacity_ == 0 || queue_.size() < capacity_; });
  if (closed_) {
    ++stats_.rejected;
    return false;
  }
  queued_gas_ += tx.gas_limit;
  ++stats_.submitted;
  if (policy_.content_order) {
    // Canonical order is not arrival order: insert at the sorted position,
    // after any equal hash so duplicates keep their arrival order.
    Entry entry{tx.hash(), std::move(tx)};
    const auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), entry,
        [](const Entry& a, const Entry& b) { return a.content < b.content; });
    queue_.insert(pos, std::move(entry));
  } else {
    queue_.push_back(Entry{{}, std::move(tx)});
  }
  stats_.high_water = std::max(stats_.high_water, queue_.size());
  lk.unlock();
  batch_available_.notify_one();
  return true;
}

std::size_t Mempool::submit_many(std::vector<chain::Transaction> txs) {
  std::size_t accepted = 0;
  for (auto& tx : txs) {
    if (!submit(std::move(tx))) {
      // submit() counted the rejection that stopped us; the undelivered
      // tail is dropped here, so it is rejected traffic too.
      const std::size_t dropped = txs.size() - accepted - 1;
      if (dropped > 0) {
        std::scoped_lock lk(mu_);
        stats_.rejected += dropped;
      }
      break;
    }
    ++accepted;
  }
  return accepted;
}

std::optional<std::vector<chain::Transaction>> Mempool::next_batch() {
  std::unique_lock lk(mu_);
  batch_available_.wait(lk, [this] { return batch_ready() || closed_; });
  if (queue_.empty()) return std::nullopt;  // Closed and fully drained.
  std::vector<chain::Transaction> batch = cut_batch();
  ++stats_.batches;
  lk.unlock();
  space_available_.notify_all();
  return batch;
}

void Mempool::close() {
  {
    std::scoped_lock lk(mu_);
    closed_ = true;
  }
  batch_available_.notify_all();
  space_available_.notify_all();
}

bool Mempool::closed() const {
  std::scoped_lock lk(mu_);
  return closed_;
}

std::size_t Mempool::size() const {
  std::scoped_lock lk(mu_);
  return queue_.size();
}

MempoolStats Mempool::stats() const {
  std::scoped_lock lk(mu_);
  return stats_;
}

bool Mempool::batch_ready() const {
  // Both cut rules are monotone in queue content (a complete prefix stays
  // complete as more transactions arrive), so batch boundaries depend only
  // on the submission order, never on consumer/producer timing. Gas
  // readiness compares the running queue total: gas limits are
  // non-negative, so total ≥ target implies some prefix reaches the
  // target — no per-wakeup queue walk needed.
  if (queue_.size() >= policy_.target_txs) return true;
  return policy_.target_gas != 0 && queued_gas_ >= policy_.target_gas;
}

std::vector<chain::Transaction> Mempool::cut_batch() {
  std::vector<chain::Transaction> batch;
  std::uint64_t gas = 0;
  while (!queue_.empty() && batch.size() < policy_.target_txs) {
    chain::Transaction tx = std::move(queue_.front().tx);
    queue_.pop_front();
    gas += tx.gas_limit;
    queued_gas_ -= tx.gas_limit;
    batch.push_back(std::move(tx));
    if (policy_.target_gas != 0 && gas >= policy_.target_gas) break;
  }
  return batch;
}

}  // namespace concord::node
