// The node pass: every workload on one topology in one process — a
// pipelined leader node::Node replicating to one follower
// (Node::run_follower) over net::PipeTransport through net::Leader.
// Writes enter at the leader's mempool; a transaction counts once the
// follower's on_block_accepted has fired for its block. In the open loop,
// readers query the follower's MVCC read path beside the writes.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "e2e.hpp"
#include "net/peer.hpp"
#include "net/replication.hpp"
#include "net/transport.hpp"
#include "node/node.hpp"
#include "util/rng.hpp"

namespace concord::e2e {

namespace {

constexpr std::size_t kMempoolBlocks = 4;  ///< Mempool capacity, in blocks.
constexpr std::size_t kReaders = 2;        ///< Open loop only, beside the writes.
constexpr std::size_t kReadSample = 200'000;  ///< Reservoir size per reader.
constexpr std::size_t kPinSample = 50'000;
constexpr std::size_t kReaderSpans = 20'000;  ///< Traced ops per reader (the rest are counted only).
constexpr std::uint64_t kPinLag = 4;          ///< Readers pin head − 4.
constexpr auto kDrainTimeout = std::chrono::seconds(60);

node::NodeConfig leader_config(const Workload& w) {
  node::NodeConfig config;
  config.miner = stage_miner_config();
  config.validator = stage_validator_config();
  config.batch.target_txs = w.txs_per_block;
  config.mempool_capacity = kMempoolBlocks * w.txs_per_block;
  config.pipelined = true;
  config.pipeline_depth = 2;
  config.mine_shards = 1;
  config.retain_snapshots = 8;
  return config;
}

node::NodeConfig follower_config() {
  node::NodeConfig config;
  config.miner = stage_miner_config();
  config.miner.threads = 1;  // A follower never mines; its pool idles.
  config.validator = stage_validator_config();
  config.retain_snapshots = 8;
  return config;
}

/// Per-block timestamps from the node hooks. Each vector has exactly one
/// writer thread; the bench reads them only after that thread joined.
struct BlockTimes {
  std::vector<Clock::time_point> mined;            ///< post_mine_hook (leader miner).
  std::vector<Clock::time_point> validating;       ///< pre_validate_hook (leader validator).
  std::vector<Clock::time_point> leader_accepted;  ///< Leader on_block_accepted entry.
  std::vector<Clock::time_point> announced;        ///< After net::Leader::announce returned.

  static void put(std::vector<Clock::time_point>& v, std::uint64_t number, Clock::time_point t) {
    if (v.size() <= number) v.resize(number + 1);
    v[number] = t;
  }
};

struct Accept {
  Clock::time_point at;
  std::size_t txs = 0;
};

/// One leader + one follower over an in-process pipe. Construction is the
/// episode's set-up; stop() ends the replication session.
class Pair {
 public:
  Pair(std::unique_ptr<vm::World> genesis, const Workload& w, bool traced) {
    auto [follower_end, leader_end] = net::PipeTransport::make_pair();
    follower_peer_ = std::make_unique<net::Peer>(std::move(follower_end),
                                                 net::PeerConfig{.name = "follower"});
    peers_ = std::make_shared<net::PeerSet>();
    peers_->add(std::make_shared<net::Peer>(std::move(leader_end),
                                            net::PeerConfig{.name = "leader"}));

    std::unique_ptr<vm::World> follower_world = genesis->fork();

    node::NodeConfig lc = leader_config(w);
    if (traced) {
      lc.post_mine_hook = [this](chain::Block& block) {
        BlockTimes::put(times_.mined, block.header.number, Clock::now());
      };
      lc.pre_validate_hook = [this](const chain::Block& block) {
        BlockTimes::put(times_.validating, block.header.number, Clock::now());
      };
    }
    lc.on_block_accepted = [this](const chain::Block& block) {
      BlockTimes::put(times_.leader_accepted, block.header.number, Clock::now());
      replication_->announce(block);
      BlockTimes::put(times_.announced, block.header.number, Clock::now());
    };
    leader_ = std::make_unique<node::Node>(std::move(genesis), std::move(lc));

    node::NodeConfig fc = follower_config();
    fc.on_block_accepted = [this](const chain::Block& block) {
      const Clock::time_point now = Clock::now();
      {
        std::scoped_lock lk(accept_mu_);
        accepts_.push_back(Accept{now, block.transactions.size()});
        accepted_txs_ += block.transactions.size();
      }
      accept_cv_.notify_all();
    };
    follower_ = std::make_unique<node::Node>(std::move(follower_world), std::move(fc));

    replication_ = std::make_unique<net::Leader>(peers_, leader_->genesis_snapshot().state_root());
    replication_->start();
    follower_thread_ = std::jthread([this] {
      try {
        follower_->run_follower(*follower_peer_);
      } catch (const std::exception& e) {
        std::scoped_lock lk(accept_mu_);
        follower_error_ = e.what();
      }
    });
  }

  ~Pair() { stop(); }

  Pair(const Pair&) = delete;
  Pair& operator=(const Pair&) = delete;

  [[nodiscard]] node::Node& leader() { return *leader_; }
  [[nodiscard]] const node::Node& follower() const { return *follower_; }

  /// Waits until the follower has accepted `txs` transactions.
  [[nodiscard]] bool wait_follower(std::uint64_t txs) {
    std::unique_lock lk(accept_mu_);
    return accept_cv_.wait_for(lk, kDrainTimeout, [&] { return accepted_txs_ >= txs; });
  }

  /// Ends the session and joins the follower. Idempotent.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    replication_->stop();
    if (follower_thread_.joinable()) follower_thread_.join();
  }

  // Valid after stop().
  [[nodiscard]] const BlockTimes& times() const { return times_; }
  [[nodiscard]] const std::vector<Accept>& accepts() const { return accepts_; }
  [[nodiscard]] const std::string& follower_error() const { return follower_error_; }
  [[nodiscard]] net::FollowerProgress progress() const { return replication_->progress().at(0); }
  [[nodiscard]] bool leader_peer_failed() const { return peers_->peers().at(0)->failed(); }
  [[nodiscard]] bool follower_peer_failed() const { return follower_peer_->failed(); }

 private:
  BlockTimes times_;
  std::mutex accept_mu_;
  std::condition_variable accept_cv_;
  std::vector<Accept> accepts_;
  std::uint64_t accepted_txs_ = 0;
  std::string follower_error_;

  std::unique_ptr<net::Peer> follower_peer_;
  std::shared_ptr<net::PeerSet> peers_;
  std::unique_ptr<node::Node> leader_;
  std::unique_ptr<node::Node> follower_;
  std::unique_ptr<net::Leader> replication_;
  bool stopped_ = false;
  std::jthread follower_thread_;  ///< Last: joins before anything it uses dies.
};

// ── Readers ────────────────────────────────────────────────────────────

/// One reader's accumulators: a uniform sample of all its operations.
/// Cache-line aligned: each slot is written by its own reader on every
/// operation.
struct alignas(64) ReaderOut {
  explicit ReaderOut(std::uint64_t seed) : all(kReadSample, seed), pins(kPinSample, seed + 1) {}
  Reservoir all;   ///< Every operation.
  Reservoir pins;  ///< pin_at operations.
  std::uint64_t evictions = 0;
  std::uint64_t not_ok = 0;
  std::uint64_t root_mismatches = 0;
  double wall_s = 0;
  /// Root seen at each height pinned, checked against the follower's
  /// headers once its session has ended.
  std::map<std::uint64_t, util::Hash256> pinned_roots;
  std::vector<Span> spans;
};

/// Closed-loop reader: 3 of every 4 operations are query_latest balance
/// reads of a key drawn from the write stream's senders (so reads follow
/// the write skew), 1 of 4 is pin_at(head − 4), whose root is recorded.
void reader_loop(const std::stop_token& stop, const node::Node& follower, const Inputs& inputs,
                 std::uint64_t seed, std::uint32_t lane, std::int64_t episode, bool traced,
                 ReaderOut& out) {
  util::Rng rng(seed);
  ReadTarget target{inputs.token, {}};
  const core::QueryFn fn = [&target](const vm::World& world, vm::ExecContext& ctx) {
    read_balance(world, ctx, target);
  };
  const Clock::time_point begin = Clock::now();
  for (std::uint64_t op = 0; !stop.stop_requested(); ++op) {
    const bool pin_op = op % 4 == 3;
    Clock::time_point t0;
    Clock::time_point t1;
    if (pin_op) {
      const std::optional<std::uint64_t> head = follower.snapshots().head_number();
      const std::uint64_t number = head.has_value() && *head >= kPinLag ? *head - kPinLag : 0;
      t0 = Clock::now();
      node::Node::Pin pin;
      try {
        pin = follower.pin_at(number);
      } catch (const node::SnapshotEvicted&) {
        ++out.evictions;
        continue;
      }
      t1 = Clock::now();
      const util::Hash256& root = pin->snapshot.state_root();
      const auto [it, fresh] = out.pinned_roots.emplace(number, root);
      if (!fresh && it->second != root) ++out.root_mismatches;
      out.pins.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    } else {
      target.who = inputs.read_keys[rng.below(inputs.read_keys.size())];
      t0 = Clock::now();
      const core::QueryOutcome outcome = follower.query_latest(fn);
      t1 = Clock::now();
      if (outcome.status != core::QueryStatus::kOk) ++out.not_ok;
    }
    out.all.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (traced && out.spans.size() < kReaderSpans) {
      out.spans.push_back(Span{.name = pin_op ? "reader.pin_at" : "reader.query_latest",
                               .lane = lane, .start = t0, .end = t1, .episode = episode});
    }
  }
  out.wall_s += std::chrono::duration<double>(Clock::now() - begin).count();
}

/// One closed-loop reader thread per slot, querying the follower until the
/// window is destroyed, which stops and joins them.
class ReadWindow {
 public:
  ReadWindow(const node::Node& follower, const Inputs& inputs, std::vector<ReaderOut>& slots,
             std::uint64_t seed, std::int64_t episode, bool traced) {
    for (std::size_t r = 0; r < slots.size(); ++r) {
      threads_.emplace_back([node = &follower, in = &inputs, out = &slots[r], r, seed, episode,
                             traced](const std::stop_token& stop) {
        reader_loop(stop, *node, *in, seed * 7919 + r,
                    static_cast<std::uint32_t>(kLaneReader0 + r), episode, traced, *out);
      });
    }
  }

 private:
  std::vector<std::jthread> threads_;
};

/// Every root a reader pinned must be the follower header's root at that
/// height. Call once the follower's session has ended.
void verify_pins(std::vector<ReaderOut>& slots, const node::Node& follower) {
  for (ReaderOut& r : slots) {
    for (const auto& [number, root] : r.pinned_roots) {
      if (number > follower.chain().height() ||
          follower.chain().at(number).header.state_root != root) {
        ++r.root_mismatches;
      }
    }
    r.pinned_roots.clear();
  }
}

void fold_readers(std::vector<ReaderOut>& slots, NodePassResult& result, Tracer& tracer) {
  for (ReaderOut& r : slots) {
    result.read_us.insert(result.read_us.end(), r.all.values().begin(), r.all.values().end());
    result.pin_us.insert(result.pin_us.end(), r.pins.values().begin(), r.pins.values().end());
    const std::uint64_t ops = r.all.seen() + r.evictions;
    result.read_ops += ops;
    if (r.wall_s > 0) result.reads_per_s += static_cast<double>(ops) / r.wall_s;
    result.queries_not_ok += r.not_ok;
    result.pin_evictions += r.evictions;
    result.pin_root_mismatches += r.root_mismatches;
    tracer.merge(std::move(r.spans));
  }
}

// ── Episodes ───────────────────────────────────────────────────────────

/// Exactly-once gate for one block: its transactions must be the next
/// generated ones, in order (the mempool cuts FIFO batches and a
/// single-shard miner keeps their order).
bool block_matches(const chain::Block& block, const std::vector<chain::Transaction>& txs,
                   std::size_t offset) {
  return offset + block.transactions.size() <= txs.size() &&
         std::equal(block.transactions.begin(), block.transactions.end(),
                    txs.begin() + static_cast<std::ptrdiff_t>(offset));
}

void trace_episode(const Pair& pair, std::int64_t episode, Clock::time_point run_start,
                   Tracer& tracer) {
  const BlockTimes& t = pair.times();
  const std::vector<Accept>& accepts = pair.accepts();
  std::vector<Span> spans;
  for (std::uint64_t n = 1; n < t.mined.size(); ++n) {
    const Clock::time_point cycle_start = n == 1 ? run_start : t.mined[n - 1];
    const auto b = static_cast<std::int64_t>(n);
    spans.push_back({"leader.mine_cycle", 1, kLaneLeaderMiner, cycle_start, t.mined[n], episode, b,
                     true});
    if (n < t.validating.size()) {
      spans.push_back({"leader.handoff_ring", 1, kLaneLeaderRing, t.mined[n], t.validating[n],
                       episode, b, true});
    }
    if (n < t.validating.size() && n < t.leader_accepted.size()) {
      spans.push_back({"leader.validate_append_publish", 1, kLaneLeaderValidator,
                       t.validating[n], t.leader_accepted[n], episode, b, true});
    }
    if (n < t.announced.size()) {
      spans.push_back({"leader.announce", 1, kLaneLeaderValidator, t.leader_accepted[n],
                       t.announced[n], episode, b, false});
    }
    if (n - 1 < accepts.size() && n < t.leader_accepted.size()) {
      spans.push_back({"follower.receive_validate_append", 1, kLaneFollower,
                       t.leader_accepted[n], accepts[n - 1].at, episode, b, true});
    }
  }
  tracer.merge(std::move(spans));
}

/// One fresh leader+follower pair over inputs generated from
/// options.seed + index. `budget`: a closed loop stops submitting (at a
/// block boundary) once this much time has passed.
void run_episode(const Workload& w, std::uint64_t base_seed, std::size_t index,
                 std::size_t total_txs, Clock::duration budget, std::vector<ReaderOut>& slots,
                 NodePassResult& result, Tracer& tracer) {
  const bool traced = tracer.enabled();
  const auto episode = static_cast<std::int64_t>(index);
  const std::uint64_t seed = base_seed + index;

  const Clock::time_point setup_start = Clock::now();
  Inputs inputs = make_inputs(w, seed, total_txs);
  Pair pair(std::move(inputs.genesis), w, traced);
  result.setup_s.push_back(std::chrono::duration<double>(Clock::now() - setup_start).count());

  const std::vector<chain::Transaction>& txs = inputs.txs;
  std::vector<Clock::time_point> start_at(txs.size());  ///< Submit call (closed) or due time (open).
  std::vector<double> lag_ms;
  std::size_t submitted = 0;

  std::optional<ReadWindow> reads;
  if (w.loop == Loop::kOpen) reads.emplace(pair.follower(), inputs, slots, seed, episode, traced);

  const Clock::time_point run_start = Clock::now();
  {
    std::jthread producer([&] {
      node::Mempool& pool = pair.leader().mempool();
      if (w.loop == Loop::kClosed) {
        const Clock::time_point deadline = run_start + budget;
        for (std::size_t i = 0; i < txs.size(); ++i) {
          if (i % w.txs_per_block == 0 && Clock::now() >= deadline) break;
          start_at[i] = Clock::now();
          if (!pool.submit(txs[i])) break;
          ++submitted;
        }
      } else {
        // Open loop: transaction i is due at first + i/rate whatever the
        // node is doing; latency counts from the due time.
        const auto interval = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / w.rate_tx_per_s));
        const Clock::time_point first = Clock::now() + std::chrono::milliseconds(1);
        lag_ms.reserve(txs.size());
        for (std::size_t i = 0; i < txs.size(); ++i) {
          const Clock::time_point due = first + interval * static_cast<long>(i);
          std::this_thread::sleep_until(due);
          start_at[i] = due;
          lag_ms.push_back(ms_between(due, Clock::now()));
          if (!pool.submit(txs[i])) break;
          ++submitted;
        }
      }
      pool.close();
    });
    try {
      pair.leader().run();
    } catch (const std::exception& e) {
      result.gate_failures.push_back(std::string("leader run failed: ") + e.what());
    }
  }  // Joins the producer (run() closed the mempool on every exit).

  const bool drained = pair.wait_follower(pair.leader().stats().transactions);
  if (!drained) result.gate_failures.push_back("follower did not catch up with the leader");
  reads.reset();
  pair.stop();
  verify_pins(slots, pair.follower());

  // ── Gates ──
  const node::Node& leader = pair.leader();
  const node::Node& follower = pair.follower();
  if (!leader.ok() || !follower.ok()) {
    result.nodes_ok = false;
    result.gate_failures.push_back("a node rejected a block");
  }
  if (!pair.follower_error().empty()) {
    result.gate_failures.push_back("follower session threw: " + pair.follower_error());
  }
  const std::uint64_t height = leader.chain().height();
  std::uint64_t diverged = follower.chain().height() == height ? 0 : 1;
  std::size_t offset = 0;
  std::uint64_t accepted = 0;
  for (std::uint64_t n = 1; n <= std::min(height, follower.chain().height()); ++n) {
    const chain::Block& block = follower.chain().at(n);
    if (block.hash() != leader.chain().at(n).hash()) ++diverged;
    if (block_matches(block, txs, offset)) accepted += block.transactions.size();
    offset += block.transactions.size();
  }
  if (offset != submitted) diverged += 1;  // Transactions lost or invented.
  if (diverged > 0) result.gate_failures.push_back("follower chain differs from the leader's");
  if (accepted != submitted) {
    result.gate_failures.push_back("not every submitted transaction was accepted exactly once");
  }
  const net::FollowerProgress progress = pair.progress();
  const std::uint64_t nacks = std::max(progress.nacks, follower.stats().net_nacks_sent);
  const std::uint64_t wire_errors = follower.stats().net_wire_errors +
                                    (pair.leader_peer_failed() ? 1 : 0) +
                                    (pair.follower_peer_failed() ? 1 : 0);
  if (progress.diverged) ++diverged;
  if (nacks > 0 || wire_errors > 0) result.gate_failures.push_back("Nacks or wire errors");

  result.submitted += submitted;
  result.accepted += accepted;
  result.nacks += nacks;
  result.wire_errors += wire_errors;
  result.diverged_blocks += diverged;
  ++result.episodes;

  // ── End-to-end timing ──
  const std::vector<Accept>& accepts = pair.accepts();
  if (submitted > 0 && !accepts.empty()) {
    const double episode_s =
        std::chrono::duration<double>(accepts.back().at - start_at.front()).count();
    result.measured_s += episode_s;
    result.episode_tx_per_s.push_back(static_cast<double>(accepted) / episode_s);
    std::size_t i = 0;
    for (const Accept& a : accepts) {
      for (std::size_t k = 0; k < a.txs && i < submitted; ++k, ++i) {
        result.confirm_ms.push_back(ms_between(start_at[i], a.at));
      }
    }
  }
  if (!lag_ms.empty()) {
    result.generator_lag_ms_p99 = std::max(result.generator_lag_ms_p99, quantile(lag_ms, 0.99));
  }

  // ── Layer counters ──
  const node::NodeStats& ls = leader.stats();
  result.blocks += ls.blocks;
  result.mempool_wait_ms += ls.mempool_wait_ms;
  result.handoff_wait_ms += ls.handoff_wait_ms;
  result.validator_stall_ms += ls.validator_stall_ms;
  result.ring_high_water = std::max(result.ring_high_water, ls.ring_high_water);
  result.mempool_high_water =
      std::max(result.mempool_high_water, pair.leader().mempool().stats().high_water);
  const BlockTimes& t = pair.times();
  for (std::uint64_t n = 1; n < t.mined.size() && n < t.validating.size(); ++n) {
    result.handoff_ms.push_back(ms_between(t.mined[n], t.validating[n]));
  }
  for (std::uint64_t n = 1; n < t.leader_accepted.size() && n - 1 < accepts.size(); ++n) {
    result.propagation_ms.push_back(ms_between(t.leader_accepted[n], accepts[n - 1].at));
  }
  if (traced) trace_episode(pair, episode, run_start, tracer);
}

// Set-up is reported as the fastest of at least kMinSetups samples that
// together take at least 1/kSetupShare of the measured time: a workload
// with fewer episodes sets up extra pairs (measured, then torn down
// unused). The fastest sample is the one the host's neighbours disturbed
// least; a median moves with them by up to half between runs.
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupShare = 8;

void extra_setup(const Workload& w, std::uint64_t seed, std::size_t txs,
                 NodePassResult& result) {
  const Clock::time_point start = Clock::now();
  Inputs inputs = make_inputs(w, seed, txs);
  const Pair pair(std::move(inputs.genesis), w, false);
  result.setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
}

}  // namespace

NodePassResult run_node_pass(const Workload& w, std::uint64_t seed, double seconds,
                             Tracer& tracer) {
  NodePassResult result;
  std::vector<ReaderOut> slots;
  slots.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) slots.emplace_back(seed * 31 + r);

  const std::size_t txs = episode_txs(w, seconds);
  for (std::size_t e = 0; e < w.max_episodes; ++e) {
    // Start another episode only while a typical one still fits.
    const double remaining = seconds - result.measured_s;
    if (e > 0 && remaining < result.measured_s / static_cast<double>(e)) break;
    const auto budget =
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(remaining));
    run_episode(w, seed, e, txs, budget, slots, result, tracer);
    if (!result.gate_failures.empty()) break;
  }

  double setup_total = 0;
  for (const double s : result.setup_s) setup_total += s;
  for (std::size_t i = result.setup_s.size();
       i < kMinSetups || setup_total < seconds / kSetupShare; ++i) {
    extra_setup(w, seed + i, txs, result);
    setup_total += result.setup_s.back();
  }
  fold_readers(slots, result, tracer);
  return result;
}

}  // namespace concord::e2e
