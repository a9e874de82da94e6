#include "node/node.hpp"

#include <algorithm>
#include <variant>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "net/peer.hpp"

namespace concord::node {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::unique_ptr<vm::World> require_world(std::unique_ptr<vm::World> world) {
  if (world == nullptr) throw std::invalid_argument("node: world must not be null");
  return world;
}

/// Validated before any member is built: an invalid config must fail
/// fast, not after two world forks and two stage thread pools.
/// mine_shards must be 1: a block has one miner, and the field remains
/// only because bench/e2e still assigns it.
NodeConfig require_config(NodeConfig config) {
  if (config.miner.exclusive_locks_only != config.validator.exclusive_locks_only) {
    throw std::invalid_argument("node: miner/validator disagree on exclusive_locks_only");
  }
  if (config.pipeline_depth == 0) {
    throw std::invalid_argument("node: pipeline_depth must be >= 1");
  }
  if (config.mine_shards != 1) {
    throw std::invalid_argument("node: mine_shards must be 1");
  }
  if (config.miner.threads == 0 || config.validator.threads == 0) {
    throw std::invalid_argument("node: miner and validator threads must be >= 1");
  }
  return config;
}

}  // namespace

// Both stages are COW forks of one snapshot, so their genesis roots
// agree by construction — the old dual-world drift guard has nothing
// left to check. The genesis root is hashed on the miner's pool, idle
// until run().
Node::Node(std::unique_ptr<vm::World> world, NodeConfig config)
    : config_(require_config(std::move(config))),
      miner_world_(require_world(std::move(world))),
      genesis_(*miner_world_),
      validator_world_(genesis_.materialize()),
      accepted_(genesis_),
      mempool_(config_.batch, config_.mempool_capacity),
      miner_(*miner_world_, config_.miner),
      validator_(*validator_world_, config_.validator),
      chain_(genesis_.state_root(&miner_.parallel_for())),
      snapshots_(std::max<std::size_t>(config_.retain_snapshots, 1)) {
  // The read path serves genesis ("as of block 0") from the moment the
  // node exists; its root is already computed (the chain header above).
  if (read_path_enabled()) snapshots_.publish(0, genesis_);
}

void Node::run() {
  if (ran_) throw std::logic_error("Node::run() may only be called once");
  if (following_) throw std::logic_error("Node::run(): this node is a follower");
  ran_ = true;
  const auto start = Clock::now();

  // The depth-k ring between the stages. Pipelined, a validator thread
  // drains it while the miner keeps mining up to pipeline_depth blocks
  // ahead against its own unvalidated output; inline, nothing is ever
  // pushed and the ring only carries the abort handshake.
  HandoffRing ring(config_.pipeline_depth);
  std::exception_ptr validator_error;
  const auto validator_loop = [&] {
    try {
      while (true) {
        const auto t_wait = Clock::now();
        std::optional<chain::Block> block = ring.pop();
        stats_.validator_stall_ms += ms_since(t_wait);
        if (!block) break;  // Mining finished and the ring drained.
        validate_step(ring, std::move(*block));
      }
    } catch (...) {
      validator_error = std::current_exception();
    }
    // Release a miner blocked on the ring or inside next_batch, and
    // producers blocked on mempool capacity.
    ring.close();
    mempool_.close();
  };

  // Miner-side counters that the validator side also keeps; merged into
  // stats_ after the join. Every other NodeStats field has one writer.
  double resume_ms = 0.0;
  std::uint64_t failed_pushes = 0;
  std::uint64_t failed_push_txs = 0;

  chain::Block parent = chain_.tip();
  // The producer half of the abort handshake: collect the recovery
  // point, rebuild the mining world from the last accepted boundary and
  // resume on top of the last accepted block.
  const auto resume_mining = [&] {
    const auto t_recover = Clock::now();
    RecoveryPoint point = ring.acknowledge_abort();
    miner_world_ = point.world.materialize();
    miner_.resume_from(*miner_world_);
    parent = std::move(point.parent);
    resume_ms += ms_since(t_recover);
  };

  std::exception_ptr miner_error;
  std::jthread validator_thread;
  std::uint64_t mined = 0;
  try {
    if (config_.pipelined) validator_thread = std::jthread(validator_loop);
    while (!ring.closed() && (config_.max_blocks == 0 || mined < config_.max_blocks)) {
      const auto t_wait = Clock::now();
      std::optional<std::vector<chain::Transaction>> batch = mempool_.next_batch();
      stats_.mempool_wait_ms += ms_since(t_wait);
      if (!batch.has_value()) break;

      // A rejection may have landed since the last block; recover before
      // mining the fresh batch on a doomed parent.
      if (ring.abort_requested()) resume_mining();

      const auto t_mine = Clock::now();
      chain::Block block = mine_block(*batch, parent);
      stats_.mine_ms += ms_since(t_mine);
      ++mined;
      parent = block;

      if (!config_.pipelined) {
        validate_step(ring, std::move(block));  // The synchronous handoff.
        continue;
      }
      const std::size_t block_txs = block.transactions.size();
      const auto t_handoff = Clock::now();
      const HandoffRing::PushOutcome outcome = ring.push(std::move(block));
      stats_.handoff_wait_ms += ms_since(t_handoff);
      if (outcome == HandoffRing::PushOutcome::kAborted) {
        // The block extends a rejected chain: part of the doomed suffix.
        ++failed_pushes;
        failed_push_txs += block_txs;
        resume_mining();
      } else if (outcome == HandoffRing::PushOutcome::kClosed) {
        break;
      }
    }
  } catch (...) {
    // A mining-stage failure (e.g. the livelock guard) must still wind
    // the validator down — never leave it waiting on a ring fill that
    // will not come.
    miner_error = std::current_exception();
  }

  mining_done_.store(true, std::memory_order_release);
  ring.close();
  if (validator_thread.joinable()) validator_thread.join();
  // Producers must never hang on a node that has stopped consuming — not
  // even when a stage failed hard.
  mempool_.close();
  stats_.aborted_blocks += failed_pushes;
  stats_.dropped_transactions += failed_push_txs;
  stats_.recovery_ms += resume_ms;
  stats_.ring_high_water = ring.stats().high_water;
  // Failure diagnostics still carry timing: a run that died after two
  // hours should not report wall_ms == 0.
  stats_.wall_ms = ms_since(start);
  fold_read_stats();
  if (miner_error) std::rethrow_exception(miner_error);
  if (validator_error) std::rethrow_exception(validator_error);
}

void Node::fold_read_stats() {
  stats_.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats_.query_gas_used = query_gas_used_.load(std::memory_order_relaxed);
  stats_.pins_expired = pins_expired_.load(std::memory_order_relaxed);
  // Writer-thread fields, safe here: both stages have joined by now.
  stats_.snapshots_retained_high_water = snapshots_.retained_high_water();
}

void Node::validate_step(HandoffRing& ring, chain::Block block) {
  if (config_.pre_validate_hook) config_.pre_validate_hook(block);
  const std::size_t block_txs = block.transactions.size();
  // Captured before the block moves into (and is consumed by) the
  // validator: the failure detail names the rejected claim.
  const util::Hash256 claimed_root = block.header.state_root;
  if (validate_and_append(std::move(block))) return;

  if (stats_.rejected_blocks == 1) {
    failure_->detail += " [block claimed post-root " + claimed_root.to_hex().substr(0, 16) +
                        "…, re-orged to boundary " +
                        accepted_.state_root().to_hex().substr(0, 16) + "…]";
  }
  // Re-org: every queued block was mined on top of the rejected one —
  // drain them and hand the miner the last accepted boundary. It
  // re-materializes its own world once it observes the abort (cloning
  // the shared frozen snapshot only reads it). Reading chain_.tip() here
  // is safe: nothing appends until the handshake completes and a
  // post-recovery block validates.
  const HandoffRing::DrainResult drained =
      ring.abort_and_drain(RecoveryPoint{accepted_, chain_.tip()});
  stats_.aborted_blocks += drained.blocks;
  stats_.dropped_transactions += block_txs + drained.transactions;
  recover_validator();
}

void Node::recover_validator() {
  const auto t_recover = Clock::now();
  validator_world_ = accepted_.materialize();
  validator_.resume_from(*validator_world_);
  // Invariant enforcement more than necessity: only ACCEPTED boundaries
  // are ever published, so the ring's head cannot exceed the surviving
  // tip — but a rewind here keeps the read path honest by construction
  // even if that ever changes.
  if (read_path_enabled()) snapshots_.rewind_to(chain_.tip().header.number);
  ++stats_.recoveries;  // One re-org completed (the miner's half is lazy).
  stats_.recovery_ms += ms_since(t_recover);
}

void Node::run_follower(net::Peer& peer) {
  if (ran_) throw std::logic_error("Node::run_follower(): this node already ran as a leader");
  if (in_session_) throw std::logic_error("Node::run_follower(): a session is already active");
  following_ = true;
  in_session_ = true;
  const auto start = Clock::now();
  std::uint64_t leader_head = chain_.height();

  const auto send_nack = [&](std::uint64_t number, net::NackReason reason, std::string detail) {
    if (peer.send(net::Message{net::Nack{number, reason, std::move(detail)}})) {
      ++stats_.net_nacks_sent;
    }
  };
  // Catch-up pull: whenever the leader is known to be ahead of us, ask
  // for exactly the next block we need. Drives both reconnect catch-up
  // and post-Nack retransmission.
  const auto request_next = [&] {
    if (leader_head <= chain_.height()) return;
    if (config_.max_blocks != 0 && stats_.blocks >= config_.max_blocks) return;
    if (peer.send(net::Message{net::BlockRequest{chain_.height() + 1}})) {
      ++stats_.net_requests_sent;
    }
  };

  ++stats_.net_sessions;
  (void)peer.send(
      net::Message{net::Hello{net::kProtocolVersion, genesis_.state_root(), chain_.height()}});

  while (config_.max_blocks == 0 || stats_.blocks < config_.max_blocks) {
    std::optional<net::Message> message = peer.recv();
    if (!message.has_value()) break;  // Session over (clean close or wire failure).

    if (const auto* hello = std::get_if<net::Hello>(&*message)) {
      if (hello->protocol != net::kProtocolVersion ||
          hello->genesis_root != genesis_.state_root()) {
        send_nack(0, net::NackReason::kWrongChain,
                  hello->protocol != net::kProtocolVersion ? "protocol version mismatch"
                                                           : "genesis root mismatch");
        peer.close();
        break;
      }
      leader_head = std::max(leader_head, hello->head);
      request_next();
      continue;
    }

    if (auto* announce = std::get_if<net::BlockAnnounce>(&*message)) {
      ++stats_.net_announces;
      const std::uint64_t number = announce->block.header.number;
      leader_head = std::max(leader_head, number);
      const std::uint64_t expected = chain_.height() + 1;

      if (number < expected) {
        // A retransmission of a block we already hold: re-Ack with OUR
        // root at that height so the leader can detect divergence.
        if (peer.send(net::Message{
                net::Ack{number, chain_.at(number).header.state_root}})) {
          ++stats_.net_acks_sent;
        }
        continue;
      }
      if (number > expected) {
        // A gap: blocks only append in order, so name the one we need.
        send_nack(number, net::NackReason::kOutOfOrder,
                  "expected block " + std::to_string(expected));
        request_next();
        continue;
      }
      if (announce->block.header.parent_hash != chain_.tip().hash()) {
        // Right height, wrong parent: the leader is extending a chain we
        // do not have. No state was touched — Nack without recovery.
        send_nack(number, net::NackReason::kValidationFailed, "parent hash mismatch");
        request_next();
        continue;
      }

      // The real trust boundary: validate the announced block against
      // its published schedule exactly as the local pipeline would.
      bool accepted = false;
      std::string reject_detail;
      try {
        accepted = validate_and_append(std::move(announce->block));
        if (!accepted && last_rejection_.has_value()) {
          reject_detail = std::string(core::to_string(last_rejection_->reason)) + ": " +
                          last_rejection_->detail;
        }
      } catch (const chain::ChainError& e) {
        // Structural append failure after replay: treat as a rejection
        // (the replica is dirty — the recovery below re-materializes it).
        accepted = false;
        reject_detail = std::string("structural: ") + e.what();
      }

      if (accepted) {
        if (peer.send(net::Message{net::Ack{number, chain_.tip().header.state_root}})) {
          ++stats_.net_acks_sent;
        }
        request_next();
        continue;
      }

      // Rejected: the leader's re-org recovery serving as fork-choice.
      // Unwind the replica to the last accepted boundary, tell the leader
      // why, and ask for an honest retransmission of the same height.
      recover_validator();
      send_nack(number, net::NackReason::kValidationFailed, std::move(reject_detail));
      request_next();
      continue;
    }

    // Ack / Nack / BlockRequest addressed to a follower: not part of the
    // follower's protocol surface; ignored.
  }

  if (peer.failed()) ++stats_.net_wire_errors;
  stats_.wall_ms += ms_since(start);
  fold_read_stats();
  in_session_ = false;
}

chain::Block Node::mine_block(const std::vector<chain::Transaction>& batch,
                              const chain::Block& parent) {
  chain::Block block = config_.mining == MiningMode::kSerial ? miner_.mine_serial(batch, parent)
                                                             : miner_.mine(batch, parent);
  const core::MinerStats& mined = miner_.last_stats();
  stats_.attempts += mined.attempts;
  stats_.conflict_aborts += mined.conflict_aborts;
  stats_.deadlock_victims += mined.deadlock_victims;
  stats_.lock_table_high_water =
      std::max(stats_.lock_table_high_water, mined.lock_table_high_water);
  stats_.schedule_bytes += mined.schedule_bytes;
  stats_.arena = mined.arena;
  stats_.detect_violations += mined.detect_violations;
  if (mined.detect_violations > 0 && !first_detect_report_.has_value()) {
    first_detect_report_ = miner_.last_detect_report();
  }
  if (config_.post_mine_hook) config_.post_mine_hook(block);
  return block;
}

bool Node::validate_and_append(chain::Block block) {
  const auto t_validate = Clock::now();
  core::ValidationReport report = validator_.validate_parallel(block);
  stats_.validate_ms += ms_since(t_validate);
  if (!report.ok) {
    ++stats_.rejected_blocks;
    last_rejection_ = report;  // Every rejection, for the follower's Nack.
    if (!failure_.has_value()) failure_ = std::move(report);
    return false;
  }
  const std::uint64_t number = block.header.number;
  const std::size_t txs = block.transactions.size();
  const util::Hash256 root = block.header.state_root;
  chain_.append(std::move(block));
  stats_.blocks += 1;
  stats_.transactions += txs;
  // Freeze the accepted boundary: the recovery anchor and the read
  // path's published boundary are this one fork. validate_parallel left
  // validator_world_ at exactly the post-block state and cross-checked
  // `root` against it, so the snapshot is verified state and seeding the
  // root cache is sound (neither readers nor a recovery rehash). The
  // fork is O(contracts), on the appending thread — the same thread for
  // every publish and rewind, which is the ring's single-writer contract.
  const auto t_snapshot = Clock::now();
  accepted_ = vm::WorldSnapshot(*validator_world_, root);
  stats_.snapshot_ms += ms_since(t_snapshot);
  if (read_path_enabled()) snapshots_.publish(number, accepted_);
  // Replication egress LAST: a remote follower never hears about a block
  // before the leader's own readers can pin it.
  if (config_.on_block_accepted) config_.on_block_accepted(chain_.tip());
  return true;
}

void Node::require_read_path() const {
  if (!read_path_enabled()) {
    throw std::logic_error("node read path disabled (retain_snapshots == 0)");
  }
}

Node::Pin Node::pin_latest() const {
  require_read_path();
  Pin pin = snapshots_.latest();
  if (pin == nullptr) {
    pins_expired_.fetch_add(1, std::memory_order_relaxed);
    throw SnapshotEvicted("latest boundary unavailable (persistent re-org churn)");
  }
  return pin;
}

Node::Pin Node::pin_at(std::uint64_t block) const {
  require_read_path();
  Pin pin = snapshots_.at(block);
  if (pin != nullptr) return pin;
  pins_expired_.fetch_add(1, std::memory_order_relaxed);
  // Explain WHY the pin failed — the distinction matters to clients
  // (retry later vs. gone forever vs. never existed on this chain).
  std::string reason = "snapshot evicted: block " + std::to_string(block);
  const std::optional<std::uint64_t> head = snapshots_.head_number();
  if (!head.has_value()) {
    reason += " (nothing published yet)";
  } else if (block > *head) {
    reason += " is beyond the newest accepted boundary " + std::to_string(*head);
  } else {
    reason += " left the retention window (head " + std::to_string(*head) + ", retain " +
              std::to_string(snapshots_.retain()) + ") or was re-orged away";
  }
  throw SnapshotEvicted(reason);
}

Node::Pin Node::pin_no_older_than(std::uint64_t block, std::chrono::milliseconds timeout) const {
  require_read_path();
  const auto deadline = Clock::now() + timeout;
  // wait_for_head returning true only means block N WAS published; a
  // re-org between the wake-up and the pin can drop the head again, so
  // re-check what was actually pinned and go back to waiting if it is
  // too old. The loop is bounded by the deadline.
  while (snapshots_.wait_for_head(block, deadline)) {
    Pin pin = snapshots_.latest();
    if (pin != nullptr && pin->number >= block) return pin;
    if (Clock::now() >= deadline) break;
  }
  pins_expired_.fetch_add(1, std::memory_order_relaxed);
  throw SnapshotEvicted("read-your-writes pin: block " + std::to_string(block) +
                        " not published within " + std::to_string(timeout.count()) + "ms");
}

core::QueryOutcome Node::query_pinned(const Pin& pin, const core::QueryFn& fn) const {
  require_read_path();
  if (pin == nullptr) throw std::logic_error("query_pinned on a null pin");
  const core::QueryOutcome outcome = core::run_query(pin->snapshot, config_.query, fn);
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  query_gas_used_.fetch_add(outcome.gas_used, std::memory_order_relaxed);
  return outcome;
}

core::QueryOutcome Node::query_latest(const core::QueryFn& fn) const {
  return query_pinned(pin_latest(), fn);
}

core::QueryOutcome Node::query_at(std::uint64_t block, const core::QueryFn& fn) const {
  return query_pinned(pin_at(block), fn);
}

core::QueryOutcome Node::query_call(const chain::Transaction& tx) const {
  const Pin pin = pin_latest();
  const core::QueryOutcome outcome = core::run_query_call(pin->snapshot, config_.query, tx);
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  query_gas_used_.fetch_add(outcome.gas_used, std::memory_order_relaxed);
  return outcome;
}

}  // namespace concord::node
