#pragma once

#include <cstdint>
#include <vector>

#include "graph/happens_before.hpp"
#include "stm/lock_profile.hpp"
#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace concord::chain {

/// The scheduling metadata a miner publishes in the block (paper §4): one
/// lock profile per transaction, each lock paired with its use counter.
///
/// The profiles are the whole schedule. The happens-before graph is a
/// function of their counters (derive_happens_before), and any
/// topological order of it is an equivalent serial order, so neither is
/// published: a validator that re-derives the graph cannot be handed one
/// that misses a constraint, and a second copy would only have to be
/// proved consistent with the first. What a lying miner can still forge
/// are the counters themselves; a forgery either orders two transactions
/// both ways (the derived graph is cyclic and the block is rejected
/// before replay) or claims an order the replay cannot reproduce.
struct BlockSchedule {
  std::vector<stm::LockProfile> profiles;  ///< Indexed by tx.

  friend bool operator==(const BlockSchedule&, const BlockSchedule&) = default;

  /// The happens-before graph over `nodes` transactions, derived from the
  /// profiles — the one source of the graph for miner, validator,
  /// ConcordSan and the benches.
  [[nodiscard]] graph::HappensBeforeGraph to_graph(std::size_t nodes) const {
    return graph::derive_happens_before(profiles, nodes);
  }

  void encode(util::ByteWriter& w) const;
  [[nodiscard]] static BlockSchedule decode(util::ByteReader& r);

  /// Digest over the canonical encoding (folded into the block header, so
  /// tampering with the schedule invalidates the block hash).
  [[nodiscard]] util::Hash256 hash() const;

  /// Total serialized size in bytes — the paper's implicit cost of
  /// "including scheduling metadata in blocks"; reported by benches.
  [[nodiscard]] std::size_t encoded_size() const;
};

}  // namespace concord::chain
