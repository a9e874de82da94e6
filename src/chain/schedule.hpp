#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/happens_before.hpp"
#include "stm/lock_profile.hpp"
#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace concord::chain {

/// The scheduling metadata a miner publishes in the block (paper §4):
/// per-transaction lock profiles, the happens-before edges they induce,
/// and the equivalent serial order S from the topological sort.
///
/// The edges are technically recomputable from the profiles; publishing
/// both matches the paper (the validator "transforms this happens-before
/// graph into a fork-join program") and gives the validator a cheap
/// cross-check: a block whose published graph does not imply the
/// profile-derived constraints is rejected before any replay happens.
struct BlockSchedule {
  std::vector<stm::LockProfile> profiles;                    ///< Indexed by tx.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  ///< Happens-before.
  std::vector<std::uint32_t> serial_order;                   ///< S, a topo sort.

  friend bool operator==(const BlockSchedule&, const BlockSchedule&) = default;

  /// Materializes the published graph over `nodes` transactions.
  [[nodiscard]] graph::HappensBeforeGraph to_graph(std::size_t nodes) const {
    graph::HappensBeforeGraph g(nodes);
    for (const auto& [u, v] : edges) g.add_edge(u, v);
    return g;
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
