#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "stm/lock_profile.hpp"

namespace concord::graph {

/// The happens-before graph over a block's transactions (paper §4).
/// Nodes are transaction indices; an edge u → v means v's replay must wait
/// for u. Derived from lock profiles by derive_happens_before() below.
class HappensBeforeGraph {
 public:
  explicit HappensBeforeGraph(std::size_t nodes) : successors_(nodes) {}

  [[nodiscard]] std::size_t node_count() const noexcept { return successors_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  /// Adds u → v; duplicate edges are ignored. Self-loops and endpoints out
  /// of range are rejected by assertion in debug builds and ignored in
  /// release (derive_happens_before emits neither from profiles whose
  /// indices the validator has checked).
  void add_edge(std::uint32_t u, std::uint32_t v);

  [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) const;

  [[nodiscard]] const std::vector<std::uint32_t>& successors(std::uint32_t u) const {
    return successors_[u];
  }
  /// Every node's successor list, indexed by node (what
  /// sched::ForkJoinPool::run_dag consumes).
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& successor_lists() const noexcept {
    return successors_;
  }

  /// All edges as (u, v) pairs, sorted (the DOT export's edge order).
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>> edges() const;

  /// Kahn's algorithm with a smallest-index tie-break, so the order is a
  /// deterministic function of the graph. Returns std::nullopt when the
  /// graph has a cycle.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> topological_order() const;

  [[nodiscard]] bool is_acyclic() const { return topological_order().has_value(); }

 private:
  std::vector<std::vector<std::uint32_t>> successors_;
  std::size_t edge_count_ = 0;
};

/// Builds the happens-before graph from the lock profiles of a block's
/// transactions (the heart of paper Algorithm 1: "If an abstract lock has
/// counter value 1 in A's profile and 2 in C's profile, then C must be
/// scheduled after A" — refined by lock modes: only non-commuting holders
/// are ordered).
///
/// Per lock, holders are sorted by use counter and grouped into maximal
/// runs of mutually-commuting operations; each holder gets edges from
/// every member of the previous run. Cross-run conflicts further back are
/// implied transitively, so the result is near-minimal without an explicit
/// reduction pass. `nodes` is the block's transaction count; profiles may
/// be in any order but must cover tx indices < nodes.
[[nodiscard]] HappensBeforeGraph derive_happens_before(std::span<const stm::LockProfile> profiles,
                                                       std::size_t nodes);

/// Parallelism measures of a schedule (paper §4 suggests rewarding miners
/// "for publishing highly parallel schedules (for example, as measured by
/// critical path length)").
struct ScheduleMetrics {
  std::size_t transactions = 0;
  std::size_t edges = 0;
  /// Longest dependency chain, counting nodes (1 for an edgeless graph
  /// with any transaction).
  std::size_t critical_path = 0;
  /// Transactions divided by critical path — the available speedup with
  /// unlimited validators.
  double parallelism = 0.0;
  /// Size of the largest level when nodes are layered by longest distance
  /// from a root — a cheap width proxy.
  std::size_t max_level_width = 0;
};

[[nodiscard]] ScheduleMetrics compute_metrics(const HappensBeforeGraph& graph);

}  // namespace concord::graph
