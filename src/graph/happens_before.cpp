#include "graph/happens_before.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <queue>
#include <tuple>

#include "stm/lock_mode.hpp"

namespace concord::graph {

void HappensBeforeGraph::add_edge(std::uint32_t u, std::uint32_t v) {
  assert(u < node_count() && v < node_count() && "edge endpoint out of range");
  assert(u != v && "self-edge in happens-before graph");
  if (u == v || u >= node_count() || v >= node_count()) return;
  auto& succ = successors_[u];
  if (std::find(succ.begin(), succ.end(), v) != succ.end()) return;
  succ.push_back(v);
  ++edge_count_;
}

bool HappensBeforeGraph::has_edge(std::uint32_t u, std::uint32_t v) const {
  if (u >= node_count() || v >= node_count()) return false;
  const auto& succ = successors_[u];
  return std::find(succ.begin(), succ.end(), v) != succ.end();
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> HappensBeforeGraph::edges() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(edge_count_);
  for (std::uint32_t u = 0; u < node_count(); ++u) {
    for (const std::uint32_t v : successors_[u]) out.emplace_back(u, v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::vector<std::uint32_t>> HappensBeforeGraph::topological_order() const {
  const std::size_t n = node_count();
  std::vector<std::size_t> indegree(n, 0);
  for (const auto& succ : successors_) {
    for (const std::uint32_t v : succ) ++indegree[v];
  }

  // Min-heap on node index: deterministic output for a given graph.
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> ready;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push(v);
  }

  std::vector<std::uint32_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::uint32_t u = ready.top();
    ready.pop();
    order.push_back(u);
    for (const std::uint32_t v : successors_[u]) {
      if (--indegree[v] == 0) ready.push(v);
    }
  }
  if (order.size() != n) return std::nullopt;  // Cycle.
  return order;
}

HappensBeforeGraph derive_happens_before(std::span<const stm::LockProfile> profiles,
                                         std::size_t nodes) {
  HappensBeforeGraph graph(nodes);

  struct Holder {
    std::uint64_t counter;
    std::uint32_t tx;
    stm::LockMode mode;
  };
  // Ordered map keyed by LockId gives deterministic per-lock processing;
  // holder order within a lock comes from the use counters.
  std::map<stm::LockId, std::vector<Holder>> by_lock;
  for (const auto& profile : profiles) {
    for (const auto& entry : profile.entries) {
      by_lock[entry.lock].push_back(Holder{entry.counter, profile.tx, entry.mode});
    }
  }

  for (auto& [lock, holders] : by_lock) {
    // Tie-break on tx so the derivation is a deterministic function of the
    // profiles even for malformed input with duplicate counter values
    // (honest miners never produce ties: counters increment per release).
    std::sort(holders.begin(), holders.end(), [](const Holder& a, const Holder& b) {
      return std::tie(a.counter, a.tx) < std::tie(b.counter, b.tx);
    });

    // Group into maximal runs of mutually-commuting holders. Consecutive
    // runs conflict completely (that is what ends a run), so edges from
    // the previous run to each new holder imply all older constraints
    // transitively.
    std::vector<const Holder*> prev_run;
    std::vector<const Holder*> current_run;
    for (const Holder& h : holders) {
      const bool starts_new_run =
          !current_run.empty() && stm::conflicts(current_run.back()->mode, h.mode);
      if (starts_new_run) {
        prev_run = std::move(current_run);
        current_run.clear();
      }
      for (const Holder* p : prev_run) {
        if (p->tx != h.tx) graph.add_edge(p->tx, h.tx);
      }
      current_run.push_back(&h);
    }
  }
  return graph;
}

ScheduleMetrics compute_metrics(const HappensBeforeGraph& graph) {
  ScheduleMetrics metrics;
  metrics.transactions = graph.node_count();
  metrics.edges = graph.edge_count();
  if (graph.node_count() == 0) return metrics;

  const auto order = graph.topological_order();
  if (!order) return metrics;  // Cyclic graphs have no meaningful metrics.

  // Longest path (in nodes) ending at each vertex, computed in topo order.
  std::vector<std::size_t> depth(graph.node_count(), 1);
  for (const std::uint32_t u : *order) {
    for (const std::uint32_t v : graph.successors(u)) {
      depth[v] = std::max(depth[v], depth[u] + 1);
    }
  }
  metrics.critical_path = *std::max_element(depth.begin(), depth.end());
  metrics.parallelism =
      static_cast<double>(metrics.transactions) / static_cast<double>(metrics.critical_path);

  std::vector<std::size_t> width(metrics.critical_path + 1, 0);
  for (const std::size_t d : depth) ++width[d];
  metrics.max_level_width = *std::max_element(width.begin(), width.end());
  return metrics;
}

}  // namespace concord::graph
