#include <gtest/gtest.h>

#include "graph/happens_before.hpp"

namespace concord::graph {
namespace {

using stm::LockId;
using stm::LockMode;
using stm::LockProfile;
using stm::LockProfileEntry;

LockProfile profile(std::uint32_t tx,
                    std::initializer_list<LockProfileEntry> entries, bool reverted = false) {
  LockProfile p;
  p.tx = tx;
  p.reverted = reverted;
  p.entries = entries;
  p.canonicalize();
  return p;
}

// ----------------------------------------------------------- Basics ----

TEST(HappensBefore, EmptyGraph) {
  HappensBeforeGraph g(0);
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_TRUE(g.topological_order()->empty());
}

TEST(HappensBefore, AddAndQueryEdges) {
  HappensBeforeGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 1);  // Duplicate ignored.
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.successors(0), (std::vector<std::uint32_t>{1}));
}

TEST(HappensBefore, TopologicalOrderDeterministicTieBreak) {
  HappensBeforeGraph g(4);
  g.add_edge(2, 0);
  // 1, 2, 3 are roots; Kahn with min-index tie-break gives 1, 2, 0|3...
  const auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<std::uint32_t>{1, 2, 0, 3}));
}

TEST(HappensBefore, CycleDetected) {
  HappensBeforeGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(g.topological_order().has_value());
  EXPECT_FALSE(g.is_acyclic());
}

// -------------------------------------------- Profile-derived edges ----

TEST(DeriveHappensBefore, WriteChain) {
  const LockId lock{1, 1};
  const std::vector<LockProfile> profiles = {
      profile(0, {{lock, LockMode::kWrite, 1}}),
      profile(1, {{lock, LockMode::kWrite, 2}}),
      profile(2, {{lock, LockMode::kWrite, 3}}),
  };
  const HappensBeforeGraph g = derive_happens_before(profiles, 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));  // Implied, not materialized.
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(DeriveHappensBefore, CompatibleReadsUnordered) {
  const LockId lock{1, 1};
  const std::vector<LockProfile> profiles = {
      profile(0, {{lock, LockMode::kRead, 1}}),
      profile(1, {{lock, LockMode::kRead, 2}}),
  };
  const HappensBeforeGraph g = derive_happens_before(profiles, 2);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(DeriveHappensBefore, CompatibleIncrementsUnordered) {
  const LockId lock{1, 1};
  const std::vector<LockProfile> profiles = {
      profile(0, {{lock, LockMode::kIncrement, 1}}),
      profile(1, {{lock, LockMode::kIncrement, 2}}),
  };
  EXPECT_EQ(derive_happens_before(profiles, 2).edge_count(), 0u);
}

TEST(DeriveHappensBefore, WriteAfterReadsFansIn) {
  const LockId lock{1, 1};
  const std::vector<LockProfile> profiles = {
      profile(0, {{lock, LockMode::kRead, 1}}),
      profile(1, {{lock, LockMode::kRead, 2}}),
      profile(2, {{lock, LockMode::kWrite, 3}}),
  };
  const HappensBeforeGraph g = derive_happens_before(profiles, 3);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(DeriveHappensBefore, ReadsAfterWriteFanOut) {
  const LockId lock{1, 1};
  const std::vector<LockProfile> profiles = {
      profile(0, {{lock, LockMode::kWrite, 1}}),
      profile(1, {{lock, LockMode::kRead, 2}}),
      profile(2, {{lock, LockMode::kRead, 3}}),
  };
  const HappensBeforeGraph g = derive_happens_before(profiles, 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(DeriveHappensBefore, ReadIncrementReadAlternation) {
  const LockId lock{1, 1};
  const std::vector<LockProfile> profiles = {
      profile(0, {{lock, LockMode::kRead, 1}}),
      profile(1, {{lock, LockMode::kIncrement, 2}}),
      profile(2, {{lock, LockMode::kRead, 3}}),
  };
  const HappensBeforeGraph g = derive_happens_before(profiles, 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  // 0 → 2 holds transitively through 1; the run algorithm does not
  // materialize it.
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(DeriveHappensBefore, DisjointLocksNoEdges) {
  const std::vector<LockProfile> profiles = {
      profile(0, {{LockId{1, 1}, LockMode::kWrite, 1}}),
      profile(1, {{LockId{1, 2}, LockMode::kWrite, 1}}),
      profile(2, {{LockId{2, 1}, LockMode::kWrite, 1}}),
  };
  EXPECT_EQ(derive_happens_before(profiles, 3).edge_count(), 0u);
}

TEST(DeriveHappensBefore, MultiLockTransaction) {
  const LockId lock_a{1, 1};
  const LockId lock_b{1, 2};
  const std::vector<LockProfile> profiles = {
      profile(0, {{lock_a, LockMode::kWrite, 1}, {lock_b, LockMode::kWrite, 1}}),
      profile(1, {{lock_a, LockMode::kWrite, 2}}),
      profile(2, {{lock_b, LockMode::kWrite, 2}}),
  };
  const HappensBeforeGraph g = derive_happens_before(profiles, 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 2u);
}

// ------------------------------------------------------------ Metrics --

TEST(Metrics, ChainHasNoParallelism) {
  HappensBeforeGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const ScheduleMetrics m = compute_metrics(g);
  EXPECT_EQ(m.critical_path, 4u);
  EXPECT_DOUBLE_EQ(m.parallelism, 1.0);
  EXPECT_EQ(m.max_level_width, 1u);
}

TEST(Metrics, IndependentTransactionsFullyParallel) {
  HappensBeforeGraph g(8);
  const ScheduleMetrics m = compute_metrics(g);
  EXPECT_EQ(m.critical_path, 1u);
  EXPECT_DOUBLE_EQ(m.parallelism, 8.0);
  EXPECT_EQ(m.max_level_width, 8u);
}

TEST(Metrics, DiamondShape) {
  HappensBeforeGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const ScheduleMetrics m = compute_metrics(g);
  EXPECT_EQ(m.critical_path, 3u);
  EXPECT_EQ(m.max_level_width, 2u);
}

}  // namespace
}  // namespace concord::graph
