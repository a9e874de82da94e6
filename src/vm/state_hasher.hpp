#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <utility>

#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace concord::vm {

/// A way to run independent tasks on a thread pool, for state hashing
/// that spreads its work. vm/ knows no pool type; the stage that owns one
/// adapts it (core::pool_parallel_for). `run(tasks, body)` calls
/// body(0..tasks-1), each exactly once, and returns when all have run;
/// at most workers() of them run at a time.
class ParallelFor {
 public:
  using Body = std::function<void(std::size_t task)>;
  using Run = std::function<void(std::size_t tasks, const Body& body)>;

  ParallelFor(unsigned workers, Run run) : workers_(workers), run_(std::move(run)) {}

  [[nodiscard]] unsigned workers() const noexcept { return workers_; }

  void operator()(std::size_t tasks, const Body& body) const { run_(tasks, body); }

 private:
  unsigned workers_;
  Run run_;
};

/// A map-valued field as the state hasher sees it. CowPages implements
/// it; the boosted maps hand their CowPages to StateHasher::put_map.
class HashableMap {
 public:
  /// Receives one entry's canonical encodings (codec.hpp).
  using EntryVisitor =
      std::function<void(std::span<const std::uint8_t> key, std::span<const std::uint8_t> value)>;

  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  /// A digest that depends only on the set of (key, value) entries.
  /// With `parallel`, the map may hash parts of itself on that pool; the
  /// digest is the same either way.
  [[nodiscard]] virtual util::Hash256 digest(const ParallelFor* parallel) const = 0;
  /// Visits every entry's encodings in unspecified order.
  virtual void for_each_encoded(const EntryVisitor& visit) const = 0;

 protected:
  ~HashableMap() = default;
};

/// Accumulates the world's state root. Contracts fold their fields in a
/// fixed order under section labels. Scalars and arrays contribute their
/// encoded values; a map contributes its entry count and its Merkle digest
/// (CowPages::digest). That digest is incremental: it caches a digest per
/// page and per directory node inside the shared COW objects, so a block's
/// root rehashes only the pages the block dirtied, plus their paths to the
/// top, and every fork sharing the clean pages reuses their cached digests.
/// The root still depends only on the abstract state (World::state_root
/// folds in the format version that fixes the layout).
///
/// put_map is the one virtual hook: a test oracle overrides it to fold a
/// map's raw entries instead of its digest. A hasher built with a
/// ParallelFor hands it to every map digest.
class StateHasher {
 public:
  explicit StateHasher(const ParallelFor* parallel = nullptr) : parallel_(parallel) {}
  StateHasher(const StateHasher&) = delete;
  StateHasher& operator=(const StateHasher&) = delete;
  virtual ~StateHasher() = default;

  /// Starts a named section (contract address, field name); the label is
  /// folded into the digest so that structurally different states cannot
  /// collide by concatenation.
  void begin_section(std::string_view label) { writer_.put_string(label); }

  void put_bytes(std::span<const std::uint8_t> bytes) { writer_.put_bytes(bytes); }
  void put_u64(std::uint64_t v) { writer_.put_varint(v); }

  /// Folds a map-valued field: its label, entry count and digest.
  virtual void put_map(std::string_view label, const HashableMap& map) {
    begin_section(label);
    put_u64(map.size());
    put_bytes(map.digest(parallel_).bytes);
  }

  /// Finishes and returns the state root.
  [[nodiscard]] util::Hash256 finish() const {
    return util::sha256(std::span<const std::uint8_t>(writer_.bytes()));
  }

 private:
  const ParallelFor* parallel_;
  util::ByteWriter writer_;
};

}  // namespace concord::vm
