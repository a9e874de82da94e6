#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "chain/block.hpp"
#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace concord::net {

/// Bumped whenever the frame payload encoding or the meaning of a field
/// changes. Peers whose versions disagree cannot exchange blocks; the
/// Hello handshake rejects the session up front instead of letting a
/// decode error or a root mismatch masquerade as a Byzantine peer later.
/// 2: state roots use vm::World::kStateRootFormat 2. 3: no shard-lane count.
/// 4: the block schedule is its lock profiles alone (no edges, no order).
inline constexpr std::uint32_t kProtocolVersion = 4;

/// Frame payload discriminator — the first payload byte of every frame.
enum class MsgType : std::uint8_t {
  kHello = 0,
  kBlockAnnounce = 1,
  kBlockRequest = 2,
  kAck = 3,
  kNack = 4,
};

/// Session opener, sent by both sides. The genesis root pins the two
/// peers to the same chain identity: a follower must never splice blocks
/// from a leader whose world it does not share — that is a different
/// network, not a fork.
struct Hello {
  std::uint32_t protocol = kProtocolVersion;
  util::Hash256 genesis_root;
  std::uint64_t head = 0;  ///< Sender's current chain height.

  friend bool operator==(const Hello&, const Hello&) = default;
};

/// A full serialized block pushed leader → follower. The block carries
/// its BlockSchedule (the lock profiles), so the follower derives the
/// happens-before graph itself and re-verifies the schedule across the
/// trust boundary exactly as the paper's validator does — nothing is
/// taken on faith from the wire.
struct BlockAnnounce {
  chain::Block block;

  friend bool operator==(const BlockAnnounce&, const BlockAnnounce&) = default;
};

/// Follower → leader: re-send block `number` (catch-up after a
/// reconnect, or honest retransmission after a Nack).
struct BlockRequest {
  std::uint64_t number = 0;

  friend bool operator==(const BlockRequest&, const BlockRequest&) = default;
};

/// Follower → leader: block `number` validated and appended; `head_root`
/// is the follower's resulting state root, so the leader can observe
/// replication divergence the moment it happens instead of at the next
/// rejected block.
struct Ack {
  std::uint64_t number = 0;
  util::Hash256 head_root;

  friend bool operator==(const Ack&, const Ack&) = default;
};

/// Why a follower refused an announced block. Coarser than
/// core::RejectReason on purpose: the wire code must stay stable across
/// validator-internal refactors, so validation failures map onto one
/// code and the human-readable detail carries the specifics.
enum class NackReason : std::uint8_t {
  kValidationFailed = 0,  ///< The validator rejected the replay (any RejectReason).
  kOutOfOrder = 1,        ///< Announced number skips past the follower's head.
  kWrongChain = 2,        ///< Hello genesis/protocol mismatch.
};

[[nodiscard]] std::string_view to_string(NackReason reason) noexcept;

/// Follower → leader: block `number` was rejected. The follower's chain
/// is unchanged (it recovered to its last accepted boundary); the leader
/// — or an honest relay — is expected to retransmit the real block.
struct Nack {
  std::uint64_t number = 0;
  NackReason reason = NackReason::kValidationFailed;
  std::string detail;

  friend bool operator==(const Nack&, const Nack&) = default;
};

using Message = std::variant<Hello, BlockAnnounce, BlockRequest, Ack, Nack>;

/// Canonical frame-payload encoding of a message: one MsgType byte, then
/// the body. Deterministic — the same message always encodes to the same
/// bytes on every node.
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& message);

/// Exact inverse of encode_message, with the wire layer's byte-identity
/// guarantee: for any payload this function accepts,
/// encode_message(decode_message(payload)) == payload, byte for byte.
/// Everything else — unknown type byte, truncated field at any depth,
/// non-canonical varint, trailing garbage — throws util::DecodeError.
/// (Violating byte identity would let a relay mutate a block without
/// either endpoint noticing a re-encode mismatch, so trailing bytes and
/// redundant encodings are errors, not slack.)
[[nodiscard]] Message decode_message(std::span<const std::uint8_t> payload);

/// The discriminator of an encoded payload without a full decode —
/// diagnostic/log use only; never a substitute for decode_message.
[[nodiscard]] std::string_view message_name(const Message& message) noexcept;

}  // namespace concord::net
