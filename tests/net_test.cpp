#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/miner.hpp"
#include "core/validator.hpp"
#include "graph/happens_before.hpp"
#include "net/peer.hpp"
#include "net/replication.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "node/node.hpp"
#include "workload/workload.hpp"

namespace concord::net {
namespace {

using node::Node;
using node::NodeConfig;
using workload::BenchmarkKind;
using workload::StreamSpec;
using workload::make_stream_fixture;

StreamSpec stream_spec(std::size_t blocks, std::size_t txs_per_block) {
  StreamSpec spec;
  spec.kind = BenchmarkKind::kBallot;
  spec.blocks = blocks;
  spec.txs_per_block = txs_per_block;
  spec.conflict_percent = 20;
  return spec;
}

/// Honest single-node reference: serial-mine the fixture's stream into
/// blocks 1..N. Deterministic, so every call over the same spec produces
/// byte-identical blocks — the replication gate compares against these.
std::vector<chain::Block> make_reference_blocks(const StreamSpec& spec) {
  auto fixture = make_stream_fixture(spec);
  core::MinerConfig miner_config;
  miner_config.nanos_per_gas = 0.0;
  core::Miner miner(*fixture.world, miner_config);
  chain::Blockchain chain(fixture.world->state_root());
  std::vector<chain::Block> blocks;
  const auto& stream = fixture.transactions;
  for (std::size_t start = 0; start < stream.size(); start += spec.txs_per_block) {
    const std::size_t end = std::min(start + spec.txs_per_block, stream.size());
    const std::vector<chain::Transaction> batch(
        stream.begin() + static_cast<std::ptrdiff_t>(start),
        stream.begin() + static_cast<std::ptrdiff_t>(end));
    chain::Block block = miner.mine_serial(batch, chain.tip());
    chain.append(block);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

/// A follower node over the same fixture (same genesis world) as the
/// reference blocks; it never mines, only validates what the wire says.
std::unique_ptr<Node> make_follower(const StreamSpec& spec) {
  auto fixture = make_stream_fixture(spec);
  NodeConfig config;
  config.miner.nanos_per_gas = 0.0;
  config.validator.nanos_per_gas = 0.0;
  return std::make_unique<Node>(std::move(fixture.world), config);
}

std::vector<std::uint8_t> encoded(const chain::Block& block) {
  util::ByteWriter w;
  block.encode(w);
  return std::move(w).take();
}

/// Asserts the follower chain is byte-identical to the reference at
/// every height — the acceptance gate's strongest form.
void expect_chain_matches(const Node& follower, const std::vector<chain::Block>& reference,
                          std::uint64_t height) {
  ASSERT_EQ(follower.chain().height(), height);
  for (std::uint64_t n = 1; n <= height; ++n) {
    const chain::Block& ours = follower.chain().at(n);
    const chain::Block& honest = reference[static_cast<std::size_t>(n) - 1];
    EXPECT_EQ(ours.hash(), honest.hash()) << "block " << n << " hash diverged";
    EXPECT_EQ(encoded(ours), encoded(honest)) << "block " << n << " bytes diverged";
  }
}

// Test-side wire driver: raw frame reader/writer over one pipe endpoint,
// so tests can speak the protocol precisely — including violating it.
template <typename T>
T expect_msg(FrameReader& reader, const char* context) {
  std::optional<std::vector<std::uint8_t>> payload = reader.read_frame();
  if (!payload.has_value()) {
    throw std::runtime_error(std::string("stream ended early: ") + context);
  }
  Message message = decode_message(*payload);
  if (!std::holds_alternative<T>(message)) {
    throw std::runtime_error(std::string("unexpected ") + std::string(message_name(message)) +
                             " while waiting for " + context);
  }
  return std::get<T>(std::move(message));
}

void send_msg(FrameWriter& writer, const Message& message) {
  writer.write_frame(encode_message(message));
}

util::Hash256 test_hash(std::uint8_t fill) {
  util::Hash256 h;
  h.bytes.fill(fill);
  return h;
}

// ------------------------------------------------------- Wire codec ---

TEST(NetWire, RoundTripsEveryMessageType) {
  const std::vector<chain::Block> reference = make_reference_blocks(stream_spec(1, 8));
  const std::vector<Message> corpus = {
      Hello{kProtocolVersion, test_hash(0xaa), 42},
      BlockAnnounce{reference[0]},
      BlockRequest{7},
      Ack{3, test_hash(0x11)},
      Nack{5, NackReason::kOutOfOrder, "expected block 4"},
      Nack{0, NackReason::kWrongChain, ""},
  };
  for (const Message& message : corpus) {
    const std::vector<std::uint8_t> payload = encode_message(message);
    const Message back = decode_message(payload);
    EXPECT_EQ(back, message) << message_name(message);
    // The byte-identity guarantee: decode → re-encode is the identity on
    // accepted payloads, so a relay cannot mutate a frame unnoticed.
    EXPECT_EQ(encode_message(back), payload) << message_name(message);
  }
}

TEST(NetWire, TruncationCorpusEveryPrefixRejected) {
  const std::vector<chain::Block> reference = make_reference_blocks(stream_spec(1, 6));
  const std::vector<Message> corpus = {
      Hello{kProtocolVersion, test_hash(0x42), 9},
      BlockAnnounce{reference[0]},
      BlockRequest{300},  // Multi-byte varint.
      Ack{128, test_hash(0x02)},
      Nack{1, NackReason::kValidationFailed, "state root mismatch"},
  };
  for (const Message& message : corpus) {
    const std::vector<std::uint8_t> payload = encode_message(message);
    // Every strict prefix — a truncation at EVERY field boundary and
    // mid-field position — must be a typed error, never UB or a
    // partially-decoded message.
    for (std::size_t len = 0; len < payload.size(); ++len) {
      const std::span<const std::uint8_t> prefix(payload.data(), len);
      EXPECT_THROW((void)decode_message(prefix), util::DecodeError)
          << message_name(message) << " prefix of " << len << "/" << payload.size();
    }
    // And one trailing byte breaks byte-identity, so it is an error too.
    std::vector<std::uint8_t> padded = payload;
    padded.push_back(0);
    EXPECT_THROW((void)decode_message(padded), util::DecodeError) << message_name(message);
  }
}

TEST(NetWire, UnknownTypeByteRejected) {
  for (const std::uint8_t type : {std::uint8_t{5}, std::uint8_t{17}, std::uint8_t{255}}) {
    const std::vector<std::uint8_t> payload = {type};
    EXPECT_THROW((void)decode_message(payload), util::DecodeError);
  }
}

TEST(NetWire, NonCanonicalVarintInBodyRejected) {
  // BlockRequest{5} canonically encodes as {type, 0x05}; the padded
  // {type, 0x85, 0x00} spelling would decode to the same message and
  // re-encode differently — byte identity demands rejection.
  const std::vector<std::uint8_t> padded = {
      static_cast<std::uint8_t>(MsgType::kBlockRequest), 0x85, 0x00};
  EXPECT_THROW((void)decode_message(padded), util::DecodeError);
}

TEST(NetWire, BadNackReasonRejected) {
  std::vector<std::uint8_t> payload = encode_message(Message{Nack{1, NackReason::kWrongChain, ""}});
  // The reason byte follows the (1-byte) number varint and the type byte.
  payload[2] = 9;
  EXPECT_THROW((void)decode_message(payload), util::DecodeError);
}

// -------------------------------------------------------- Transport ---

TEST(NetTransport, PipeRoundTripAndCleanEof) {
  auto [a, b] = PipeTransport::make_pair();
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  a->write_all(data);
  std::vector<std::uint8_t> out(data.size());
  std::size_t got = 0;
  while (got < out.size()) {
    got += b->read_some(std::span(out).subspan(got));
  }
  EXPECT_EQ(out, data);
  a->close();
  std::uint8_t byte = 0;
  EXPECT_EQ(b->read_some(std::span(&byte, 1)), 0u);  // EOF after drain.
  EXPECT_TRUE(b->closed());
}

TEST(NetTransport, WriteAfterCloseThrows) {
  auto [a, b] = PipeTransport::make_pair();
  b->close();
  const std::vector<std::uint8_t> data = {1};
  EXPECT_THROW(a->write_all(data), TransportError);
}

TEST(NetTransport, BackpressureBlocksWriterUntilReaderDrains) {
  auto [a, b] = PipeTransport::make_pair(/*capacity=*/4);
  std::atomic<bool> writer_done{false};
  std::jthread writer([&a = a, &writer_done] {
    const std::vector<std::uint8_t> burst(64, 0xab);
    a->write_all(burst);  // 16x the pipe capacity: must block on flow control.
    writer_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_done.load()) << "writer finished without flow control";
  std::vector<std::uint8_t> out(64);
  std::size_t got = 0;
  while (got < out.size()) {
    got += b->read_some(std::span(out).subspan(got));
  }
  writer.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](std::uint8_t v) { return v == 0xab; }));
}

TEST(NetFrame, RoundTripManyFramesConcurrently) {
  auto [a, b] = PipeTransport::make_pair(/*capacity=*/64);  // Small: forces partial writes.
  constexpr int kFrames = 200;
  std::jthread writer([&a = a] {
    FrameWriter w(*a);
    for (int i = 0; i < kFrames; ++i) {
      std::vector<std::uint8_t> payload(1 + static_cast<std::size_t>(i) % 37,
                                        static_cast<std::uint8_t>(i));
      w.write_frame(payload);
    }
    a->close();
  });
  FrameReader r(*b);
  for (int i = 0; i < kFrames; ++i) {
    const auto payload = r.read_frame();
    ASSERT_TRUE(payload.has_value()) << "stream ended at frame " << i;
    EXPECT_EQ(payload->size(), 1 + static_cast<std::size_t>(i) % 37);
    EXPECT_EQ(payload->front(), static_cast<std::uint8_t>(i));
  }
  EXPECT_FALSE(r.read_frame().has_value());  // Clean EOF on the boundary.
}

TEST(NetFrame, TruncatedFrameThrowsTransportError) {
  auto [a, b] = PipeTransport::make_pair();
  util::ByteWriter prefix;
  prefix.put_u32_fixed(100);  // Claim 100 payload bytes...
  a->write_all(prefix.bytes());
  const std::vector<std::uint8_t> partial(10, 0x55);  // ...deliver 10.
  a->write_all(partial);
  a->close();
  FrameReader r(*b);
  EXPECT_THROW((void)r.read_frame(), TransportError);
}

TEST(NetFrame, TruncatedLengthPrefixThrowsTransportError) {
  auto [a, b] = PipeTransport::make_pair();
  const std::vector<std::uint8_t> half_prefix = {0x10, 0x00};  // 2 of 4 length bytes.
  a->write_all(half_prefix);
  a->close();
  FrameReader r(*b);
  EXPECT_THROW((void)r.read_frame(), TransportError);
}

TEST(NetFrame, OversizedLengthRejectedBeforeAllocation) {
  auto [a, b] = PipeTransport::make_pair();
  util::ByteWriter prefix;
  prefix.put_u32_fixed(static_cast<std::uint32_t>(kMaxFrameBytes) + 1);
  a->write_all(prefix.bytes());
  FrameReader r(*b);
  EXPECT_THROW((void)r.read_frame(), util::DecodeError);
}

// ------------------------------------------------------------- Peer ---

TEST(NetPeer, SendAndReceiveBothDirections) {
  auto [a, b] = PipeTransport::make_pair();
  Peer alice(std::move(a), PeerConfig{.name = "alice"});
  Peer bob(std::move(b), PeerConfig{.name = "bob"});

  ASSERT_TRUE(alice.send(Message{Hello{kProtocolVersion, test_hash(1), 3}}));
  ASSERT_TRUE(bob.send(Message{Ack{3, test_hash(2)}}));

  const auto at_bob = bob.recv();
  ASSERT_TRUE(at_bob.has_value());
  EXPECT_EQ(*at_bob, Message(Hello{kProtocolVersion, test_hash(1), 3}));

  const auto at_alice = alice.recv();
  ASSERT_TRUE(at_alice.has_value());
  EXPECT_EQ(*at_alice, Message(Ack{3, test_hash(2)}));

  alice.close();
  EXPECT_FALSE(bob.recv().has_value());
  EXPECT_FALSE(bob.failed()) << bob.error();  // A close is not a wire failure.
  EXPECT_EQ(alice.stats().frames_sent, 1u);
  EXPECT_EQ(bob.stats().frames_received, 1u);
  EXPECT_GT(bob.stats().bytes_received, 0u);
}

TEST(NetPeer, MalformedPayloadKillsTheSession) {
  auto [a, b] = PipeTransport::make_pair();
  Peer victim(std::move(a), PeerConfig{.name = "victim"});
  FrameWriter attacker(*b);
  const std::vector<std::uint8_t> garbage = {0xff, 0x00, 0x13};  // Unknown type byte.
  attacker.write_frame(garbage);
  EXPECT_FALSE(victim.recv().has_value());
  EXPECT_TRUE(victim.failed());
  EXPECT_NE(victim.error().find("unknown message type"), std::string::npos) << victim.error();
}

TEST(NetPeer, InboundRingBoundsBufferingAndPreservesOrder) {
  auto [a, b] = PipeTransport::make_pair();
  Peer consumer(std::move(a), PeerConfig{.name = "consumer", .inbound_depth = 2});
  constexpr std::uint64_t kCount = 50;
  std::jthread producer([&b = b] {
    FrameWriter w(*b);
    for (std::uint64_t i = 1; i <= kCount; ++i) {
      w.write_frame(encode_message(Message{BlockRequest{i}}));
    }
    b->close();
  });
  // A deliberately slow consumer: the depth-2 ring plus transport
  // backpressure must deliver everything, in order, without unbounded
  // buffering.
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    const auto message = consumer.recv();
    ASSERT_TRUE(message.has_value()) << "stream ended at " << i;
    const auto* request = std::get_if<BlockRequest>(&*message);
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->number, i);
  }
  EXPECT_FALSE(consumer.recv().has_value());
  EXPECT_FALSE(consumer.failed()) << consumer.error();
  EXPECT_LE(consumer.stats().inbound_high_water, 2u);
  EXPECT_EQ(consumer.stats().frames_received, kCount);
}

TEST(NetPeer, BroadcastReachesEveryPeerEncodedOnce) {
  auto peers = std::make_shared<PeerSet>();
  std::vector<std::unique_ptr<Peer>> remote_ends;
  for (int i = 0; i < 3; ++i) {
    auto [local, remote] = PipeTransport::make_pair();
    peers->add(std::make_shared<Peer>(std::move(local),
                                      PeerConfig{.name = "local-" + std::to_string(i)}));
    remote_ends.push_back(std::make_unique<Peer>(
        std::move(remote), PeerConfig{.name = "remote-" + std::to_string(i)}));
  }
  peers->broadcast(Message{BlockRequest{77}});
  for (auto& remote : remote_ends) {
    const auto message = remote->recv();
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(*message, Message(BlockRequest{77}));
  }
  peers->close_all();
}

// ------------------------------------------- Leader/follower nodes ---

/// The honest gate: a leader node mines a >= 20-block stream and
/// replicates it over the wire; the follower's chain must be
/// byte-identical to the leader's at every height.
TEST(NetReplication, HonestTwentyBlockStreamReplicatesByteIdentically) {
  const StreamSpec spec = stream_spec(/*blocks=*/20, /*txs_per_block=*/25);

  // Wire: one pipe; follower session on one end, leader's peer set on
  // the other.
  auto [follower_end, leader_end] = PipeTransport::make_pair();
  Peer follower_peer(std::move(follower_end), PeerConfig{.name = "follower"});
  auto peers = std::make_shared<PeerSet>();
  peers->add(std::make_shared<Peer>(std::move(leader_end), PeerConfig{.name = "leader"}));

  // Leader: a real mining node in deterministic mode, with replication
  // hooked into block acceptance.
  auto leader_fixture = make_stream_fixture(spec);
  Leader leader(peers, leader_fixture.world->state_root());
  NodeConfig leader_config;
  leader_config.miner.nanos_per_gas = 0.0;
  leader_config.validator.nanos_per_gas = 0.0;
  leader_config.batch.target_txs = spec.txs_per_block;
  leader_config.mining = node::MiningMode::kSerial;
  leader_config.on_block_accepted = leader.announcer();
  Node leader_node(std::move(leader_fixture.world), leader_config);
  leader.start();

  auto follower_node = make_follower(spec);
  std::jthread follower_thread(
      [&follower_node, &follower_peer] { follower_node->run_follower(follower_peer); });

  std::jthread producer([&leader_node, stream = std::move(leader_fixture.transactions)]() mutable {
    (void)leader_node.mempool().submit_many(std::move(stream));
    leader_node.mempool().close();
  });
  leader_node.run();
  ASSERT_TRUE(leader_node.ok());
  const std::uint64_t height = leader_node.chain().height();
  ASSERT_GE(height, 20u);
  EXPECT_EQ(leader.announced(), height);

  // Wait for the follower to ack the whole stream, then end the session.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto progress = leader.progress();
    if (!progress.empty() && progress[0].acked >= height) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto progress = leader.progress();
  ASSERT_FALSE(progress.empty());
  EXPECT_EQ(progress[0].acked, height);
  EXPECT_EQ(progress[0].nacks, 0u);
  EXPECT_FALSE(progress[0].diverged);
  leader.stop();
  follower_thread.join();

  // Byte identity at every height, leader vs follower.
  ASSERT_EQ(follower_node->chain().height(), height);
  for (std::uint64_t n = 1; n <= height; ++n) {
    EXPECT_EQ(follower_node->chain().at(n).hash(), leader_node.chain().at(n).hash())
        << "height " << n;
    EXPECT_EQ(encoded(follower_node->chain().at(n)), encoded(leader_node.chain().at(n)))
        << "height " << n;
  }
  EXPECT_TRUE(follower_node->ok());
  EXPECT_EQ(follower_node->stats().net_acks_sent, height);
  EXPECT_EQ(follower_node->stats().net_announces, height);
  EXPECT_EQ(follower_node->stats().net_wire_errors, 0u);

  // The follower serves reads: its snapshot ring published every
  // accepted boundary, so "as of block N" works on the replica.
  const Node::Pin pin = follower_node->pin_no_older_than(height, std::chrono::milliseconds(0));
  EXPECT_GE(pin->number, height);
  EXPECT_EQ(pin->snapshot.state_root(), follower_node->chain().tip().header.state_root);
}

/// Byzantine gate 1: an announced block whose header claims a corrupted
/// post-root is rejected deterministically; the follower Nacks, recovers
/// to its last accepted boundary, and accepts the honest retransmission
/// — the final chain is byte-identical to the honest reference.
TEST(NetReplication, ByzantineCorruptPostRootRejectedThenConverges) {
  const StreamSpec spec = stream_spec(/*blocks=*/4, /*txs_per_block=*/12);
  const std::vector<chain::Block> reference = make_reference_blocks(spec);
  ASSERT_GE(reference.size(), 4u);

  auto follower_node = make_follower(spec);
  auto [follower_end, test_end] = PipeTransport::make_pair();
  Peer follower_peer(std::move(follower_end), PeerConfig{.name = "follower"});
  std::jthread follower_thread(
      [&follower_node, &follower_peer] { follower_node->run_follower(follower_peer); });

  FrameWriter to_follower(*test_end);
  FrameReader from_follower(*test_end);

  const Hello hello = expect_msg<Hello>(from_follower, "session opener");
  EXPECT_EQ(hello.head, 0u);

  // Block 1, honest.
  send_msg(to_follower, Message{BlockAnnounce{reference[0]}});
  const Ack ack1 = expect_msg<Ack>(from_follower, "ack for block 1");
  EXPECT_EQ(ack1.number, 1u);
  EXPECT_EQ(ack1.head_root, reference[0].header.state_root);

  // Block 2 with a corrupted post-root: commitments do not cover the
  // state root, so only honest replay can catch it.
  chain::Block corrupt = reference[1];
  corrupt.header.state_root.bytes[0] ^= 0xff;
  send_msg(to_follower, Message{BlockAnnounce{corrupt}});
  const Nack nack = expect_msg<Nack>(from_follower, "nack for corrupt block 2");
  EXPECT_EQ(nack.number, 2u);
  EXPECT_EQ(nack.reason, NackReason::kValidationFailed);
  EXPECT_NE(nack.detail.find("state root"), std::string::npos) << nack.detail;
  const BlockRequest retry = expect_msg<BlockRequest>(from_follower, "retransmission request");
  EXPECT_EQ(retry.number, 2u);

  // Honest retransmission converges.
  send_msg(to_follower, Message{BlockAnnounce{reference[1]}});
  const Ack ack2 = expect_msg<Ack>(from_follower, "ack for honest block 2");
  EXPECT_EQ(ack2.number, 2u);
  EXPECT_EQ(ack2.head_root, reference[1].header.state_root);

  send_msg(to_follower, Message{BlockAnnounce{reference[2]}});
  (void)expect_msg<Ack>(from_follower, "ack for block 3");
  test_end->close();
  follower_thread.join();

  expect_chain_matches(*follower_node, reference, /*height=*/3);
  EXPECT_FALSE(follower_node->ok());  // The rejection is on the record...
  EXPECT_EQ(follower_node->stats().rejected_blocks, 1u);
  EXPECT_EQ(follower_node->stats().recoveries, 1u);  // ...and was recovered from.
  EXPECT_EQ(follower_node->stats().net_nacks_sent, 1u);
  EXPECT_EQ(follower_node->stats().net_wire_errors, 0u);
}

/// Byzantine gate 2: lying use counters. No edges travel on the wire, so
/// a leader can drop a happens-before constraint only by forging the
/// counters it derives from; here transactions 0 and 1 claim opposite
/// orders on two locks and the schedule hash is re-sealed, so the header
/// commitments pass — only the follower's own derivation of the graph
/// across the trust boundary catches the cycle, before any replay starts.
TEST(NetReplication, ByzantineDroppedEdgeRejectedThenConverges) {
  const StreamSpec spec = stream_spec(/*blocks=*/3, /*txs_per_block=*/10);
  const std::vector<chain::Block> reference = make_reference_blocks(spec);
  ASSERT_EQ(reference.size(), 3u);

  const std::size_t faulty = 1;
  chain::Block malformed = reference[faulty];
  ASSERT_GE(malformed.transactions.size(), 3u);  // A third, honest tx keeps a root.
  const stm::LockId first{0xC7C1E, 1};
  const stm::LockId second{0xC7C1E, 2};
  auto& p0 = malformed.schedule.profiles[0];
  auto& p1 = malformed.schedule.profiles[1];
  p0.entries.push_back({first, stm::LockMode::kWrite, 1});
  p0.entries.push_back({second, stm::LockMode::kWrite, 2});
  p1.entries.push_back({first, stm::LockMode::kWrite, 2});
  p1.entries.push_back({second, stm::LockMode::kWrite, 1});
  p0.canonicalize();
  p1.canonicalize();
  malformed.header.schedule_hash = malformed.schedule.hash();
  ASSERT_TRUE(malformed.commitments_consistent());
  ASSERT_FALSE(malformed.schedule.to_graph(malformed.transactions.size()).is_acyclic());

  auto follower_node = make_follower(spec);
  auto [follower_end, test_end] = PipeTransport::make_pair();
  Peer follower_peer(std::move(follower_end), PeerConfig{.name = "follower"});
  std::jthread follower_thread(
      [&follower_node, &follower_peer] { follower_node->run_follower(follower_peer); });

  FrameWriter to_follower(*test_end);
  FrameReader from_follower(*test_end);
  (void)expect_msg<Hello>(from_follower, "session opener");
  for (std::size_t b = 0; b < faulty; ++b) {
    send_msg(to_follower, Message{BlockAnnounce{reference[b]}});
    (void)expect_msg<Ack>(from_follower, "ack for an honest block before the fault");
  }

  const std::uint64_t number = faulty + 1;
  send_msg(to_follower, Message{BlockAnnounce{malformed}});
  const Nack nack = expect_msg<Nack>(from_follower, "nack for the forged counters");
  EXPECT_EQ(nack.number, number);
  EXPECT_EQ(nack.reason, NackReason::kValidationFailed);
  EXPECT_NE(nack.detail.find(core::to_string(core::RejectReason::kCyclicSchedule)),
            std::string::npos)
      << nack.detail;
  const BlockRequest retry = expect_msg<BlockRequest>(from_follower, "retransmission request");
  EXPECT_EQ(retry.number, number);

  send_msg(to_follower, Message{BlockAnnounce{reference[faulty]}});
  (void)expect_msg<Ack>(from_follower, "ack for the honest retransmission");
  send_msg(to_follower, Message{BlockAnnounce{reference[faulty + 1]}});
  (void)expect_msg<Ack>(from_follower, "ack for the next block");
  test_end->close();
  follower_thread.join();

  expect_chain_matches(*follower_node, reference, /*height=*/faulty + 2);
  EXPECT_EQ(follower_node->stats().rejected_blocks, 1u);
  EXPECT_EQ(follower_node->stats().net_nacks_sent, 1u);
}

/// Byzantine gate 3: a frame truncated mid-payload kills the session (a
/// byte stream cannot resynchronize); a reconnect resumes from the last
/// accepted boundary and catch-up pulls converge the chain.
TEST(NetReplication, TruncatedFrameKillsSessionThenReconnectCatchesUp) {
  const StreamSpec spec = stream_spec(/*blocks=*/3, /*txs_per_block=*/10);
  const std::vector<chain::Block> reference = make_reference_blocks(spec);
  ASSERT_GE(reference.size(), 3u);
  auto follower_node = make_follower(spec);

  {  // Session 1: one honest block, then a truncated frame.
    auto [follower_end, test_end] = PipeTransport::make_pair();
    Peer follower_peer(std::move(follower_end), PeerConfig{.name = "follower"});
    std::jthread follower_thread(
        [&follower_node, &follower_peer] { follower_node->run_follower(follower_peer); });
    FrameWriter to_follower(*test_end);
    FrameReader from_follower(*test_end);
    (void)expect_msg<Hello>(from_follower, "session 1 opener");
    send_msg(to_follower, Message{BlockAnnounce{reference[0]}});
    (void)expect_msg<Ack>(from_follower, "ack for block 1");

    util::ByteWriter prefix;
    prefix.put_u32_fixed(4096);  // Claim 4 KiB...
    test_end->write_all(prefix.bytes());
    const std::vector<std::uint8_t> partial(16, 0x77);  // ...deliver 16 bytes.
    test_end->write_all(partial);
    test_end->close();
    follower_thread.join();
  }
  EXPECT_EQ(follower_node->chain().height(), 1u);
  EXPECT_EQ(follower_node->stats().net_wire_errors, 1u);
  EXPECT_EQ(follower_node->stats().net_sessions, 1u);

  {  // Session 2: reconnect; the leader's Hello advertises head 3 and
     // the follower pulls the gap block by block.
    auto [follower_end, test_end] = PipeTransport::make_pair();
    Peer follower_peer(std::move(follower_end), PeerConfig{.name = "follower"});
    std::jthread follower_thread(
        [&follower_node, &follower_peer] { follower_node->run_follower(follower_peer); });
    FrameWriter to_follower(*test_end);
    FrameReader from_follower(*test_end);
    const Hello hello = expect_msg<Hello>(from_follower, "session 2 opener");
    EXPECT_EQ(hello.head, 1u);  // Resumed from the accepted boundary, not genesis.

    send_msg(to_follower, Message{Hello{kProtocolVersion,
                                        follower_node->genesis_snapshot().state_root(),
                                        /*head=*/3}});
    const BlockRequest pull2 = expect_msg<BlockRequest>(from_follower, "pull for block 2");
    EXPECT_EQ(pull2.number, 2u);
    send_msg(to_follower, Message{BlockAnnounce{reference[1]}});
    (void)expect_msg<Ack>(from_follower, "ack for block 2");
    const BlockRequest pull3 = expect_msg<BlockRequest>(from_follower, "pull for block 3");
    EXPECT_EQ(pull3.number, 3u);
    send_msg(to_follower, Message{BlockAnnounce{reference[2]}});
    (void)expect_msg<Ack>(from_follower, "ack for block 3");
    test_end->close();
    follower_thread.join();
  }

  expect_chain_matches(*follower_node, reference, /*height=*/3);
  EXPECT_TRUE(follower_node->ok());  // A wire failure is not a validation failure.
  EXPECT_EQ(follower_node->stats().net_sessions, 2u);
  EXPECT_EQ(follower_node->stats().net_wire_errors, 1u);
}

/// Out-of-order announces are Nacked without touching state, and the
/// follower names the block it actually needs.
TEST(NetReplication, OutOfOrderAnnounceNackedThenConverges) {
  const StreamSpec spec = stream_spec(/*blocks=*/2, /*txs_per_block=*/10);
  const std::vector<chain::Block> reference = make_reference_blocks(spec);
  ASSERT_GE(reference.size(), 2u);

  auto follower_node = make_follower(spec);
  auto [follower_end, test_end] = PipeTransport::make_pair();
  Peer follower_peer(std::move(follower_end), PeerConfig{.name = "follower"});
  std::jthread follower_thread(
      [&follower_node, &follower_peer] { follower_node->run_follower(follower_peer); });
  FrameWriter to_follower(*test_end);
  FrameReader from_follower(*test_end);
  (void)expect_msg<Hello>(from_follower, "session opener");

  send_msg(to_follower, Message{BlockAnnounce{reference[1]}});  // Block 2 first.
  const Nack nack = expect_msg<Nack>(from_follower, "out-of-order nack");
  EXPECT_EQ(nack.number, 2u);
  EXPECT_EQ(nack.reason, NackReason::kOutOfOrder);
  const BlockRequest request = expect_msg<BlockRequest>(from_follower, "gap request");
  EXPECT_EQ(request.number, 1u);

  send_msg(to_follower, Message{BlockAnnounce{reference[0]}});
  (void)expect_msg<Ack>(from_follower, "ack for block 1");
  const BlockRequest next = expect_msg<BlockRequest>(from_follower, "catch-up request");
  EXPECT_EQ(next.number, 2u);
  send_msg(to_follower, Message{BlockAnnounce{reference[1]}});
  (void)expect_msg<Ack>(from_follower, "ack for block 2");
  test_end->close();
  follower_thread.join();

  expect_chain_matches(*follower_node, reference, /*height=*/2);
  EXPECT_TRUE(follower_node->ok());  // No validation failure — only ordering.
  EXPECT_EQ(follower_node->stats().rejected_blocks, 0u);
}

/// A leader on a different chain (genesis mismatch) is refused at the
/// handshake: Nack kWrongChain, session closed, nothing appended.
TEST(NetReplication, WrongChainHelloRefusedAtHandshake) {
  const StreamSpec spec = stream_spec(/*blocks=*/1, /*txs_per_block=*/6);
  auto follower_node = make_follower(spec);
  auto [follower_end, test_end] = PipeTransport::make_pair();
  Peer follower_peer(std::move(follower_end), PeerConfig{.name = "follower"});
  std::jthread follower_thread(
      [&follower_node, &follower_peer] { follower_node->run_follower(follower_peer); });
  FrameWriter to_follower(*test_end);
  FrameReader from_follower(*test_end);
  (void)expect_msg<Hello>(from_follower, "session opener");

  send_msg(to_follower, Message{Hello{kProtocolVersion, test_hash(0xcd), 5}});
  const Nack nack = expect_msg<Nack>(from_follower, "wrong-chain nack");
  EXPECT_EQ(nack.reason, NackReason::kWrongChain);
  follower_thread.join();  // The follower closed the session itself.
  EXPECT_EQ(follower_node->chain().height(), 0u);
  EXPECT_EQ(follower_node->stats().net_nacks_sent, 1u);
}

/// A peer on the previous protocol computes state roots in the previous
/// format, so every block it sent would fail the root check. It is
/// refused once, at the handshake, even when it names the right genesis.
TEST(NetReplication, OldProtocolHelloRefusedAtHandshake) {
  const StreamSpec spec = stream_spec(/*blocks=*/1, /*txs_per_block=*/6);
  auto follower_node = make_follower(spec);
  auto [follower_end, test_end] = PipeTransport::make_pair();
  Peer follower_peer(std::move(follower_end), PeerConfig{.name = "follower"});
  std::jthread follower_thread(
      [&follower_node, &follower_peer] { follower_node->run_follower(follower_peer); });
  FrameWriter to_follower(*test_end);
  FrameReader from_follower(*test_end);
  (void)expect_msg<Hello>(from_follower, "session opener");

  send_msg(to_follower,
           Message{Hello{kProtocolVersion - 1, follower_node->genesis_snapshot().state_root(), 5}});
  const Nack nack = expect_msg<Nack>(from_follower, "old-protocol nack");
  EXPECT_EQ(nack.reason, NackReason::kWrongChain);
  EXPECT_EQ(nack.detail, "protocol version mismatch");
  follower_thread.join();
  EXPECT_EQ(follower_node->chain().height(), 0u);
  EXPECT_EQ(follower_node->stats().net_nacks_sent, 1u);
}

// --------------------------------------------- Read-your-writes pin ---

TEST(NetReadYourWrites, PinNoOlderThanWaitsForReplication) {
  const StreamSpec spec = stream_spec(/*blocks=*/3, /*txs_per_block=*/10);
  const std::vector<chain::Block> reference = make_reference_blocks(spec);
  auto follower_node = make_follower(spec);
  auto [follower_end, test_end] = PipeTransport::make_pair();
  Peer follower_peer(std::move(follower_end), PeerConfig{.name = "follower"});
  std::jthread follower_thread(
      [&follower_node, &follower_peer] { follower_node->run_follower(follower_peer); });
  FrameWriter to_follower(*test_end);
  FrameReader from_follower(*test_end);
  (void)expect_msg<Hello>(from_follower, "session opener");

  // The reading client pins "no older than block 2" BEFORE block 2 is
  // replicated: the pin must block until replication catches up.
  std::atomic<std::uint64_t> pinned_number{0};
  std::jthread reader([&follower_node, &pinned_number] {
    const Node::Pin pin =
        follower_node->pin_no_older_than(2, std::chrono::milliseconds(10'000));
    pinned_number.store(pin->number);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pinned_number.load(), 0u) << "pin returned before block 2 existed";

  send_msg(to_follower, Message{BlockAnnounce{reference[0]}});
  (void)expect_msg<Ack>(from_follower, "ack for block 1");
  send_msg(to_follower, Message{BlockAnnounce{reference[1]}});
  (void)expect_msg<Ack>(from_follower, "ack for block 2");
  reader.join();
  EXPECT_GE(pinned_number.load(), 2u);

  test_end->close();
  follower_thread.join();
}

TEST(NetReadYourWrites, PinNoOlderThanTimesOutWithTypedError) {
  const StreamSpec spec = stream_spec(/*blocks=*/1, /*txs_per_block=*/6);
  auto follower_node = make_follower(spec);
  // Nothing is replicating: a pin for block 1 must fail fast and typed.
  EXPECT_THROW(
      (void)follower_node->pin_no_older_than(1, std::chrono::milliseconds(20)),
      node::SnapshotEvicted);
  // Genesis (block 0) is published at construction: satisfied instantly.
  const Node::Pin pin = follower_node->pin_no_older_than(0, std::chrono::milliseconds(0));
  EXPECT_EQ(pin->number, 0u);
}

}  // namespace
}  // namespace concord::net
