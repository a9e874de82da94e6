#include <gtest/gtest.h>

#include "chain/block.hpp"
#include "chain/blockchain.hpp"
#include "chain/schedule.hpp"
#include "chain/transaction.hpp"

namespace concord::chain {
namespace {

Transaction sample_tx(std::uint64_t n) {
  return TxBuilder(vm::Address::from_u64(100 + n), vm::Address::from_u64(n), 3)
      .arg_u64(n * 7)
      .value(static_cast<vm::Amount>(n))
      .gas_limit(50'000 + n)
      .build();
}

BlockSchedule sample_schedule() {
  BlockSchedule s;
  stm::LockProfile p0;
  p0.tx = 0;
  p0.entries = {{{1, 2}, stm::LockMode::kWrite, 1}, {{3, 4}, stm::LockMode::kRead, 1}};
  stm::LockProfile p1;
  p1.tx = 1;
  p1.reverted = true;
  p1.entries = {{{1, 2}, stm::LockMode::kWrite, 2}};
  s.profiles = {p0, p1};
  return s;
}

// -------------------------------------------------------- Transaction --

TEST(Transaction, EncodeDecodeRoundTrip) {
  const Transaction tx = sample_tx(5);
  util::ByteWriter w;
  tx.encode(w);
  util::ByteReader r(w.bytes());
  const Transaction back = Transaction::decode(r);
  EXPECT_EQ(tx, back);
  EXPECT_TRUE(r.exhausted());
}

TEST(Transaction, HashIsStableAndSensitive) {
  EXPECT_EQ(sample_tx(1).hash(), sample_tx(1).hash());
  EXPECT_NE(sample_tx(1).hash(), sample_tx(2).hash());
}

TEST(Transaction, BuilderProducesDecodableArgs) {
  const Transaction tx = TxBuilder(vm::Address::from_u64(1), vm::Address::from_u64(2), 9)
                             .arg_u64(1234)
                             .arg_address(vm::Address::from_u64(3))
                             .arg_string("hi")
                             .build();
  util::ByteReader args(tx.args);
  EXPECT_EQ(args.get_varint(), 1234u);
  const auto addr = args.get_raw(20);
  EXPECT_TRUE(std::equal(addr.begin(), addr.end(), vm::Address::from_u64(3).bytes.begin()));
  EXPECT_EQ(args.get_string(), "hi");
}

TEST(Transaction, ToCallAndMsg) {
  const Transaction tx = sample_tx(3);
  EXPECT_EQ(tx.to_call().selector, 3u);
  EXPECT_EQ(tx.to_msg().sender, vm::Address::from_u64(3));
  EXPECT_EQ(tx.to_msg().receiver, vm::Address::from_u64(103));
  EXPECT_EQ(tx.to_msg().value, 3);
}

// ----------------------------------------------------------- Schedule --

TEST(Schedule, EncodeDecodeRoundTrip) {
  const BlockSchedule s = sample_schedule();
  util::ByteWriter w;
  s.encode(w);
  util::ByteReader r(w.bytes());
  const BlockSchedule back = BlockSchedule::decode(r);
  EXPECT_EQ(s, back);
  EXPECT_TRUE(r.exhausted());
}

TEST(Schedule, HashDetectsTampering) {
  const BlockSchedule s = sample_schedule();
  BlockSchedule tampered = s;
  tampered.profiles[1].entries[0].counter = 3;
  EXPECT_NE(s.hash(), tampered.hash());
}

TEST(Schedule, ToGraphMaterializesEdges) {
  const BlockSchedule s = sample_schedule();
  const auto g = s.to_graph(2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Schedule, DecodeRejectsBadMode) {
  BlockSchedule s = sample_schedule();
  util::ByteWriter w;
  s.encode(w);
  auto bytes = w.bytes();
  // Profile entry mode byte: find and corrupt it. Encoding layout: count,
  // then tx varint, reverted byte, entry count, then 8+8 lock bytes, mode.
  bytes[1 + 1 + 1 + 1 + 16] = 9;
  util::ByteReader r(bytes);
  EXPECT_THROW((void)BlockSchedule::decode(r), util::DecodeError);
}

TEST(Schedule, EncodedSizeMatchesEncoding) {
  const BlockSchedule s = sample_schedule();
  util::ByteWriter w;
  s.encode(w);
  EXPECT_EQ(s.encoded_size(), w.size());
}

// -------------------------------------------------------------- Block --

Block sample_block(const Block& parent) {
  Block b;
  b.transactions = {sample_tx(1), sample_tx(2)};
  b.statuses = {vm::TxStatus::kSuccess, vm::TxStatus::kReverted};
  b.schedule = sample_schedule();
  b.header.number = parent.header.number + 1;
  b.header.parent_hash = parent.hash();
  b.header.state_root = util::sha256("some state");
  b.header.tx_root = b.compute_tx_root();
  b.header.status_root = b.compute_status_root();
  b.header.schedule_hash = b.schedule.hash();
  return b;
}

TEST(Block, EncodeDecodeRoundTrip) {
  Blockchain chain(util::sha256("genesis"));
  const Block b = sample_block(chain.tip());
  util::ByteWriter w;
  b.encode(w);
  util::ByteReader r(w.bytes());
  const Block back = Block::decode(r);
  EXPECT_EQ(b, back);
  EXPECT_EQ(b.hash(), back.hash());
}

TEST(Block, CommitmentsDetectTamperedTx) {
  Blockchain chain(util::sha256("genesis"));
  Block b = sample_block(chain.tip());
  EXPECT_TRUE(b.commitments_consistent());
  b.transactions[0].value += 1;
  EXPECT_FALSE(b.commitments_consistent());
}

TEST(Block, CommitmentsDetectTamperedStatus) {
  Blockchain chain(util::sha256("genesis"));
  Block b = sample_block(chain.tip());
  b.statuses[1] = vm::TxStatus::kSuccess;
  EXPECT_FALSE(b.commitments_consistent());
}

TEST(Block, CommitmentsDetectTamperedSchedule) {
  Blockchain chain(util::sha256("genesis"));
  Block b = sample_block(chain.tip());
  b.schedule.profiles[0].entries[0].counter = 3;  // Now tx 0 follows tx 1.
  EXPECT_FALSE(b.commitments_consistent());
}

// --------------------------------------------------------- Blockchain --

TEST(Blockchain, GenesisAtHeightZero) {
  Blockchain chain(util::sha256("genesis"));
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.tip().header.number, 0u);
  EXPECT_EQ(chain.tip().header.state_root, util::sha256("genesis"));
}

TEST(Blockchain, AppendExtendsChain) {
  Blockchain chain(util::sha256("genesis"));
  chain.append(sample_block(chain.tip()));
  chain.append(sample_block(chain.tip()));
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_TRUE(chain.verify_links());
}

TEST(Blockchain, RejectsWrongNumber) {
  Blockchain chain(util::sha256("genesis"));
  Block b = sample_block(chain.tip());
  b.header.number = 7;
  EXPECT_THROW(chain.append(std::move(b)), ChainError);
}

TEST(Blockchain, RejectsWrongParentHash) {
  Blockchain chain(util::sha256("genesis"));
  Block b = sample_block(chain.tip());
  b.header.parent_hash = util::sha256("not the parent");
  EXPECT_THROW(chain.append(std::move(b)), ChainError);
}

TEST(Blockchain, RejectsInconsistentCommitments) {
  Blockchain chain(util::sha256("genesis"));
  Block b = sample_block(chain.tip());
  b.statuses.pop_back();
  EXPECT_THROW(chain.append(std::move(b)), ChainError);
}

TEST(Blockchain, HashLinksDetectRewrittenHistory) {
  Blockchain chain(util::sha256("genesis"));
  chain.append(sample_block(chain.tip()));
  EXPECT_TRUE(chain.verify_links());
  // A "tampered" copy: rebuilding block 1 with different content breaks
  // the link that block 2 would carry; here we just confirm the verifier
  // notices a broken parent pointer simulated via a fresh chain compare.
  Blockchain other(util::sha256("different genesis"));
  EXPECT_NE(chain.tip().header.parent_hash, other.tip().hash());
}

}  // namespace
}  // namespace concord::chain
