#include "chain/schedule.hpp"

#include <span>

namespace concord::chain {

namespace {

void encode_profile(util::ByteWriter& w, const stm::LockProfile& p) {
  w.put_varint(p.tx);
  w.put_u8(p.reverted ? 1 : 0);
  w.put_varint(p.entries.size());
  for (const auto& e : p.entries) {
    w.put_u64_fixed(e.lock.space);
    w.put_u64_fixed(e.lock.key);
    w.put_u8(static_cast<std::uint8_t>(e.mode));
    w.put_varint(e.counter);
  }
}

stm::LockProfile decode_profile(util::ByteReader& r) {
  stm::LockProfile p;
  p.tx = static_cast<std::uint32_t>(r.get_varint());
  p.reverted = r.get_u8() != 0;
  const std::uint64_t n = r.get_count(/*min_item_bytes=*/18);  // 8+8 lock, mode, counter.
  p.entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    stm::LockProfileEntry e;
    e.lock.space = r.get_u64_fixed();
    e.lock.key = r.get_u64_fixed();
    const std::uint8_t mode = r.get_u8();
    if (mode > 2) throw util::DecodeError("invalid lock mode in profile");
    e.mode = static_cast<stm::LockMode>(mode);
    e.counter = r.get_varint();
    p.entries.push_back(e);
  }
  return p;
}

}  // namespace

void BlockSchedule::encode(util::ByteWriter& w) const {
  w.put_varint(profiles.size());
  for (const auto& p : profiles) encode_profile(w, p);
}

BlockSchedule BlockSchedule::decode(util::ByteReader& r) {
  BlockSchedule s;
  const std::uint64_t np = r.get_count(/*min_item_bytes=*/3);  // tx, reverted, entry count.
  s.profiles.reserve(np);
  for (std::uint64_t i = 0; i < np; ++i) s.profiles.push_back(decode_profile(r));
  return s;
}

util::Hash256 BlockSchedule::hash() const {
  util::ByteWriter w;
  encode(w);
  return util::sha256(std::span<const std::uint8_t>(w.bytes()));
}

std::size_t BlockSchedule::encoded_size() const {
  util::ByteWriter w;
  encode(w);
  return w.size();
}

}  // namespace concord::chain
