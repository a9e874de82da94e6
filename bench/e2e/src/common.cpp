#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "contracts/token.hpp"
#include "e2e.hpp"
#include "vm/errors.hpp"

namespace concord::e2e {

void read_balance(const vm::World& world, vm::ExecContext& ctx, const ReadTarget& target) {
  if (target.token == vm::Address{}) {
    (void)world.balances().get(ctx, target.who);
    return;
  }
  const vm::Contract* contract = world.contracts().find(target.token);
  if (contract == nullptr) throw vm::RevertError("token not deployed");
  (void)static_cast<const contracts::Token&>(*contract).balance_of(ctx, target.who);
}

core::MinerConfig stage_miner_config() {
  core::MinerConfig config;
  config.threads = kStageThreads;
  config.nanos_per_gas = 0;
  return config;
}

core::ValidatorConfig stage_validator_config() {
  core::ValidatorConfig config;
  config.threads = kStageThreads;
  config.nanos_per_gas = 0;
  return config;
}

std::size_t episode_txs(const Workload& w, double seconds) {
  if (w.loop == Loop::kClosed) return w.txs_per_block * w.blocks_per_episode;
  const auto blocks = static_cast<std::size_t>(
      std::ceil(w.rate_tx_per_s * seconds / static_cast<double>(w.txs_per_block)));
  return std::max<std::size_t>(blocks, 1) * w.txs_per_block;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

void Reservoir::add(double value) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  // splitmix64 step: a private stream, so sampling never perturbs the
  // workload's own seeded generators.
  rng_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = rng_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::uint64_t slot = z % seen_;
  if (slot < capacity_) values_[slot] = value;
}

void Tracer::merge(std::vector<Span> spans) {
  if (!enabled_) return;
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

namespace {

const char* lane_name(std::uint32_t lane) {
  switch (lane) {
    case kLaneLeaderMiner: return "leader miner";
    case kLaneLeaderRing: return "leader handoff ring";
    case kLaneLeaderValidator: return "leader validator";
    case kLaneFollower: return "follower session";
    case kLaneReader0: return "reader 0";
    case kLaneReader1: return "reader 1";
    case kLaneLayer: return "layer calls";
    default: return "other";
  }
}

double us_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

}  // namespace

bool Tracer::write_chrome(const std::string& path, Clock::time_point origin) const {
  std::vector<Span> spans = spans_;
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) { return a.start < b.start; });

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(out,
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"args\": {\"name\": "
               "\"node pass\"}},\n"
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, \"args\": {\"name\": "
               "\"layer pass\"}}");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lanes;
  for (const Span& s : spans) lanes.emplace_back(s.pid, s.lane);
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
  for (const auto& [pid, lane] : lanes) {
    std::fprintf(out,
                 ",\n{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": %u, \"tid\": %u, "
                 "\"args\": {\"name\": \"%s\"}}",
                 pid, lane, lane_name(lane));
  }

  // Flow arrows chain the spans of one block across lanes in time order.
  std::map<std::pair<std::int64_t, std::int64_t>, const Span*> last_of_block;
  long long flow_id = 0;
  for (const Span& s : spans) {
    const double ts = us_since(origin, s.start);
    std::fprintf(out,
                 ",\n{\"ph\": \"X\", \"cat\": \"e2e\", \"name\": \"%s\", \"pid\": %u, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"episode\": %lld, \"block\": %lld}}",
                 s.name, s.pid, s.lane, ts, us_since(s.start, s.end),
                 static_cast<long long>(s.episode), static_cast<long long>(s.block));
    if (!s.flow) continue;
    const auto key = std::make_pair(s.episode, s.block);
    if (const auto it = last_of_block.find(key); it != last_of_block.end()) {
      const Span& from = *it->second;
      const long long id = ++flow_id;
      std::fprintf(out,
                   ",\n{\"ph\": \"s\", \"cat\": \"block\", \"name\": \"block\", \"id\": %lld, "
                   "\"pid\": %u, \"tid\": %u, \"ts\": %.3f}"
                   ",\n{\"ph\": \"f\", \"bp\": \"e\", \"cat\": \"block\", \"name\": \"block\", "
                   "\"id\": %lld, \"pid\": %u, \"tid\": %u, \"ts\": %.3f}",
                   id, from.pid, from.lane, us_since(origin, from.start), id, s.pid, s.lane, ts);
    }
    last_of_block[key] = &s;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

}  // namespace concord::e2e
