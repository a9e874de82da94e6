#include "detect/detect.hpp"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/json.hpp"

namespace concord::detect {

namespace {

/// One transaction's physical footprint: every lock its data accesses
/// touched, with the combined (weakest-covering) access class.
using Footprint = std::unordered_map<stm::LockId, stm::LockMode, stm::LockIdHash>;

Footprint footprint_of(const stm::AccessRecorder& log) {
  Footprint fp;
  for (const stm::AccessEvent& ev : log.events()) {
    if (ev.kind != stm::AccessEvent::Kind::kAccess) continue;
    auto [it, fresh] = fp.try_emplace(ev.lock, ev.mode);
    if (!fresh) it->second = stm::combine(it->second, ev.mode);
  }
  return fp;
}

/// Nodes reachable from `u` (u excluded) over the schedule's graph.
std::vector<bool> reachable_from(const graph::HappensBeforeGraph& hb, std::uint32_t u) {
  std::vector<bool> seen(hb.node_count(), false);
  std::deque<std::uint32_t> frontier{u};
  while (!frontier.empty()) {
    const std::uint32_t node = frontier.front();
    frontier.pop_front();
    for (const std::uint32_t succ : hb.successors(node)) {
      if (!seen[succ]) {
        seen[succ] = true;
        frontier.push_back(succ);
      }
    }
  }
  return seen;
}

void append_hex_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  out += buf;
}

std::string lock_to_string(const stm::LockId& lock) {
  std::string out = "(";
  append_hex_u64(out, lock.space);
  out += ", ";
  append_hex_u64(out, lock.key);
  out += ")";
  return out;
}

}  // namespace

std::string Violation::describe() const {
  std::string out = "tx " + std::to_string(tx) + " [" + contract +
                    " sel=" + std::to_string(selector) + "]: " + op + " (" +
                    std::string(stm::to_string(access)) + ") on lock " + lock_to_string(lock);
  if (declared) {
    out += " — held mode '" + std::string(stm::to_string(held)) + "' does not cover the access";
  } else {
    out += " — lock never declared";
  }
  return out;
}

std::string SoundnessViolation::describe() const {
  return "unordered pair (tx " + std::to_string(tx_a) + ", tx " + std::to_string(tx_b) +
         ") conflict on lock " + lock_to_string(lock) + ": " +
         std::string(stm::to_string(mode_a)) + " vs " + std::string(stm::to_string(mode_b));
}

void check_lockset(std::uint32_t tx, const chain::Transaction& txn,
                   const stm::AccessRecorder& log, DetectReport& report) {
  // Held set of this attempt so far. Strict two-phase locking means a
  // declaration is held for the remainder of the transaction; re-declares
  // strengthen via combine (matching SpeculativeAction's upgrade path).
  Footprint held;
  for (const stm::AccessEvent& ev : log.events()) {
    if (ev.kind == stm::AccessEvent::Kind::kDeclare) {
      auto [it, fresh] = held.try_emplace(ev.lock, ev.mode);
      if (!fresh) it->second = stm::combine(it->second, ev.mode);
      continue;
    }
    ++report.accesses;
    const auto it = held.find(ev.lock);
    if (it != held.end() && stm::covers(it->second, ev.mode)) continue;
    Violation v;
    v.tx = tx;
    v.contract = txn.contract.to_hex();
    v.selector = txn.selector;
    v.lock = ev.lock;
    v.access = ev.mode;
    v.op = ev.op;
    v.declared = it != held.end();
    if (v.declared) v.held = it->second;
    report.lockset.push_back(std::move(v));
  }
}

void check_schedule_soundness(const graph::HappensBeforeGraph& hb,
                              std::span<const stm::AccessRecorder> logs, DetectReport& report) {
  const std::size_t n = logs.size();
  std::vector<Footprint> footprints;
  footprints.reserve(n);
  for (const stm::AccessRecorder& log : logs) footprints.push_back(footprint_of(log));

  std::vector<std::vector<bool>> reach;
  reach.reserve(n);
  for (std::uint32_t u = 0; u < n; ++u) reach.push_back(reachable_from(hb, u));

  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (reach[a][b] || reach[b][a]) continue;  // Ordered — replay serializes them.
      // Iterate the smaller footprint against the larger.
      const bool a_smaller = footprints[a].size() <= footprints[b].size();
      const Footprint& small = a_smaller ? footprints[a] : footprints[b];
      const Footprint& large = a_smaller ? footprints[b] : footprints[a];
      for (const auto& [lock, mode] : small) {
        const auto it = large.find(lock);
        if (it == large.end() || !stm::conflicts(mode, it->second)) continue;
        SoundnessViolation v;
        v.tx_a = a;
        v.tx_b = b;
        v.lock = lock;
        v.mode_a = a_smaller ? mode : it->second;
        v.mode_b = a_smaller ? it->second : mode;
        report.soundness.push_back(v);
      }
    }
  }
}

DetectReport analyze_block(const chain::Block& block, std::span<const stm::AccessRecorder> logs) {
  DetectReport report;
  report.block_number = block.header.number;
  report.transactions = block.transactions.size();
  const auto n = static_cast<std::uint32_t>(logs.size());
  for (std::uint32_t i = 0; i < n && i < block.transactions.size(); ++i) {
    check_lockset(i, block.transactions[i], logs[i], report);
  }
  check_schedule_soundness(block.schedule.to_graph(block.transactions.size()), logs, report);
  return report;
}

std::string DetectReport::to_json() const {
  std::ostringstream out;
  out << "{\"block\": " << block_number << ", \"transactions\": " << transactions
      << ", \"accesses\": " << accesses << ", \"clean\": " << (clean() ? "true" : "false")
      << ", \"lockset_violations\": [";
  for (std::size_t i = 0; i < lockset.size(); ++i) {
    const Violation& v = lockset[i];
    if (i > 0) out << ", ";
    out << "{\"tx\": " << v.tx << ", \"contract\": \"" << util::json_escape(v.contract)
        << "\", \"selector\": " << v.selector << ", \"op\": \"" << util::json_escape(v.op)
        << "\", \"lock_space\": " << v.lock.space << ", \"lock_key\": " << v.lock.key
        << ", \"access\": \"" << stm::to_string(v.access) << "\", \"declared\": "
        << (v.declared ? "true" : "false") << ", \"held\": \""
        << (v.declared ? stm::to_string(v.held) : "none") << "\"}";
  }
  out << "], \"soundness_violations\": [";
  for (std::size_t i = 0; i < soundness.size(); ++i) {
    const SoundnessViolation& v = soundness[i];
    if (i > 0) out << ", ";
    out << "{\"tx_a\": " << v.tx_a << ", \"tx_b\": " << v.tx_b
        << ", \"lock_space\": " << v.lock.space << ", \"lock_key\": " << v.lock.key
        << ", \"mode_a\": \"" << stm::to_string(v.mode_a) << "\", \"mode_b\": \""
        << stm::to_string(v.mode_b) << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string write_report_artifact(const DetectReport& report, const std::string& tag) {
  const char* dir = std::getenv("CONCORD_DETECT_REPORT_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  std::error_code ec;  // Best-effort: an unwritable dir degrades to "no artifact".
  std::filesystem::create_directories(dir, ec);
  const std::string path = std::string(dir) + "/" + tag + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return {};
  out << report.to_json() << "\n";
  return path;
}

}  // namespace concord::detect
