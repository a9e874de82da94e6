// concord_e2e — one end-to-end benchmark of the whole transaction path,
// from Mempool::submit on a leader until a follower accepts the block,
// plus the follower's MVCC read path.
//
// Usage:
//   concord_e2e --workload=NAME [--seed=S] [--seconds=T] [--trace=DIR] [--smoke]
//
// Without --trace it runs the node pass for T seconds of measured time and
// prints the end-to-end metrics. With --trace=DIR it runs the node pass
// twice (T/2 untraced, T/2 traced), then the layer pass, writes
// DIR/NAME.trace.json (Chrome trace-event format) and DIR/NAME.metrics.json,
// and prints the per-layer metrics. The last stdout line is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Any failed
// correctness gate exits 1.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "e2e.hpp"
#include "util/cycle_burner.hpp"
#include "util/sha256.hpp"

namespace {

using namespace concord;
using namespace concord::e2e;

const Clock::time_point kProcessStart = Clock::now();

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 15;  ///< BENCHMARK.json's run_seconds.
  std::string trace_dir;
  bool smoke = false;
  bool ok = true;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view key) -> std::optional<std::string_view> {
      if (!arg.starts_with(key)) return std::nullopt;
      return arg.substr(key.size());
    };
    if (auto v = value("--workload=")) {
      args.workload = *v;
    } else if (auto v = value("--seed=")) {
      args.seed = std::strtoull(std::string(*v).c_str(), nullptr, 10);
    } else if (auto v = value("--seconds=")) {
      args.seconds = std::strtod(std::string(*v).c_str(), nullptr);
    } else if (auto v = value("--trace=")) {
      args.trace_dir = *v;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else {
      std::fprintf(stderr, "concord_e2e: unknown argument '%s'\n", argv[i]);
      args.ok = false;
    }
  }
  if (!(args.seconds > 0)) args.ok = false;
  return args;
}

// ── Host drift ─────────────────────────────────────────────────────────

struct HostSpeed {
  double burn_iters_per_us = 0;  ///< util::burn_iterations, re-measured now.
  double sha256_mb_per_s = 0;    ///< Single-thread SHA-256 over a fixed buffer.
};

HostSpeed measure_host() {
  constexpr std::uint64_t kIters = 4'000'000;
  static const std::vector<std::uint8_t> buffer(4 << 20, 0x5a);
  std::vector<double> burn, sha;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point t0 = Clock::now();
    sink ^= util::burn_iterations(kIters);
    burn.push_back(static_cast<double>(kIters) /
                   std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    t0 = Clock::now();
    sink ^= util::sha256(buffer).prefix64();
    sha.push_back(static_cast<double>(buffer.size()) / (1 << 20) /
                  std::chrono::duration<double>(Clock::now() - t0).count());
  }
  if (sink == 42) std::printf(" ");  // Keeps the work observable.
  return HostSpeed{median(burn), median(sha)};
}

void print_host(const char* when, const HostSpeed& h) {
  std::printf("host %s: util::iterations_per_microsecond=%llu burn=%.2f it/us sha256=%.1f MB/s\n",
              when, static_cast<unsigned long long>(util::iterations_per_microsecond()),
              h.burn_iters_per_us, h.sha256_mb_per_s);
}

void warn_drift(const HostSpeed& before, const HostSpeed& after) {
  const auto moved = [](double a, double b) { return a > 0 && std::abs(b / a - 1) > 0.10; };
  if (moved(before.burn_iters_per_us, after.burn_iters_per_us) ||
      moved(before.sha256_mb_per_s, after.sha256_mb_per_s)) {
    std::printf("WARNING: host speed moved more than 10%% during the run "
                "(burn %.2f -> %.2f it/us, sha256 %.1f -> %.1f MB/s); "
                "its numbers reflect the host as much as the code\n",
                before.burn_iters_per_us, after.burn_iters_per_us, before.sha256_mb_per_s,
                after.sha256_mb_per_s);
  }
}

// ── Output ─────────────────────────────────────────────────────────────

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const Metrics& metrics) {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value.first
        << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void print_failures(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) std::printf("GATE FAILED: %s\n", f.c_str());
}

Metrics end_to_end(const NodePassResult& r) {
  Metrics m;
  m["tx_per_s"] = {r.tx_per_s(), "tx/s"};
  m["confirm_p50_ms"] = {quantile(r.confirm_ms, 0.50), "ms"};
  m["confirm_p99_ms"] = {quantile(r.confirm_ms, 0.99), "ms"};
  m["setup_s"] = {r.setup_s.empty() ? 0.0 : std::ranges::min(r.setup_s), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return m;
}

void print_node_summary(const Workload& w, const NodePassResult& r) {
  std::printf("%s: %zu episode(s), %llu/%llu tx accepted on the follower in %.3f s of measured "
              "time, %llu reader ops, failed_ratio=%.6f\n",
              std::string(w.name).c_str(), r.episodes,
              static_cast<unsigned long long>(r.accepted),
              static_cast<unsigned long long>(r.submitted), r.measured_s,
              static_cast<unsigned long long>(r.read_ops),
              r.attempted() > 0 ? static_cast<double>(r.failed()) / r.attempted() : 0.0);
  if (w.loop == Loop::kOpen) {
    std::printf("open loop at %.0f tx/s: generator lag p99 %.3f ms; reads: %.0f/s, p50 %.3f us, "
                "p99 %.3f us\n",
                w.rate_tx_per_s, r.generator_lag_ms_p99, r.reads_per_s,
                quantile(r.read_us, 0.50), quantile(r.read_us, 0.99));
  } else {
    std::printf("episode tx/s: q1 %.0f, median %.0f, q3 %.0f\n",
                quantile(r.episode_tx_per_s, 0.25), median(r.episode_tx_per_s),
                quantile(r.episode_tx_per_s, 0.75));
  }
}

/// The primary end-to-end number a traced run is compared on: throughput
/// for closed loops, median confirmation latency for the open loop.
double overhead_pct(const Workload& w, const NodePassResult& plain, const NodePassResult& traced) {
  if (w.loop == Loop::kOpen) {
    const double base = quantile(plain.confirm_ms, 0.5);
    return base > 0 ? (quantile(traced.confirm_ms, 0.5) / base - 1) * 100 : 0.0;
  }
  return traced.tx_per_s() > 0 ? (plain.tx_per_s() / traced.tx_per_s() - 1) * 100 : 0.0;
}

int run(const Workload& w, const Args& args) {
  const double seconds = args.seconds;
  const HostSpeed before = measure_host();
  print_host("before", before);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;

  if (args.trace_dir.empty()) {
    Tracer off(false);
    const NodePassResult r = run_node_pass(w, args.seed, seconds, off);
    print_node_summary(w, r);
    print_failures(r.gate_failures);
    correct = r.gate_failures.empty() && r.failed() == 0;
    attempted = r.attempted();
    failed = r.failed();
    metrics = end_to_end(r);
  } else {
    Tracer off(false);
    const NodePassResult plain = run_node_pass(w, args.seed, seconds / 2, off);
    print_node_summary(w, plain);
    Tracer tracer(true);
    const NodePassResult traced = run_node_pass(w, args.seed, seconds / 2, tracer);
    print_node_summary(w, traced);
    const LayerPassResult layers = run_layer_pass(w, args.seed, seconds / 2, tracer);
    for (const auto* r : {&plain, &traced}) print_failures(r->gate_failures);
    print_failures(layers.gate_failures);
    correct = plain.gate_failures.empty() && traced.gate_failures.empty() && layers.correct &&
              plain.failed() == 0 && traced.failed() == 0;
    attempted = plain.attempted() + traced.attempted() + layers.attempted;
    failed = plain.failed() + traced.failed() + layers.failed;

    metrics = layers.metrics;
    const double blocks = traced.blocks > 0 ? static_cast<double>(traced.blocks) : 1.0;
    metrics["net.propagation_ms_p50"] = {quantile(traced.propagation_ms, 0.50), "ms"};
    metrics["net.propagation_ms_p99"] = {quantile(traced.propagation_ms, 0.99), "ms"};
    metrics["net.nacks"] = {static_cast<double>(traced.nacks), "count"};
    metrics["net.wire_errors"] = {static_cast<double>(traced.wire_errors), "count"};
    metrics["node.mempool_wait_ms"] = {traced.mempool_wait_ms / blocks, "ms"};
    metrics["node.handoff_wait_ms"] = {traced.handoff_wait_ms / blocks, "ms"};
    metrics["node.validator_stall_ms"] = {traced.validator_stall_ms / blocks, "ms"};
    metrics["node.handoff_ms_p50"] = {quantile(traced.handoff_ms, 0.50), "ms"};
    metrics["node.ring_high_water"] = {static_cast<double>(traced.ring_high_water), "count"};
    metrics["node.mempool_high_water"] = {static_cast<double>(traced.mempool_high_water), "count"};
    metrics["node.pin_us_p50"] = {quantile(traced.pin_us, 0.50), "us"};
    metrics["node.reads_per_s"] = {traced.reads_per_s, "1/s"};
    metrics["node.read_p50_us"] = {quantile(traced.read_us, 0.50), "us"};
    metrics["node.read_p99_us"] = {quantile(traced.read_us, 0.99), "us"};
    metrics["trace.overhead_pct"] = {overhead_pct(w, plain, traced), "%"};

    std::filesystem::create_directories(args.trace_dir);
    const std::string base = args.trace_dir + "/" + std::string(w.name);
    if (!tracer.write_chrome(base + ".trace.json", kProcessStart)) {
      std::printf("GATE FAILED: could not write %s.trace.json\n", base.c_str());
      correct = false;
      ++failed;
    }
    std::printf("trace: %s.trace.json (%zu spans; layer pass %.1f ms, %.3f ms unaccounted)\n",
                base.c_str(), tracer.spans().size(), metrics["trace.layer_wall_ms"].first,
                metrics["trace.unaccounted_ms"].first);
    std::ofstream(base + ".metrics.json") << result_line(correct, attempted, failed, metrics)
                                          << "\n";
  }

  const HostSpeed after = measure_host();
  print_host("after", after);
  warn_drift(before, after);
  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* workload = find_workload(args.workload);
  if (!args.ok || workload == nullptr) {
    std::string names;
    for (const auto name : workload_names()) {
      names += ' ';
      names += name;
    }
    std::fprintf(stderr,
                 "usage: concord_e2e --workload=NAME [--seed=S] [--seconds=T] [--trace=DIR] "
                 "[--smoke]\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  const Workload w = args.smoke ? smoke(*workload) : *workload;
  try {
    return run(w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "concord_e2e: %s\n", e.what());
    return 1;
  }
}
