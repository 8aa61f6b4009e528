// End-to-end GulfStream life-cycle benchmark.
//
// Every workload drives the real daemon stack through one life cycle:
// construction, cold start to GSC-stable (Fig. 5), an open-loop fault
// burst in simulated time followed by a quiesce, and a fault-free steady
// window. Workloads differ in farm shape and in how much of each phase
// they carry, so each stresses a different layer (see README.md). Only
// public entry points are used: Farm, ShardedFarm, run_until, the fault
// calls, Central::move_node, and the stats accessors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gs::e2e {

enum class Workload : std::uint8_t { kBoot, kSteady, kChurn, kShardedSteady };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view to_string(Workload workload);

struct RunOptions {
  Workload workload = Workload::kSteady;
  std::uint64_t seed = 1;
  // Host-time budget. The steady window keeps taking slices until the run
  // has used it; the phases before it have a fixed simulated length.
  double seconds = 10;
  // Per-layer mode: one untraced and one traced life cycle of fixed length
  // (every trace kind counted, spans and counter snapshots recorded).
  bool traced = false;
  // The masked kFailureCommitted/kGscAdapterAlive subscription that times
  // detection and recovery. Off only for the subscription-overhead check;
  // fault outcomes are then unverified and their metrics absent.
  bool subscribe = true;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// One call into the program (or a phase around such calls), host-timed.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::string phase;
  double start_s = 0;  // host seconds since the run began
  double end_s = 0;
  std::int64_t sim_end_us = 0;
  // Per-layer counters and per-TraceKind record counts at span end.
  std::vector<Metric> counters;
};

struct RunResult {
  std::uint64_t attempted = 0;  // injected faults, recoveries, moves, failovers
  std::uint64_t failed = 0;     // of those, the ones never seen to complete
  std::vector<std::string> errors;  // wrong answers; non-empty = incorrect
  std::vector<std::string> misses;  // one line per failed operation
  std::vector<Metric> metrics;      // end-to-end, or per-layer when traced
  // FNV-1a over the simulated-time outcomes: stable time, every fault's
  // detection and recovery times, move outcomes, the Central tables after
  // the quiesce, and the wire load of the fixed steady prefix.
  std::uint64_t digest = 0;
  std::vector<Span> spans;  // traced mode only

  [[nodiscard]] bool correct() const { return errors.empty(); }
};

[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace gs::e2e
