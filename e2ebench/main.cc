// gs_e2e — runs one life-cycle workload at one seed and prints its metrics.
//
//   gs_e2e --workload steady --seed 7 --seconds 20 --trace 0
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. --trace_out PATH (traced mode) writes the spans and their
// counter snapshots as JSON. --subscribe 0 drops the masked detection tap
// (subscription-overhead check only; fault outcomes go unverified).
// Exit status: 0 when every ground-truth check passed, 1 on a wrong
// answer, 2 on bad arguments.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "lifecycle.h"

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<gs::e2e::Metric>& metrics) {
  std::string out = "{";
  for (const gs::e2e::Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

bool write_spans(const std::string& path, const gs::e2e::RunOptions& opts,
                 const gs::e2e::RunResult& result) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"digest\": \"%016" PRIx64 "\", \"spans\": [\n",
               std::string(gs::e2e::to_string(opts.workload)).c_str(),
               opts.seed, result.digest);
  for (std::size_t i = 0; i < result.spans.size(); ++i) {
    const gs::e2e::Span& s = result.spans[i];
    std::fprintf(f,
                 "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"name\": \"%s\", \"phase\": \"%s\", \"start_s\": %s, "
                 "\"end_s\": %s, \"sim_end_us\": %" PRId64
                 ", \"counters\": %s}%s\n",
                 s.id, s.parent, s.name.c_str(), s.phase.c_str(),
                 number(s.start_s).c_str(), number(s.end_s).c_str(),
                 s.sim_end_us, metrics_json(s.counters).c_str(),
                 i + 1 < result.spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gs_e2e: %s\nusage: gs_e2e --workload "
               "boot|steady|churn|sharded_steady --seed N --seconds S "
               "--trace 0|1 [--trace_out PATH] [--subscribe 0|1]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  gs::e2e::RunOptions opts;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      const auto w = gs::e2e::parse_workload(value);
      if (!w) usage(("unknown workload " + value).c_str());
      opts.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      opts.traced = value == "1";
    } else if (key == "--subscribe") {
      opts.subscribe = value != "0";
    } else if (key == "--trace_out") {
      trace_out = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty()))
      usage(("bad number for " + key).c_str());
  }
  if (!have_workload) usage("--workload is required");

  const gs::e2e::RunResult result = gs::e2e::run_workload(opts);

  std::printf("workload=%s seed=%" PRIu64 " digest=%016" PRIx64
              " attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              std::string(gs::e2e::to_string(opts.workload)).c_str(),
              opts.seed, result.digest, result.attempted, result.failed);
  for (std::size_t i = 0; i < result.errors.size() && i < 20; ++i)
    std::fprintf(stderr, "wrong answer: %s\n", result.errors[i].c_str());
  for (std::size_t i = 0; i < result.misses.size() && i < 20; ++i)
    std::fprintf(stderr, "failed operation: %s\n", result.misses[i].c_str());
  if (!trace_out.empty() && opts.traced &&
      !write_spans(trace_out, opts, result))
    std::fprintf(stderr, "gs_e2e: cannot write %s\n", trace_out.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              result.correct() ? "true" : "false", result.attempted,
              result.failed, metrics_json(result.metrics).c_str());
  return result.correct() ? 0 : 1;
}
