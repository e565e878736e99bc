// hpfbench: the repository benchmark's measuring program.
//
//   hpfbench --workload stencil|churn|frontend --seed N --seconds S
//            --trace 0|1 [--spans FILE]
//   hpfbench --selftest
//
// Runs one workload single-threaded in a closed loop (the next op starts
// when the previous one ends) for S seconds, checks every output against a
// reference the benchmark computes itself, and prints as its last stdout
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics of the layers the workload exercises, timed
// from outside the library's public calls. run.py holds the result to the
// metric lists of BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: hpfbench --workload stencil|churn|frontend --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n"
               "       hpfbench --selftest\n");
  return 2;
}

void print_result(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool selftest = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (arg == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else {
      return usage();
    }
  }

  if (selftest) {
    const int failures = selftest_stencil() + selftest_churn() +
                         selftest_frontend();
    std::printf("selftest: %d failed expectation(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (opt.workload.empty() || !have_trace || !(opt.seconds > 0)) {
    return usage();
  }

  RunResult result;
  try {
    if (opt.workload == "stencil") {
      result = run_stencil(opt);
    } else if (opt.workload == "churn") {
      result = run_churn(opt);
    } else if (opt.workload == "frontend") {
      result = run_frontend(opt);
    } else {
      std::fprintf(stderr, "hpfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    // Set-up itself failed: there is no measurement to report.
    std::fprintf(stderr, "hpfbench: %s failed outside the timed ops: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "hpfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  if (result.attempted < 1) {
    std::fprintf(stderr, "hpfbench: no op completed\n");
    return 1;
  }
  std::fflush(stdout);
  print_result(result);
  return 0;
}
