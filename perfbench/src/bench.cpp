#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_value(std::vector<double> v, double* percentile) {
  if (v.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t at = n > 10 ? n - 11 : n - 1;
  *percentile = 100.0 * static_cast<double>(at + 1) / static_cast<double>(n);
  return v[at];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> cold_setups(int runs,
                                const std::function<double()>& setup) {
  std::vector<double> out;
  std::fflush(nullptr);  // a child must not repeat buffered output
  for (int k = 1; k < runs; ++k) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("set-up: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("set-up: fork failed");
    if (pid == 0) {
      close(fds[0]);
      int code = 1;
      try {
        const double s = setup();
        code = write(fds[1], &s, sizeof s) == sizeof s ? 0 : 1;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "set-up failed: %s\n", e.what());
      }
      _exit(code);
    }
    close(fds[1]);
    double s = 0.0;
    const bool got = read(fds[0], &s, sizeof s) == sizeof s;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up failed in a fresh process");
    }
    out.push_back(s);
  }
  out.push_back(setup());
  return out;
}

namespace {

// The CPUs this process may use, as found at the first call.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  // Best effort: where affinity cannot be set, the run stays where it is.
  (void)sched_setaffinity(0, sizeof set, &set);
}

// The probe: a fixed 5-point sweep over a 256 x 256 grid (1 MiB for both
// arrays), the median of three, in ns. It is the benchmark's own code, so
// where it runs fast says nothing about the program under test.
double probe_ns() {
  constexpr long n = 256;
  static std::vector<double> a(n * n, 1.0), b(n * n, 0.0);
  std::vector<double> t;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = now_ns();
    for (long i = 1; i < n - 1; ++i) {
      for (long j = 1; j < n - 1; ++j) {
        b[i * n + j] = 0.25 * (a[(i - 1) * n + j] + a[(i + 1) * n + j] +
                               a[i * n + j - 1] + a[i * n + j + 1]);
      }
    }
    a.swap(b);
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(t);
}

}  // namespace

void quietest_cpu() {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  int best = cpus[0];
  double best_ns = 0.0;
  for (int c : cpus) {
    pin({c});
    const double t = probe_ns();
    if (c == cpus[0] || t < best_ns) {
      best = c;
      best_ns = t;
    }
  }
  pin({best});
}

void all_cpus() {
  if (allowed_cpus().size() > 1) pin(allowed_cpus());
}

void Phase::record(const OpResult& r, const char* workload) {
  op_ns.push_back(r.ns);
  op_units.push_back(r.problem.empty() ? r.units : 0.0);
  if (r.problem.empty()) return;
  if (failed == 0) {
    std::fprintf(stderr, "%s op failed: %s\n", workload, r.problem.c_str());
  }
  ++failed;
}

PhaseStats phase_stats(const Phase& phase) {
  PhaseStats st;
  st.p50_ns = median(phase.op_ns);
  st.tail_ns = tail_value(phase.op_ns, &st.tail_pct);
  double busy_ns = 0.0, units = 0.0;
  for (std::size_t k = 0; k < phase.op_ns.size(); ++k) {
    busy_ns += phase.op_ns[k];
    units += phase.op_units[k];
  }
  st.throughput = busy_ns > 0 ? units / (busy_ns / 1e9) : 0.0;
  return st;
}

void add_end_to_end(RunResult& out, const std::vector<double>& setup_s,
                    const Phase& phase, const std::string& unit_name) {
  const std::size_t n = phase.op_ns.size();
  const PhaseStats st = phase_stats(phase);
  std::printf("setup_s: median of %zu cold set-ups\n", setup_s.size());
  std::printf("timed ops: %zu, moving to the quietest CPU every %zu\n", n,
              phase.place_ops);
  std::printf("op_tail_us: %.3f us, p%.2f of %zu ops\n", st.tail_ns / 1e3,
              st.tail_pct, n);
  std::printf("fail_ratio: %ld/%zu = %.6g\n", phase.failed, n,
              n > 0 ? static_cast<double>(phase.failed) /
                          static_cast<double>(n)
                    : 0.0);
  std::printf("throughput unit: %s per second of op wall time\n",
              unit_name.c_str());
  out.add("setup_s", median(setup_s), "s");
  out.add("op_p50_us", st.p50_ns / 1e3, "us");
  out.add("throughput", st.throughput, "1/s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

// --- tracer -----------------------------------------------------------------

namespace {

double dur(const Span& s) { return static_cast<double>(s.end_ns - s.start_ns); }

}  // namespace

double Tracer::total_ns(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::string(s.name) == name) total += dur(s);
  }
  return total;
}

double Tracer::total_pricing_ns(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == nullptr || std::string(s.name) == name) {
      total += static_cast<double>(s.pricing_ns);
    }
  }
  return total;
}

namespace {

// Self time of every span: its duration minus its children's durations.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = dur(spans[i]);
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= dur(s);
  }
  return self;
}

}  // namespace

double Tracer::unattributed_ns() const {
  const std::vector<double> self = self_times(spans_);
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) total += self[i];
  }
  return total;
}

long Tracer::ops() const {
  long n = 0;
  for (const Span& s : spans_) n += s.parent < 0;
  return n;
}

void Tracer::print_self_time_table(const std::string& workload) const {
  struct Row {
    double self_ns = 0.0;
    long calls = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<double> self = self_times(spans_);
  double ops = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    total += s.parent < 0 ? dur(s) : 0.0;
    if (s.parent < 0) {
      ops += 1.0;
      rows["(unattributed)"].self_ns += self[i];
      rows["(unattributed)"].calls += 1;
      continue;
    }
    Row& r = rows[s.name];
    r.self_ns += self[i] - static_cast<double>(s.pricing_ns);
    r.calls += 1;
    if (s.pricing_ns > 0) {
      Row& p = rows[std::string(s.name) + " > pricing"];
      p.self_ns += static_cast<double>(s.pricing_ns);
      p.calls += 1;
    }
  }
  if (ops == 0.0) return;
  std::printf("self time per op, %s (%.0f traced ops, %.1f us/op):\n",
              workload.c_str(), ops, total / ops / 1e3);
  std::printf("  %-34s %12s %12s %8s\n", "layer (span)", "calls/op",
              "self us/op", "share");
  for (const auto& [name, r] : rows) {
    std::printf("  %-34s %12.2f %12.3f %7.2f%%\n", name.c_str(),
                static_cast<double>(r.calls) / ops, r.self_ns / ops / 1e3,
                total > 0 ? 100.0 * r.self_ns / total : 0.0);
  }
}

bool Tracer::write(const std::string& path) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,"
                 "\"parent\":%d,\"op\":%lld,\"pricing_ns\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.op),
                 static_cast<long long>(s.pricing_ns));
  }
  return std::fclose(f) == 0;
}

void add_trace_metrics(RunResult& out, const Tracer& tracer,
                       const Phase& untraced, const Phase& traced) {
  const double ops = static_cast<double>(tracer.ops());
  out.add("trace.unattributed_us",
          ops > 0 ? tracer.unattributed_ns() / ops / 1e3 : 0.0, "us");
  const double base = median(untraced.op_ns);
  const double with = median(traced.op_ns);
  out.add("trace.overhead_pct", base > 0 ? 100.0 * (with - base) / base : 0.0,
          "%");
  out.add("trace.ops", ops, "count");
}

}  // namespace perfbench
