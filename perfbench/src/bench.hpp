// Shared pieces of the repository benchmark: the wall clock, the seeded
// input generator's random source, order statistics, the span tracer and
// the result line.
//
// The benchmark drives the library only through its public calls (assign,
// Interpreter::run, lex, parse_program, analyze_script, cost_script and the
// counters of PlanCache, PlanService, AssignResult and StepStats). Spans
// are recorded here, around those calls, never inside the library.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the benchmark's own generator, so inputs depend on the seed
/// alone and never on the library's RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  long range(long lo, long hi) {
    return lo + static_cast<long>(next() % static_cast<std::uint64_t>(
                                               hi - lo + 1));
  }
  template <class T>
  const T& pick(const std::vector<T>& v) {
    const long last = static_cast<long>(v.size()) - 1;
    return v[static_cast<std::size_t>(range(0, last))];
  }

 private:
  std::uint64_t state_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// --- order statistics --------------------------------------------------------

double median(std::vector<double> v);

/// The highest percentile of `v` with at least ten samples beyond it: the
/// eleventh-largest sample. `percentile` receives its rank as a percentile.
/// With fewer than eleven samples it is the largest sample.
double tail_value(std::vector<double> v, double* percentile);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

// --- output checks -----------------------------------------------------------

/// Bit-for-bit equality of two doubles.
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// `got` equals `want` to a relative 1e-12: a reassociated sum passes, a
/// wrong value does not.
inline bool close_to(double got, double want) {
  return std::fabs(got - want) <= 1e-12 * std::fmax(1.0, std::fabs(want));
}

// --- set-up -----------------------------------------------------------------

/// Times a workload's set-up `runs` times, each the first set-up of a fresh
/// process: `runs - 1` forked children each run `setup` once and report its
/// seconds, one after another, and then this process runs it, keeping what
/// it built for the timed ops. Returns every sample, this process's last.
/// Throws when a child's set-up fails.
std::vector<double> cold_setups(int runs, const std::function<double()>& setup);

// --- closed-loop measurement -------------------------------------------------

/// Pins this process to the CPU, of those it was allowed to run on at
/// start-up, where a short probe of the benchmark's own runs fastest. The
/// machine is shared: other tenants' load slows some CPUs more than others,
/// and which ones changes from second to second.
void quietest_cpu();

/// Lets this process run on every CPU it could at start-up again.
void all_cpus();

/// One op's report to the closed loop: its wall time, the work it
/// completed, and what its output check found (empty when it passed).
struct OpResult {
  double ns = 0.0;
  double units = 0.0;
  std::string problem;
};

/// What one timed phase of a workload measured, op by op in run order.
/// Every `place_ops` ops the loop moves to the quietest CPU (quietest_cpu).
struct Phase {
  explicit Phase(std::size_t ops_per_place) : place_ops(ops_per_place) {}

  /// Records one op; a failed op counts no work and is reported on stderr
  /// the first time.
  void record(const OpResult& r, const char* workload);

  std::size_t place_ops;
  std::vector<double> op_ns;     ///< wall time of each op
  std::vector<double> op_units;  ///< work units each op completed (0 if failed)
  long failed = 0;  ///< ops whose output check failed or that threw
};

/// The op statistics of a whole timed phase: the median op, the tail (the
/// highest percentile with at least ten ops beyond it, and that
/// percentile), and the work units per second of op wall time.
struct PhaseStats {
  double p50_ns = 0.0;
  double tail_ns = 0.0;
  double tail_pct = 0.0;
  double throughput = 0.0;
};
PhaseStats phase_stats(const Phase& phase);

/// Adds the end-to-end metrics shared by every workload: setup_s (median of
/// the cold set-ups), op_p50_us and throughput over the whole phase, and
/// peak_rss_mib. Prints op_tail_us with its percentile and sample count,
/// and fail_ratio: the tail is reported but not a bounded metric, because
/// other tenants' bursts on the shared machine move it run to run by far
/// more than any bound.
void add_end_to_end(RunResult& out, const std::vector<double>& setup_s,
                    const Phase& phase, const std::string& unit_name);

// --- spans -------------------------------------------------------------------

/// One public call, timed from outside. `parent` indexes the enclosing
/// span (-1 for an op's root span); spans of one op share `op`.
/// `pricing_ns` is AssignResult::pricing_ns reported by the calls inside
/// the span (0 when none priced), so the self-time table can split it out.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t op = 0;
  std::int64_t pricing_ns = 0;
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Opens the root span of a new op; returns its index (-1 when off).
  int open_op() {
    ++op_;
    return open("op");
  }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// tracing is off).
  int open(const char* name) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.parent = current_;
    s.op = op_;
    s.start_ns = now_ns();
    spans_.push_back(s);
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  void add_pricing(int id, std::int64_t ns) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].pricing_ns += ns;
  }

  /// Sum of the durations of the spans named `name`, in ns.
  double total_ns(const char* name) const;
  /// Sum of pricing_ns over the spans named `name` (all spans when null).
  double total_pricing_ns(const char* name = nullptr) const;
  /// Root ("op") self time summed over all ops: op time no span covers.
  double unattributed_ns() const;
  /// Number of root spans, one per traced op.
  long ops() const;

  /// Prints the per-layer self-time table (one row per span name, pricing
  /// split out of the spans that report it, the unattributed remainder as
  /// its own row), per op.
  void print_self_time_table(const std::string& workload) const;
  /// Writes every span as one JSON line. Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::int64_t op_ = 0;
  int current_ = -1;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Runs `op` back to back for `seconds` and records each run into `phase`:
/// a closed loop, single-threaded, where the next op starts when the
/// previous one ends. Each op opens a root span "op" under a new op id; an
/// op that throws fails, timed up to the throw. Every `phase.place_ops`
/// ops the loop moves to the quietest CPU; at the end it may use them all.
template <class Op>
void closed_loop(Phase& phase, double seconds, Tracer& tracer,
                 const char* workload, Op&& op) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    if (phase.op_ns.size() % phase.place_ops == 0) quietest_cpu();
    const int root = tracer.open_op();
    const std::int64_t t0 = now_ns();
    OpResult r;
    try {
      r = op();
    } catch (const std::exception& e) {
      r.ns = static_cast<double>(now_ns() - t0);
      r.problem = e.what();
    }
    tracer.close(root);
    phase.record(r, workload);
  }
  all_cpus();
}

/// Adds the tracing metrics: trace.unattributed_us per op, trace.ops and
/// trace.overhead_pct, the traced phase's median op over the untraced
/// phase's, minus 1, in percent.
void add_trace_metrics(RunResult& out, const Tracer& tracer,
                       const Phase& untraced, const Phase& traced);

/// The span name of the benchmark's own output checks. They run inside an
/// op's root span but outside its timed part, so they are kept out of the
/// unattributed remainder.
inline constexpr const char* kCheckSpan = "bench.check";

// --- workloads ---------------------------------------------------------------

RunResult run_stencil(const Options& opt);
RunResult run_churn(const Options& opt);
RunResult run_frontend(const Options& opt);

/// The benchmark's own tests: each output check passes on the true
/// reference and trips on a deliberately wrong one. Returns the number of
/// failed expectations.
int selftest_stencil();
int selftest_churn();
int selftest_frontend();

}  // namespace perfbench
