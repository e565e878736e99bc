// Workload `frontend`: a seeded directive program of about 6000 lines and
// no storage, passed through the whole front end and both analyses.
//
// One op is one pass lex -> parse_program -> stateless Interpreter::run ->
// analyze_script -> cost_script, which is what `hpflint --cost` does.
// Nothing is stored, computed or cached, so the binder's DataEnv scans and
// the analysis passes dominate; numerics and plan-cache changes should not
// move this workload.
//
// Checks: lex returns one line per program line, neither analysis reports
// an error-severity diagnostic, the bound environment holds every declared
// array, and the cost_script totals repeat the set-up pass's exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/cost_model.hpp"
#include "bench.hpp"
#include "directives/interp.hpp"

namespace perfbench {

namespace {

using namespace hpfnt;

constexpr int kBlocks = 600;  // 10 lines each: ~6000 directive lines
constexpr int kSetups = 5;
constexpr std::size_t kPlaceOps = 1;  // ops of ~1 s: placed each
constexpr Extent kProcs = 16;

struct Source {
  std::string text;    ///< the whole program
  std::string prefix;  ///< header plus the first tenth of the blocks
  long lines = 0;
  std::vector<std::string> arrays;  ///< every declared array
  std::string last_2d;              ///< the latest 2-D array
  long last_2d_rows = 0;
};

std::string num(long v) { return std::to_string(v); }
std::string sec(long lo, long hi) { return num(lo) + ":" + num(hi); }

/// 1-D format number `kind` (mod 5) with seeded parameters; GENERAL_BLOCK
/// (three bounds) sets *on_q, as it must go onto the 4-processor Q.
std::string fmt_1d(Rng& rng, int kind, long extent, bool* on_q) {
  *on_q = false;
  switch (kind % 5) {
    case 0:
      return "BLOCK";
    case 1:
      return "VIENNA_BLOCK";
    case 2:
      return "CYCLIC";
    case 3:
      return "CYCLIC(" + num(rng.range(2, 9)) + ")";
    default: {
      *on_q = true;
      const long b1 = rng.range(1, extent / 3);
      const long b2 = rng.range(b1 + 1, 2 * extent / 3);
      const long b3 = rng.range(b2 + 1, extent - 1);
      return "GENERAL_BLOCK(/" + num(b1) + "," + num(b2) + "," + num(b3) +
             "/)";
    }
  }
}

/// The whole of P, or a processor section of it, by `kind` (mod 3).
std::string target_1d(Rng& rng, int kind, bool on_q) {
  if (on_q) return "TO Q";
  switch (kind % 3) {
    case 0:
      return "TO P";
    case 1:
      return "ONTO P(1:8)";
    default:
      return "ONTO P(" + num(rng.range(1, 8)) + ":16)";
  }
}

/// One block of exactly ten lines over two new arrays: a DYNAMIC 1-D
/// primary FA<b>, and FX<b>, which is a 2-D array with its own mapping in
/// even blocks and a 1-D secondary ALIGNed to FA<b> (affine, or replicated
/// over the latest 2-D array) in odd ones. The primary is redistributed
/// and flipped back, with section assignments in between, and the block's
/// first assignment repeats on the home mapping. Which formats, targets
/// and alignments a block uses follows from b, so every seed binds and
/// prices the same mix; the seed picks extents and format parameters.
void block(Rng& rng, int b, long prev_a_extent, Source& src,
           long* a_extent) {
  const std::string fa = "FA" + num(b);
  const std::string fx = "FX" + num(b);
  const std::string prev = "FA" + num(b > 0 ? b - 1 : b);
  const long n = rng.range(256, 768);
  std::string& t = src.text;
  t += "REAL " + fa + "(" + num(n) + ")\n";
  bool on_q = false;
  const std::string f = fmt_1d(rng, b, n, &on_q);
  const std::string home = "(" + f + ") " + target_1d(rng, b / 5, on_q);
  long xlen = 0;  // elements of FX usable in a 1-D assignment
  std::string x_mapping;
  std::string x_extra;
  if (b % 2 == 0) {
    const long r = rng.range(16, 48);
    const long c = rng.range(16, 48);
    t += "REAL " + fx + "(" + num(r) + "," + num(c) + ")\n";
    const int kind = (b / 2) % 4;
    static const char* const kFx[] = {
        "(BLOCK,BLOCK) TO G", "(CYCLIC(2),BLOCK) TO G", "(BLOCK,:) TO P",
        "(:,CYCLIC) TO P"};
    x_mapping = "!HPF$ DISTRIBUTE " + fx + kFx[kind] + "\n";
    const std::string cols = ",1:" + num(c) + ")";
    x_extra = kind == 0 ? "!HPF$ SHADOW " + fx + "(1:1,1:1)\n"
                        : fx + "(" + sec(2, r - 1) + cols + " = (" + fx +
                              "(" + sec(1, r - 2) + cols + " + " + fx + "(" +
                              sec(3, r) + cols + ") / 2\n";
    src.last_2d = fx;
    src.last_2d_rows = r;
  } else {
    const int kind = (b / 2) % 3;
    const long m = kind == 0   ? rng.range(8, (n - 1) / 2)
                   : kind == 1 ? rng.range(8, n - 3)
                               : rng.range(8, src.last_2d_rows);
    t += "REAL " + fx + "(" + num(m) + ")\n";
    const std::string align = "!HPF$ ALIGN " + fx + "(I) WITH ";
    x_mapping = kind == 0   ? align + fa + "(2*I+1)\n"
                : kind == 1 ? align + fa + "(I+3)\n"
                            : align + src.last_2d + "(I,*)\n";
    xlen = m;
  }
  t += "!HPF$ DYNAMIC " + fa + "\n";
  t += "!HPF$ DISTRIBUTE " + fa + home + "\n";
  t += x_mapping;
  // A 1-D assignment mixing this block's arrays with the previous block's;
  // FA(2:len+1) = f(FA(1:len)) aliases safely under array semantics.
  const long len = std::min({xlen > 0 ? xlen : n - 1, n - 1, prev_a_extent});
  const std::string lhs = xlen > 0 ? fx : fa;
  const long lo = xlen > 0 ? 1 : 2;
  const std::string mix = lhs + "(" + sec(lo, lo + len - 1) + ") = (" + fa +
                          "(" + sec(1, len) + ") + " + prev + "(" +
                          sec(1, len) + ")) / 2\n";
  t += mix;
  bool on_q2 = false;
  const std::string f2 = fmt_1d(rng, b + 2, n, &on_q2);
  t += "!HPF$ REDISTRIBUTE " + fa + "(" + f2 + ") " +
       (on_q2 ? "TO Q" : "TO P") + "\n";
  if (x_extra.empty()) {
    const std::string odd = fa + "(1:" + num(n) + ":2)";
    x_extra = odd + " = " + odd + " / 2 + " + num(rng.range(1, 9)) + "\n";
  }
  t += x_extra;
  t += "!HPF$ REDISTRIBUTE " + fa + home + "\n";
  t += mix;  // back on the home mapping: the same plan again
  src.lines += 10;
  src.arrays.insert(src.arrays.end(), {fa, fx});
  *a_extent = n;
}

Source generate(std::uint64_t seed) {
  Rng rng(seed);
  Source src;
  src.text =
      "!HPF$ PROCESSORS P(16)\n"
      "!HPF$ PROCESSORS Q(4)\n"
      "!HPF$ PROCESSORS G(4,4)\n";
  src.lines = 3;
  long prev = 1L << 30;
  for (int b = 0; b < kBlocks; ++b) {
    block(rng, b, prev, src, &prev);
    if (b + 1 == kBlocks / 10) src.prefix = src.text;
  }
  return src;
}

/// Everything one pass produced that the checks read.
struct PassOutput {
  std::size_t lexed_lines = 0;
  std::size_t statements = 0;
  std::vector<char> has_array;  ///< per declared array: bound in the env
  int lint_errors = 0;
  int cost_errors = 0;
  analysis::CostTotals totals;
  Extent plans_priced = 0;
  Extent plan_replays = 0;
};

/// One op. Spans time each public call; `*done_ns` receives the time the
/// last call returned, before the bound-array lookups the checks need.
PassOutput pass(const Source& src, const Machine& machine, Tracer& tracer,
                std::int64_t* done_ns) {
  PassOutput out;
  {
    const SpanScope s(tracer, "lex");
    out.lexed_lines = dir::lex(src.text).size();
  }
  {
    const SpanScope s(tracer, "parse_program");
    out.statements = dir::parse_program(src.text).main.size();
  }
  ProcessorSpace run_space(kProcs);
  dir::Interpreter interp(run_space);
  {
    const SpanScope s(tracer, "Interpreter::run");
    interp.run(src.text);
  }
  {
    const SpanScope s(tracer, "analyze_script");
    ProcessorSpace space(kProcs);
    out.lint_errors = analysis::analyze_script(space, src.text).errors();
  }
  {
    const SpanScope s(tracer, "cost_script");
    const analysis::CostReport report =
        analysis::cost_script(machine, src.text);
    out.cost_errors = report.errors();
    out.totals = report.totals;
    out.plans_priced = report.plans_priced;
    out.plan_replays = report.plan_replays;
  }
  *done_ns = now_ns();
  const SpanScope check(tracer, kCheckSpan);
  for (const std::string& name : src.arrays) {
    out.has_array.push_back(interp.env().has(name));
  }
  return out;
}

/// Empty when the pass is clean and repeats the reference pass's totals.
/// `lines` is the generated program's line count: one lexed line each.
std::string check_pass(const PassOutput& got, const PassOutput& ref,
                       long lines, const std::vector<std::string>& arrays) {
  if (got.lexed_lines != static_cast<std::size_t>(lines)) {
    return "lex returned " + std::to_string(got.lexed_lines) +
           " lines, not " + num(lines);
  }
  if (got.lint_errors != 0) {
    return std::to_string(got.lint_errors) + " lint error(s)";
  }
  if (got.cost_errors != 0) {
    return std::to_string(got.cost_errors) + " cost error(s)";
  }
  if (got.has_array.size() != arrays.size()) {
    return "declared array count differs";
  }
  for (std::size_t k = 0; k < arrays.size(); ++k) {
    if (!got.has_array[k]) return "array " + arrays[k] + " is not bound";
  }
  const analysis::CostTotals& a = got.totals;
  const analysis::CostTotals& b = ref.totals;
  if (a.messages != b.messages || a.bytes != b.bytes ||
      a.element_transfers != b.element_transfers || a.flops != b.flops ||
      a.local_reads != b.local_reads || !same_bits(a.time_us, b.time_us) ||
      !same_bits(a.exposed_comm_us, b.exposed_comm_us) ||
      !same_bits(a.hidden_comm_us, b.hidden_comm_us) ||
      got.plans_priced != ref.plans_priced ||
      got.plan_replays != ref.plan_replays) {
    return "cost_script totals differ from the reference pass";
  }
  return "";
}

/// Median time of `reps` stateless binds (run minus parse) of `text`.
double bind_ns(const std::string& text, int reps) {
  std::vector<double> run_ns, parse_ns;
  for (int k = 0; k < reps; ++k) {
    std::int64_t t0 = now_ns();
    const std::size_t parsed = dir::parse_program(text).main.size();
    parse_ns.push_back(static_cast<double>(now_ns() - t0));
    ProcessorSpace space(kProcs);
    dir::Interpreter interp(space);
    t0 = now_ns();
    interp.run(text);
    run_ns.push_back(static_cast<double>(now_ns() - t0));
    if (parsed == 0) throw std::runtime_error("empty program");
  }
  return median(run_ns) - median(parse_ns);
}

}  // namespace

RunResult run_frontend(const Options& opt) {
  RunResult out;
  const Machine machine(kProcs);
  Tracer tracer;
  Source src;
  PassOutput ref;
  // Set-up: generate the program and make one pass untimed; its outputs are
  // the reference the timed passes must repeat. Timed in fresh processes;
  // this process's program and reference are kept.
  const std::vector<double> setup_s = cold_setups(kSetups, [&] {
    const std::int64_t t0 = now_ns();
    src = generate(opt.seed);
    std::int64_t done = 0;
    ref = pass(src, machine, tracer, &done);
    const std::string problem = check_pass(ref, ref, src.lines, src.arrays);
    if (!problem.empty()) {
      throw std::runtime_error("frontend set-up pass: " + problem);
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  });
  std::printf("frontend: %ld directive lines, %zu statements, %zu arrays\n",
              src.lines, ref.statements, src.arrays.size());

  Phase untraced(kPlaceOps);
  Phase traced(kPlaceOps);
  auto op = [&] {
    OpResult o;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = 0;
    const PassOutput got = pass(src, machine, tracer, &t1);
    o.ns = static_cast<double>(t1 - t0);
    o.problem = check_pass(got, ref, src.lines, src.arrays);
    o.units = static_cast<double>(src.lines);
    return o;
  };

  if (opt.trace) {
    closed_loop(untraced, opt.seconds / 2, tracer, "frontend", op);
    tracer.set_on(true);
    closed_loop(traced, opt.seconds / 2, tracer, "frontend", op);
    tracer.set_on(false);
  } else {
    closed_loop(untraced, opt.seconds, tracer, "frontend", op);
    add_end_to_end(out, setup_s, untraced, "directive lines");
  }
  out.attempted =
      static_cast<long>(untraced.op_ns.size() + traced.op_ns.size());
  out.failed = untraced.failed + traced.failed;
  out.correct = out.failed == 0;
  if (!opt.trace) return out;

  const double ops = static_cast<double>(traced.op_ns.size());
  auto per_op_us = [&](const char* name) {
    return tracer.total_ns(name) / ops / 1e3;
  };
  // Bind time at the full size over ten times the bind time of a tenth.
  const double full = bind_ns(src.text, 3);
  const double tenth = bind_ns(src.prefix, 15);
  const double priced = static_cast<double>(ref.plans_priced);
  const double replays = static_cast<double>(ref.plan_replays);
  out.add("directives.lex_us", per_op_us("lex"), "us");
  out.add("directives.parse_us", per_op_us("parse_program"), "us");
  out.add("directives.bind_us",
          per_op_us("Interpreter::run") - per_op_us("parse_program"), "us");
  out.add("directives.bind_superlinearity", full / (10.0 * tenth), "ratio");
  out.add("analysis.lint_us", per_op_us("analyze_script"), "us");
  out.add("analysis.cost_us", per_op_us("cost_script"), "us");
  out.add("analysis.plans_predicted", priced, "count");
  out.add("machine.modeled_time_us", ref.totals.time_us, "us");
  out.add("machine.messages", static_cast<double>(ref.totals.messages),
          "count");
  out.add("machine.bytes", static_cast<double>(ref.totals.bytes), "B");
  out.add("machine.hidden_comm_us", ref.totals.hidden_comm_us, "us");
  out.add("plan.replay_share", replays / (priced + replays), "ratio");
  add_trace_metrics(out, tracer, untraced, traced);
  tracer.print_self_time_table("frontend");
  std::printf("frontend: bind %.0f us at %ld lines vs %.0f us at a tenth "
              "(superlinearity %.2f); %.0f of %.0f priced statements "
              "replay a plan\n",
              full / 1e3, src.lines, tenth / 1e3, full / (10.0 * tenth),
              replays, priced + replays);
  if (!tracer.write(opt.spans_path)) {
    std::fprintf(stderr, "frontend: cannot write spans to %s\n",
                 opt.spans_path.c_str());
  }
  return out;
}

int selftest_frontend() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  frontend: %-57s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  const Source src = generate(5);
  expect(src.text == generate(5).text,
         "the same seed generates the same program");
  expect(src.lines > 5900 && src.lines < 6100,
         "the program has about 6000 lines");
  const Machine machine(kProcs);
  Tracer tracer;
  std::int64_t done = 0;
  const PassOutput ref = pass(src, machine, tracer, &done);
  const PassOutput got = pass(src, machine, tracer, &done);
  expect(check_pass(got, ref, src.lines, src.arrays).empty(),
         "a pass is clean and repeats the reference");

  PassOutput wrong = ref;
  wrong.totals.bytes += 1;
  expect(!check_pass(got, wrong, src.lines, src.arrays).empty(),
         "trips on wrong reference totals");
  wrong = ref;
  wrong.totals.time_us = std::nextafter(wrong.totals.time_us, 1e300);
  expect(!check_pass(got, wrong, src.lines, src.arrays).empty(),
         "trips on a reference time one ulp off");
  std::vector<std::string> names = src.arrays;
  names.back() = "NEVER_DECLARED";
  PassOutput lookup = got;
  {
    ProcessorSpace space(kProcs);
    dir::Interpreter interp(space);
    interp.run(src.text);
    lookup.has_array.back() = interp.env().has(names.back());
  }
  expect(!check_pass(lookup, ref, src.lines, names).empty(),
         "trips on an array the env does not hold");
  PassOutput linted = got;
  {
    ProcessorSpace space(kProcs);
    const std::string bad = src.text + "!HPF$ ALIGN FA1(I) WITH NOPE(I)\n";
    linted.lint_errors = analysis::analyze_script(space, bad).errors();
  }
  expect(!check_pass(linted, ref, src.lines, src.arrays).empty(),
         "trips on an error diagnostic");
  expect(!check_pass(got, ref, src.lines + 1, src.arrays).empty(),
         "trips on a wrong lexed line count");
  return failures;
}

}  // namespace perfbench
