// Workload `stencil`: warm 2-D 5-point Jacobi, n = 1024, (BLOCK, BLOCK) on
// a 4 x 4 grid with SHADOW(1:1, 1:1).
//
// One op is one warm hpfnt::assign of the interior, B = (N+S+W+E)/4, with
// the right-hand side built once per direction (as hpfnt::jacobi does) and
// the direction alternating. Each array holds 1024^2 doubles = 8 MiB: on
// the 4-core machine the baseline was taken on, one exceeds a core's 2 MiB
// L2, the pair exceeds all four cores' 8 MiB of L2, and both fit in the
// 300 MiB L3. Staging, the SecProgram
// kernels and writeback dominate the op; pricing is one plan replay.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/data_env.hpp"
#include "exec/assign.hpp"

namespace perfbench {

void handloop_step(const double* src, double* dst, long n);

namespace {

using namespace hpfnt;

constexpr Extent kN = 1024;
constexpr Extent kGrid = 4;
constexpr int kSetups = 9;
constexpr std::size_t kPlaceOps = 32;  // ops of a few ms: ~0.1 s a placement
constexpr Extent kRealBytes = 4;  // Fortran REAL, the arrays' declared type

double initial_value(std::uint64_t seed, Extent i, Extent j) {
  Rng r(seed ^ (static_cast<std::uint64_t>(i) << 32) ^
        static_cast<std::uint64_t>(j) * 0x9E3779B97F4A7C15ull);
  return static_cast<double>(r.next() >> 11) * 0x1.0p-53 * 100.0;
}

/// The halo exchange of one interior 5-point update over a g x g BLOCK
/// grid: each operand shifted by one crosses g-1 block boundaries along
/// its axis, each n-2 elements long and split over g processor pairs.
struct Halo {
  Extent messages = 0;
  Extent elements = 0;
  Extent bytes = 0;
};

Halo closed_form_halo(Extent n, Extent g) {
  Halo h;
  h.messages = 4 * g * (g - 1);
  h.elements = 4 * (g - 1) * (n - 2);
  h.bytes = h.elements * kRealBytes;
  return h;
}

/// Empty when `step` is the closed-form halo exchange and identical, field
/// for field, to the first warm step; else what differs.
std::string check_step(const StepStats& step, const StepStats& first,
                       const Halo& halo) {
  if (step.messages != halo.messages) {
    return "messages differ from the halo count";
  }
  if (step.bytes != halo.bytes) return "bytes differ from the halo count";
  if (step.element_transfers != halo.elements) {
    return "element transfers differ from the halo count";
  }
  if (step.messages != first.messages || step.bytes != first.bytes ||
      step.element_transfers != first.element_transfers ||
      step.flops != first.flops || step.retries != first.retries ||
      !same_bits(step.time_us, first.time_us) ||
      !same_bits(step.exposed_comm_us, first.exposed_comm_us) ||
      !same_bits(step.hidden_comm_us, first.hidden_comm_us) ||
      !same_bits(step.retry_us, first.retry_us)) {
    return "step stats differ from the first warm step";
  }
  return "";
}

/// Empty when array `id` matches the row-major reference `ref`.
std::string check_values(const ProgramState& state, ArrayId id,
                         const std::vector<double>& ref, Extent n) {
  for (Extent i = 1; i <= n; ++i) {
    for (Extent j = 1; j <= n; ++j) {
      const double want = ref[static_cast<std::size_t>((i - 1) * n + (j - 1))];
      const double got = state.value(id, IndexTuple{i, j});
      if (!close_to(got, want)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "value (%lld,%lld) is %.17g, reference %.17g",
                      static_cast<long long>(i), static_cast<long long>(j),
                      got, want);
        return buf;
      }
    }
  }
  return "";
}

ProcessorSpace& with_grid(ProcessorSpace& space) {
  space.declare("G", IndexDomain::of_extents({kGrid, kGrid}));
  return space;
}

SecExpr five_point(const DistArray& a, Extent n) {
  const Triplet inner(2, n - 1);
  return (SecExpr::section(a, {Triplet(1, n - 2), inner}) +
          SecExpr::section(a, {Triplet(3, n), inner}) +
          SecExpr::section(a, {inner, Triplet(1, n - 2)}) +
          SecExpr::section(a, {inner, Triplet(3, n)})) *
         0.25;
}

struct Rig {
  Rig(Extent n, std::uint64_t seed)
      : machine(kGrid * kGrid),
        space(kGrid * kGrid),
        env(with_grid(space)),
        a(env.real("A", IndexDomain{Dim(1, n), Dim(1, n)})),
        b(env.real("B", IndexDomain{Dim(1, n), Dim(1, n)})),
        state(machine),
        rhs_ab(five_point(a, n)),
        rhs_ba(five_point(b, n)) {
    const ProcessorRef grid(space.find("G"));
    for (DistArray* x : {&a, &b}) {
      env.distribute(*x, {DistFormat::block(), DistFormat::block()}, grid);
      x->set_shadow({{1, 1}, {1, 1}});
      state.create(env, *x);
      state.fill(x->id(), [seed](const IndexTuple& i) {
        return initial_value(seed, i[0], i[1]);
      });
    }
  }

  /// Jacobi step k: A -> B when k is even, B -> A when odd.
  AssignResult step(long k, Extent n) {
    const Triplet inner(2, n - 1);
    return k % 2 == 0 ? assign(state, env, b, {inner, inner}, rhs_ab, label)
                      : assign(state, env, a, {inner, inner}, rhs_ba, label);
  }

  Machine machine;
  ProcessorSpace space;
  DataEnv env;
  DistArray& a;
  DistArray& b;
  ProgramState state;
  SecExpr rhs_ab;
  SecExpr rhs_ba;
  std::string label = "jacobi";
};

/// The same field, iterated by the hand loop.
struct HandField {
  HandField(Extent n, std::uint64_t seed)
      : a(static_cast<std::size_t>(n * n)), b(a.size()) {
    for (Extent i = 1; i <= n; ++i) {
      for (Extent j = 1; j <= n; ++j) {
        a[static_cast<std::size_t>((i - 1) * n + (j - 1))] =
            initial_value(seed, i, j);
      }
    }
    b = a;
  }
  std::vector<double> a;
  std::vector<double> b;
};

}  // namespace

RunResult run_stencil(const Options& opt) {
  const Extent n = kN;
  const Halo halo = closed_form_halo(n, kGrid);
  const Extent elements = (n - 2) * (n - 2);
  RunResult out;

  // Set-up: allocate and fill both arrays, then price both directions cold
  // (the prime). Timed in fresh processes; this process's rig is kept.
  std::unique_ptr<Rig> rig;
  const std::vector<double> setup_s = cold_setups(kSetups, [&] {
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>(n, opt.seed);
    rig->step(0, n);
    rig->step(1, n);
    return static_cast<double>(now_ns() - t0) / 1e9;
  });
  long steps = 2;

  Tracer tracer;
  StepStats first;
  bool have_first = false;
  Phase untraced(kPlaceOps);
  Phase traced(kPlaceOps);
  double ownership_queries = 0.0;
  double bytes_moved = 0.0;
  StepStats modeled;  // modeled totals over the traced ops

  auto op = [&] {
    OpResult o;
    const long k = steps++;
    const std::int64_t t0 = now_ns();
    AssignResult r;
    {
      const SpanScope span(tracer, "assign");
      r = rig->step(k, n);
      tracer.add_pricing(span.id(), r.pricing_ns);
    }
    o.ns = static_cast<double>(now_ns() - t0);
    if (!have_first) {
      first = r.step;
      have_first = true;
    }
    o.problem = check_step(r.step, first, halo);
    if (o.problem.empty() && r.elements != elements) {
      o.problem = "element count";
    }
    if (!o.problem.empty()) return o;
    o.units = static_cast<double>(r.elements);
    if (tracer.on()) {
      const double leaves = static_cast<double>(r.posted_leaves.size());
      ownership_queries += static_cast<double>(r.ownership_queries);
      bytes_moved += (leaves + 1) * sizeof(double) * o.units;
      modeled.time_us += r.step.time_us;
      modeled.messages += r.step.messages;
      modeled.bytes += r.step.bytes;
      modeled.hidden_comm_us += r.step.hidden_comm_us;
      modeled.retries += r.step.retries;
      modeled.retry_us += r.step.retry_us;
    }
    return o;
  };

  Extent hits_before = 0;
  Extent misses_before = 0;
  if (opt.trace) {
    closed_loop(untraced, opt.seconds / 2, tracer, "stencil", op);
    hits_before = rig->state.plans().hits();
    misses_before = rig->state.plans().misses();
    tracer.set_on(true);
    closed_loop(traced, opt.seconds / 2, tracer, "stencil", op);
    tracer.set_on(false);
  } else {
    closed_loop(untraced, opt.seconds, tracer, "stencil", op);
    add_end_to_end(out, setup_s, untraced, "elements updated");
  }

  // Final values against the hand loop iterated the same number of steps.
  HandField hand(n, opt.seed);
  std::vector<double> hand_ns;
  for (long k = 0; k < steps; ++k) {
    const std::int64_t t0 = now_ns();
    if (k % 2 == 0) {
      handloop_step(hand.a.data(), hand.b.data(), static_cast<long>(n));
    } else {
      handloop_step(hand.b.data(), hand.a.data(), static_cast<long>(n));
    }
    hand_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  std::string problem = check_values(rig->state, rig->a.id(), hand.a, n);
  if (problem.empty()) {
    problem = check_values(rig->state, rig->b.id(), hand.b, n);
  }

  out.attempted =
      static_cast<long>(untraced.op_ns.size() + traced.op_ns.size());
  out.failed = untraced.failed + traced.failed;
  if (!problem.empty()) {
    std::fprintf(stderr, "stencil final values: %s\n", problem.c_str());
    out.failed = out.attempted;  // every op contributed to the wrong field
  }
  out.correct = out.failed == 0;
  if (!opt.trace) return out;

  const double ops = static_cast<double>(traced.op_ns.size());
  const double elems = static_cast<double>(elements);
  const double assign_ns = tracer.total_ns("assign");
  const double pricing_ns = tracer.total_pricing_ns();
  const double hits =
      static_cast<double>(rig->state.plans().hits() - hits_before);
  const double misses =
      static_cast<double>(rig->state.plans().misses() - misses_before);
  const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const double hand_ns_per_elem = median(hand_ns) / elems;
  out.add("exec.pricing_us", pricing_ns / ops / 1e3, "us");
  out.add("exec.assign_nonpricing_us", (assign_ns - pricing_ns) / ops / 1e3,
          "us");
  out.add("exec.ns_per_elem", assign_ns / ops / elems, "ns/elem");
  out.add("exec.bytes_moved_computed", bytes_moved / ops, "B");
  out.add("core.ownership_queries", ownership_queries / ops, "count");
  out.add("exec.l1_hits", hits / ops, "count");
  out.add("exec.l1_misses", misses / ops, "count");
  out.add("exec.l1_hit_ratio", hit_ratio, "ratio");
  out.add("plan.replay_share", hit_ratio, "ratio");
  out.add("machine.modeled_time_us", modeled.time_us / ops, "us");
  out.add("machine.messages", static_cast<double>(modeled.messages) / ops,
          "count");
  out.add("machine.bytes", static_cast<double>(modeled.bytes) / ops, "B");
  out.add("machine.hidden_comm_us", modeled.hidden_comm_us / ops, "us");
  out.add("fault.retries", static_cast<double>(modeled.retries) / ops,
          "count");
  out.add("fault.retry_us", modeled.retry_us / ops, "us");
  out.add("ref.handloop_ns_per_elem", hand_ns_per_elem, "ns/elem");
  add_trace_metrics(out, tracer, untraced, traced);
  tracer.print_self_time_table("stencil");
  std::printf(
      "stencil: pricing %.3f%% of the assign; assign %.3f ns/elem vs hand "
      "loop %.3f ns/elem; %.0f of %.0f steps replay a plan\n",
      100.0 * pricing_ns / assign_ns, assign_ns / ops / elems,
      hand_ns_per_elem, hits, ops);
  if (!tracer.write(opt.spans_path)) {
    std::fprintf(stderr, "stencil: cannot write spans to %s\n",
                 opt.spans_path.c_str());
  }
  return out;
}

int selftest_stencil() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  stencil: %-58s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  // A small grid keeps the self-test quick; the checks are size-generic.
  const Extent n = 64;
  Rig rig(n, 7);
  HandField hand(n, 7);
  const AssignResult r0 = rig.step(0, n);
  const AssignResult r1 = rig.step(1, n);
  handloop_step(hand.a.data(), hand.b.data(), static_cast<long>(n));
  handloop_step(hand.b.data(), hand.a.data(), static_cast<long>(n));

  const Halo halo = closed_form_halo(n, kGrid);
  expect(check_step(r1.step, r0.step, halo).empty(),
         "step matches the closed-form halo");
  Halo wrong = halo;
  wrong.messages += 1;
  expect(!check_step(r1.step, r0.step, wrong).empty(),
         "trips on a wrong message count");
  wrong = halo;
  wrong.bytes += kRealBytes;
  expect(!check_step(r1.step, r0.step, wrong).empty(),
         "trips on a wrong byte count");
  StepStats drifted = r0.step;
  drifted.time_us = std::nextafter(drifted.time_us, 1e300);
  expect(!check_step(r1.step, drifted, halo).empty(),
         "trips on a step that differs from the first");

  expect(check_values(rig.state, rig.a.id(), hand.a, n).empty() &&
             check_values(rig.state, rig.b.id(), hand.b, n).empty(),
         "values match the hand loop");
  std::vector<double> bad = hand.a;
  bad[static_cast<std::size_t>(n * (n / 2) + n / 3)] += 1e-6;
  expect(!check_values(rig.state, rig.a.id(), bad, n).empty(),
         "trips on a wrong value");
  expect(!check_values(rig.state, rig.a.id(), hand.b, n).empty(),
         "trips on the other direction's field");
  return failures;
}

}  // namespace perfbench
