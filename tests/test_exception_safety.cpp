// Exception safety of the executor under mid-statement failure.
//
// The fault model's exhaustion path (TransferFaultError out of end_step)
// is the sharpest probe we have: it fires after the whole statement's
// traffic is recorded, at the last moment before commit. These tests pin
// the strong guarantee for all three priced statement kinds — assign
// (staged and direct numerics), copy_section, apply_remap (cold AND
// warm/replay paths) — by comparing
// every observable against a pre-failure snapshot: canonical values,
// layouts, per-processor memory gauges (current and peak), and the comm
// engine's cumulative totals. And because robustness means recoverable,
// each test then disables faults and re-executes the SAME statement,
// which must now succeed with fault-free results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/layout_view.hpp"
#include "directives/interp.hpp"
#include "exec/assign.hpp"
#include "exec/storage.hpp"
#include "fault/fault_model.hpp"
#include "support/error.hpp"

namespace hpfnt {
namespace {

using dir::Interpreter;

struct Session {
  Machine machine;
  ProcessorSpace space;
  ProgramState state;
  Interpreter interp;

  explicit Session(Extent procs = 8)
      : machine(procs), space(procs), state(machine), interp(space) {
    interp.set_state(&state);
  }

  ArrayId id(const std::string& name) {
    return interp.env().find(name).id();
  }
};

/// Everything a failed statement must leave untouched.
struct Snapshot {
  std::vector<double> checksums;
  std::vector<std::string> layouts;
  std::vector<Extent> mem_bytes, mem_peak;
  Extent messages, bytes, retries;
  double time_us;
  std::size_t steps;

  Snapshot(Session& s, const std::vector<std::string>& arrays) {
    for (const std::string& name : arrays) {
      checksums.push_back(s.state.checksum(s.id(name)));
      layouts.push_back(s.state.layout(s.id(name)).to_string());
    }
    for (ApId p = 0; p < s.machine.processors(); ++p) {
      mem_bytes.push_back(s.state.memory().bytes_on(p));
      mem_peak.push_back(s.state.memory().peak_on(p));
    }
    messages = s.state.comm().total_messages();
    bytes = s.state.comm().total_bytes();
    retries = s.state.comm().total_retries();
    time_us = s.state.comm().total_time_us();
    steps = s.interp.steps().size();
  }
};

void expect_unchanged(Session& s, const std::vector<std::string>& arrays,
                      const Snapshot& before) {
  const Snapshot after(s, arrays);
  EXPECT_EQ(after.checksums, before.checksums);
  EXPECT_EQ(after.layouts, before.layouts);
  EXPECT_EQ(after.mem_bytes, before.mem_bytes);
  EXPECT_EQ(after.mem_peak, before.mem_peak);
  EXPECT_EQ(after.messages, before.messages);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.retries, before.retries);
  EXPECT_EQ(after.time_us, before.time_us);
  EXPECT_EQ(after.steps, before.steps);
}

constexpr const char* kAlwaysFault = "FAULTS(1, 1000, 1)\n";
constexpr const char* kNoFaults = "FAULTS(1, 0, 1)\n";

TEST(ExceptionSafety, AssignFailureLeavesEverythingUntouchedAndIsRetryable) {
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(8)\n"
      "REAL A(64), B(64)\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO P\n"
      "!HPF$ DISTRIBUTE B(BLOCK) TO P\n"
      "A(1:64) = 1\n"
      "B(1:64) = 9\n");
  const Snapshot before(s, {"A", "B"});

  // The stencil's halo messages exhaust their single retry immediately.
  s.interp.run(kAlwaysFault);
  EXPECT_THROW(s.interp.run("B(2:63) = A(1:62) + A(3:64)\n"),
               TransferFaultError);
  expect_unchanged(s, {"A", "B"}, before);

  // Same statement, faults off: succeeds with fault-free results.
  s.interp.run(kNoFaults);
  s.interp.run("B(2:63) = A(1:62) + A(3:64)\n");
  EXPECT_EQ(s.state.checksum(s.id("B")), 62.0 * 2.0 + 2.0 * 9.0);
  EXPECT_EQ(s.state.comm().total_retries(), 0);
}

TEST(ExceptionSafety, DirectPathStencilFailureLeavesEverythingUntouched) {
  // A 2-D Jacobi-style update between two distinct arrays evaluates
  // straight into B (no staging buffer) with its halos posted. Pricing
  // runs before the first write to B, so exhausting the retries must still
  // leave B exactly as it was.
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS Q(2,4)\n"
      "REAL A(16,16), B(16,16)\n"
      "!HPF$ DISTRIBUTE A(BLOCK,BLOCK) TO Q\n"
      "!HPF$ DISTRIBUTE B(BLOCK,BLOCK) TO Q\n"
      "!HPF$ SHADOW A(1:1,1:1)\n"
      "!HPF$ SHADOW B(1:1,1:1)\n");
  // A linear field: the 5-point average reproduces it exactly.
  s.state.fill(s.id("A"), [](const IndexTuple& i) {
    return static_cast<double>(16 * i[0] + i[1]);
  });
  s.state.fill(s.id("B"), [](const IndexTuple&) { return -1.0; });
  const DistArray& a = s.interp.env().find("A");
  const DistArray& b = s.interp.env().find("B");
  const Triplet inner(2, 15);
  const SecExpr rhs = (SecExpr::section(a, {Triplet(1, 14), inner}) +
                       SecExpr::section(a, {Triplet(3, 16), inner}) +
                       SecExpr::section(a, {inner, Triplet(1, 14)}) +
                       SecExpr::section(a, {inner, Triplet(3, 16)})) *
                      0.25;
  const Snapshot before(s, {"A", "B"});

  s.interp.run(kAlwaysFault);
  EXPECT_THROW(assign(s.state, s.interp.env(), b, {inner, inner}, rhs),
               TransferFaultError);
  expect_unchanged(s, {"A", "B"}, before);

  s.interp.run(kNoFaults);
  const AssignResult r =
      assign(s.state, s.interp.env(), b, {inner, inner}, rhs);
  EXPECT_EQ(r.staged_elements, 0);
  EXPECT_EQ(r.posted_leaves, std::vector<char>(4, 1));
  EXPECT_GT(r.step.messages, 0);
  EXPECT_EQ(r.step.retries, 0);
  double interior = 0.0;
  for (Index1 i = 2; i <= 15; ++i) {
    for (Index1 j = 2; j <= 15; ++j) interior += 16.0 * i + j;
  }
  EXPECT_EQ(s.state.checksum(s.id("B")), interior - (256.0 - 14.0 * 14.0));
  EXPECT_EQ(s.state.checksum(s.id("A")), before.checksums[0]);

  // The warm path: the plan now replays, and the replay's exhaustion must
  // also come before the first write (B reset so a write would show).
  s.state.fill(s.id("B"), [](const IndexTuple&) { return -1.0; });
  const Snapshot warm(s, {"A", "B"});
  s.interp.run(kAlwaysFault);
  EXPECT_THROW(assign(s.state, s.interp.env(), b, {inner, inner}, rhs),
               TransferFaultError);
  expect_unchanged(s, {"A", "B"}, warm);
}

TEST(ExceptionSafety, RemapColdPathFailureRollsBackAndIsRetryable) {
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(8)\n"
      "REAL A(64)\n"
      "!HPF$ DYNAMIC A\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO P\n"
      "A(1:64) = 4\n");
  const Snapshot before(s, {"A"});
  const std::string block_layout = s.state.layout(s.id("A")).to_string();
  const std::size_t plans_before = s.state.plans().size();

  s.interp.run(kAlwaysFault);
  EXPECT_THROW(s.interp.run("!HPF$ REDISTRIBUTE A(CYCLIC)\n"),
               TransferFaultError);
  expect_unchanged(s, {"A"}, before);
  EXPECT_EQ(s.state.layout(s.id("A")).to_string(), block_layout)
      << "the failed remap must not rebind the layout";
  EXPECT_EQ(s.state.plans().size(), plans_before)
      << "no plan of the failed step may be published";

  s.interp.run(kNoFaults);
  s.interp.run("!HPF$ REDISTRIBUTE A(CYCLIC)\n");
  EXPECT_NE(s.state.layout(s.id("A")).to_string(), block_layout);
  EXPECT_EQ(s.state.checksum(s.id("A")), 64.0 * 4.0);
}

TEST(ExceptionSafety, RemapWarmPathFailureRollsBackAndIsRetryable) {
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(8)\n"
      "REAL A(64)\n"
      "!HPF$ DYNAMIC A\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO P\n"
      "A(1:64) = 4\n"
      "!HPF$ REDISTRIBUTE A(CYCLIC)\n"
      "!HPF$ REDISTRIBUTE A(BLOCK)\n");
  ASSERT_GT(s.state.plans().size(), 0u);
  const Snapshot before(s, {"A"});

  // The BLOCK->CYCLIC plan is cached: this remap replays it, and the
  // replay's fault roll exhausts. The replay happens BEFORE any mutation.
  s.interp.run(kAlwaysFault);
  EXPECT_THROW(s.interp.run("!HPF$ REDISTRIBUTE A(CYCLIC)\n"),
               TransferFaultError);
  expect_unchanged(s, {"A"}, before);

  s.interp.run(kNoFaults);
  s.interp.run("!HPF$ REDISTRIBUTE A(CYCLIC)\n");
  EXPECT_EQ(s.state.checksum(s.id("A")), 64.0 * 4.0);
}

TEST(ExceptionSafety, CopySectionFailureRollsBackAndIsRetryable) {
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(8)\n"
      "REAL A(64), B(64)\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO P\n"
      "!HPF$ DISTRIBUTE B(CYCLIC) TO P\n"
      "A(1:64) = 6\n"
      "B(1:64) = 0\n");
  const DistArray& a = s.interp.env().find("A");
  const DistArray& b = s.interp.env().find("B");
  const std::vector<Triplet> whole{Triplet(1, 64, 1)};
  const Snapshot before(s, {"A", "B"});
  const std::size_t plans_before = s.state.plans().size();

  s.state.comm().set_fault_config({1, 1.0, 1, 50.0});
  EXPECT_THROW(s.state.copy_section(b, whole, a, whole, "arg copy"),
               TransferFaultError);
  expect_unchanged(s, {"A", "B"}, before);
  EXPECT_EQ(s.state.plans().size(), plans_before);

  s.state.comm().set_fault_config({1, 0.0, 1, 50.0});
  const StepStats step = s.state.copy_section(b, whole, a, whole, "arg copy");
  EXPECT_EQ(step.retries, 0);
  EXPECT_EQ(s.state.checksum(s.id("B")), 64.0 * 6.0);
}

TEST(ExceptionSafety, EngineStaysUsableAcrossRepeatedExhaustions) {
  // Hammer the same failing statement several times: no drift in any
  // cumulative counter, then one clean pass works.
  Session s;
  s.interp.run(
      "!HPF$ PROCESSORS P(8)\n"
      "REAL A(64), B(64)\n"
      "!HPF$ DISTRIBUTE A(BLOCK) TO P\n"
      "!HPF$ DISTRIBUTE B(CYCLIC) TO P\n"
      "A(1:64) = 1\n"
      "B(1:64) = 1\n");
  const Snapshot before(s, {"A", "B"});
  s.interp.run(kAlwaysFault);
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(s.interp.run("B(1:64) = A(1:64)\n"), TransferFaultError);
  }
  expect_unchanged(s, {"A", "B"}, before);
  s.interp.run(kNoFaults);
  s.interp.run("B(1:64) = A(1:64)\n");
  EXPECT_EQ(s.state.checksum(s.id("B")), 64.0);
}

}  // namespace
}  // namespace hpfnt
