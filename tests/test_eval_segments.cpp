// Differential tests of the segment-vectorized evaluation engine:
//
//  * SegmentIter / segment_list (core/index_domain.hpp) must enumerate
//    exactly the section's parent linear positions, in Fortran order, as
//    maximal flat strided segments;
//  * SecProgram (exec/section_expr.hpp) must match the per-element
//    reference oracle eval_serial value-for-value; and
//  * assign with EvalEngine::kSegment must match EvalEngine::kElement
//    stat-for-stat (byte-identical StepStats) and value-for-value, over
//    randomized triplet sections (ascending, strided, and descending),
//    unit-dimension broadcast leaves, scalar constants, and
//    nested-alignment operands; and
//  * both numerics paths of assign must hold: direct evaluation into the
//    LHS (no RHS leaf names it; strided and descending LHS segments
//    scatter) and the staged snapshot of self-aliasing statements, the
//    one-pass chain kernel over every chain opcode, and the stack machine
//    it falls back to (strided chunks, 9-leaf chains, deeper programs).
//
// These run under the ASan+UBSan CI job like the rest of the suite, so the
// raw-span kernels and the scratch arena stay leak- and UB-clean.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/data_env.hpp"
#include "exec/assign.hpp"
#include "support/rng.hpp"

namespace hpfnt {
namespace {

// --- SegmentIter ------------------------------------------------------------

// Reference: the section's parent linear positions in Fortran order.
std::vector<Extent> reference_positions(const IndexDomain& domain,
                                        const std::vector<Triplet>& section) {
  std::vector<Extent> out;
  domain.section_domain(section).for_each([&](const IndexTuple& pos) {
    out.push_back(
        domain.linearize(domain.section_parent_index(section, pos)));
  });
  return out;
}

std::vector<Extent> segment_positions(const IndexDomain& domain,
                                      const std::vector<Triplet>& section) {
  std::vector<Extent> out;
  for_each_segment(domain, section, [&](const FlatSegment& seg) {
    EXPECT_GT(seg.count, 0);
    for (Extent k = 0; k < seg.count; ++k) {
      out.push_back(seg.base + k * seg.stride);
    }
  });
  return out;
}

TEST(SegmentIter, WholeContiguousSectionIsOneSegment) {
  const IndexDomain domain{Dim(1, 8), Dim(0, 3), Dim(1, 5)};
  const std::vector<FlatSegment> segs =
      segment_list(domain, domain.dims());
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].base, 0);
  EXPECT_EQ(segs[0].count, domain.size());
  EXPECT_EQ(segs[0].stride, 1);
}

TEST(SegmentIter, ColumnSectionFlattensToOneStridedSegment) {
  // A(3, :) of A(1:8, 1:5): five elements, one per row, pitch 8 apart.
  const IndexDomain domain{Dim(1, 8), Dim(1, 5)};
  const std::vector<FlatSegment> segs =
      segment_list(domain, {Triplet::single(3), Triplet(1, 5)});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].base, 2);
  EXPECT_EQ(segs[0].count, 5);
  EXPECT_EQ(segs[0].stride, 8);
}

TEST(SegmentIter, DescendingSectionHasNegativeStride) {
  const IndexDomain domain{Dim(1, 10)};
  const std::vector<FlatSegment> segs =
      segment_list(domain, {Triplet(9, 1, -2)});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].base, 8);
  EXPECT_EQ(segs[0].count, 5);
  EXPECT_EQ(segs[0].stride, -2);
}

TEST(SegmentIter, RankZeroDomainIsOneElement) {
  const IndexDomain domain;
  const std::vector<FlatSegment> segs = segment_list(domain, {});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].base, 0);
  EXPECT_EQ(segs[0].count, 1);
}

TEST(SegmentIter, EmptySectionYieldsNoSegments) {
  const IndexDomain domain{Dim(1, 6), Dim(1, 4)};
  EXPECT_TRUE(
      segment_list(domain, {Triplet(5, 2), Triplet(1, 4)}).empty());
}

TEST(SegmentIter, RandomizedSectionsEnumerateExactPositions) {
  Rng rng(20260729);
  for (int trial = 0; trial < 300; ++trial) {
    const int rank = static_cast<int>(rng.uniform(1, 3));
    std::vector<Triplet> dims;
    std::vector<Triplet> section;
    for (int d = 0; d < rank; ++d) {
      const Index1 lower = rng.uniform(-3, 3);
      const Index1 upper = lower + rng.uniform(0, 9);
      dims.emplace_back(lower, upper);
      // Random sub-triplet: sometimes unit, sometimes strided, sometimes
      // descending.
      const Extent extent = upper - lower + 1;
      const Index1 a = lower + rng.uniform(0, extent - 1);
      const Index1 b = lower + rng.uniform(0, extent - 1);
      Index1 stride = rng.uniform(1, 3);
      if (a > b) stride = -stride;
      if (a == b) stride = 1;
      section.emplace_back(a, b, stride);
    }
    const IndexDomain domain(dims);
    EXPECT_EQ(segment_positions(domain, section),
              reference_positions(domain, section))
        << "domain " << domain.to_string();
  }
}

TEST(SegmentIter, SegmentsAreMaximal) {
  // Adjacent segments must not be mergeable: that would mean the iterator
  // broke a run it was supposed to extend.
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const int rank = static_cast<int>(rng.uniform(1, 3));
    std::vector<Triplet> dims;
    std::vector<Triplet> section;
    for (int d = 0; d < rank; ++d) {
      const Index1 upper = rng.uniform(2, 9);
      dims.emplace_back(1, upper);
      const Index1 a = rng.uniform(1, upper);
      const Index1 b = a + rng.uniform(0, upper - a);
      section.emplace_back(a, b, rng.uniform(1, 2));
    }
    const IndexDomain domain(dims);
    const std::vector<FlatSegment> segs = segment_list(domain, section);
    for (std::size_t i = 1; i < segs.size(); ++i) {
      const FlatSegment& p = segs[i - 1];
      const FlatSegment& c = segs[i];
      const bool continues =
          c.base == p.base + p.count * p.stride &&
          (c.count == 1 || p.count == 1 || c.stride == p.stride);
      EXPECT_FALSE(continues)
          << "segments " << i - 1 << " and " << i << " should have merged";
    }
  }
}

// --- SecProgram vs the element oracle ---------------------------------------

// One environment, two program states: `seg` runs EvalEngine::kSegment,
// `ele` runs EvalEngine::kElement. ArrayIds are shared, so storage can be
// compared bytewise.
struct TwinRig {
  TwinRig()
      : machine(12),
        ps(12),
        env((ps.declare("P", IndexDomain::of_extents({12})), ps)),
        seg(machine),
        ele(machine) {}

  void create_both(const DistArray& arr, std::uint64_t fill_seed) {
    seg.create(env, arr);
    ele.create(env, arr);
    Rng rng(fill_seed);
    // Same deterministic fill on both states.
    std::vector<double> values(
        static_cast<std::size_t>(arr.domain().size()));
    for (double& v : values) v = rng.uniform01() * 8.0 - 4.0;
    std::size_t at = 0;
    auto fn = [&](const IndexTuple&) { return values[at++]; };
    seg.fill(arr.id(), fn);
    at = 0;
    ele.fill(arr.id(), fn);
  }

  // Runs the same assignment through both engines and requires
  // byte-identical statistics and storage. Returns the segment engine's
  // result; the element oracle always stages.
  AssignResult check_assign(const DistArray& lhs,
                            const std::vector<Triplet>& lhs_section,
                            const SecExpr& rhs) {
    const AssignResult rs =
        assign(seg, env, lhs, lhs_section, rhs, "seg", EvalEngine::kSegment);
    const AssignResult re =
        assign(ele, env, lhs, lhs_section, rhs, "ele", EvalEngine::kElement);
    auto same_bits = [](double x, double y) {
      return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    EXPECT_EQ(rs.step.messages, re.step.messages);
    EXPECT_EQ(rs.step.bytes, re.step.bytes);
    EXPECT_EQ(rs.step.element_transfers, re.step.element_transfers);
    EXPECT_EQ(rs.step.flops, re.step.flops);
    EXPECT_TRUE(same_bits(rs.step.time_us, re.step.time_us));
    EXPECT_TRUE(same_bits(rs.step.exposed_comm_us, re.step.exposed_comm_us));
    EXPECT_TRUE(same_bits(rs.step.hidden_comm_us, re.step.hidden_comm_us));
    EXPECT_EQ(rs.step.retries, re.step.retries);
    EXPECT_TRUE(same_bits(rs.step.retry_us, re.step.retry_us));
    EXPECT_EQ(rs.elements, re.elements);
    EXPECT_EQ(rs.local_reads, re.local_reads);
    EXPECT_EQ(rs.posted_leaves, re.posted_leaves);
    EXPECT_EQ(re.staged_elements, re.elements);
    EXPECT_EQ(std::memcmp(seg.values_span(lhs.id()), ele.values_span(lhs.id()),
                          sizeof(double) * static_cast<std::size_t>(
                                               seg.values_count(lhs.id()))),
              0)
        << "stored values diverged for " << lhs.name();
    return rs;
  }

  Machine machine;
  ProcessorSpace ps;
  DataEnv env;
  ProgramState seg;
  ProgramState ele;
};

TEST(SecProgramDifferential, StencilOverBlockSections) {
  TwinRig rig;
  const Extent n = 40;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(1, n), Dim(1, n)});
  DistArray& b = rig.env.real("B", IndexDomain{Dim(1, n), Dim(1, n)});
  const ProcessorRef procs(rig.ps.find("P"));
  rig.env.distribute(a, {DistFormat::block(), DistFormat::collapsed()}, procs);
  rig.env.distribute(b, {DistFormat::block(), DistFormat::collapsed()}, procs);
  rig.create_both(a, 1);
  rig.create_both(b, 2);
  const Triplet inner(2, n - 1);
  SecExpr rhs = (SecExpr::section(a, {Triplet(1, n - 2), inner}) +
                 SecExpr::section(a, {Triplet(3, n), inner}) +
                 SecExpr::section(a, {inner, Triplet(1, n - 2)}) +
                 SecExpr::section(a, {inner, Triplet(3, n)})) *
                0.25;
  // B never appears on the right: evaluated straight into B, one pass per
  // column chunk.
  EXPECT_TRUE(rhs.program().is_chain());
  const AssignResult r = rig.check_assign(b, {inner, inner}, rhs);
  EXPECT_EQ(r.elements, (n - 2) * (n - 2));
  EXPECT_EQ(r.staged_elements, 0);
}

TEST(SecProgramDifferential, UnitDimensionLeavesBroadcastAndSplat) {
  TwinRig rig;
  const Extent n = 24;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(1, n)});
  DistArray& d = rig.env.real("D", IndexDomain{Dim(1, n), Dim(1, 6)});
  DistArray& s = rig.env.real("S", IndexDomain{Dim(1, n), Dim(1, 6)});
  const ProcessorRef procs(rig.ps.find("P"));
  rig.env.distribute(a, {DistFormat::cyclic(2)}, procs);
  rig.env.distribute(d, {DistFormat::block(), DistFormat::collapsed()}, procs);
  rig.env.distribute(s, {DistFormat::block(), DistFormat::collapsed()}, procs);
  rig.create_both(a, 3);
  rig.create_both(d, 4);
  rig.create_both(s, 5);
  // D(:,j) conforms with A(:) (unit dimension squeezed out).
  SecExpr rhs = SecExpr::section(d, {Triplet(1, n), Triplet::single(3)}) *
                    2.0 +
                SecExpr::whole(a);
  rig.check_assign(a, {Triplet(1, n)}, rhs);
  // An all-unit-dimension leaf has an empty squeezed shape: the single
  // element S(5, 2) splats (stride-0 operand) over the whole LHS section.
  SecExpr splat =
      SecExpr::section(s, {Triplet::single(5), Triplet::single(2)}) * 2.0 +
      1.0;
  rig.check_assign(a, {Triplet(2, n - 1, 2)}, splat);
}

TEST(SecProgramDifferential, ScalarConstantRhsBroadcasts) {
  TwinRig rig;
  const Extent n = 30;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(1, n)});
  rig.env.distribute(a, {DistFormat::block()},
                     ProcessorRef(rig.ps.find("P")));
  rig.create_both(a, 6);
  // Shapeless RHS: every LHS element receives the folded constant.
  SecExpr rhs = SecExpr::constant(3.0) * 0.5 + 1.25;
  rig.check_assign(a, {Triplet(2, n - 1, 3)}, rhs);
}

TEST(SecProgramDifferential, NestedAlignmentOperands) {
  TwinRig rig;
  const Extent n = 32;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(1, n)});
  DistArray& b = rig.env.real("B", IndexDomain{Dim(1, n)});
  DistArray& c = rig.env.real("C", IndexDomain{Dim(1, n)});
  const ProcessorRef procs(rig.ps.find("P"));
  rig.env.distribute(a, {DistFormat::block()}, procs);
  // Two derived operands over one base: an identity ALIGN and a shifted
  // one whose α clamps at the upper edge (§5.1) — their layouts are
  // CONSTRUCT(α, δ_A) payloads, so the engine evaluates through
  // kConstructed distributions while pricing composes through α.
  rig.env.align(b, a, AlignSpec::colons(1));
  rig.env.align(c, a,
                AlignSpec({AligneeSub::dummy(0, "I")},
                          {BaseSub::of_expr(AlignExpr::dummy(0) + 1)}));
  rig.create_both(a, 7);
  rig.create_both(b, 8);
  rig.create_both(c, 9);
  SecExpr rhs = (SecExpr::whole(b) - SecExpr::whole(c)) /
                    SecExpr::constant(4.0) +
                2.0 * SecExpr::whole(a);
  rig.check_assign(a, {Triplet(1, n)}, rhs);
}

TEST(SecProgramDifferential, RandomizedTripletSections) {
  TwinRig rig;
  const Extent rows = 18;
  const Extent cols = 14;
  const IndexDomain domain{Dim(1, rows), Dim(1, cols)};
  DistArray& x = rig.env.real("X", IndexDomain{Dim(1, rows), Dim(1, cols)});
  DistArray& y = rig.env.real("Y", IndexDomain{Dim(1, rows), Dim(1, cols)});
  rig.ps.declare("G", IndexDomain::of_extents({3, 4}));
  const ProcessorRef grid(rig.ps.find("G"));
  rig.env.distribute(x, {DistFormat::block(), DistFormat::cyclic(1)}, grid);
  rig.env.distribute(y, {DistFormat::cyclic(3), DistFormat::block()}, grid);
  rig.create_both(x, 10);
  rig.create_both(y, 11);
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    // Random conforming shape, random placements of it inside X and Y
    // (including descending source triplets).
    const Extent h = rng.uniform(1, 6);
    const Extent w = rng.uniform(1, 5);
    auto place = [&](Extent extent, Extent span) {
      const Index1 stride = rng.uniform(1, 2);
      const Index1 max_lo = extent - (span - 1) * stride;
      const Index1 lo = rng.uniform(1, max_lo > 1 ? max_lo : 1);
      const Index1 hi = lo + (span - 1) * stride;
      if (span > 1 && rng.uniform(0, 3) == 0) {
        return Triplet(hi, lo, -stride);  // descending
      }
      return Triplet(lo, hi, stride);
    };
    const std::vector<Triplet> lhs_sec = {place(rows, h), place(cols, w)};
    const std::vector<Triplet> src1 = {place(rows, h), place(cols, w)};
    const std::vector<Triplet> src2 = {place(rows, h), place(cols, w)};
    SecExpr rhs =
        SecExpr::section(y, src1) * 0.75 + SecExpr::section(x, src2);
    rig.check_assign(x, lhs_sec, rhs);
  }
}

TEST(SecProgramDifferential, ProgramEvalMatchesEvalSerialDirectly) {
  TwinRig rig;
  const Extent n = 21;
  DistArray& a = rig.env.real("A", IndexDomain{Dim(0, n)});
  rig.env.distribute(a, {DistFormat::block()},
                     ProcessorRef(rig.ps.find("P")));
  rig.create_both(a, 13);
  SecExpr expr = (SecExpr::section(a, {Triplet(0, n - 1)}) *
                  SecExpr::section(a, {Triplet(1, n)})) +
                 (-0.5);
  const Extent total = n;
  std::vector<double> out(static_cast<std::size_t>(total));
  expr.program().eval(rig.seg, rig.seg.scratch(), total, out.data());
  for (Extent k = 0; k < total; ++k) {
    IndexTuple pos;
    pos.push_back(k + 1);
    EXPECT_EQ(out[static_cast<std::size_t>(k)],
              expr.eval_serial(rig.seg, pos))
        << "position " << k;
  }
}

// --- Direct evaluation, staging, and the one-pass chain kernel ---------------

// 1-D arrays on 12 processors, sized to span several evaluation chunks
// (2048 elements) and to leave ragged tails after the chain kernel's
// register tiles.
constexpr Extent kLong = 4100;

DistArray& line(TwinRig& rig, const std::string& name, DistFormat format,
                std::uint64_t seed, Extent n = kLong) {
  DistArray& x = rig.env.real(name, IndexDomain{Dim(1, n)});
  rig.env.distribute(x, {format}, ProcessorRef(rig.ps.find("P")));
  rig.create_both(x, seed);
  return x;
}

SecExpr sec(const DistArray& x, Index1 lo, Index1 hi, Index1 stride = 1) {
  return SecExpr::section(x, {Triplet(lo, hi, stride)});
}

TEST(AssignStaging, OnlyStatementsThatReadTheirLhsStage) {
  TwinRig rig;
  DistArray& a = line(rig, "A", DistFormat::block(), 30, 64);
  DistArray& b = line(rig, "B", DistFormat::block(), 31, 64);
  const SecExpr shift = sec(a, 1, 62) + sec(a, 3, 64);
  const AssignResult direct = rig.check_assign(b, {Triplet(2, 63)}, shift);
  EXPECT_EQ(direct.elements, 62);
  EXPECT_EQ(direct.staged_elements, 0);
  const AssignResult staged = rig.check_assign(a, {Triplet(2, 63)}, shift);
  EXPECT_EQ(staged.staged_elements, 62);
  // A constant right-hand side reads nothing, so it never stages.
  const AssignResult fill =
      rig.check_assign(a, {Triplet(1, 64, 3)}, SecExpr::constant(2.5));
  EXPECT_TRUE(SecExpr::constant(2.5).program().is_chain());
  EXPECT_EQ(fill.staged_elements, 0);
}

TEST(AssignStaging, SelfAliasingShiftsStageInBothDirections) {
  TwinRig rig;
  DistArray& fa = line(rig, "FA", DistFormat::block(), 32);
  const Extent n = kLong;
  // FA(2:n) = FA(1:n-1)...: every element must read its left neighbour's
  // OLD value; evaluating in place would smear FA(1) across the array.
  const AssignResult up = rig.check_assign(
      fa, {Triplet(2, n)}, sec(fa, 1, n - 1) * 0.5 + 1.0);
  EXPECT_EQ(up.staged_elements, n - 1);
  const AssignResult down = rig.check_assign(
      fa, {Triplet(1, n - 1)}, sec(fa, 2, n) - sec(fa, 1, n - 1));
  EXPECT_EQ(down.staged_elements, n - 1);
  // A descending self-shift reads ahead of its writes the other way round.
  const AssignResult back = rig.check_assign(
      fa, {Triplet(n, 2, -1)}, sec(fa, n - 1, 1, -1) + sec(fa, 2, n));
  EXPECT_EQ(back.staged_elements, n - 1);
}

TEST(AssignStaging, IdenticalSectionSelfUpdateStages) {
  TwinRig rig;
  DistArray& a = line(rig, "A", DistFormat::cyclic(3), 33);
  const Extent n = kLong;
  // A(1:n:2) = A(1:n:2)/2 + c: reads and writes the same elements.
  const AssignResult r = rig.check_assign(
      a, {Triplet(1, n, 2)},
      sec(a, 1, n, 2) / SecExpr::constant(2.0) + 0.75);
  EXPECT_EQ(r.staged_elements, r.elements);
}

TEST(AssignStaging, StridedAndDescendingLhsEvaluateDirectly) {
  TwinRig rig;
  DistArray& a = line(rig, "A", DistFormat::block(), 34);
  DistArray& b = line(rig, "B", DistFormat::cyclic(5), 35);
  const Extent n = kLong;
  // Unit-stride operands, non-unit LHS: the chain kernel fills the
  // register slot that is scattered into B.
  const Extent m = (n + 2) / 3;
  EXPECT_EQ(rig.check_assign(b, {Triplet(1, n, 3)},
                             sec(a, 1, m) * 2.0 + sec(a, 2, m + 1))
                .staged_elements,
            0);
  EXPECT_EQ(rig.check_assign(b, {Triplet(n, 1, -1)}, sec(a, 1, n) + 1.0)
                .staged_elements,
            0);
  const Extent h = (n - 2) / 2;
  EXPECT_EQ(rig.check_assign(b, {Triplet(n - 1, n - 1 - 2 * (h - 1), -2)},
                             sec(a, 2, h + 1) - sec(a, h, 1, -1))
                .staged_elements,
            0);
  // 2-D: a descending column range over strided rows.
  TwinRig rig2;
  DistArray& x = rig2.env.real("X", IndexDomain{Dim(1, 30), Dim(1, 20)});
  DistArray& y = rig2.env.real("Y", IndexDomain{Dim(1, 30), Dim(1, 20)});
  rig2.ps.declare("G", IndexDomain::of_extents({3, 4}));
  const ProcessorRef grid(rig2.ps.find("G"));
  rig2.env.distribute(x, {DistFormat::block(), DistFormat::cyclic(2)}, grid);
  rig2.env.distribute(y, {DistFormat::cyclic(1), DistFormat::block()}, grid);
  rig2.create_both(x, 36);
  rig2.create_both(y, 37);
  EXPECT_EQ(rig2.check_assign(
                    y, {Triplet(2, 29, 3), Triplet(18, 3, -1)},
                    SecExpr::section(x, {Triplet(1, 10), Triplet(1, 16)}) *
                        SecExpr::section(x, {Triplet(11, 20), Triplet(5, 20)}))
                .staged_elements,
            0);
}

TEST(SecProgramDifferential, ChunksMixUnitStridedAndBroadcastLeaves) {
  TwinRig rig;
  const Extent rows = 2600;
  DistArray& x = rig.env.real("X", IndexDomain{Dim(1, rows), Dim(1, 4)});
  DistArray& y = rig.env.real("Y", IndexDomain{Dim(1, 4), Dim(1, rows)});
  DistArray& z = line(rig, "Z", DistFormat::block(), 40, rows);
  DistArray& w = line(rig, "W", DistFormat::cyclic(6), 43, rows);
  const ProcessorRef procs(rig.ps.find("P"));
  rig.env.distribute(x, {DistFormat::block(), DistFormat::collapsed()}, procs);
  rig.env.distribute(y, {DistFormat::collapsed(), DistFormat::cyclic(7)},
                     procs);
  rig.create_both(x, 41);
  rig.create_both(y, 42);
  const SecExpr column = SecExpr::section(x, {Triplet(1, rows),
                                              Triplet::single(3)});  // unit
  const SecExpr row = SecExpr::section(y, {Triplet::single(2),
                                           Triplet(1, rows)});  // stride 4
  const SecExpr one = SecExpr::section(x, {Triplet::single(9),
                                           Triplet::single(2)});  // splat
  // Unit-stride leaves only: one pass per chunk.
  const SecExpr unit = (column - sec(z, 1, rows)) * 0.25;
  ASSERT_TRUE(unit.program().is_chain());
  EXPECT_EQ(rig.check_assign(w, {Triplet(1, rows)}, unit).staged_elements,
            0);
  // Unit-stride, strided and descending leaves in every chunk: the stack
  // machine.
  const SecExpr mixed = (column + row) * 2.0 - sec(z, rows, 1, -1);
  ASSERT_TRUE(mixed.program().is_chain());
  EXPECT_EQ(rig.check_assign(w, {Triplet(1, rows)}, mixed).staged_elements,
            0);
  EXPECT_EQ(rig.check_assign(z, {Triplet(1, rows)}, mixed).staged_elements,
            rows);  // reads Z
  // A single-element leaf conforms only with other single-element leaves
  // (squeezed shape []), so broadcast chunks are all-splat: a splat head
  // and splat steps over a long strided LHS.
  const SecExpr splat =
      (one + SecExpr::section(y, {Triplet::single(4), Triplet(9, 9)})) / one;
  ASSERT_TRUE(splat.program().is_chain());
  rig.check_assign(w, {Triplet(rows, 1, -3)}, splat);
  rig.check_assign(w, {Triplet(2, rows)}, splat);
  // A single-element statement: no leaf broadcasts, every chunk is 1 long.
  const SecExpr pair =
      SecExpr::section(y, {Triplet::single(3), Triplet(9, 9)}) +
      SecExpr::section(x, {Triplet(5, 5), Triplet::single(1)});
  rig.check_assign(w, {Triplet(7, 7)}, pair * one);
}

TEST(SecProgramDifferential, EveryChainOpcodeMatchesTheOracle) {
  TwinRig rig;
  DistArray& a = line(rig, "A", DistFormat::block(), 50);
  DistArray& b = line(rig, "B", DistFormat::cyclic(4), 51);
  DistArray& c = line(rig, "C", DistFormat::cyclic(1), 52);
  DistArray& out = line(rig, "OUT", DistFormat::block(), 53);
  const Extent n = kLong;
  const Extent m = n - 3;
  // Every fused leaf op, every folded constant op, and both constant-left
  // forms, interleaved: leaves A, B, C, A, B with shifts so no two
  // operands coincide.
  const SecExpr chain =
      SecExpr::constant(7.0) /
      (SecExpr::constant(2.0) -
       (((((sec(a, 1, m) + sec(b, 2, m + 1)) - sec(c, 3, m + 2)) + 1.5) *
             sec(a, 4, m + 3) -
         SecExpr::constant(0.25)) /
            sec(b, 3, m + 2) * 3.0 / SecExpr::constant(0.5)));
  using Op = SecProgram::OpCode;
  const SecProgram& prog = chain.program();
  ASSERT_TRUE(prog.is_chain());
  std::vector<Op> ops;
  for (const SecProgram::Inst& inst : prog.code()) ops.push_back(inst.op);
  EXPECT_EQ(ops, (std::vector<Op>{Op::kLeaf, Op::kAddL, Op::kSubL, Op::kAddC,
                                  Op::kMulL, Op::kSubC, Op::kDivL, Op::kMulC,
                                  Op::kDivC, Op::kRSubC, Op::kRDivC}));
  EXPECT_EQ(rig.check_assign(out, {Triplet(2, m + 1)}, chain).staged_elements,
            0);
  // c - leaf and c / leaf fold onto a leaf head directly.
  const SecExpr reversed =
      SecExpr::constant(1.0) / (SecExpr::constant(3.0) - sec(c, 1, n));
  ASSERT_TRUE(reversed.program().is_chain());
  rig.check_assign(out, {Triplet(1, n)}, reversed);
}

TEST(SecProgramDifferential, NineLeafChainFallsBackToTheStackMachine) {
  TwinRig rig;
  DistArray& a = line(rig, "A", DistFormat::block(), 60);
  DistArray& out = line(rig, "OUT", DistFormat::cyclic(2), 61);
  const Extent m = kLong - 8;
  auto sum_of = [&](int leaves) {
    SecExpr e = sec(a, 1, m);
    for (int l = 1; l < leaves; ++l) {
      e = l % 3 == 2 ? e * sec(a, l + 1, m + l) : e + sec(a, l + 1, m + l);
    }
    return e * 0.5;
  };
  const SecExpr eight = sum_of(8);
  const SecExpr nine = sum_of(9);
  EXPECT_TRUE(eight.program().is_chain());
  EXPECT_EQ(nine.program().depth(), 1);
  EXPECT_FALSE(nine.program().is_chain());
  rig.check_assign(out, {Triplet(1, m)}, eight);
  rig.check_assign(out, {Triplet(1, m)}, nine);
}

TEST(SecProgramDifferential, RandomProgramsOnBothPathsMatchTheOracle) {
  TwinRig rig;
  const Extent n = 700;
  DistArray* arrays[3] = {&line(rig, "X", DistFormat::block(), 70, n),
                          &line(rig, "Y", DistFormat::cyclic(3), 71, n),
                          &line(rig, "Z", DistFormat::cyclic(1), 72, n)};
  Rng rng(73);
  for (int trial = 0; trial < 80; ++trial) {
    // A random shape placed at random strides and directions.
    const Extent len = rng.uniform(1, 300);
    auto place = [&]() {
      const Index1 stride = rng.uniform(1, 2);
      const Index1 lo = rng.uniform(1, n - (len - 1) * stride);
      const Index1 hi = lo + (len - 1) * stride;
      return rng.uniform(0, 3) == 0 ? Triplet(hi, lo, -stride)
                                    : Triplet(lo, hi, stride);
    };
    auto leaf = [&]() {
      return SecExpr::section(*arrays[rng.uniform(0, 2)], {place()});
    };
    auto combine = [&](SecExpr x, SecExpr y) {
      switch (rng.uniform(0, 3)) {
        case 0: return std::move(x) + std::move(y);
        case 1: return std::move(x) - std::move(y);
        case 2: return std::move(x) * std::move(y);
        default: return std::move(x) / std::move(y);
      }
    };
    // Mostly chains (a fused op per step, constants on either side);
    // sometimes a parenthesized sub-expression makes the program deeper.
    const int leaves = static_cast<int>(rng.uniform(1, 10));
    SecExpr e = leaf();
    for (int l = 1; l < leaves; ++l) {
      SecExpr rhs = rng.uniform(0, 5) == 0 ? combine(leaf(), leaf()) : leaf();
      e = combine(std::move(e), std::move(rhs));
      if (rng.uniform(0, 2) == 0) {
        const SecExpr k = SecExpr::constant(rng.uniform(1, 9) * 0.375);
        e = rng.uniform(0, 1) == 0 ? combine(std::move(e), k)
                                   : combine(k, std::move(e));
      }
    }
    DistArray& lhs = *arrays[rng.uniform(0, 2)];
    bool aliases = false;
    for (const SecLeaf& l : e.leaves()) aliases = aliases || l.array == lhs.id();
    const AssignResult r = rig.check_assign(lhs, {place()}, e);
    EXPECT_EQ(r.staged_elements, aliases ? len : 0) << "trial " << trial;
  }
}

}  // namespace
}  // namespace hpfnt
