#include "exec/section_expr.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

SecExpr SecExpr::section(const DistArray& array,
                         std::vector<Triplet> section) {
  array.domain().validate_section(section);
  auto n = std::make_shared<Node>();
  n->op = Op::kLeaf;
  n->array = array.id();
  n->bytes = elem_bytes(array.type());
  n->domain = array.domain();
  n->section = std::move(section);
  return SecExpr(std::move(n));
}

SecExpr SecExpr::whole(const DistArray& array) {
  return section(array, array.domain().dims());
}

SecExpr SecExpr::constant(double value) {
  auto n = std::make_shared<Node>();
  n->op = Op::kConst;
  n->value = value;
  return SecExpr(std::move(n));
}

SecExpr SecExpr::binary(Op op, SecExpr a, SecExpr b) {
  auto n = std::make_shared<Node>();
  n->op = op;
  n->lhs = a.node_;
  n->rhs = b.node_;
  return SecExpr(std::move(n));
}

void SecExpr::collect_shape(const Node& n, std::vector<Extent>& shape,
                            bool& seen) {
  if (n.op == Op::kLeaf) {
    // Fortran conformance ignores dimensions of extent 1 contributed by
    // scalar subscripts: D(:,j) conforms with A(:). Shapes are therefore
    // compared squeezed (the same rule assign and copy_section apply).
    std::vector<Extent> mine = squeezed_shape(n.section);
    if (!seen) {
      shape = mine;
      seen = true;
    } else if (shape != mine) {
      throw ConformanceError(
          "array sections in one expression do not conform in shape");
    }
    return;
  }
  if (n.lhs) collect_shape(*n.lhs, shape, seen);
  if (n.rhs) collect_shape(*n.rhs, shape, seen);
}

std::vector<Extent> SecExpr::shape() const {
  std::vector<Extent> shape;
  bool seen = false;
  collect_shape(*node_, shape, seen);
  return shape;
}

Extent SecExpr::count_flops(const Node& n) {
  switch (n.op) {
    case Op::kLeaf:
    case Op::kConst:
      return 0;
    default:
      return 1 + count_flops(*n.lhs) + count_flops(*n.rhs);
  }
}

Extent SecExpr::flops_per_element() const { return count_flops(*node_); }

std::vector<SecLeaf> SecExpr::leaves() const {
  std::vector<SecLeaf> out;
  collect_leaves(*node_, out);
  return out;
}

void SecExpr::collect_leaves(const Node& n, std::vector<SecLeaf>& out) {
  if (n.op == Op::kLeaf) {
    out.push_back(SecLeaf{n.array, n.bytes, &n.domain, &n.section});
    return;
  }
  if (n.lhs) collect_leaves(*n.lhs, out);
  if (n.rhs) collect_leaves(*n.rhs, out);
}

double SecExpr::eval_node(const Node& n, const ProgramState& state,
                          const IndexTuple& pos) {
  switch (n.op) {
    case Op::kConst:
      return n.value;
    case Op::kLeaf: {
      // `pos` is the squeezed position (unit dimensions dropped); expand it
      // to this leaf's rank by pinning unit dimensions at position 1.
      IndexTuple full_pos;
      full_pos.resize(n.section.size());
      std::size_t consumed = 0;
      for (std::size_t d = 0; d < n.section.size(); ++d) {
        full_pos[d] = n.section[d].size() == 1 ? 1 : pos[consumed++];
      }
      IndexTuple parent = n.domain.section_parent_index(n.section, full_pos);
      return state.value(n.array, parent);
    }
    case Op::kAdd:
      return eval_node(*n.lhs, state, pos) + eval_node(*n.rhs, state, pos);
    case Op::kSub:
      return eval_node(*n.lhs, state, pos) - eval_node(*n.rhs, state, pos);
    case Op::kMul:
      return eval_node(*n.lhs, state, pos) * eval_node(*n.rhs, state, pos);
    case Op::kDiv:
      return eval_node(*n.lhs, state, pos) / eval_node(*n.rhs, state, pos);
  }
  throw InternalError("unreachable section-expression op");
}

double SecExpr::eval_serial(const ProgramState& state,
                            const IndexTuple& pos) const {
  return eval_node(*node_, state, pos);
}

// --- SecProgram: the segment-vectorized engine ------------------------------

int SecExpr::add_leaf(const Node& n, SecProgram& prog) {
  const int index = static_cast<int>(prog.leaves_.size());
  prog.leaves_.push_back(SecLeaf{n.array, n.bytes, &n.domain, &n.section});
  SecProgram::LeafPlan plan;
  plan.segments = segment_list(n.domain, n.section);
  for (const FlatSegment& s : plan.segments) {
    plan.size += s.count;
    plan.bound = std::max(
        plan.bound, 1 + std::max(s.base, s.base + (s.count - 1) * s.stride));
  }
  prog.plans_.push_back(std::move(plan));
  return index;
}

void SecExpr::compile_node(const Node& n, SecProgram& prog, int& stack) {
  using OpCode = SecProgram::OpCode;
  switch (n.op) {
    case Op::kConst:
      prog.code_.push_back({OpCode::kConst, -1, n.value});
      prog.depth_ = std::max(prog.depth_, ++stack);
      return;
    case Op::kLeaf:
      prog.code_.push_back({OpCode::kLeaf, add_leaf(n, prog), 0.0});
      prog.depth_ = std::max(prog.depth_, ++stack);
      return;
    default:
      break;
  }
  // Binary node. An operand that needs no register of its own fuses into
  // the op: a constant folds into an immediate op (x*0.25 is one multiply
  // pass; a constant LEFT operand uses the reversed forms for c - x and
  // c / x), and a leaf right operand becomes a fused leaf op that reads
  // the operand's strided span in place instead of copying it into a
  // register first. IEEE semantics are exactly eval_node's (no
  // reassociation, no reciprocal tricks), which the differential tests
  // assert.
  auto pick = [&](OpCode add, OpCode sub, OpCode mul, OpCode div) {
    switch (n.op) {
      case Op::kAdd: return add;
      case Op::kSub: return sub;
      case Op::kMul: return mul;
      case Op::kDiv: return div;
      default: throw InternalError("unreachable section-expression op");
    }
  };
  const bool lhs_const = n.lhs->op == Op::kConst;
  const bool rhs_const = n.rhs->op == Op::kConst;
  if (rhs_const && !lhs_const) {
    compile_node(*n.lhs, prog, stack);
    prog.code_.push_back({pick(OpCode::kAddC, OpCode::kSubC, OpCode::kMulC,
                               OpCode::kDivC),
                          -1, n.rhs->value});
    return;
  }
  if (lhs_const && !rhs_const) {
    compile_node(*n.rhs, prog, stack);
    prog.code_.push_back({pick(OpCode::kAddC, OpCode::kRSubC, OpCode::kMulC,
                               OpCode::kRDivC),
                          -1, n.lhs->value});
    return;
  }
  compile_node(*n.lhs, prog, stack);
  if (n.rhs->op == Op::kLeaf) {
    // Compiled after the left subtree, so leaves_ keeps leaves() order.
    prog.code_.push_back({pick(OpCode::kAddL, OpCode::kSubL, OpCode::kMulL,
                               OpCode::kDivL),
                          add_leaf(*n.rhs, prog), 0.0});
    return;
  }
  compile_node(*n.rhs, prog, stack);
  prog.code_.push_back(
      {pick(OpCode::kAdd, OpCode::kSub, OpCode::kMul, OpCode::kDiv), -1, 0.0});
  --stack;
}

const SecProgram& SecExpr::program() const {
  // Lock-free once-publication (the memo-publication rule of the
  // distribution payload caches): concurrent first calls may each compile
  // a program, but exactly one wins the CAS into the shared root-node slot
  // and every caller returns the winner — so two sessions faulting the
  // same expression's program race benignly. A published program is never
  // replaced (nodes are immutable), so the returned reference stays valid
  // while the expression lives.
  std::shared_ptr<const SecProgram> prog =
      std::atomic_load_explicit(&node_->program, std::memory_order_acquire);
  if (!prog) {
    auto built = std::make_shared<SecProgram>();
    int stack = 0;
    compile_node(*node_, *built, stack);
    // Depth 1 means one push (the head) and no popping op: every other
    // instruction is a fused leaf or folded-constant op.
    built->chain_ = built->depth_ == 1 &&
                    built->leaves_.size() <= SecProgram::kMaxChainLeaves &&
                    built->code_.size() <= SecProgram::kMaxChainSteps;
    std::shared_ptr<const SecProgram> expected;
    prog = std::move(built);
    if (!std::atomic_compare_exchange_strong_explicit(
            &node_->program, &expected, prog, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      prog = std::move(expected);  // another thread published first
    }
  }
  return *prog;
}

namespace {

using OpCode = SecProgram::OpCode;

/// Chunk size of the whole-statement driver: large enough to amortize the
/// per-chunk cursor work, small enough that depth() registers stay cache
/// resident.
constexpr Extent kEvalChunk = 2048;

/// The chain kernel's register tile: this many consecutive elements are
/// carried through the whole chain in registers. The interpretive cost
/// (one switch per step per tile) is amortized over the tile: on the
/// 5-point stencil 4 lanes ran 3.2x the hand-written loop, 8 lanes 1.5x,
/// 16 lanes 1.0-1.3x and 32 lanes (spilling) 1.8x.
constexpr Extent kChainLanes = 16;

/// a ∘ x for the arithmetic of binary op `op`, whatever its operand form.
inline double apply(OpCode op, double a, double x) {
  switch (op) {
    case OpCode::kAdd: case OpCode::kAddL: case OpCode::kAddC: return a + x;
    case OpCode::kSub: case OpCode::kSubL: case OpCode::kSubC: return a - x;
    case OpCode::kMul: case OpCode::kMulL: case OpCode::kMulC: return a * x;
    case OpCode::kDiv: case OpCode::kDivL: case OpCode::kDivC: return a / x;
    case OpCode::kRSubC: return x - a;
    case OpCode::kRDivC: return x / a;
    case OpCode::kConst: case OpCode::kLeaf: break;
  }
  return a;  // not a binary op; never compiled into a binary position
}

/// a[k] = f(a[k], x[k * stride]) for k in [0, count), with the unit-stride
/// and splat cases as their own loops.
template <class F>
void combine(double* __restrict a, const double* __restrict x, Extent stride,
             Extent count, F f) {
  if (stride == 1) {
    for (Extent k = 0; k < count; ++k) a[k] = f(a[k], x[k]);
  } else if (stride == 0) {
    const double v = *x;
    for (Extent k = 0; k < count; ++k) a[k] = f(a[k], v);
  } else {
    for (Extent k = 0; k < count; ++k) a[k] = f(a[k], x[k * stride]);
  }
}

/// One pass of the stack machine: a[k] = a[k] ∘ x[k * stride].
void combine(OpCode op, double* a, const double* x, Extent stride,
             Extent count) {
  switch (op) {
    case OpCode::kAdd: case OpCode::kAddL: case OpCode::kAddC:
      return combine(a, x, stride, count,
                     [](double p, double q) { return p + q; });
    case OpCode::kSub: case OpCode::kSubL: case OpCode::kSubC:
      return combine(a, x, stride, count,
                     [](double p, double q) { return p - q; });
    case OpCode::kMul: case OpCode::kMulL: case OpCode::kMulC:
      return combine(a, x, stride, count,
                     [](double p, double q) { return p * q; });
    case OpCode::kDiv: case OpCode::kDivL: case OpCode::kDivC:
      return combine(a, x, stride, count,
                     [](double p, double q) { return p / q; });
    case OpCode::kRSubC:
      return combine(a, x, stride, count,
                     [](double p, double q) { return q - p; });
    case OpCode::kRDivC:
      return combine(a, x, stride, count,
                     [](double p, double q) { return q / p; });
    case OpCode::kConst: case OpCode::kLeaf:
      return;
  }
}

/// One instruction of a chain with its operand for the current chunk:
/// a leaf's span (stride 1) or a splatted leaf or constant (stride 0).
struct ChainStep {
  OpCode op = OpCode::kConst;
  const double* ptr = nullptr;
  Extent stride = 0;
};

/// The one-pass chain kernel: out[k] = head[k] ∘1 x1[k] ∘2 x2[k] ... for k
/// in [0, count), evaluated left to right. kChainLanes consecutive
/// elements travel through the whole chain in registers (the lane index
/// pack W unrolls every lane operation), so each operand is read once and
/// the output written once — the interpretive switch runs once per step
/// per tile, not per element. Each lane operation is its own statement, so
/// the ISO-mode build (CMAKE_CXX_EXTENSIONS OFF: GCC's -ffp-contract=off)
/// never fuses two of them into one rounding.
template <Extent... W>
void eval_chain(std::integer_sequence<Extent, W...>,
                const ChainStep* steps, std::size_t n, Extent count,
                double* __restrict out) {
  constexpr Extent kLanes = sizeof...(W);
  const ChainStep& head = steps[0];
  Extent k = 0;
  for (; k + kLanes <= count; k += kLanes) {
    double a[kLanes];
    if (head.stride == 0) {
      ((a[W] = *head.ptr), ...);
    } else {
      const double* __restrict h = head.ptr + k;
      ((a[W] = h[W]), ...);
    }
    for (std::size_t i = 1; i < n; ++i) {
      const ChainStep& s = steps[i];
      double x[kLanes];
      if (s.stride == 0) {
        ((x[W] = *s.ptr), ...);
      } else {
        const double* __restrict p = s.ptr + k;
        ((x[W] = p[W]), ...);
      }
      switch (s.op) {
        case OpCode::kAddL: case OpCode::kAddC: ((a[W] += x[W]), ...); break;
        case OpCode::kSubL: case OpCode::kSubC: ((a[W] -= x[W]), ...); break;
        case OpCode::kMulL: case OpCode::kMulC: ((a[W] *= x[W]), ...); break;
        case OpCode::kDivL: case OpCode::kDivC: ((a[W] /= x[W]), ...); break;
        case OpCode::kRSubC: ((a[W] = x[W] - a[W]), ...); break;
        case OpCode::kRDivC: ((a[W] = x[W] / a[W]), ...); break;
        default: break;  // a chain holds no stack op after its head
      }
    }
    ((out[k + W] = a[W]), ...);
  }
  for (; k < count; ++k) {
    double a = head.ptr[k * head.stride];
    for (std::size_t i = 1; i < n; ++i) {
      const ChainStep& s = steps[i];
      a = apply(s.op, a, s.ptr[k * s.stride]);
    }
    out[k] = a;
  }
}

void load(const SecProgram::Operand& o, Extent count, double* d) {
  if (o.stride == 0) {
    std::fill_n(d, count, o.ptr[0]);
  } else if (o.stride == 1) {
    std::copy_n(o.ptr, count, d);
  } else {
    for (Extent k = 0; k < count; ++k) d[k] = o.ptr[k * o.stride];
  }
}

struct LeafCursor {
  const double* base = nullptr;
  std::size_t seg = 0;   // index into the plan's segment list
  Extent off = 0;        // elements consumed of the current segment
  bool broadcast = false;
};

}  // namespace

void SecProgram::eval_segment(const Operand* operands, Extent count,
                              double* out, double* regs) const {
  // Register slot 0 is the output buffer itself, so the final result needs
  // no copy; slots 1.. live in the caller's register file.
  auto slot = [&](int i) { return i == 0 ? out : regs + (i - 1) * count; };
  int top = 0;  // number of live registers
  for (const Inst& inst : code_) {
    switch (inst.op) {
      case OpCode::kConst:
        std::fill_n(slot(top++), count, inst.value);
        break;
      case OpCode::kLeaf:
        load(operands[inst.leaf], count, slot(top++));
        break;
      case OpCode::kAdd: case OpCode::kSub: case OpCode::kMul:
      case OpCode::kDiv: {
        const double* b = slot(--top);
        combine(inst.op, slot(top - 1), b, 1, count);
        break;
      }
      case OpCode::kAddL: case OpCode::kSubL: case OpCode::kMulL:
      case OpCode::kDivL: {
        const Operand& o = operands[inst.leaf];
        combine(inst.op, slot(top - 1), o.ptr, o.stride, count);
        break;
      }
      case OpCode::kAddC: case OpCode::kSubC: case OpCode::kMulC:
      case OpCode::kDivC: case OpCode::kRSubC: case OpCode::kRDivC:
        combine(inst.op, slot(top - 1), &inst.value, 0, count);
        break;
    }
  }
}

void SecProgram::prepare(const ProgramState& state, ScratchArena& arena,
                         Extent total) const {
  if (total <= 0) return;
  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    const LeafPlan& plan = plans_[l];
    if (plan.bound > state.values_count(leaves_[l].array)) {
      throw InternalError(
          "section-expression leaf outruns its array's canonical storage");
    }
    if (plan.size != total && plan.size != 1) {
      throw InternalError(
          "nonconforming operand segment list in section expression");
    }
  }
  // The stack machine's registers 1..depth-1 plus one scatter slot for
  // destination segments that are not unit-stride.
  arena.regs.resize(static_cast<std::size_t>(std::max(1, depth_) *
                                             kEvalChunk));
}

void SecProgram::eval(const ProgramState& state, ScratchArena& arena,
                      Extent total, double* out) const {
  const FlatSegment whole{0, total, 1};
  run(state, arena, total, &whole, out);
}

void SecProgram::eval_into(const ProgramState& state, ScratchArena& arena,
                           const std::vector<FlatSegment>& dst_segments,
                           double* dst) const {
  Extent total = 0;
  for (const FlatSegment& s : dst_segments) total += s.count;
  run(state, arena, total, dst_segments.data(), dst);
}

void SecProgram::run(const ProgramState& state, ScratchArena& arena,
                     Extent total, const FlatSegment* dst_segments,
                     double* dst) const {
  prepare(state, arena, total);
  if (total <= 0) return;
  // Inline storage keeps the warm path allocation-free (the ScratchArena
  // contract); expressions rarely have more than a handful of leaves.
  SmallVector<LeafCursor, 8> cursors(leaves_.size(), LeafCursor{});
  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    cursors[l].base = state.values_span(leaves_[l].array);
    cursors[l].broadcast = plans_[l].size == 1 && total != 1;
  }
  // A chain's constant steps point at their folded values once; its leaf
  // steps are re-aimed at each chunk's operand spans below.
  SmallVector<ChainStep, kMaxChainSteps> steps;
  if (chain_) {
    steps.resize(code_.size(), ChainStep{});
    for (std::size_t i = 0; i < code_.size(); ++i) {
      steps[i] = {code_[i].op, &code_[i].value, 0};
    }
  }
  double* regs = arena.regs.data();
  double* scatter = regs + std::max(0, depth_ - 1) * kEvalChunk;
  SmallVector<Operand, 8> ops(leaves_.size(), Operand{});
  const FlatSegment* out_seg = dst_segments;
  Extent out_off = 0;  // elements written of the current destination segment
  Extent pos = 0;
  while (pos < total) {
    Extent chunk = std::min(kEvalChunk, out_seg->count - out_off);
    for (std::size_t l = 0; l < leaves_.size(); ++l) {
      LeafCursor& c = cursors[l];
      if (c.broadcast) {
        ops[l] = {c.base + plans_[l].segments.front().base, 0};
        continue;
      }
      const FlatSegment& sg = plans_[l].segments[c.seg];
      ops[l] = {c.base + sg.base + c.off * sg.stride, sg.stride};
      chunk = std::min(chunk, sg.count - c.off);
    }
    double* out = out_seg->stride == 1
                      ? dst + out_seg->base + out_off
                      : scatter;
    // A chain runs in one pass when every operand of the chunk is
    // unit-stride or splatted; anything strided takes the stack machine.
    bool one_pass = chain_;
    for (std::size_t i = 0; one_pass && i < code_.size(); ++i) {
      if (code_[i].leaf < 0) continue;
      const Operand& o = ops[static_cast<std::size_t>(code_[i].leaf)];
      steps[i].ptr = o.ptr;
      steps[i].stride = chunk == 1 ? 0 : o.stride;
      one_pass = steps[i].stride == 0 || steps[i].stride == 1;
    }
    if (one_pass) {
      eval_chain(std::make_integer_sequence<Extent, kChainLanes>{},
                 steps.data(), steps.size(), chunk, out);
    } else {
      eval_segment(ops.data(), chunk, out, regs);
    }
    if (out_seg->stride != 1) {
      double* d = dst + out_seg->base + out_off * out_seg->stride;
      for (Extent k = 0; k < chunk; ++k) d[k * out_seg->stride] = scatter[k];
    }
    for (std::size_t l = 0; l < leaves_.size(); ++l) {
      LeafCursor& c = cursors[l];
      if (c.broadcast) continue;
      c.off += chunk;
      if (c.off == plans_[l].segments[c.seg].count) {
        ++c.seg;
        c.off = 0;
      }
    }
    out_off += chunk;
    if (out_off == out_seg->count) {
      ++out_seg;
      out_off = 0;
    }
    pos += chunk;
  }
}

SecExpr operator+(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kAdd, std::move(a), std::move(b));
}
SecExpr operator-(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kSub, std::move(a), std::move(b));
}
SecExpr operator*(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kMul, std::move(a), std::move(b));
}
SecExpr operator/(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kDiv, std::move(a), std::move(b));
}
SecExpr operator*(SecExpr a, double b) {
  return std::move(a) * SecExpr::constant(b);
}
SecExpr operator*(double a, SecExpr b) {
  return SecExpr::constant(a) * std::move(b);
}
SecExpr operator+(SecExpr a, double b) {
  return std::move(a) + SecExpr::constant(b);
}

}  // namespace hpfnt
