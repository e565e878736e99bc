// Workload `churn`: a seeded directive script of about 300 statements over
// small arrays, executed S times against one shared PlanService.
//
// One op is one round: build a fresh PlanService, then run S sessions of
// the script one after another, each with its own Machine, ProcessorSpace,
// ProgramState and Interpreter attached to that service. Statements are
// fed to Interpreter::run one at a time. Arrays are small (extents 64 to
// 4096), so cold pricing, run tables, plan keys, L1/L2 lookups, remap and
// call-copy pricing and fault rolls dominate, not numerics. Session 1
// prices cold and writes the shared cache; the later sessions replay from it;
// repeats within a session hit the session's L1.
//
// Checks: session 1's arrays equal a dense serial evaluation of the
// generated statements (values do not depend on the mapping), and every
// later session's StepStats and values are byte-identical to session 1's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "directives/interp.hpp"
#include "service/plan_service.hpp"

namespace perfbench {

namespace {

using namespace hpfnt;

constexpr int kSessions = 2;
constexpr int kSetups = 9;
constexpr std::size_t kPlaceOps = 4;  // ops of ~35 ms: ~0.1 s a placement
constexpr long kCallLength = 64;  // the subroutine's dummy is X(1:64)
// The body: repeats drawn from a pool of distinct assignments, remap
// flips, calls and one-off assignments, in these exact numbers, shuffled.
// The extents are fixed too, so the amount of work does not depend on the
// seed; the seed picks GENERAL_BLOCK bounds, sections, expressions and their
// order.
constexpr int kPoolSize = 40;
constexpr int kPoolRepeats = 160;
constexpr int kRemaps = 30;
constexpr int kCalls = 30;
constexpr int kFreshAssigns = 30;

// --- the generated program ---------------------------------------------------

struct Trip {
  long lo = 1;
  long hi = 1;
  long st = 1;
  bool scalar = false;  ///< a scalar subscript: the dimension is squeezed out
};

struct Arr {
  std::string name;
  std::vector<long> ext;  ///< lower bounds are 1
  long size() const {
    long s = 1;
    for (long e : ext) s *= e;
    return s;
  }
};

struct Ref {
  int arr = 0;
  std::vector<Trip> sec;
};

/// A node of an assignment's right-hand side; the root is the last node.
struct Node {
  enum Kind { kRef, kConst, kAdd, kSub, kDiv } kind = kConst;
  Ref ref;
  long value = 0;  ///< kConst, and the divisor of kDiv (a power of two)
  int lhs = -1;
  int rhs = -1;
};

struct Stmt {
  enum Kind { kDecl, kMap, kRemap, kAssign, kCall } kind = kDecl;
  std::string text;
  Ref lhs;                 ///< kAssign
  std::vector<Node> expr;  ///< kAssign
  Ref actual;              ///< kCall: the 1-D section passed to SMOOTH
};

struct Program {
  std::vector<Arr> arrays;
  std::vector<Stmt> stmts;
};

const Arr& arr_of(const Program& p, const Ref& r) {
  return p.arrays[static_cast<std::size_t>(r.arr)];
}

std::string render_ref(const Program& p, const Ref& r) {
  std::string s = arr_of(p, r).name + "(";
  for (std::size_t d = 0; d < r.sec.size(); ++d) {
    const Trip& t = r.sec[d];
    if (d > 0) s += ",";
    s += std::to_string(t.lo);
    if (t.scalar) continue;
    s += ":" + std::to_string(t.hi);
    if (t.st != 1) s += ":" + std::to_string(t.st);
  }
  return s + ")";
}

std::string render_expr(const Program& p, const std::vector<Node>& e,
                        int at) {
  const Node& n = e[static_cast<std::size_t>(at)];
  switch (n.kind) {
    case Node::kRef:
      return render_ref(p, n.ref);
    case Node::kConst:
      return std::to_string(n.value);
    case Node::kAdd:
    case Node::kSub:
      return "(" + render_expr(p, e, n.lhs) +
             (n.kind == Node::kAdd ? " + " : " - ") +
             render_expr(p, e, n.rhs) + ")";
    case Node::kDiv:
      return "(" + render_expr(p, e, n.lhs) + " / " +
             std::to_string(n.value) + ")";
  }
  return "";
}

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  Program make() {
    emit(Stmt::kDecl, "!HPF$ PROCESSORS P(16)");
    emit(Stmt::kDecl, "!HPF$ PROCESSORS Q(4)");
    emit(Stmt::kDecl, "!HPF$ PROCESSORS G(4,4)");
    // Transient faults: 3 per mille per message and a budget of 6 retries,
    // so a message fails for good with probability 0.003^7 (never, here).
    emit(Stmt::kDecl, "FAULTS(" + num(rng_.range(1, 99999)) + ", 3, 6)");

    // Primaries over every format, processor sections included.
    const int blk = array("A", {4096});
    emit(Stmt::kMap, "!HPF$ DISTRIBUTE A(BLOCK) TO P");
    emit(Stmt::kMap, "!HPF$ SHADOW A(1:1)");
    const int cyc = array("C", {3072});
    emit(Stmt::kMap, "!HPF$ DISTRIBUTE C(CYCLIC(3)) TO P(1:8)");
    const int gen = array("GB", {2048});
    emit(Stmt::kMap, "!HPF$ DISTRIBUTE GB(GENERAL_BLOCK(/" + gb_bounds(2048) +
                         "/)) TO Q");
    const int vb = array("V", {1024});
    emit(Stmt::kMap, "!HPF$ DISTRIBUTE V(BLOCK) TO P(9:16)");
    // Secondaries: affine stride and offset, then a replication case.
    const int sec = array("S", {1024});
    emit(Stmt::kMap, "!HPF$ ALIGN S(I) WITH A(2*I+3)");
    const long rows = 80;
    const long cols = 64;
    const int m1 = array("M", {rows, cols});
    emit(Stmt::kMap, "!HPF$ DISTRIBUTE M(BLOCK,BLOCK) TO G");
    emit(Stmt::kMap, "!HPF$ SHADOW M(1:1,1:1)");
    const int m2 = array("N2", {rows, cols});
    emit(Stmt::kMap, "!HPF$ DISTRIBUTE N2(CYCLIC(2),BLOCK) TO G");
    const int rep = array("R", {rows});
    emit(Stmt::kMap, "!HPF$ ALIGN R(I) WITH M(I,*)");
    // DYNAMIC arrays that flip between two mappings, so plans repeat.
    const int d1 = array("D1", {4096});
    emit(Stmt::kMap, "!HPF$ DYNAMIC D1");
    emit(Stmt::kMap, "!HPF$ DISTRIBUTE D1(BLOCK) TO P");
    const int d2 = array("D2", {2048});
    emit(Stmt::kMap, "!HPF$ DYNAMIC D2");
    emit(Stmt::kMap, "!HPF$ DISTRIBUTE D2(CYCLIC) TO P");
    const std::vector<std::vector<std::string>> flips = {
        {"!HPF$ REDISTRIBUTE D1(CYCLIC(4)) TO P",
         "!HPF$ REDISTRIBUTE D1(BLOCK) TO P"},
        {"!HPF$ REDISTRIBUTE D2(GENERAL_BLOCK(/" + gb_bounds(2048) +
             "/)) TO Q",
         "!HPF$ REDISTRIBUTE D2(CYCLIC) TO P"},
    };
    one_d_ = {blk, cyc, gen, vb, sec, rep, d1, d2};
    two_d_ = {m1, m2};

    emit(Stmt::kDecl,
         "SUBROUTINE SMOOTH(X)\n"
         "REAL X(:)\n"
         "!HPF$ DISTRIBUTE X(BLOCK) TO P\n"
         "X(2:63) = (X(1:62) + X(3:64)) / 2\n"
         "END");

    // Every array starts from two constants interleaved at stride 2.
    for (std::size_t a = 0; a < program_.arrays.size(); ++a) {
      for (long parity = 0; parity < 2; ++parity) {
        Ref r;
        r.arr = static_cast<int>(a);
        for (long e : program_.arrays[a].ext) {
          r.sec.push_back(Trip{1 + parity, e, 2});
        }
        Node c;
        c.kind = Node::kConst;
        c.value = rng_.range(1, 50);
        program_.stmts.push_back(assignment(r, {c}));
      }
    }

    // A pool of distinct assignments, each repeated equally through the
    // body, and three call sites over differently mapped arrays.
    std::vector<Stmt> pool;
    for (int k = 0; k < kPoolSize; ++k) pool.push_back(random_assign(k));
    std::vector<Ref> call_sites;
    for (int a : {blk, cyc, gen}) {
      call_sites.push_back(section_1d(a, kCallLength));
    }
    enum class Slot { kRepeat, kFresh, kRemap, kCall };
    std::vector<Slot> body;
    body.insert(body.end(), kPoolRepeats, Slot::kRepeat);
    body.insert(body.end(), kFreshAssigns, Slot::kFresh);
    body.insert(body.end(), kRemaps, Slot::kRemap);
    body.insert(body.end(), kCalls, Slot::kCall);
    for (std::size_t k = body.size() - 1; k > 0; --k) {
      const long j = rng_.range(0, static_cast<long>(k));
      std::swap(body[k], body[static_cast<std::size_t>(j)]);
    }

    // The k-th slot of each kind takes the k-th item round robin.
    std::size_t repeats = 0, fresh = 0, remaps = 0, calls = 0;
    std::vector<std::size_t> flip_state(flips.size(), 0);
    for (const Slot slot : body) {
      if (slot == Slot::kRepeat) {
        program_.stmts.push_back(pool[repeats++ % pool.size()]);
      } else if (slot == Slot::kFresh) {
        program_.stmts.push_back(random_assign(static_cast<int>(fresh++)));
      } else if (slot == Slot::kRemap) {
        const std::size_t f = remaps++ % flips.size();
        emit(Stmt::kRemap, flips[f][flip_state[f]]);
        flip_state[f] ^= 1;
      } else {
        Stmt call;
        call.kind = Stmt::kCall;
        call.actual = call_sites[calls++ % call_sites.size()];
        call.text = "CALL SMOOTH(" + render_ref(program_, call.actual) + ")";
        program_.stmts.push_back(call);
      }
    }
    return program_;
  }

 private:
  static std::string num(long v) { return std::to_string(v); }

  long ext(int a, std::size_t d = 0) const {
    return program_.arrays[static_cast<std::size_t>(a)].ext[d];
  }

  int array(const std::string& name, std::vector<long> extents) {
    std::string text = "REAL " + name + "(";
    for (std::size_t d = 0; d < extents.size(); ++d) {
      text += (d ? "," : "") + num(extents[d]);
    }
    emit(Stmt::kDecl, text + ")");
    program_.arrays.push_back({name, std::move(extents)});
    return static_cast<int>(program_.arrays.size()) - 1;
  }

  void emit(Stmt::Kind kind, std::string text) {
    Stmt s;
    s.kind = kind;
    s.text = std::move(text);
    program_.stmts.push_back(std::move(s));
  }

  Stmt assignment(const Ref& lhs, std::vector<Node> expr) const {
    Stmt s;
    s.kind = Stmt::kAssign;
    s.lhs = lhs;
    s.expr = std::move(expr);
    s.text = render_ref(program_, lhs) + " = " +
             render_expr(program_, s.expr,
                         static_cast<int>(s.expr.size()) - 1);
    return s;
  }

  /// Three increasing block bounds for GENERAL_BLOCK over Q(4).
  std::string gb_bounds(long extent) {
    const long b1 = rng_.range(1, extent / 3);
    const long b2 = rng_.range(b1 + 1, 2 * extent / 3);
    const long b3 = rng_.range(b2 + 1, extent - 1);
    return num(b1) + "," + num(b2) + "," + num(b3);
  }

  /// A section of `len` elements of a dimension of extent `extent`, at a
  /// random stride (1, 2 or 3) that still fits; needs len <= extent.
  Trip fit(long extent, long len) {
    long st = rng_.pick(std::vector<long>{1, 1, 2, 3});
    while (st > 1 && (len - 1) * st + 1 > extent) --st;
    const long lo = rng_.range(1, extent - (len - 1) * st);
    return Trip{lo, lo + (len - 1) * st, st};
  }

  Ref section_1d(int a, long len) {
    Ref r;
    r.arr = a;
    r.sec.push_back(fit(ext(a), len));
    return r;
  }

  /// Assignment number `index` of a series: one of the bounded forms
  /// X/2+c, (X+Y)/2, (X-Y)/2, (X+Y+Z)/4+c over conforming sections: 1-D
  /// sections, shifted 2-D blocks, or a 2-D row against 1-D sections (rank
  /// squeeze). The form, the shape and the arrays follow from the index,
  /// so every seed prices the same mix of mappings; the seed picks the
  /// sections, the signs and the constants.
  Stmt random_assign(int index) {
    const int operands = 1 + index % 3;
    std::vector<Ref> refs;  // lhs first
    const int shape_kind = index % 10;
    auto array_1d = [&](int j) {
      return one_d_[static_cast<std::size_t>(index * 5 + j * 3) %
                    one_d_.size()];
    };
    auto array_2d = [&](int j) {
      return two_d_[static_cast<std::size_t>(index + j) % two_d_.size()];
    };
    if (shape_kind < 6) {
      long min_ext = 1L << 30;
      std::vector<int> arrs;
      for (int j = 0; j <= operands; ++j) {
        arrs.push_back(array_1d(j));
        min_ext = std::min(min_ext, ext(arrs.back()));
      }
      const long longest = std::min(320L, min_ext);
      const long len = rng_.range(std::min(192L, longest), longest);
      for (int a : arrs) refs.push_back(section_1d(a, len));
    } else if (shape_kind < 9) {
      const long rl = rng_.range(32, 48);
      const long cl = rng_.range(32, 48);
      for (int j = 0; j <= operands; ++j) {
        Ref r;
        r.arr = array_2d(j);
        r.sec.push_back(fit(ext(r.arr, 0), rl));
        r.sec.push_back(fit(ext(r.arr, 1), cl));
        refs.push_back(r);
      }
    } else {
      const int m = array_2d(0);
      std::vector<int> arrs;
      long max_len = ext(m, 1);
      for (int j = 0; j < operands; ++j) {
        arrs.push_back(array_1d(j));
        max_len = std::min(max_len, ext(arrs.back()));
      }
      const long len = rng_.range(48, max_len);
      Ref row;
      row.arr = m;
      const long i = rng_.range(1, ext(m, 0));
      row.sec.push_back(Trip{i, i, 1, true});
      row.sec.push_back(fit(ext(m, 1), len));
      refs.push_back(section_1d(arrs[0], len));
      refs.push_back(row);
      for (std::size_t j = 1; j < arrs.size(); ++j) {
        refs.push_back(section_1d(arrs[j], len));
      }
    }

    std::vector<Node> e;
    auto add = [&e](Node n) {
      e.push_back(std::move(n));
      return static_cast<int>(e.size()) - 1;
    };
    auto leaf = [&](const Ref& r) {
      Node n;
      n.kind = Node::kRef;
      n.ref = r;
      return add(n);
    };
    auto op = [&](Node::Kind k, int l, int r, long v = 0) {
      Node n;
      n.kind = k;
      n.lhs = l;
      n.rhs = r;
      n.value = v;
      return add(n);
    };
    auto konst = [&](long v) {
      Node n;
      n.kind = Node::kConst;
      n.value = v;
      return add(n);
    };
    const int x = leaf(refs[1]);
    if (operands == 1) {
      const int half = op(Node::kDiv, x, -1, 2);
      op(Node::kAdd, half, konst(rng_.range(1, 9)));
    } else if (operands == 2) {
      const int y = leaf(refs[2]);
      const Node::Kind k = rng_.range(0, 1) ? Node::kAdd : Node::kSub;
      op(Node::kDiv, op(k, x, y), -1, 2);
    } else {
      const int y = leaf(refs[2]);
      const int z = leaf(refs[3]);
      const int sum = op(Node::kAdd, op(Node::kAdd, x, y), z);
      const int quarter = op(Node::kDiv, sum, -1, 4);
      op(Node::kAdd, quarter, konst(rng_.range(1, 9)));
    }
    return assignment(refs[0], std::move(e));
  }

  Rng rng_;
  Program program_;
  std::vector<int> one_d_;
  std::vector<int> two_d_;
};

// --- the dense serial reference ---------------------------------------------

using Dense = std::vector<std::vector<double>>;  // per array, row-major

/// Row-major offsets of a section's elements, first dimension slowest (the
/// order read_values uses).
std::vector<long> offsets(const Arr& a, const Ref& r) {
  std::vector<long> out{0};
  for (std::size_t d = 0; d < r.sec.size(); ++d) {
    std::vector<long> next;
    const Trip& t = r.sec[d];
    for (long base : out) {
      for (long i = t.lo; i <= t.hi; i += t.st) {
        next.push_back(base * a.ext[d] + (i - 1));
      }
    }
    out.swap(next);
  }
  return out;
}

std::vector<double> eval(const Program& p, const Dense& v,
                         const std::vector<Node>& e, int at,
                         std::size_t count) {
  const Node& n = e[static_cast<std::size_t>(at)];
  std::vector<double> out(count);
  switch (n.kind) {
    case Node::kRef: {
      const std::vector<long> off = offsets(arr_of(p, n.ref), n.ref);
      const std::vector<double>& src = v[static_cast<std::size_t>(n.ref.arr)];
      for (std::size_t k = 0; k < count; ++k) {
        out[k] = src[static_cast<std::size_t>(off[k])];
      }
      break;
    }
    case Node::kConst:
      std::fill(out.begin(), out.end(), static_cast<double>(n.value));
      break;
    case Node::kDiv:
      out = eval(p, v, e, n.lhs, count);
      for (double& x : out) x /= static_cast<double>(n.value);
      break;
    case Node::kAdd:
    case Node::kSub: {
      out = eval(p, v, e, n.lhs, count);
      const std::vector<double> r = eval(p, v, e, n.rhs, count);
      for (std::size_t k = 0; k < count; ++k) {
        out[k] = n.kind == Node::kAdd ? out[k] + r[k] : out[k] - r[k];
      }
      break;
    }
  }
  return out;
}

/// Executes the program's statements on dense arrays. REDISTRIBUTE and the
/// mapping directives move no values; CALL SMOOTH(x) smooths x(2:63).
Dense dense_reference(const Program& p) {
  Dense v;
  for (const Arr& a : p.arrays) {
    v.emplace_back(static_cast<std::size_t>(a.size()), 0.0);
  }
  for (const Stmt& s : p.stmts) {
    if (s.kind == Stmt::kAssign) {
      const std::vector<long> lhs = offsets(arr_of(p, s.lhs), s.lhs);
      const std::vector<double> rhs =
          eval(p, v, s.expr, static_cast<int>(s.expr.size()) - 1, lhs.size());
      std::vector<double>& dst = v[static_cast<std::size_t>(s.lhs.arr)];
      for (std::size_t k = 0; k < lhs.size(); ++k) {
        dst[static_cast<std::size_t>(lhs[k])] = rhs[k];
      }
    } else if (s.kind == Stmt::kCall) {
      const std::vector<long> off = offsets(arr_of(p, s.actual), s.actual);
      std::vector<double>& x = v[static_cast<std::size_t>(s.actual.arr)];
      std::vector<double> old(off.size());
      for (std::size_t k = 0; k < off.size(); ++k) {
        old[k] = x[static_cast<std::size_t>(off[k])];
      }
      for (std::size_t k = 1; k + 1 < off.size(); ++k) {
        x[static_cast<std::size_t>(off[k])] = (old[k - 1] + old[k + 1]) / 2;
      }
    }
  }
  return v;
}

// --- sessions ---------------------------------------------------------------

/// What one session left behind, read after its last statement.
struct Snapshot {
  std::vector<StepStats> steps;
  Dense values;
};

/// Per-layer sums over the traced ops.
struct Totals {
  double l1_hits = 0, l1_misses = 0;
  double ownership_queries = 0, bytes_moved = 0, assign_elements = 0;
  double modeled_us = 0, messages = 0, bytes = 0, hidden_us = 0;
  double retries = 0, retry_us = 0;
};

Dense read_values(const Program& p, const ProgramState& state,
                  const DataEnv& env) {
  Dense out;
  for (const Arr& a : p.arrays) {
    const ArrayId id = env.find(a.name).id();
    std::vector<double> vals;
    vals.reserve(static_cast<std::size_t>(a.size()));
    for (long i = 1; i <= a.ext[0]; ++i) {
      if (a.ext.size() == 1) {
        vals.push_back(state.value(id, IndexTuple{i}));
        continue;
      }
      for (long j = 1; j <= a.ext[1]; ++j) {
        vals.push_back(state.value(id, IndexTuple{i, j}));
      }
    }
    out.push_back(std::move(vals));
  }
  return out;
}

const char* span_name(Stmt::Kind k) {
  switch (k) {
    case Stmt::kDecl:
      return "run.decl";
    case Stmt::kMap:
      return "run.map";
    case Stmt::kRemap:
      return "run.remap";
    case Stmt::kAssign:
      return "run.assign";
    case Stmt::kCall:
      return "run.call";
  }
  return "run";
}

/// One session: its own machine, processors, state and interpreter,
/// attached to `service`. Adds its wall time (set-up, statements, teardown)
/// to `op_ns`; the snapshot is read outside that time.
Snapshot run_session(const Program& p, PlanService& service, Tracer& tracer,
                     std::int64_t& op_ns, Totals& totals) {
  std::int64_t t0 = now_ns();
  const int setup_span = tracer.open("session.setup");
  auto machine = std::make_unique<Machine>(16);
  auto space = std::make_unique<ProcessorSpace>(16);
  auto state = std::make_unique<ProgramState>(*machine);
  state->set_plan_service(&service);
  auto interp = std::make_unique<dir::Interpreter>(*space);
  interp->set_state(state.get());
  tracer.close(setup_span);
  std::size_t assigns_seen = 0;
  for (const Stmt& s : p.stmts) {
    const SpanScope span(tracer, span_name(s.kind));
    interp->run(s.text);
    const std::vector<dir::AssignExec>& done = interp->assigns();
    for (; assigns_seen < done.size(); ++assigns_seen) {
      const AssignResult& r = done[assigns_seen].result;
      tracer.add_pricing(span.id(), r.pricing_ns);
      if (!tracer.on()) continue;
      const double elems = static_cast<double>(r.elements);
      const double leaves = static_cast<double>(r.posted_leaves.size());
      totals.ownership_queries += static_cast<double>(r.ownership_queries);
      totals.bytes_moved += (leaves + 1) * sizeof(double) * elems;
      if (s.kind == Stmt::kAssign) totals.assign_elements += elems;
    }
  }
  op_ns += now_ns() - t0;

  Snapshot snap;
  {
    const SpanScope check(tracer, kCheckSpan);
    snap.steps = interp->steps();
    snap.values = read_values(p, *state, interp->env());
  }
  if (tracer.on()) {
    totals.l1_hits += static_cast<double>(state->plans().hits());
    totals.l1_misses += static_cast<double>(state->plans().misses());
    const CommEngine& comm = state->comm();
    totals.modeled_us += comm.total_time_us();
    totals.messages += static_cast<double>(comm.total_messages());
    totals.bytes += static_cast<double>(comm.total_bytes());
    totals.hidden_us += comm.total_hidden_comm_us();
    for (const StepStats& st : snap.steps) {
      totals.retries += static_cast<double>(st.retries);
      totals.retry_us += st.retry_us;
    }
  }

  t0 = now_ns();
  const int down = tracer.open("session.teardown");
  interp.reset();
  state.reset();
  space.reset();
  machine.reset();
  tracer.close(down);
  op_ns += now_ns() - t0;
  return snap;
}

bool same_step(const StepStats& a, const StepStats& b) {
  return a.label == b.label && a.messages == b.messages &&
         a.bytes == b.bytes && a.element_transfers == b.element_transfers &&
         a.flops == b.flops && a.retries == b.retries &&
         same_bits(a.time_us, b.time_us) &&
         same_bits(a.exposed_comm_us, b.exposed_comm_us) &&
         same_bits(a.hidden_comm_us, b.hidden_comm_us) &&
         same_bits(a.retry_us, b.retry_us);
}

/// Empty when every array matches the dense reference.
std::string check_dense(const Program& p, const Dense& got,
                        const Dense& ref) {
  if (got.size() != ref.size()) return "array count differs";
  for (std::size_t a = 0; a < ref.size(); ++a) {
    const std::string& name = p.arrays[a].name;
    if (got[a].size() != ref[a].size()) return name + ": size differs";
    for (std::size_t k = 0; k < ref[a].size(); ++k) {
      if (close_to(got[a][k], ref[a][k])) continue;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s element %zu is %.17g, dense reference %.17g",
                    name.c_str(), k, got[a][k], ref[a][k]);
      return buf;
    }
  }
  return "";
}

/// Empty when `later` repeats `first` byte for byte: every StepStats field
/// and every value.
std::string check_identical(const Snapshot& first, const Snapshot& later) {
  if (first.steps.size() != later.steps.size()) {
    return "step count differs between sessions";
  }
  for (std::size_t k = 0; k < first.steps.size(); ++k) {
    if (!same_step(first.steps[k], later.steps[k])) {
      return "step " + std::to_string(k) + " (" + first.steps[k].label +
             ") differs between sessions";
    }
  }
  for (std::size_t a = 0; a < first.values.size(); ++a) {
    const std::vector<double>& x = first.values[a];
    const std::vector<double>& y = later.values[a];
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return "values of array " + std::to_string(a) +
             " differ between sessions";
    }
  }
  return "";
}

/// One op: a fresh service, then kSessions sessions. Sets `op_ns` to the
/// op's wall time and `l2` to the service's counters; returns the problem
/// the checks found (empty when none).
std::string run_round(const Program& p, const Dense& ref, Tracer& tracer,
                      std::int64_t& op_ns, Totals& totals,
                      PlanServiceStats& l2) {
  op_ns = 0;
  std::vector<Snapshot> snaps;
  std::int64_t t0 = now_ns();
  int id = tracer.open("PlanService()");
  auto service = std::make_unique<PlanService>();
  tracer.close(id);
  op_ns += now_ns() - t0;
  for (int s = 0; s < kSessions; ++s) {
    const SpanScope session(tracer, "session");
    snaps.push_back(run_session(p, *service, tracer, op_ns, totals));
  }
  l2 = service->stats();
  t0 = now_ns();
  id = tracer.open("~PlanService()");
  service.reset();
  tracer.close(id);
  op_ns += now_ns() - t0;

  const SpanScope check(tracer, kCheckSpan);
  std::string problem = check_dense(p, snaps[0].values, ref);
  for (std::size_t s = 1; problem.empty() && s < snaps.size(); ++s) {
    problem = check_identical(snaps[0], snaps[s]);
  }
  return problem;
}

}  // namespace

RunResult run_churn(const Options& opt) {
  RunResult out;
  Program prog;
  Dense ref;
  Tracer tracer;
  Totals totals;
  PlanServiceStats l2;
  // Set-up: generate the script, evaluate it densely, and run one checked
  // round untimed (it faults in code and allocator pages). Timed in fresh
  // processes; this process's script and reference are kept.
  const std::vector<double> setup_s = cold_setups(kSetups, [&] {
    const std::int64_t t0 = now_ns();
    prog = Generator(opt.seed).make();
    ref = dense_reference(prog);
    std::int64_t round_ns = 0;
    const std::string problem =
        run_round(prog, ref, tracer, round_ns, totals, l2);
    if (!problem.empty()) {
      throw std::runtime_error("churn set-up round: " + problem);
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  });
  long assigns = 0;
  for (const Stmt& s : prog.stmts) assigns += s.kind == Stmt::kAssign;
  std::printf("churn: %zu statements (%ld assignments), %zu arrays, "
              "%d sessions per op\n",
              prog.stmts.size(), assigns, prog.arrays.size(), kSessions);

  Phase untraced(kPlaceOps);
  Phase traced(kPlaceOps);
  double l2_hits = 0, l2_misses = 0, l2_inserts = 0;
  auto op = [&] {
    OpResult o;
    std::int64_t op_ns = 0;
    o.problem = run_round(prog, ref, tracer, op_ns, totals, l2);
    o.ns = static_cast<double>(op_ns);
    o.units = static_cast<double>(prog.stmts.size() * kSessions);
    if (o.problem.empty() && tracer.on()) {
      l2_hits += static_cast<double>(l2.hits());
      l2_misses += static_cast<double>(l2.misses());
      l2_inserts += static_cast<double>(l2.inserts());
    }
    return o;
  };

  if (opt.trace) {
    closed_loop(untraced, opt.seconds / 2, tracer, "churn", op);
    totals = Totals{};
    tracer.set_on(true);
    closed_loop(traced, opt.seconds / 2, tracer, "churn", op);
    tracer.set_on(false);
  } else {
    closed_loop(untraced, opt.seconds, tracer, "churn", op);
    add_end_to_end(out, setup_s, untraced, "statements executed");
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
  auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const double assign_ns = tracer.total_ns("run.assign");
  const double assign_pricing_ns = tracer.total_pricing_ns("run.assign");
  const double lookups = totals.l1_hits + totals.l1_misses;
  out.add("directives.exec_decl_us", per_op_us("run.decl"), "us");
  out.add("directives.exec_map_us", per_op_us("run.map"), "us");
  out.add("directives.exec_remap_us", per_op_us("run.remap"), "us");
  out.add("directives.exec_assign_us", per_op_us("run.assign"), "us");
  out.add("directives.exec_call_us", per_op_us("run.call"), "us");
  out.add("exec.pricing_us", tracer.total_pricing_ns() / ops / 1e3, "us");
  out.add("exec.assign_nonpricing_us",
          (assign_ns - assign_pricing_ns) / ops / 1e3, "us");
  out.add("exec.ns_per_elem", ratio(assign_ns, totals.assign_elements),
          "ns/elem");
  out.add("exec.bytes_moved_computed", totals.bytes_moved / ops, "B");
  out.add("core.ownership_queries", totals.ownership_queries / ops, "count");
  out.add("exec.l1_hits", totals.l1_hits / ops, "count");
  out.add("exec.l1_misses", totals.l1_misses / ops, "count");
  out.add("exec.l1_hit_ratio", ratio(totals.l1_hits, lookups), "ratio");
  out.add("service.l2_hits", l2_hits / ops, "count");
  out.add("service.l2_misses", l2_misses / ops, "count");
  out.add("service.l2_inserts", l2_inserts / ops, "count");
  out.add("service.l2_hit_ratio", ratio(l2_hits, l2_hits + l2_misses),
          "ratio");
  out.add("plan.replay_share", ratio(totals.l1_hits + l2_hits, lookups),
          "ratio");
  out.add("machine.modeled_time_us", totals.modeled_us / ops, "us");
  out.add("machine.messages", totals.messages / ops, "count");
  out.add("machine.bytes", totals.bytes / ops, "B");
  out.add("machine.hidden_comm_us", totals.hidden_us / ops, "us");
  out.add("fault.retries", totals.retries / ops, "count");
  out.add("fault.retry_us", totals.retry_us / ops, "us");
  add_trace_metrics(out, tracer, untraced, traced);
  tracer.print_self_time_table("churn");
  std::printf("churn: %.0f plan lookups per op, %.1f%% replay a plan "
              "(L1 hits %.0f, L2 hits %.0f)\n",
              lookups / ops, 100.0 * ratio(totals.l1_hits + l2_hits, lookups),
              totals.l1_hits / ops, l2_hits / ops);
  if (!tracer.write(opt.spans_path)) {
    std::fprintf(stderr, "churn: cannot write spans to %s\n",
                 opt.spans_path.c_str());
  }
  return out;
}

int selftest_churn() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  churn: %-60s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  const Program p = Generator(11).make();
  const Program again = Generator(11).make();
  bool same_text = p.stmts.size() == again.stmts.size();
  for (std::size_t k = 0; same_text && k < p.stmts.size(); ++k) {
    same_text = p.stmts[k].text == again.stmts[k].text;
  }
  expect(same_text, "the same seed generates the same script");

  const Dense ref = dense_reference(p);
  Tracer tracer;
  Totals totals;
  std::int64_t op_ns = 0;
  PlanService service;
  const Snapshot s1 = run_session(p, service, tracer, op_ns, totals);
  const Snapshot s2 = run_session(p, service, tracer, op_ns, totals);
  expect(check_dense(p, s1.values, ref).empty(),
         "session 1 matches the dense reference");
  expect(check_identical(s1, s2).empty(),
         "session 2 (L2 replays) repeats session 1");
  expect(service.stats().hits() > 0, "session 2 hit the shared service");

  Dense bad = ref;
  bad[0][bad[0].size() / 2] += 1.0;
  expect(!check_dense(p, s1.values, bad).empty(),
         "trips on a wrong dense reference");
  Snapshot drifted = s1;
  drifted.steps[drifted.steps.size() / 2].bytes += 1;
  expect(!check_identical(drifted, s2).empty(),
         "trips on a step whose bytes differ");
  drifted = s1;
  const auto retried =
      std::find_if(drifted.steps.begin(), drifted.steps.end(),
                   [](const StepStats& st) { return st.retries > 0; });
  expect(retried != drifted.steps.end(), "the script retries a message");
  if (retried != drifted.steps.end()) {
    retried->retry_us = std::nextafter(retried->retry_us, 1e300);
  }
  expect(!check_identical(drifted, s2).empty(),
         "trips on a step whose retry time differs");
  drifted = s1;
  double& v = drifted.values.back().front();
  v = std::nextafter(v, 1e300);
  expect(!check_identical(drifted, s2).empty(),
         "trips on a value one ulp off");
  return failures;
}

}  // namespace perfbench
