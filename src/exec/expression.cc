#include "exec/expression.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace morsel {

namespace {

bool IsNumeric(LogicalType t) { return t != LogicalType::kString; }

// Numeric promotion for binary nodes.
LogicalType Promote(LogicalType a, LogicalType b) {
  MORSEL_CHECK(IsNumeric(a) && IsNumeric(b));
  if (a == LogicalType::kDouble || b == LogicalType::kDouble) {
    return LogicalType::kDouble;
  }
  return LogicalType::kInt64;
}

// Selected-row iteration: runs `body(i)` for every selected physical
// position of `in`.
template <typename Fn>
inline void ForSelected(const Chunk& in, const Fn& body) {
  const int cnt = in.ActiveRows();
  const int32_t* sel = in.sel;
  if (sel == nullptr) {
    for (int i = 0; i < cnt; ++i) body(i);
  } else {
    for (int k = 0; k < cnt; ++k) body(sel[k]);
  }
}

// --- typed primitives (DESIGN "Typed primitives") ------------------------
// An operand of a binary kernel, resolved once per chunk: a column read
// or a broadcast literal. Kernels are instantiated per accessor pair, so
// operand types and "which side is constant" are part of the kernel's
// type rather than a per-row test.
template <typename T>
auto ColAt(const T* p) {
  return [p](int i) { return p[i]; };
}
template <typename T>
auto LitAt(T v) {
  return [v](int) { return v; };
}

// Calls fn(accessor) for numeric `e` over `in` with compute type C
// (int64_t or double). Literals never become vectors: they arrive
// already converted to C; columns keep their storage type and convert
// in the kernel (the promotion rules of Promote()).
template <typename C, typename Fn>
void WithNumeric(const Expr& e, const Chunk& in, ExecContext& ctx,
                 const Fn& fn) {
  int64_t iv;
  double dv;
  bool is_int;
  if (e.AsConstNumeric(&iv, &dv, &is_int)) {
    if constexpr (std::is_same_v<C, double>) {
      fn(LitAt(dv));
    } else {
      fn(LitAt(iv));
    }
    return;
  }
  Vector v;
  e.Eval(in, ctx, &v);
  if (v.type == LogicalType::kInt32) {
    fn(ColAt(v.i32()));
  } else if (v.type == LogicalType::kInt64) {
    fn(ColAt(v.i64()));
  } else if constexpr (std::is_same_v<C, double>) {
    fn(ColAt(v.f64()));
  } else {
    MORSEL_CHECK(false);  // a double operand makes the node double
  }
}

// The two output shapes of a predicate kernel: 0/1 flags at the
// selected physical positions (Eval), or the surviving row ids (Select;
// in-place safe, see Expr::Select).
template <typename Pred>
void EvalFlags(const Chunk& in, ExecContext& ctx, Vector* out,
               const Pred& pred) {
  int32_t* d = ctx.arena.AllocArray<int32_t>(in.n);
  ForSelected(in, [&](int i) { d[i] = pred(i); });
  out->type = LogicalType::kInt32;
  out->data = d;
}
template <typename Pred>
int SelectWhere(const Chunk& in, int32_t* out_sel, const Pred& pred) {
  int m = 0;
  ForSelected(in, [&](int i) {
    out_sel[m] = i;
    m += pred(i) ? 1 : 0;
  });
  return m;
}

// Base of the predicate nodes with a typed kernel: Derived::WithPred
// resolves operands once and hands fn a row predicate; Eval and Select
// are the same kernel in its two output shapes.
template <typename Derived>
class PredicateExpr : public Expr {
 public:
  PredicateExpr() : Expr(LogicalType::kInt32) {}

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    self().WithPred(in, ctx,
                    [&](const auto& pred) { EvalFlags(in, ctx, out, pred); });
  }
  int Select(const Chunk& in, ExecContext& ctx,
             int32_t* out_sel) const override {
    int m = 0;
    self().WithPred(in, ctx, [&](const auto& pred) {
      m = SelectWhere(in, out_sel, pred);
    });
    return m;
  }

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

// AppendFingerprint encoding helpers: fixed-width raw bytes (host
// order — fingerprints are process-local cache keys, never persisted
// or sent on the wire).
template <typename T>
inline void FpVal(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
inline void FpStr(std::string* out, std::string_view s) {
  FpVal(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

class ColRefExpr final : public Expr {
 public:
  ColRefExpr(int index, LogicalType type) : Expr(type), index_(index) {}

  void Eval(const Chunk& in, ExecContext&, Vector* out) const override {
    MORSEL_DCHECK(index_ < in.num_cols());
    MORSEL_DCHECK(in.cols[index_].type == type());
    *out = in.cols[index_];  // zero-copy forward
  }

  int index() const { return index_; }
  int AsColumnIndex() const override { return index_; }
  ExprPtr Clone() const override {
    return std::make_unique<ColRefExpr>(index_, type());
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{1});
    FpVal(out, static_cast<uint8_t>(type()));
    FpVal(out, static_cast<int32_t>(index_));
  }

 private:
  int index_;
};

template <typename T>
class ConstExpr final : public Expr {
 public:
  ConstExpr(LogicalType type, T v) : Expr(type), v_(v) {}

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    // Fills all physical positions: cheaper than walking a selection
    // and keeps the vector valid under any sel.
    T* data = ctx.arena.AllocArray<T>(in.n);
    std::fill(data, data + in.n, v_);
    out->type = type();
    out->data = data;
  }

  bool AsConstNumeric(int64_t* iv, double* dv,
                      bool* is_int) const override {
    if constexpr (std::is_same_v<T, double>) {
      *iv = 0;
      *dv = v_;
      *is_int = false;
    } else {
      *iv = static_cast<int64_t>(v_);
      *dv = static_cast<double>(v_);
      *is_int = true;
    }
    return true;
  }

  ExprPtr Clone() const override {
    return std::make_unique<ConstExpr<T>>(type(), v_);
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{2});
    FpVal(out, static_cast<uint8_t>(type()));
    FpVal(out, v_);
  }

 private:
  T v_;
};

class ConstStrExpr final : public Expr {
 public:
  explicit ConstStrExpr(std::string v)
      : Expr(LogicalType::kString), v_(std::move(v)) {}

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    // Copy the literal into the arena: output vectors must never alias
    // expression-owned storage (the convention is arena lifetime — a
    // view into this node would dangle if the consumer outlives the
    // expression tree; TSan caught exactly that).
    char* bytes = ctx.arena.AllocArray<char>(v_.size());
    std::memcpy(bytes, v_.data(), v_.size());
    auto* data = ctx.arena.AllocArray<std::string_view>(in.n);
    std::fill(data, data + in.n, std::string_view(bytes, v_.size()));
    out->type = type();
    out->data = data;
  }

  ExprPtr Clone() const override {
    return std::make_unique<ConstStrExpr>(v_);
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{3});
    FpStr(out, v_);
  }

  std::string_view value() const { return v_; }

 private:
  std::string v_;
};

// String counterpart of WithNumeric. A literal's view points into the
// node; kernels only read it while producing flags, never forward it.
template <typename Fn>
void WithString(const Expr& e, const Chunk& in, ExecContext& ctx,
                const Fn& fn) {
  if (const auto* lit = dynamic_cast<const ConstStrExpr*>(&e)) {
    fn(LitAt(lit->value()));
    return;
  }
  Vector v;
  e.Eval(in, ctx, &v);
  fn(ColAt(v.str()));
}

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Promote(lhs->type(), rhs->type())),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    out->type = type();
    if (type() == LogicalType::kDouble) {
      out->data = Run<double>(in, ctx);
    } else {
      out->data = Run<int64_t>(in, ctx);
    }
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(lhs_);
    fn(rhs_);
  }

  ExprPtr Clone() const override {
    return std::make_unique<ArithExpr>(op_, lhs_->Clone(), rhs_->Clone());
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{4});
    FpVal(out, static_cast<uint8_t>(op_));
    lhs_->AppendFingerprint(out);
    rhs_->AppendFingerprint(out);
  }

 private:
  // One kernel per (op, left accessor, right accessor); integer division
  // by zero yields 0.
  template <typename C>
  C* Run(const Chunk& in, ExecContext& ctx) const {
    C* d = ctx.arena.AllocArray<C>(in.n);
    WithNumeric<C>(*lhs_, in, ctx, [&](const auto& l) {
      WithNumeric<C>(*rhs_, in, ctx, [&](const auto& r) {
        auto run = [&](const auto& op) {
          ForSelected(in, [&](int i) {
            d[i] = op(static_cast<C>(l(i)), static_cast<C>(r(i)));
          });
        };
        switch (op_) {
          case ArithOp::kAdd:
            run([](C a, C b) { return a + b; });
            break;
          case ArithOp::kSub:
            run([](C a, C b) { return a - b; });
            break;
          case ArithOp::kMul:
            run([](C a, C b) { return a * b; });
            break;
          case ArithOp::kDiv:
            if constexpr (std::is_same_v<C, double>) {
              run([](C a, C b) { return a / b; });
            } else {
              run([](C a, C b) { return b == 0 ? C{0} : a / b; });
            }
            break;
        }
      });
    });
    return d;
  }

  ArithOp op_;
  ExprPtr lhs_, rhs_;
};

class CmpExpr final : public PredicateExpr<CmpExpr> {
 public:
  CmpExpr(CmpOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {
    bool ls = lhs_->type() == LogicalType::kString;
    bool rs = rhs_->type() == LogicalType::kString;
    MORSEL_CHECK_MSG(ls == rs, "cannot compare string with numeric");
    string_ = ls;
  }

  // Kernel selection: (op, compute type, left accessor, right accessor).
  // Strings compare three-way and test the sign like a numeric kernel.
  template <typename Fn>
  void WithPred(const Chunk& in, ExecContext& ctx, const Fn& fn) const {
    if (string_) {
      WithString(*lhs_, in, ctx, [&](const auto& l) {
        WithString(*rhs_, in, ctx, [&](const auto& r) {
          WithOp([&](const auto& op) {
            fn([&](int i) { return op(l(i).compare(r(i)), 0); });
          });
        });
      });
    } else if (lhs_->type() == LogicalType::kDouble ||
               rhs_->type() == LogicalType::kDouble) {
      Numeric<double>(in, ctx, fn);
    } else {
      Numeric<int64_t>(in, ctx, fn);
    }
  }

  bool ExtractSarg(Sarg* out) const override {
    if (string_ || op_ == CmpOp::kNe) return false;
    int64_t iv;
    double dv;
    bool ii;
    const int lc = lhs_->AsColumnIndex();
    const int rc = rhs_->AsColumnIndex();
    if (lc >= 0 && rhs_->AsConstNumeric(&iv, &dv, &ii)) {
      out->op = op_;
      out->col = lc;
    } else if (rc >= 0 && lhs_->AsConstNumeric(&iv, &dv, &ii)) {
      out->op = Flip(op_);
      out->col = rc;
    } else {
      return false;
    }
    out->lit_is_int = ii;
    out->i64 = iv;
    out->f64 = dv;
    return true;
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(lhs_);
    fn(rhs_);
  }

  ExprPtr Clone() const override {
    return std::make_unique<CmpExpr>(op_, lhs_->Clone(), rhs_->Clone());
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{5});
    FpVal(out, static_cast<uint8_t>(op_));
    lhs_->AppendFingerprint(out);
    rhs_->AppendFingerprint(out);
  }

 private:
  static CmpOp Flip(CmpOp op) {
    switch (op) {
      case CmpOp::kLt:
        return CmpOp::kGt;
      case CmpOp::kLe:
        return CmpOp::kGe;
      case CmpOp::kGt:
        return CmpOp::kLt;
      case CmpOp::kGe:
        return CmpOp::kLe;
      default:
        return op;  // kEq / kNe are symmetric
    }
  }

  template <typename C, typename Fn>
  void Numeric(const Chunk& in, ExecContext& ctx, const Fn& fn) const {
    WithNumeric<C>(*lhs_, in, ctx, [&](const auto& l) {
      WithNumeric<C>(*rhs_, in, ctx, [&](const auto& r) {
        WithOp([&](const auto& op) {
          fn([&](int i) {
            return op(static_cast<C>(l(i)), static_cast<C>(r(i)));
          });
        });
      });
    });
  }

  // The comparisons in the order the row comparators use (RunSet::Less,
  // the merge join): NaN is a tie, neither below nor above any value, so
  // `=` is !(a<b) && !(a>b). Branch-free: both sides always evaluate.
  template <typename Fn>
  void WithOp(const Fn& fn) const {
    switch (op_) {
      case CmpOp::kEq:
        return fn([](auto a, auto b) { return !(a < b) & !(a > b); });
      case CmpOp::kNe:
        return fn([](auto a, auto b) { return (a < b) | (a > b); });
      case CmpOp::kLt:
        return fn([](auto a, auto b) { return a < b; });
      case CmpOp::kLe:
        return fn([](auto a, auto b) { return !(a > b); });
      case CmpOp::kGt:
        return fn([](auto a, auto b) { return a > b; });
      case CmpOp::kGe:
        return fn([](auto a, auto b) { return !(a < b); });
    }
  }

  CmpOp op_;
  ExprPtr lhs_, rhs_;
  bool string_;
};

class LogicExpr final : public Expr {
 public:
  LogicExpr(bool is_and, std::vector<ExprPtr> operands)
      : Expr(LogicalType::kInt32),
        is_and_(is_and),
        operands_(std::move(operands)) {
    MORSEL_CHECK(!operands_.empty());
    for (const auto& e : operands_) {
      MORSEL_CHECK(e->type() == LogicalType::kInt32);
    }
  }

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    // Short-circuit evaluation through nested selections: operand k+1
    // sees only the rows operand k left undecided (still true for AND,
    // still false for OR).
    int32_t* d = ctx.arena.AllocArray<int32_t>(in.n);
    Vector v;
    operands_[0]->Eval(in, ctx, &v);
    const int32_t* first = v.i32();
    const int cnt = in.ActiveRows();
    int32_t* live = ctx.arena.AllocArray<int32_t>(cnt);
    int nlive = 0;
    ForSelected(in, [&](int i) {
      const bool t = first[i] != 0;
      d[i] = t;
      if (t == is_and_) live[nlive++] = i;
    });
    for (size_t k = 1; k < operands_.size() && nlive > 0; ++k) {
      Chunk view = in;
      view.sel = live;
      view.sel_n = nlive;
      operands_[k]->Eval(view, ctx, &v);
      const int32_t* o = v.i32();
      int m = 0;
      for (int j = 0; j < nlive; ++j) {
        const int32_t i = live[j];
        const bool t = o[i] != 0;
        if (t == is_and_) {
          live[m++] = i;  // still undecided
        } else {
          d[i] = !is_and_;  // AND: a false settles 0; OR: a true settles 1
        }
      }
      nlive = m;
    }
    out->type = LogicalType::kInt32;
    out->data = d;
  }

  // AND narrows the selection operand by operand, in place; OR keeps
  // the flag form (Eval plus compaction).
  int Select(const Chunk& in, ExecContext& ctx,
             int32_t* out_sel) const override {
    if (!is_and_) return Expr::Select(in, ctx, out_sel);
    int m = operands_[0]->Select(in, ctx, out_sel);
    for (size_t k = 1; k < operands_.size() && m > 0; ++k) {
      Chunk view = in;
      view.sel = out_sel;
      view.sel_n = m;
      m = operands_[k]->Select(view, ctx, out_sel);
    }
    return m;
  }

  void CollectConjuncts(std::vector<ExprPtr>* out) const override {
    if (!is_and_) {
      Expr::CollectConjuncts(out);
      return;
    }
    for (const ExprPtr& e : operands_) e->CollectConjuncts(out);
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    for (ExprPtr& e : operands_) fn(e);
  }

  ExprPtr Clone() const override {
    std::vector<ExprPtr> ops;
    ops.reserve(operands_.size());
    for (const ExprPtr& e : operands_) ops.push_back(e->Clone());
    return std::make_unique<LogicExpr>(is_and_, std::move(ops));
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{6});
    FpVal(out, static_cast<uint8_t>(is_and_));
    FpVal(out, static_cast<uint32_t>(operands_.size()));
    for (const ExprPtr& e : operands_) e->AppendFingerprint(out);
  }

 private:
  bool is_and_;
  std::vector<ExprPtr> operands_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr operand)
      : Expr(LogicalType::kInt32), operand_(std::move(operand)) {
    MORSEL_CHECK(operand_->type() == LogicalType::kInt32);
  }

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    Vector v;
    operand_->Eval(in, ctx, &v);
    const int32_t* o = v.i32();
    int32_t* d = ctx.arena.AllocArray<int32_t>(in.n);
    ForSelected(in, [&](int i) { d[i] = o[i] == 0; });
    out->type = LogicalType::kInt32;
    out->data = d;
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(operand_);
  }

  ExprPtr Clone() const override {
    return std::make_unique<NotExpr>(operand_->Clone());
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{7});
    operand_->AppendFingerprint(out);
  }

 private:
  ExprPtr operand_;
};

class LikeExpr final : public PredicateExpr<LikeExpr> {
 public:
  LikeExpr(ExprPtr input, std::string pattern, bool negate)
      : input_(std::move(input)),
        pattern_(std::move(pattern)),
        negate_(negate) {
    MORSEL_CHECK(input_->type() == LogicalType::kString);
    // Compiled form of a pattern with '%' but no '_': anchored prefix,
    // '%'-separated segments matched leftmost in order, anchored suffix.
    std::vector<std::string> parts = Split(pattern_, '%');
    compiled_ = parts.size() > 1 && pattern_.find('_') == std::string::npos;
    if (!compiled_) return;
    prefix_ = parts.front();
    suffix_ = parts.back();
    for (size_t k = 1; k + 1 < parts.size(); ++k) {
      if (!parts[k].empty()) segments_.push_back(std::move(parts[k]));
    }
  }

  template <typename Fn>
  void WithPred(const Chunk& in, ExecContext& ctx, const Fn& fn) const {
    Vector v;
    input_->Eval(in, ctx, &v);
    const std::string_view* s = v.str();
    if (compiled_) {
      fn([&](int i) { return Match(s[i]) != negate_; });
    } else {
      fn([&](int i) { return LikeMatch(s[i], pattern_) != negate_; });
    }
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(input_);
  }

  ExprPtr Clone() const override {
    return std::make_unique<LikeExpr>(input_->Clone(), pattern_, negate_);
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{8});
    FpVal(out, static_cast<uint8_t>(negate_));
    FpStr(out, pattern_);
    input_->AppendFingerprint(out);
  }

 private:
  bool Match(std::string_view s) const {
    if (s.size() < prefix_.size() + suffix_.size() ||
        !StartsWith(s, prefix_) || !EndsWith(s, suffix_)) {
      return false;
    }
    const std::string_view body = s.substr(0, s.size() - suffix_.size());
    size_t pos = prefix_.size();
    for (const std::string& seg : segments_) {
      const size_t at = body.find(seg, pos);
      if (at == std::string_view::npos) return false;
      pos = at + seg.size();
    }
    return true;
  }

  ExprPtr input_;
  std::string pattern_;
  bool negate_;
  bool compiled_ = false;
  std::string prefix_, suffix_;
  std::vector<std::string> segments_;
};

// Heterogeneous lookup so IN probes never materialize a std::string per
// row.
struct TransparentStrHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
using StrLookup =
    std::unordered_set<std::string, TransparentStrHash, std::equal_to<>>;

class InStrExpr final : public PredicateExpr<InStrExpr> {
 public:
  InStrExpr(ExprPtr input, std::shared_ptr<const StrLookup> lookup)
      : input_(std::move(input)), lookup_(std::move(lookup)) {
    MORSEL_CHECK(input_->type() == LogicalType::kString);
  }

  template <typename Fn>
  void WithPred(const Chunk& in, ExecContext& ctx, const Fn& fn) const {
    Vector v;
    input_->Eval(in, ctx, &v);
    const std::string_view* s = v.str();
    fn([&](int i) { return lookup_->find(s[i]) != lookup_->end(); });
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(input_);
  }

  ExprPtr Clone() const override {
    // The lookup set is immutable and shared: clones (one per lowering,
    // i.e. per execution of a prepared plan) reuse the set built when
    // the plan was constructed.
    return std::make_unique<InStrExpr>(input_->Clone(), lookup_);
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{9});
    // The lookup set is unordered: sum the element hashes so iteration
    // order cannot leak into the fingerprint.
    uint64_t h = 0;
    for (const std::string& v : *lookup_) h += HashString(v);
    FpVal(out, static_cast<uint32_t>(lookup_->size()));
    FpVal(out, h);
    input_->AppendFingerprint(out);
  }

 private:
  ExprPtr input_;
  std::shared_ptr<const StrLookup> lookup_;
};

class InI64Expr final : public PredicateExpr<InI64Expr> {
 public:
  InI64Expr(ExprPtr input,
            std::shared_ptr<const std::unordered_set<int64_t>> lookup)
      : input_(std::move(input)), lookup_(std::move(lookup)) {
    MORSEL_CHECK(input_->type() == LogicalType::kInt32 ||
                 input_->type() == LogicalType::kInt64);
  }

  template <typename Fn>
  void WithPred(const Chunk& in, ExecContext& ctx, const Fn& fn) const {
    WithNumeric<int64_t>(*input_, in, ctx, [&](const auto& x) {
      fn([&](int i) { return lookup_->count(x(i)) > 0; });
    });
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(input_);
  }

  ExprPtr Clone() const override {
    return std::make_unique<InI64Expr>(input_->Clone(), lookup_);
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{10});
    uint64_t h = 0;
    for (int64_t v : *lookup_) h += Hash64(static_cast<uint64_t>(v));
    FpVal(out, static_cast<uint32_t>(lookup_->size()));
    FpVal(out, h);
    input_->AppendFingerprint(out);
  }

 private:
  ExprPtr input_;
  std::shared_ptr<const std::unordered_set<int64_t>> lookup_;
};

class SubstrExpr final : public Expr {
 public:
  SubstrExpr(ExprPtr input, int start, int len)
      : Expr(LogicalType::kString),
        input_(std::move(input)),
        start_(start),
        len_(len) {
    MORSEL_CHECK(input_->type() == LogicalType::kString);
    MORSEL_CHECK(start >= 1 && len >= 0);
  }

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    Vector v;
    input_->Eval(in, ctx, &v);
    const std::string_view* s = v.str();
    auto* d = ctx.arena.AllocArray<std::string_view>(in.n);
    ForSelected(in, [&](int i) {
      size_t b = static_cast<size_t>(start_ - 1);
      if (b >= s[i].size()) {
        d[i] = std::string_view();
      } else {
        d[i] = s[i].substr(b, static_cast<size_t>(len_));
      }
    });
    out->type = LogicalType::kString;
    out->data = d;
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(input_);
  }

  ExprPtr Clone() const override {
    return std::make_unique<SubstrExpr>(input_->Clone(), start_, len_);
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{11});
    FpVal(out, static_cast<int32_t>(start_));
    FpVal(out, static_cast<int32_t>(len_));
    input_->AppendFingerprint(out);
  }

 private:
  ExprPtr input_;
  int start_, len_;
};

class CaseWhenExpr final : public Expr {
 public:
  CaseWhenExpr(ExprPtr cond, ExprPtr then_v, ExprPtr else_v)
      : Expr(then_v->type()),
        cond_(std::move(cond)),
        then_(std::move(then_v)),
        else_(std::move(else_v)) {
    MORSEL_CHECK(cond_->type() == LogicalType::kInt32);
    MORSEL_CHECK(then_->type() == else_->type());
  }

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    Vector c, t, e;
    cond_->Eval(in, ctx, &c);
    then_->Eval(in, ctx, &t);
    else_->Eval(in, ctx, &e);
    const int32_t* cond = c.i32();
    out->type = type();
    switch (type()) {
      case LogicalType::kInt32: {
        int32_t* d = ctx.arena.AllocArray<int32_t>(in.n);
        ForSelected(in,
                    [&](int i) { d[i] = cond[i] ? t.i32()[i] : e.i32()[i]; });
        out->data = d;
        break;
      }
      case LogicalType::kInt64: {
        int64_t* d = ctx.arena.AllocArray<int64_t>(in.n);
        ForSelected(in,
                    [&](int i) { d[i] = cond[i] ? t.i64()[i] : e.i64()[i]; });
        out->data = d;
        break;
      }
      case LogicalType::kDouble: {
        double* d = ctx.arena.AllocArray<double>(in.n);
        ForSelected(in,
                    [&](int i) { d[i] = cond[i] ? t.f64()[i] : e.f64()[i]; });
        out->data = d;
        break;
      }
      case LogicalType::kString: {
        auto* d = ctx.arena.AllocArray<std::string_view>(in.n);
        ForSelected(in,
                    [&](int i) { d[i] = cond[i] ? t.str()[i] : e.str()[i]; });
        out->data = d;
        break;
      }
    }
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(cond_);
    fn(then_);
    fn(else_);
  }

  ExprPtr Clone() const override {
    return std::make_unique<CaseWhenExpr>(cond_->Clone(), then_->Clone(),
                                          else_->Clone());
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{12});
    cond_->AppendFingerprint(out);
    then_->AppendFingerprint(out);
    else_->AppendFingerprint(out);
  }

 private:
  ExprPtr cond_, then_, else_;
};

class ExtractYearExpr final : public Expr {
 public:
  explicit ExtractYearExpr(ExprPtr input)
      : Expr(LogicalType::kInt32), input_(std::move(input)) {
    MORSEL_CHECK(input_->type() == LogicalType::kInt32);
  }

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    Vector v;
    input_->Eval(in, ctx, &v);
    const int32_t* s = v.i32();
    int32_t* d = ctx.arena.AllocArray<int32_t>(in.n);
    ForSelected(in, [&](int i) { d[i] = DateYear(s[i]); });
    out->type = LogicalType::kInt32;
    out->data = d;
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(input_);
  }

  ExprPtr Clone() const override {
    return std::make_unique<ExtractYearExpr>(input_->Clone());
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{13});
    input_->AppendFingerprint(out);
  }

 private:
  ExprPtr input_;
};

class ToF64Expr final : public Expr {
 public:
  explicit ToF64Expr(ExprPtr input)
      : Expr(LogicalType::kDouble), input_(std::move(input)) {
    MORSEL_CHECK(IsNumeric(input_->type()));
  }

  void Eval(const Chunk& in, ExecContext& ctx, Vector* out) const override {
    Vector v;
    input_->Eval(in, ctx, &v);
    if (v.type == LogicalType::kDouble) {
      *out = v;
      return;
    }
    double* d = ctx.arena.AllocArray<double>(in.n);
    if (v.type == LogicalType::kInt32) {
      const int32_t* s = v.i32();
      ForSelected(in, [&](int i) { d[i] = s[i]; });
    } else {
      const int64_t* s = v.i64();
      ForSelected(in, [&](int i) { d[i] = static_cast<double>(s[i]); });
    }
    out->type = LogicalType::kDouble;
    out->data = d;
  }

  void ForEachChild(const std::function<void(ExprPtr&)>& fn) override {
    fn(input_);
  }

  ExprPtr Clone() const override {
    return std::make_unique<ToF64Expr>(input_->Clone());
  }

  void AppendFingerprint(std::string* out) const override {
    FpVal(out, uint8_t{14});
    input_->AppendFingerprint(out);
  }

 private:
  ExprPtr input_;
};

bool HasColumnRefs(Expr* e) {
  if (e->AsColumnIndex() >= 0) return true;
  bool found = false;
  e->ForEachChild([&](ExprPtr& c) {
    if (!found && HasColumnRefs(c.get())) found = true;
  });
  return found;
}

}  // namespace

int Expr::Select(const Chunk& in, ExecContext& ctx, int32_t* out_sel) const {
  MORSEL_DCHECK(type() == LogicalType::kInt32);
  Vector flags;
  Eval(in, ctx, &flags);
  const int32_t* f = flags.i32();
  return SelectWhere(in, out_sel, [f](int i) { return f[i] != 0; });
}

void Expr::CollectConjuncts(std::vector<ExprPtr>* out) const {
  out->push_back(Clone());
}

std::vector<ExprPtr> SplitConjuncts(const Expr& predicate) {
  std::vector<ExprPtr> out;
  predicate.CollectConjuncts(&out);
  return out;
}

ExprPtr FoldConstants(ExprPtr e) {
  if (!HasColumnRefs(e.get())) {
    // Column-free subtree: evaluate it once on a single-row dummy chunk
    // (expression evaluation only touches ctx.arena) and keep the
    // literal.
    ExecContext ctx;
    Chunk dummy;
    dummy.n = 1;
    Vector v;
    e->Eval(dummy, ctx, &v);
    switch (e->type()) {
      case LogicalType::kInt32:
        return ConstI32(v.i32()[0]);
      case LogicalType::kInt64:
        return ConstI64(v.i64()[0]);
      case LogicalType::kDouble:
        return ConstF64(v.f64()[0]);
      case LogicalType::kString:
        return ConstStr(std::string(v.str()[0]));
    }
  }
  e->ForEachChild([](ExprPtr& c) { c = FoldConstants(std::move(c)); });
  return e;
}

ExprPtr ColRef(int index, LogicalType type) {
  return std::make_unique<ColRefExpr>(index, type);
}
ExprPtr ConstI32(int32_t v) {
  return std::make_unique<ConstExpr<int32_t>>(LogicalType::kInt32, v);
}
ExprPtr ConstI64(int64_t v) {
  return std::make_unique<ConstExpr<int64_t>>(LogicalType::kInt64, v);
}
ExprPtr ConstF64(double v) {
  return std::make_unique<ConstExpr<double>>(LogicalType::kDouble, v);
}
ExprPtr ConstStr(std::string v) {
  return std::make_unique<ConstStrExpr>(std::move(v));
}
ExprPtr ConstDate(std::string_view ymd) {
  Date32 d = 0;
  MORSEL_CHECK_MSG(ParseDate(ymd, &d), "bad date literal");
  return ConstI32(d);
}
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<ArithExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<CmpExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr And(std::vector<ExprPtr> operands) {
  return std::make_unique<LogicExpr>(true, std::move(operands));
}
ExprPtr Or(std::vector<ExprPtr> operands) {
  return std::make_unique<LogicExpr>(false, std::move(operands));
}
ExprPtr Not(ExprPtr operand) {
  return std::make_unique<NotExpr>(std::move(operand));
}
ExprPtr Between(ExprPtr x, ExprPtr lo, ExprPtr hi) {
  // Between desugars to two comparisons and therefore needs x twice; only
  // column references (the practical case) are duplicable.
  auto* col = dynamic_cast<ColRefExpr*>(x.get());
  MORSEL_CHECK_MSG(col != nullptr, "Between requires a column reference");
  ExprPtr x2 = ColRef(col->index(), col->type());
  return And(Cmp(CmpOp::kGe, std::move(x), std::move(lo)),
             Cmp(CmpOp::kLe, std::move(x2), std::move(hi)));
}
ExprPtr Like(ExprPtr input, std::string pattern) {
  return std::make_unique<LikeExpr>(std::move(input), std::move(pattern),
                                    false);
}
ExprPtr NotLike(ExprPtr input, std::string pattern) {
  return std::make_unique<LikeExpr>(std::move(input), std::move(pattern),
                                    true);
}
ExprPtr InStr(ExprPtr input, std::vector<std::string> set) {
  // The lookup table is built once here (plan construction) and shared
  // by every clone, so repeated lowerings of a prepared plan never
  // rebuild it.
  auto lookup = std::make_shared<StrLookup>();
  for (std::string& s : set) lookup->insert(std::move(s));
  return std::make_unique<InStrExpr>(std::move(input), std::move(lookup));
}
ExprPtr InI64(ExprPtr input, std::vector<int64_t> set) {
  auto lookup = std::make_shared<std::unordered_set<int64_t>>(set.begin(),
                                                              set.end());
  return std::make_unique<InI64Expr>(std::move(input), std::move(lookup));
}
ExprPtr Substr(ExprPtr input, int start, int len) {
  return std::make_unique<SubstrExpr>(std::move(input), start, len);
}
ExprPtr CaseWhen(ExprPtr cond, ExprPtr then_value, ExprPtr else_value) {
  return std::make_unique<CaseWhenExpr>(
      std::move(cond), std::move(then_value), std::move(else_value));
}
ExprPtr ExtractYear(ExprPtr date_expr) {
  return std::make_unique<ExtractYearExpr>(std::move(date_expr));
}
ExprPtr ToF64(ExprPtr input) {
  return std::make_unique<ToF64Expr>(std::move(input));
}

}  // namespace morsel
