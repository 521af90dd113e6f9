#ifndef MORSELDB_EXEC_EXPRESSION_H_
#define MORSELDB_EXEC_EXPRESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/date.h"
#include "exec/chunk.h"
#include "exec/exec_context.h"
#include "storage/types.h"

namespace morsel {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// A SARGable conjunct: `column <op> literal` with the column on the
// left (extraction normalizes the orientation). The literal carries
// both representations; `lit_is_int` says which is exact. Consumed by
// the lowering pass to register zone-map checks with the scan
// (storage/column.h, exec/scan.h).
struct Sarg {
  CmpOp op = CmpOp::kEq;
  int col = -1;
  bool lit_is_int = false;
  int64_t i64 = 0;
  double f64 = 0.0;
};

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

// Vectorized expression tree evaluated over chunks. Types are resolved
// and checked at construction time; evaluation is a tight loop per node
// writing into arena-allocated output vectors. Binary numeric nodes
// resolve each operand once per chunk — a typed column or a scalar
// literal — and run one typed kernel for that shape, so no per-row
// type or operator switch remains (DESIGN "Typed primitives").
//
// Conventions: predicates produce kInt32 vectors of 0/1; there is no
// NULL — TPC-H/SSB data is NOT NULL throughout, and outer-join misses
// surface as type defaults (0 / empty string), which the queries built in
// this repo account for.
class Expr {
 public:
  explicit Expr(LogicalType type) : type_(type) {}
  virtual ~Expr() = default;

  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  LogicalType type() const { return type_; }

  // Evaluates the chunk's selected rows; `out` receives a vector of
  // in.n physical positions of type(), with values defined at the
  // selected positions only (all of [0, in.n) when the chunk is dense).
  // Output storage comes from ctx.arena unless the node can forward an
  // existing vector (column references do). AND/OR nodes additionally
  // short-circuit: operands after the first see only the rows the
  // earlier operands left undecided.
  virtual void Eval(const Chunk& in, ExecContext& ctx,
                    Vector* out) const = 0;

  // Predicate form (int32 nodes only): writes the physical ids of the
  // chunk's selected rows for which the predicate is true into
  // `out_sel`, ascending, and returns their count. `out_sel` holds
  // in.ActiveRows() entries and may alias in.sel (narrowing in place:
  // every implementation reads sel[k] before it writes out_sel[m <= k]).
  // The default is Eval plus a compaction pass; comparisons, AND, IN
  // and LIKE write the selection directly (DESIGN "Typed primitives").
  virtual int Select(const Chunk& in, ExecContext& ctx,
                     int32_t* out_sel) const;

  // Input column index when this node is a bare column reference, -1
  // otherwise. Lets the planner propagate per-column statistics
  // (sortedness, for the adaptive join choice) through projections.
  virtual int AsColumnIndex() const { return -1; }

  // When this node is a numeric literal, yields both representations
  // (`*is_int` false means only *dv is exact). Feeds constant-true
  // conjunct elimination and SARG extraction in the lowering pass.
  virtual bool AsConstNumeric(int64_t* iv, double* dv,
                              bool* is_int) const {
    (void)iv;
    (void)dv;
    (void)is_int;
    return false;
  }

  // When this node is `column <cmp> numeric literal` (either
  // orientation), fills `*out` with the normalized form. kNe and string
  // comparisons are not SARGable.
  virtual bool ExtractSarg(Sarg* out) const {
    (void)out;
    return false;
  }

  // Yields mutable references to this node's child expressions;
  // constant folding rewrites them in place.
  virtual void ForEachChild(const std::function<void(ExprPtr&)>& fn) {
    (void)fn;
  }

  // Appends this predicate's top-level AND conjuncts (clones) to `out`;
  // non-AND nodes append themselves whole.
  virtual void CollectConjuncts(std::vector<ExprPtr>* out) const;

  // Deep copy. Expression trees are immutable after construction, so a
  // LogicalPlan can hold one tree and hand every physical lowering its
  // own copy (operators take ownership of the expressions they
  // evaluate); Clone() of a shared plan node may run concurrently.
  virtual std::unique_ptr<Expr> Clone() const = 0;

  // Appends a stable byte encoding of this node — tag, parameters,
  // literals, children — to `*out`. Two trees append identical bytes
  // iff they are structurally identical; IN-set elements combine
  // order-independently (the sets are unordered). Feeds PlanFingerprint
  // (engine/logical_plan.h), the key of the server's prepared-statement
  // cache, so literals MUST participate: `x < 5` and `x < 6` must not
  // collide.
  virtual void AppendFingerprint(std::string* out) const = 0;

 private:
  LogicalType type_;
};

// Clones of the predicate's top-level AND conjuncts (the predicate
// itself when it is not a conjunction). The lowering pass splits filter
// predicates with this so each conjunct filters — and reorders —
// independently.
std::vector<ExprPtr> SplitConjuncts(const Expr& predicate);

// Plan-time constant folding: replaces every subtree without column
// references by the literal it evaluates to (and recurses into mixed
// subtrees). Arithmetic on literals, IN over a constant input, LIKE of
// a constant string etc. then cost nothing per chunk.
ExprPtr FoldConstants(ExprPtr e);

// --- leaf nodes -----------------------------------------------------------

// References input column `index`.
ExprPtr ColRef(int index, LogicalType type);

ExprPtr ConstI32(int32_t v);
ExprPtr ConstI64(int64_t v);
ExprPtr ConstF64(double v);
ExprPtr ConstStr(std::string v);
// Date literal "YYYY-MM-DD" (aborts on malformed text: query-author bug).
ExprPtr ConstDate(std::string_view ymd);

// --- arithmetic (int32/int64 promote to int64; any double => double) ------

enum class ArithOp { kAdd, kSub, kMul, kDiv };
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
inline ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Arith(ArithOp::kAdd, std::move(a), std::move(b));
}
inline ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Arith(ArithOp::kSub, std::move(a), std::move(b));
}
inline ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Arith(ArithOp::kMul, std::move(a), std::move(b));
}
inline ExprPtr Div(ExprPtr a, ExprPtr b) {
  return Arith(ArithOp::kDiv, std::move(a), std::move(b));
}

// --- comparisons (numeric with promotion, or string/string) ---------------

ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
inline ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Cmp(CmpOp::kEq, std::move(a), std::move(b));
}
inline ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Cmp(CmpOp::kNe, std::move(a), std::move(b));
}
inline ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Cmp(CmpOp::kLt, std::move(a), std::move(b));
}
inline ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Cmp(CmpOp::kLe, std::move(a), std::move(b));
}
inline ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Cmp(CmpOp::kGt, std::move(a), std::move(b));
}
inline ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Cmp(CmpOp::kGe, std::move(a), std::move(b));
}

// --- logic (operands are 0/1 int32 vectors) --------------------------------

ExprPtr And(std::vector<ExprPtr> operands);
ExprPtr Or(std::vector<ExprPtr> operands);
ExprPtr Not(ExprPtr operand);

// Variadic conveniences: And(a, b, c, ...) — ExprPtr is move-only, so
// initializer lists cannot be used.
template <typename... Rest>
ExprPtr And(ExprPtr a, ExprPtr b, Rest... rest) {
  std::vector<ExprPtr> v;
  v.reserve(2 + sizeof...(rest));
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  (v.push_back(std::move(rest)), ...);
  return And(std::move(v));
}
template <typename... Rest>
ExprPtr Or(ExprPtr a, ExprPtr b, Rest... rest) {
  std::vector<ExprPtr> v;
  v.reserve(2 + sizeof...(rest));
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  (v.push_back(std::move(rest)), ...);
  return Or(std::move(v));
}

// inclusive lo <= x <= hi
ExprPtr Between(ExprPtr x, ExprPtr lo, ExprPtr hi);

// --- strings ---------------------------------------------------------------

// SQL LIKE with '%' and '_' (pattern is a constant).
ExprPtr Like(ExprPtr input, std::string pattern);
ExprPtr NotLike(ExprPtr input, std::string pattern);
// input IN (set) for strings / int64 values.
ExprPtr InStr(ExprPtr input, std::vector<std::string> set);
ExprPtr InI64(ExprPtr input, std::vector<int64_t> set);
// substring(input from start for len), 1-based start, constant args.
ExprPtr Substr(ExprPtr input, int start, int len);

// --- misc ------------------------------------------------------------------

// CASE WHEN cond THEN a ELSE b END (types of a and b must match).
ExprPtr CaseWhen(ExprPtr cond, ExprPtr then_value, ExprPtr else_value);
// extract(year from date_expr) -> int32
ExprPtr ExtractYear(ExprPtr date_expr);
// cast numeric to double
ExprPtr ToF64(ExprPtr input);

}  // namespace morsel

#endif  // MORSELDB_EXEC_EXPRESSION_H_
