// Unit tests for the vectorized expression evaluator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>

#include "common/date.h"
#include "common/string_util.h"
#include "core/worker_context.h"
#include "exec/expression.h"

namespace morsel {
namespace {

class ExpressionTest : public ::testing::Test {
 protected:
  ExpressionTest() {
    topo_ = std::make_unique<Topology>(1, 1,
                                       InterconnectKind::kFullyConnected);
    wctx_.topo = topo_.get();
    wctx_.traffic = stats_.worker(0);
    ctx_.worker = &wctx_;
  }

  // Builds a 4-row chunk: i64 [1,2,3,4], f64 [1.5,2.5,-1,0],
  // str ["a","bc","","promo box"], date32 [1994-01-01 .. +3 rows]
  Chunk MakeChunk() {
    static const int64_t i64s[4] = {1, 2, 3, 4};
    static const double f64s[4] = {1.5, 2.5, -1.0, 0.0};
    static const std::string_view strs[4] = {"a", "bc", "",
                                             "promo box"};
    static int32_t dates[4];
    for (int i = 0; i < 4; ++i) dates[i] = MakeDate(1994, 1, 1) + i * 400;
    Chunk c;
    c.n = 4;
    c.cols = {Vector{LogicalType::kInt64, i64s},
              Vector{LogicalType::kDouble, f64s},
              Vector{LogicalType::kString, strs},
              Vector{LogicalType::kInt32, dates}};
    return c;
  }

  Vector Eval(const ExprPtr& e) {
    Chunk c = MakeChunk();
    Vector out;
    e->Eval(c, ctx_, &out);
    return out;
  }

  std::unique_ptr<Topology> topo_;
  MemStatsRegistry stats_{1};
  WorkerContext wctx_;
  ExecContext ctx_;
};

TEST_F(ExpressionTest, ColRefForwardsZeroCopy) {
  Chunk c = MakeChunk();
  ExprPtr e = ColRef(0, LogicalType::kInt64);
  Vector out;
  e->Eval(c, ctx_, &out);
  EXPECT_EQ(out.data, c.cols[0].data);  // no copy
}

TEST_F(ExpressionTest, Constants) {
  Vector i = Eval(ConstI64(7));
  for (int r = 0; r < 4; ++r) EXPECT_EQ(i.i64()[r], 7);
  Vector d = Eval(ConstF64(2.5));
  for (int r = 0; r < 4; ++r) EXPECT_EQ(d.f64()[r], 2.5);
  Vector s = Eval(ConstStr("xyz"));
  for (int r = 0; r < 4; ++r) EXPECT_EQ(s.str()[r], "xyz");
  Vector dt = Eval(ConstDate("1996-02-29"));
  for (int r = 0; r < 4; ++r) EXPECT_EQ(dt.i32()[r], MakeDate(1996, 2, 29));
}

TEST_F(ExpressionTest, ArithmeticPromotion) {
  // int64 + int64 stays integral
  Vector v = Eval(Add(ColRef(0, LogicalType::kInt64), ConstI64(10)));
  EXPECT_EQ(v.type, LogicalType::kInt64);
  EXPECT_EQ(v.i64()[3], 14);
  // int64 * double promotes
  Vector w = Eval(Mul(ColRef(0, LogicalType::kInt64),
                      ColRef(1, LogicalType::kDouble)));
  EXPECT_EQ(w.type, LogicalType::kDouble);
  EXPECT_DOUBLE_EQ(w.f64()[1], 5.0);
  // division by zero integer yields 0 (documented engine behaviour)
  Vector z = Eval(Div(ConstI64(5), ConstI64(0)));
  EXPECT_EQ(z.i64()[0], 0);
  // int32 (dates) participate as integers
  Vector d = Eval(Sub(ColRef(3, LogicalType::kInt32), ConstI32(1)));
  EXPECT_EQ(d.type, LogicalType::kInt64);
  EXPECT_EQ(d.i64()[0], MakeDate(1994, 1, 1) - 1);
}

TEST_F(ExpressionTest, Comparisons) {
  Vector v = Eval(Le(ColRef(0, LogicalType::kInt64), ConstI64(2)));
  EXPECT_EQ(v.type, LogicalType::kInt32);
  EXPECT_EQ(v.i32()[0], 1);
  EXPECT_EQ(v.i32()[1], 1);
  EXPECT_EQ(v.i32()[2], 0);
  // mixed int/double comparison
  Vector w = Eval(Gt(ColRef(1, LogicalType::kDouble), ConstI64(1)));
  EXPECT_EQ(w.i32()[0], 1);
  EXPECT_EQ(w.i32()[2], 0);
  // string comparison is lexicographic
  Vector s = Eval(Lt(ColRef(2, LogicalType::kString), ConstStr("b")));
  EXPECT_EQ(s.i32()[0], 1);  // "a" < "b"
  EXPECT_EQ(s.i32()[1], 0);  // "bc" > "b"
  EXPECT_EQ(s.i32()[2], 1);  // "" < "b"
  Vector eq = Eval(Eq(ColRef(2, LogicalType::kString), ConstStr("bc")));
  EXPECT_EQ(eq.i32()[1], 1);
  EXPECT_EQ(eq.i32()[0], 0);
}

TEST_F(ExpressionTest, LogicAndNot) {
  ExprPtr both = And(Ge(ColRef(0, LogicalType::kInt64), ConstI64(2)),
                     Le(ColRef(0, LogicalType::kInt64), ConstI64(3)));
  Vector v = Eval(std::move(both));
  EXPECT_EQ(v.i32()[0], 0);
  EXPECT_EQ(v.i32()[1], 1);
  EXPECT_EQ(v.i32()[2], 1);
  EXPECT_EQ(v.i32()[3], 0);

  Vector o = Eval(Or(Eq(ColRef(0, LogicalType::kInt64), ConstI64(1)),
                     Eq(ColRef(0, LogicalType::kInt64), ConstI64(4)),
                     Eq(ColRef(0, LogicalType::kInt64), ConstI64(9))));
  EXPECT_EQ(o.i32()[0], 1);
  EXPECT_EQ(o.i32()[1], 0);
  EXPECT_EQ(o.i32()[3], 1);

  Vector n = Eval(Not(Eq(ColRef(0, LogicalType::kInt64), ConstI64(1))));
  EXPECT_EQ(n.i32()[0], 0);
  EXPECT_EQ(n.i32()[1], 1);
}

TEST_F(ExpressionTest, BetweenInclusive) {
  Vector v = Eval(
      Between(ColRef(0, LogicalType::kInt64), ConstI64(2), ConstI64(3)));
  EXPECT_EQ(v.i32()[0], 0);
  EXPECT_EQ(v.i32()[1], 1);
  EXPECT_EQ(v.i32()[2], 1);
  EXPECT_EQ(v.i32()[3], 0);
}

TEST_F(ExpressionTest, LikeAndIn) {
  Vector v = Eval(Like(ColRef(2, LogicalType::kString), "promo%"));
  EXPECT_EQ(v.i32()[3], 1);
  EXPECT_EQ(v.i32()[0], 0);
  Vector nv = Eval(NotLike(ColRef(2, LogicalType::kString), "promo%"));
  EXPECT_EQ(nv.i32()[3], 0);
  EXPECT_EQ(nv.i32()[0], 1);
  Vector in = Eval(InStr(ColRef(2, LogicalType::kString), {"a", "bc"}));
  EXPECT_EQ(in.i32()[0], 1);
  EXPECT_EQ(in.i32()[1], 1);
  EXPECT_EQ(in.i32()[2], 0);
  Vector ii = Eval(InI64(ColRef(0, LogicalType::kInt64), {2, 4, 100}));
  EXPECT_EQ(ii.i32()[1], 1);
  EXPECT_EQ(ii.i32()[2], 0);
}

TEST_F(ExpressionTest, SubstrOneBased) {
  Vector v = Eval(Substr(ColRef(2, LogicalType::kString), 1, 2));
  EXPECT_EQ(v.str()[1], "bc");
  EXPECT_EQ(v.str()[3], "pr");
  EXPECT_EQ(v.str()[0], "a");   // shorter than requested length
  EXPECT_EQ(v.str()[2], "");    // start past end
  Vector w = Eval(Substr(ColRef(2, LogicalType::kString), 7, 3));
  EXPECT_EQ(w.str()[3], "box");
}

TEST_F(ExpressionTest, CaseWhen) {
  Vector v = Eval(CaseWhen(Ge(ColRef(0, LogicalType::kInt64), ConstI64(3)),
                           ConstF64(1.0), ConstF64(0.0)));
  EXPECT_EQ(v.f64()[0], 0.0);
  EXPECT_EQ(v.f64()[2], 1.0);
  Vector s = Eval(CaseWhen(Eq(ColRef(2, LogicalType::kString),
                              ConstStr("a")),
                           ConstStr("yes"), ConstStr("no")));
  EXPECT_EQ(s.str()[0], "yes");
  EXPECT_EQ(s.str()[1], "no");
}

TEST_F(ExpressionTest, ExtractYearAndCast) {
  Vector y = Eval(ExtractYear(ColRef(3, LogicalType::kInt32)));
  EXPECT_EQ(y.i32()[0], 1994);
  EXPECT_EQ(y.i32()[1], 1995);  // +400 days
  Vector f = Eval(ToF64(ColRef(0, LogicalType::kInt64)));
  EXPECT_EQ(f.type, LogicalType::kDouble);
  EXPECT_DOUBLE_EQ(f.f64()[3], 4.0);
}

// --- semantics pinned for the typed kernels --------------------------------
// Every comparison and arithmetic node runs one kernel per (op, operand
// types, which side is a literal). The cases below check each shape
// against a reference computed here, row by row, with the engine's
// documented semantics: numeric promotion to double when either side is
// double, NaN compares as a tie (the a<b?-1:a>b?1:0 order of the row
// comparators), integer division by zero yields 0.

// One operand: column `col`, or (col < 0) a literal of `type`.
struct TestOperand {
  int col;
  LogicalType type;
  int64_t iv = 0;
  double dv = 0.0;
};

class TypedKernelTest : public ExpressionTest {
 protected:
  static constexpr int kN = 8;

  TypedKernelTest() {
    chunk_.n = kN;
    chunk_.cols = {Vector{LogicalType::kInt32, i32_},
                   Vector{LogicalType::kInt64, i64_},
                   Vector{LogicalType::kDouble, f64a_},
                   Vector{LogicalType::kDouble, f64b_}};
  }

  static std::vector<TestOperand> Columns() {
    return {{0, LogicalType::kInt32},
            {1, LogicalType::kInt64},
            {2, LogicalType::kDouble},
            {3, LogicalType::kDouble}};
  }
  static std::vector<TestOperand> Literals() {
    const double nan = std::nan("");
    return {{-1, LogicalType::kInt32, 7},
            {-1, LogicalType::kInt32, -1},
            {-1, LogicalType::kInt64, INT64_MIN},
            {-1, LogicalType::kInt64, INT64_MAX},
            {-1, LogicalType::kInt64, 0},
            {-1, LogicalType::kDouble, 0, nan},
            {-1, LogicalType::kDouble, 0, -0.0},
            {-1, LogicalType::kDouble, 0, 0.0},
            {-1, LogicalType::kDouble, 0, 7.0},
            {-1, LogicalType::kDouble, 0, 9007199254740992.0}};
  }

  static ExprPtr Make(const TestOperand& o) {
    if (o.col >= 0) return ColRef(o.col, o.type);
    switch (o.type) {
      case LogicalType::kInt32:
        return ConstI32(static_cast<int32_t>(o.iv));
      case LogicalType::kInt64:
        return ConstI64(o.iv);
      default:
        return ConstF64(o.dv);
    }
  }
  int64_t IntAt(const TestOperand& o, int i) const {
    if (o.col < 0) return o.iv;
    return o.type == LogicalType::kInt32 ? i32_[i] : i64_[i];
  }
  double DoubleAt(const TestOperand& o, int i) const {
    if (o.type != LogicalType::kDouble) {
      return static_cast<double>(IntAt(o, i));
    }
    if (o.col < 0) return o.dv;
    return o.col == 2 ? f64a_[i] : f64b_[i];
  }
  static bool Test(CmpOp op, int c) {
    switch (op) {
      case CmpOp::kEq:
        return c == 0;
      case CmpOp::kNe:
        return c != 0;
      case CmpOp::kLt:
        return c < 0;
      case CmpOp::kLe:
        return c <= 0;
      case CmpOp::kGt:
        return c > 0;
      case CmpOp::kGe:
        return c >= 0;
    }
    return false;
  }
  bool Expected(CmpOp op, const TestOperand& l, const TestOperand& r,
                int i) const {
    if (l.type == LogicalType::kDouble || r.type == LogicalType::kDouble) {
      const double a = DoubleAt(l, i), b = DoubleAt(r, i);
      return Test(op, a < b ? -1 : (a > b ? 1 : 0));
    }
    const int64_t a = IntAt(l, i), b = IntAt(r, i);
    return Test(op, a < b ? -1 : (a > b ? 1 : 0));
  }

  // Checks Eval (flags at the selected positions) and Select (in place
  // over a copy of the selection) of predicate `e` against `want`.
  void CheckPredicate(const Expr& e, bool selected,
                      const std::function<bool(int)>& want) {
    Chunk c = chunk_;
    if (selected) {
      c.sel = kSel;
      c.sel_n = 5;
    }
    Vector flags;
    e.Eval(c, ctx_, &flags);
    std::vector<int32_t> expect_sel;
    for (int k = 0; k < c.ActiveRows(); ++k) {
      const int i = c.RowAt(k);
      EXPECT_EQ(flags.i32()[i], want(i) ? 1 : 0) << "row " << i;
      if (want(i)) expect_sel.push_back(i);
    }
    std::vector<int32_t> buf(kN);
    if (selected) {
      std::copy(kSel, kSel + 5, buf.begin());
      c.sel = buf.data();
    }
    const int m = e.Select(c, ctx_, buf.data());
    EXPECT_EQ(std::vector<int32_t>(buf.begin(), buf.begin() + m), expect_sel);
  }

  static constexpr int32_t kSel[5] = {0, 2, 3, 5, 7};
  const int32_t i32_[kN] = {INT32_MIN, -1, 0, 0, 7, INT32_MAX, 3, -7};
  const int64_t i64_[kN] = {INT64_MIN, -1,  0, INT64_MAX,
                            7,         int64_t{9007199254740993}, 3, -7};
  const double f64a_[kN] = {std::nan(""), -0.0, 0.0,       1e19,
                            7.0,          9007199254740992.0, -HUGE_VAL,
                            -7.0};
  const double f64b_[kN] = {1.0, 0.0,       -0.0, std::nan(""),
                            7.0, HUGE_VAL,  3.0,  std::nan("")};
  Chunk chunk_;
};

TEST_F(TypedKernelTest, ComparisonsMatchReferenceInEveryShape) {
  std::vector<std::pair<TestOperand, TestOperand>> shapes;
  for (const TestOperand& c : Columns()) {
    for (const TestOperand& l : Literals()) {
      shapes.push_back({c, l});  // column vs literal
      shapes.push_back({l, c});  // literal vs column
    }
    for (const TestOperand& d : Columns()) shapes.push_back({c, d});
  }
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    for (const auto& [l, r] : shapes) {
      for (bool selected : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "op=" << static_cast<int>(op) << " l=" << l.col << "/"
                     << static_cast<int>(l.type) << "/" << l.iv << "/" << l.dv
                     << " r=" << r.col << "/" << static_cast<int>(r.type)
                     << "/" << r.iv << "/" << r.dv << " sel=" << selected);
        ExprPtr e = Cmp(op, Make(l), Make(r));
        CheckPredicate(*e, selected, [&, op = op, l = l, r = r](int i) {
          return Expected(op, l, r, i);
        });
      }
    }
  }
}

TEST_F(TypedKernelTest, NanIsATieAndSignedZerosAreEqual) {
  // Spot checks of the reference itself, so the table above cannot
  // drift to IEEE semantics unnoticed: NaN = x holds, NaN < x does not,
  // and -0.0 = 0.0.
  const ExprPtr eq = Eq(ColRef(2, LogicalType::kDouble), ConstF64(5.0));
  const ExprPtr lt = Lt(ColRef(2, LogicalType::kDouble), ConstF64(5.0));
  const ExprPtr zero = Eq(ColRef(2, LogicalType::kDouble), ConstF64(0.0));
  Vector v;
  eq->Eval(chunk_, ctx_, &v);
  EXPECT_EQ(v.i32()[0], 1);  // NaN
  lt->Eval(chunk_, ctx_, &v);
  EXPECT_EQ(v.i32()[0], 0);
  zero->Eval(chunk_, ctx_, &v);
  EXPECT_EQ(v.i32()[1], 1);  // -0.0
  EXPECT_EQ(v.i32()[2], 1);
  // int32 vs double promotes: 7 = 7.0, INT32_MIN < -0.0.
  const ExprPtr mixed = Eq(ColRef(0, LogicalType::kInt32), ConstF64(7.0));
  mixed->Eval(chunk_, ctx_, &v);
  EXPECT_EQ(v.i32()[4], 1);
  // 2^53+1 as int64 rounds to 2^53 when compared with a double.
  const ExprPtr rounded =
      Eq(ColRef(1, LogicalType::kInt64), ColRef(2, LogicalType::kDouble));
  rounded->Eval(chunk_, ctx_, &v);
  EXPECT_EQ(v.i32()[5], 1);
}

TEST_F(TypedKernelTest, ArithmeticMatchesReferenceInEveryShape) {
  // Small integers only: int64 overflow is undefined, not a semantic.
  static const int32_t a32[kN] = {0, -1, 5, 3, -4, 2, 100, -100};
  static const int64_t a64[kN] = {0, 3, 0, -2, 4, 9, -7, 1000};
  static const double ad[kN] = {std::nan(""), -0.0, 0.0, 1.5,
                                -2.5,         8.0,  HUGE_VAL, -3.0};
  Chunk c;
  c.n = kN;
  c.cols = {Vector{LogicalType::kInt32, a32}, Vector{LogicalType::kInt64, a64},
            Vector{LogicalType::kDouble, ad}};
  const std::vector<TestOperand> cols = {{0, LogicalType::kInt32},
                                         {1, LogicalType::kInt64},
                                         {2, LogicalType::kDouble}};
  const std::vector<TestOperand> lits = {{-1, LogicalType::kInt32, 0},
                                         {-1, LogicalType::kInt32, -3},
                                         {-1, LogicalType::kInt64, 0},
                                         {-1, LogicalType::kInt64, 7},
                                         {-1, LogicalType::kDouble, 0, -0.0},
                                         {-1, LogicalType::kDouble, 0, 0.5}};
  auto int_at = [&](const TestOperand& o, int i) -> int64_t {
    if (o.col < 0) return o.iv;
    return o.col == 0 ? a32[i] : a64[i];
  };
  auto dbl_at = [&](const TestOperand& o, int i) -> double {
    if (o.type != LogicalType::kDouble) {
      return static_cast<double>(int_at(o, i));
    }
    return o.col < 0 ? o.dv : ad[i];
  };
  std::vector<std::pair<TestOperand, TestOperand>> shapes;
  for (const TestOperand& x : cols) {
    for (const TestOperand& l : lits) {
      shapes.push_back({x, l});
      shapes.push_back({l, x});
    }
    for (const TestOperand& y : cols) shapes.push_back({x, y});
  }
  for (ArithOp op :
       {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul, ArithOp::kDiv}) {
    for (const auto& [l, r] : shapes) {
      for (bool selected : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "op=" << static_cast<int>(op) << " l=" << l.col << "/"
                     << l.iv << "/" << l.dv << " r=" << r.col << "/" << r.iv
                     << "/" << r.dv << " sel=" << selected);
        Chunk view = c;
        if (selected) {
          view.sel = kSel;
          view.sel_n = 5;
        }
        ExprPtr e = Arith(op, Make(l), Make(r));
        Vector v;
        e->Eval(view, ctx_, &v);
        const bool dbl = l.type == LogicalType::kDouble ||
                         r.type == LogicalType::kDouble;
        ASSERT_EQ(v.type, dbl ? LogicalType::kDouble : LogicalType::kInt64);
        for (int k = 0; k < view.ActiveRows(); ++k) {
          const int i = view.RowAt(k);
          if (dbl) {
            const double a = dbl_at(l, i), b = dbl_at(r, i);
            const double want = op == ArithOp::kAdd   ? a + b
                                : op == ArithOp::kSub ? a - b
                                : op == ArithOp::kMul ? a * b
                                                      : a / b;
            if (std::isnan(want)) {
              EXPECT_TRUE(std::isnan(v.f64()[i])) << "row " << i;
            } else {
              EXPECT_EQ(std::signbit(v.f64()[i]), std::signbit(want));
              EXPECT_EQ(v.f64()[i], want) << "row " << i;
            }
          } else {
            const int64_t a = int_at(l, i), b = int_at(r, i);
            const int64_t want = op == ArithOp::kAdd   ? a + b
                                 : op == ArithOp::kSub ? a - b
                                 : op == ArithOp::kMul ? a * b
                                 : b == 0              ? 0
                                                       : a / b;
            EXPECT_EQ(v.i64()[i], want) << "row " << i;
          }
        }
      }
    }
  }
}

TEST_F(TypedKernelTest, ConjunctionSelectMatchesEval) {
  // AND narrows in place operand by operand; OR and NOT take the
  // default Eval-plus-compaction route. All must agree with Eval.
  auto make = [] {
    std::vector<ExprPtr> v;
    v.push_back(And(Ge(ColRef(0, LogicalType::kInt32), ConstI32(-1)),
                    Ne(ColRef(2, LogicalType::kDouble), ConstF64(7.0)),
                    Lt(ColRef(1, LogicalType::kInt64), ConstI64(INT64_MAX))));
    v.push_back(Or(Eq(ColRef(3, LogicalType::kDouble), ConstF64(7.0)),
                   Gt(ColRef(0, LogicalType::kInt32), ConstI32(0))));
    v.push_back(Not(Le(ColRef(1, LogicalType::kInt64), ConstI64(0))));
    v.push_back(And(InI64(ColRef(1, LogicalType::kInt64), {-1, 7, 3}),
                    Or(Lt(ColRef(0, LogicalType::kInt32), ConstI32(0)),
                       Gt(ColRef(2, LogicalType::kDouble), ConstF64(0.0)))));
    return v;
  };
  for (const ExprPtr& e : make()) {
    for (bool selected : {false, true}) {
      Chunk c = chunk_;
      if (selected) {
        c.sel = kSel;
        c.sel_n = 5;
      }
      Vector flags;
      e->Eval(c, ctx_, &flags);
      std::vector<int32_t> want;
      for (int k = 0; k < c.ActiveRows(); ++k) {
        if (flags.i32()[c.RowAt(k)] != 0) want.push_back(c.RowAt(k));
      }
      CheckPredicate(*e, selected, [&](int i) {
        return std::find(want.begin(), want.end(), i) != want.end();
      });
    }
  }
}

TEST_F(ExpressionTest, CompiledLikeMatchesGenericMatcher) {
  // '_'-free patterns run compiled (prefix, ordered segments, suffix);
  // the generic LikeMatch stays the reference for every pattern.
  static const std::string_view values[] = {
      "",        "a",          "ab",       "abc",          "abcabc",
      "xabcx",   "ac",         "aXbYc",    "acb",          "promo box",
      "forest green", "cab",   "aabbcc",   "bc",           "%"};
  constexpr int kValues = static_cast<int>(std::size(values));
  Chunk c;
  c.n = kValues;
  c.cols = {Vector{LogicalType::kString, values}};
  static const int32_t sel[] = {1, 3, 4, 8, 10, 14};
  for (const char* pattern :
       {"", "%", "%%", "abc", "abc%", "%abc", "%abc%", "a%c", "a%b%c",
        "%a%%b%", "promo%", "%green%", "ab%b", "a%a", "%c%b", "_bc",
        "a_c%", "%b_"}) {
    for (bool negate : {false, true}) {
      for (bool selected : {false, true}) {
        SCOPED_TRACE(testing::Message() << "pattern='" << pattern
                                        << "' negate=" << negate
                                        << " sel=" << selected);
        c.sel = selected ? sel : nullptr;
        c.sel_n = selected ? static_cast<int>(std::size(sel)) : 0;
        ExprPtr e = negate ? NotLike(ColRef(0, LogicalType::kString), pattern)
                           : Like(ColRef(0, LogicalType::kString), pattern);
        Vector flags;
        e->Eval(c, ctx_, &flags);
        std::vector<int32_t> want;
        for (int k = 0; k < c.ActiveRows(); ++k) {
          const int i = c.RowAt(k);
          const bool m = LikeMatch(values[i], pattern) != negate;
          EXPECT_EQ(flags.i32()[i], m ? 1 : 0) << "value '" << values[i]
                                               << "'";
          if (m) want.push_back(i);
        }
        std::vector<int32_t> out(kValues);
        const int m = e->Select(c, ctx_, out.data());
        EXPECT_EQ(std::vector<int32_t>(out.begin(), out.begin() + m), want);
      }
    }
  }
}

}  // namespace
}  // namespace morsel
