// AffineExpr: evaluation, substitution, and helpers.
#include <gtest/gtest.h>

#include "ir/affine.h"
#include "util/rng.h"

namespace sdpm::ir {
namespace {

TEST(Affine, ConstantExpr) {
  AffineExpr e;
  e.constant = 7;
  const std::int64_t iters[] = {1, 2, 3};
  EXPECT_EQ(e.eval(iters), 7);
}

TEST(Affine, SingleVariable) {
  const AffineExpr e = affine_var(1, 3, 2, 5);  // 2*j + 5 in (i,j,k)
  const std::int64_t iters[] = {10, 4, 9};
  EXPECT_EQ(e.eval(iters), 13);
}

TEST(Affine, GeneralEvaluation) {
  AffineExpr e;
  e.coefs = {1, -2, 3};
  e.constant = -4;
  const std::int64_t iters[] = {5, 6, 7};
  EXPECT_EQ(e.eval(iters), 5 - 12 + 21 - 4);
}

TEST(Affine, CoefBeyondSizeIsZero) {
  AffineExpr e;
  e.coefs = {2};
  EXPECT_EQ(e.coef(0), 2);
  EXPECT_EQ(e.coef(5), 0);
}

TEST(Affine, SubstitutionIdentity) {
  AffineExpr e;
  e.coefs = {3, 1};
  e.constant = 2;
  // identity substitution: loop k -> loop k
  std::vector<AffineExpr> sub = {affine_var(0, 2), affine_var(1, 2)};
  const AffineExpr out = e.substituted(sub);
  const std::int64_t iters[] = {4, 5};
  EXPECT_EQ(out.eval(iters), e.eval(iters));
}

// Property: eval(substituted(e), y) == eval(e, [eval(sub_k, y)]).
TEST(AffineProperty, SubstitutionCommutesWithEvaluation) {
  SplitMix64 rng(1234);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t old_depth = 1 + rng.next_below(3);
    const std::size_t new_depth = 1 + rng.next_below(4);
    AffineExpr e;
    e.coefs.resize(old_depth);
    for (auto& c : e.coefs) {
      c = static_cast<std::int64_t>(rng.next_below(9)) - 4;
    }
    e.constant = static_cast<std::int64_t>(rng.next_below(21)) - 10;

    std::vector<AffineExpr> sub(old_depth);
    for (auto& s : sub) {
      s.coefs.resize(new_depth);
      for (auto& c : s.coefs) {
        c = static_cast<std::int64_t>(rng.next_below(7)) - 3;
      }
      s.constant = static_cast<std::int64_t>(rng.next_below(11)) - 5;
    }

    std::vector<std::int64_t> y(new_depth);
    for (auto& v : y) v = static_cast<std::int64_t>(rng.next_below(50));

    std::vector<std::int64_t> x(old_depth);
    for (std::size_t k = 0; k < old_depth; ++k) x[k] = sub[k].eval(y);

    const AffineExpr composed = e.substituted(sub);
    ASSERT_EQ(composed.eval(y), e.eval(x));
  }
}

TEST(Affine, ToString) {
  AffineExpr e;
  e.coefs = {1, -1, 2};
  e.constant = 3;
  const std::string names[] = {"i", "j", "k"};
  EXPECT_EQ(e.to_string(names), "i-j+2*k+3");
  EXPECT_EQ(AffineExpr{}.to_string(names), "0");
}

TEST(Affine, Equality) {
  EXPECT_EQ(affine_var(0, 2), affine_var(0, 2));
  EXPECT_NE(affine_var(0, 2), affine_var(1, 2));
}

}  // namespace
}  // namespace sdpm::ir
