// ProgramBuilder and the symbolic subscript DSL.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "util/error.h"

namespace sdpm::ir {
namespace {

TEST(SymExpr, ResolvesAgainstLoopNames) {
  const SymExpr e = 2 * sym("j") + 5;
  const AffineExpr resolved = e.resolve({"i", "j"});
  EXPECT_EQ(resolved.coefs, (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(resolved.constant, 5);
}

TEST(SymExpr, Arithmetic) {
  const SymExpr e = sym("i") + sym("j") - 3;
  const AffineExpr resolved = e.resolve({"i", "j"});
  EXPECT_EQ(resolved.coefs, (std::vector<std::int64_t>{1, 1}));
  EXPECT_EQ(resolved.constant, -3);
}

TEST(SymExpr, RepeatedVariableAccumulates) {
  const SymExpr e = sym("i") + sym("i");
  const AffineExpr resolved = e.resolve({"i"});
  EXPECT_EQ(resolved.coefs, (std::vector<std::int64_t>{2}));
}

TEST(SymExpr, UnknownVariableThrows) {
  EXPECT_THROW(sym("z").resolve({"i", "j"}), Error);
}

TEST(Builder, BuildsProgram) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {10, 20});
  pb.nest("n1")
      .loop("i", 0, 10)
      .loop("j", 0, 20)
      .stmt(100.0)
      .read(u, {sym("i"), sym("j")})
      .write(u, {sym("i"), sym("j")})
      .done();
  const Program p = pb.build();
  EXPECT_EQ(p.name, "p");
  ASSERT_EQ(p.arrays.size(), 1u);
  ASSERT_EQ(p.nests.size(), 1u);
  const LoopNest& nest = p.nests[0];
  EXPECT_EQ(nest.iteration_count(), 200);
  ASSERT_EQ(nest.body.size(), 1u);
  ASSERT_EQ(nest.body[0].refs.size(), 2u);
  EXPECT_EQ(nest.body[0].refs[0].kind, AccessKind::kRead);
  EXPECT_EQ(nest.body[0].refs[1].kind, AccessKind::kWrite);
}

TEST(Builder, Figure2Program) {
  // The paper's Figure 2(a): two nests over U1 (4S elements) and U2 (2S).
  const std::int64_t s = 8192;  // stripe of doubles
  ProgramBuilder pb("figure2");
  const ArrayId u1 = pb.array("U1", {4 * s});
  const ArrayId u2 = pb.array("U2", {2 * s});
  pb.nest("nest1")
      .loop("i", 0, 2 * s)
      .stmt(10.0)
      .read(u1, {sym("i")})
      .read(u2, {sym("i")})
      .done();
  pb.nest("nest2")
      .loop("i", 0, 2 * s)
      .stmt(10.0)
      .read(u1, {sym("i") + 2 * s})
      .done();
  const Program p = pb.build();
  EXPECT_EQ(p.total_data_bytes(), 6 * s * 8);
  EXPECT_EQ(p.nests[1].body[0].refs[0].subscripts[0].constant, 2 * s);
}

TEST(Builder, StatementBeforeRefRequired) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {4});
  auto nb = pb.nest("n").loop("i", 0, 4);
  EXPECT_THROW(nb.read(u, {sym("i")}), Error);
}

TEST(Builder, LoopsBeforeStatementsRequired) {
  ProgramBuilder pb("p");
  pb.array("U", {4});
  auto nb = pb.nest("n").loop("i", 0, 4).stmt(1.0);
  EXPECT_THROW(nb.loop("j", 0, 4), Error);
}

TEST(Builder, SubscriptRankCheckedAtDone) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {4, 4});
  auto nb = pb.nest("n").loop("i", 0, 4).stmt(1.0).read(u, {sym("i")});
  EXPECT_THROW(nb.done(), Error);
}

TEST(Builder, StatementLabelsDefaultToIndices) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {4});
  pb.nest("n")
      .loop("i", 0, 4)
      .stmt(1.0)
      .read(u, {sym("i")})
      .stmt(1.0)
      .read(u, {sym("i")})
      .done();
  const Program p = pb.build();
  EXPECT_EQ(p.nests[0].body[0].label, "s1");
  EXPECT_EQ(p.nests[0].body[1].label, "s2");
}

TEST(Program, SortDirectives) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {16});
  pb.nest("n").loop("i", 0, 16).stmt(1.0).read(u, {sym("i")}).done();
  Program prog = pb.build();
  prog.directives.push_back(
      {IterationPoint{0, 10},
       PowerDirective{PowerDirective::Kind::kSpinUp, 0, 0}});
  prog.directives.push_back(
      {IterationPoint{0, 2},
       PowerDirective{PowerDirective::Kind::kSpinDown, 0, 0}});
  prog.sort_directives();
  EXPECT_EQ(prog.directives[0].point.flat_iteration, 2);
  EXPECT_EQ(prog.directives[1].point.flat_iteration, 10);
  prog.validate();
}

TEST(Program, ValidateRejectsBadDirective) {
  ProgramBuilder pb("p");
  const ArrayId u = pb.array("U", {16});
  pb.nest("n").loop("i", 0, 16).stmt(1.0).read(u, {sym("i")}).done();
  Program prog = pb.build();
  prog.directives.push_back(
      {IterationPoint{0, 17},  // beyond iteration_count()
       PowerDirective{PowerDirective::Kind::kSpinDown, 0, 0}});
  EXPECT_THROW(prog.validate(), Error);
}

TEST(Program, ToStringMentionsStructure) {
  ProgramBuilder pb("demo");
  const ArrayId u = pb.array("U", {8, 8});
  pb.nest("sweep")
      .loop("i", 0, 8)
      .loop("j", 0, 8)
      .stmt(1.0)
      .read(u, {sym("i"), sym("j")})
      .done();
  const std::string text = pb.build().to_string();
  EXPECT_NE(text.find("program demo"), std::string::npos);
  EXPECT_NE(text.find("array U"), std::string::npos);
  EXPECT_NE(text.find("sweep"), std::string::npos);
  EXPECT_NE(text.find("R:U[i][j]"), std::string::npos);
}

}  // namespace
}  // namespace sdpm::ir
