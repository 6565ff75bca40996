#include "ir/builder.h"

#include <algorithm>

#include "util/error.h"

namespace sdpm::ir {

AffineExpr SymExpr::resolve(
    const std::vector<std::string>& loop_names) const {
  AffineExpr expr;
  expr.coefs.assign(loop_names.size(), 0);
  expr.constant = constant;
  for (const Term& term : terms) {
    const auto it =
        std::find(loop_names.begin(), loop_names.end(), term.var);
    SDPM_REQUIRE(it != loop_names.end(),
                 "subscript references unknown loop variable '" + term.var +
                     "'");
    expr.coefs[static_cast<std::size_t>(it - loop_names.begin())] +=
        term.coef;
  }
  return expr;
}

SymExpr sym(std::string var) {
  SymExpr e;
  e.terms.push_back({std::move(var), 1});
  return e;
}

SymExpr sym_const(std::int64_t c) {
  SymExpr e;
  e.constant = c;
  return e;
}

SymExpr operator+(SymExpr lhs, const SymExpr& rhs) {
  for (const SymExpr::Term& t : rhs.terms) lhs.terms.push_back(t);
  lhs.constant += rhs.constant;
  return lhs;
}

SymExpr operator+(SymExpr lhs, std::int64_t c) {
  lhs.constant += c;
  return lhs;
}

SymExpr operator-(SymExpr lhs, std::int64_t c) {
  lhs.constant -= c;
  return lhs;
}

SymExpr operator*(std::int64_t c, SymExpr rhs) {
  for (SymExpr::Term& t : rhs.terms) t.coef *= c;
  rhs.constant *= c;
  return rhs;
}

NestBuilder::NestBuilder(ProgramBuilder& parent, std::string name)
    : parent_(parent) {
  nest_.name = std::move(name);
}

NestBuilder& NestBuilder::loop(std::string var, std::int64_t lower,
                               std::int64_t upper, std::int64_t step) {
  SDPM_REQUIRE(pending_.empty(), "declare all loops before statements");
  nest_.loops.push_back(Loop{std::move(var), lower, upper, step});
  return *this;
}

NestBuilder& NestBuilder::stmt(Cycles cycles, std::string label) {
  Statement s;
  s.cycles = cycles;
  s.label = label.empty()
                ? std::string("s").append(std::to_string(pending_.size() + 1))
                : std::move(label);
  pending_.emplace_back(std::move(s), std::vector<std::vector<SymExpr>>{});
  pending_kinds_.emplace_back();
  pending_arrays_.emplace_back();
  return *this;
}

NestBuilder& NestBuilder::add_ref(ArrayId array,
                                  std::vector<SymExpr> subscripts,
                                  AccessKind kind) {
  SDPM_REQUIRE(!pending_.empty(), "call stmt() before adding references");
  pending_.back().second.push_back(std::move(subscripts));
  pending_kinds_.back().push_back(kind);
  pending_arrays_.back().push_back(array);
  return *this;
}

NestBuilder& NestBuilder::read(ArrayId array,
                               std::vector<SymExpr> subscripts) {
  return add_ref(array, std::move(subscripts), AccessKind::kRead);
}

NestBuilder& NestBuilder::write(ArrayId array,
                                std::vector<SymExpr> subscripts) {
  return add_ref(array, std::move(subscripts), AccessKind::kWrite);
}

NestBuilder& NestBuilder::overhead(Cycles cycles) {
  nest_.loop_overhead_cycles = cycles;
  return *this;
}

int NestBuilder::done() {
  const std::vector<std::string> names = nest_.loop_names();
  for (std::size_t si = 0; si < pending_.size(); ++si) {
    Statement stmt = std::move(pending_[si].first);
    const auto& ref_subs = pending_[si].second;
    for (std::size_t ri = 0; ri < ref_subs.size(); ++ri) {
      ArrayRef ref;
      ref.array = pending_arrays_[si][ri];
      ref.kind = pending_kinds_[si][ri];
      for (const SymExpr& sub : ref_subs[ri]) {
        ref.subscripts.push_back(sub.resolve(names));
      }
      stmt.refs.push_back(std::move(ref));
    }
    nest_.body.push_back(std::move(stmt));
  }
  pending_.clear();
  nest_.validate(parent_.program_.arrays);
  return parent_.program_.add_nest(std::move(nest_));
}

ProgramBuilder::ProgramBuilder(std::string name) {
  program_.name = std::move(name);
}

ArrayId ProgramBuilder::array(std::string name,
                              std::vector<std::int64_t> extents,
                              Bytes element_size, StorageLayout layout) {
  Array a;
  a.name = std::move(name);
  a.extents = std::move(extents);
  a.element_size = element_size;
  a.layout = layout;
  return program_.add_array(std::move(a));
}

NestBuilder ProgramBuilder::nest(std::string name) {
  return NestBuilder(*this, std::move(name));
}

Program ProgramBuilder::build() {
  program_.validate();
  return std::move(program_);
}

}  // namespace sdpm::ir
