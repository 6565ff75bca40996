#include "ir/affine.h"

#include <sstream>

#include "util/error.h"

namespace sdpm::ir {

std::int64_t AffineExpr::eval(std::span<const std::int64_t> iters) const {
  SDPM_ASSERT(coefs.size() <= iters.size(),
              "iteration vector shorter than coefficient vector");
  std::int64_t value = constant;
  for (std::size_t k = 0; k < coefs.size(); ++k) {
    value += coefs[k] * iters[k];
  }
  return value;
}

AffineExpr AffineExpr::substituted(std::span<const AffineExpr> sub) const {
  SDPM_REQUIRE(sub.size() >= coefs.size(),
               "substitution must cover every original loop");
  AffineExpr out;
  out.constant = constant;
  for (std::size_t k = 0; k < coefs.size(); ++k) {
    if (coefs[k] == 0) continue;
    const AffineExpr& replacement = sub[k];
    out.constant += coefs[k] * replacement.constant;
    if (out.coefs.size() < replacement.coefs.size()) {
      out.coefs.resize(replacement.coefs.size(), 0);
    }
    for (std::size_t j = 0; j < replacement.coefs.size(); ++j) {
      out.coefs[j] += coefs[k] * replacement.coefs[j];
    }
  }
  return out;
}

std::string AffineExpr::to_string(
    std::span<const std::string> loop_names) const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t k = 0; k < coefs.size(); ++k) {
    if (coefs[k] == 0) continue;
    const std::string name =
        k < loop_names.size() ? loop_names[k]
                               : std::string("i").append(std::to_string(k));
    if (!first) os << (coefs[k] > 0 ? "+" : "");
    if (coefs[k] == 1) {
      os << name;
    } else if (coefs[k] == -1) {
      os << "-" << name;
    } else {
      os << coefs[k] << "*" << name;
    }
    first = false;
  }
  if (constant != 0 || first) {
    if (!first && constant > 0) os << "+";
    os << constant;
  }
  return os.str();
}

AffineExpr affine_var(std::size_t loop_index, std::size_t nest_depth,
                      std::int64_t coef, std::int64_t constant) {
  SDPM_REQUIRE(loop_index < nest_depth, "loop index out of range");
  AffineExpr e;
  e.coefs.assign(nest_depth, 0);
  e.coefs[loop_index] = coef;
  e.constant = constant;
  return e;
}

}  // namespace sdpm::ir
