// Expression construction with constant folding and light simplification.
#include "hslb/expr/expr.hpp"

#include <algorithm>
#include <cmath>

#include "hslb/common/error.hpp"

namespace hslb::expr {
namespace {

std::shared_ptr<const Node> make_const(double c) {
  auto node = std::make_shared<Node>();
  node->op = Op::kConst;
  node->value = c;
  return node;
}

std::shared_ptr<const Node> make_node(
    Op op, std::vector<std::shared_ptr<const Node>> children,
    double payload = 0.0) {
  auto node = std::make_shared<Node>();
  node->op = op;
  node->children = std::move(children);
  node->value = payload;
  return node;
}

bool is_const(const Expr& e, double v) {
  return e.is_constant() && e.constant_value() == v;
}

}  // namespace

Expr::Expr() : node_(make_const(0.0)) {}

Expr::Expr(double c) : node_(make_const(c)) {}

double Expr::constant_value() const {
  HSLB_REQUIRE(is_constant(), "constant_value() on a non-constant expression");
  return node_->value;
}

Expr variable(std::size_t index, std::string name) {
  auto node = std::make_shared<Node>();
  node->op = Op::kVar;
  node->var_index = index;
  node->var_name = name.empty()
                       ? std::string("x").append(std::to_string(index))
                       : std::move(name);
  return Expr(std::move(node));
}

Expr constant(double c) {
  return Expr(c);
}

Expr operator+(const Expr& a, const Expr& b) {
  if (a.is_constant() && b.is_constant()) {
    return Expr(a.constant_value() + b.constant_value());
  }
  if (is_const(a, 0.0)) {
    return b;
  }
  if (is_const(b, 0.0)) {
    return a;
  }
  // Flatten nested sums into one n-ary add for cheaper evaluation.
  std::vector<std::shared_ptr<const Node>> kids;
  for (const Expr* e : {&a, &b}) {
    if (e->node().op == Op::kAdd) {
      kids.insert(kids.end(), e->node().children.begin(),
                  e->node().children.end());
    } else {
      kids.push_back(e->ptr());
    }
  }
  return Expr(make_node(Op::kAdd, std::move(kids)));
}

Expr operator-(const Expr& a) {
  if (a.is_constant()) {
    return Expr(-a.constant_value());
  }
  if (a.node().op == Op::kNeg) {
    return Expr(a.node().children[0]);
  }
  return Expr(make_node(Op::kNeg, {a.ptr()}));
}

Expr operator-(const Expr& a, const Expr& b) {
  if (a.is_constant() && b.is_constant()) {
    return Expr(a.constant_value() - b.constant_value());
  }
  if (is_const(b, 0.0)) {
    return a;
  }
  return a + (-b);
}

Expr operator*(const Expr& a, const Expr& b) {
  if (a.is_constant() && b.is_constant()) {
    return Expr(a.constant_value() * b.constant_value());
  }
  if (is_const(a, 0.0) || is_const(b, 0.0)) {
    return Expr(0.0);
  }
  if (is_const(a, 1.0)) {
    return b;
  }
  if (is_const(b, 1.0)) {
    return a;
  }
  return Expr(make_node(Op::kMul, {a.ptr(), b.ptr()}));
}

Expr operator/(const Expr& a, const Expr& b) {
  HSLB_REQUIRE(!is_const(b, 0.0), "division by the constant zero");
  if (a.is_constant() && b.is_constant()) {
    return Expr(a.constant_value() / b.constant_value());
  }
  if (is_const(b, 1.0)) {
    return a;
  }
  if (is_const(a, 0.0)) {
    return Expr(0.0);
  }
  return Expr(make_node(Op::kDiv, {a.ptr(), b.ptr()}));
}

Expr& operator+=(Expr& a, const Expr& b) {
  a = a + b;
  return a;
}

Expr& operator-=(Expr& a, const Expr& b) {
  a = a - b;
  return a;
}

Expr pow(const Expr& base, const Expr& exponent) {
  if (exponent.is_constant()) {
    const double p = exponent.constant_value();
    if (base.is_constant()) {
      return Expr(std::pow(base.constant_value(), p));
    }
    if (p == 0.0) {
      return Expr(1.0);
    }
    if (p == 1.0) {
      return base;
    }
    return Expr(make_node(Op::kPow, {base.ptr()}, p));
  }
  // General exponent: u^v == exp(v * log(u)); valid for u > 0, which holds
  // for every use in this library (node counts and times are positive).
  return exp(exponent * log(base));
}

Expr log(const Expr& x) {
  if (x.is_constant()) {
    HSLB_REQUIRE(x.constant_value() > 0.0, "log of a non-positive constant");
    return Expr(std::log(x.constant_value()));
  }
  if (x.node().op == Op::kExp) {
    return Expr(x.node().children[0]);
  }
  return Expr(make_node(Op::kLog, {x.ptr()}));
}

Expr exp(const Expr& x) {
  if (x.is_constant()) {
    return Expr(std::exp(x.constant_value()));
  }
  if (x.node().op == Op::kLog) {
    return Expr(x.node().children[0]);
  }
  return Expr(make_node(Op::kExp, {x.ptr()}));
}

Expr sum(std::span<const Expr> terms) {
  Expr total(0.0);
  for (const Expr& t : terms) {
    total += t;
  }
  return total;
}

Linearity Expr::linearity() const {
  switch (node_->op) {
    case Op::kConst:
      return Linearity::kConstant;
    case Op::kVar:
      return Linearity::kLinear;
    case Op::kNeg:
      return Expr(node_->children[0]).linearity();
    case Op::kAdd: {
      Linearity worst = Linearity::kConstant;
      for (const auto& child : node_->children) {
        const Linearity l = Expr(child).linearity();
        if (l == Linearity::kNonlinear) {
          return Linearity::kNonlinear;
        }
        if (l == Linearity::kLinear) {
          worst = Linearity::kLinear;
        }
      }
      return worst;
    }
    case Op::kMul: {
      const Linearity l0 = Expr(node_->children[0]).linearity();
      const Linearity l1 = Expr(node_->children[1]).linearity();
      if (l0 == Linearity::kConstant) {
        return l1;
      }
      if (l1 == Linearity::kConstant) {
        return l0;
      }
      return Linearity::kNonlinear;
    }
    case Op::kDiv: {
      const Linearity l0 = Expr(node_->children[0]).linearity();
      const Linearity l1 = Expr(node_->children[1]).linearity();
      if (l1 == Linearity::kConstant) {
        return l0;
      }
      return Linearity::kNonlinear;
    }
    case Op::kPow:
    case Op::kLog:
    case Op::kExp:
      return Linearity::kNonlinear;
  }
  return Linearity::kNonlinear;
}

std::optional<std::size_t> max_var_index(const Expr& e) {
  const Node& n = e.node();
  std::optional<std::size_t> best;
  if (n.op == Op::kVar) {
    best = n.var_index;
  }
  for (const auto& child : n.children) {
    if (const auto sub = max_var_index(Expr(child))) {
      best = best ? std::max(*best, *sub) : *sub;
    }
  }
  return best;
}

namespace {

void collect_vars(const Node& node, std::vector<std::size_t>& out) {
  if (node.op == Op::kVar) {
    out.push_back(node.var_index);
  }
  for (const auto& child : node.children) {
    collect_vars(*child, out);
  }
}

std::shared_ptr<const Node> remap_node(
    const std::shared_ptr<const Node>& node,
    std::span<const std::size_t> mapping) {
  if (node->op == Op::kVar) {
    HSLB_REQUIRE(node->var_index < mapping.size(),
                 "remap_variables: unmapped variable index");
    auto copy = std::make_shared<Node>(*node);
    copy->var_index = mapping[node->var_index];
    return copy;
  }
  if (node->children.empty()) {
    return node;
  }
  auto copy = std::make_shared<Node>(*node);
  for (auto& child : copy->children) {
    child = remap_node(child, mapping);
  }
  return copy;
}

}  // namespace

std::vector<std::size_t> variables_of(const Expr& e) {
  std::vector<std::size_t> out;
  collect_vars(e.node(), out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Expr remap_variables(const Expr& e, std::span<const std::size_t> mapping) {
  return Expr(remap_node(e.ptr(), mapping));
}

namespace {

std::shared_ptr<const Node> substitute_node(
    const std::shared_ptr<const Node>& node, std::size_t index,
    const Expr& replacement) {
  if (node->op == Op::kVar) {
    return node->var_index == index ? replacement.ptr() : node;
  }
  if (node->children.empty()) {
    return node;
  }
  auto copy = std::make_shared<Node>(*node);
  for (auto& child : copy->children) {
    child = substitute_node(child, index, replacement);
  }
  return copy;
}

}  // namespace

Expr substitute(const Expr& e, std::size_t index, const Expr& replacement) {
  return Expr(substitute_node(e.ptr(), index, replacement));
}

std::optional<AffineForm> as_affine(const Expr& e, std::size_t nvars) {
  if (e.linearity() == Linearity::kNonlinear) {
    return std::nullopt;
  }
  // For a structurally affine expression, the gradient is globally constant
  // and the value at the origin is the constant term.
  AffineForm form;
  const linalg::Vector origin(nvars, 0.0);
  const ValGrad vg = eval_grad(e, origin, nvars);
  form.constant = vg.value;
  form.coeffs = vg.grad;
  return form;
}

}  // namespace hslb::expr
