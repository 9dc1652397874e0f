// Infix AMPL-like rendering of expressions, for model dumps and debugging.
#include <sstream>
#include <string>

#include "hslb/common/error.hpp"
#include "hslb/expr/expr.hpp"

namespace hslb::expr {
namespace {

// Precedence levels for parenthesization: higher binds tighter.
int precedence(Op op) {
  switch (op) {
    case Op::kAdd:
      return 1;
    case Op::kNeg:
      return 2;
    case Op::kMul:
    case Op::kDiv:
      return 3;
    case Op::kPow:
      return 4;
    case Op::kConst:
    case Op::kVar:
    case Op::kLog:
    case Op::kExp:
      return 5;
  }
  return 5;
}

std::string render_const(double v) {
  // Shortest representation that still round-trips exactly: try increasing
  // precision until re-parsing reproduces the value.
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream os;
    os.precision(precision);
    os << v;
    if (std::stod(os.str()) == v) {
      return os.str();
    }
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string render(const Node& node);

/// `open + body + close`, built by appending.  (GCC 12 Release builds
/// report a false -Wrestrict overlap on `"literal" + std::string`.)
std::string enclose(const char* open, const std::string& body,
                    const char* close) {
  std::string out = open;
  out += body;
  out += close;
  return out;
}

std::string child(const Node& parent, const Node& kid) {
  if (precedence(kid.op) < precedence(parent.op)) {
    return enclose("(", render(kid), ")");
  }
  return render(kid);
}

std::string render(const Node& node) {
  switch (node.op) {
    case Op::kConst:
      return render_const(node.value);
    case Op::kVar:
      return node.var_name;
    case Op::kAdd: {
      std::string out;
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        const Node& kid = *node.children[i];
        if (i > 0 && kid.op == Op::kNeg) {
          out += " - " + child(node, *kid.children[0]);
        } else {
          if (i > 0) {
            out += " + ";
          }
          out += child(node, kid);
        }
      }
      return out;
    }
    case Op::kMul:
      return child(node, *node.children[0]) + " * " +
             child(node, *node.children[1]);
    case Op::kDiv:
      return child(node, *node.children[0]) + " / " +
             child(node, *node.children[1]);
    case Op::kPow:
      return child(node, *node.children[0]) + "^" + render_const(node.value);
    case Op::kNeg:
      return enclose("-", child(node, *node.children[0]), "");
    case Op::kLog:
      return enclose("log(", render(*node.children[0]), ")");
    case Op::kExp:
      return enclose("exp(", render(*node.children[0]), ")");
  }
  throw InternalError("unhandled expression op in printer");
}

}  // namespace

std::string to_string(const Expr& e) {
  return render(e.node());
}

}  // namespace hslb::expr
