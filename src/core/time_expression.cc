#include "core/time_expression.h"

#include <cctype>

namespace hgdb {

namespace {

void SkipSpace(const std::string& s, size_t* pos) {
  while (*pos < s.size() && std::isspace(static_cast<unsigned char>(s[*pos]))) {
    ++*pos;
  }
}

bool Eat(const std::string& s, size_t* pos, char c) {
  SkipSpace(s, pos);
  if (*pos < s.size() && s[*pos] == c) {
    ++*pos;
    return true;
  }
  return false;
}

}  // namespace

// expr := and ('|' and)*
Status TimeExpression::ParseOr(const std::string& s, size_t* pos, size_t num_vars,
                               std::unique_ptr<Node>* out) {
  std::unique_ptr<Node> lhs;
  HG_RETURN_NOT_OK(ParseAnd(s, pos, num_vars, &lhs));
  while (Eat(s, pos, '|')) {
    std::unique_ptr<Node> rhs;
    HG_RETURN_NOT_OK(ParseAnd(s, pos, num_vars, &rhs));
    auto node = std::make_unique<Node>();
    node->op = Node::Op::kOr;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    lhs = std::move(node);
  }
  *out = std::move(lhs);
  return Status::OK();
}

// and := factor ('&' factor)*
Status TimeExpression::ParseAnd(const std::string& s, size_t* pos, size_t num_vars,
                                std::unique_ptr<Node>* out) {
  std::unique_ptr<Node> lhs;
  HG_RETURN_NOT_OK(ParseFactor(s, pos, num_vars, &lhs));
  while (Eat(s, pos, '&')) {
    std::unique_ptr<Node> rhs;
    HG_RETURN_NOT_OK(ParseFactor(s, pos, num_vars, &rhs));
    auto node = std::make_unique<Node>();
    node->op = Node::Op::kAnd;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    lhs = std::move(node);
  }
  *out = std::move(lhs);
  return Status::OK();
}

// factor := '!' factor | '(' expr ')' | 't' digits
Status TimeExpression::ParseFactor(const std::string& s, size_t* pos, size_t num_vars,
                                   std::unique_ptr<Node>* out) {
  SkipSpace(s, pos);
  if (Eat(s, pos, '!')) {
    std::unique_ptr<Node> inner;
    HG_RETURN_NOT_OK(ParseFactor(s, pos, num_vars, &inner));
    auto node = std::make_unique<Node>();
    node->op = Node::Op::kNot;
    node->lhs = std::move(inner);
    *out = std::move(node);
    return Status::OK();
  }
  if (Eat(s, pos, '(')) {
    HG_RETURN_NOT_OK(ParseOr(s, pos, num_vars, out));
    if (!Eat(s, pos, ')')) {
      return Status::InvalidArgument("time expression: missing ')'");
    }
    return Status::OK();
  }
  if (Eat(s, pos, 't')) {
    size_t start = *pos;
    int value = 0;
    while (*pos < s.size() && std::isdigit(static_cast<unsigned char>(s[*pos]))) {
      value = value * 10 + (s[*pos] - '0');
      ++*pos;
    }
    if (*pos == start) {
      return Status::InvalidArgument("time expression: expected digits after 't'");
    }
    if (static_cast<size_t>(value) >= num_vars) {
      return Status::InvalidArgument("time expression: t" + std::to_string(value) +
                                     " out of range (have " +
                                     std::to_string(num_vars) + " time points)");
    }
    auto node = std::make_unique<Node>();
    node->op = Node::Op::kVar;
    node->var = value;
    *out = std::move(node);
    return Status::OK();
  }
  return Status::InvalidArgument("time expression: unexpected input at position " +
                                 std::to_string(*pos));
}

Result<TimeExpression> TimeExpression::Parse(std::vector<Timestamp> times,
                                             const std::string& formula) {
  TimeExpression expr;
  expr.times_ = std::move(times);
  size_t pos = 0;
  std::unique_ptr<Node> root;
  HG_RETURN_NOT_OK(ParseOr(formula, &pos, expr.times_.size(), &root));
  SkipSpace(formula, &pos);
  if (pos != formula.size()) {
    return Status::InvalidArgument("time expression: trailing input at position " +
                                   std::to_string(pos));
  }
  expr.root_ = std::shared_ptr<Node>(root.release());
  return expr;
}

bool TimeExpression::Eval(const Node& n, const std::vector<bool>& membership) {
  switch (n.op) {
    case Node::Op::kVar:
      return membership[static_cast<size_t>(n.var)];
    case Node::Op::kAnd:
      return Eval(*n.lhs, membership) && Eval(*n.rhs, membership);
    case Node::Op::kOr:
      return Eval(*n.lhs, membership) || Eval(*n.rhs, membership);
    case Node::Op::kNot:
      return !Eval(*n.lhs, membership);
  }
  return false;
}

std::string TimeExpression::Render(const Node& n) {
  // Appended piecewise: GCC 12 misreports `"lit" + std::string&&` under
  // -Wrestrict.
  std::string out;
  switch (n.op) {
    case Node::Op::kVar:
      return out.append("t").append(std::to_string(n.var));
    case Node::Op::kAnd:
    case Node::Op::kOr:
      return out.append("(")
          .append(Render(*n.lhs))
          .append(n.op == Node::Op::kAnd ? " & " : " | ")
          .append(Render(*n.rhs))
          .append(")");
    case Node::Op::kNot:
      return out.append("!").append(Render(*n.lhs));
  }
  return "?";
}

bool TimeExpression::Evaluate(const std::vector<bool>& membership) const {
  if (!root_ || membership.size() < times_.size()) return false;
  return Eval(*root_, membership);
}

std::string TimeExpression::ToString() const {
  return root_ ? Render(*root_) : "<empty>";
}

}  // namespace hgdb
