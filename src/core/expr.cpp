#include "core/expr.hpp"

#include <algorithm>
#include <functional>

#include "util/errors.hpp"

namespace kl::core {

struct Expr::Node {
    enum class Kind { Const, Param, Arg, Problem, Binary, Unary, Select };

    Kind kind = Kind::Const;
    Value constant;
    std::string name;
    size_t index = 0;
    BinaryOp bop = BinaryOp::Add;
    UnaryOp uop = UnaryOp::Not;
    std::shared_ptr<const Node> a, b, c;
};

namespace {

const char* binary_op_name(BinaryOp op) {
    switch (op) {
        case BinaryOp::Add:
            return "+";
        case BinaryOp::Sub:
            return "-";
        case BinaryOp::Mul:
            return "*";
        case BinaryOp::Div:
            return "/";
        case BinaryOp::Mod:
            return "%";
        case BinaryOp::Eq:
            return "==";
        case BinaryOp::Ne:
            return "!=";
        case BinaryOp::Lt:
            return "<";
        case BinaryOp::Le:
            return "<=";
        case BinaryOp::Gt:
            return ">";
        case BinaryOp::Ge:
            return ">=";
        case BinaryOp::And:
            return "&&";
        case BinaryOp::Or:
            return "||";
        case BinaryOp::DivCeil:
            return "div_ceil";
        case BinaryOp::Min:
            return "min";
        case BinaryOp::Max:
            return "max";
    }
    return "?";
}

std::optional<BinaryOp> binary_op_from_name(const std::string& name) {
    static const std::pair<const char*, BinaryOp> table[] = {
        {"+", BinaryOp::Add},        {"-", BinaryOp::Sub},
        {"*", BinaryOp::Mul},        {"/", BinaryOp::Div},
        {"%", BinaryOp::Mod},        {"==", BinaryOp::Eq},
        {"!=", BinaryOp::Ne},        {"<", BinaryOp::Lt},
        {"<=", BinaryOp::Le},        {">", BinaryOp::Gt},
        {">=", BinaryOp::Ge},        {"&&", BinaryOp::And},
        {"||", BinaryOp::Or},        {"div_ceil", BinaryOp::DivCeil},
        {"min", BinaryOp::Min},      {"max", BinaryOp::Max},
    };
    for (const auto& [text, op] : table) {
        if (name == text) {
            return op;
        }
    }
    return std::nullopt;
}

Value eval_binary(BinaryOp op, const Value& a, const Value& b) {
    switch (op) {
        case BinaryOp::Add:
            return a + b;
        case BinaryOp::Sub:
            return a - b;
        case BinaryOp::Mul:
            return a * b;
        case BinaryOp::Div:
            return a / b;
        case BinaryOp::Mod:
            return a % b;
        case BinaryOp::Eq:
            return Value(a == b);
        case BinaryOp::Ne:
            return Value(a != b);
        case BinaryOp::Lt:
            return Value(a < b);
        case BinaryOp::Le:
            return Value(!(b < a));
        case BinaryOp::Gt:
            return Value(b < a);
        case BinaryOp::Ge:
            return Value(!(a < b));
        case BinaryOp::And:
            return Value(a.truthy() && b.truthy());
        case BinaryOp::Or:
            return Value(a.truthy() || b.truthy());
        case BinaryOp::DivCeil:
            return div_ceil(a, b);
        case BinaryOp::Min:
            return b < a ? b : a;
        case BinaryOp::Max:
            return a < b ? b : a;
    }
    throw Error("unknown binary operator");
}

}  // namespace

Expr::Expr(Value constant) {
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::Const;
    node->constant = std::move(constant);
    node_ = std::move(node);
}

Expr Expr::param(std::string name) {
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::Param;
    node->name = std::move(name);
    return Expr(std::move(node));
}

Expr Expr::arg(size_t index) {
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::Arg;
    node->index = index;
    return Expr(std::move(node));
}

Expr Expr::problem(size_t axis) {
    if (axis > 2) {
        throw Error("problem-size axis out of range (0..2)");
    }
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::Problem;
    node->index = axis;
    return Expr(std::move(node));
}

Expr Expr::binary(BinaryOp op, Expr lhs, Expr rhs) {
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::Binary;
    node->bop = op;
    node->a = lhs.node_;
    node->b = rhs.node_;
    return Expr(std::move(node));
}

Expr Expr::unary(UnaryOp op, Expr operand) {
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::Unary;
    node->uop = op;
    node->a = operand.node_;
    return Expr(std::move(node));
}

Expr Expr::select(Expr cond, Expr if_true, Expr if_false) {
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::Select;
    node->a = cond.node_;
    node->b = if_true.node_;
    node->c = if_false.node_;
    return Expr(std::move(node));
}

namespace {

Value eval_node(const Expr::Node& node, const EvalContext& ctx);

Value eval_child(const std::shared_ptr<const Expr::Node>& node, const EvalContext& ctx) {
    return eval_node(*node, ctx);
}

Value eval_node(const Expr::Node& node, const EvalContext& ctx) {
    using Kind = Expr::Node::Kind;
    switch (node.kind) {
        case Kind::Const:
            return node.constant;
        case Kind::Param: {
            std::optional<Value> v = ctx.param(node.name);
            if (!v.has_value()) {
                throw Error("unresolved tunable parameter '" + node.name + "' in expression");
            }
            return *v;
        }
        case Kind::Arg: {
            std::optional<Value> v = ctx.argument(node.index);
            if (!v.has_value()) {
                throw Error(
                    "unresolved kernel argument #" + std::to_string(node.index)
                    + " in expression (is it a scalar?)");
            }
            return *v;
        }
        case Kind::Problem: {
            std::optional<Value> v = ctx.problem_size(node.index);
            if (!v.has_value()) {
                throw Error(
                    "unresolved problem-size axis " + std::to_string(node.index)
                    + " in expression");
            }
            return *v;
        }
        case Kind::Binary:
            return eval_binary(node.bop, eval_child(node.a, ctx), eval_child(node.b, ctx));
        case Kind::Unary: {
            Value v = eval_child(node.a, ctx);
            if (node.uop == UnaryOp::Not) {
                return Value(!v.truthy());
            }
            return Value(int64_t {0}) - v;
        }
        case Kind::Select:
            return eval_child(node.a, ctx).truthy() ? eval_child(node.b, ctx)
                                                    : eval_child(node.c, ctx);
    }
    throw Error("corrupt expression node");
}

void walk(
    const Expr::Node& node,
    const std::function<void(const Expr::Node&)>& visit) {
    visit(node);
    for (const auto& child : {node.a, node.b, node.c}) {
        if (child != nullptr) {
            walk(*child, visit);
        }
    }
}

}  // namespace

Value Expr::eval(const EvalContext& ctx) const {
    return eval_node(*node_, ctx);
}

bool Expr::is_constant() const {
    bool constant = true;
    walk(*node_, [&](const Node& n) {
        if (n.kind == Node::Kind::Param || n.kind == Node::Kind::Arg
            || n.kind == Node::Kind::Problem) {
            constant = false;
        }
    });
    return constant;
}

void Expr::collect_params(std::set<std::string>& out) const {
    walk(*node_, [&](const Node& n) {
        if (n.kind == Node::Kind::Param) {
            out.insert(n.name);
        }
    });
}

void Expr::collect_args(std::set<size_t>& out) const {
    walk(*node_, [&](const Node& n) {
        if (n.kind == Node::Kind::Arg) {
            out.insert(n.index);
        }
    });
}

std::string Expr::to_string() const {
    using Kind = Node::Kind;
    const Node& n = *node_;
    switch (n.kind) {
        case Kind::Const:
            return n.constant.to_string();
        case Kind::Param:
            return n.name;
        case Kind::Arg:
            return "arg" + std::to_string(n.index);
        case Kind::Problem:
            return "problem_size[" + std::to_string(n.index) + "]";
        case Kind::Binary: {
            std::string op = binary_op_name(n.bop);
            std::string lhs = Expr(n.a).to_string();
            std::string rhs = Expr(n.b).to_string();
            if (n.bop == BinaryOp::DivCeil || n.bop == BinaryOp::Min
                || n.bop == BinaryOp::Max) {
                return op + "(" + lhs + ", " + rhs + ")";
            }
            return "(" + lhs + " " + op + " " + rhs + ")";
        }
        case Kind::Unary: {
            std::string out = n.uop == UnaryOp::Not ? "!" : "-";
            out += Expr(n.a).to_string();
            return out;
        }
        case Kind::Select: {
            std::string out = "(";
            out += Expr(n.a).to_string();
            out += " ? ";
            out += Expr(n.b).to_string();
            out += " : ";
            out += Expr(n.c).to_string();
            out += ')';
            return out;
        }
    }
    return "?";
}

json::Value Expr::to_json() const {
    using Kind = Node::Kind;
    const Node& n = *node_;
    json::Value out = json::Value::object();
    switch (n.kind) {
        case Kind::Const:
            out["op"] = "const";
            out["value"] = n.constant.to_json();
            return out;
        case Kind::Param:
            out["op"] = "param";
            out["name"] = n.name;
            return out;
        case Kind::Arg:
            out["op"] = "arg";
            out["index"] = static_cast<int64_t>(n.index);
            return out;
        case Kind::Problem:
            out["op"] = "problem";
            out["axis"] = static_cast<int64_t>(n.index);
            return out;
        case Kind::Binary: {
            out["op"] = binary_op_name(n.bop);
            json::Value args = json::Value::array();
            args.push_back(Expr(n.a).to_json());
            args.push_back(Expr(n.b).to_json());
            out["args"] = std::move(args);
            return out;
        }
        case Kind::Unary: {
            out["op"] = n.uop == UnaryOp::Not ? "!" : "neg";
            json::Value args = json::Value::array();
            args.push_back(Expr(n.a).to_json());
            out["args"] = std::move(args);
            return out;
        }
        case Kind::Select: {
            out["op"] = "select";
            json::Value args = json::Value::array();
            args.push_back(Expr(n.a).to_json());
            args.push_back(Expr(n.b).to_json());
            args.push_back(Expr(n.c).to_json());
            out["args"] = std::move(args);
            return out;
        }
    }
    throw Error("corrupt expression node");
}

Expr Expr::from_json(const json::Value& v) {
    const std::string& op = v["op"].as_string();
    if (op == "const") {
        return Expr(Value::from_json(v["value"]));
    }
    if (op == "param") {
        return Expr::param(v["name"].as_string());
    }
    if (op == "arg") {
        return Expr::arg(static_cast<size_t>(v["index"].as_int()));
    }
    if (op == "problem") {
        return Expr::problem(static_cast<size_t>(v["axis"].as_int()));
    }
    if (op == "!") {
        return Expr::unary(UnaryOp::Not, Expr::from_json(v["args"].at(0)));
    }
    if (op == "neg") {
        return Expr::unary(UnaryOp::Neg, Expr::from_json(v["args"].at(0)));
    }
    if (op == "select") {
        return Expr::select(
            Expr::from_json(v["args"].at(0)),
            Expr::from_json(v["args"].at(1)),
            Expr::from_json(v["args"].at(2)));
    }
    if (std::optional<BinaryOp> bop = binary_op_from_name(op); bop.has_value()) {
        return Expr::binary(
            *bop, Expr::from_json(v["args"].at(0)), Expr::from_json(v["args"].at(1)));
    }
    throw Error("unknown expression operator in JSON: '" + op + "'");
}

Expr operator+(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Add, std::move(a), std::move(b));
}
Expr operator-(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Sub, std::move(a), std::move(b));
}
Expr operator*(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Mul, std::move(a), std::move(b));
}
Expr operator/(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Div, std::move(a), std::move(b));
}
Expr operator%(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Mod, std::move(a), std::move(b));
}
Expr operator==(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Eq, std::move(a), std::move(b));
}
Expr operator!=(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Ne, std::move(a), std::move(b));
}
Expr operator<(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Lt, std::move(a), std::move(b));
}
Expr operator<=(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Le, std::move(a), std::move(b));
}
Expr operator>(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Gt, std::move(a), std::move(b));
}
Expr operator>=(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Ge, std::move(a), std::move(b));
}
Expr operator&&(Expr a, Expr b) {
    return Expr::binary(BinaryOp::And, std::move(a), std::move(b));
}
Expr operator||(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Or, std::move(a), std::move(b));
}
Expr operator!(Expr a) {
    return Expr::unary(UnaryOp::Not, std::move(a));
}
Expr operator-(Expr a) {
    return Expr::unary(UnaryOp::Neg, std::move(a));
}

Expr div_ceil(Expr a, Expr b) {
    return Expr::binary(BinaryOp::DivCeil, std::move(a), std::move(b));
}
Expr min(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Min, std::move(a), std::move(b));
}
Expr max(Expr a, Expr b) {
    return Expr::binary(BinaryOp::Max, std::move(a), std::move(b));
}

}  // namespace kl::core
