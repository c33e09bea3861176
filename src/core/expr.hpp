#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/value.hpp"

namespace kl::core {

/// Name resolution interface for expression evaluation. A kernel launch
/// provides parameters (from the selected configuration), scalar kernel
/// arguments, and the problem size; partial contexts (e.g. restriction
/// checking, which has no arguments) simply leave lookups unresolved.
class EvalContext {
  public:
    virtual ~EvalContext() = default;

    virtual std::optional<Value> param(const std::string& /*name*/) const {
        return std::nullopt;
    }
    virtual std::optional<Value> argument(size_t /*index*/) const {
        return std::nullopt;
    }
    virtual std::optional<Value> problem_size(size_t /*axis*/) const {
        return std::nullopt;
    }
};

enum class BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    DivCeil,
    Min,
    Max,
};

enum class UnaryOp { Not, Neg };

/// An immutable, serializable expression over tunable parameters, kernel
/// arguments, and the problem size. This is the glue of a tunable kernel
/// definition: block sizes, grid divisors, template arguments, preprocessor
/// definitions, and search-space restrictions are all Exprs, evaluated when
/// a configuration and concrete arguments are known. Expressions serialize
/// to JSON as part of kernel captures and deserialize bit-identically.
class Expr {
  public:
    /// Implementation node; defined in expr.cpp.
    struct Node;

    /// Default-constructed expression is the constant 0.
    Expr(): Expr(Value(int64_t {0})) {}
    /*implicit*/ Expr(Value constant);
    /*implicit*/ Expr(bool v): Expr(Value(v)) {}
    /*implicit*/ Expr(int v): Expr(Value(v)) {}
    /*implicit*/ Expr(unsigned v): Expr(Value(v)) {}
    /*implicit*/ Expr(long v): Expr(Value(v)) {}
    /*implicit*/ Expr(long long v): Expr(Value(v)) {}
    /*implicit*/ Expr(double v): Expr(Value(v)) {}
    /*implicit*/ Expr(const char* v): Expr(Value(v)) {}
    /*implicit*/ Expr(const std::string& v): Expr(Value(v)) {}

    /// Reference to a tunable parameter by name.
    static Expr param(std::string name);
    /// Reference to the `index`-th kernel argument (scalars only).
    static Expr arg(size_t index);
    /// Reference to one axis of the problem size (0=x, 1=y, 2=z).
    static Expr problem(size_t axis);

    static Expr binary(BinaryOp op, Expr lhs, Expr rhs);
    static Expr unary(UnaryOp op, Expr operand);
    /// Ternary conditional: cond ? if_true : if_false (eagerly evaluated).
    static Expr select(Expr cond, Expr if_true, Expr if_false);

    /// Evaluates the expression. Throws kl::Error when a reference cannot
    /// be resolved by the context.
    Value eval(const EvalContext& ctx) const;

    /// True when the expression contains no references at all.
    bool is_constant() const;

    /// Adds every referenced parameter name to `out`.
    void collect_params(std::set<std::string>& out) const;

    /// Adds every referenced kernel-argument index to `out`.
    void collect_args(std::set<size_t>& out) const;

    std::string to_string() const;

    json::Value to_json() const;
    static Expr from_json(const json::Value& v);

  private:
    explicit Expr(std::shared_ptr<const Node> node): node_(std::move(node)) {}
    std::shared_ptr<const Node> node_;
};

// Operator sugar. Both operands convert implicitly from values.
Expr operator+(Expr a, Expr b);
Expr operator-(Expr a, Expr b);
Expr operator*(Expr a, Expr b);
Expr operator/(Expr a, Expr b);
Expr operator%(Expr a, Expr b);
Expr operator==(Expr a, Expr b);
Expr operator!=(Expr a, Expr b);
Expr operator<(Expr a, Expr b);
Expr operator<=(Expr a, Expr b);
Expr operator>(Expr a, Expr b);
Expr operator>=(Expr a, Expr b);
Expr operator&&(Expr a, Expr b);
Expr operator||(Expr a, Expr b);
Expr operator!(Expr a);
Expr operator-(Expr a);

Expr div_ceil(Expr a, Expr b);
Expr min(Expr a, Expr b);
Expr max(Expr a, Expr b);

/// Shorthand argument references, mirroring the paper's `kl::arg3` usage.
inline const Expr arg0 = Expr::arg(0);
inline const Expr arg1 = Expr::arg(1);
inline const Expr arg2 = Expr::arg(2);
inline const Expr arg3 = Expr::arg(3);
inline const Expr arg4 = Expr::arg(4);
inline const Expr arg5 = Expr::arg(5);
inline const Expr arg6 = Expr::arg(6);
inline const Expr arg7 = Expr::arg(7);

/// Problem-size axis references for use inside definitions.
inline const Expr problem_x = Expr::problem(0);
inline const Expr problem_y = Expr::problem(1);
inline const Expr problem_z = Expr::problem(2);

}  // namespace kl::core
