// Unit tests for the tunable Value type and the Expr DSL — the glue that
// connects configurations, kernel arguments and launch geometry.

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/expr.hpp"
#include "core/value.hpp"
#include "util/rng.hpp"

namespace kl::core {
namespace {

// --- Value ------------------------------------------------------------

TEST(Value, TypesAndAccessors) {
    EXPECT_EQ(Value(true).as_bool(), true);
    EXPECT_EQ(Value(42).as_int(), 42);
    EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
    EXPECT_EQ(Value("abc").as_string(), "abc");
    EXPECT_THROW(Value(1).as_bool(), Error);
    EXPECT_THROW(Value("x").as_int(), Error);
}

TEST(Value, Coercions) {
    EXPECT_EQ(Value(true).to_int(), 1);
    EXPECT_EQ(Value(3.0).to_int(), 3);
    EXPECT_THROW(Value(3.5).to_int(), Error);
    EXPECT_THROW(Value("s").to_int(), Error);
    EXPECT_DOUBLE_EQ(Value(3).to_double(), 3.0);
}

TEST(Value, Truthiness) {
    EXPECT_FALSE(Value(false).truthy());
    EXPECT_FALSE(Value(0).truthy());
    EXPECT_FALSE(Value(0.0).truthy());
    EXPECT_FALSE(Value("").truthy());
    EXPECT_TRUE(Value(1).truthy());
    EXPECT_TRUE(Value("x").truthy());
}

TEST(Value, DefineRendering) {
    // Booleans must render as 1/0 for the preprocessor, not true/false.
    EXPECT_EQ(Value(true).to_define(), "1");
    EXPECT_EQ(Value(false).to_define(), "0");
    EXPECT_EQ(Value(32).to_define(), "32");
    EXPECT_EQ(Value("XYZ").to_define(), "XYZ");
    EXPECT_EQ(Value(true).to_string(), "true");
}

TEST(Value, Arithmetic) {
    EXPECT_EQ((Value(7) + Value(3)).as_int(), 10);
    EXPECT_EQ((Value(7) - Value(3)).as_int(), 4);
    EXPECT_EQ((Value(7) * Value(3)).as_int(), 21);
    EXPECT_EQ((Value(7) / Value(3)).as_int(), 2);  // integer division
    EXPECT_EQ((Value(7) % Value(3)).as_int(), 1);
    EXPECT_DOUBLE_EQ((Value(7) / Value(2.0)).as_double(), 3.5);
    EXPECT_EQ((Value(std::string("a")) + Value("b")).as_string(), "ab");
    EXPECT_EQ((Value(true) + Value(true)).as_int(), 2);  // bool promotes
}

TEST(Value, DivisionByZeroThrows) {
    EXPECT_THROW(Value(1) / Value(0), Error);
    EXPECT_THROW(Value(1.0) / Value(0.0), Error);
    EXPECT_THROW(Value(1) % Value(0), Error);
}

TEST(Value, DivCeil) {
    EXPECT_EQ(div_ceil(Value(10), Value(3)).as_int(), 4);
    EXPECT_EQ(div_ceil(Value(9), Value(3)).as_int(), 3);
    EXPECT_EQ(div_ceil(Value(0), Value(3)).as_int(), 0);
    EXPECT_THROW(div_ceil(Value(1), Value(0)), Error);
    EXPECT_THROW(div_ceil(Value(1), Value(-2)), Error);
}

TEST(Value, Ordering) {
    EXPECT_LT(Value(1), Value(2));
    EXPECT_LT(Value(1), Value(1.5));
    EXPECT_LT(Value("a"), Value("b"));
    EXPECT_LT(Value(99), Value("a"));  // numbers before strings
}

TEST(Value, JsonRoundTrip) {
    for (const Value& v :
         {Value(true), Value(false), Value(-7), Value(1.25), Value("XYZ")}) {
        EXPECT_EQ(Value::from_json(v.to_json()), v);
    }
    EXPECT_THROW(Value::from_json(json::parse("[1]")), Error);
}

// --- Expr ---------------------------------------------------------------

/// Test evaluation context with fixed params/args/problem.
class FakeContext: public EvalContext {
  public:
    std::optional<Value> param(const std::string& name) const override {
        if (name == "bx") {
            return Value(32);
        }
        if (name == "unroll") {
            return Value(true);
        }
        if (name == "order") {
            return Value("ZXY");
        }
        return std::nullopt;
    }
    std::optional<Value> argument(size_t index) const override {
        if (index == 3) {
            return Value(1000);
        }
        return std::nullopt;
    }
    std::optional<Value> problem_size(size_t axis) const override {
        return Value(static_cast<int64_t>(256 >> axis));
    }
};

TEST(Expr, Constants) {
    EXPECT_EQ(Expr(5).eval(FakeContext()).as_int(), 5);
    EXPECT_TRUE(Expr(5).is_constant());
    EXPECT_EQ(Expr().eval(FakeContext()).as_int(), 0);  // default is 0
}

TEST(Expr, References) {
    FakeContext ctx;
    EXPECT_EQ(Expr::param("bx").eval(ctx).as_int(), 32);
    EXPECT_EQ(arg3.eval(ctx).as_int(), 1000);
    EXPECT_EQ(problem_x.eval(ctx).as_int(), 256);
    EXPECT_EQ(problem_y.eval(ctx).as_int(), 128);
    EXPECT_EQ(problem_z.eval(ctx).as_int(), 64);
    EXPECT_FALSE(Expr::param("bx").is_constant());
}

TEST(Expr, UnresolvedReferencesThrow) {
    FakeContext ctx;
    EXPECT_THROW(Expr::param("nope").eval(ctx), Error);
    EXPECT_THROW(Expr::arg(9).eval(ctx), Error);
    EXPECT_THROW(Expr::problem(3), Error);  // invalid axis at construction
}

TEST(Expr, Arithmetic) {
    FakeContext ctx;
    Expr bx = Expr::param("bx");
    EXPECT_EQ((bx * 2 + 1).eval(ctx).as_int(), 65);
    EXPECT_EQ((bx - 33).eval(ctx).as_int(), -1);
    EXPECT_EQ((bx / 5).eval(ctx).as_int(), 6);
    EXPECT_EQ((bx % 5).eval(ctx).as_int(), 2);
    EXPECT_EQ((-bx).eval(ctx).as_int(), -32);
    EXPECT_EQ(div_ceil(problem_x, bx).eval(ctx).as_int(), 8);
    EXPECT_EQ(min(bx, Expr(5)).eval(ctx).as_int(), 5);
    EXPECT_EQ(max(bx, Expr(5)).eval(ctx).as_int(), 32);
}

TEST(Expr, ComparisonsAndLogic) {
    FakeContext ctx;
    Expr bx = Expr::param("bx");
    EXPECT_TRUE((bx == 32).eval(ctx).truthy());
    EXPECT_TRUE((bx != 31).eval(ctx).truthy());
    EXPECT_TRUE((bx < 33).eval(ctx).truthy());
    EXPECT_TRUE((bx <= 32).eval(ctx).truthy());
    EXPECT_TRUE((bx > 31).eval(ctx).truthy());
    EXPECT_TRUE((bx >= 32).eval(ctx).truthy());
    EXPECT_TRUE((bx == 32 && Expr::param("unroll")).eval(ctx).truthy());
    EXPECT_TRUE((bx == 0 || bx == 32).eval(ctx).truthy());
    EXPECT_TRUE((!(bx == 0)).eval(ctx).truthy());
    EXPECT_TRUE((Expr::param("order") == "ZXY").eval(ctx).truthy());
}

TEST(Expr, Select) {
    FakeContext ctx;
    Expr picked = Expr::select(Expr::param("unroll"), Expr(10), Expr(20));
    EXPECT_EQ(picked.eval(ctx).as_int(), 10);
    Expr other = Expr::select(Expr::param("bx") > 100, Expr(10), Expr(20));
    EXPECT_EQ(other.eval(ctx).as_int(), 20);
}

TEST(Expr, CollectParamsAndMaxArg) {
    Expr e = (Expr::param("a") + Expr::param("b")) * Expr::arg(2)
        + Expr::select(Expr::param("c"), Expr::arg(5), problem_x);
    std::set<std::string> params;
    e.collect_params(params);
    EXPECT_EQ(params, (std::set<std::string> {"a", "b", "c"}));
    std::set<size_t> args;
    e.collect_args(args);
    EXPECT_EQ(args, (std::set<size_t> {2, 5}));
    EXPECT_EQ(*args.rbegin(), 5u);
    std::set<size_t> none;
    Expr(1).collect_args(none);
    EXPECT_TRUE(none.empty());
}

TEST(Expr, ToStringIsReadable) {
    Expr e = div_ceil(problem_x, Expr::param("bx") * 2);
    EXPECT_EQ(e.to_string(), "div_ceil(problem_size[0], (bx * 2))");
}

TEST(Expr, JsonRoundTripPreservesSemantics) {
    FakeContext ctx;
    std::vector<Expr> cases = {
        Expr(7),
        Expr(true),
        Expr("ZXY"),
        Expr::param("bx"),
        arg3,
        problem_z,
        Expr::param("bx") * 4 + 1,
        div_ceil(problem_x, Expr::param("bx")),
        Expr::select(Expr::param("unroll"), Expr::param("bx"), Expr(0)),
        !(Expr::param("bx") == 32) || Expr::param("unroll"),
        min(max(Expr::param("bx"), Expr(1)), Expr(1024)),
        -Expr::param("bx") % 7,
    };
    for (const Expr& e : cases) {
        Expr restored = Expr::from_json(e.to_json());
        EXPECT_EQ(restored.eval(ctx), e.eval(ctx)) << e.to_string();
        EXPECT_EQ(restored.to_string(), e.to_string());
    }
}

TEST(Expr, RandomExpressionsRoundTripProperty) {
    // Property: randomly composed expressions survive JSON serialization
    // with identical evaluation results.
    Rng rng(2023);
    FakeContext ctx;
    for (int trial = 0; trial < 200; trial++) {
        Expr e = Expr(static_cast<int>(rng.next_between(1, 9)));
        for (int depth = 0; depth < 6; depth++) {
            Expr operand = rng.next_bool() ? Expr::param("bx")
                                           : Expr(static_cast<int>(rng.next_between(1, 9)));
            switch (rng.next_below(5)) {
                case 0:
                    e = e + operand;
                    break;
                case 1:
                    e = e * operand;
                    break;
                case 2:
                    e = max(e, operand);
                    break;
                case 3:
                    e = div_ceil(e, operand);
                    break;
                default:
                    e = Expr::select(e > operand, e, operand);
            }
        }
        Expr restored = Expr::from_json(e.to_json());
        EXPECT_EQ(restored.eval(ctx), e.eval(ctx));
    }
}

TEST(Expr, UnknownJsonOperatorThrows) {
    EXPECT_THROW(Expr::from_json(json::parse(R"({"op": "frobnicate"})")), Error);
}

}  // namespace
}  // namespace kl::core
