#include "core/expr_parser.hpp"

#include <cctype>
#include <charconv>
#include <string>
#include <vector>

#include "util/errors.hpp"

namespace kl::core {

namespace {

struct Token {
    enum class Kind { Int, Float, String, Ident, Op, End };
    Kind kind = Kind::End;
    std::string text;
    int64_t int_value = 0;
    double float_value = 0;
    size_t position = 0;
};

class Lexer {
  public:
    explicit Lexer(std::string_view text): text_(text) {
        advance();
    }

    const Token& peek() const {
        return current_;
    }

    Token take() {
        Token t = current_;
        advance();
        return t;
    }

    [[noreturn]] void fail(const std::string& what) const {
        throw Error(
            "expression parse error at position " + std::to_string(current_.position)
            + ": " + what + " (input: '" + std::string(text_) + "')");
    }

  private:
    void advance() {
        while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            pos_++;
        }
        current_ = Token {};
        current_.position = pos_;
        if (pos_ >= text_.size()) {
            current_.kind = Token::Kind::End;
            return;
        }
        char c = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(c))) {
            lex_number();
            return;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = pos_;
            while (pos_ < text_.size()
                   && (std::isalnum(static_cast<unsigned char>(text_[pos_]))
                       || text_[pos_] == '_')) {
                pos_++;
            }
            current_.kind = Token::Kind::Ident;
            current_.text = std::string(text_.substr(start, pos_ - start));
            return;
        }
        if (c == '"' || c == '\'') {
            char quote = c;
            pos_++;
            size_t start = pos_;
            while (pos_ < text_.size() && text_[pos_] != quote) {
                pos_++;
            }
            if (pos_ >= text_.size()) {
                current_.position = pos_;
                throw Error(
                    "expression parse error: unterminated string literal in '"
                    + std::string(text_) + "'");
            }
            current_.kind = Token::Kind::String;
            current_.text = std::string(text_.substr(start, pos_ - start));
            pos_++;
            return;
        }
        // Multi-character operators first.
        static constexpr std::string_view two_char[] = {"<=", ">=", "==", "!=", "&&", "||"};
        for (std::string_view op : two_char) {
            if (text_.substr(pos_, 2) == op) {
                current_.kind = Token::Kind::Op;
                current_.text = std::string(op);
                pos_ += 2;
                return;
            }
        }
        static constexpr char one_char[] = "+-*/%<>!?:(),";
        for (char op : one_char) {
            if (c == op) {
                current_.kind = Token::Kind::Op;
                current_.text = std::string(1, c);
                pos_++;
                return;
            }
        }
        throw Error(
            "expression parse error: unexpected character '" + std::string(1, c)
            + "' in '" + std::string(text_) + "'");
    }

    void lex_number() {
        size_t start = pos_;
        bool is_float = false;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                pos_++;
            } else if (c == '.' || c == 'e' || c == 'E') {
                is_float = true;
                pos_++;
                if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')
                    && (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')) {
                    pos_++;
                }
            } else {
                break;
            }
        }
        std::string_view token = text_.substr(start, pos_ - start);
        if (is_float) {
            current_.kind = Token::Kind::Float;
            auto [p, ec] =
                std::from_chars(token.data(), token.data() + token.size(), current_.float_value);
            if (ec != std::errc()) {
                throw Error("expression parse error: bad number '" + std::string(token) + "'");
            }
        } else {
            current_.kind = Token::Kind::Int;
            auto [p, ec] =
                std::from_chars(token.data(), token.data() + token.size(), current_.int_value);
            if (ec != std::errc()) {
                throw Error("expression parse error: bad number '" + std::string(token) + "'");
            }
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
    Token current_;
};

class Parser {
  public:
    explicit Parser(std::string_view text): lexer_(text) {}

    Expr parse() {
        Expr e = ternary();
        if (lexer_.peek().kind != Token::Kind::End) {
            lexer_.fail("trailing input '" + lexer_.peek().text + "'");
        }
        return e;
    }

  private:
    Lexer lexer_;

    bool accept_op(std::string_view op) {
        if (lexer_.peek().kind == Token::Kind::Op && lexer_.peek().text == op) {
            lexer_.take();
            return true;
        }
        return false;
    }

    void expect_op(std::string_view op) {
        if (!accept_op(op)) {
            lexer_.fail("expected '" + std::string(op) + "'");
        }
    }

    Expr ternary() {
        Expr cond = logical_or();
        if (accept_op("?")) {
            Expr if_true = ternary();
            expect_op(":");
            Expr if_false = ternary();
            return Expr::select(std::move(cond), std::move(if_true), std::move(if_false));
        }
        return cond;
    }

    Expr logical_or() {
        Expr lhs = logical_and();
        while (accept_op("||")) {
            lhs = std::move(lhs) || logical_and();
        }
        return lhs;
    }

    Expr logical_and() {
        Expr lhs = comparison();
        while (accept_op("&&")) {
            lhs = std::move(lhs) && comparison();
        }
        return lhs;
    }

    Expr comparison() {
        Expr lhs = additive();
        while (true) {
            if (accept_op("<=")) {
                lhs = std::move(lhs) <= additive();
            } else if (accept_op(">=")) {
                lhs = std::move(lhs) >= additive();
            } else if (accept_op("==")) {
                lhs = std::move(lhs) == additive();
            } else if (accept_op("!=")) {
                lhs = std::move(lhs) != additive();
            } else if (accept_op("<")) {
                lhs = std::move(lhs) < additive();
            } else if (accept_op(">")) {
                lhs = std::move(lhs) > additive();
            } else {
                return lhs;
            }
        }
    }

    Expr additive() {
        Expr lhs = multiplicative();
        while (true) {
            if (accept_op("+")) {
                lhs = std::move(lhs) + multiplicative();
            } else if (accept_op("-")) {
                lhs = std::move(lhs) - multiplicative();
            } else {
                return lhs;
            }
        }
    }

    Expr multiplicative() {
        Expr lhs = unary();
        while (true) {
            if (accept_op("*")) {
                lhs = std::move(lhs) * unary();
            } else if (accept_op("/")) {
                lhs = std::move(lhs) / unary();
            } else if (accept_op("%")) {
                lhs = std::move(lhs) % unary();
            } else {
                return lhs;
            }
        }
    }

    Expr unary() {
        if (accept_op("-")) {
            return -unary();
        }
        if (accept_op("!")) {
            return !unary();
        }
        return primary();
    }

    Expr primary() {
        const Token& t = lexer_.peek();
        switch (t.kind) {
            case Token::Kind::Int: {
                int64_t v = lexer_.take().int_value;
                return Expr(Value(v));
            }
            case Token::Kind::Float: {
                double v = lexer_.take().float_value;
                return Expr(Value(v));
            }
            case Token::Kind::String: {
                std::string v = lexer_.take().text;
                return Expr(Value(std::move(v)));
            }
            case Token::Kind::Ident:
                return identifier();
            case Token::Kind::Op:
                if (t.text == "(") {
                    lexer_.take();
                    Expr inner = ternary();
                    expect_op(")");
                    return inner;
                }
                lexer_.fail("unexpected operator '" + t.text + "'");
            case Token::Kind::End:
                lexer_.fail("unexpected end of expression");
        }
        lexer_.fail("unexpected token");
    }

    Expr identifier() {
        Token t = lexer_.take();
        const std::string& name = t.text;

        if (name == "true") {
            return Expr(Value(true));
        }
        if (name == "false") {
            return Expr(Value(false));
        }

        // Builtin calls.
        if (lexer_.peek().kind == Token::Kind::Op && lexer_.peek().text == "(") {
            lexer_.take();
            std::vector<Expr> args;
            if (!(lexer_.peek().kind == Token::Kind::Op && lexer_.peek().text == ")")) {
                args.push_back(ternary());
                while (accept_op(",")) {
                    args.push_back(ternary());
                }
            }
            expect_op(")");
            if (name == "div_ceil" && args.size() == 2) {
                return div_ceil(std::move(args[0]), std::move(args[1]));
            }
            if (name == "min" && args.size() == 2) {
                return min(std::move(args[0]), std::move(args[1]));
            }
            if (name == "max" && args.size() == 2) {
                return max(std::move(args[0]), std::move(args[1]));
            }
            lexer_.fail(
                "unknown function '" + name + "' with " + std::to_string(args.size())
                + " arguments");
        }

        // argN references.
        if (name.size() > 3 && name.rfind("arg", 0) == 0) {
            size_t index = 0;
            auto [p, ec] =
                std::from_chars(name.data() + 3, name.data() + name.size(), index);
            if (ec == std::errc() && p == name.data() + name.size()) {
                return Expr::arg(index);
            }
        }

        // Problem-size axes.
        if (name == "problem_size_x" || name == "problem_x") {
            return problem_x;
        }
        if (name == "problem_size_y" || name == "problem_y") {
            return problem_y;
        }
        if (name == "problem_size_z" || name == "problem_z") {
            return problem_z;
        }

        // Everything else is a tunable-parameter reference.
        return Expr::param(name);
    }
};

}  // namespace

Expr parse_expr(std::string_view text) {
    return Parser(text).parse();
}

}  // namespace kl::core
