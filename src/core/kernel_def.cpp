#include "core/kernel_def.hpp"

#include <cctype>

#include "nvrtcsim/lexer.hpp"
#include "nvrtcsim/nvrtc.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace kl::core {

KernelSource KernelSource::inline_source(std::string file_name, std::string content) {
    KernelSource source;
    source.file_name_ = std::move(file_name);
    source.content_ = std::move(content);
    source.has_content_ = true;
    return source;
}

std::string KernelSource::read() const {
    if (has_content_) {
        return content_;
    }
    return read_text_file(file_name_);
}

json::Value KernelSource::to_json() const {
    json::Value out = json::Value::object();
    out["file"] = file_name_;
    // Captures must be self-contained: embed the text even for file-backed
    // sources.
    out["content"] = read();
    return out;
}

KernelSource KernelSource::from_json(const json::Value& v) {
    return inline_source(v.get_string_or("file", "<capture>"), v["content"].as_string());
}

std::string KernelParam::to_string() const {
    std::string out = type.empty() ? "?" : type;
    if (is_pointer) {
        out += "*";
    }
    if (!name.empty()) {
        out += " " + name;
    }
    return out;
}

namespace {

/// Splits a parameter list at top-level commas (angle brackets and
/// parentheses nest).
std::vector<std::string> split_params(std::string_view list) {
    std::vector<std::string> out;
    int depth = 0;
    std::string current;
    for (char c : list) {
        if (c == '(' || c == '<' || c == '[') {
            depth++;
        } else if (c == ')' || c == '>' || c == ']') {
            depth--;
        }
        if (c == ',' && depth == 0) {
            out.emplace_back(trim(current));
            current.clear();
        } else {
            current += c;
        }
    }
    std::string_view last = trim(current);
    if (!last.empty()) {
        out.emplace_back(last);
    }
    return out;
}

/// Parses one parameter declaration, e.g. "const real *__restrict__ ut" or
/// "int n". Qualifiers are dropped; the last identifier that is not part of
/// the type is the parameter name.
KernelParam parse_param(std::string_view decl) {
    KernelParam param;
    // (word, seen after the first '*'?) — "const float*" makes the pointee
    // const, but "float* const" only makes the pointer itself const.
    std::vector<std::pair<std::string, bool>> words;
    std::string current;
    for (char c : decl) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
            current += c;
        } else {
            if (!current.empty()) {
                words.emplace_back(current, param.is_pointer);
                current.clear();
            }
            if (c == '*' || c == '[') {
                param.is_pointer = true;
            }
        }
    }
    if (!current.empty()) {
        words.emplace_back(current, param.is_pointer);
    }
    std::vector<std::string> meaningful;
    for (const auto& [w, after_star] : words) {
        if (w == "const" || w == "volatile" || w == "__restrict__" || w == "restrict"
            || w == "struct") {
            param.is_const = param.is_const || (w == "const" && !after_star);
            continue;
        }
        meaningful.push_back(w);
    }
    if (meaningful.empty()) {
        return param;
    }
    if (meaningful.size() == 1) {
        // "float" (unnamed) — treat the sole word as the type.
        param.type = meaningful[0];
        return param;
    }
    param.name = meaningful.back();
    meaningful.pop_back();
    param.type = join(meaningful, " ");
    return param;
}

}  // namespace

std::optional<KernelSignature> parse_kernel_signature(
    const std::string& source,
    const std::string& kernel_name) {
    const std::string code = rtc::strip_comments(source);

    // Find the kernel name as a whole token that is followed by '(' and
    // preceded (somewhere earlier) by __global__.
    size_t global_pos = code.find("__global__");
    if (global_pos == std::string::npos) {
        return std::nullopt;
    }
    size_t search = 0;
    while ((search = code.find(kernel_name, search)) != std::string::npos) {
        const bool boundary_before = search == 0
            || (!std::isalnum(static_cast<unsigned char>(code[search - 1]))
                && code[search - 1] != '_');
        size_t after = search + kernel_name.size();
        const bool boundary_after = after >= code.size()
            || (!std::isalnum(static_cast<unsigned char>(code[after])) && code[after] != '_');
        if (!boundary_before || !boundary_after || search < global_pos) {
            search = after;
            continue;
        }
        // Skip whitespace to the parameter list.
        size_t open = after;
        while (open < code.size()
               && std::isspace(static_cast<unsigned char>(code[open]))) {
            open++;
        }
        if (open >= code.size() || code[open] != '(') {
            search = after;
            continue;
        }
        int depth = 0;
        size_t close = open;
        for (; close < code.size(); close++) {
            if (code[close] == '(') {
                depth++;
            } else if (code[close] == ')') {
                depth--;
                if (depth == 0) {
                    break;
                }
            }
        }
        if (depth != 0) {
            return std::nullopt;
        }
        std::string_view list(code.data() + open + 1, close - open - 1);
        KernelSignature signature;
        if (!trim(list).empty()) {
            for (const std::string& decl : split_params(list)) {
                signature.params.push_back(parse_param(decl));
            }
        }
        signature.line = rtc::identifier_line(source, kernel_name);
        return signature;
    }
    return std::nullopt;
}

std::optional<KernelSignature> read_kernel_signature(const KernelDef& def) {
    try {
        return parse_kernel_signature(def.source.read(), def.name);
    } catch (const kl::Error&) {
        return std::nullopt;
    }
}

namespace {

uint64_t eval_positive(const Expr& expr, const EvalContext& ctx, const char* what) {
    int64_t v = expr.eval(ctx).to_int();
    if (v <= 0) {
        throw Error(
            std::string(what) + " evaluated to non-positive value "
            + std::to_string(v) + " (expression: " + expr.to_string() + ")");
    }
    return static_cast<uint64_t>(v);
}

json::Value exprs3_to_json(const std::array<Expr, 3>& exprs) {
    json::Value out = json::Value::array();
    for (const Expr& e : exprs) {
        out.push_back(e.to_json());
    }
    return out;
}

std::array<Expr, 3> exprs3_from_json(const json::Value& v) {
    std::array<Expr, 3> out {Expr(1), Expr(1), Expr(1)};
    const json::Array& arr = v.as_array();
    for (size_t i = 0; i < arr.size() && i < 3; i++) {
        out[i] = Expr::from_json(arr[i]);
    }
    return out;
}

}  // namespace

json::Value KernelDef::to_json() const {
    json::Value out = json::Value::object();
    out["name"] = name;
    if (!tuning_key.empty()) {
        out["tuning_key"] = tuning_key;
    }
    out["source"] = source.to_json();
    out["space"] = space.to_json();
    out["problem_size"] = exprs3_to_json(problem_size);
    out["block_size"] = exprs3_to_json(block_size);
    if (has_grid_divisors) {
        out["grid_divisors"] = exprs3_to_json(grid_divisors);
    }
    if (has_explicit_grid) {
        out["grid_size"] = exprs3_to_json(grid_size);
    }
    out["shared_memory"] = shared_memory.to_json();
    json::Value targs = json::Value::array();
    for (const Expr& e : template_args) {
        targs.push_back(e.to_json());
    }
    out["template_args"] = std::move(targs);
    json::Value defs = json::Value::array();
    for (const auto& [dname, expr] : defines) {
        json::Value d = json::Value::object();
        d["name"] = dname;
        d["value"] = expr.to_json();
        defs.push_back(std::move(d));
    }
    out["defines"] = std::move(defs);
    json::Value flags = json::Value::array();
    for (const std::string& flag : compiler_flags) {
        flags.push_back(flag);
    }
    out["compiler_flags"] = std::move(flags);
    json::Value outputs = json::Value::array();
    for (size_t index : output_args) {
        outputs.push_back(static_cast<int64_t>(index));
    }
    out["output_args"] = std::move(outputs);
    return out;
}

KernelDef KernelDef::from_json(const json::Value& v) {
    KernelDef def;
    def.name = v["name"].as_string();
    def.tuning_key = v.get_string_or("tuning_key", "");
    def.source = KernelSource::from_json(v["source"]);
    def.space = ConfigSpace::from_json(v["space"]);
    def.problem_size = exprs3_from_json(v["problem_size"]);
    def.block_size = exprs3_from_json(v["block_size"]);
    if (const json::Value* gd = v.find("grid_divisors")) {
        def.grid_divisors = exprs3_from_json(*gd);
        def.has_grid_divisors = true;
    }
    if (const json::Value* gs = v.find("grid_size")) {
        def.grid_size = exprs3_from_json(*gs);
        def.has_explicit_grid = true;
    }
    def.shared_memory = Expr::from_json(v["shared_memory"]);
    for (const json::Value& e : v["template_args"].as_array()) {
        def.template_args.push_back(Expr::from_json(e));
    }
    for (const json::Value& d : v["defines"].as_array()) {
        def.defines.emplace_back(d["name"].as_string(), Expr::from_json(d["value"]));
    }
    if (const json::Value* flags = v.find("compiler_flags")) {
        for (const json::Value& f : flags->as_array()) {
            def.compiler_flags.push_back(f.as_string());
        }
    }
    if (const json::Value* outputs = v.find("output_args")) {
        for (const json::Value& o : outputs->as_array()) {
            def.output_args.push_back(static_cast<size_t>(o.as_int()));
        }
    }
    return def;
}

void KernelDef::for_each_expr(
    bool with_restrictions,
    const std::function<void(const Expr&)>& fn) const {
    for (const Expr& e : problem_size) {
        fn(e);
    }
    for (const Expr& e : block_size) {
        fn(e);
    }
    if (has_grid_divisors) {
        for (const Expr& e : grid_divisors) {
            fn(e);
        }
    }
    if (has_explicit_grid) {
        for (const Expr& e : grid_size) {
            fn(e);
        }
    }
    fn(shared_memory);
    for (const Expr& e : template_args) {
        fn(e);
    }
    for (const auto& [name, e] : defines) {
        fn(e);
    }
    if (with_restrictions) {
        for (const Expr& e : space.restrictions()) {
            fn(e);
        }
    }
}

std::set<size_t> KernelDef::arg_references() const {
    std::set<size_t> out;
    for_each_expr(true, [&](const Expr& e) { e.collect_args(out); });
    return out;
}

ProblemSize KernelDef::eval_problem_size(const std::vector<KernelArg>& args) const {
    LaunchContext ctx(&args, nullptr, nullptr);
    ProblemSize out;
    for (size_t axis = 0; axis < 3; axis++) {
        out.dims[axis] = eval_positive(problem_size[axis], ctx, "problem size");
    }
    return out;
}

KernelDef::Geometry KernelDef::eval_geometry(
    const Config& config,
    const std::vector<KernelArg>& args,
    const ProblemSize& problem) const {
    Geometry geom;
    geom.problem = problem;
    LaunchContext ctx(&args, &config, &geom.problem);

    geom.block = sim::Dim3(
        static_cast<uint32_t>(eval_positive(block_size[0], ctx, "block size x")),
        static_cast<uint32_t>(eval_positive(block_size[1], ctx, "block size y")),
        static_cast<uint32_t>(eval_positive(block_size[2], ctx, "block size z")));

    if (has_explicit_grid) {
        geom.grid = sim::Dim3(
            static_cast<uint32_t>(eval_positive(grid_size[0], ctx, "grid size x")),
            static_cast<uint32_t>(eval_positive(grid_size[1], ctx, "grid size y")),
            static_cast<uint32_t>(eval_positive(grid_size[2], ctx, "grid size z")));
    } else {
        uint64_t divisor[3];
        if (has_grid_divisors) {
            divisor[0] = eval_positive(grid_divisors[0], ctx, "grid divisor x");
            divisor[1] = eval_positive(grid_divisors[1], ctx, "grid divisor y");
            divisor[2] = eval_positive(grid_divisors[2], ctx, "grid divisor z");
        } else {
            divisor[0] = geom.block.x;
            divisor[1] = geom.block.y;
            divisor[2] = geom.block.z;
        }
        geom.grid = sim::Dim3(
            static_cast<uint32_t>(sim::div_ceil64(geom.problem.x(), divisor[0])),
            static_cast<uint32_t>(sim::div_ceil64(geom.problem.y(), divisor[1])),
            static_cast<uint32_t>(sim::div_ceil64(geom.problem.z(), divisor[2])));
    }

    int64_t smem = shared_memory.eval(ctx).to_int();
    if (smem < 0) {
        throw Error("shared memory expression evaluated to a negative value");
    }
    geom.shared_mem_bytes = static_cast<uint64_t>(smem);
    return geom;
}

namespace {

/// "kernel 'name' (file.cu): " prefix so every definition-time error names
/// the kernel and the source it belongs to.
std::string definition_context(const KernelDef& def) {
    std::string out = "kernel '" + def.name + "'";
    if (!def.source.file_name().empty()) {
        out += " (" + def.source.file_name() + ")";
    }
    out += ": ";
    return out;
}

}  // namespace

KernelBuilder::KernelBuilder(std::string kernel_name, KernelSource source) {
    if (kernel_name.empty()) {
        throw DefinitionError("kernel name must not be empty");
    }
    def_.name = std::move(kernel_name);
    def_.source = std::move(source);
}

Expr KernelBuilder::tune(std::string name, std::vector<Value> values) {
    try {
        return def_.space.tune(std::move(name), std::move(values));
    } catch (const Error& e) {
        throw DefinitionError(definition_context(def_) + e.what());
    }
}

Expr KernelBuilder::tune(std::string name, std::vector<Value> values, Value default_value) {
    try {
        return def_.space.tune(std::move(name), std::move(values), std::move(default_value));
    } catch (const Error& e) {
        throw DefinitionError(definition_context(def_) + e.what());
    }
}

KernelBuilder& KernelBuilder::restriction(Expr condition) {
    try {
        def_.space.restrict(std::move(condition));
    } catch (const Error& e) {
        throw DefinitionError(definition_context(def_) + e.what());
    }
    return *this;
}

KernelBuilder& KernelBuilder::problem_size(Expr x, Expr y, Expr z) {
    def_.problem_size = {std::move(x), std::move(y), std::move(z)};
    return *this;
}

KernelBuilder& KernelBuilder::block_size(Expr x, Expr y, Expr z) {
    def_.block_size = {std::move(x), std::move(y), std::move(z)};
    return *this;
}

KernelBuilder& KernelBuilder::grid_divisors(Expr x, Expr y, Expr z) {
    def_.grid_divisors = {std::move(x), std::move(y), std::move(z)};
    def_.has_grid_divisors = true;
    return *this;
}

KernelBuilder& KernelBuilder::grid_size(Expr x, Expr y, Expr z) {
    def_.grid_size = {std::move(x), std::move(y), std::move(z)};
    def_.has_explicit_grid = true;
    return *this;
}

KernelBuilder& KernelBuilder::shared_memory(Expr bytes) {
    def_.shared_memory = std::move(bytes);
    return *this;
}

KernelBuilder& KernelBuilder::template_arg(Expr expr) {
    def_.template_args.push_back(std::move(expr));
    return *this;
}

KernelBuilder& KernelBuilder::define(std::string name, Expr value) {
    for (const auto& [existing, expr] : def_.defines) {
        if (existing == name) {
            throw DefinitionError(
                definition_context(def_) + "duplicate preprocessor definition '" + name
                + "'");
        }
    }
    def_.defines.emplace_back(std::move(name), std::move(value));
    return *this;
}

KernelBuilder& KernelBuilder::compiler_flag(std::string flag) {
    def_.compiler_flags.push_back(std::move(flag));
    return *this;
}

KernelBuilder& KernelBuilder::tuning_key(std::string key) {
    def_.tuning_key = std::move(key);
    return *this;
}

KernelBuilder& KernelBuilder::output_arg(size_t index) {
    if (!def_.is_output_arg(index)) {
        def_.output_args.push_back(index);
    }
    return *this;
}

KernelCompiler::Lowered KernelCompiler::lower(
    const KernelDef& def,
    const Config& config,
    const sim::DeviceProperties& device,
    const ProblemSize* problem) {
    if (!def.space.is_valid(config)) {
        throw Error(
            "configuration is not a member of the search space of kernel '" + def.name
            + "': " + config.to_string());
    }

    LaunchContext ctx(nullptr, &config, problem);

    Lowered out;
    out.options.push_back(
        "--gpu-architecture=compute_" + std::to_string(device.compute_capability_major)
        + std::to_string(device.compute_capability_minor));
    // Every tunable parameter is exposed to the kernel as a preprocessor
    // definition (mirroring Kernel Tuner's behavior), followed by explicit
    // definitions from the kernel definition.
    for (const TunableParam& param : def.space.params()) {
        out.options.push_back(
            "-D" + param.name + "=" + config.at(param.name).to_define());
    }
    for (const auto& [name, expr] : def.defines) {
        out.options.push_back("-D" + name + "=" + expr.eval(ctx).to_define());
    }
    for (const std::string& flag : def.compiler_flags) {
        out.options.push_back(flag);
    }

    try {
        out.source = def.source.read();
    } catch (const IoError& e) {
        throw IoError(definition_context(def) + e.what());
    }
    out.file_name = def.source.file_name();

    if (!def.template_args.empty()) {
        std::string expression = def.name + "<";
        for (size_t i = 0; i < def.template_args.size(); i++) {
            if (i > 0) {
                expression += ", ";
            }
            expression += def.template_args[i].eval(ctx).to_define();
        }
        expression += ">";
        out.name_expression = std::move(expression);
    }
    return out;
}

KernelCompiler::Output KernelCompiler::compile_lowered(
    const KernelDef& def,
    const Lowered& lowered) {
    rtc::Program program(def.name, lowered.source, lowered.file_name);
    if (!lowered.name_expression.empty()) {
        program.add_name_expression(lowered.name_expression);
    }

    rtc::CompileResult compiled = program.compile(lowered.options);

    Output out;
    out.image = std::move(compiled.images.front());
    out.compile_seconds = compiled.compile_seconds;
    out.log = std::move(compiled.log);
    return out;
}

KernelCompiler::Output KernelCompiler::compile(
    const KernelDef& def,
    const Config& config,
    const sim::DeviceProperties& device,
    const ProblemSize* problem) {
    return compile_lowered(def, lower(def, config, device, problem));
}

}  // namespace kl::core
