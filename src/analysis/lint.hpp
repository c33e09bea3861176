#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/kernel_def.hpp"
#include "core/wisdom.hpp"
#include "cudasim/device_props.hpp"

namespace kl::analysis {

/// Settings of the static analysis.
struct LintOptions {
    /// Devices to check resource limits against. Empty means every device
    /// in the global DeviceRegistry.
    std::vector<sim::DeviceProperties> devices;
};

/// Statically analyzes one kernel definition: KL001 (space emptiness),
/// KL002 (tunable/source cross-references), KL003 (device resource
/// limits) and KL004 (expressions and output declarations vs. the parsed
/// kernel signature). Never throws for defects in the definition; every
/// finding becomes a Diagnostic. KL000 is emitted when part of the
/// analysis is impossible (unreadable source, unevaluable expressions).
std::vector<Diagnostic> lint_kernel(
    const core::KernelDef& def,
    const LintOptions& options = {});

/// Checks a wisdom file against the declared space (KL005): every record
/// must assign exactly the declared parameters, with allowed values,
/// satisfy the restrictions, and name a known device. `path` is used for
/// diagnostic locations only.
std::vector<Diagnostic> lint_wisdom(
    const core::KernelDef& def,
    const core::WisdomFile& wisdom,
    const std::string& path,
    const LintOptions& options = {});

/// Checks a concrete launch-argument vector against a parsed kernel
/// signature (KL004 at launch time): arity, buffer vs. scalar, and
/// scalar-type compatibility. Returns no diagnostics without a signature.
std::vector<Diagnostic> check_launch_args(
    const core::KernelDef& def,
    const std::optional<core::KernelSignature>& signature,
    const std::vector<core::KernelArg>& args);

/// check_launch_args against the signature read from `def.source` now.
std::vector<Diagnostic> lint_launch_args(
    const core::KernelDef& def,
    const std::vector<core::KernelArg>& args);

/// Lints a `#pragma kernel_launcher`-annotated source: malformed
/// annotations become KL000 diagnostics (instead of the DefinitionError
/// thrown by the pragma parser), well-formed ones are passed through
/// lint_kernel.
std::vector<Diagnostic> lint_annotated_source(
    const std::string& kernel_name,
    const core::KernelSource& source,
    const LintOptions& options = {});

/// The registration-time entry point used by WisdomKernel: lint_kernel
/// plus, when the kernel's wisdom file exists under `settings`, KL005
/// checks of that file.
std::vector<Diagnostic> lint_registration(
    const core::KernelDef& def,
    const core::WisdomSettings& settings,
    const LintOptions& options = {});

/// Applies a lint mode to a set of findings: Off ignores them, Warn
/// renders warnings and errors to stderr, Error additionally throws
/// kl::DefinitionError (listing every error-severity finding) when at
/// least one error is present. `subject` names the kernel in the thrown
/// message.
void enforce(
    const std::vector<Diagnostic>& diagnostics,
    core::LintMode mode,
    const std::string& subject);

}  // namespace kl::analysis
