#include "analysis/graph_lint.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "core/kernel_def.hpp"
#include "util/errors.hpp"

namespace kl::analysis {

namespace {

/// "graph node #3" — the sort subject shared by every diagnostic about
/// node 3, so related findings group together in reports.
std::string subject(size_t node) {
    return "graph node #" + std::to_string(node);
}

/// "#3 (kernel 'vector_add')" — how messages refer to a node.
std::string ref(size_t node, const std::vector<NodeFootprint>& nodes) {
    std::string out = "#";
    out += std::to_string(node);
    out += " (";
    out += nodes[node].label;
    out += ')';
    return out;
}

Diagnostic make(
    const char* code,
    Severity severity,
    std::string message,
    size_t node) {
    Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.message = std::move(message);
    d.kernel = subject(node);
    return d;
}

/// The access direction of buffer argument `index`, following the
/// precedence documented on graph_footprints().
core::ArgRole resolve_role(
    const core::KernelDef& def,
    const std::optional<core::KernelSignature>& signature,
    size_t index,
    const core::KernelArg& arg) {
    if (arg.role() != core::ArgRole::Auto) {
        return arg.role();
    }
    if (signature.has_value() && index < signature->params.size()) {
        const core::KernelParam& param = signature->params[index];
        if (param.is_pointer && param.is_const) {
            return core::ArgRole::Read;
        }
    }
    if (!def.output_args.empty()) {
        // A definition that declares its outputs implicitly declares the
        // remaining pointer parameters as inputs. Declared outputs stay
        // read-write: an "output" kernel may still accumulate in place.
        return def.is_output_arg(index) ? core::ArgRole::ReadWrite
                                        : core::ArgRole::Read;
    }
    return core::ArgRole::ReadWrite;
}

NodeFootprint footprint(const graph::Node& node) {
    NodeFootprint fp;
    fp.deps.assign(node.deps.begin(), node.deps.end());
    switch (node.kind) {
        case graph::NodeKind::Launch: {
            const core::KernelDef& def = node.kernel->def();
            const std::optional<core::KernelSignature>& signature =
                node.kernel->signature();
            fp.label = "kernel '" + def.name + "'";
            for (size_t i = 0; i < node.args.size(); i++) {
                const core::KernelArg& arg = node.args[i];
                if (!arg.is_buffer() || arg.byte_size() == 0) {
                    continue;
                }
                ByteInterval extent {
                    arg.device_ptr(),
                    arg.device_ptr() + arg.byte_size()};
                core::ArgRole role = resolve_role(def, signature, i, arg);
                if (role == core::ArgRole::Read || role == core::ArgRole::ReadWrite) {
                    fp.reads.push_back(extent);
                }
                if (role == core::ArgRole::Write || role == core::ArgRole::ReadWrite) {
                    fp.writes.push_back(extent);
                }
            }
            break;
        }
        case graph::NodeKind::MemcpyHtoD:
            fp.label = "memcpy htod";
            fp.writes.push_back({node.dst, node.dst + node.bytes});
            break;
        case graph::NodeKind::MemcpyDtoH:
            fp.label = "memcpy dtoh";
            fp.reads.push_back({node.src, node.src + node.bytes});
            fp.copies_out = true;
            break;
        case graph::NodeKind::MemcpyDtoD:
            fp.label = "memcpy dtod";
            fp.reads.push_back({node.src, node.src + node.bytes});
            fp.writes.push_back({node.dst, node.dst + node.bytes});
            break;
        case graph::NodeKind::Memset:
            fp.label = "memset";
            fp.writes.push_back({node.dst, node.dst + node.bytes});
            break;
        case graph::NodeKind::Upload:
            // A zero-copy payload bind writes the whole destination block,
            // exactly like the htod copy it replaces.
            fp.label = "upload";
            fp.writes.push_back({node.dst, node.dst + node.bytes});
            break;
    }
    // Zero-byte memory operations have no footprint.
    auto drop_empty = [](std::vector<ByteInterval>& v) {
        v.erase(
            std::remove_if(
                v.begin(),
                v.end(),
                [](const ByteInterval& iv) { return iv.empty(); }),
            v.end());
    };
    drop_empty(fp.reads);
    drop_empty(fp.writes);
    return fp;
}

bool any_overlap(
    const std::vector<ByteInterval>& a,
    const std::vector<ByteInterval>& b,
    ByteInterval* witness) {
    for (const ByteInterval& x : a) {
        for (const ByteInterval& y : b) {
            if (x.overlaps(y)) {
                if (witness != nullptr) {
                    witness->begin = std::max(x.begin, y.begin);
                    witness->end = std::min(x.end, y.end);
                }
                return true;
            }
        }
    }
    return false;
}

bool interval_overlaps_any(
    const ByteInterval& iv,
    const std::vector<ByteInterval>& list) {
    for (const ByteInterval& other : list) {
        if (iv.overlaps(other)) {
            return true;
        }
    }
    return false;
}

}  // namespace

std::string ByteInterval::to_string() const {
    char buf[64];
    std::snprintf(
        buf,
        sizeof(buf),
        "[0x%llx, 0x%llx)",
        static_cast<unsigned long long>(begin),
        static_cast<unsigned long long>(end));
    return buf;
}

Reachability::Reachability(const std::vector<NodeFootprint>& nodes):
    n_(nodes.size()),
    words_((nodes.size() + 63) / 64),
    bits_(nodes.size() * words_, 0) {
    for (size_t i = 0; i < n_; i++) {
        uint64_t* row = bits_.data() + i * words_;
        for (size_t dep : nodes[i].deps) {
            if (dep >= i) {
                throw Error(
                    "graph node #" + std::to_string(i)
                    + " depends on node #" + std::to_string(dep)
                    + ", which is not an earlier node");
            }
            row[dep / 64] |= uint64_t(1) << (dep % 64);
            const uint64_t* dep_row = bits_.data() + dep * words_;
            for (size_t w = 0; w < words_; w++) {
                row[w] |= dep_row[w];
            }
        }
    }
}

bool Reachability::is_ancestor(size_t a, size_t b) const noexcept {
    if (a == b || a >= n_ || b >= n_) {
        return false;
    }
    return (bits_[b * words_ + a / 64] >> (a % 64)) & 1;
}

std::vector<NodeFootprint> graph_footprints(const std::vector<graph::Node>& nodes) {
    std::vector<NodeFootprint> out;
    out.reserve(nodes.size());
    for (const graph::Node& node : nodes) {
        out.push_back(footprint(node));
    }
    return out;
}

std::vector<GraphHazard>
find_hazards(const std::vector<NodeFootprint>& nodes, const Reachability& reach) {
    std::vector<GraphHazard> out;
    for (size_t i = 0; i < nodes.size(); i++) {
        for (size_t j = i + 1; j < nodes.size(); j++) {
            if (reach.ordered(i, j)) {
                continue;
            }
            GraphHazard h;
            h.first = i;
            h.second = j;
            if (any_overlap(nodes[i].writes, nodes[j].writes, &h.overlap)) {
                h.write_write = true;
            } else if (
                any_overlap(nodes[i].writes, nodes[j].reads, &h.overlap)
                || any_overlap(nodes[i].reads, nodes[j].writes, &h.overlap)) {
                h.write_write = false;
            } else {
                continue;
            }
            out.push_back(h);
        }
    }
    return out;  // (i, j) loop order is already sorted by (first, second)
}

std::vector<Diagnostic> lint_footprints(const std::vector<NodeFootprint>& nodes) {
    Reachability reach(nodes);
    std::vector<Diagnostic> diags;

    // KL006: unordered overlapping pairs.
    for (const GraphHazard& h : find_hazards(nodes, reach)) {
        diags.push_back(make(
            "KL006",
            Severity::Error,
            "nodes " + ref(h.first, nodes) + " and " + ref(h.second, nodes)
                + " both touch device bytes " + h.overlap.to_string()
                + " with no dependency path between them ("
                + (h.write_write ? "write/write" : "read/write")
                + " hazard); add a dependency edge to order them",
            h.first));
    }

    // KL006 same-node variant: a read and a write of one node overlap
    // without coinciding (e.g. a DtoD copy whose source and destination
    // ranges alias — the eager path behaves as memmove, a real device
    // would race). Identical read/write extents are the ordinary in-place
    // update (read-write arguments) and stay silent.
    for (size_t i = 0; i < nodes.size(); i++) {
        bool flagged = false;
        for (const ByteInterval& r : nodes[i].reads) {
            for (const ByteInterval& w : nodes[i].writes) {
                if (r.overlaps(w) && !(r == w)) {
                    diags.push_back(make(
                        "KL006",
                        Severity::Warning,
                        "node " + ref(i, nodes) + " reads " + r.to_string()
                            + " and writes " + w.to_string()
                            + ", which partially overlap (self-overlapping copy)",
                        i));
                    flagged = true;
                    break;
                }
            }
            if (flagged) {
                break;
            }
        }
    }

    // KL007: redundant dependency edges (advisory transitive reduction).
    for (size_t j = 0; j < nodes.size(); j++) {
        const std::vector<size_t>& deps = nodes[j].deps;
        for (size_t p = 0; p < deps.size(); p++) {
            size_t i = deps[p];
            bool duplicate = false;
            for (size_t q = 0; q < p; q++) {
                if (deps[q] == i) {
                    duplicate = true;
                    break;
                }
            }
            size_t via = 0;
            bool implied = false;
            if (!duplicate) {
                for (size_t d : deps) {
                    if (d != i && reach.is_ancestor(i, d)) {
                        via = d;
                        implied = true;
                        break;
                    }
                }
            }
            if (duplicate) {
                diags.push_back(make(
                    "KL007",
                    Severity::Note,
                    "node " + ref(j, nodes) + " lists dependency #"
                        + std::to_string(i) + " more than once",
                    j));
            } else if (implied) {
                diags.push_back(make(
                    "KL007",
                    Severity::Note,
                    "dependency of node " + ref(j, nodes) + " on #"
                        + std::to_string(i)
                        + " is redundant: already implied through #"
                        + std::to_string(via),
                    j));
            }
        }
    }

    // KL008: dead writes. A write is live when any node that is not
    // strictly before the writer touches its bytes (reads keep it live,
    // including DtoH copies; later writes hand the finding to KL009).
    // Liveness outside the graph is invisible, hence Note severity.
    for (size_t i = 0; i < nodes.size(); i++) {
        for (const ByteInterval& w : nodes[i].writes) {
            bool live = false;
            for (size_t j = 0; j < nodes.size() && !live; j++) {
                if (j == i || reach.is_ancestor(j, i)) {
                    continue;
                }
                live = interval_overlaps_any(w, nodes[j].reads)
                    || interval_overlaps_any(w, nodes[j].writes);
            }
            if (!live) {
                diags.push_back(make(
                    "KL008",
                    Severity::Note,
                    "node " + ref(i, nodes) + " writes " + w.to_string()
                        + " but no other node reads, copies out, or overwrites "
                          "those bytes (dead write within the graph)",
                    i));
            }
        }
    }

    // KL009: redundant transfers — node j overwrites the exact extent
    // node i wrote, j after i, and no node can read the bytes in between
    // (no reader k that could be scheduled between them, no overlapping
    // write strictly between, and j itself does not read the extent).
    for (size_t i = 0; i < nodes.size(); i++) {
        for (size_t j = 0; j < nodes.size(); j++) {
            if (!reach.is_ancestor(i, j)) {
                continue;
            }
            for (const ByteInterval& wi : nodes[i].writes) {
                bool matched = false;
                for (const ByteInterval& wj : nodes[j].writes) {
                    if (wi == wj) {
                        matched = true;
                        break;
                    }
                }
                if (!matched || interval_overlaps_any(wi, nodes[j].reads)) {
                    continue;
                }
                bool intervening = false;
                for (size_t k = 0; k < nodes.size() && !intervening; k++) {
                    if (k == i || k == j) {
                        continue;
                    }
                    // A reader that could run between the two writes in
                    // some schedule: not ordered before i, not ordered
                    // after j.
                    if (!reach.is_ancestor(k, i) && !reach.is_ancestor(j, k)
                        && interval_overlaps_any(wi, nodes[k].reads)) {
                        intervening = true;
                    }
                    // A write strictly between them: report against the
                    // nearer pair instead.
                    if (reach.is_ancestor(i, k) && reach.is_ancestor(k, j)
                        && interval_overlaps_any(wi, nodes[k].writes)) {
                        intervening = true;
                    }
                }
                if (!intervening) {
                    diags.push_back(make(
                        "KL009",
                        Severity::Warning,
                        "write of " + wi.to_string() + " by node " + ref(i, nodes)
                            + " is overwritten by node " + ref(j, nodes)
                            + " with the same extent and no possible intervening "
                              "read (redundant transfer)",
                        i));
                }
            }
        }
    }

    sort_diagnostics(diags);
    return diags;
}

}  // namespace kl::analysis
