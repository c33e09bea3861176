#include "core/capture.hpp"

#include <cstring>
#include <fstream>

#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace kl::core {

namespace {

// Modeled shared-filesystem (NFS) write throughput for capture files. The
// paper's Table 3 reports 30-40 MB/s effective on DAS-6's NFS.
constexpr double kNfsBandwidth = 36e6;  // bytes/s
constexpr double kNfsLatency = 0.3;     // seconds

constexpr size_t kIoChunk = 16 << 20;  // stream buffers in 16 MiB chunks

std::string capture_base_name(const std::string& kernel, const ProblemSize& problem) {
    return kernel + "_" + problem.to_string();
}

}  // namespace

CaptureInfo write_capture(
    const std::string& dir,
    const KernelDef& def,
    const std::vector<KernelArg>& args,
    const ProblemSize& problem,
    sim::Context& context) {
    create_directories(dir);
    const std::string base = capture_base_name(def.key(), problem);

    CaptureInfo info;
    json::Value meta = json::Value::object();
    meta["kernel"] = def.to_json();
    meta["problem_size"] = problem.to_json();
    json::Value device = json::Value::object();
    device["name"] = context.device().name;
    device["architecture"] = context.device().architecture;
    meta["device"] = std::move(device);
    meta["provenance"] = make_provenance("capture");

    json::Value arg_list = json::Value::array();
    for (size_t i = 0; i < args.size(); i++) {
        const KernelArg& arg = args[i];
        json::Value entry = arg.describe();
        if (arg.is_buffer() && def.is_output_arg(i)) {
            // Pure outputs carry no payload; replays zero-fill them.
            entry["output"] = true;
        } else if (arg.is_buffer()) {
            const std::string file_name = base + ".arg" + std::to_string(i) + ".bin";
            const std::string path = path_join(dir, file_name);
            entry["file"] = file_name;

            const uint64_t size = arg.byte_size();
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            if (!out) {
                throw IoError("cannot open capture payload for writing: " + path);
            }
            // Stream the device buffer to disk in chunks. Unmaterialized
            // allocations (timing-only runs) export as zeros without ever
            // materializing host storage.
            sim::MemoryPool& pool = context.memory();
            sim::DevicePtr ptr = arg.device_ptr();
            std::vector<char> zeros;
            uint64_t offset = 0;
            while (offset < size) {
                const size_t chunk = static_cast<size_t>(std::min<uint64_t>(kIoChunk, size - offset));
                const void* src = pool.resolve_if_materialized(ptr + offset, chunk);
                if (src != nullptr) {
                    out.write(static_cast<const char*>(src), static_cast<std::streamsize>(chunk));
                } else {
                    if (zeros.size() < chunk) {
                        zeros.assign(chunk, 0);
                    }
                    out.write(zeros.data(), static_cast<std::streamsize>(chunk));
                }
                offset += chunk;
            }
            if (!out) {
                throw IoError("error while writing capture payload: " + path);
            }
            info.payload_bytes += size;
            // Device-to-host transfer cost of exporting this buffer.
            context.clock().advance(context.transfer_seconds(size));
        }
        arg_list.push_back(std::move(entry));
    }
    meta["arguments"] = std::move(arg_list);

    info.json_path = path_join(dir, base + ".json");
    json::write_file(info.json_path, meta);
    info.total_bytes = info.payload_bytes + file_size(info.json_path);

    // Modeled shared-filesystem write time (dominates capture cost for
    // large grids, as in Table 3).
    double io_seconds = kNfsLatency + static_cast<double>(info.total_bytes) / kNfsBandwidth;
    context.clock().advance(io_seconds);
    info.simulated_seconds = context.transfer_seconds(info.payload_bytes) + io_seconds;
    return info;
}

CapturedLaunch read_capture(const std::string& json_path, bool load_payloads) {
    json::Value meta = json::parse_file(json_path);

    CapturedLaunch capture;
    capture.def = KernelDef::from_json(meta["kernel"]);
    capture.problem_size = ProblemSize::from_json(meta["problem_size"]);
    capture.device_name = meta["device"]["name"].as_string();
    capture.device_architecture = meta["device"].get_string_or("architecture", "");
    if (const json::Value* prov = meta.find("provenance")) {
        capture.provenance = *prov;
    }

    // Directory of the metadata file, for sidecar payload resolution.
    std::string dir = json_path;
    size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);

    for (const json::Value& entry : meta["arguments"].as_array()) {
        CapturedArg arg;
        const std::string& type_name = entry["type"].as_string();
        std::optional<ScalarType> type = scalar_from_name(type_name);
        if (!type.has_value()) {
            throw Error("capture '" + json_path + "' has unknown scalar type: " + type_name);
        }
        arg.type = *type;
        if (entry["kind"].as_string() == "buffer") {
            arg.is_buffer = true;
            arg.count = static_cast<size_t>(entry["count"].as_int());
            arg.is_output = entry.get_bool_or("output", false);
            if (!arg.is_output) {
                arg.data_file = entry["file"].as_string();
            }
            if (load_payloads && !arg.is_output) {
                arg.data = read_binary_file(path_join(dir, arg.data_file));
                if (arg.data.size() != arg.count * scalar_size(arg.type)) {
                    throw Error(
                        "capture payload size mismatch for " + arg.data_file + ": expected "
                        + std::to_string(arg.count * scalar_size(arg.type)) + " bytes, found "
                        + std::to_string(arg.data.size()));
                }
            }
        } else {
            arg.is_buffer = false;
            arg.count = 1;
            arg.scalar_value = Value::from_json(entry["value"]);
        }
        capture.args.push_back(std::move(arg));
    }
    return capture;
}

std::vector<std::string> list_captures(const std::string& dir) {
    std::vector<std::string> out;
    for (const std::string& path : list_directory(dir)) {
        if (ends_with(path, ".json") && !ends_with(path, ".wisdom.json")) {
            out.push_back(path);
        }
    }
    return out;
}

CapturedLaunch::Replay::Replay(const CapturedLaunch& capture, sim::Context& context):
    capture_(&capture),
    context_(&context) {
    for (const CapturedArg& arg : capture.args) {
        if (arg.is_buffer) {
            const uint64_t size = static_cast<uint64_t>(arg.count) * scalar_size(arg.type);
            sim::DevicePtr ptr = context.malloc(size);
            owned_.push_back(ptr);
            if (!arg.data.empty()) {
                context.memcpy_htod(ptr, arg.data.data(), size);
            }
            args_.push_back(KernelArg::buffer(ptr, arg.type, arg.count));
        } else {
            switch (arg.type) {
                case ScalarType::I8:
                    args_.push_back(
                        KernelArg::scalar(static_cast<int8_t>(arg.scalar_value.to_int())));
                    break;
                case ScalarType::I32:
                    args_.push_back(
                        KernelArg::scalar(static_cast<int32_t>(arg.scalar_value.to_int())));
                    break;
                case ScalarType::I64:
                    args_.push_back(KernelArg::scalar(arg.scalar_value.to_int()));
                    break;
                case ScalarType::U32:
                    args_.push_back(
                        KernelArg::scalar(static_cast<uint32_t>(arg.scalar_value.to_int())));
                    break;
                case ScalarType::U64:
                    args_.push_back(KernelArg::scalar(
                        static_cast<uint64_t>(arg.scalar_value.to_int())));
                    break;
                case ScalarType::F32:
                    args_.push_back(
                        KernelArg::scalar(static_cast<float>(arg.scalar_value.to_double())));
                    break;
                case ScalarType::F64:
                    args_.push_back(KernelArg::scalar(arg.scalar_value.to_double()));
                    break;
            }
        }
    }
}

CapturedLaunch::Replay::~Replay() {
    for (sim::DevicePtr ptr : owned_) {
        try {
            context_->free(ptr);
        } catch (...) {
            // Context torn down first; ignore.
        }
    }
}

std::vector<std::byte> CapturedLaunch::Replay::download(size_t index) const {
    const KernelArg& arg = args_.at(index);
    if (!arg.is_buffer()) {
        throw Error("Replay::download: argument is not a buffer");
    }
    std::vector<std::byte> out(arg.byte_size());
    context_->memcpy_dtoh(out.data(), arg.device_ptr(), out.size());
    return out;
}

void CapturedLaunch::Replay::reset() {
    for (size_t i = 0; i < args_.size(); i++) {
        const CapturedArg& captured = capture_->args[i];
        if (!captured.is_buffer) {
            continue;
        }
        if (!captured.data.empty()) {
            context_->memcpy_htod(
                args_[i].device_ptr(), captured.data.data(), captured.data.size());
        } else if (captured.is_output) {
            context_->memset_d8(args_[i].device_ptr(), 0, args_[i].byte_size());
        }
    }
}

}  // namespace kl::core
