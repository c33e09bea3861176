#include "cudasim/module.hpp"

#include "cudasim/context.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"

namespace kl::sim {

Module::Module(std::vector<KernelImage> images): images_(std::move(images)) {
    if (images_.empty()) {
        throw CudaError("cuModuleLoadData: module contains no kernels");
    }
    trace::count("cuda.module_loads");
}

std::shared_ptr<Module> Module::load(Context& context, KernelImage image) {
    context.clock().advance(load_seconds(image.ptx.size()));
    std::vector<KernelImage> images;
    images.push_back(std::move(image));
    return std::make_shared<Module>(std::move(images));
}

const KernelImage& Module::get_function(const std::string& name) const {
    for (const KernelImage& image : images_) {
        if (image.lowered_name == name) {
            return image;
        }
    }
    const KernelImage* base_match = nullptr;
    for (const KernelImage& image : images_) {
        if (image.name == name) {
            if (base_match != nullptr) {
                throw CudaError(
                    "cuModuleGetFunction: name '" + name + "' is ambiguous in module");
            }
            base_match = &image;
        }
    }
    if (base_match == nullptr) {
        throw CudaError("cuModuleGetFunction: named symbol not found: '" + name + "'");
    }
    return *base_match;
}

double Module::load_seconds(size_t image_bytes) {
    // Fig. 5 attributes a noticeable slice of the ~294 ms first launch to
    // cuModuleLoad; a fixed driver cost plus upload models that.
    return 30e-3 + static_cast<double>(image_bytes) / (2.0e9);
}

}  // namespace kl::sim
