#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cudasim/kernel_image.hpp"

namespace kl::sim {

class Context;

/// A loaded module: the simulated counterpart of cuModuleLoadData. Owns one
/// or more kernel images and hands out stable Function handles into them.
class Module {
  public:
    explicit Module(std::vector<KernelImage> images);

    /// Loads a single-image module onto the current device, charging the
    /// modeled cuModuleLoad latency to the context clock.
    static std::shared_ptr<Module> load(Context& context, KernelImage image);

    /// Looks up a kernel by lowered (instance) name, falling back to the
    /// base name when unambiguous. Throws CudaError when absent.
    const KernelImage& get_function(const std::string& name) const;

    const std::vector<KernelImage>& images() const noexcept {
        return images_;
    }

    /// Modeled cuModuleLoad time: a fixed driver cost plus a per-byte cost
    /// of uploading the (pseudo-)binary.
    static double load_seconds(size_t image_bytes);

  private:
    std::vector<KernelImage> images_;
};

}  // namespace kl::sim
