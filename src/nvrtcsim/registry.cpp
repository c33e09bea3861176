#include "nvrtcsim/registry.hpp"

#include "util/errors.hpp"

namespace kl::rtc {

KernelRegistry& KernelRegistry::global() {
    static KernelRegistry instance;
    return instance;
}

void KernelRegistry::add(KernelEntry entry) {
    if (entry.name.empty()) {
        throw Error("kernel registry entry must have a name");
    }
    auto shared = std::make_shared<const KernelEntry>(std::move(entry));
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[shared->name] = std::move(shared);
}

std::shared_ptr<const KernelEntry> KernelRegistry::find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second;
}

}  // namespace kl::rtc
