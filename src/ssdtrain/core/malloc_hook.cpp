#include "ssdtrain/core/malloc_hook.hpp"

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::core {

void CudaMallocHookLibrary::install(hw::DeviceAllocator& allocator) {
  util::expects(!installed_, "hook library installed twice");
  installed_ = true;
  allocator.set_allocation_hook(
      [stats = stats_](util::Bytes delta, hw::MemoryTag tag) {
        (void)tag;
        if (delta > 0) {
          ++stats->registrations;
          stats->registered_bytes += delta;
        } else {
          ++stats->deregistrations;
          stats->registered_bytes += delta;  // delta is negative on free
        }
      });
}

util::Seconds CudaMallocHookLibrary::transfer_setup_latency() const {
  // Buffer already registered: just the cuFile submission overhead.
  // Otherwise cuFileBufRegister sits on the critical path.
  return installed_ ? util::us(3) : util::us(50);
}

}  // namespace ssdtrain::core
