#include "mem/lazy_zero.hpp"

#include <sys/mman.h>

#include "util/check.hpp"

namespace aam::mem::detail {

void* map_zero_pages(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  AAM_CHECK_MSG(p != MAP_FAILED, "cannot map zeroed simulator memory");
  return p;
}

void unmap_zero_pages(void* p, std::size_t bytes) { ::munmap(p, bytes); }

}  // namespace aam::mem::detail
