#include "mem/sim_heap.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace aam::mem {

SimHeap::SimHeap(std::size_t bytes) {
  capacity_ = (bytes + kLineBytes - 1) / kLineBytes * kLineBytes;
  // Page-aligned, hence line-aligned.
  storage_ = LazyZeroBuffer<std::byte>(capacity_);
  base_ = storage_.data();
}

std::byte* SimHeap::raw_alloc(std::size_t bytes, std::size_t align,
                              std::string_view label) {
  const std::size_t aligned_used = (used_ + align - 1) & ~(align - 1);
  AAM_CHECK_MSG(aligned_used + bytes <= capacity_,
                "SimHeap out of capacity; size it for the workload");
  std::byte* p = base_ + aligned_used;
  used_ = aligned_used + bytes;
  allocs_.push_back(AllocRecord{static_cast<std::uint64_t>(aligned_used),
                                static_cast<std::uint64_t>(bytes),
                                std::string(label)});
  return p;
}

const SimHeap::AllocRecord* SimHeap::find_alloc(std::uint64_t offset) const {
  // Allocations are recorded in address order; find the last one starting
  // at or before `offset` and check it covers the offset.
  const auto it = std::upper_bound(
      allocs_.begin(), allocs_.end(), offset,
      [](std::uint64_t off, const AllocRecord& a) { return off < a.offset; });
  if (it == allocs_.begin()) return nullptr;
  const AllocRecord& a = *(it - 1);
  if (offset >= a.offset + a.bytes) return nullptr;  // alignment gap
  return &a;
}

std::string SimHeap::describe(std::uint64_t offset) const {
  const AllocRecord* a = find_alloc(offset);
  if (a == nullptr) return "?";
  std::string name = a->label;
  if (name.empty()) {
    name = "alloc#" + std::to_string(a - allocs_.data());
  }
  char delta[32];
  std::snprintf(delta, sizeof(delta), "+0x%llx",
                static_cast<unsigned long long>(offset - a->offset));
  return name + delta;
}

}  // namespace aam::mem
