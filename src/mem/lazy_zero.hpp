#pragma once

// Lazily zeroed host memory for the simulator's capacity-sized tables.
//
// A DesMachine sizes its simulated memory, its per-unit commit stamps and
// its per-line contention metadata from the SimHeap's *capacity*, so that
// every heap offset keeps one fixed slot: the layout of simulated memory
// decides which accesses conflict and must not depend on how much of the
// heap a run happens to use. Most runs touch a small prefix of that
// capacity. Zero-filling all of it on every machine build was the largest
// host cost of small runs, in time (one page fault plus a page clear per
// 4 KiB) and in resident memory.
//
// LazyZeroBuffer<T> is a fixed-size array with this contract:
//   * every element reads as zero (T{}) until it is first written;
//   * a page costs no physical memory and no page clear until its first
//     write (reading an untouched page maps the kernel's shared zero page);
//   * all of its pages go back to the OS when the buffer is destroyed.
// It is an anonymous private mapping, not calloc: glibc's calloc skips its
// clear only for a block it maps fresh, and its sliding mmap threshold can
// stop mapping blocks of this size after the first one is freed.

#include <cstddef>
#include <type_traits>
#include <utility>

namespace aam::mem {

namespace detail {
/// Maps `bytes` (> 0) of zero-filled, page-aligned anonymous memory;
/// aborts when the OS refuses.
void* map_zero_pages(std::size_t bytes);
/// Returns a mapping made by map_zero_pages to the OS.
void unmap_zero_pages(void* p, std::size_t bytes);
}  // namespace detail

template <typename T>
class LazyZeroBuffer {
  // All-zero bytes must be the value T{}; true of bytes, integers and
  // IEEE floating point.
  static_assert(std::is_arithmetic_v<T> || std::is_same_v<T, std::byte>,
                "LazyZeroBuffer holds types whose zero bytes read as T{}");

 public:
  LazyZeroBuffer() = default;
  /// `count` elements, all zero; page-aligned when `count` > 0.
  explicit LazyZeroBuffer(std::size_t count) : size_(count) {
    if (count > 0) {
      data_ = static_cast<T*>(detail::map_zero_pages(count * sizeof(T)));
    }
  }
  ~LazyZeroBuffer() {
    if (data_ != nullptr) detail::unmap_zero_pages(data_, size_ * sizeof(T));
  }

  LazyZeroBuffer(LazyZeroBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  LazyZeroBuffer& operator=(LazyZeroBuffer&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  LazyZeroBuffer(const LazyZeroBuffer&) = delete;
  LazyZeroBuffer& operator=(const LazyZeroBuffer&) = delete;

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* data() { return data_; }
  std::size_t size() const { return size_; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace aam::mem
