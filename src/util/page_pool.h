// One process-wide pool of page-aligned blocks for the large arrays.
//
// Kernel outputs, dataset fields and scratch arrays at 128³ run to tens
// or hundreds of megabytes each.  From glibc every such block is a fresh
// mmap: each run faults its pages in again and unmaps them when it ends.
// The page pool keeps released blocks mapped and hands their already
// faulted pages to the next request, on any thread and any context.
//
// Every block of at least kPagePoolFloor bytes goes through the pool;
// smaller ones stay with malloc.  Two callers: NoInitAllocator (so every
// util::Buffer) and ScratchArena.
//
//   * Blocks are whole pages.  A request takes the smallest retained
//     range that fits (best fit, one free list under one mutex) and the
//     rest of that range stays retained.  A released block merges with
//     the retained ranges on either side that came from the same mapping.
//   * When no retained range fits, the largest one is grown into the new
//     block with mremap: its pages move along without a fault, and only
//     the rest of the block is fresh.
//   * Residency bound: bytes retained plus bytes in use never exceed the
//     high-water mark of bytes in use.  Before it maps fresh pages the
//     pool unmaps retained ranges, smallest first, until the new block
//     fits under the bound, so the process never holds more pages than
//     its largest working set needed.
//   * Poisoned heap: when MALLOC_PERTURB_ is set, every block handed out,
//     fresh or reused, is filled the way glibc fills its own chunks.
//   * AddressSanitizer: retained ranges are poisoned, so a read or write
//     after release is reported as a use after free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>

namespace pviz::util {

/// Smallest block the pool serves.  Below it malloc's own free lists
/// reuse memory without a system call; larger blocks glibc maps and
/// unmaps one by one.
inline constexpr std::size_t kPagePoolFloor = std::size_t{1} << 20;

class PagePool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;      ///< total acquire() calls
    std::uint64_t reuseHits = 0;     ///< acquires that mapped no fresh page
    std::size_t bytesInUse = 0;      ///< handed out, whole pages
    std::size_t peakBytesInUse = 0;  ///< high-water mark of bytesInUse
    std::size_t bytesRetained = 0;   ///< released and still mapped
    std::size_t blocksRetained = 0;  ///< ranges on the free list
    std::uint64_t bytesMapped = 0;   ///< fresh pages mapped, ever
  };

  PagePool() = default;
  ~PagePool();
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  /// The pool behind util::Buffer and every ScratchArena.  Never
  /// destroyed, so buffers freed during static destruction still have it.
  static PagePool& global();

  /// A page-aligned block of at least `bytes` bytes, uninitialized
  /// unless MALLOC_PERTURB_ asks for a fill.  Sets `*reused` (when
  /// given) to whether retained pages alone served it.  Throws
  /// std::bad_alloc when no pages can be mapped.
  void* acquire(std::size_t bytes, bool* reused = nullptr);

  /// Return a block from acquire(bytes); it stays mapped.  No-op for
  /// nullptr.
  void release(void* block, std::size_t bytes) noexcept;

  /// Unmap every retained range.  Blocks in use are unaffected.
  void trim() noexcept;

  Stats stats() const;

 private:
  // A retained range and the mapping it lies in.  mremap moves only
  // within one kernel mapping, so ranges merge only with neighbours from
  // the same one; an id names each mmap or mremap result.
  struct Range {
    std::size_t size;
    std::uint64_t mapping;
  };
  using RangeIt = std::map<std::uintptr_t, Range>::iterator;

  void retain(std::uintptr_t start, Range range);
  Range forget(RangeIt range);
  void unmap(RangeIt range) noexcept;

  mutable std::mutex mutex_;
  std::map<std::uintptr_t, Range> byStart_;            // retained ranges
  std::multimap<std::size_t, std::uintptr_t> bySize_;  // the same, by size
  std::unordered_map<std::uintptr_t, std::uint64_t> live_;  // -> mapping
  std::uint64_t mappings_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t reuseHits_ = 0;
  std::size_t bytesInUse_ = 0;
  std::size_t peakBytesInUse_ = 0;
  std::size_t bytesRetained_ = 0;
  std::uint64_t bytesMapped_ = 0;
};

}  // namespace pviz::util
