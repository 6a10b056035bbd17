#include "util/page_pool.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>

#include "util/error.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define PVIZ_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define PVIZ_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define PVIZ_POISON(p, n) ((void)(p), (void)(n))
#define PVIZ_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace pviz::util {

namespace {

std::size_t wholePages(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (std::max<std::size_t>(bytes, 1) + page - 1) / page * page;
}

// glibc reads MALLOC_PERTURB_ as an int and fills each chunk it hands
// out with the complement of the low byte; 0 means no fill.
int perturbFill() {
  static const int fill = [] {
    const char* text = std::getenv("MALLOC_PERTURB_");
    const int byte = text == nullptr ? 0 : (std::atoi(text) & 0xff);
    return byte == 0 ? -1 : (byte ^ 0xff);
  }();
  return fill;
}

void* address(std::uintptr_t start) { return reinterpret_cast<void*>(start); }

}  // namespace

PagePool::~PagePool() { trim(); }

PagePool& PagePool::global() {
  static PagePool* const pool = new PagePool;
  return *pool;
}

void* PagePool::acquire(std::size_t bytes, bool* reused) {
  const std::size_t size = wholePages(bytes);
  void* block = nullptr;
  std::size_t fresh = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t mapping = 0;
    const auto fit = bySize_.lower_bound(size);
    if (fit != bySize_.end()) {
      const std::uintptr_t start = fit->second;
      const Range range = forget(byStart_.find(start));
      if (range.size > size) {
        retain(start + size, {range.size - size, range.mapping});
      }
      block = address(start);
      mapping = range.mapping;
    } else {
      // Nothing fits: the largest retained range grows into the block.
      void* grown = nullptr;
      std::size_t have = 0;
      if (!bySize_.empty()) {
        const std::uintptr_t largest = std::prev(bySize_.end())->second;
        grown = address(largest);
        have = forget(byStart_.find(largest)).size;
        PVIZ_UNPOISON(grown, have);
      }
      // Residency bound: make room under the high-water mark the new
      // block sets, giving back the ranges least likely to serve again.
      const std::size_t inUse = bytesInUse_ + size;
      const std::size_t room = std::max(peakBytesInUse_, inUse) - inUse;
      while (bytesRetained_ > room) {
        unmap(byStart_.find(bySize_.begin()->second));
      }

      block = have == 0 ? MAP_FAILED
                        : mremap(grown, have, size, MREMAP_MAYMOVE);
      if (block == MAP_FAILED) {
        if (have != 0) munmap(grown, have);
        have = 0;
        block = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (block == MAP_FAILED) throw std::bad_alloc();
      }
      fresh = size - have;
      bytesMapped_ += fresh;
      mapping = ++mappings_;
    }
    live_.emplace(reinterpret_cast<std::uintptr_t>(block), mapping);
    ++acquires_;
    if (fresh == 0) ++reuseHits_;
    bytesInUse_ += size;
    peakBytesInUse_ = std::max(peakBytesInUse_, bytesInUse_);
  }
  PVIZ_UNPOISON(block, size);
  if (perturbFill() >= 0) std::memset(block, perturbFill(), size);
  if (reused != nullptr) *reused = fresh == 0;
  return block;
}

void PagePool::release(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  const std::size_t size = wholePages(bytes);
  const auto start = reinterpret_cast<std::uintptr_t>(block);
  // Poisoned before it is on the free list, so no other thread can take
  // it between the two.
  PVIZ_POISON(block, size);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto live = live_.find(start);
  PVIZ_ASSERT(live != live_.end());
  const std::uint64_t mapping = live->second;
  live_.erase(live);
  bytesInUse_ -= size;
  retain(start, {size, mapping});
}

void PagePool::trim() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  while (!byStart_.empty()) unmap(byStart_.begin());
}

PagePool::Stats PagePool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.acquires = acquires_;
  s.reuseHits = reuseHits_;
  s.bytesInUse = bytesInUse_;
  s.peakBytesInUse = peakBytesInUse_;
  s.bytesRetained = bytesRetained_;
  s.blocksRetained = byStart_.size();
  s.bytesMapped = bytesMapped_;
  return s;
}

// Put `range` on the free list at `start`, merged with the touching
// retained ranges of the same mapping.
void PagePool::retain(std::uintptr_t start, Range range) {
  auto next = byStart_.lower_bound(start);
  if (next != byStart_.end() && next->first == start + range.size &&
      next->second.mapping == range.mapping) {
    range.size += forget(next).size;
    next = byStart_.lower_bound(start);
  }
  if (next != byStart_.begin()) {
    const auto prev = std::prev(next);
    if (prev->first + prev->second.size == start &&
        prev->second.mapping == range.mapping) {
      start = prev->first;
      range.size += forget(prev).size;
    }
  }
  byStart_.emplace(start, range);
  bySize_.emplace(range.size, start);
  bytesRetained_ += range.size;
}

// Take a retained range off the free list; its pages stay mapped.
PagePool::Range PagePool::forget(RangeIt range) {
  auto entry = bySize_.lower_bound(range->second.size);
  while (entry->second != range->first) ++entry;
  bySize_.erase(entry);
  const Range taken = range->second;
  bytesRetained_ -= taken.size;
  byStart_.erase(range);
  return taken;
}

void PagePool::unmap(RangeIt range) noexcept {
  void* const block = address(range->first);
  const std::size_t size = forget(range).size;
  PVIZ_UNPOISON(block, size);
  munmap(block, size);
}

}  // namespace pviz::util
