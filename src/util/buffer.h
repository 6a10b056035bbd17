// Final-size output storage whose sizing does not write the elements.
//
// Kernel outputs and dataset fields are built count -> scan -> allocate
// -> fill: the fill writes every slot in parallel.  A plain
// std::vector's resize() value-initializes first, a serial pass over
// the whole array on one core that the fill then overwrites.  Buffer<T>
// is a std::vector whose allocator turns that value-initialization into
// nothing, so the parallel fill is the first touch.  Everything else
// still writes: push_back, insert, assign, the (n, value) constructor.
//
// The rule that comes with it: whoever sizes a Buffer with resize() or
// the (n) constructor writes every slot before anything reads it.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace pviz::util {

/// std::allocator whose value-initializing construct() leaves the
/// element unwritten.  Restricted to trivially copyable, trivially
/// destructible element types: those are implicit-lifetime types, so
/// the allocation itself creates the objects.
template <typename T>
struct NoInitAllocator {
  static_assert(std::is_trivially_copyable_v<T>,
                "NoInitAllocator elements must be trivially copyable");
  static_assert(std::is_trivially_destructible_v<T>,
                "NoInitAllocator elements must be trivially destructible");

  using value_type = T;

  NoInitAllocator() = default;
  template <typename U>
  constexpr NoInitAllocator(const NoInitAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) { return std::allocator<T>{}.allocate(n); }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
  }

  /// Value-initialization: leave the element unwritten.
  void construct(T*) noexcept {}
  template <typename... Args>
  void construct(T* p, Args&&... args) {
    ::new (static_cast<void*>(p)) T(std::forward<Args>(args)...);
  }

  friend bool operator==(const NoInitAllocator&,
                         const NoInitAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const NoInitAllocator&,
                         const NoInitAllocator&) noexcept {
    return false;
  }
};

template <typename T>
using Buffer = std::vector<T, NoInitAllocator<T>>;

}  // namespace pviz::util
