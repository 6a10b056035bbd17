// FNV-1a-64 digest over raw output bytes, shared by the golden-output
// suites.  Any change to element order or arithmetic changes the digest.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pviz::testing {

// FNV-1a 64 with the offset basis ResultCache::hashKey uses, so digests
// here and in the cache tooling compare directly.
class Fnv1a64 {
 public:
  void addBytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= bytes[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T, typename A>
  void add(const std::vector<T, A>& values) {
    addBytes(values.data(), values.size() * sizeof(T));
  }
  template <typename T>
  void addValue(const T& value) {
    addBytes(&value, sizeof(T));
  }
  /// The int64 ids 0 … n-1: the identity connectivity of an n-point tet
  /// soup, which the soup itself does not store.
  void addIdentityIds(std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) addValue(i);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace pviz::testing
