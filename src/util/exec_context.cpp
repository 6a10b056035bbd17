#include "util/exec_context.h"

#include <bit>
#include <sstream>

#include "util/backend.h"

namespace pviz::util {

namespace {
constexpr std::size_t kMinSizeClass = 4096;  // one page; smaller asks pool up
}  // namespace

unsigned ExecutionContext::concurrency() const noexcept {
  return backend_->concurrency(*pool_);
}

std::size_t ScratchArena::sizeClass(std::size_t bytes) noexcept {
  if (bytes <= kMinSizeClass) return kMinSizeClass;
  return std::bit_ceil(bytes);
}

void* ScratchArena::acquire(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  const std::size_t cls = sizeClass(bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  ++acquires_;
  Block block;
  auto it = free_.find(cls);
  if (it != free_.end() && !it->second.empty()) {
    block = std::move(it->second.back());
    it->second.pop_back();
    ++reuseHits_;
  } else {
    // Default-initialized: no serial memset under the mutex; the
    // kernels' parallel writes do the first touch.
    block.data = std::make_unique_for_overwrite<std::byte[]>(cls);
    block.capacity = cls;
  }
  void* p = block.data.get();
  bytesInUse_ += cls;
  if (bytesInUse_ > peakBytesInUse_) peakBytesInUse_ = bytesInUse_;
  live_.emplace(p, std::move(block));
  return p;
}

void ScratchArena::release(void* block) noexcept {
  if (block == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(block);
  if (it == live_.end()) return;  // not ours; ignore rather than crash
  Block b = std::move(it->second);
  live_.erase(it);
  bytesInUse_ -= b.capacity;
  free_[b.capacity].push_back(std::move(b));
}

void ScratchArena::trim() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.clear();
}

ScratchArena::Stats ScratchArena::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.acquires = acquires_;
  s.reuseHits = reuseHits_;
  s.bytesInUse = bytesInUse_;
  s.peakBytesInUse = peakBytesInUse_;
  for (const auto& [cls, blocks] : free_) {
    s.bytesPooled += cls * blocks.size();
    s.blocksPooled += blocks.size();
  }
  return s;
}

std::string PhaseTracer::toJson() const {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  double total = 0.0;
  for (const Phase& p : phases_) total += p.millis;
  os << "{\"total_ms\":" << total << ",\"phases\":[";
  bool first = true;
  for (const Phase& p : phases_) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"";
    // Phase names are identifiers chosen by the kernels; escape the two
    // characters that could break the framing anyway.
    for (char c : p.name) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
    os << "\",\"ms\":" << p.millis << ",\"start_us\":" << p.startUs
       << ",\"thread\":" << p.threadId
       << ",\"arena_bytes_in_use\":" << p.arenaBytesInUse
       << ",\"arena_bytes_pooled\":" << p.arenaBytesPooled
       << ",\"pool_concurrency\":" << p.poolConcurrency
       << ",\"cancelled\":" << (p.cancelled ? "true" : "false") << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace pviz::util
