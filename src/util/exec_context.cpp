#include "util/exec_context.h"

#include <algorithm>
#include <new>
#include <sstream>

#include "util/backend.h"
#include "util/page_pool.h"

namespace pviz::util {

unsigned ExecutionContext::concurrency() const noexcept {
  return backend_->concurrency(*pool_);
}

void* ScratchArena::acquire(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  bool reused = false;
  void* block = bytes >= kPagePoolFloor
                    ? PagePool::global().acquire(bytes, &reused)
                    : ::operator new(bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  ++acquires_;
  if (reused) ++reuseHits_;
  bytesInUse_ += bytes;
  peakBytesInUse_ = std::max(peakBytesInUse_, bytesInUse_);
  live_.emplace(block, bytes);
  return block;
}

void ScratchArena::release(void* block) noexcept {
  if (block == nullptr) return;
  std::size_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(block);
    if (it == live_.end()) return;  // not ours; ignore rather than crash
    bytes = it->second;
    live_.erase(it);
    bytesInUse_ -= bytes;
  }
  if (bytes >= kPagePoolFloor) {
    PagePool::global().release(block, bytes);
  } else {
    ::operator delete(block);
  }
}

void ScratchArena::trim() noexcept { PagePool::global().trim(); }

ScratchArena::Stats ScratchArena::stats() const {
  const PagePool::Stats pool = PagePool::global().stats();
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.acquires = acquires_;
  s.reuseHits = reuseHits_;
  s.bytesInUse = bytesInUse_;
  s.peakBytesInUse = peakBytesInUse_;
  s.bytesPooled = pool.bytesRetained;
  s.blocksPooled = pool.blocksRetained;
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
