// Size-bucketed free lists backing coroutine frame allocation.
//
// Simulated workloads create and destroy coroutine frames at enormous rates:
// every storage op awaits several sub-tasks, and spawn()-heavy scenarios
// (96-worker contention, 1000-waiter broadcasts) otherwise churn the global
// allocator. Frames of a given coroutine type have a fixed size, so a block
// returned on frame destruction is immediately reusable by the next frame of
// the same coroutine; bucketing by 64-byte size class turns steady-state
// frame allocation into a pointer pop.
//
// The free lists are thread-local (created on first use, released at thread
// exit), so they need no synchronization. Each bucket is capped so a one-off
// burst of frames cannot pin memory forever.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace sim::detail {

class FramePool {
 public:
  static constexpr std::size_t kGranularityShift = 6;  // 64-byte size classes
  static constexpr std::size_t kBuckets = 32;          // frames up to 2 KiB
  static constexpr std::size_t kMaxBlocksPerBucket = 4096;

  static void* allocate(std::size_t n) {
    const std::size_t b = bucket(n);
    if (b >= kBuckets) return ::operator new(n);
    auto& list = lists().bucket[b];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      return p;
    }
    return ::operator new(bucket_bytes(b));
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t b = bucket(n);
    if (b < kBuckets) {
      auto& list = lists().bucket[b];
      if (list.size() < kMaxBlocksPerBucket) {
        try {
          list.push_back(p);
          return;
        } catch (...) {
          // Growing the free list failed; fall through to a plain delete.
        }
      }
    }
    ::operator delete(p);
  }

  /// Blocks the calling thread caches for allocations of `n` bytes (test
  /// hook).
  static std::size_t cached(std::size_t n) noexcept {
    const std::size_t b = bucket(n);
    return b < kBuckets ? lists().bucket[b].size() : 0;
  }

 private:
  struct FreeLists {
    ~FreeLists() {
      for (auto& list : bucket) {
        for (void* p : list) ::operator delete(p);
      }
    }
    std::vector<void*> bucket[kBuckets];
  };

  static constexpr std::size_t bucket(std::size_t n) noexcept {
    return (n - 1) >> kGranularityShift;  // frame sizes are never zero
  }
  static constexpr std::size_t bucket_bytes(std::size_t b) noexcept {
    return (b + 1) << kGranularityShift;
  }

  static FreeLists& lists() {
    static thread_local FreeLists tls;
    return tls;
  }
};

}  // namespace sim::detail
