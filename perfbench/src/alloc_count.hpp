// Heap-allocation counting for the benchmark binary. alloc_count.cpp
// replaces the global operator new/delete family; every allocation bumps a
// per-thread cell, so counting costs two plain increments and no atomics.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

inline AllocTotals operator-(AllocTotals a, AllocTotals b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

/// Allocations made so far by the calling thread.
AllocTotals thread_allocs();

/// Allocations made so far by every thread of the process. Exact only while
/// no other thread is allocating — call it between fleet barriers, when the
/// workers are parked behind the pool's mutex handshake.
AllocTotals process_allocs();

/// While one lives, the calling thread's allocations go uncounted. The
/// tracer wraps its own bookkeeping in one so counts describe the program.
class UncountedScope {
 public:
  UncountedScope();
  ~UncountedScope();
  UncountedScope(const UncountedScope&) = delete;
  UncountedScope& operator=(const UncountedScope&) = delete;
};

}  // namespace perfbench
