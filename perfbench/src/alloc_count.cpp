#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

struct Cell {
  std::uint64_t count;
  std::uint64_t bytes;
};

// One cell per thread that ever allocated, in static storage so counting
// never allocates. A cell outlives its thread, keeping process totals
// monotonic; past kMaxCells threads the last cell is shared.
constexpr std::size_t kMaxCells = 1024;
Cell g_cells[kMaxCells];
std::atomic<std::size_t> g_used{0};

thread_local Cell* t_cell = nullptr;
thread_local int t_uncounted = 0;

Cell* my_cell() {
  if (t_cell == nullptr) {
    const std::size_t i = g_used.fetch_add(1, std::memory_order_relaxed);
    t_cell = &g_cells[i < kMaxCells ? i : kMaxCells - 1];
  }
  return t_cell;
}

inline void note(std::size_t n) {
  if (t_uncounted != 0) return;
  Cell* c = my_cell();
  ++c->count;
  c->bytes += n;
}

void* counted_malloc(std::size_t n) {
  note(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned(std::size_t n, std::align_val_t align) {
  note(n);
  void* p = nullptr;
  const auto a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

AllocTotals thread_allocs() {
  const Cell* c = my_cell();
  return {c->count, c->bytes};
}

AllocTotals process_allocs() {
  AllocTotals total;
  const std::size_t used = g_used.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < used && i < kMaxCells; ++i) {
    total.count += g_cells[i].count;
    total.bytes += g_cells[i].bytes;
  }
  return total;
}

UncountedScope::UncountedScope() { ++t_uncounted; }
UncountedScope::~UncountedScope() { --t_uncounted; }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::counted_malloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::counted_aligned(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
