#include "rt/stack.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include "common/check.hpp"

namespace rvk::rt {

namespace {
std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}
}  // namespace

namespace detail {

namespace {

// Per-OS-thread free list of guard-paged stack mappings, shaped like the
// undo log's ChunkPool (DESIGN.md §11).  Bounded: a release beyond
// kMaxPooled mappings is munmapped.  Each slot remembers its mapping size,
// so schedulers with different stack sizes can share one thread's pool.
//
// `alive` goes false in the destructor, which unmaps the parked mappings;
// Stacks destroyed later during thread teardown then unmap directly.
struct StackPool {
  static constexpr std::size_t kMaxPooled = 64;
  struct Mapping {
    void* base;
    std::size_t size;
  };
  Mapping slots[kMaxPooled];
  std::size_t count = 0;
  bool alive = true;
  ~StackPool() {
    alive = false;
    while (count > 0) {
      const Mapping& m = slots[--count];
      ::munmap(m.base, m.size);
    }
  }
};

StackPool& pool() {
  static thread_local StackPool p;
  return p;
}

// Takes the most recently parked mapping of `size` bytes, or nullptr.
void* take_mapping(std::size_t size) {
  StackPool& p = pool();
  if (!p.alive) return nullptr;
  for (std::size_t i = p.count; i > 0; --i) {
    if (p.slots[i - 1].size != size) continue;
    void* base = p.slots[i - 1].base;
    p.slots[i - 1] = p.slots[--p.count];
    return base;
  }
  return nullptr;
}

// Parks a mapping, guard page still protected, or unmaps it.  Never
// allocates: the slots are fixed.
void release_mapping(void* base, std::size_t size) {
  StackPool& p = pool();
  if (!p.alive || p.count == StackPool::kMaxPooled) {
    ::munmap(base, size);
    return;
  }
  p.slots[p.count++] = StackPool::Mapping{base, size};
}

}  // namespace

std::size_t pooled_stack_count() {
  StackPool& p = pool();
  return p.alive ? p.count : 0;
}

}  // namespace detail

Stack::Stack(std::size_t size) {
  const std::size_t ps = page_size();
  usable_size_ = round_up(size, ps);
  mapping_size_ = usable_size_ + ps;  // one guard page at the low end
  mapping_ = detail::take_mapping(mapping_size_);
  if (mapping_ != nullptr) {
    usable_ = static_cast<char*>(mapping_) + ps;
    // The previous fiber never returned from its last frames, so their ASan
    // redzones are still poisoned; hand the mapping out clean, as mmap would.
    ASAN_UNPOISON_MEMORY_REGION(usable_, usable_size_);
    return;
  }
  mapping_ = ::mmap(nullptr, mapping_size_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RVK_CHECK_MSG(mapping_ != MAP_FAILED, "stack mmap failed");
  RVK_CHECK_MSG(::mprotect(mapping_, ps, PROT_NONE) == 0,
                "guard page mprotect failed");
  usable_ = static_cast<char*>(mapping_) + ps;
}

Stack::~Stack() { detail::release_mapping(mapping_, mapping_size_); }

}  // namespace rvk::rt
