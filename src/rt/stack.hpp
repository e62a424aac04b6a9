// Execution stacks for green threads.
//
// Each rt::VThread runs on its own mmap-allocated stack with an inaccessible
// guard page below it, so a runaway recursion faults immediately instead of
// silently corrupting a neighbouring thread's stack.
//
// Mappings are recycled per OS thread (DESIGN.md §11, §15): a destroyed
// Stack parks its mapping on a bounded thread-local free list, and the next
// Stack of the same size on that thread takes it back instead of calling
// mmap.  A recycled mapping keeps its PROT_NONE guard page — it is never
// re-protected, so reuse costs no system call.  Open-loop drivers spawn one
// short-lived thread per request; with the pool, spawn and finish stay off
// the kernel and mapped stacks track the live population.  The pool is per
// OS thread, so scheduler shards (DESIGN.md §16) never share a mapping.
#pragma once

#include <cstddef>

#include "support/annotations.hpp"

namespace rvk::rt {

class Stack {
 public:
  // Provides `size` usable bytes plus one guard page, from the calling OS
  // thread's pool when it holds a mapping of that size, else from mmap.
  // `size` is rounded up to the page size.
  explicit Stack(std::size_t size);

  // Returns the mapping to the calling OS thread's pool; munmaps it when the
  // pool is full or already torn down.
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Lowest usable address (just above the guard page).
  void* base() const { return usable_; }
  std::size_t size() const { return usable_size_; }

 private:
  void* mapping_ = nullptr;      // includes guard page
  std::size_t mapping_size_ = 0;
  void* usable_ = nullptr;
  std::size_t usable_size_ = 0;
};

namespace detail {
// Mappings currently parked on the calling OS thread's free list
// (tests/diagnostics).
RVK_NO_YIELD std::size_t pooled_stack_count();
}  // namespace detail

}  // namespace rvk::rt
