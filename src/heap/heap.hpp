// Arena that owns all managed objects of one experiment.
//
// This is deliberately *not* a garbage collector — the paper's technique is
// orthogonal to GC (its interaction with collection liveness is exactly why
// the authors rejected the VM-internal rollback strategy, §3.2).  What the
// technique does need from the heap is (a) stable object addresses while an
// undo log may point into them and (b) a single funnel for all shared-state
// mutation; Heap provides both.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "heap/object.hpp"
#include "heap/statics.hpp"

namespace rvk::heap {

class Heap {
 public:
  Heap() = default;
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // Allocates an object with `slot_count` word fields.  An allocation
  // inside a synchronized section is reported to the thread's engine, so a
  // rollback can reclaim it: the revoked section "never executed", and its
  // allocations are unreachable once its heap stores are undone (on the
  // paper's platform the garbage collector provides this for free).
  HeapObject* alloc(std::string name, std::size_t slot_count) {
    auto owned = std::make_unique<HeapObject>(std::move(name), slot_count);
    HeapObject* p = owned.get();
    objects_.emplace(p, std::move(owned));
    if (rt::VThread* t = rt::section_vthread()) [[unlikely]] {
      if (rt::EngineLink* link = t->scheduler()->engine_link()) {
        link->on_alloc(this, p);
      }
    }
    return p;
  }

  // Frees an object (runtime-internal: reclaiming the allocations of a
  // revoked section).  The caller guarantees no live references remain —
  // which holds for speculative allocations once the section's heap stores
  // have been undone.
  void free(HeapObject* obj) {
    auto it = objects_.find(obj);
    RVK_CHECK_MSG(it != objects_.end(), "free of unknown/foreign object");
    objects_.erase(it);
  }

  bool owns(const HeapObject* obj) const {
    return objects_.find(const_cast<HeapObject*>(obj)) != objects_.end();
  }

  // Allocates an array of `length` elements of T.
  template <detail::SlotValue T>
  HeapArray<T>* alloc_array(std::size_t length) {
    auto arr = std::make_unique<HeapArray<T>>(length);
    HeapArray<T>* p = arr.get();
    arrays_.push_back(std::unique_ptr<void, void (*)(void*)>(
        arr.release(),
        [](void* q) { delete static_cast<HeapArray<T>*>(q); }));
    return p;
  }

  StaticsTable& statics() { return statics_; }

  // Live (not freed) object count.
  std::size_t object_count() const { return objects_.size(); }

 private:
  std::unordered_map<HeapObject*, std::unique_ptr<HeapObject>> objects_;
  std::vector<std::unique_ptr<void, void (*)(void*)>> arrays_;
  StaticsTable statics_;
};

}  // namespace rvk::heap
