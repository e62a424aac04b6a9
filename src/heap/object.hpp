// Managed heap objects: the shared mutable state the paper's threads operate
// on.  Jikes RVM gives the technique three store kinds to intercept —
// "putfield for object stores, putstatic for static variable stores, and
// Xastore for array stores" (§3.1.2).  HeapObject models instance fields,
// HeapArray models arrays, StaticsTable (statics.hpp) models statics.
//
// All slots are machine words; typed accessors bit-cast through the word so
// the undo log needs exactly one entry layout.  Every access goes through the
// barriers in barriers.hpp.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "heap/barriers.hpp"

namespace rvk::heap {

namespace detail {

template <typename T>
concept SlotValue =
    std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(Word);

template <SlotValue T>
Word to_word(T v) {
  Word w = 0;
  std::memcpy(&w, &v, sizeof(T));
  return w;
}

template <SlotValue T>
T from_word(Word w) {
  T v{};
  std::memcpy(&v, &w, sizeof(T));
  return v;
}

}  // namespace detail

// An object with `slot_count` word-sized fields.  Allocated via Heap;
// address-stable for its lifetime (the undo log stores raw slot addresses).
class HeapObject {
 public:
  HeapObject(std::string name, std::size_t slot_count)
      : name_(std::move(name)), slots_(slot_count, 0) {}

  HeapObject(const HeapObject&) = delete;
  HeapObject& operator=(const HeapObject&) = delete;

  const std::string& name() const { return name_; }
  std::size_t slot_count() const { return slots_.size(); }

  // Field load (putfield's dual): read barrier + word load.
  Word get_word(std::size_t slot) {
    RVK_DCHECK(slot < slots_.size());
    read_barrier(meta_);
    Word v = slots_[slot];
    trace_access(TraceAccess::Kind::kRead, &slots_[slot], this,
                 static_cast<std::uint32_t>(slot), v, 0);
    return v;
  }

  // Field store (putfield): write barrier (logs old value when the current
  // thread executes inside a synchronized section) + word store.
  void set_word(std::size_t slot, Word value) {
    RVK_DCHECK(slot < slots_.size());
    write_barrier(meta_, &slots_[slot]);
    trace_access(TraceAccess::Kind::kWrite, &slots_[slot], this,
                 static_cast<std::uint32_t>(slot), value, slots_[slot]);
    slots_[slot] = value;
  }

  // Unbarriered store: models a store the compiler proved can never execute
  // inside a synchronized section ("Compiler analyses and optimization may
  // elide these run-time checks", §1.1).  Use only for provably thread-local
  // initialization; the ablation benchmarks measure the barrier cost this
  // elides.
  void set_word_unlogged(std::size_t slot, Word value) {
    RVK_DCHECK(slot < slots_.size());
    trace_access(TraceAccess::Kind::kUnloggedWrite, &slots_[slot], this,
                 static_cast<std::uint32_t>(slot), value, slots_[slot]);
    slots_[slot] = value;
  }

  template <detail::SlotValue T>
  T get(std::size_t slot) {
    return detail::from_word<T>(get_word(slot));
  }

  template <detail::SlotValue T>
  void set(std::size_t slot, T value) {
    set_word(slot, detail::to_word(value));
  }

  // Reference fields (objects point at objects).
  HeapObject* get_ref(std::size_t slot) {
    return reinterpret_cast<HeapObject*>(get_word(slot));
  }
  void set_ref(std::size_t slot, HeapObject* o) {
    set_word(slot, reinterpret_cast<Word>(o));
  }

  ObjectMeta& meta() { return meta_; }

 private:
  std::string name_;
  ObjectMeta meta_;
  std::vector<Word> slots_;
};

// An array of `T` (word-backed).  Element stores are the paper's Xastore.
template <detail::SlotValue T>
class HeapArray {
 public:
  explicit HeapArray(std::size_t length) : slots_(length, 0) {}

  HeapArray(const HeapArray&) = delete;
  HeapArray& operator=(const HeapArray&) = delete;

  std::size_t length() const { return slots_.size(); }

  T get(std::size_t index) {
    RVK_DCHECK(index < slots_.size());
    read_barrier(meta_);
    Word v = slots_[index];
    trace_access(TraceAccess::Kind::kRead, &slots_[index], this,
                 static_cast<std::uint32_t>(index), v, 0);
    return detail::from_word<T>(v);
  }

  void set(std::size_t index, T value) {
    RVK_DCHECK(index < slots_.size());
    write_barrier(meta_, &slots_[index]);
    Word w = detail::to_word(value);
    trace_access(TraceAccess::Kind::kWrite, &slots_[index], this,
                 static_cast<std::uint32_t>(index), w, slots_[index]);
    slots_[index] = w;
  }

  void set_unlogged(std::size_t index, T value) {
    RVK_DCHECK(index < slots_.size());
    Word w = detail::to_word(value);
    trace_access(TraceAccess::Kind::kUnloggedWrite, &slots_[index], this,
                 static_cast<std::uint32_t>(index), w, slots_[index]);
    slots_[index] = w;
  }

  ObjectMeta& meta() { return meta_; }

 private:
  ObjectMeta meta_;
  std::vector<Word> slots_;
};

}  // namespace rvk::heap
