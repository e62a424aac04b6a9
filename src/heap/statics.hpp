// Static (global) variables.
//
// Paper §3.1.2: "For static variable stores two values are recorded: the
// offset of the static variable in the global symbol table and the old value
// of the static variable."  StaticsTable is that global symbol table: slots
// are defined by name and addressed by offset; a store logs the slot's
// address, as a field store does.  Unlike objects, statics carry a writer
// mark *per slot* (distinct globals are unrelated; sharing one mark would
// create false non-revocability couplings between them).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "heap/barriers.hpp"
#include "heap/object.hpp"

namespace rvk::heap {

class StaticsTable {
 public:
  StaticsTable() = default;
  StaticsTable(const StaticsTable&) = delete;
  StaticsTable& operator=(const StaticsTable&) = delete;

  // Defines a new static variable; returns its offset.  `initial` seeds the
  // slot without logging (class initialization happens-before everything).
  std::uint32_t define(std::string name, Word initial = 0) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->name = std::move(name);
    slots_.back()->value = initial;
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  std::size_t size() const { return slots_.size(); }
  const std::string& name_of(std::uint32_t offset) const {
    return slots_[offset]->name;
  }

  Word get_word(std::uint32_t offset) {
    RVK_DCHECK(offset < slots_.size());
    Slot& s = *slots_[offset];
    read_barrier(s.meta);
    trace_access(TraceAccess::Kind::kRead, &s.value, &s, offset, s.value, 0);
    return s.value;
  }

  void set_word(std::uint32_t offset, Word value) {
    RVK_DCHECK(offset < slots_.size());
    Slot& s = *slots_[offset];
    // The log and the trace dispatch share one identity, the slot address:
    // jmm/ resolves a rollback's undo events (built from log entries)
    // through the write events it traced here.
    write_barrier(s.meta, &s.value);
    trace_access(TraceAccess::Kind::kWrite, &s.value, &s, offset, value,
                 s.value);
    s.value = value;
  }

  template <detail::SlotValue T>
  T get(std::uint32_t offset) {
    return detail::from_word<T>(get_word(offset));
  }

  template <detail::SlotValue T>
  void set(std::uint32_t offset, T value) {
    set_word(offset, detail::to_word(value));
  }

  ObjectMeta& meta_of(std::uint32_t offset) { return slots_[offset]->meta; }

 private:
  struct Slot {
    std::string name;
    ObjectMeta meta;
    Word value = 0;
  };
  // unique_ptr keeps slot addresses stable across define() while the undo
  // log holds raw pointers to `value`.
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace rvk::heap
