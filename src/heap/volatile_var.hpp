// Volatile variables.
//
// JLS: "updates to volatile variables immediately become visible to all
// program threads"; the JMM adds a happens-before edge from each volatile
// write to every subsequent volatile read of the same variable.  On this
// green-thread substrate immediacy is trivial (one write at a time), but the
// *revocation* interaction of §2.2 / Figure 3 is not: a volatile write
// performed inside a synchronized section that is later read by another
// thread must pin the writer's enclosing monitors non-revocable, or a
// rollback would make the observed value appear out of thin air.
//
// The pin happens when a *foreign read actually observes* the speculative
// write — exactly the read-write dependency the paper describes.  A volatile
// store therefore takes the ordinary write barrier and nothing more; the
// read barrier in load() finds the writer mark (core::EngineConfig::jmm_guard
// turns the tracking on and off, ablated in bench/ablation_jmm_guard).
#pragma once

#include <string>

#include "heap/barriers.hpp"
#include "heap/object.hpp"

namespace rvk::heap {

template <detail::SlotValue T>
class VolatileVar {
 public:
  explicit VolatileVar(std::string name, T initial = T{})
      : name_(std::move(name)), value_(detail::to_word(initial)) {}

  VolatileVar(const VolatileVar&) = delete;
  VolatileVar& operator=(const VolatileVar&) = delete;

  const std::string& name() const { return name_; }

  T load() {
    read_barrier(meta_);
    trace_access(TraceAccess::Kind::kVolatileRead, &value_, this, 0, value_, 0);
    return detail::from_word<T>(value_);
  }

  void store(T v) {
    write_barrier(meta_, &value_);
    Word w = detail::to_word(v);
    trace_access(TraceAccess::Kind::kVolatileWrite, &value_, this, 0, w,
                 value_);
    value_ = w;
  }

  ObjectMeta& meta() { return meta_; }

 private:
  std::string name_;
  ObjectMeta meta_;
  Word value_;
};

}  // namespace rvk::heap
