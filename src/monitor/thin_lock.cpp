#include "monitor/thin_lock.hpp"

#include "common/check.hpp"
#include "rt/scheduler.hpp"

namespace rvk::monitor {

void ThinLock::acquire() { (void)enter(std::nullopt); }

bool ThinLock::try_acquire(std::uint64_t ticks) { return enter(ticks); }

bool ThinLock::enter(const std::optional<std::uint64_t>& ticks) {
  rt::VThread* t = rt::current_vthread();
  RVK_CHECK_MSG(t != nullptr, "thin lock used outside a running scheduler");
  const std::uint32_t tid = t->id();
  // Every heavy path contends on the fat monitor with the caller's deadline
  // (none: MonitorBase::acquire).
  auto contend = [this, &ticks](MonitorBase& m) {
    ++stats_.heavy_acquires;
    if (!ticks) {
      m.acquire();
      return true;
    }
    return m.try_enter(*ticks);
  };
  if (!LockWord::fits_owner(tid)) [[unlikely]] {
    // Past the 22-bit id budget this thread can never appear in a
    // thin/biased word: it goes straight to the fat monitor (bucketed with
    // recursion overflow — both are encoding-capacity overflows).
    MonitorBase* existing = MonitorTable::global().monitor_at(word_);
    return contend(existing != nullptr ? *existing
                                       : inflate(InflationCause::kOverflow));
  }
  // The folded fast path (DESIGN.md §13): one load + one compare covers the
  // hot "same thread re-acquires its released lock" case.  A free word, or
  // one biased to another thread but free (taking it just revokes the bias),
  // is taken the same way, with no inflation.  None of the word-only paths
  // can block, so they succeed whatever the deadline.
  if (word_ == LockWord::biased(tid) || word_.is_free() ||
      word_.is_biased()) [[likely]] {
    word_ = LockWord::thin(tid, 1);
    ++stats_.thin_acquires;
    return true;
  }
  if (word_.is_inflated()) {
    MonitorBase* m = MonitorTable::global().monitor_at(word_);
    RVK_CHECK_MSG(m != nullptr, "thin lock holds a stale inflated word");
    return contend(*m);
  }
  // Thin.
  if (word_.owner_id() == tid) {
    const std::uint32_t count = word_.count();
    if (count == kMaxCount) {
      // Recursion counter exhausted: inflate, carrying the count over; the
      // fat monitor takes recursion kMaxCount + 1 instantly.
      return contend(inflate(InflationCause::kOverflow));
    }
    word_ = LockWord::thin(tid, count + 1);  // recursive fast path
    ++stats_.thin_acquires;
    return true;
  }
  // Contention: inflate on behalf of the current thin owner (ownership
  // transfers inside the table), then contend on the heavy monitor like
  // everyone else.  A zero-tick probe fails without inflating instead — a
  // probe that does not intend to wait should not force the lock fat.
  if (ticks && *ticks == 0) return false;
  return contend(inflate(InflationCause::kContention));
}

void ThinLock::release() {
  if (word_.is_inflated()) {
    MonitorTable& table = MonitorTable::global();
    MonitorBase* m = table.monitor_at(word_);
    RVK_CHECK_MSG(m != nullptr, "thin lock holds a stale inflated word");
    rt::VThread* t = rt::current_vthread();
    RVK_CHECK_MSG(t != nullptr && m->held_by(t),
                  "thin-lock release by non-owner");
    m->release();
    // Opportunistic deflation — runs strictly after do_release's forbidden
    // region returned.  Quiescence fails whenever anyone still wants the
    // monitor (queued, reserved, or in transit), so a contended release
    // stays inflated and §5.6 barging is untouched.  Deflating to
    // biased(t) keeps the releasing thread on the one-compare fast path
    // (an id past the encoding budget deflates to free instead).
    const LockWord after = LockWord::fits_owner(t->id())
                               ? LockWord::biased(t->id())
                               : LockWord();
    if (table.try_deflate(word_, after)) {
      ++stats_.deflations;
    }
    return;
  }
  rt::VThread* t = rt::current_vthread();
  RVK_CHECK_MSG(t != nullptr && word_.is_thin() &&
                    word_.owner_id() == t->id(),
                "thin-lock release by non-owner");
  const std::uint32_t count = word_.count();
  if (count > 1) {
    word_ = LockWord::thin(t->id(), count - 1);
  } else {
    word_ = LockWord::biased(t->id());  // free, primed for re-acquire
  }
}

MonitorBase& ThinLock::inflate(InflationCause cause) {
  ++stats_.inflations;
  if (stats_.deflations > 0) ++stats_.re_inflations;
  switch (cause) {
    case InflationCause::kContention: ++stats_.inflation_by_contention; break;
    case InflationCause::kOverflow: ++stats_.inflation_by_overflow; break;
    case InflationCause::kWait: ++stats_.inflation_by_wait; break;
    case InflationCause::kObjectSync: break;  // not a ThinLock cause
  }
  return MonitorTable::global().inflate(word_, name_ + ":inflated", cause);
}

MonitorBase& ThinLock::heavy() {
  if (MonitorBase* m = MonitorTable::global().monitor_at(word_)) return *m;
  return inflate(InflationCause::kWait);
}

bool ThinLock::held_by_current() const {
  if (word_.is_inflated()) {
    const MonitorBase* m = MonitorTable::global().monitor_at(word_);
    return m != nullptr && m->held_by_current();
  }
  rt::VThread* t = rt::current_vthread();
  return t != nullptr && word_.is_thin() && word_.owner_id() == t->id();
}

}  // namespace rvk::monitor
