#include "sched.hpp"

namespace eng {

namespace detail {
thread_local Sched* g_sched = nullptr;
}

Sched* current_sched() { return detail::g_sched; }

void Sched::yield_point() {
  // The real switch lives in Switcher::dispatch (properly bracketed);
  // the declared RVK_MAY_YIELD on the declaration carries the effect.
  ticks_ = ticks_ + 1;
}

void Sched::make_runnable(int t) {
  (void)t;
}

}  // namespace eng
