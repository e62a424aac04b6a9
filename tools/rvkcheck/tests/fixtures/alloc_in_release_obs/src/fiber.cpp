// Fiber-switch site: start/finish sanitizer annotations correctly paired
// around the context switch, plus the first-arrival (finish-only) entry.
#include "sched.hpp"

namespace eng {

struct Switcher {
  void* fake_stack_;
  void dispatch();
  static void entry();
};

void Switcher::dispatch() {
  __sanitizer_start_switch_fiber(&fake_stack_, nullptr, 0);
  swapcontext(nullptr, nullptr);
  __sanitizer_finish_switch_fiber(fake_stack_, nullptr, nullptr);
}

// First code to run on a fresh fiber: the matching start happened in
// dispatch(), so a bare finish is correct here — the config lists this
// function in fiber_finish_only.
void Switcher::entry() {
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
}

}  // namespace eng
