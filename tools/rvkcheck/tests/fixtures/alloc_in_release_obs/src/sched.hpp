// Miniature scheduler surface: just enough shape for rvkcheck's four rules.
#pragma once

namespace eng {

namespace detail {
extern thread_local struct Sched* g_sched;  // the TLS the rule guards
}

struct Sched {
  // Declared effect roots, exactly like the real tree's yield_point.
  RVK_MAY_YIELD RVK_MAY_ALLOC void yield_point();
  RVK_NO_YIELD void make_runnable(int t);
  int ticks_;
};

// Out-of-line accessor: the only sanctioned way to read detail::g_sched.
Sched* current_sched();

}  // namespace eng
