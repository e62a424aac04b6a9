#include "obs.hpp"

namespace eng {

namespace detail {
thread_local Recorder* g_recorder = nullptr;
}

int g_obs_active = 0;

Recorder* current_recorder() { return detail::g_recorder; }

void Recorder::record(int kind, const char* name) {
  profiles_.emplace(name, kind);  // inserts on first sight of `name`
}

}  // namespace eng
