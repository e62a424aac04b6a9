// Release path mirroring the real tree's monitor layer: do_release is a
// forbidden root (the engine's undo-then-release sequence runs through it),
// and it reports the release to the observability recorder.
#include "obs.hpp"
#include "sched.hpp"

namespace eng {

struct Monitor {
  int owner_;
  const char* name_;
  void do_release(Sched* s);
};

void Monitor::do_release(Sched* s) {
  owner_ = 0;
  s->make_runnable(1);
  on_event(3, name_);  // SEEDED VIOLATION: the recorder's handler inserts
                       // into a name-keyed map inside the release region
}

}  // namespace eng
