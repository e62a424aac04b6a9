#include "explore/invariants.hpp"

#include <sstream>

#include "core/frame.hpp"
#include "core/revocable_monitor.hpp"
#include "rt/vthread.hpp"

namespace rvk::explore {

void InvariantRegistry::on_engine_event(const core::EngineEvent& e) {
  if (e.kind == obs::EventKind::kSectionAbort && e.monitor != nullptr) {
    ++aborts_[e.monitor];
  }
}

void InvariantRegistry::check_step(rt::VThread*) {
  ++checks_run_;
  std::string msg = check_all();
  if (!msg.empty()) throw InvariantViolation{std::move(msg)};
}

void InvariantRegistry::check_final() {
  ++checks_run_;
  std::string msg = check_all();
  if (!msg.empty()) throw InvariantViolation{std::move(msg)};
}

std::string InvariantRegistry::check_all() {
  std::ostringstream oss;

  // ---- Per-thread frame-stack structure ----
  std::uint64_t active_frames = 0;
  for (rt::VThread* t : sched_.threads()) {
    const core::ThreadSync* ts = engine_.find_sync(t);
    const std::size_t nframes = ts != nullptr ? ts->frames.size() : 0;
    active_frames += nframes;
    if (static_cast<std::size_t>(t->sync_depth) != nframes) {
      oss << "thread '" << t->name() << "': sync_depth " << t->sync_depth
          << " does not match " << nframes << " active frames";
      return oss.str();
    }
    const std::uint64_t innermost =
        nframes != 0 ? ts->frames.back().id : 0;
    if (t->current_frame_id != innermost) {
      oss << "thread '" << t->name() << "': current_frame_id "
          << t->current_frame_id << " but innermost frame is " << innermost;
      return oss.str();
    }
    if (nframes == 0 && t->undo_log.size() != 0) {
      oss << "thread '" << t->name() << "': undo log holds "
          << t->undo_log.size()
          << " entries outside any synchronized section (§3.1.2)";
      return oss.str();
    }
    // Timer-heap / queue-membership consistency (DESIGN.md §14): an armed
    // timed-block timer means the thread is still parked in some wait
    // queue.  Every wakeup path — grant, barge, interrupt, cancel — bumps
    // timer_gen_ via make_runnable, so a live timer for a runnable or
    // unqueued thread is a disarm that went missing.
    if (sched_.timer_armed(t, /*timed_block=*/true) &&
        (t->state() != rt::ThreadState::kBlocked ||
         t->blocked_on() == nullptr)) {
      oss << "thread '" << t->name()
          << "': timed-block timer armed but thread is not parked in a wait "
             "queue — timer heap and queue membership out of sync (§14)";
      return oss.str();
    }
    if (ts == nullptr) continue;
    std::uint64_t last_id = 0;
    std::size_t last_mark = 0;
    bool seen_revocable = false;
    for (const core::Frame& f : ts->frames) {
      if (f.monitor == nullptr) {
        oss << "thread '" << t->name() << "': frame " << f.id
            << " has no monitor";
        return oss.str();
      }
      if (f.id <= last_id) {
        oss << "thread '" << t->name()
            << "': frame ids not strictly increasing with nesting (" << f.id
            << " after " << last_id << ")";
        return oss.str();
      }
      if (f.log_mark < last_mark) {
        oss << "thread '" << t->name()
            << "': undo-log watermarks not monotone across nesting";
        return oss.str();
      }
      if (f.log_mark > t->undo_log.size()) {
        oss << "thread '" << t->name() << "': frame " << f.id
            << " watermark " << f.log_mark << " beyond live undo log ("
            << t->undo_log.size() << ")";
        return oss.str();
      }
      if (f.nonrevocable) {
        if (seen_revocable) {
          oss << "thread '" << t->name() << "': pinned frame " << f.id
              << " nested inside a revocable frame — non-revocability must "
                 "be upward-closed (§2.2)";
          return oss.str();
        }
      } else {
        seen_revocable = true;
      }
      last_id = f.id;
      last_mark = f.log_mark;
    }
  }

  // ---- Monitor-header coherence ----
  for (core::RevocableMonitor* m : engine_.monitors()) {
    rt::VThread* owner = m->owner();
    if ((owner == nullptr) != (m->recursion() == 0)) {
      oss << "monitor '" << m->name() << "': owner/recursion mismatch (owner "
          << (owner != nullptr ? owner->name() : "<none>") << ", recursion "
          << m->recursion() << ")";
      return oss.str();
    }
    if (owner == nullptr && m->deposited_priority() != 0) {
      oss << "monitor '" << m->name() << "': free but deposited priority "
          << m->deposited_priority() << " not cleared";
      return oss.str();
    }
    if (owner != nullptr && (m->deposited_priority() < rt::kMinPriority ||
                             m->deposited_priority() > rt::kMaxPriority)) {
      oss << "monitor '" << m->name() << "': deposited priority "
          << m->deposited_priority() << " outside Java range (§4)";
      return oss.str();
    }
    if (owner != nullptr && m->reserved() != nullptr) {
      oss << "monitor '" << m->name()
          << "': owned but still reserved for '" << m->reserved()->name()
          << "'";
      return oss.str();
    }
    // Cancellation safety (DESIGN.md §14): an abortable waiter is never
    // simultaneously cancelled and reserved — cancel() surrenders (and
    // re-handoffs) the reservation before posting the flag, and try_enter
    // re-checks the flag with no yield point before parking.  Scoped by
    // abortable_wait: a cancelled thread in a plain acquire() may still
    // legitimately hold a reservation.
    if (rt::VThread* w = m->reserved();
        w != nullptr && w->abortable_wait && w->cancel_requested) {
      oss << "monitor '" << m->name() << "': waiter '" << w->name()
          << "' is simultaneously cancelled and reserved — cancellation "
             "must surrender the reservation atomically (§14)";
      return oss.str();
    }
    // In-transit accounting (DESIGN.md §13/§14): every thread parked in the
    // entry queue or wait set sits inside a TransitGuard window, so the
    // counter can never undercount the queue population.  An abandon path
    // that decremented twice (or a cancel window that leaked a decrement)
    // trips this before the slot quiescence predicate could misfire.
    if (static_cast<std::size_t>(m->in_transit()) <
        m->entry_queue().size() + m->wait_set().size()) {
      oss << "monitor '" << m->name() << "': in_transit " << m->in_transit()
          << " undercounts queue population (" << m->entry_queue().size()
          << " queued + " << m->wait_set().size()
          << " waiting) — transit accounting underflowed across an "
             "abandon/cancel window (§13)";
      return oss.str();
    }
    std::string queue_msg;
    auto check_queue = [&](const rt::WaitQueue& q, const char* which) {
      q.for_each([&](rt::VThread* w) {
        if (!queue_msg.empty()) return;
        if (w->state() != rt::ThreadState::kBlocked) {
          queue_msg = "monitor '" + m->name() + "': thread '" + w->name() +
                      "' on the " + which + " is not blocked";
        } else if (w == owner) {
          queue_msg = "monitor '" + m->name() + "': owner '" + w->name() +
                      "' queued on its own " + which;
        }
      });
    };
    check_queue(m->entry_queue(), "entry queue");
    check_queue(m->wait_set(), "wait set");
    if (!queue_msg.empty()) return queue_msg;

    // Barging invariant (§4; CLAUDE.md): only rollback releases reserve.
    // Every abort performs at most one reserving release, so reservation
    // grants can never outnumber aborts — an always-reserving monitor
    // trips this on its first contended commit.
    const auto it = aborts_.find(m);
    const std::uint64_t rollback_releases =
        it != aborts_.end() ? it->second : 0;
    if (m->stats().reservations > rollback_releases) {
      oss << "monitor '" << m->name() << "': " << m->stats().reservations
          << " reservation grants but only " << rollback_releases
          << " rollback releases — an ordinary release reserved instead of "
             "allowing barging (§4)";
      return oss.str();
    }
  }

  // ---- Section ledger ----
  const core::EngineStats& st = engine_.stats();
  if (st.sections_entered !=
      st.sections_committed + st.frames_aborted + active_frames) {
    oss << "section ledger broken: " << st.sections_entered << " entered != "
        << st.sections_committed << " committed + " << st.frames_aborted
        << " aborted + " << active_frames << " active";
    return oss.str();
  }

  return {};
}

}  // namespace rvk::explore
