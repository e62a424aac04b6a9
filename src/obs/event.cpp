#include "obs/event.hpp"

namespace rvk::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kDispatch:       return "dispatch";
    case EventKind::kSwitchYield:    return "switch-yield";
    case EventKind::kSwitchBlock:    return "switch-block";
    case EventKind::kSwitchSleep:    return "switch-sleep";
    case EventKind::kSwitchFinish:   return "switch-finish";
    case EventKind::kMonitorContend: return "monitor-contend";
    case EventKind::kMonitorAcquire: return "monitor-acquire";
    case EventKind::kMonitorRelease: return "monitor-release";
    case EventKind::kMonitorBarge:   return "monitor-barge";
    case EventKind::kMonitorAbandon: return "monitor-abandon";
    case EventKind::kSectionEnter:   return "section-enter";
    case EventKind::kSectionCommit:  return "section-commit";
    case EventKind::kSectionAbort:   return "section-abort";
    case EventKind::kSectionRetry:   return "section-retry";
    case EventKind::kRevokeRequest:  return "revoke-request";
    case EventKind::kRevokeDeliver:  return "revoke-deliver";
    case EventKind::kRevokeDenied:   return "revoke-denied";
    case EventKind::kRevokeDropped:  return "revoke-dropped";
    case EventKind::kDeadlockBreak:  return "deadlock-break";
    case EventKind::kPin:            return "pin";
    case EventKind::kUndoReplay:     return "undo-replay";
    case EventKind::kUnpin:          return "unpin";
  }
  return "?";
}

}  // namespace rvk::obs
