#include "heap/barriers.hpp"

#include "heap/heap.hpp"

namespace rvk::heap {

namespace detail {
void (*g_alloc_hook)(Heap*, HeapObject*) = nullptr;
}  // namespace detail

void set_alloc_hook(void (*hook)(Heap*, HeapObject*)) {
  detail::g_alloc_hook = hook;
}

namespace detail {
bool g_track_dependencies = false;
void (*g_tracked_read_hook)(ObjectMeta&, const void*) = nullptr;
void (*g_trace_access)(const TraceAccess&) = nullptr;
void (*g_analysis_access)(const TraceAccess&) = nullptr;
}  // namespace detail

void set_trace_hook(void (*hook)(const TraceAccess&)) {
  detail::g_trace_access = hook;
}

void set_analysis_hook(void (*hook)(const TraceAccess&)) {
  detail::g_analysis_access = hook;
}

void set_dependency_tracking(bool on) { detail::g_track_dependencies = on; }
bool dependency_tracking() { return detail::g_track_dependencies; }

void set_tracked_read_hook(void (*hook)(ObjectMeta&, const void*)) {
  detail::g_tracked_read_hook = hook;
}

}  // namespace rvk::heap
