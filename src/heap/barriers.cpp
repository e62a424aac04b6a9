#include "heap/barriers.hpp"

namespace rvk::heap {

namespace detail {
void (*g_trace_access)(const TraceAccess&) = nullptr;
void (*g_analysis_access)(const TraceAccess&) = nullptr;
}  // namespace detail

void set_trace_hook(void (*hook)(const TraceAccess&)) {
  detail::g_trace_access = hook;
}

void set_analysis_hook(void (*hook)(const TraceAccess&)) {
  detail::g_analysis_access = hook;
}

}  // namespace rvk::heap
