#include "log/write_filter.hpp"

namespace rvk::log {

void WriteFilter::take_storage() { slots_ = std::make_unique<Slot[]>(kSlots); }

}  // namespace rvk::log
