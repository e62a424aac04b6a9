#include "monitor/monitor_table.hpp"

#include <utility>

#include "common/check.hpp"

namespace rvk::monitor {

MonitorTable::~MonitorTable() = default;

MonitorTable& MonitorTable::global() {
  static MonitorTable table;
  return table;
}

MonitorBase& MonitorTable::inflate(LockWord& word, std::string name,
                                   const Factory& factory, void* owner_tag) {
  auto lk = lock();
  RVK_DCHECK(slot_of(word) == nullptr);  // a live word must not re-inflate

  std::uint32_t index;
  if (free_head_ != kNoFree) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    RVK_CHECK_MSG(slots_.size() <= LockWord::kMaxIndex,
                  "monitor table exhausted the lock-word index space");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  if (factory) {
    slot.monitor = factory(std::move(name));
  } else {
    slot.monitor = std::make_unique<BlockingMonitor>(std::move(name));
  }
  slot.owner_tag = owner_tag;
  slot.next_free = kNoFree;

  ++stats_.inflations;
  if (slot.ever_used) ++stats_.re_inflations;
  slot.ever_used = true;
  ++live_;
  if (live_ > stats_.live_high_water) stats_.live_high_water = live_;
  word = LockWord::inflated(index);
  slot.word = &word;
  return *slot.monitor;
}

MonitorTable::Slot* MonitorTable::slot_of(const LockWord& word) {
  if (!word.is_inflated() || word.index() >= slots_.size()) return nullptr;
  Slot& slot = slots_[word.index()];
  // The back-link is null for a free or detached slot, so this one compare
  // also rejects every word the slot was not inflated through.
  return slot.word == &word ? &slot : nullptr;
}

const MonitorTable::Slot* MonitorTable::slot_of(const LockWord& word) const {
  return const_cast<MonitorTable*>(this)->slot_of(word);
}

MonitorBase* MonitorTable::monitor_at(const LockWord& word) const {
  auto lk = lock();
  const Slot* slot = slot_of(word);
  return slot != nullptr ? slot->monitor.get() : nullptr;
}

bool MonitorTable::quiescent(const MonitorBase& m) {
  return m.owner() == nullptr && m.reserved() == nullptr &&
         m.entry_queue().empty() && m.wait_set().empty() &&
         m.in_transit() == 0;
}

void MonitorTable::destroy_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.monitor.reset();
  slot.word = nullptr;
  slot.owner_tag = nullptr;
  slot.next_free = free_head_;
  free_head_ = index;
  --live_;
}

void MonitorTable::release_slot(LockWord& word) noexcept {
  auto lk = lock();
  Slot* slot = slot_of(word);
  const std::uint32_t index = word.index();
  word = LockWord();
  if (slot == nullptr) return;
  if (quiescent(*slot->monitor)) {
    destroy_slot(index);
  } else {
    slot->word = nullptr;  // detached: engine teardown collects it
  }
}

void MonitorTable::release_slots_owned_by(void* tag) {
  RVK_CHECK_MSG(tag != nullptr,
                "nullptr tags the untagged baseline slots; releasing them "
                "wholesale is never what a caller means");
  auto lk = lock();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.monitor == nullptr || slot.owner_tag != tag) continue;
    if (slot.word != nullptr) *slot.word = LockWord();  // null: detached
    destroy_slot(i);
  }
}

std::size_t MonitorTable::slot_bytes() const {
  return slots_.capacity() * sizeof(Slot);
}

void release_inflated_slot(LockWord& word) noexcept {
  MonitorTable::global().release_slot(word);
}

}  // namespace rvk::monitor
