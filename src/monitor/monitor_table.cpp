#include "monitor/monitor_table.hpp"

#include <utility>

#include "common/check.hpp"

namespace rvk::monitor {

MonitorTable::~MonitorTable() = default;

MonitorTable& MonitorTable::global() {
  static MonitorTable table;
  return table;
}

void MonitorTable::set_deflate_veto(void* tag, DeflateVeto allow) {
  RVK_CHECK_MSG(tag != nullptr, "a deflation veto needs an owner tag");
  auto lk = lock();
  if (allow) {
    tag_vetoes_[tag] = std::move(allow);
  } else {
    tag_vetoes_.erase(tag);
  }
}

bool MonitorTable::may_deflate_locked(const MonitorBase& m,
                                      const void* owner_tag) const {
  if (!quiescent(m)) return false;
  if (owner_tag != nullptr) {
    auto it = tag_vetoes_.find(owner_tag);
    if (it != tag_vetoes_.end() && !it->second(m)) return false;
  }
  return true;
}

MonitorBase& MonitorTable::inflate(LockWord& word, std::string name,
                                   const Factory& factory, void* owner_tag) {
  auto lk = lock();
  // A stale inflated word is logically free; a live one must not re-inflate.
  RVK_DCHECK(slot_of(word) == nullptr);

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
  word = LockWord::inflated(index, slot.generation);
  slot.word = &word;
  return *slot.monitor;
}

MonitorTable::Slot* MonitorTable::slot_of(const LockWord& word) {
  if (!word.is_inflated() || word.index() >= slots_.size()) return nullptr;
  Slot& slot = slots_[word.index()];
  if (slot.monitor == nullptr || slot.generation != word.generation()) {
    return nullptr;  // stale: slot deflated/recycled since the word was cut
  }
  return &slot;
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
  ++slot.generation;  // every word minted for the old tenancy goes stale
  // Retirement keeps the 12-bit generation sound: a slot that exhausted its
  // generations is never recycled, so no stale word can ever falsely match
  // a re-tenanted slot.  Costs one Slot of bookkeeping per kMaxGeneration
  // deflations of the SAME index — vanishingly rare by construction.
  if (slot.generation <= LockWord::kMaxGeneration) {
    slot.next_free = free_head_;
    free_head_ = index;
  }
  --live_;
}

std::size_t MonitorTable::scavenge(const void* tag) {
  auto lk = lock();
  ++stats_.scavenge_passes;
  std::size_t deflated = 0;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.monitor == nullptr) continue;
    if (tag != nullptr && slot.owner_tag != tag) continue;
    if (!may_deflate_locked(*slot.monitor, slot.owner_tag)) continue;
    if (slot.word != nullptr) *slot.word = LockWord();
    destroy_slot(i);
    ++stats_.deflations;
    ++deflated;
  }
  return deflated;
}

void MonitorTable::release_slot(LockWord& word) noexcept {
  auto lk = lock();
  Slot* slot = slot_of(word);
  if (slot == nullptr) {
    // Stale (slot already recycled from under the word) or not inflated:
    // logically free either way; normalize the bits so the holder never
    // re-presents a stale word.
    if (word.is_inflated()) word = LockWord();
    return;
  }
  const std::uint32_t index = word.index();
  word = LockWord();
  if (may_deflate_locked(*slot->monitor, slot->owner_tag)) {
    destroy_slot(index);
  } else {
    // The word dies but the monitor still has protocol state (e.g. waiters
    // draining after a speculative object was reclaimed).  Detach: nothing
    // can re-reach the slot, and a later scavenge collects it once
    // quiescent.
    slot->word = nullptr;
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
    if (slot.word != nullptr) *slot.word = LockWord();
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
