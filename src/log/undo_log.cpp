#include "log/undo_log.hpp"

#include <utility>

namespace rvk::log {

namespace detail {
namespace {

// Per-OS-thread free list of retired chunks (DESIGN.md §11).  Every green
// thread of a scheduler shares its host thread's pool, so a section that
// overflows into a second chunk hands it to the next section — on any
// vthread — instead of back to the allocator.  Bounded: a burst beyond
// kMaxPooled chunks is simply freed.
//
// `alive` goes false in the destructor; UndoLogs destroyed later during
// static/thread teardown then bypass the (already-destroyed) slots and free
// their chunks directly.
struct ChunkPool {
  static constexpr std::size_t kMaxPooled = 16;
  std::unique_ptr<Entry[]> slots[kMaxPooled];
  std::size_t count = 0;
  bool alive = true;
  ~ChunkPool() {
    alive = false;
    count = 0;
  }
};

ChunkPool& pool() {
  static thread_local ChunkPool p;
  return p;
}

std::unique_ptr<Entry[]> pool_take() {
  ChunkPool& p = pool();
  if (!p.alive || p.count == 0) return nullptr;
  return std::move(p.slots[--p.count]);
}

void pool_release(std::unique_ptr<Entry[]> chunk) {
  ChunkPool& p = pool();
  if (!p.alive || p.count == ChunkPool::kMaxPooled) return;  // chunk freed
  p.slots[p.count++] = std::move(chunk);
}

}  // namespace

std::size_t pooled_chunk_count() {
  ChunkPool& p = pool();
  return p.alive ? p.count : 0;
}

}  // namespace detail

void release_pooled_chunks() {
  detail::ChunkPool& p = detail::pool();
  if (!p.alive) return;
  while (p.count > 0) p.slots[--p.count].reset();
}

void UndoLog::release_storage() {
  note_high_water();
  for (auto& chunk : chunks_) detail::pool_release(std::move(chunk));
  chunks_.clear();
  cursor_ = nullptr;
  chunk_begin_ = nullptr;
  chunk_end_ = nullptr;
  active_ = 0;
}

void UndoLog::next_chunk() {
  note_high_water();
  if (chunk_begin_ != nullptr) {
    ++active_;  // first append into a fresh log keeps active_ == 0
  }
  if (active_ == chunks_.size()) {
    std::unique_ptr<Entry[]> chunk = detail::pool_take();
    // Uninitialised: entries are only ever read below the cursor, and an
    // untouched page of a fresh chunk then costs no resident memory.
    if (chunk == nullptr) {
      chunk = std::make_unique_for_overwrite<Entry[]>(kChunkEntries);
    }
    chunks_.push_back(std::move(chunk));
  }
  chunk_begin_ = chunks_[active_].get();
  chunk_end_ = chunk_begin_ + kChunkEntries;
  cursor_ = chunk_begin_;
}

void UndoLog::set_position(std::size_t n) {
  if (chunks_.empty()) {
    RVK_DCHECK(n == 0);
    return;
  }
  // A position at an exact chunk boundary parks the cursor at the *end* of
  // the previous chunk (the full-chunk state record() grows out of), so the
  // chunk holding entry n-1 is always materialized.
  active_ = n == 0 ? 0 : (n - 1) >> kChunkShift;
  chunk_begin_ = chunks_[active_].get();
  chunk_end_ = chunk_begin_ + kChunkEntries;
  cursor_ = chunk_begin_ + (n - (active_ << kChunkShift));
}

void UndoLog::release_retired_chunks() {
  // No live entry sits above the active chunk after a truncation, so
  // everything past it is pool fodder.  Non-allocating (unique_ptr moves
  // into fixed slots; overflow frees), so safe inside the engine's
  // forbidden-region commit/abort paths.
  while (chunks_.size() > active_ + 1) {
    detail::pool_release(std::move(chunks_.back()));
    chunks_.pop_back();
  }
}

void UndoLog::rollback_to(std::size_t mark) {
  const std::size_t n = size();
  RVK_CHECK_MSG(mark <= n, "watermark beyond log end");
  note_high_water();
  stats_.words_undone += n - mark;
  // Reverse replay, one segment at a time: within a chunk the walk is a
  // tight descending loop over contiguous entries.
  std::size_t i = n;
  while (i > mark) {
    const std::size_t chunk = (i - 1) >> kChunkShift;
    const Entry* base = chunks_[chunk].get();
    const std::size_t lo = mark > (chunk << kChunkShift)
                               ? mark
                               : (chunk << kChunkShift);
    while (i > lo) {
      const Entry& e = base[(--i) & kChunkMask];
      *e.addr = e.old_value;
    }
  }
  set_position(mark);
  release_retired_chunks();
  ++stats_.rollbacks;
}

void UndoLog::discard_all() {
  note_high_water();
  set_position(0);
  release_retired_chunks();
  ++stats_.commits;
}

}  // namespace rvk::log
