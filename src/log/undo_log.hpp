// Sequential undo log for speculative synchronized sections.
//
// Paper §3.1.2: "The barrier records in the log every modification performed
// by a thread executing a synchronized section. We implemented the log as a
// sequential buffer. For object and array stores, three values are recorded:
// object or array reference, value offset and the (old) value itself. For
// static variable stores two values are recorded: the offset of the static
// variable in the global symbol table and the old value."
//
// This module reproduces that structure, except that every heap slot here is
// a Word: an entry is (slot address, old value) for every store kind, and
// replay needs no kind (DESIGN.md §1).
//
// Each green thread owns one UndoLog.  Monitor frames remember the log size
// at entry (a *watermark*); rollback of a frame replays the suffix above its
// watermark in reverse ("the log is processed in reverse to restore modified
// locations to their original values", §3.1.2) and truncates it.
// Committing a *nested* frame leaves its entries in place: they remain
// speculative until the outermost frame commits, at which point the whole
// log is discarded.
//
// Storage is a chunked-segment arena (DESIGN.md §8): fixed-size entry
// chunks, allocated on demand.  Growth never copies — an append into a full
// chunk just opens the next one — so entry addresses are stable while the
// entries are live and the append fast path is a single bump-pointer store.
// Reverse replay walks the segments from the cursor down to the watermark.
//
// Chunks are pooled per OS thread (DESIGN.md §11): commit and rollback park
// retired chunks — those holding no live entries — on a thread-local free
// list, a finished thread parks all of its chunks there (release_storage),
// and next_chunk() takes from it before touching the allocator.  A
// steady-state section therefore never mallocs, a thread that logged one
// burst does not hold its high-water footprint forever, and a finished
// thread holds none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "support/annotations.hpp"

namespace rvk::log {

// 64-bit machine word; all heap slots are word-sized (heap/ packs smaller
// values into words), so one entry layout covers every store kind.
using Word = std::uint64_t;

// One logged store: the slot and the value it held before the store.  Replay
// is a single word write.
struct Entry {
  Word* addr;
  Word old_value;
};
static_assert(sizeof(Entry) == 16, "UndoLog's chunk sizing assumes 16 B");

namespace detail {
// Chunks currently parked on the calling OS thread's free list
// (tests/diagnostics).
std::size_t pooled_chunk_count();
}  // namespace detail

// Frees every chunk parked on the calling OS thread's free list (the
// scheduler calls this when it dies; DESIGN.md §11).
void release_pooled_chunks();

// Statistics a log keeps about its own traffic; consumed by tests and by the
// micro-overhead benchmarks.
struct LogStats {
  std::uint64_t appends = 0;          // total entries ever recorded
  std::uint64_t words_undone = 0;     // entries replayed by rollbacks
  std::uint64_t rollbacks = 0;        // rollback_to() invocations
  std::uint64_t commits = 0;          // discard_all() invocations
  std::uint64_t high_water = 0;       // max simultaneous entries
};

class UndoLog {
 public:
  // Entries per chunk.  8192 × 16 B = 128 KiB, exactly glibc's default mmap
  // threshold, so a chunk the per-thread pool cannot supply is an mmap; the
  // grow branch fires once per 8192 appends.
  static constexpr std::size_t kChunkShift = 13;
  static constexpr std::size_t kChunkEntries = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkEntries - 1;

  // `initial_capacity` reserves *pointer* slots for ceil(cap/kChunkEntries)
  // chunks; the chunks themselves come from the per-thread pool (or the
  // allocator) on first use, and truncation returns retired ones there, so a
  // steady-state section never allocates.  An idle thread's log therefore
  // costs a few dozen bytes, not a pre-sized buffer.  The default reserves
  // 16 slots (2 MiB of entries).
  explicit UndoLog(std::size_t initial_capacity = 1 << 17) {
    chunks_.reserve((initial_capacity + kChunkEntries - 1) >> kChunkShift);
  }

  // Returns every chunk to the per-thread pool (release_storage()).
  ~UndoLog() { release_storage(); }

  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;

  // Appends one store record.  Called from the write-barrier slow path —
  // this is the per-store cost the paper's modified VM charges to every
  // thread, so it stays minimal: one predicted-not-taken chunk-full test,
  // one bump-pointer store, one counter.  Growth never moves existing
  // entries.
  RVK_MAY_ALLOC void record(Word* addr, Word old_value) {
    if (cursor_ == chunk_end_) [[unlikely]] next_chunk();
    *cursor_++ = Entry{addr, old_value};
    ++stats_.appends;
  }

  // Current size; monitor frames capture this as their watermark.
  std::size_t watermark() const { return size(); }

  std::size_t size() const {
    if (chunk_begin_ == nullptr) return 0;
    return (active_ << kChunkShift) +
           static_cast<std::size_t>(cursor_ - chunk_begin_);
  }
  bool empty() const { return size() == 0; }

  // Replays entries above `mark` in reverse order, restoring each location
  // to its logged old value, then truncates the log to `mark`.
  //
  // Nested writes to the same location are handled naturally by reverse
  // replay: the oldest entry is replayed last and wins.
  // NO_YIELD: rollback replay runs inside the engine's undo-then-release
  // forbidden region (§3.1.2).  Truncation recycles chunks to the pool
  // instead of freeing or allocating.
  RVK_NO_YIELD void rollback_to(std::size_t mark);

  // Discards every entry: the outermost frame committed, so all speculative
  // stores are now permanent.  Retired chunks (beyond the active one) go
  // back to the per-thread pool.
  RVK_NO_YIELD void discard_all();

  // Entry addresses are stable across growth (chunks never move), so the
  // returned reference stays valid until the entry is truncated away.
  const Entry& entry(std::size_t i) const {
    RVK_DCHECK(i < size());
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  // Visits entries (mark, size()] newest-first — the replay order a rollback
  // of a frame with watermark `mark` would use.  Consumers (the JMM trace,
  // diagnostics) iterate segments without copying.
  template <typename F>
  void for_each_above_reverse(std::size_t mark, F&& f) const {
    for (std::size_t i = size(); i > mark; --i) f(entry(i - 1));
  }

  // Snapshot of the traffic counters.  The high-water mark is folded in
  // here and maintained on the cold paths (chunk growth, rollback, commit),
  // keeping the append fast path free of it and the accessor const.
  LogStats stats() const {
    LogStats s = stats_;
    const std::uint64_t n = size();
    if (n > s.high_water) s.high_water = n;
    return s;
  }
  void reset_stats() { stats_ = LogStats{}; }

  // Returns every chunk to the calling OS thread's pool and leaves an
  // empty log holding no storage; statistics survive, high-water mark
  // included.  The scheduler calls this when a thread finishes, so a
  // finished thread's log costs nothing while its control block lives on
  // (DESIGN.md §11, §15).  Any live entries are dropped, not replayed.
  // Non-allocating, like the truncation paths: chunks move into fixed pool
  // slots and overflow is freed.
  RVK_NO_YIELD void release_storage();

  // Allocated entry slots across all chunks (diagnostics).
  std::size_t capacity() const { return chunks_.size() << kChunkShift; }

 private:
  // Cold path of record(): opens the next chunk (pool, then allocator) and
  // refreshes the high-water statistic.
  RVK_MAY_ALLOC void next_chunk();

  // Repositions the cursor at logical index `n` (≤ current size).
  RVK_NO_YIELD void set_position(std::size_t n);

  // Returns chunks holding no live entries (index > active_) to the pool.
  // Only called from truncation paths, never from record().
  RVK_NO_YIELD void release_retired_chunks();

  void note_high_water() {
    const std::uint64_t n = size();
    if (n > stats_.high_water) stats_.high_water = n;
  }

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  Entry* cursor_ = nullptr;       // next append slot within the active chunk
  Entry* chunk_begin_ = nullptr;  // active chunk bounds (nullptr: no chunk)
  Entry* chunk_end_ = nullptr;
  std::size_t active_ = 0;        // index of the active chunk
  LogStats stats_;
};

}  // namespace rvk::log
