// WriteFilter: the lossy, direct-mapped first-store filter in front of the
// undo log (log/write_filter.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "log/write_filter.hpp"

namespace rvk::log {
namespace {

TEST(WriteFilterTest, FirstStorePerTagOnly) {
  WriteFilter f;
  std::vector<Word> words(2, 0);
  Word* a = &words[0];
  Word* b = &words[1];
  EXPECT_TRUE(f.first_store(a, 1));
  EXPECT_FALSE(f.first_store(a, 1));  // repeat within tag 1
  EXPECT_TRUE(f.first_store(b, 1));   // different word
  EXPECT_TRUE(f.first_store(a, 2));   // different tag
  EXPECT_FALSE(f.first_store(a, 2));
  EXPECT_FALSE(f.first_store(b, 1));  // b's slot was untouched by a
}

TEST(WriteFilterTest, CollisionEvictsAndMissesAgain) {
  // Words kSlots apart share a slot: each store evicts the other, so both
  // keep missing (and the caller keeps appending duplicates).
  WriteFilter f;
  std::vector<Word> words(WriteFilter::kSlots + 1, 0);
  Word* a = &words[0];
  Word* far = &words[WriteFilter::kSlots];
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(f.first_store(a, 1));
    EXPECT_TRUE(f.first_store(far, 1));
  }
  // Every word of a kSlots-long run has a slot of its own.
  for (std::size_t i = 0; i < WriteFilter::kSlots; ++i) {
    EXPECT_TRUE(f.first_store(&words[i], 2));
  }
  for (std::size_t i = 0; i < WriteFilter::kSlots; ++i) {
    EXPECT_FALSE(f.first_store(&words[i], 2));
  }
}

TEST(WriteFilterTest, StorageTakenAtFirstStoreAndReleasedEmpty) {
  WriteFilter f;
  Word a = 0;
  EXPECT_FALSE(f.holds_storage());
  EXPECT_TRUE(f.first_store(&a, 1));
  EXPECT_TRUE(f.holds_storage());
  f.release_storage();
  EXPECT_FALSE(f.holds_storage());
  EXPECT_TRUE(f.first_store(&a, 1));  // fresh slots remember nothing
}

}  // namespace
}  // namespace rvk::log
