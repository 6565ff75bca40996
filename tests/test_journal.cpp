// Write-ahead job journal: replay fidelity, torn-tail truncation,
// dispatch accounting across restarts, and bounded compaction.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "service/journal.h"
#include "util/checksum.h"

namespace sdpm::service {
namespace {

namespace fs = std::filesystem;

std::string temp_journal(const char* tag) {
  const fs::path path = fs::temp_directory_path() /
                        ("sdpm_journal_" + std::string(tag) + "_" +
                         std::to_string(::getpid()) + ".bin");
  fs::remove(path);
  return path.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Journal, ReplaysEveryOutcome) {
  const std::string path = temp_journal("outcomes");
  {
    Journal journal(JournalOptions{.path = path});
    const JournalReplay fresh = journal.open();
    EXPECT_TRUE(fresh.jobs.empty());
    EXPECT_FALSE(fresh.truncated_tail);

    journal.admit(1, 10, "{\"benchmark\":\"a\"}");
    journal.dispatch(1);
    journal.complete_done(1, "00112233445566778899aabbccddeeff");

    journal.admit(2, 10, "{\"benchmark\":\"b\"}");
    journal.dispatch(2);
    journal.complete_failed(2, "EXEC_ERROR", "boom");

    journal.admit(3, 11, "{\"benchmark\":\"c\"}");
    journal.cancel(3);

    journal.admit(4, 11, "{\"benchmark\":\"d\"}");
    journal.dispatch(4);  // dispatched, never completed: the crash victim
  }

  Journal reopened(JournalOptions{.path = path});
  const JournalReplay replay = reopened.open();
  EXPECT_FALSE(replay.truncated_tail);
  ASSERT_EQ(replay.jobs.size(), 4u);
  EXPECT_EQ(replay.max_id, 4);

  EXPECT_EQ(replay.jobs[0].outcome, ReplayedJob::Outcome::kDone);
  EXPECT_EQ(replay.jobs[0].store_key, "00112233445566778899aabbccddeeff");
  EXPECT_EQ(replay.jobs[0].session, 10u);
  EXPECT_EQ(replay.jobs[0].spec_json, "{\"benchmark\":\"a\"}");

  EXPECT_EQ(replay.jobs[1].outcome, ReplayedJob::Outcome::kFailed);
  EXPECT_EQ(replay.jobs[1].error_code, "EXEC_ERROR");
  EXPECT_EQ(replay.jobs[1].error, "boom");

  EXPECT_EQ(replay.jobs[2].outcome, ReplayedJob::Outcome::kCancelled);

  EXPECT_EQ(replay.jobs[3].outcome, ReplayedJob::Outcome::kIncomplete);
  EXPECT_EQ(replay.jobs[3].dispatches, 1);
  fs::remove(path);
}

TEST(Journal, TornTailIsTruncatedNotFatal) {
  const std::string path = temp_journal("torn");
  {
    Journal journal(JournalOptions{.path = path});
    journal.open();
    journal.admit(1, 1, "{}");
    journal.admit(2, 1, "{}");
  }
  // A crash mid-append leaves a partial record: simulate with garbage that
  // cannot be a valid (length, crc, body) triple.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x00\x00\x00\x40garbage-torn-tail", 21);
  }
  Journal reopened(JournalOptions{.path = path});
  const JournalReplay replay = reopened.open();
  EXPECT_TRUE(replay.truncated_tail);
  ASSERT_EQ(replay.jobs.size(), 2u);
  EXPECT_EQ(replay.jobs[0].id, 1);
  EXPECT_EQ(replay.jobs[1].id, 2);

  // Compaction rewrote a clean file: the third open sees no torn tail and
  // appends land after the preserved records.
  reopened.admit(3, 2, "{}");
  reopened.close();
  Journal third(JournalOptions{.path = path});
  const JournalReplay again = third.open();
  EXPECT_FALSE(again.truncated_tail);
  EXPECT_EQ(again.jobs.size(), 3u);
  fs::remove(path);
}

TEST(Journal, CorruptMidFileStopsAtLastValidRecord) {
  const std::string path = temp_journal("midflip");
  {
    Journal journal(JournalOptions{.path = path});
    journal.open();
    journal.admit(1, 1, "{\"k\":\"first\"}");
    journal.admit(2, 1, "{\"k\":\"second\"}");
  }
  // Flip one byte in the LAST record's body: its CRC fails, replay keeps
  // everything before it.
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 8u);
  bytes[bytes.size() - 3] ^= 0x40;
  dump(path, bytes);

  Journal reopened(JournalOptions{.path = path});
  const JournalReplay replay = reopened.open();
  EXPECT_TRUE(replay.truncated_tail);
  ASSERT_EQ(replay.jobs.size(), 1u);
  EXPECT_EQ(replay.jobs[0].id, 1);
  fs::remove(path);
}

TEST(Journal, ForeignMagicIsTreatedAsEmpty) {
  const std::string path = temp_journal("magic");
  dump(path, "definitely not a journal file");
  Journal journal(JournalOptions{.path = path});
  const JournalReplay replay = journal.open();
  EXPECT_TRUE(replay.truncated_tail);
  EXPECT_TRUE(replay.jobs.empty());
  // And the compacted file IS a journal now.
  journal.admit(1, 1, "{}");
  journal.close();
  Journal reopened(JournalOptions{.path = path});
  EXPECT_EQ(reopened.open().jobs.size(), 1u);
  fs::remove(path);
}

TEST(Journal, DispatchCountsAccumulateAcrossLives) {
  // The poison-job signal: each daemon life dispatches the job, crashes,
  // and the next life sees one more dispatch without a completion.
  const std::string path = temp_journal("poison");
  for (int life = 1; life <= 3; ++life) {
    Journal journal(JournalOptions{.path = path});
    const JournalReplay replay = journal.open();
    if (life == 1) {
      journal.admit(7, 1, "{}");
    } else {
      ASSERT_EQ(replay.jobs.size(), 1u);
      EXPECT_EQ(replay.jobs[0].dispatches, life - 1);
      EXPECT_EQ(replay.jobs[0].outcome, ReplayedJob::Outcome::kIncomplete);
    }
    journal.dispatch(7);
  }
  Journal last(JournalOptions{.path = path});
  EXPECT_EQ(last.open().jobs[0].dispatches, 3);
  fs::remove(path);
}

TEST(Journal, CompactionDropsOldestTerminalJobs) {
  const std::string path = temp_journal("compact");
  const auto terminal = static_cast<std::int64_t>(kTerminalJobsKept) + 2;
  {
    Journal journal(JournalOptions{.path = path});
    journal.open();
    for (std::int64_t id = 1; id <= terminal + 2; ++id) {
      journal.admit(id, 1, "{}");
      journal.dispatch(id);
      if (id <= terminal) journal.complete_done(id, std::string(32, 'a'));
    }
  }
  Journal reopened(JournalOptions{.path = path});
  const JournalReplay replay = reopened.open();
  // Two terminal jobs past the window: the two oldest (1, 2) are compacted
  // away; both incomplete jobs (the last two) always survive.
  ASSERT_EQ(replay.jobs.size(), kTerminalJobsKept + 2);
  EXPECT_EQ(replay.jobs.front().id, 3);
  EXPECT_EQ(replay.jobs[kTerminalJobsKept - 1].id, terminal);
  EXPECT_EQ(replay.jobs[kTerminalJobsKept - 1].outcome,
            ReplayedJob::Outcome::kDone);
  EXPECT_EQ(replay.jobs[kTerminalJobsKept].id, terminal + 1);
  EXPECT_EQ(replay.jobs[kTerminalJobsKept].outcome,
            ReplayedJob::Outcome::kIncomplete);
  EXPECT_EQ(replay.jobs.back().id, terminal + 2);
  fs::remove(path);
}

TEST(Journal, AppendsAfterCloseAreNoOps) {
  const std::string path = temp_journal("closed");
  Journal journal(JournalOptions{.path = path});
  journal.open();
  journal.admit(1, 1, "{}");
  journal.close();
  journal.admit(2, 1, "{}");  // dropped, not a crash
  Journal reopened(JournalOptions{.path = path});
  EXPECT_EQ(reopened.open().jobs.size(), 1u);
  fs::remove(path);
}

TEST(Crc32, MatchesKnownVectors) {
  // The IEEE CRC32 check value every implementation agrees on.
  EXPECT_EQ(sdpm::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(sdpm::crc32(""), 0u);
  EXPECT_NE(sdpm::crc32("a"), sdpm::crc32("b"));
  // Incremental == one-shot.
  const std::uint32_t incremental =
      sdpm::crc32_update(sdpm::crc32_update(0, "1234"), "56789");
  EXPECT_EQ(incremental, sdpm::crc32("123456789"));
}

}  // namespace
}  // namespace sdpm::service
