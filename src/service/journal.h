// Write-ahead job journal: the crash-safety log of sdpm_serviced.
//
// Every admission-queue transition is appended as one length-prefixed,
// CRC32-checksummed record:
//
//   +-----------------+----------------+------ body ------------------+
//   | u32 BE body len | u32 BE CRC32   | u8 type | u64 id | u64 sess  |
//   +-----------------+----------------+ u64 wall_ms | u32 len | data |
//
// after an 8-byte file magic ("SDPMJNL1").  Types: ADMIT (data = the
// spec's canonical JSON), DISPATCH (empty), COMPLETE (data = a small JSON
// record: {"state":"done","store":<hex key>} or
// {"state":"failed","code":...,"error":...}), CANCEL (empty).  wall_ms is
// a wall-clock timestamp for operators only — replay never reads it.
//
// RECOVERY SEMANTICS (pinned by tests/test_journal.cpp and the chaos
// harness):
//   - replay() scans records until EOF or the first invalid record (bad
//     length, bad CRC, short read).  A torn tail — the normal result of a
//     crash mid-append — is TRUNCATED at the last valid record boundary,
//     not fatal.  A file with a bad magic is treated as empty.
//   - A job with an ADMIT but no terminal record is recovered for
//     EXACTLY-ONCE re-queueing, carrying the number of DISPATCH records
//     seen so the daemon can quarantine poison jobs (a job that keeps
//     killing the daemon accumulates dispatches without completions).
//   - Terminal jobs are recovered with their outcome so completed work
//     stays queryable across a restart (results themselves live in the
//     PersistentStore, addressed by the COMPLETE record's store key).
//
// open() replays, then COMPACTS: the file is atomically rewritten to hold
// only live state (every incomplete job, and the newest kTerminalJobsKept
// terminal jobs), so the journal stays bounded across restarts instead of
// growing forever.
//
// All appends are serialized by an internal mutex.  The AdmissionQueue
// is the daemon's only writer: it appends inside its own critical
// sections, so each job's records follow the order of its transitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sdpm::service {

class ServiceTelemetry;

/// Terminal jobs that stay queryable by id: the newest this many by id.
/// The admission queue evicts older ones from its job table and the
/// journal's compaction drops them, so an id gets the same answer before
/// and after a restart.
inline constexpr std::size_t kTerminalJobsKept = 1024;

enum class JournalRecordType : std::uint8_t {
  kAdmit = 1,
  kDispatch = 2,
  kComplete = 3,
  kCancel = 4,
};

/// One job's state as reconstructed by replay.
struct ReplayedJob {
  std::int64_t id = 0;
  std::uint64_t session = 0;
  std::string spec_json;      ///< canonical JobSpec document
  std::int64_t dispatches = 0;

  enum class Outcome { kIncomplete, kDone, kFailed, kCancelled };
  Outcome outcome = Outcome::kIncomplete;
  std::string store_key;   ///< kDone: hex key of the result in the store
  std::string error;       ///< kFailed
  std::string error_code;  ///< kFailed
};

struct JournalReplay {
  std::vector<ReplayedJob> jobs;  ///< in admission (id) order
  std::int64_t max_id = 0;
  std::size_t records = 0;        ///< valid records replayed
  bool truncated_tail = false;    ///< a torn/corrupt tail was cut off
};

struct JournalOptions {
  std::string path;
  /// fsync after every append.  Off by default: the chaos model is a
  /// crashed/SIGKILLed daemon (page cache survives), not a power cut.
  bool fsync_each = false;
  /// When set (not owned), every append self-times into the
  /// journal_append stage (and the fsync portion into journal_fsync).
  ServiceTelemetry* telemetry = nullptr;
};

/// Lifetime health counters, surfaced by the daemon's `stats` op.
struct JournalStats {
  std::int64_t appends = 0;
  std::int64_t fsyncs = 0;
  std::int64_t compactions = 0;
  std::int64_t torn_tail_truncations = 0;
};

class Journal {
 public:
  explicit Journal(JournalOptions options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Replay the existing file (if any), compact it to live state, and
  /// leave it open for appends.  Throws sdpm::Error on I/O errors that
  /// are not torn tails (e.g. an unwritable directory).
  JournalReplay open();

  void admit(std::int64_t id, std::uint64_t session,
             const std::string& spec_json);
  void dispatch(std::int64_t id);
  void complete_done(std::int64_t id, const std::string& store_key_hex);
  void complete_failed(std::int64_t id, const std::string& code,
                       const std::string& error);
  void cancel(std::int64_t id);

  void close();
  const std::string& path() const { return options_.path; }

  JournalStats stats() const;

 private:
  void append_locked(JournalRecordType type, std::int64_t id,
                     std::uint64_t session, const std::string& payload);
  void append(JournalRecordType type, std::int64_t id,
              const std::string& payload);

  JournalOptions options_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  JournalStats stats_;  ///< guarded by mutex_
};

}  // namespace sdpm::service
