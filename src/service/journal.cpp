#include "service/journal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "service/telemetry.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/json.h"
#include "util/strings.h"

namespace sdpm::service {
namespace {

constexpr char kMagic[8] = {'S', 'D', 'P', 'M', 'J', 'N', 'L', '1'};
// type + id + session + wall_ms + payload length.
constexpr std::size_t kBodyFixedBytes = 1 + 8 + 8 + 8 + 4;
constexpr std::size_t kRecordHeaderBytes = 8;  // body len + crc

/// Wall-clock milliseconds since the Unix epoch.  Recorded for operators
/// reading the journal; replay never consults it (determinism-lint
/// allowlists this file for exactly that reason).
std::uint64_t wall_ms_epoch() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string encode_record(JournalRecordType type, std::int64_t id,
                          std::uint64_t session,
                          const std::string& payload) {
  std::string body;
  body.reserve(kBodyFixedBytes + payload.size());
  body.push_back(static_cast<char>(type));
  put_u64_be(body, static_cast<std::uint64_t>(id));
  put_u64_be(body, session);
  put_u64_be(body, wall_ms_epoch());
  put_u32_be(body, static_cast<std::uint32_t>(payload.size()));
  body += payload;

  std::string record;
  record.reserve(kRecordHeaderBytes + body.size());
  put_u32_be(record, static_cast<std::uint32_t>(body.size()));
  put_u32_be(record, crc32(body));
  record += body;
  return record;
}

std::string complete_payload_done(const std::string& store_key_hex) {
  Json payload = Json::object();
  payload.set("state", "done").set("store", store_key_hex);
  return payload.dump();
}

std::string complete_payload_failed(const std::string& code,
                                    const std::string& error) {
  Json payload = Json::object();
  payload.set("state", "failed").set("code", code).set("error", error);
  return payload.dump();
}

void write_all(int fd, const char* data, std::size_t n,
               const std::string& path) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::write(fd, data + sent, n - sent);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw Error(str_printf("journal: write to %s failed: %s", path.c_str(),
                             std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(w);
  }
}

}  // namespace

Journal::Journal(JournalOptions options) : options_(std::move(options)) {
  SDPM_REQUIRE(!options_.path.empty(), "Journal needs a path");
}

Journal::~Journal() { close(); }

JournalReplay Journal::open() {
  std::lock_guard lock(mutex_);
  SDPM_REQUIRE(fd_ < 0, "Journal::open() called twice");

  JournalReplay replay;
  std::string data;
  {
    std::FILE* file = std::fopen(options_.path.c_str(), "rb");
    if (file != nullptr) {
      char buffer[1 << 16];
      std::size_t got = 0;
      while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        data.append(buffer, got);
      }
      const bool ok = std::ferror(file) == 0;
      std::fclose(file);
      if (!ok) {
        throw Error(str_printf("journal: cannot read %s", options_.path.c_str()));
      }
    }
  }

  // Replay: valid records up to the first torn/corrupt one.
  std::map<std::int64_t, std::size_t> by_id;  // id -> index into jobs
  std::size_t offset = 0;
  if (data.size() >= sizeof(kMagic) &&
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0) {
    offset = sizeof(kMagic);
    while (offset + kRecordHeaderBytes <= data.size()) {
      const std::uint32_t body_len = get_u32_be(data.data() + offset);
      const std::uint32_t crc = get_u32_be(data.data() + offset + 4);
      if (body_len < kBodyFixedBytes ||
          offset + kRecordHeaderBytes + body_len > data.size()) {
        replay.truncated_tail = true;
        break;
      }
      const std::string_view body(data.data() + offset + kRecordHeaderBytes,
                                  body_len);
      if (crc32(body) != crc) {
        replay.truncated_tail = true;
        break;
      }
      const auto type = static_cast<JournalRecordType>(
          static_cast<unsigned char>(body[0]));
      const auto id = static_cast<std::int64_t>(get_u64_be(body.data() + 1));
      const std::uint64_t session = get_u64_be(body.data() + 9);
      const std::uint32_t payload_len = get_u32_be(body.data() + 25);
      if (payload_len != body_len - kBodyFixedBytes) {
        replay.truncated_tail = true;
        break;
      }
      const std::string payload(body.substr(kBodyFixedBytes));
      offset += kRecordHeaderBytes + body_len;
      ++replay.records;

      switch (type) {
        case JournalRecordType::kAdmit: {
          if (by_id.count(id) > 0) break;  // duplicate admit: keep the first
          ReplayedJob job;
          job.id = id;
          job.session = session;
          job.spec_json = payload;
          by_id.emplace(id, replay.jobs.size());
          replay.jobs.push_back(std::move(job));
          replay.max_id = std::max(replay.max_id, id);
          break;
        }
        case JournalRecordType::kDispatch: {
          const auto it = by_id.find(id);
          if (it != by_id.end()) ++replay.jobs[it->second].dispatches;
          break;
        }
        case JournalRecordType::kComplete: {
          const auto it = by_id.find(id);
          if (it == by_id.end()) break;
          ReplayedJob& job = replay.jobs[it->second];
          try {
            const Json record = Json::parse(payload);
            if (record.at("state").as_string() == "done") {
              job.outcome = ReplayedJob::Outcome::kDone;
              job.store_key = record.at("store").as_string();
            } else {
              job.outcome = ReplayedJob::Outcome::kFailed;
              job.error_code = record.at("code").as_string();
              job.error = record.at("error").as_string();
            }
          } catch (const std::exception&) {
            // CRC-valid but semantically malformed (a foreign writer?):
            // safest is to treat the job as incomplete and re-run it.
          }
          break;
        }
        case JournalRecordType::kCancel: {
          const auto it = by_id.find(id);
          if (it != by_id.end()) {
            replay.jobs[it->second].outcome =
                ReplayedJob::Outcome::kCancelled;
          }
          break;
        }
      }
    }
    if (offset < data.size()) replay.truncated_tail = true;
  } else if (!data.empty()) {
    // Unrecognized magic: not our journal.  Start fresh rather than guess.
    replay.truncated_tail = true;
  }

  // Compact: rewrite live state (incomplete jobs, plus the newest
  // kTerminalJobsKept terminal jobs) atomically, then open for append.
  std::size_t terminal_count = 0;
  for (const ReplayedJob& job : replay.jobs) {
    if (job.outcome != ReplayedJob::Outcome::kIncomplete) ++terminal_count;
  }
  std::size_t drop_terminal =
      terminal_count > kTerminalJobsKept
          ? terminal_count - kTerminalJobsKept
          : 0;  // jobs are in admission order: drop the oldest first

  const std::string temp = options_.path + ".tmp";
  std::FILE* out = std::fopen(temp.c_str(), "wb");
  if (out == nullptr) {
    throw Error(str_printf("journal: cannot create %s: %s", temp.c_str(),
                           std::strerror(errno)));
  }
  bool ok = std::fwrite(kMagic, 1, sizeof(kMagic), out) == sizeof(kMagic);
  const auto emit = [&](JournalRecordType type, const ReplayedJob& job,
                        const std::string& payload) {
    const std::string record = encode_record(type, job.id, job.session,
                                             payload);
    ok = ok && std::fwrite(record.data(), 1, record.size(), out) ==
                   record.size();
  };
  std::vector<ReplayedJob> kept;
  for (const ReplayedJob& job : replay.jobs) {
    if (job.outcome != ReplayedJob::Outcome::kIncomplete &&
        drop_terminal > 0) {
      --drop_terminal;
      continue;
    }
    emit(JournalRecordType::kAdmit, job, job.spec_json);
    for (std::int64_t d = 0; d < job.dispatches; ++d) {
      emit(JournalRecordType::kDispatch, job, "");
    }
    switch (job.outcome) {
      case ReplayedJob::Outcome::kIncomplete:
        break;
      case ReplayedJob::Outcome::kDone:
        emit(JournalRecordType::kComplete, job,
             complete_payload_done(job.store_key));
        break;
      case ReplayedJob::Outcome::kFailed:
        emit(JournalRecordType::kComplete, job,
             complete_payload_failed(job.error_code, job.error));
        break;
      case ReplayedJob::Outcome::kCancelled:
        emit(JournalRecordType::kCancel, job, "");
        break;
    }
    kept.push_back(job);
  }
  ok = std::fflush(out) == 0 && ok;
  std::fclose(out);
  if (!ok || ::rename(temp.c_str(), options_.path.c_str()) != 0) {
    ::unlink(temp.c_str());
    throw Error(str_printf("journal: cannot compact %s: %s",
                           options_.path.c_str(), std::strerror(errno)));
  }
  replay.jobs = std::move(kept);
  ++stats_.compactions;
  if (replay.truncated_tail) ++stats_.torn_tail_truncations;

  fd_ = ::open(options_.path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    throw Error(str_printf("journal: cannot open %s for append: %s",
                           options_.path.c_str(), std::strerror(errno)));
  }
  return replay;
}

void Journal::append_locked(JournalRecordType type, std::int64_t id,
                            std::uint64_t session,
                            const std::string& payload) {
  if (fd_ < 0) return;  // closed (shutdown teardown): appends are no-ops
  const std::string record = encode_record(type, id, session, payload);
  const auto t0 = std::chrono::steady_clock::now();
  write_all(fd_, record.data(), record.size(), options_.path);
  ++stats_.appends;
  double fsync_ms = 0;
  if (options_.fsync_each) {
    const auto f0 = std::chrono::steady_clock::now();
    ::fdatasync(fd_);
    ++stats_.fsyncs;
    fsync_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - f0)
                   .count();
  }
  if (options_.telemetry != nullptr) {
    const double append_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    ServiceTelemetry::record_if(options_.telemetry, Stage::kJournalAppend,
                                append_ms);
    if (options_.fsync_each) {
      ServiceTelemetry::record_if(options_.telemetry, Stage::kJournalFsync,
                                  fsync_ms);
    }
  }
}

void Journal::append(JournalRecordType type, std::int64_t id,
                     const std::string& payload) {
  std::lock_guard lock(mutex_);
  append_locked(type, id, /*session=*/0, payload);
}

void Journal::admit(std::int64_t id, std::uint64_t session,
                    const std::string& spec_json) {
  std::lock_guard lock(mutex_);
  append_locked(JournalRecordType::kAdmit, id, session, spec_json);
}

void Journal::dispatch(std::int64_t id) {
  append(JournalRecordType::kDispatch, id, "");
}

void Journal::complete_done(std::int64_t id,
                            const std::string& store_key_hex) {
  append(JournalRecordType::kComplete, id,
         complete_payload_done(store_key_hex));
}

void Journal::complete_failed(std::int64_t id, const std::string& code,
                              const std::string& error) {
  append(JournalRecordType::kComplete, id,
         complete_payload_failed(code, error));
}

void Journal::cancel(std::int64_t id) {
  append(JournalRecordType::kCancel, id, "");
}

void Journal::close() {
  std::lock_guard lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

JournalStats Journal::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace sdpm::service
