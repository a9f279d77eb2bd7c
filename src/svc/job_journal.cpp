#include "svc/job_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "fault/fault.h"
#include "io/atomic_file.h"
#include "obs/metrics.h"
#include "svc/catalog.h"
#include "svc/snapshot.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rap::svc {

namespace {

constexpr char kHeader[] = "RAPJRNL 1\n";

util::Status errnoStatus(const std::string& what, const std::string& path) {
  return util::Status::internal(what + " '" + path +
                                "': " + std::strerror(errno));
}

}  // namespace

JobJournal::JobJournal(Options options) : options_(std::move(options)) {
  if (obs::metricsEnabled()) {
    auto& reg = obs::defaultRegistry();
    appended_ = &reg.counter("rap_svc_journal_appended_total");
    dropped_ = &reg.counter("rap_svc_journal_dropped_total");
  }
}

JobJournal::~JobJournal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) ::close(fd_);
}

util::Result<std::unique_ptr<JobJournal>> JobJournal::open(Options options) {
  if (options.path.empty()) {
    return util::Status::invalidArgument("journal path is empty");
  }
  std::unique_ptr<JobJournal> journal(new JobJournal(std::move(options)));
  std::lock_guard<std::mutex> lock(journal->mutex_);

  std::string text;
  {
    std::ifstream in(journal->options_.path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
  }
  if (!text.empty() &&
      !util::startsWith(text, std::string_view(kHeader, sizeof(kHeader) - 2))) {
    // Refuse to adopt (and later overwrite) a file that was never ours.
    return util::Status::invalidArgument("'" + journal->options_.path +
                                         "' is not a RAPJRNL journal");
  }
  if (!text.empty()) {
    const std::size_t damaged = journal->recoverLocked(text);
    if (damaged > 0) {
      RAP_LOG_KV(Warn, {"path", journal->options_.path},
                 {"damaged_bytes", damaged})
          << "journal tail damaged (crash mid-append); truncating";
    }
  }
  // Rewriting live records heals any damaged tail and drops completed
  // history, so the append fd below always starts from a clean file.
  RAP_RETURN_IF_ERROR(journal->compactLocked());
  if (journal->dropped_ != nullptr && journal->recovery_dropped_ > 0) {
    journal->dropped_->increment(journal->recovery_dropped_);
  }
  return journal;
}

std::size_t JobJournal::recoverLocked(const std::string& text) {
  std::size_t pos = sizeof(kHeader) - 1;  // past "RAPJRNL 1\n"
  if (text.size() < pos || text.compare(0, pos, kHeader) != 0) {
    recovery_dropped_ += 1;
    return text.size();
  }
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // unterminated line: damaged tail
    const std::string line = text.substr(pos, nl - pos);
    std::size_t next = nl + 1;

    if (util::startsWith(line, "A ")) {
      const auto fields = util::split(line, ' ');
      if (fields.size() != 8) break;
      const auto id = util::parseInt(fields[1]);
      const auto priority = util::parseInt(fields[3]);
      const auto qlen = util::parseInt(fields[6]);
      const auto blen = util::parseInt(fields[7]);
      // The body hash is a full 64-bit value (can exceed INT64_MAX), so
      // it travels as fixed-width hex rather than through parseInt.
      char* hash_end = nullptr;
      const std::uint64_t hash =
          std::strtoull(fields[5].c_str(), &hash_end, 16);
      if (!id || !priority || !qlen || !blen || *id <= 0 || *qlen < 0 ||
          *blen < 0 || fields[5].empty() || hash_end == nullptr ||
          *hash_end != '\0' || (fields[4] != "csv" && fields[4] != "json")) {
        break;
      }
      // Both byte runs are length-prefixed and '\n'-framed; anything
      // short of that is the torn tail of a crashed append.
      const auto query_len = static_cast<std::size_t>(*qlen);
      const auto body_len = static_cast<std::size_t>(*blen);
      if (next + query_len >= text.size() || text[next + query_len] != '\n') {
        break;
      }
      std::string query = text.substr(next, query_len);
      next += query_len + 1;
      if (next + body_len >= text.size() || text[next + body_len] != '\n') {
        break;
      }
      std::string body = text.substr(next, body_len);
      next += body_len + 1;

      const auto record_id = static_cast<std::uint64_t>(*id);
      next_id_ = std::max(next_id_, record_id + 1);
      if (contentHash(body) != hash) {
        // Torn or bit-rotted storage: never replay a body we cannot
        // prove is the one that was accepted.
        recovery_dropped_ += 1;
        RAP_LOG_KV(Warn, {"record", record_id})
            << "journal record body hash mismatch; dropped";
      } else {
        Record record;
        record.id = record_id;
        record.tenant = fields[2];
        record.priority = static_cast<std::int32_t>(*priority);
        record.content_type = fields[4];
        record.query = std::move(query);
        record.body = std::move(body);
        live_.emplace(record_id, std::move(record));
      }
    } else if (util::startsWith(line, "C ")) {
      const auto fields = util::split(line, ' ');
      if (fields.size() != 3) break;
      const auto id = util::parseInt(fields[1]);
      if (!id || *id <= 0) break;
      live_.erase(static_cast<std::uint64_t>(*id));
    } else if (!util::trim(line).empty()) {
      break;  // unknown record type: stop before misinterpreting bytes
    }
    pos = next;
  }
  if (pos < text.size()) {
    recovery_dropped_ += 1;
    return text.size() - pos;
  }
  return 0;
}

std::string JobJournal::renderLocked(const Record& record) const {
  std::string out = util::strFormat(
      "A %llu %s %d %s %016llx %zu %zu\n",
      static_cast<unsigned long long>(record.id), record.tenant.c_str(),
      record.priority, record.content_type.c_str(),
      static_cast<unsigned long long>(contentHash(record.body)),
      record.query.size(), record.body.size());
  out += record.query;
  out += '\n';
  out += record.body;
  out += '\n';
  return out;
}

util::Status JobJournal::compactLocked() {
  std::string content = kHeader;
  for (const auto& [id, record] : live_) content += renderLocked(record);

  RAP_RETURN_IF_ERROR(
      io::atomicReplaceFile(options_.path, content, options_.fsync));

  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(options_.path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) return errnoStatus("cannot reopen", options_.path);
  file_bytes_ = content.size();
  return util::Status::ok();
}

util::Status JobJournal::writeLocked(const std::string& bytes) {
  if (fd_ < 0) return util::Status::internal("journal file is not open");
  if (!io::writeAll(fd_, bytes)) {
    return errnoStatus("cannot append to", options_.path);
  }
  if (options_.fsync && ::fsync(fd_) != 0) {
    return errnoStatus("cannot fsync", options_.path);
  }
  file_bytes_ += bytes.size();
  if (options_.compact_bytes > 0 && file_bytes_ > options_.compact_bytes) {
    // Best effort: a failed compaction leaves the (valid, just large)
    // append-only file in place.
    const util::Status compacted = compactLocked();
    if (!compacted.isOk()) {
      RAP_LOG_KV(Warn, {"path", options_.path})
          << "journal compaction failed: " << compacted.toString();
    }
  }
  return util::Status::ok();
}

util::Result<std::uint64_t> JobJournal::append(Record record) {
  RAP_RETURN_IF_ERROR(RAP_FAULT_STATUS("svc.journal.append"));
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = next_id_++;
  const std::uint64_t id = record.id;
  const std::string bytes = renderLocked(record);
  // Live before the write: a compaction the write triggers rewrites the
  // file from live_ and must keep this record.
  live_.emplace(id, std::move(record));
  if (util::Status written = writeLocked(bytes); !written.isOk()) {
    live_.erase(id);
    return written;
  }
  if (appended_ != nullptr) appended_->increment();
  return id;
}

void JobJournal::complete(std::uint64_t record_id, const char* state) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (live_.erase(record_id) == 0) return;
  const util::Status written = writeLocked(util::strFormat(
      "C %llu %s\n", static_cast<unsigned long long>(record_id), state));
  if (!written.isOk()) {
    // Losing a completion marker is safe (the record replays, the
    // cache serves the stored document); losing the job would not be.
    RAP_LOG_KV(Warn, {"record", record_id})
        << "journal completion not recorded: " << written.toString();
  }
}

std::vector<JobJournal::Record> JobJournal::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Record> out;
  out.reserve(live_.size());
  for (const auto& [id, record] : live_) out.push_back(record);
  return out;
}

std::size_t JobJournal::liveCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_.size();
}

ReplaySummary replayJournal(JobJournal& journal, DatasetCatalog& catalog) {
  ReplaySummary summary;
  obs::Counter* replayed = nullptr;
  obs::Counter* dropped = nullptr;
  if (obs::metricsEnabled()) {
    auto& reg = obs::defaultRegistry();
    replayed = &reg.counter("rap_svc_journal_replayed_total");
    dropped = &reg.counter("rap_svc_journal_dropped_total");
  }

  for (const JobJournal::Record& record : journal.pending()) {
    const char* drop_reason = nullptr;
    if (const util::Status injected = RAP_FAULT_STATUS("svc.journal.replay");
        !injected.isOk()) {
      drop_reason = "injected fault";
    } else if (auto tenant = catalog.find(record.tenant); tenant == nullptr) {
      drop_reason = "unknown tenant";
    } else if (auto job = tenant->service->replayJob(record); !job.isOk()) {
      // A spec change since the crash (schema swap, knob bounds) can
      // invalidate a recorded request; dropping beats aborting startup.
      drop_reason = "not replayable";
    }

    if (drop_reason != nullptr) {
      RAP_LOG_KV(Warn, {"record", record.id}, {"tenant", record.tenant},
                 {"reason", drop_reason})
          << "journal record dropped on replay";
      journal.complete(record.id, "dropped");
      ++summary.dropped;
      if (dropped != nullptr) dropped->increment();
      continue;
    }
    ++summary.replayed;
    if (replayed != nullptr) replayed->increment();
  }
  return summary;
}

}  // namespace rap::svc
