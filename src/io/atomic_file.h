// Durable file writes: the one write-tmp-then-rename helper behind
// engine checkpoints (io/checkpoint.cpp) and job-journal compaction
// (svc/job_journal.cpp), and the full-write loop the journal's appends
// share with it.
#pragma once

#include <string>
#include <string_view>

#include "util/status.h"

namespace rap::io {

/// Replaces the file at `path` with `content` so that a crash at any
/// point leaves either the previous file or the new one, never a torn
/// mix: writes "<path>.tmp", fsyncs it, renames it over `path`, then
/// fsyncs the parent directory — a rename is durable only once the
/// directory entry is.  `sync` = false skips both fsyncs (callers that
/// trade durability for speed); the rename stays atomic.
///
/// Fault point "io.atomic_replace" fires between the write and the
/// rename; on any failure the tmp file is removed and `path` keeps its
/// previous content.
util::Status atomicReplaceFile(const std::string& path,
                               std::string_view content, bool sync = true);

/// Writes all of `data` to `fd`, retrying partial writes and EINTR;
/// false (errno set) on any other failure.
bool writeAll(int fd, std::string_view data);

}  // namespace rap::io
