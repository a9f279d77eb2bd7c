#include "io/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "fault/fault.h"

namespace rap::io {

namespace {

util::Status errnoStatus(const std::string& what, const std::string& path) {
  return util::Status::internal(what + " '" + path +
                                "': " + std::strerror(errno));
}

/// Writes and (if `sync`) fsyncs `tmp`; the fault point fires last.
util::Status writeTmp(const std::string& tmp, std::string_view content,
                      bool sync) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return errnoStatus("cannot create", tmp);
  util::Status status;
  if (!writeAll(fd, content)) {
    status = errnoStatus("cannot write", tmp);
  } else if (sync && ::fsync(fd) != 0) {
    status = errnoStatus("cannot fsync", tmp);
  }
  if (::close(fd) != 0 && status.isOk()) {
    status = errnoStatus("cannot close", tmp);
  }
  if (!status.isOk()) return status;
  return RAP_FAULT_STATUS("io.atomic_replace");
}

/// Makes a rename inside `dir` durable.
util::Status syncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return errnoStatus("cannot open directory", dir);
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return errnoStatus("cannot fsync directory", dir);
  return util::Status::ok();
}

}  // namespace

bool writeAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

util::Status atomicReplaceFile(const std::string& path,
                               std::string_view content, bool sync) {
  const std::string tmp = path + ".tmp";
  if (util::Status written = writeTmp(tmp, content, sync); !written.isOk()) {
    std::remove(tmp.c_str());
    return written;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    util::Status renamed = errnoStatus("cannot rename into", path);
    std::remove(tmp.c_str());
    return renamed;
  }
  if (!sync) return util::Status::ok();
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  return syncDirectory(parent.empty() ? "." : parent.string());
}

}  // namespace rap::io
