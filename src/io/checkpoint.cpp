#include "io/checkpoint.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "io/atomic_file.h"
#include "util/strings.h"

namespace rap::io {

namespace {

/// Exact double rendering (C99 hex float): strtod parses it back to the
/// identical bit pattern, which the checkpoint equivalence tests rely on.
std::string hexDouble(double v) { return util::strFormat("%a", v); }

util::Status parseError(const std::string& path, std::size_t line,
                        const std::string& what) {
  return util::Status::invalidArgument(
      util::strFormat("%s:%zu: %s", path.c_str(), line, what.c_str()));
}

}  // namespace

util::Status saveStreamCheckpoint(const StreamCheckpoint& checkpoint,
                                  const std::string& path) {
  std::ostringstream out;
  out << "RAPCHKPT " << checkpoint.version << "\n";
  out << "shards " << checkpoint.shards << "\n";
  out << "window_width " << checkpoint.window_width << "\n";
  out << "max_event_ts " << checkpoint.max_event_ts << "\n";
  out << "sealed";
  for (const auto sealed : checkpoint.shard_sealed_up_to) out << ' ' << sealed;
  out << "\n";
  for (const auto& fragment : checkpoint.fragments) {
    out << "fragment " << fragment.shard << ' ' << fragment.epoch << ' '
        << fragment.rows.size() << "\n";
    for (const auto& row : fragment.rows) {
      for (const auto slot : row.ac.slots()) out << slot << ' ';
      out << hexDouble(row.v) << ' ' << hexDouble(row.f) << ' '
          << (row.anomalous ? 1 : 0) << "\n";
    }
  }
  out << "end\n";

  return atomicReplaceFile(path, out.str());
}

util::Result<StreamCheckpoint> loadStreamCheckpoint(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return util::Status::notFound("cannot open '" + path + "'");

  StreamCheckpoint checkpoint;
  std::string line;
  std::size_t line_no = 0;
  const auto nextLine = [&]() -> bool {
    ++line_no;
    return static_cast<bool>(std::getline(file, line));
  };

  if (!nextLine()) return parseError(path, line_no, "empty checkpoint");
  {
    std::istringstream header(line);
    std::string magic;
    header >> magic >> checkpoint.version;
    if (magic != "RAPCHKPT" || header.fail()) {
      return parseError(path, line_no, "not a RAPCHKPT file");
    }
    if (checkpoint.version != StreamCheckpoint::kVersion) {
      return parseError(
          path, line_no,
          util::strFormat("unsupported checkpoint version %d (reader knows %d)",
                          checkpoint.version, StreamCheckpoint::kVersion));
    }
  }

  const auto expectKeyed = [&](const char* key,
                               std::int64_t& value) -> util::Status {
    if (!nextLine()) {
      return parseError(path, line_no, std::string("missing '") + key + "'");
    }
    std::istringstream in(line);
    std::string found;
    in >> found >> value;
    if (found != key || in.fail()) {
      return parseError(path, line_no, std::string("expected '") + key + "'");
    }
    return util::Status::ok();
  };

  std::int64_t shards = 0;
  RAP_RETURN_IF_ERROR(expectKeyed("shards", shards));
  if (shards < 1 || shards > 4096) {
    return parseError(path, line_no, "shard count out of range");
  }
  checkpoint.shards = static_cast<std::int32_t>(shards);
  RAP_RETURN_IF_ERROR(expectKeyed("window_width", checkpoint.window_width));
  if (checkpoint.window_width < 1) {
    return parseError(path, line_no, "window_width must be >= 1");
  }
  RAP_RETURN_IF_ERROR(expectKeyed("max_event_ts", checkpoint.max_event_ts));

  if (!nextLine()) return parseError(path, line_no, "missing 'sealed'");
  {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key != "sealed") return parseError(path, line_no, "expected 'sealed'");
    std::int64_t sealed = 0;
    while (in >> sealed) checkpoint.shard_sealed_up_to.push_back(sealed);
    if (checkpoint.shard_sealed_up_to.size() !=
        static_cast<std::size_t>(checkpoint.shards)) {
      return parseError(path, line_no,
                        "sealed list size does not match shard count");
    }
  }

  while (nextLine()) {
    if (line == "end") return checkpoint;
    std::istringstream in(line);
    std::string key;
    std::int64_t shard = 0;
    std::int64_t epoch = 0;
    std::uint64_t row_count = 0;
    in >> key >> shard >> epoch >> row_count;
    if (key != "fragment" || in.fail()) {
      return parseError(path, line_no, "expected 'fragment' or 'end'");
    }
    if (shard < -1 || shard >= checkpoint.shards) {
      return parseError(path, line_no, "fragment shard out of range");
    }
    StreamCheckpoint::Fragment fragment;
    fragment.shard = static_cast<std::int32_t>(shard);
    fragment.epoch = epoch;
    fragment.rows.reserve(row_count);
    for (std::uint64_t r = 0; r < row_count; ++r) {
      if (!nextLine()) {
        return parseError(path, line_no, "truncated fragment rows");
      }
      const std::vector<std::string> parts = util::split(line, ' ');
      if (parts.size() < 3) {
        return parseError(path, line_no, "malformed fragment row");
      }
      std::vector<dataset::ElemId> slots;
      slots.reserve(parts.size() - 3);
      for (std::size_t i = 0; i + 3 < parts.size(); ++i) {
        auto slot = util::parseInt(parts[i]);
        if (!slot) return parseError(path, line_no, "bad slot id");
        slots.push_back(static_cast<dataset::ElemId>(slot.value()));
      }
      auto v = util::parseDouble(parts[parts.size() - 3]);
      if (!v) return parseError(path, line_no, "bad actual value");
      auto f = util::parseDouble(parts[parts.size() - 2]);
      if (!f) return parseError(path, line_no, "bad forecast value");
      const std::string_view flag = util::trim(parts.back());
      if (flag != "0" && flag != "1") {
        return parseError(path, line_no, "bad anomaly flag");
      }
      fragment.rows.push_back(
          dataset::LeafRow{dataset::AttributeCombination(std::move(slots)),
                           v.value(), f.value(), flag == "1"});
    }
    checkpoint.fragments.push_back(std::move(fragment));
  }
  return parseError(path, line_no, "missing 'end' trailer");
}

}  // namespace rap::io
