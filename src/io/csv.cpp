#include "io/csv.h"

#include <array>
#include <cstring>
#include <fstream>
#include <sstream>

#include "fault/fault.h"
#include "util/strings.h"

namespace rap::io {

namespace {

/// Bytes that end a run of ordinary unquoted field content.
constexpr std::array<bool, 256> kUnquotedStop = [] {
  std::array<bool, 256> stop{};
  for (const unsigned char c : {'\0', '"', ',', '\r', '\n'}) stop[c] = true;
  return stop;
}();

}  // namespace

util::Status CsvStreamParser::feed(std::string_view chunk,
                                   const CsvRowCallback& callback) {
  const char* const data = chunk.data();
  const std::size_t n = chunk.size();
  auto rowError = [this](const char* what, std::size_t at) {
    return util::Status::invalidArgument(util::strFormat(
        "%s at row %llu near offset %llu", what,
        static_cast<unsigned long long>(row_),
        static_cast<unsigned long long>(offset_ + at)));
  };
  // Offset of the first byte of a `run`-byte append that would push the
  // field past kMaxFieldBytes, or n when the run fits.
  auto overflowAt = [this, n](std::size_t at, std::size_t run) {
    const std::size_t room = kMaxFieldBytes - field_.size;
    return run > room ? at + room : n;
  };

  std::size_t i = 0;
  while (i < n) {
    bool escaped_quote = false;
    if (pending_quote_) {
      if (data[i] == '\0') return rowError("embedded NUL byte", i);
      pending_quote_ = false;
      // Any byte but a second '"' means the pending quote closed the
      // field, and falls through to unquoted processing below.
      escaped_quote = data[i] == '"';
      in_quotes_ = escaped_quote;
    }
    if (in_quotes_) {
      // Quoted content runs to the next quote; the second quote of an
      // escaped pair (possibly split across chunks) opens the run.
      std::size_t j = escaped_quote ? i + 1 : i;
      while (j < n && data[j] != '"' && data[j] != '\0') ++j;
      if (const std::size_t at = overflowAt(i, j - i); at < n) {
        return rowError("over-long field", at);
      }
      buf_.append(data + i, j - i);
      field_.size += j - i;
      i = j;
      if (i == n) break;
      if (data[i] == '\0') return rowError("embedded NUL byte", i);
      pending_quote_ = true;
      ++i;
      continue;
    }

    std::size_t j = i;
    while (j < n && !kUnquotedStop[static_cast<unsigned char>(data[j])]) ++j;
    if (j > i) {
      if (const std::size_t at = overflowAt(i, j - i); at < n) {
        return rowError("over-long field", at);
      }
      if (field_.owned) {
        buf_.append(data + i, j - i);
      } else if (field_.size == 0) {
        field_.begin = i;
      }
      // An unowned field grows only by contiguous runs: every byte that
      // can interrupt one either ends the field, fails, or owns it.
      field_.size += j - i;
      row_has_content_ = true;
      i = j;
      if (i == n) break;
    }
    switch (data[i]) {
      case '\0':
        return rowError("embedded NUL byte", i);
      case '"':
        if (field_.size != 0) {
          return rowError("quote inside unquoted field", i);
        }
        in_quotes_ = true;
        row_has_content_ = true;
        field_ = Field{buf_.size(), 0, true};
        break;
      case ',':
        endField();
        row_has_content_ = true;
        break;
      case '\r':
        // Swallowed; LF handles the row break.  Bytes after it would no
        // longer be contiguous with the field's view, unless the field
        // ends right here.
        if (!field_.owned && field_.size != 0 &&
            !(i + 1 < n && data[i + 1] == '\n')) {
          ownCurrentField(data);
        }
        break;
      default:  // '\n'
        if (row_has_content_) {
          endField();
          emitRow(data, callback);
        } else {
          row_ += 1;  // blank line still advances the row count
        }
        break;
    }
    ++i;
  }
  retainOpenRow(data);
  offset_ += n;
  return util::Status::ok();
}

util::Status CsvStreamParser::finish(const CsvRowCallback& callback) {
  if (pending_quote_) {
    // A quote at end of input closes its field.
    pending_quote_ = false;
    in_quotes_ = false;
  }
  if (in_quotes_) {
    return util::Status::invalidArgument("unterminated quoted field");
  }
  if (row_has_content_) {
    endField();
    emitRow(buf_.data(), callback);  // feed() left every field owned
  }
  fields_.clear();
  buf_.clear();
  field_ = Field{};
  row_has_content_ = false;
  offset_ = 0;
  row_ = 1;
  return util::Status::ok();
}

void CsvStreamParser::endField() {
  fields_.push_back(field_);
  field_ = Field{};
}

void CsvStreamParser::emitRow(const char* chunk,
                              const CsvRowCallback& callback) {
  views_.clear();
  for (const Field& field : fields_) {
    views_.emplace_back((field.owned ? buf_.data() : chunk) + field.begin,
                        field.size);
  }
  callback(views_);
  fields_.clear();
  buf_.clear();
  row_has_content_ = false;
  row_ += 1;
}

void CsvStreamParser::ownCurrentField(const char* chunk) {
  const std::size_t at = buf_.size();
  buf_.append(chunk + field_.begin, field_.size);
  field_ = Field{at, field_.size, true};
}

void CsvStreamParser::retainOpenRow(const char* chunk) {
  bool appended = false;
  for (Field& field : fields_) {
    if (field.owned) continue;
    const std::size_t at = buf_.size();
    buf_.append(chunk + field.begin, field.size);
    field = Field{at, field.size, true};
    appended = true;
  }
  if (!field_.owned) {
    if (field_.size != 0) ownCurrentField(chunk);
  } else if (appended) {
    // An owned field being read must stay at the tail of buf_, where
    // the next chunk appends to it.
    const std::size_t at = buf_.size();
    buf_.resize(at + field_.size);
    std::memcpy(buf_.data() + at, buf_.data() + field_.begin, field_.size);
    field_.begin = at;
  }
}

util::Result<std::vector<CsvRow>> parseCsv(const std::string& text) {
  std::vector<CsvRow> rows;
  const CsvRowCallback collect = [&rows](std::span<const std::string_view> row) {
    rows.emplace_back(row.begin(), row.end());
  };
  CsvStreamParser parser;
  util::Status status = parser.feed(text, collect);
  if (!status.isOk()) return status;
  status = parser.finish(collect);
  if (!status.isOk()) return status;
  return rows;
}

util::Result<std::vector<CsvRow>> readCsvFile(const std::string& path) {
  std::vector<CsvRow> rows;
  const util::Status status = streamCsvFile(
      path, [&rows](std::span<const std::string_view> row) {
        rows.emplace_back(row.begin(), row.end());
      });
  if (!status.isOk()) return status;
  return rows;
}

util::Status streamCsvFile(const std::string& path,
                           const CsvRowCallback& callback) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::notFound("cannot open '" + path + "'");
  }
  CsvStreamParser parser;
  std::vector<char> buffer(1 << 16);
  while (in) {
    RAP_RETURN_IF_ERROR(RAP_FAULT_STATUS("io.csv_chunk"));
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::streamsize n = in.gcount();
    if (n <= 0) break;
    const util::Status status =
        parser.feed({buffer.data(), static_cast<std::size_t>(n)}, callback);
    if (!status.isOk()) return status;
  }
  return parser.finish(callback);
}

namespace {

bool needsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quoteField(const std::string& field) {
  if (!needsQuoting(field)) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string writeCsv(const std::vector<CsvRow>& rows) {
  std::string out;
  for (const auto& row : rows) {
    // A row of exactly one empty field would serialize as a blank line
    // and be skipped on re-read; quote it so it round-trips.
    if (row.size() == 1 && row[0].empty()) {
      out += "\"\"\n";
      continue;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += quoteField(row[i]);
    }
    out += '\n';
  }
  return out;
}

util::Status writeCsvFile(const std::string& path,
                          const std::vector<CsvRow>& rows) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::notFound("cannot open '" + path + "' for writing");
  }
  out << writeCsv(rows);
  if (!out) {
    return util::Status::internal("write to '" + path + "' failed");
  }
  return util::Status::ok();
}

}  // namespace rap::io
