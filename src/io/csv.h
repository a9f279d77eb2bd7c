// Minimal RFC-4180-ish CSV reader/writer: quoted fields, embedded commas
// and quotes, both LF and CRLF line endings.  No external dependencies —
// the paper's datasets ship as plain CSV (one file per timestamp with
// columns  attr1,...,attrN,real,predict).
//
// One tokenizer, CsvStreamParser, reads every CSV input: feed() takes
// arbitrary chunks and hands each completed row to a callback as views
// of its fields, so a decoder can build its output row by row without a
// string per field.  streamCsvFile() feeds a file chunk by chunk;
// parseCsv()/readCsvFile() are thin wrappers that copy the rows into
// owned CsvRows for the small schema and ground-truth files.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rap::io {

using CsvRow = std::vector<std::string>;

/// Receives each completed row as views of its fields.  The views are
/// valid only while the callback runs; copy whatever must outlive it.
using CsvRowCallback = std::function<void(std::span<const std::string_view>)>;

/// Incremental CSV parser.  Chunk boundaries may fall anywhere —
/// mid-field, mid-CRLF, even between the two quotes of an escaped
/// quote.  Errors report the same messages and global byte offsets as
/// the batch parser.  After an error the parser must be discarded.
///
/// Hostile-input hardening (a daemon fed by arbitrary producers must
/// fail with a Status, never by exhausting memory or corrupting rows):
///   * a field longer than kMaxFieldBytes is an error, not an
///     allocation — a missing quote can otherwise swallow the rest of
///     the input into one field;
///   * an embedded NUL byte is an error — the datasets are text, and a
///     NUL reliably signals a truncated or binary upload.
/// Both errors carry the 1-based row number and byte offset.
///
/// Fields are not copied where they need not be: an unquoted field that
/// lies inside the current chunk is a view into that chunk.  A quoted
/// field, a field with a '\r' inside, and any field of a row still open
/// when a chunk ends are unescaped into one buffer the parser reuses
/// from row to row, so a warmed parser tokenizes without allocating.
class CsvStreamParser {
 public:
  /// Upper bound on one field's size, in bytes.
  static constexpr std::size_t kMaxFieldBytes = 1 << 20;

  /// Consumes one chunk, invoking `callback` for every row completed
  /// within it.
  util::Status feed(std::string_view chunk, const CsvRowCallback& callback);

  /// Signals end of input: flushes a final unterminated row (if any) and
  /// resets the parser for reuse (its buffers keep their capacity).
  util::Status finish(const CsvRowCallback& callback);

 private:
  /// A field of the open row: bytes [begin, begin + size) of the chunk
  /// being fed, or of buf_ when `owned`.
  struct Field {
    std::size_t begin = 0;
    std::size_t size = 0;
    bool owned = false;
  };

  void endField();
  void emitRow(const char* chunk, const CsvRowCallback& callback);
  /// Moves the current field's bytes out of the chunk into buf_.
  void ownCurrentField(const char* chunk);
  /// Copies every chunk view of the open row into buf_ before the chunk
  /// goes away.
  void retainOpenRow(const char* chunk);

  std::vector<Field> fields_;             ///< completed fields, open row
  std::vector<std::string_view> views_;   ///< the row handed to callbacks
  std::string buf_;                       ///< owned field bytes, open row
  Field field_;                           ///< the field being read
  bool in_quotes_ = false;
  /// A '"' was seen inside a quoted field; whether it closes the field
  /// or starts an escaped quote depends on the next byte, which may be
  /// in the next chunk.
  bool pending_quote_ = false;
  bool row_has_content_ = false;
  std::uint64_t offset_ = 0;  ///< global byte offset of the next char
  std::uint64_t row_ = 1;     ///< 1-based row of the next char
};

/// Parse an entire CSV document from a string.
util::Result<std::vector<CsvRow>> parseCsv(const std::string& text);

/// Read and parse a CSV file.
util::Result<std::vector<CsvRow>> readCsvFile(const std::string& path);

/// Stream a CSV file row by row without materializing the document
/// (64 KiB read chunks).
util::Status streamCsvFile(const std::string& path,
                           const CsvRowCallback& callback);

/// Serialize rows, quoting any field containing comma / quote / newline.
std::string writeCsv(const std::vector<CsvRow>& rows);

/// Write rows to a file, overwriting it.
util::Status writeCsvFile(const std::string& path,
                          const std::vector<CsvRow>& rows);

}  // namespace rap::io
