// Differential and hostile-input test of the snapshot decoder.
//
// The production path tokenizes a CSV body into field views
// (io::CsvStreamParser) and builds the LeafTable row by row
// (io::LeafTableDecoder).  This file keeps a test-only copy of the
// decoder it replaced — a byte-at-a-time tokenizer that materializes
// every row as owned strings, then a whole-document table builder with a
// strtod-only number parse — and checks that both agree on seeded
// mutations of RAPMD, CDN and tiny-schema bodies:
//
//   * paths: svc::parseCsvSnapshot on the whole body; the tokenizer +
//     decoder fed in chunks of 1, 2, 3, 7, 64 and 65536 bytes (the
//     composition loadLeafTable runs); and io::loadLeafTable itself on
//     the body written to a file;
//   * equality: isOk, status code, message and svc::snapshotHash.
//
// The reference carries one deliberate change against the old code: a
// KPI field that fails to parse reports "<source>:<row>: " before the
// parser's message, like every other row error.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/cuboid.h"
#include "dataset/leaf_table.h"
#include "dataset/schema.h"
#include "gen/rapmd.h"
#include "io/csv.h"
#include "io/dataset_io.h"
#include "svc/snapshot.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rap {
namespace {

using dataset::LeafTable;
using dataset::Schema;
using io::CsvRow;

// ---------------------------------------------------------------------------
// Reference decoder

namespace ref {

/// The byte-at-a-time CSV state machine, whole document at once.
util::Result<std::vector<CsvRow>> parseCsv(std::string_view text) {
  std::vector<CsvRow> rows;
  CsvRow current;
  std::string field;
  bool in_quotes = false;
  bool pending_quote = false;
  bool row_has_content = false;
  std::uint64_t row = 1;
  std::uint64_t offset = 0;
  auto rowError = [&](const char* what) {
    return util::Status::invalidArgument(util::strFormat(
        "%s at row %llu near offset %llu", what,
        static_cast<unsigned long long>(row),
        static_cast<unsigned long long>(offset)));
  };
  auto endField = [&] {
    current.push_back(std::move(field));
    field.clear();
  };
  auto append = [&](char c) {
    if (field.size() >= io::CsvStreamParser::kMaxFieldBytes) return false;
    field += c;
    return true;
  };
  for (std::size_t i = 0; i < text.size(); ++i, ++offset) {
    const char c = text[i];
    if (c == '\0') return rowError("embedded NUL byte");
    if (pending_quote) {
      pending_quote = false;
      if (c == '"') {
        if (!append('"')) return rowError("over-long field");
        continue;
      }
      in_quotes = false;
    }
    if (in_quotes) {
      if (c == '"') {
        pending_quote = true;
      } else if (!append(c)) {
        return rowError("over-long field");
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) return rowError("quote inside unquoted field");
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        endField();
        row_has_content = true;
        break;
      case '\r':
        break;
      case '\n':
        if (row_has_content || !field.empty() || !current.empty()) {
          endField();
          rows.push_back(std::move(current));
          current.clear();
          row_has_content = false;
        }
        row += 1;
        break;
      default:
        if (!append(c)) return rowError("over-long field");
        row_has_content = true;
        break;
    }
  }
  if (pending_quote) in_quotes = false;
  if (in_quotes) {
    return util::Status::invalidArgument("unterminated quoted field");
  }
  if (row_has_content || !field.empty() || !current.empty()) {
    endField();
    rows.push_back(std::move(current));
  }
  return rows;
}

/// The strtod-only strict number parse.
util::Result<double> parseDouble(std::string_view text) {
  const std::string buf{util::trim(text)};
  if (buf.empty()) return util::Status::invalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return util::Status::outOfRange("number out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return util::Status::invalidArgument("not a number: '" + buf + "'");
  }
  return value;
}

util::Result<dataset::ElemId> elementId(const dataset::Attribute& attr,
                                        const std::string& name) {
  for (dataset::ElemId e = 0; e < attr.cardinality(); ++e) {
    if (attr.elementName(e) == name) return e;
  }
  return util::Status::notFound("element '" + name + "' not in attribute '" +
                                attr.name() + "'");
}

/// The whole-document table builder (header row first).
util::Result<LeafTable> leafTableFromCsvRows(const Schema& schema,
                                             const std::vector<CsvRow>& rows,
                                             const std::string& source) {
  if (rows.empty()) {
    return util::Status::invalidArgument("'" + source + "' is empty");
  }
  const auto n_attrs = static_cast<std::size_t>(schema.attributeCount());
  const std::size_t min_cols = n_attrs + 2;
  LeafTable table(schema);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const CsvRow& row = rows[r];
    const std::string where = util::strFormat("%s:%zu: ", source.c_str(), r + 1);
    if (row.size() < min_cols) {
      return util::Status::invalidArgument(
          where + util::strFormat("expected >= %zu columns, got %zu",
                                  min_cols, row.size()));
    }
    std::vector<dataset::ElemId> slots(n_attrs);
    for (std::size_t a = 0; a < n_attrs; ++a) {
      auto elem =
          elementId(schema.attribute(static_cast<dataset::AttrId>(a)), row[a]);
      if (!elem) {
        return util::Status::invalidArgument(where + elem.status().message());
      }
      slots[a] = elem.value();
    }
    // The one deliberate change: number errors carry the row prefix.
    auto v = parseDouble(row[n_attrs]);
    if (!v) return util::Status(v.status().code(), where + v.status().message());
    auto f = parseDouble(row[n_attrs + 1]);
    if (!f) return util::Status(f.status().code(), where + f.status().message());
    if (!std::isfinite(v.value()) || !std::isfinite(f.value())) {
      return util::Status::invalidArgument(
          where + "non-finite KPI value (real=" + row[n_attrs] +
          " predict=" + row[n_attrs + 1] + ")");
    }
    const bool anomalous =
        row.size() > min_cols && util::trim(row[n_attrs + 2]) == "1";
    table.addRow(dataset::AttributeCombination(std::move(slots)), v.value(),
                 f.value(), anomalous);
  }
  return table;
}

util::Result<LeafTable> decode(const Schema& schema, std::string_view body,
                               const std::string& source) {
  auto rows = parseCsv(body);
  if (!rows) return rows.status();
  return leafTableFromCsvRows(schema, rows.value(), source);
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Production paths

/// The tokenizer + decoder composition loadLeafTable runs, at any chunk
/// size.
util::Result<LeafTable> decodeChunked(const Schema& schema,
                                      std::string_view body,
                                      std::size_t chunk,
                                      const std::string& source) {
  io::LeafTableDecoder decoder(schema, source);
  const io::CsvRowCallback decode =
      [&decoder](std::span<const std::string_view> row) {
        decoder.addRow(row);
      };
  io::CsvStreamParser parser;
  for (std::size_t at = 0; at < body.size(); at += chunk) {
    RAP_RETURN_IF_ERROR(parser.feed(body.substr(at, chunk), decode));
  }
  RAP_RETURN_IF_ERROR(parser.finish(decode));
  return std::move(decoder).finish();
}

std::string describe(const util::Result<LeafTable>& result) {
  if (result.isOk()) {
    return util::strFormat("ok rows=%zu hash=%016llx", result->size(),
                           static_cast<unsigned long long>(
                               svc::snapshotHash(result.value())));
  }
  return result.status().toString();
}

class DecodeDiff : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rap_decode_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Asserts every production path agrees with the reference on `body`.
  void expectSameAsReference(const Schema& schema, const std::string& body,
                             const std::vector<std::size_t>& chunks,
                             const std::string& label) {
    SCOPED_TRACE(label);
    const std::string want = describe(ref::decode(schema, body, "request body"));
    EXPECT_EQ(describe(svc::parseCsvSnapshot(schema, body)), want);
    for (const std::size_t chunk : chunks) {
      EXPECT_EQ(describe(decodeChunked(schema, body, chunk, "request body")),
                want)
          << "chunk size " << chunk;
    }
    const std::string path = (dir_ / "body.csv").string();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(body.data(), static_cast<std::streamsize>(body.size()));
    }
    EXPECT_EQ(describe(io::loadLeafTable(schema, path)),
              describe(ref::decode(schema, body, path)));
    // Truncating a just-written file makes ext4 flush it; start afresh.
    std::filesystem::remove(path);
  }

  std::filesystem::path dir_;
};

const std::vector<std::size_t> kChunks = {1, 2, 3, 7, 64, 65536};

// ---------------------------------------------------------------------------
// Bodies

/// saveLeafTable-style body (%.6g KPIs), optionally with a label column.
std::string renderBody(const LeafTable& table, bool labels) {
  const Schema& schema = table.schema();
  std::string out;
  for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
    out += schema.attribute(a).name();
    out += ',';
  }
  out += labels ? "real,predict,label\n" : "real,predict\n";
  for (const auto& row : table.rows()) {
    for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
      out += schema.attribute(a).elementName(row.ac.slot(a));
      out += ',';
    }
    out += util::strFormat("%.6g,%.6g", row.v, row.f);
    if (labels) out += row.anomalous ? ",1" : ",0";
    out += '\n';
  }
  return out;
}

LeafTable rapmdTable(const Schema& schema, std::int32_t index) {
  gen::RapmdGenerator generator(schema, gen::RapmdConfig{}, 901);
  return generator.generateCase(index).table;
}

LeafTable tinyTable() {
  const Schema schema = Schema::tiny();
  LeafTable table(schema);
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const double f = 50.0 + static_cast<double>(i % 7) * 10.0;
    table.addRow(dataset::leafFromIndex(schema, i), f * (i % 5 == 0 ? 0.3 : 1),
                 f, i % 5 == 0);
  }
  return table;
}

/// The first `rows` data rows of a body (header kept).
std::string headRows(const std::string& body, std::size_t rows) {
  std::size_t at = 0;
  for (std::size_t r = 0; r <= rows && at != std::string::npos; ++r) {
    at = body.find('\n', at);
    if (at != std::string::npos) ++at;
  }
  return at == std::string::npos ? body : body.substr(0, at);
}

// ---------------------------------------------------------------------------
// Mutations

/// A body as lines of comma-separated cells (no quoting in the clean
/// bodies, so splitting is exact).
using Grid = std::vector<std::vector<std::string>>;

Grid toGrid(const std::string& body) {
  Grid grid;
  for (const auto& line : util::split(body, '\n')) {
    if (!line.empty()) grid.push_back(util::split(line, ','));
  }
  return grid;
}

std::string fromGrid(const Grid& grid) {
  std::string out;
  for (const auto& line : grid) {
    out += util::join(line, ",");
    out += '\n';
  }
  return out;
}

const std::vector<std::string> kNumbers = {
    "+1",  " 1.5 ", "0x1p3", "1e-310", "1e400", "nan", "inf", "\"\"", "1e",
    ".5",  "-0",    "",      "x",      "1.5x", "\"2.5\"", "2.2250738585072012e-308",
    "4.9e-324", "-inf", "1e-400", "0e99999", "007", "1.", "\t3\t"};

/// Applies one seeded mutation to `body`; returns its name.
std::string mutate(std::string& body, std::size_t n_attrs, util::Rng& rng) {
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  Grid grid = toGrid(body);
  const std::size_t r = 1 + pick(grid.size() - 1);  // a data row
  auto& row = grid[r];
  const std::size_t kind = pick(16);
  switch (kind) {
    case 0: {  // quote a field
      auto& cell = row[pick(row.size())];
      cell = "\"" + cell + "\"";
      break;
    }
    case 1: {  // escaped quotes inside a quoted field
      auto& cell = row[pick(row.size())];
      cell = "\"" + cell.substr(0, cell.size() / 2) + "\"\"" +
             cell.substr(cell.size() / 2) + "\"";
      break;
    }
    case 2: {  // CRLF, all rows or one
      body = fromGrid(grid);
      std::string out;
      const bool all = rng.bernoulli(0.5);
      std::size_t line = 0;
      for (const char c : body) {
        if (c == '\n' && (all || line++ == r)) out += '\r';
        out += c;
      }
      body = out;
      return "crlf";
    }
    case 3:  // blank lines
      row.front().insert(0, rng.bernoulli(0.5) ? "\n" : "\r\n\n");
      break;
    case 4: {  // NUL byte somewhere
      body = fromGrid(grid);
      body.insert(pick(body.size()), 1, '\0');
      return "nul";
    }
    case 5:  // a field over the 1 MiB limit, or right at it
      row[pick(row.size())] =
          std::string(io::CsvStreamParser::kMaxFieldBytes + pick(2), 'w');
      break;
    case 6:  // missing column
      row.pop_back();
      break;
    case 7:  // extra columns
      row.push_back(rng.bernoulli(0.5) ? "1" : "0");
      row.push_back("extra");
      break;
    case 8:  // unknown element
      row[pick(n_attrs)] = "zz";
      break;
    case 9:  // label column variants
      for (std::size_t i = 1; i < grid.size(); ++i) {
        grid[i].push_back(i % 3 == 0 ? "\" 1 \"" : (i % 3 == 1 ? "2" : " 1 "));
      }
      break;
    case 10:  // hostile numbers
      row[n_attrs + pick(2)] = kNumbers[pick(kNumbers.size())];
      break;
    case 11:  // quote inside an unquoted field
      row[pick(row.size())] += "\"q";
      break;
    case 12: {  // unterminated quote at the end
      body = fromGrid(grid) + "\"open";
      return "unterminated";
    }
    case 13: {  // a random structural byte anywhere
      body = fromGrid(grid);
      static const char kBytes[] = {',', '"', '\r', '\n', ' ', 'x', '1'};
      body[pick(body.size())] = kBytes[pick(sizeof(kBytes))];
      return "byte";
    }
    case 14:  // quoted element with embedded newline and comma
      row[pick(n_attrs)] = "\"a,\nb\"";
      break;
    default:  // empty body or header only
      body = rng.bernoulli(0.5) ? std::string() : fromGrid({grid[0]});
      return "empty";
  }
  body = fromGrid(grid);
  return "kind " + std::to_string(kind);
}

// ---------------------------------------------------------------------------
// Tests

TEST_F(DecodeDiff, CleanBodiesMatchAtEveryChunkSize) {
  const Schema rapmd = Schema::synthetic({8, 6, 5, 4, 4, 3, 3, 2});
  expectSameAsReference(rapmd, renderBody(rapmdTable(rapmd, 0), false),
                        {2, 3, 7, 64, 65536}, "rapmd full");
  expectSameAsReference(rapmd, headRows(renderBody(rapmdTable(rapmd, 1), true), 2000),
                        kChunks, "rapmd labeled");
  const Schema cdn = Schema::cdn();
  expectSameAsReference(cdn, renderBody(rapmdTable(cdn, 0), false), kChunks,
                        "cdn");
  expectSameAsReference(Schema::tiny(), renderBody(tinyTable(), true), kChunks,
                        "tiny");
}

TEST_F(DecodeDiff, SeededMutationsMatchTheReference) {
  struct Source {
    Schema schema;
    std::string body;
  };
  const Schema rapmd = Schema::synthetic({8, 6, 5, 4, 4, 3, 3, 2});
  const Schema cdn = Schema::cdn();
  const std::vector<Source> sources = {
      {rapmd, headRows(renderBody(rapmdTable(rapmd, 2), false), 120)},
      {cdn, headRows(renderBody(rapmdTable(cdn, 1), true), 120)},
      {Schema::tiny(), renderBody(tinyTable(), false)},
  };
  util::Rng rng(2024);
  int decoded = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const Source& source = sources[static_cast<std::size_t>(trial) % 3];
    std::string body = source.body;
    std::string what;
    const int mutations = 1 + static_cast<int>(rng.uniformInt(0, 2));
    for (int m = 0; m < mutations && body.size() > 1; ++m) {
      if (toGrid(body).size() < 2) break;
      what += mutate(body, static_cast<std::size_t>(
                               source.schema.attributeCount()), rng) + " ";
    }
    // A 1 MiB field at one byte per chunk costs seconds under ASan;
    // bodies that large take the coarser chunk sizes only.
    const std::vector<std::size_t> chunks =
        body.size() > (1u << 19) ? std::vector<std::size_t>{64, 65536}
                                 : kChunks;
    expectSameAsReference(source.schema, body, chunks,
                          "trial " + std::to_string(trial) + ": " + what);
    decoded += ref::decode(source.schema, body, "").isOk() ? 1 : 0;
  }
  // Both outcomes must be well represented, or the comparison is thin.
  EXPECT_GT(decoded, 40);
  EXPECT_LT(decoded, 200);
}

TEST_F(DecodeDiff, EachHostileNumberMatchesTheReference) {
  const Schema schema = Schema::tiny();
  for (const std::string& number : kNumbers) {
    for (const bool real : {true, false}) {
      const std::string field = real ? number + ",1" : "1," + number;
      expectSameAsReference(
          schema, "A,B,C,D,real,predict\na1,b1,c1,d1,1,1\na2,b1,c1,d1," + field + "\n",
          kChunks, "number '" + number + "'");
    }
  }
}

TEST_F(DecodeDiff, FieldLimitAndNulEdgesMatchTheReference) {
  const Schema schema = Schema::tiny();
  const std::string header = "A,B,C,D,real,predict\n";
  const std::size_t limit = io::CsvStreamParser::kMaxFieldBytes;
  const std::vector<std::string> bodies = {
      // An escaped quote landing exactly on the limit, and one byte short.
      header + "\"" + std::string(limit, 'w') + "\"\"\",b1,c1,d1,1,1\n",
      header + "\"" + std::string(limit - 1, 'w') + "\"\"\",b1,c1,d1,1,1\n",
      // Unquoted: the limit crossed after a swallowed '\r'.
      header + std::string(limit, 'w') + "\rw,b1,c1,d1,1,1\n",
      header + "a1,b1,c1,d1,1," + std::string(limit, '1') + "\n",
      // NUL inside a quoted field, and right after its closing quote.
      header + "\"a" + std::string(1, '\0') + "1\",b1,c1,d1,1,1\n",
      header + "\"a1\"" + std::string(1, '\0') + ",b1,c1,d1,1,1\n",
      // Content after a closing quote, and a quote after that.
      header + "\"a\"1,b1,c1,d1,1,1\n",
      header + "\"a\"1\",b1,c1,d1,1,1\n",
      header + "\r\"a1\",b1,c1,d1,1,1\r\n",
  };
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    expectSameAsReference(schema, bodies[i], kChunks,
                          "edge body " + std::to_string(i));
  }
}

TEST(DecodeErrors, BadNumberNamesItsRow) {
  const Schema schema = Schema::tiny();
  const auto bad = svc::parseCsvSnapshot(
      schema, "A,B,C,D,real,predict\na1,b1,c1,d1,1,1\na2,b1,c1,d1,x,1\n");
  ASSERT_FALSE(bad.isOk());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "request body:3: not a number: 'x'");
  const auto empty = svc::parseCsvSnapshot(
      schema, "A,B,C,D,real,predict\na1,b1,c1,d1,1,1\na2,b1,c1,d1,1,\n");
  ASSERT_FALSE(empty.isOk());
  EXPECT_EQ(empty.status().message(), "request body:3: empty number");
  const auto range = svc::parseCsvSnapshot(
      schema, "A,B,C,D,real,predict\na1,b1,c1,d1,1,1\na2,b1,c1,d1,1e400,1\n");
  ASSERT_FALSE(range.isOk());
  EXPECT_EQ(range.status().code(), util::StatusCode::kOutOfRange);
  EXPECT_EQ(range.status().message(),
            "request body:3: number out of range: '1e400'");
}

TEST(DecodeErrors, TokenizerErrorBelowABadRowStillWins) {
  // The old decoder tokenized the whole body before checking any row, so
  // a NUL further down beats an unknown element in row 2.
  const Schema schema = Schema::tiny();
  const std::string body =
      std::string("A,B,C,D,real,predict\nzz,b1,c1,d1,1,1\na1,b1,c1,d1,1,1") +
      '\0' + "\n";
  const auto result = svc::parseCsvSnapshot(schema, body);
  ASSERT_FALSE(result.isOk());
  EXPECT_NE(result.status().message().find("embedded NUL byte at row 3"),
            std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace rap
