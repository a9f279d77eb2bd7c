// Dataset (de)serialization in the layout the Squeeze repository uses:
//
//   <timestamp>.csv        attr1,...,attrN,real,predict   (one leaf per row)
//   injection_info.csv     timestamp,set(ground-truth RAPs ';'-separated)
//
// plus a schema sidecar of our own (attribute name -> elements) so a
// table round-trips without external knowledge.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/leaf_table.h"
#include "gen/case.h"
#include "io/csv.h"

namespace rap::io {

/// Writes one leaf table: header "attr...,real,predict,label" then rows.
/// The label column carries the detection verdict (0/1) so a saved table
/// can be re-localized without re-running detection.
util::Status saveLeafTable(const dataset::LeafTable& table,
                           const std::string& path);

/// Reads a leaf table against a known schema, streaming the file in
/// 64 KiB chunks through a LeafTableDecoder.  Accepts files with or
/// without the trailing label column (absent -> all rows normal).
util::Result<dataset::LeafTable> loadLeafTable(const dataset::Schema& schema,
                                               const std::string& path);

/// Builds a leaf table from CSV rows handed over one at a time (header
/// row first, then one leaf per row) — the one decoder behind
/// loadLeafTable and the localization service's CSV and JSON bodies.
/// Rows arrive as field views (a CsvRowCallback's argument) and are
/// decoded on the spot; no view is kept.
///
/// Every row is checked: at least N+2 columns, element names known to
/// the schema, strict numbers, finite KPI values.  A failing row's error
/// is prefixed "<source>:<row>: " with the 1-based row among the rows
/// delivered (header = row 1); `source` names the origin ("<path>" /
/// "request body").  The first error sticks and later rows are ignored,
/// so a tokenizer error further down the input still wins when the
/// caller checks the tokenizer's Status before finish().
class LeafTableDecoder {
 public:
  LeafTableDecoder(const dataset::Schema& schema, std::string source);

  /// Pre-sizes the table for about `rows` leaves.
  void reserve(std::size_t rows) { table_.reserve(rows); }

  void addRow(std::span<const std::string_view> fields);

  /// The decoded table, the first row error, or "'<source>' is empty"
  /// when not even a header arrived.
  util::Result<dataset::LeafTable> finish() &&;

  /// Element fields resolved by matching the previous row's element
  /// for that attribute instead of a dictionary lookup.
  std::size_t reusedElements() const noexcept { return reused_elements_; }

 private:
  /// Decodes one data row; errors come without the row prefix.
  util::Status decodeRow(std::span<const std::string_view> fields);

  std::string source_;
  dataset::LeafTable table_;
  util::Status status_;
  std::size_t rows_seen_ = 0;
  /// Previous row's element per attribute (kWildcard before the first).
  std::vector<dataset::ElemId> previous_;
  std::size_t reused_elements_ = 0;
};

/// Schema sidecar: one row per attribute, "name,elem1,elem2,...".
util::Status saveSchema(const dataset::Schema& schema, const std::string& path);
util::Result<dataset::Schema> loadSchema(const std::string& path);

/// Ground truth: one row per case, "case_id,rap1;rap2;...", each RAP in
/// the textual form AttributeCombination::toString produces.
struct GroundTruthEntry {
  std::string case_id;
  std::vector<dataset::AttributeCombination> raps;
};

util::Status saveGroundTruth(const dataset::Schema& schema,
                             const std::vector<GroundTruthEntry>& entries,
                             const std::string& path);
util::Result<std::vector<GroundTruthEntry>> loadGroundTruth(
    const dataset::Schema& schema, const std::string& path);

/// A materialized dataset directory (the layout `generate_dataset`
/// writes and the Squeeze repository uses):
///   schema.csv            attribute dictionaries
///   injection_info.csv    case_id -> ground-truth RAPs
///   <case_id>.csv         one leaf table per case
struct LoadedDataset {
  dataset::Schema schema;
  std::vector<gen::Case> cases;  ///< ordered as in injection_info.csv
};

util::Result<LoadedDataset> loadDatasetDirectory(const std::string& dir);

}  // namespace rap::io
