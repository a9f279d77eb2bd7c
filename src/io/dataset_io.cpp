#include "io/dataset_io.h"

#include <cmath>

#include "util/strings.h"

namespace rap::io {

using dataset::AttrId;
using dataset::AttributeCombination;
using dataset::LeafTable;
using dataset::Schema;

util::Status saveLeafTable(const LeafTable& table, const std::string& path) {
  const Schema& schema = table.schema();
  std::vector<CsvRow> rows;
  rows.reserve(table.size() + 1);

  CsvRow header;
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    header.push_back(schema.attribute(a).name());
  }
  header.emplace_back("real");
  header.emplace_back("predict");
  header.emplace_back("label");
  rows.push_back(std::move(header));

  for (const auto& row : table.rows()) {
    CsvRow out;
    out.reserve(static_cast<std::size_t>(schema.attributeCount()) + 3);
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      out.push_back(schema.attribute(a).elementName(row.ac.slot(a)));
    }
    out.push_back(util::strFormat("%.6g", row.v));
    out.push_back(util::strFormat("%.6g", row.f));
    out.push_back(row.anomalous ? "1" : "0");
    rows.push_back(std::move(out));
  }
  return writeCsvFile(path, rows);
}

util::Result<LeafTable> loadLeafTable(const Schema& schema,
                                      const std::string& path) {
  LeafTableDecoder decoder(schema, path);
  RAP_RETURN_IF_ERROR(streamCsvFile(
      path, [&decoder](std::span<const std::string_view> row) {
        decoder.addRow(row);
      }));
  return std::move(decoder).finish();
}

LeafTableDecoder::LeafTableDecoder(const Schema& schema, std::string source)
    : source_(std::move(source)),
      table_(schema),
      previous_(static_cast<std::size_t>(schema.attributeCount()),
                dataset::kWildcard) {}

void LeafTableDecoder::addRow(std::span<const std::string_view> fields) {
  // The first error sticks; row 1 is the header.
  if (!status_.isOk() || ++rows_seen_ == 1) return;
  const util::Status status = decodeRow(fields);
  if (!status.isOk()) {
    status_ = {status.code(), source_ + ":" + std::to_string(rows_seen_) +
                                  ": " + status.message()};
  }
}

util::Status LeafTableDecoder::decodeRow(
    std::span<const std::string_view> fields) {
  const Schema& schema = table_.schema();
  const auto n_attrs = static_cast<std::size_t>(schema.attributeCount());
  const std::size_t min_cols = n_attrs + 2;  // + real + predict
  if (fields.size() < min_cols) {
    return util::Status::invalidArgument(util::strFormat(
        "expected >= %zu columns, got %zu", min_cols, fields.size()));
  }
  std::vector<dataset::ElemId> slots(n_attrs);
  for (std::size_t a = 0; a < n_attrs; ++a) {
    const auto& attr = schema.attribute(static_cast<AttrId>(a));
    // Leaf-ordered bodies repeat the leading attributes' elements row
    // after row; one compare replaces the dictionary lookup.
    if (previous_[a] != dataset::kWildcard &&
        attr.elementName(previous_[a]) == fields[a]) {
      slots[a] = previous_[a];
      ++reused_elements_;
      continue;
    }
    auto elem = attr.elementId(fields[a]);
    if (!elem) return util::Status::invalidArgument(elem.status().message());
    slots[a] = previous_[a] = elem.value();
  }
  auto v = util::parseDouble(fields[n_attrs]);
  RAP_RETURN_IF_ERROR(v.status());
  auto f = util::parseDouble(fields[n_attrs + 1]);
  RAP_RETURN_IF_ERROR(f.status());
  // NaN/Inf KPI values poison every ratio downstream (deviation,
  // RAPScore); reject them here with the row that carried them.
  if (!std::isfinite(v.value()) || !std::isfinite(f.value())) {
    return util::Status::invalidArgument(util::strFormat(
        "non-finite KPI value (real=%.*s predict=%.*s)",
        static_cast<int>(fields[n_attrs].size()), fields[n_attrs].data(),
        static_cast<int>(fields[n_attrs + 1].size()),
        fields[n_attrs + 1].data()));
  }
  const bool anomalous =
      fields.size() > min_cols && util::trim(fields[n_attrs + 2]) == "1";
  table_.addRow(AttributeCombination(std::move(slots)), v.value(), f.value(),
                anomalous);
  return util::Status::ok();
}

util::Result<LeafTable> LeafTableDecoder::finish() && {
  if (!status_.isOk()) return status_;
  if (rows_seen_ == 0) {
    return util::Status::invalidArgument("'" + source_ + "' is empty");
  }
  return std::move(table_);
}

util::Status saveSchema(const Schema& schema, const std::string& path) {
  std::vector<CsvRow> rows;
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    const auto& attr = schema.attribute(a);
    CsvRow row{attr.name()};
    for (dataset::ElemId e = 0; e < attr.cardinality(); ++e) {
      row.push_back(attr.elementName(e));
    }
    rows.push_back(std::move(row));
  }
  return writeCsvFile(path, rows);
}

util::Result<Schema> loadSchema(const std::string& path) {
  auto parsed = readCsvFile(path);
  if (!parsed) return parsed.status();
  std::vector<dataset::Attribute> attrs;
  for (const auto& row : parsed.value()) {
    if (row.size() < 2) {
      return util::Status::invalidArgument(
          "schema row needs a name and at least one element in '" + path + "'");
    }
    attrs.emplace_back(row[0],
                       std::vector<std::string>(row.begin() + 1, row.end()));
  }
  if (attrs.empty()) {
    return util::Status::invalidArgument("schema file '" + path + "' is empty");
  }
  return Schema(std::move(attrs));
}

util::Status saveGroundTruth(const Schema& schema,
                             const std::vector<GroundTruthEntry>& entries,
                             const std::string& path) {
  std::vector<CsvRow> rows;
  rows.push_back({"case_id", "raps"});
  for (const auto& entry : entries) {
    std::vector<std::string> raps;
    raps.reserve(entry.raps.size());
    for (const auto& ac : entry.raps) raps.push_back(ac.toString(schema));
    rows.push_back({entry.case_id, util::join(raps, ";")});
  }
  return writeCsvFile(path, rows);
}

util::Result<LoadedDataset> loadDatasetDirectory(const std::string& dir) {
  auto schema = loadSchema(dir + "/schema.csv");
  if (!schema) return schema.status();

  auto truth = loadGroundTruth(schema.value(), dir + "/injection_info.csv");
  if (!truth) return truth.status();

  LoadedDataset out{std::move(schema.value()), {}};
  out.cases.reserve(truth->size());
  for (auto& entry : truth.value()) {
    auto table = loadLeafTable(out.schema, dir + "/" + entry.case_id + ".csv");
    if (!table) return table.status();
    out.cases.push_back(gen::Case{std::move(entry.case_id),
                                  std::move(table.value()),
                                  std::move(entry.raps)});
  }
  return out;
}

util::Result<std::vector<GroundTruthEntry>> loadGroundTruth(
    const Schema& schema, const std::string& path) {
  auto parsed = readCsvFile(path);
  if (!parsed) return parsed.status();
  const auto& rows = parsed.value();
  std::vector<GroundTruthEntry> entries;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const CsvRow& row = rows[r];
    if (row.size() < 2) {
      return util::Status::invalidArgument(
          util::strFormat("%s:%zu: expected case_id,raps", path.c_str(), r + 1));
    }
    GroundTruthEntry entry;
    entry.case_id = row[0];
    for (const auto& text : util::split(row[1], ';')) {
      if (util::trim(text).empty()) continue;
      auto ac = AttributeCombination::parse(schema, text);
      if (!ac) return ac.status();
      entry.raps.push_back(std::move(ac.value()));
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace rap::io
