#include "svc/snapshot.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "io/csv.h"
#include "io/dataset_io.h"
#include "svc/json_value.h"
#include "util/strings.h"

namespace rap::svc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

}  // namespace

util::Result<dataset::LeafTable> parseCsvSnapshot(
    const dataset::Schema& schema, const std::string& body) {
  io::LeafTableDecoder decoder(schema, "request body");
  const io::CsvRowCallback decode =
      [&decoder](std::span<const std::string_view> row) {
        decoder.addRow(row);
      };
  io::CsvStreamParser parser;
  RAP_RETURN_IF_ERROR(parser.feed(body, decode));
  RAP_RETURN_IF_ERROR(parser.finish(decode));
  return std::move(decoder).finish();
}

util::Result<dataset::LeafTable> parseJsonSnapshot(
    const dataset::Schema& schema, const std::string& body) {
  auto doc = JsonValue::parse(body);
  if (!doc.isOk()) return doc.status();
  const JsonValue* rows = doc.value().find("rows");
  if (rows == nullptr || !rows->isArray()) {
    return util::Status::invalidArgument(
        "request body: JSON snapshot must be an object with a \"rows\" "
        "array");
  }

  // Each row goes through the CSV decoder as the fields a CSV body would
  // carry, so JSON and CSV bodies hit identical schema/finite checks.
  // Shape errors are returned at once; a decode error only at the end,
  // so a malformed row anywhere wins over a bad value, as in CSV.
  const auto attr_count = static_cast<std::size_t>(schema.attributeCount());
  io::LeafTableDecoder decoder(schema, "request body");
  decoder.reserve(rows->array_value.size());
  decoder.addRow({});  // the header row a CSV body starts with
  std::vector<std::string_view> fields;
  fields.reserve(attr_count + 3);
  // A JSON number becomes the field text the CSV reader would see, with
  // enough digits to round-trip the double exactly.
  char numbers[3][32];
  for (std::size_t i = 0; i < rows->array_value.size(); ++i) {
    const JsonValue& row = rows->array_value[i];
    if (!row.isArray()) {
      return util::Status::invalidArgument(util::strFormat(
          "request body: rows[%zu] is not an array", i));
    }
    const std::size_t n = row.array_value.size();
    if (n != attr_count + 2 && n != attr_count + 3) {
      return util::Status::invalidArgument(util::strFormat(
          "request body: rows[%zu] has %zu fields, expected %zu or %zu", i,
          n, attr_count + 2, attr_count + 3));
    }
    fields.clear();
    for (std::size_t c = 0; c < n; ++c) {
      const JsonValue& cell = row.array_value[c];
      if (c < attr_count) {
        if (!cell.isString()) {
          return util::Status::invalidArgument(util::strFormat(
              "request body: rows[%zu][%zu] must be an element-name string",
              i, c));
        }
        fields.push_back(cell.string_value);
      } else if (cell.isNumber()) {
        char* text = numbers[c - attr_count];
        const int len =
            std::snprintf(text, sizeof(numbers[0]), "%.17g", cell.number_value);
        fields.emplace_back(text, static_cast<std::size_t>(len));
      } else if (cell.isString()) {
        // Numeric strings are accepted so a proxy can forward CSV fields
        // without re-typing them; the decoder rejects non-numeric
        // content.
        fields.push_back(cell.string_value);
      } else {
        return util::Status::invalidArgument(util::strFormat(
            "request body: rows[%zu][%zu] must be a number", i, c));
      }
    }
    if (n == attr_count + 2) fields.push_back("0");
    decoder.addRow(fields);
  }
  return std::move(decoder).finish();
}

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t contentHash(std::string_view bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  // One multiply per 8 bytes instead of per byte; the request bodies
  // this keys are megabytes, and the byte-wise chain would dominate the
  // cache-hit fast path the throughput floor depends on.
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    h = (h ^ word) * kFnvPrime;
    p += sizeof(word);
    n -= sizeof(word);
  }
  for (; n > 0; --n, ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * kFnvPrime;
  }
  return hashMix(h, static_cast<std::uint64_t>(bytes.size()));
}

std::uint64_t hashMix(std::uint64_t h, std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t snapshotHash(const dataset::LeafTable& table) noexcept {
  std::uint64_t h = kFnvOffset;
  h = hashMix(h, static_cast<std::uint64_t>(table.schema().attributeCount()));
  for (const dataset::LeafRow& row : table.rows()) {
    for (const dataset::ElemId slot : row.ac.slots()) {
      h = hashMix(h, static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(slot)));
    }
    h = hashMix(h, std::bit_cast<std::uint64_t>(row.v));
    h = hashMix(h, std::bit_cast<std::uint64_t>(row.f));
    h = hashMix(h, row.anomalous ? 1u : 0u);
  }
  return h;
}

}  // namespace rap::svc
