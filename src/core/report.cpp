#include "core/report.h"

#include <algorithm>

#include "util/strings.h"
#include "util/table.h"

namespace rap::core {

std::string renderReport(const dataset::Schema& schema,
                         const LocalizationResult& result,
                         const ReportOptions& options) {
  std::string out;

  out += "Root anomaly patterns";
  out += result.patterns.empty() ? ": none found\n" : ":\n";
  util::TextTable table;
  table.setHeader({"rank", "pattern", "confidence", "layer", "RAPScore"});
  std::int32_t rank = 1;
  for (const auto& pattern : result.patterns) {
    table.addRow({std::to_string(rank++), pattern.ac.toString(schema),
                  util::TextTable::num(pattern.confidence, 3),
                  std::to_string(pattern.layer),
                  util::TextTable::num(pattern.score, 3)});
  }
  if (!result.patterns.empty()) out += table.render();

  if (options.include_powers &&
      !result.stats.classification_power.empty()) {
    out += "Classification power (Eq. 1):\n";
    for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
      const double cp =
          result.stats.classification_power[static_cast<std::size_t>(a)];
      const auto& kept = result.stats.kept_attributes;
      const bool deleted =
          std::find(kept.begin(), kept.end(), a) == kept.end();
      out += util::strFormat("  %-12s %.5f%s\n",
                             schema.attribute(a).name().c_str(), cp,
                             deleted ? "  (deleted)" : "");
    }
  }

  if (options.include_stats) {
    out += "Search effort:\n";
    out += util::strFormat(
        "  %llu cuboid(s) visited, %llu combination(s) evaluated, "
        "%llu pruned, %llu candidate(s)%s\n",
        static_cast<unsigned long long>(result.stats.cuboids_visited),
        static_cast<unsigned long long>(result.stats.combinations_evaluated),
        static_cast<unsigned long long>(result.stats.combinations_pruned),
        static_cast<unsigned long long>(result.stats.candidates_found),
        result.stats.early_stopped ? ", early-stopped" : "");
    if (result.degraded) {
      out += util::strFormat(
          "  DEGRADED (%s): partial candidate set, lattice not exhausted\n",
          result.stats.degraded_reason.c_str());
    }
    if (!result.stats.layers.empty()) {
      util::TextTable layers;
      layers.setHeader({"layer", "cuboids", "evaluated", "pruned",
                        "candidates", "time", "aggregate", "merge"});
      for (const auto& layer : result.stats.layers) {
        layers.addRow({std::to_string(layer.layer),
                       std::to_string(layer.cuboids_visited),
                       std::to_string(layer.combinations_evaluated),
                       std::to_string(layer.combinations_pruned),
                       std::to_string(layer.candidates_found),
                       util::TextTable::duration(layer.seconds),
                       util::TextTable::duration(layer.seconds_aggregate),
                       util::TextTable::duration(layer.seconds -
                                                 layer.seconds_aggregate)});
      }
      out += layers.render();
      if (result.stats.search_threads > 1) {
        out += util::strFormat("  search threads: %d\n",
                               result.stats.search_threads);
      }
    }
    const double stage_total = result.stats.seconds_attribute_deletion +
                               result.stats.seconds_search +
                               result.stats.seconds_ranking;
    if (stage_total > 0.0) {
      out += util::strFormat(
          "  stage time: CP deletion %s, search %s, ranking %s\n",
          util::TextTable::duration(result.stats.seconds_attribute_deletion)
              .c_str(),
          util::TextTable::duration(result.stats.seconds_search).c_str(),
          util::TextTable::duration(result.stats.seconds_ranking).c_str());
    }
  }
  return out;
}

}  // namespace rap::core
