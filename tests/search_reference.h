// Algorithm 2 written from its definitions, for differential tests of
// core::acGuidedSearch: Criteria 3 as "some accepted combination
// isAncestorOf the group", coverage as matchesLeaf, groups from
// LeafTable::groupBy.  Shared by search_reference_test (every schedule
// against the reference) and search_parallel_test (degraded fan-out
// runs against the reference).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/search.h"
#include "dataset/attribute_combination.h"
#include "dataset/leaf_table.h"

namespace rap::test {

/// The reference search.  Of the degraded exits it models the layer cap
/// and, when `cuboid_budget` > 0, a deadline that expires once that many
/// cuboids were visited: the search then stops before the next cuboid
/// with degraded_reason "deadline" and a partial layer entry, as the
/// production deadline check does mid-layer.
inline std::vector<core::ScoredPattern> referenceSearch(
    const dataset::LeafTable& table, const std::vector<dataset::AttrId>& kept,
    const core::SearchConfig& config, core::SearchStats& stats,
    std::uint64_t cuboid_budget = 0) {
  std::vector<core::ScoredPattern> candidates;
  std::vector<dataset::AttributeCombination> accepted;
  std::vector<dataset::RowId> uncovered;
  if (config.early_stop) uncovered = table.anomalousRows();
  std::uint64_t visited = 0;
  const auto flush = [&stats](const core::LayerSearchStats& layer) {
    stats.cuboids_visited += layer.cuboids_visited;
    stats.combinations_evaluated += layer.combinations_evaluated;
    stats.combinations_pruned += layer.combinations_pruned;
    stats.candidates_found += layer.candidates_found;
    stats.layers.push_back(layer);
  };
  const auto max_layer = static_cast<std::int32_t>(kept.size());
  for (std::int32_t layer = 1; layer <= max_layer; ++layer) {
    if (config.max_layers > 0 && layer > config.max_layers) {
      stats.degraded_reason = "layer-cap";
      return candidates;
    }
    core::LayerSearchStats layer_stats;
    layer_stats.layer = layer;
    for (const auto mask : core::orderedCuboids(kept, layer, config.order)) {
      if (cuboid_budget > 0 && visited == cuboid_budget) {
        stats.degraded_reason = "deadline";
        flush(layer_stats);
        return candidates;
      }
      visited += 1;
      layer_stats.cuboids_visited += 1;
      for (const auto& group : table.groupBy(mask)) {
        const bool pruned =
            std::any_of(accepted.begin(), accepted.end(),
                        [&group](const dataset::AttributeCombination& ac) {
                          return ac.isAncestorOf(group.ac);
                        });
        if (pruned) {
          layer_stats.combinations_pruned += 1;
          continue;
        }
        layer_stats.combinations_evaluated += 1;
        const double confidence = group.confidence();
        if (confidence <= config.t_conf) continue;
        core::ScoredPattern pattern;
        pattern.ac = group.ac;
        pattern.confidence = confidence;
        pattern.layer = layer;
        candidates.push_back(pattern);
        accepted.push_back(group.ac);
        layer_stats.candidates_found += 1;
        if (!config.early_stop) continue;
        std::erase_if(uncovered, [&](dataset::RowId id) {
          return group.ac.matchesLeaf(table.row(id).ac);
        });
        if (uncovered.empty()) {
          stats.early_stopped = true;
          flush(layer_stats);
          return candidates;
        }
      }
    }
    flush(layer_stats);
  }
  return candidates;
}

/// Bitwise equality of two searches.  search_threads and the wall times
/// describe the schedule, not the result, and are left out.
inline void expectSame(const std::vector<core::ScoredPattern>& expected,
                       const core::SearchStats& expected_stats,
                       const std::vector<core::ScoredPattern>& actual,
                       const core::SearchStats& actual_stats) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].ac, actual[i].ac) << "i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[i].confidence),
              std::bit_cast<std::uint64_t>(actual[i].confidence))
        << "i=" << i;
    EXPECT_EQ(expected[i].layer, actual[i].layer) << "i=" << i;
  }
  EXPECT_EQ(expected_stats.cuboids_visited, actual_stats.cuboids_visited);
  EXPECT_EQ(expected_stats.combinations_evaluated,
            actual_stats.combinations_evaluated);
  EXPECT_EQ(expected_stats.combinations_pruned,
            actual_stats.combinations_pruned);
  EXPECT_EQ(expected_stats.candidates_found, actual_stats.candidates_found);
  EXPECT_EQ(expected_stats.early_stopped, actual_stats.early_stopped);
  EXPECT_EQ(expected_stats.degraded_reason, actual_stats.degraded_reason);
  ASSERT_EQ(expected_stats.layers.size(), actual_stats.layers.size());
  for (std::size_t i = 0; i < expected_stats.layers.size(); ++i) {
    const auto& a = expected_stats.layers[i];
    const auto& b = actual_stats.layers[i];
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.cuboids_visited, b.cuboids_visited) << "layer " << a.layer;
    EXPECT_EQ(a.combinations_evaluated, b.combinations_evaluated)
        << "layer " << a.layer;
    EXPECT_EQ(a.combinations_pruned, b.combinations_pruned)
        << "layer " << a.layer;
    EXPECT_EQ(a.candidates_found, b.candidates_found) << "layer " << a.layer;
  }
}

}  // namespace rap::test
