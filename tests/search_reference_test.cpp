// Differential test of Algorithm 2's key-space merge.  Production prunes
// by probing a group's representative row against per-row bitsets of
// accepted-cuboid slots and tests early-stop coverage by comparing row
// keys.  The reference (search_reference.h) keeps the combination-level
// definition instead: Criteria 3 as "some accepted combination
// isAncestorOf the group", coverage as matchesLeaf, groups from
// LeafTable::groupBy.  Both must agree bit for bit — patterns,
// confidences, layers and every
// search-effort counter — across random schemas, RAPMD cases, thread
// counts, cuboid orders, early stop and layer caps.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/classification_power.h"
#include "core/search.h"
#include "dataset/cuboid.h"
#include "detect/detector.h"
#include "gen/rapmd.h"
#include "search_reference.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rap {
namespace {

using core::CuboidOrder;
using core::SearchConfig;
using core::SearchStats;
using dataset::AttrId;
using dataset::AttributeCombination;
using dataset::LeafTable;
using dataset::Schema;
using test::expectSame;
using test::referenceSearch;

/// Runs production against the reference over the whole settings grid:
/// threads 1/2/4 x both cuboid orders x early stop on/off x layer caps.
/// One workspace serves every production run, so state left behind by
/// a search of another shape or setting would show up as a mismatch.
/// Returns the number of candidates the reference accepted in total.
std::uint64_t checkAllSettings(const LeafTable& table,
                               const std::vector<AttrId>& kept,
                               double t_conf) {
  static core::SearchWorkspace workspace;
  util::ThreadPool pool2(1);
  util::ThreadPool pool4(3);
  std::uint64_t accepted = 0;
  for (const auto order : {CuboidOrder::kCpWeighted, CuboidOrder::kNumeric}) {
    for (const bool early_stop : {true, false}) {
      for (const std::int32_t max_layers : {0, 2}) {
        SearchConfig config;
        config.t_conf = t_conf;
        config.order = order;
        config.early_stop = early_stop;
        config.max_layers = max_layers;
        SearchStats expected_stats;
        const auto expected =
            referenceSearch(table, kept, config, expected_stats);
        accepted += expected.size();
        for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                       &pool2, &pool4}) {
          SCOPED_TRACE(testing::Message()
                       << "order=" << static_cast<int>(order)
                       << " early_stop=" << early_stop
                       << " max_layers=" << max_layers << " threads="
                       << (pool == nullptr ? 1 : pool->threadCount() + 1));
          SearchStats stats;
          const auto actual =
              core::acGuidedSearch(table, kept, config, workspace, pool, stats);
          expectSame(expected, expected_stats, actual, stats);
        }
      }
    }
  }
  return accepted;
}

/// Random sparse table over a random schema of 2-6 attributes: rows are
/// sampled leaves (duplicates allowed), anomalies are planted under 1-3
/// random combinations plus background label noise.
struct RandomInput {
  LeafTable table;
  std::vector<AttrId> kept;
  double t_conf;
};

RandomInput randomInput(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto n_attrs = static_cast<std::int32_t>(rng.uniformInt(2, 6));
  // Wider schemas get smaller domains, keeping the full cuboid (and the
  // kernel's dense scratch) under ~50k cells.
  const std::int64_t max_card = n_attrs <= 3 ? 12 : n_attrs == 4 ? 9 : 6;
  std::vector<std::int32_t> cards;
  for (std::int32_t a = 0; a < n_attrs; ++a) {
    cards.push_back(static_cast<std::int32_t>(rng.uniformInt(2, max_card)));
  }
  const Schema schema = Schema::synthetic(cards);

  std::vector<AttributeCombination> raps;
  const auto n_raps = rng.uniformInt(1, 3);
  for (std::int64_t i = 0; i < n_raps; ++i) {
    AttributeCombination rap(n_attrs);
    for (AttrId a = 0; a < n_attrs; ++a) {
      if (rng.bernoulli(0.4)) {
        rap.setSlot(a, static_cast<dataset::ElemId>(
                           rng.uniformInt(0, cards[a] - 1)));
      }
    }
    raps.push_back(rap);
  }
  const double noise = std::vector<double>{0.0, 0.02, 0.1}[rng.uniformInt(0, 2)];
  const auto rows = rng.uniformInt(50, 3000);
  LeafTable table(schema);
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto leaf = dataset::leafFromIndex(
        schema, static_cast<std::uint64_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(schema.leafCount()) - 1)));
    const bool under_rap =
        std::any_of(raps.begin(), raps.end(), [&leaf](const auto& rap) {
          return rap.matchesLeaf(leaf);
        });
    const bool anomalous =
        under_rap ? rng.bernoulli(0.95) : rng.bernoulli(noise);
    table.addRow(leaf, anomalous ? 10.0 : 100.0, 100.0, anomalous);
  }

  std::vector<AttrId> kept(static_cast<std::size_t>(n_attrs));
  std::iota(kept.begin(), kept.end(), 0);
  for (std::size_t i = kept.size(); i > 1; --i) {
    std::swap(kept[i - 1],
              kept[static_cast<std::size_t>(
                  rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  }
  if (rng.bernoulli(0.3)) kept.pop_back();  // a restricted lattice
  const double t_conf = rng.bernoulli(0.5) ? 0.8 : 0.5;
  return RandomInput{std::move(table), std::move(kept), t_conf};
}

class RandomSchemas : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSchemas, KeySpaceMergeMatchesReference) {
  const RandomInput input = randomInput(GetParam());
  SCOPED_TRACE(testing::Message() << "attributes="
                                  << input.table.schema().attributeCount()
                                  << " rows=" << input.table.size());
  checkAllSettings(input.table, input.kept, input.t_conf);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSchemas, ::testing::Range<std::uint64_t>(1, 41));

class RapmdThresholds : public ::testing::TestWithParam<double> {};

TEST_P(RapmdThresholds, KeySpaceMergeMatchesReference) {
  // The perfbench exhaustive shape: labels from the relative-deviation
  // detector at the given threshold, Algorithm 1 with t_cp = 0.
  gen::RapmdConfig config;
  config.num_cases = 2;
  gen::RapmdGenerator generator(Schema::cdn(), config, 20221012);
  std::uint64_t accepted = 0;
  for (auto& c : generator.generate()) {
    detect::RelativeDeviationDetector(GetParam()).run(c.table);
    const auto kept = core::deleteRedundantAttributes(c.table, 0.0);
    accepted += checkAllSettings(c.table, kept, 0.8);
  }
  EXPECT_GT(accepted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Detector, RapmdThresholds,
                         ::testing::Values(0.088, 0.095));

TEST(KeySpaceMerge, CuboidAboveTheDenseLimitMatchesReference) {
  // {A, B, C} has 300 * 200 * 100 = 6M cells, past the 2^22-cell dense
  // limit, so its groups come from the kernel's sort-based fallback and
  // must still carry the keys and representative rows the merge uses.
  const Schema schema = Schema::synthetic({300, 200, 100, 2});
  ASSERT_GT(dataset::cuboidSize(schema, 0b0111), std::uint64_t{1} << 22);
  util::Rng rng(77);
  LeafTable table(schema);
  for (int r = 0; r < 4000; ++r) {
    AttributeCombination leaf(4);
    // Few distinct A/B values so groups of the large cuboid repeat.
    leaf.setSlot(0, static_cast<dataset::ElemId>(rng.uniformInt(0, 5)));
    leaf.setSlot(1, static_cast<dataset::ElemId>(rng.uniformInt(0, 7)));
    leaf.setSlot(2, static_cast<dataset::ElemId>(rng.uniformInt(0, 99)));
    leaf.setSlot(3, static_cast<dataset::ElemId>(rng.uniformInt(0, 1)));
    const bool anomalous =
        leaf.slot(0) == 2 ? rng.bernoulli(0.9) : rng.bernoulli(0.05);
    table.addRow(leaf, anomalous ? 10.0 : 100.0, 100.0, anomalous);
  }
  EXPECT_GT(checkAllSettings(table, {0, 1, 2, 3}, 0.8), 0u);
  EXPECT_GT(checkAllSettings(table, {2, 1, 0}, 0.6), 0u);
}

TEST(KeySpaceMerge, MoreThan64AcceptingCuboidsMatchReference) {
  // Eight binary attributes with coin-flip labels: small pure groups on
  // every layer make well over 64 cuboids accept a candidate, so the
  // per-row slot bitset spans several words.
  const Schema schema = Schema::synthetic({2, 2, 2, 2, 2, 2, 2, 2});
  util::Rng rng(64);
  LeafTable table(schema);
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const bool anomalous = rng.bernoulli(0.5);
    table.addRow(dataset::leafFromIndex(schema, i), anomalous ? 10.0 : 100.0,
                 100.0, anomalous);
  }
  const std::vector<AttrId> kept = {0, 1, 2, 3, 4, 5, 6, 7};
  core::SearchWorkspace ws;
  SearchConfig config;
  config.t_conf = 0.7;
  config.early_stop = false;
  SearchStats stats;
  core::acGuidedSearch(table, kept, config, ws, /*pool=*/nullptr, stats);
  EXPECT_GT(ws.slot_masks.size(), 64u);
  checkAllSettings(table, kept, 0.7);
}

// ---------------------------------------------------------- workspace

/// Capacities (and buffer addresses) of the merge's retained buffers.
std::vector<const void*> mergeBuffers(const core::SearchWorkspace& ws,
                                      std::vector<std::size_t>& capacities) {
  capacities = {ws.row_keys.capacity(),   ws.accepted_keys.capacity(),
                ws.slot_masks.capacity(), ws.slot_bits.capacity(),
                ws.probe.capacity(),      ws.uncovered.capacity(),
                ws.layer_groups.capacity()};
  std::vector<const void*> data = {ws.row_keys.data(), ws.slot_bits.data(),
                                   ws.uncovered.data()};
  for (const auto& bits : ws.slot_bits) {
    capacities.push_back(bits.capacity());
    data.push_back(bits.data());
  }
  for (const auto& groups : ws.layer_groups) {
    capacities.push_back(groups.capacity());
    data.push_back(groups.data());
  }
  return data;
}

TEST(KeySpaceMerge, RepeatedSameShapeSearchKeepsMergeCapacity) {
  gen::RapmdConfig config;
  config.num_cases = 1;
  gen::RapmdGenerator generator(Schema::cdn(), config, 5);
  LeafTable table = generator.generateCase(0).table;
  detect::RelativeDeviationDetector(0.088).run(table);
  const auto kept = core::deleteRedundantAttributes(table, 0.0);
  SearchConfig search;
  search.early_stop = false;  // every layer, every merge buffer in use
  util::ThreadPool pool(3);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    core::SearchWorkspace ws;
    const auto run = [&] {
      SearchStats stats;
      return core::acGuidedSearch(table, kept, search, ws, p, stats);
    };
    const auto first = run();
    ASSERT_FALSE(first.empty());
    ASSERT_FALSE(ws.slot_masks.empty());
    std::vector<std::size_t> warm;
    const auto warm_data = mergeBuffers(ws, warm);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto again = run();
      ASSERT_EQ(first.size(), again.size());
      std::vector<std::size_t> now;
      EXPECT_EQ(mergeBuffers(ws, now), warm_data) << "repeat " << repeat;
      EXPECT_EQ(now, warm) << "repeat " << repeat;
    }
  }
}

}  // namespace
}  // namespace rap
