// GroupByKernel — cache-friendly cuboid aggregation over a LeafTable.
//
// LeafTable::groupBy re-reads every row's AttributeCombination (a
// heap-allocated slot vector) for every cuboid it aggregates, so a search
// that visits many cuboids pays the pointer-chasing cost over and over.
// The kernel pays it once: at construction (or rebind()) it transposes
// the table into per-attribute element-code columns plus a flat anomaly
// column, and each aggregation is then one fused pass over contiguous
// memory — per row, the mixed-radix projection key is computed in
// registers from the member columns and the row is scattered into its
// cell in the same loop, so no per-row key array is written or read.
//
// Algorithm 2 only needs Confidence = anomalous / total per group, so a
// cell is two 32-bit counts packed into one word; the KPI sums (Σv, Σf)
// exist only on the decoded GroupAggregate overload, which harnesses
// use and which re-reads the bound table for them.
//
// groupByInto(mask, scratch, out) is the aggregation entry point.  The
// caller supplies a GroupByScratch whose dense array is zero-filled only
// when it grows; a touched-key list records which cells the call wrote,
// and the output is produced by sorting the touched keys ascending.
// Only touched cells are reset afterwards, so a call costs
// O(rows + groups·log groups) rather than O(rows + cuboid_size).  In
// steady state (schema, row count and cuboid sizes no larger than
// already seen) the call performs zero heap allocations — asserted by
// `micro_primitives --assert-zero-alloc` in CI.
//
// Output contract: groups come out in ascending projection-key order as
// plain data (CuboidGroup: key, representative row, counts) — no
// AttributeCombination is built on the hot path; combination()
// materializes one on demand.  Keys, counts and order are identical to
// LeafTable::groupBy(mask).  The kernel is immutable between rebind()s
// and safe to share across threads as long as each thread brings its
// own scratch (the parallel layer search of core::acGuidedSearch
// aggregates disjoint cuboids concurrently through one kernel with
// per-worker scratches).
#pragma once

#include <cstdint>
#include <vector>

#include "dataset/cuboid.h"
#include "dataset/leaf_table.h"

namespace rap::dataset {

/// One non-empty group of a cuboid aggregation, as plain data.  `key` is
/// the group's mixed-radix projection key (LeafTable::projectionKey) and
/// `row` the lowest-id row projecting onto it — every row of the group
/// agrees with `row` on the cuboid's attributes, so the row stands in
/// for the whole group in row-level lookups.
struct CuboidGroup {
  std::uint64_t key = 0;
  RowId row = 0;
  std::uint32_t total = 0;
  std::uint32_t anomalous = 0;

  double confidence() const noexcept {
    return total == 0 ? 0.0
                      : static_cast<double>(anomalous) /
                            static_cast<double>(total);
  }
};

/// Caller-owned scratch memory for GroupByKernel::groupByInto.  All
/// buffers grow to the high-water mark of the cuboids aggregated through
/// them and are then reused without reallocation.  Invariant between
/// calls: every cell of `dense` is zero and `touched` is empty (the
/// kernel restores both before returning).  A scratch serves one thread
/// at a time; give each worker its own.
struct GroupByScratch {
  /// [row] projection keys, for the sort fallback and the
  /// GroupAggregate overload (the dense path keeps keys in registers).
  std::vector<std::uint64_t> keys;
  /// [key] accumulation cells: total << 32 | anomalous.
  std::vector<std::uint64_t> dense;
  /// Cells written by this call, packed (key << 32 | first row); the
  /// sparse fallback reuses it as a row permutation.
  std::vector<std::uint64_t> touched;
  /// Keyed groups behind the GroupAggregate overload of groupByInto.
  std::vector<CuboidGroup> groups;
};

class GroupByKernel {
 public:
  /// Unbound kernel; rebind() before use.
  GroupByKernel() = default;

  /// Transposes `table` into columns.  O(rows * attributes); the table
  /// must outlive the kernel and not grow while the kernel is in use.
  explicit GroupByKernel(const LeafTable& table);

  /// Re-targets the kernel at another table, reusing the transposed
  /// columns' capacity — repeated localizations of same-shaped tables
  /// (same schema, same row count) re-fill the existing buffers instead
  /// of reallocating them.  Not thread-safe against concurrent
  /// aggregation calls on this kernel.
  void rebind(const LeafTable& table);

  bool bound() const noexcept { return table_ != nullptr; }
  const LeafTable& table() const noexcept { return *table_; }
  std::size_t rowCount() const noexcept { return anomalous_.size(); }

  /// Aggregates all leaves by their projection onto `mask` into `out`
  /// (resized to the group count, capacity retained) using the caller's
  /// scratch; returns the group count.  Cuboids above the dense limit
  /// fall back to sort-and-aggregate through the same scratch (its
  /// buffers grow to the row count — no other allocation).
  std::size_t groupByInto(CuboidMask mask, GroupByScratch& scratch,
                          std::vector<CuboidGroup>& out) const;

  /// Decoded form for harnesses that want combinations and KPI sums: the
  /// same groups as table().groupBy(mask), element for element and bit
  /// for bit, in `out[0 .. returned count)`.  The sums come from one
  /// row-order pass over the bound table, as in LeafTable::groupBy.
  /// `out` only ever grows so the combinations of stale entries are
  /// rewritten in place on reuse.
  std::size_t groupByInto(CuboidMask mask, GroupByScratch& scratch,
                          std::vector<GroupAggregate>& out) const;

  /// Writes the projection key of every row onto `mask` into
  /// `keys[0 .. rowCount())` (resized; capacity retained) — the keys
  /// groupByInto groups by (its dense path computes them in registers).
  void projectionKeys(CuboidMask mask, std::vector<std::uint64_t>& keys) const;

  /// The projection of row `row` onto `mask`: its elements on the
  /// cuboid's attributes, wildcards elsewhere.
  AttributeCombination combination(CuboidMask mask, RowId row) const;

  /// Support counts and sums of a single combination (column scan plus
  /// the table's KPIs; used by tests to cross-check against
  /// InvertedIndex::aggregateFor).
  GroupAggregate aggregateFor(const AttributeCombination& ac) const;

 private:
  /// combination() into `ac`, rewriting same-width slots in place.
  void project(CuboidMask mask, RowId row, AttributeCombination& ac) const;

  const LeafTable* table_ = nullptr;
  // columns_[attr][row] — element code of `row` in attribute `attr`.
  std::vector<std::vector<std::uint32_t>> columns_;
  std::vector<std::uint8_t> anomalous_;  ///< [row] 0/1 verdicts
};

}  // namespace rap::dataset
