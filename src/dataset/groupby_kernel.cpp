#include "dataset/groupby_kernel.h"

#include <algorithm>

namespace rap::dataset {

namespace {

/// Same dense-array cutoff as LeafTable::groupBy; beyond it the kernel
/// sorts rows by key instead.
constexpr std::uint64_t kDenseLimit = 1u << 22;

}  // namespace

GroupByKernel::GroupByKernel(const LeafTable& table) { rebind(table); }

void GroupByKernel::rebind(const LeafTable& table) {
  table_ = &table;
  const Schema& schema = table.schema();
  const std::size_t n = table.size();
  columns_.resize(static_cast<std::size_t>(schema.attributeCount()));
  for (auto& column : columns_) column.resize(n);
  anomalous_.resize(n);
  v_.resize(n);
  f_.resize(n);
  for (RowId id = 0; id < n; ++id) {
    const LeafRow& row = table.row(id);
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      columns_[static_cast<std::size_t>(a)][id] =
          static_cast<std::uint32_t>(row.ac.slot(a));
    }
    anomalous_[id] = row.anomalous ? 1 : 0;
    v_[id] = row.v;
    f_[id] = row.f;
  }
}

void GroupByKernel::projectionKeys(CuboidMask mask,
                                   std::vector<std::uint64_t>& keys) const {
  RAP_CHECK(table_ != nullptr);
  const Schema& schema = table_->schema();
  const std::size_t n = rowCount();
  keys.resize(n);
  std::uint64_t* out = keys.data();
  // Column sweeps, last member attribute first so the stride grows as
  // LeafTable::projectionKey's Horner form implies (the first member
  // varies slowest).  The first sweep assigns instead of accumulating,
  // so the buffer never needs a zero-fill of its own.
  bool first = true;
  std::uint64_t stride = 1;
  for (AttrId a = schema.attributeCount(); a-- > 0;) {
    if ((mask & (1u << a)) == 0) continue;
    const std::uint32_t* column = columns_[static_cast<std::size_t>(a)].data();
    if (first) {
      for (std::size_t r = 0; r < n; ++r) {
        out[r] = stride * static_cast<std::uint64_t>(column[r]);
      }
      first = false;
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        out[r] += stride * static_cast<std::uint64_t>(column[r]);
      }
    }
    stride *= static_cast<std::uint64_t>(schema.cardinality(a));
  }
  if (first) std::fill(out, out + n, 0);
}

std::size_t GroupByKernel::groupByInto(CuboidMask mask, GroupByScratch& scratch,
                                       std::vector<CuboidGroup>& out) const {
  RAP_CHECK(table_ != nullptr);
  projectionKeys(mask, scratch.keys);
  const std::uint64_t* keys = scratch.keys.data();
  const std::size_t n = rowCount();
  const std::uint64_t size = cuboidSize(table_->schema(), mask);

  if (size > kDenseLimit) {
    // Sort-and-aggregate for cuboids too large for a dense array: order
    // the rows by (key, row id) and sum each run in row order, exactly
    // like LeafTable::groupBy's fallback, so the sums stay bit-identical.
    std::vector<std::uint64_t>& order = scratch.touched;
    order.resize(n);
    for (std::size_t r = 0; r < n; ++r) order[r] = r;
    std::sort(order.begin(), order.end(),
              [keys](std::uint64_t a, std::uint64_t b) {
                return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
              });
    out.clear();
    for (std::size_t i = 0; i < n;) {
      CuboidGroup g;
      g.key = keys[order[i]];
      g.row = static_cast<RowId>(order[i]);
      for (; i < n && keys[order[i]] == g.key; ++i) {
        const std::size_t r = order[i];
        g.total += 1;
        g.anomalous += anomalous_[r];
        g.v_sum += v_[r];
        g.f_sum += f_[r];
      }
      out.push_back(g);
    }
    order.clear();
    return out.size();
  }

  // The dense array is zero-filled only when it grows; between calls
  // every cell is zero (restored below), so the scatter can detect the
  // first touch of a cell by total == 0 and record it — key and row
  // packed into one word, as keys stay below 2^22 here — instead of
  // sweeping all cells afterwards.
  if (scratch.dense.size() < size) {
    scratch.dense.resize(static_cast<std::size_t>(size));
  }
  scratch.touched.clear();
  for (std::size_t r = 0; r < n; ++r) {
    GroupCell& cell = scratch.dense[static_cast<std::size_t>(keys[r])];
    if (cell.total == 0) scratch.touched.push_back(keys[r] << 32 | r);
    cell.total += 1;
    cell.anomalous += anomalous_[r];
    cell.v_sum += v_[r];
    cell.f_sum += f_[r];
  }

  // Ascending-key output order (keys are unique, so the packed words
  // sort by key); the per-cell sums were accumulated in row order, so
  // the floats are bit-identical to LeafTable::groupBy.
  std::sort(scratch.touched.begin(), scratch.touched.end());
  const std::size_t groups = scratch.touched.size();
  out.resize(groups);
  for (std::size_t j = 0; j < groups; ++j) {
    const std::uint64_t key = scratch.touched[j] >> 32;
    GroupCell& cell = scratch.dense[static_cast<std::size_t>(key)];
    CuboidGroup& g = out[j];
    g.key = key;
    g.row = static_cast<RowId>(scratch.touched[j] & 0xFFFFFFFFu);
    g.total = cell.total;
    g.anomalous = cell.anomalous;
    g.v_sum = cell.v_sum;
    g.f_sum = cell.f_sum;
    cell = GroupCell{};  // restore the all-zero invariant, touched cells only
  }
  scratch.touched.clear();
  return groups;
}

std::size_t GroupByKernel::groupByInto(CuboidMask mask, GroupByScratch& scratch,
                                       std::vector<GroupAggregate>& out) const {
  const std::size_t groups = groupByInto(mask, scratch, scratch.groups);
  if (out.size() < groups) out.resize(groups);
  for (std::size_t j = 0; j < groups; ++j) {
    const CuboidGroup& g = scratch.groups[j];
    GroupAggregate& a = out[j];
    a.total = g.total;
    a.anomalous = g.anomalous;
    a.v_sum = g.v_sum;
    a.f_sum = g.f_sum;
    project(mask, g.row, a.ac);
  }
  return groups;
}

AttributeCombination GroupByKernel::combination(CuboidMask mask,
                                                RowId row) const {
  AttributeCombination ac;
  project(mask, row, ac);
  return ac;
}

void GroupByKernel::project(CuboidMask mask, RowId row,
                            AttributeCombination& ac) const {
  RAP_CHECK(row < rowCount());
  const auto count = static_cast<AttrId>(columns_.size());
  // Same-width combinations are rewritten in place (no allocation).
  if (ac.attributeCount() != count) ac = AttributeCombination(count);
  for (AttrId a = 0; a < count; ++a) {
    ac.setSlot(a, (mask & (1u << a)) != 0
                      ? static_cast<ElemId>(
                            columns_[static_cast<std::size_t>(a)][row])
                      : kWildcard);
  }
}

GroupAggregate GroupByKernel::aggregateFor(const AttributeCombination& ac) const {
  RAP_CHECK(table_ != nullptr);
  GroupAggregate g;
  g.ac = ac;
  const std::size_t n = rowCount();
  for (std::size_t r = 0; r < n; ++r) {
    bool match = true;
    for (AttrId a = 0; a < ac.attributeCount() && match; ++a) {
      const ElemId want = ac.slot(a);
      match = want == kWildcard ||
              columns_[static_cast<std::size_t>(a)][r] ==
                  static_cast<std::uint32_t>(want);
    }
    if (!match) continue;
    g.total += 1;
    g.anomalous += anomalous_[r];
    g.v_sum += v_[r];
    g.f_sum += f_[r];
  }
  return g;
}

}  // namespace rap::dataset
