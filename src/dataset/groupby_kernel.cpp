#include "dataset/groupby_kernel.h"

#include <algorithm>
#include <array>

namespace rap::dataset {

namespace {

/// Same dense-array cutoff as LeafTable::groupBy; beyond it the kernel
/// sorts rows by key instead.
constexpr std::uint64_t kDenseLimit = 1u << 22;

/// One dense-cell increment: total in the high word, anomalous in the
/// low one (anomalous <= total < 2^32, so the low word never carries).
constexpr std::uint64_t kOneRow = std::uint64_t{1} << 32;

/// The member columns of one cuboid with their mixed-radix strides —
/// the Horner form of LeafTable::projectionKey, expanded into a sum.
struct Members {
  std::array<const std::uint32_t*, 32> columns{};
  std::array<std::uint64_t, 32> strides{};
  std::size_t count = 0;
};

/// The fused dense pass: each row's key is summed in registers from the
/// member columns and the row is counted into its cell in the same loop.
/// The first touch of a cell (still zero) records key and row packed
/// into one word — keys stay below 2^22 here.  `M` is the member count;
/// fixing it at compile time lets the key's sum unroll with columns and
/// strides held in locals the stores into `dense` cannot alias.
template <std::size_t M>
void scatterFixed(const Members& members, const std::uint8_t* anomalous,
                  std::size_t n, std::uint64_t* dense,
                  std::vector<std::uint64_t>& touched) {
  const std::uint32_t* columns[M];
  std::uint64_t strides[M];
  for (std::size_t j = 0; j < M; ++j) {
    columns[j] = members.columns[j];
    strides[j] = members.strides[j];
  }
  for (std::size_t r = 0; r < n; ++r) {
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < M; ++j) {
      key += strides[j] * static_cast<std::uint64_t>(columns[j][r]);
    }
    std::uint64_t& cell = dense[key];
    if (cell == 0) touched.push_back(key << 32 | r);
    cell += kOneRow | anomalous[r];
  }
}

/// scatterFixed for any member count (wide cuboids of wide schemas).
void scatterAny(const Members& members, const std::uint8_t* anomalous,
                std::size_t n, std::uint64_t* dense,
                std::vector<std::uint64_t>& touched) {
  for (std::size_t r = 0; r < n; ++r) {
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < members.count; ++j) {
      key += members.strides[j] *
             static_cast<std::uint64_t>(members.columns[j][r]);
    }
    std::uint64_t& cell = dense[key];
    if (cell == 0) touched.push_back(key << 32 | r);
    cell += kOneRow | anomalous[r];
  }
}

}  // namespace

GroupByKernel::GroupByKernel(const LeafTable& table) { rebind(table); }

void GroupByKernel::rebind(const LeafTable& table) {
  table_ = &table;
  const Schema& schema = table.schema();
  const std::size_t n = table.size();
  columns_.resize(static_cast<std::size_t>(schema.attributeCount()));
  for (auto& column : columns_) column.resize(n);
  anomalous_.resize(n);
  for (RowId id = 0; id < n; ++id) {
    const LeafRow& row = table.row(id);
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      columns_[static_cast<std::size_t>(a)][id] =
          static_cast<std::uint32_t>(row.ac.slot(a));
    }
    anomalous_[id] = row.anomalous ? 1 : 0;
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
  const Schema& schema = table_->schema();
  const std::size_t n = rowCount();
  const std::uint64_t size = cuboidSize(schema, mask);

  if (size > kDenseLimit) {
    // Sort-and-aggregate for cuboids too large for a dense array: order
    // the rows by (key, row id) and count each run, like
    // LeafTable::groupBy's fallback.
    projectionKeys(mask, scratch.keys);
    const std::uint64_t* keys = scratch.keys.data();
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
        g.total += 1;
        g.anomalous += anomalous_[order[i]];
      }
      out.push_back(g);
    }
    order.clear();
    return out.size();
  }

  // Strides in projectionKeys' order: the last member attribute varies
  // fastest.
  Members members;
  std::uint64_t stride = 1;
  for (AttrId a = schema.attributeCount(); a-- > 0;) {
    if ((mask & (1u << a)) == 0) continue;
    members.columns[members.count] =
        columns_[static_cast<std::size_t>(a)].data();
    members.strides[members.count] = stride;
    ++members.count;
    stride *= static_cast<std::uint64_t>(schema.cardinality(a));
  }

  // The dense array is zero-filled only when it grows; between calls
  // every cell is zero (restored below), so the scatter can detect the
  // first touch of a cell instead of sweeping all cells afterwards.
  if (scratch.dense.size() < size) {
    scratch.dense.resize(static_cast<std::size_t>(size));
  }
  scratch.touched.clear();
  const std::uint8_t* anomalous = anomalous_.data();
  std::uint64_t* dense = scratch.dense.data();
  switch (members.count) {
    case 1: scatterFixed<1>(members, anomalous, n, dense, scratch.touched); break;
    case 2: scatterFixed<2>(members, anomalous, n, dense, scratch.touched); break;
    case 3: scatterFixed<3>(members, anomalous, n, dense, scratch.touched); break;
    case 4: scatterFixed<4>(members, anomalous, n, dense, scratch.touched); break;
    case 5: scatterFixed<5>(members, anomalous, n, dense, scratch.touched); break;
    case 6: scatterFixed<6>(members, anomalous, n, dense, scratch.touched); break;
    case 7: scatterFixed<7>(members, anomalous, n, dense, scratch.touched); break;
    case 8: scatterFixed<8>(members, anomalous, n, dense, scratch.touched); break;
    default: scatterAny(members, anomalous, n, dense, scratch.touched); break;
  }

  // Ascending-key output order (keys are unique, so the packed words
  // sort by key).
  std::sort(scratch.touched.begin(), scratch.touched.end());
  const std::size_t groups = scratch.touched.size();
  out.resize(groups);
  for (std::size_t j = 0; j < groups; ++j) {
    const std::uint64_t key = scratch.touched[j] >> 32;
    std::uint64_t& cell = dense[key];
    CuboidGroup& g = out[j];
    g.key = key;
    g.row = static_cast<RowId>(scratch.touched[j] & 0xFFFFFFFFu);
    g.total = static_cast<std::uint32_t>(cell >> 32);
    g.anomalous = static_cast<std::uint32_t>(cell);
    cell = 0;  // restore the all-zero invariant, touched cells only
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
    a.v_sum = 0.0;
    a.f_sum = 0.0;
    project(mask, g.row, a.ac);
  }

  // Σv and Σf in one row-order pass over the table, the order
  // LeafTable::groupBy sums in, so the floats are bit-identical.  Each
  // row finds its group through the dense array, borrowed as a
  // key -> group index map (or by binary search above the dense limit).
  projectionKeys(mask, scratch.keys);
  const std::uint64_t* keys = scratch.keys.data();
  const bool dense = cuboidSize(table_->schema(), mask) <= kDenseLimit;
  if (dense) {
    for (std::size_t j = 0; j < groups; ++j) {
      scratch.dense[static_cast<std::size_t>(scratch.groups[j].key)] = j;
    }
  }
  const auto first = scratch.groups.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(groups);
  for (RowId r = 0; r < rowCount(); ++r) {
    const std::size_t j =
        dense ? static_cast<std::size_t>(
                    scratch.dense[static_cast<std::size_t>(keys[r])])
              : static_cast<std::size_t>(
                    std::lower_bound(first, last, keys[r],
                                     [](const CuboidGroup& g, std::uint64_t k) {
                                       return g.key < k;
                                     }) -
                    first);
    const LeafRow& row = table_->row(r);
    out[j].v_sum += row.v;
    out[j].f_sum += row.f;
  }
  if (dense) {
    for (std::size_t j = 0; j < groups; ++j) {
      scratch.dense[static_cast<std::size_t>(scratch.groups[j].key)] = 0;
    }
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
    const LeafRow& row = table_->row(static_cast<RowId>(r));
    g.total += 1;
    g.anomalous += anomalous_[r];
    g.v_sum += row.v;
    g.f_sum += row.f;
  }
  return g;
}

}  // namespace rap::dataset
