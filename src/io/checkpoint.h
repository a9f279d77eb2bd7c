// Stream-engine checkpoint (de)serialization.
//
// A checkpoint is the engine's durable resume cut: the event-time high
// watermark, each shard's sealed-up-to promise, and every window
// fragment that was buffered but not yet sealed when the checkpoint was
// taken (per-shard open epochs plus assembler-pending fragments).  A
// restarted daemon restored from it resumes at the next unsealed epoch:
// epochs at or below the recorded seal frontier are never sealed again
// (replayed events for them count late), and buffered fragments are not
// lost across the restart.
//
// Format (versioned, line-based text; doubles serialize as C99 hex
// floats so values round-trip BIT-EXACTLY — the chaos suite asserts
// stream output is bit-identical to batch across a kill/restore cycle):
//
//   RAPCHKPT <version>
//   shards <n>
//   window_width <w>
//   max_event_ts <ts>            # INT64_MIN = no event seen yet
//   sealed <s_0> ... <s_n-1>     # per-shard sealed_up_to (INT64_MIN = none)
//   fragment <shard> <epoch> <rows>   # shard -1 = assembler-pending
//   <slot> ... <slot> <v> <f> <0|1>   # one line per row
//   ...
//   end
//
// Forward compatibility: a reader rejects files whose version it does
// not know with Status::invalidArgument, never a partial load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/leaf_table.h"
#include "util/status.h"

namespace rap::io {

struct StreamCheckpoint {
  static constexpr std::int32_t kVersion = 1;
  /// Sentinel mirroring stream::WatermarkTracker::kNone (INT64_MIN).
  static constexpr std::int64_t kNone = INT64_MIN;

  std::int32_t version = kVersion;
  std::int32_t shards = 0;
  std::int64_t window_width = 0;
  std::int64_t max_event_ts = kNone;
  /// Per-shard sealed-up-to epoch; size must equal `shards`.
  std::vector<std::int64_t> shard_sealed_up_to;

  /// One buffered window fragment.  shard >= 0: rows a shard had
  /// bucketed but not yet contributed; shard == -1: rows already
  /// contributed to the assembler, pending the remaining shards' seals.
  struct Fragment {
    std::int32_t shard = -1;
    std::int64_t epoch = 0;
    std::vector<dataset::LeafRow> rows;
  };
  std::vector<Fragment> fragments;
};

/// Durable save through io::atomicReplaceFile (tmp file, fsync, rename,
/// directory fsync), so a crash at any point leaves either the previous
/// checkpoint or this one, never a truncated file.
util::Status saveStreamCheckpoint(const StreamCheckpoint& checkpoint,
                                  const std::string& path);

util::Result<StreamCheckpoint> loadStreamCheckpoint(const std::string& path);

}  // namespace rap::io
