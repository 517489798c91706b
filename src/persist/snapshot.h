#ifndef RECNET_PERSIST_SNAPSHOT_H_
#define RECNET_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "persist/wire.h"

namespace recnet {
namespace persist {

// Self-describing prefix of a session snapshot payload. Everything an
// inspector (tools/recnet_ckpt) reports lives here, so tooling can describe
// a checkpoint without linking the engine or decoding operator state.
struct SnapshotRelationInfo {
  std::string name;
  uint64_t arity = 0;
  bool dynamic = false;
  uint64_t live_facts = 0;
};

struct SnapshotViewInfo {
  std::string name;       // The view's head relation (plan name).
  std::string prov_mode;  // Human-readable ProvMode.
  uint64_t messages = 0;  // Cross-physical messages at checkpoint time.
};

struct SnapshotSummary {
  int32_t num_nodes = 0;      // Logical node-id space at checkpoint.
  int32_t num_physical = 0;   // Effective physical peer pool.
  int32_t shards = 1;         // Shard count of the checkpointing session.
  uint32_t bdd_nodes = 0;     // Serialized BDD unique-table size.
  std::vector<SnapshotRelationInfo> relations;
  std::vector<SnapshotViewInfo> views;
};

// Writes the summary at the current position. The session encodes its
// annotations before the summary, so `bdd_nodes` is already final.
void WriteSummary(Writer* w, const SnapshotSummary& s);

Status ReadSummary(Reader* r, SnapshotSummary* out);

// Tool entry point: validates the container (including the checksum when
// `verify` is set; otherwise just the header) and decodes the summary.
Status InspectSnapshot(const std::string& path, bool verify,
                       SnapshotHeader* header, SnapshotSummary* summary);

}  // namespace persist
}  // namespace recnet

#endif  // RECNET_PERSIST_SNAPSHOT_H_
