#include "persist/snapshot.h"

namespace recnet {
namespace persist {

void WriteSummary(Writer* w, const SnapshotSummary& s) {
  w->I32(s.num_nodes);
  w->I32(s.num_physical);
  // Retired byte, kept so the v3 layout stays byte-for-byte: it held the
  // former batch_delivery switch. Written as 1 and ignored on read.
  w->Bool(true);
  w->I32(s.shards);
  w->U32(s.bdd_nodes);
  w->U32(static_cast<uint32_t>(s.relations.size()));
  for (const SnapshotRelationInfo& r : s.relations) {
    w->Str(r.name);
    w->U64(r.arity);
    w->Bool(r.dynamic);
    w->U64(r.live_facts);
  }
  w->U32(static_cast<uint32_t>(s.views.size()));
  for (const SnapshotViewInfo& v : s.views) {
    w->Str(v.name);
    w->Str(v.prov_mode);
    w->U64(v.messages);
  }
}

Status ReadSummary(Reader* r, SnapshotSummary* out) {
  out->num_nodes = r->I32();
  out->num_physical = r->I32();
  r->Bool();  // Retired byte (see WriteSummary).
  out->shards = r->I32();
  out->bdd_nodes = r->U32();
  uint32_t nrel = r->U32();
  if (!r->CanRead(nrel)) return r->Check("summary relations");
  out->relations.clear();
  out->relations.reserve(nrel);
  for (uint32_t i = 0; i < nrel; ++i) {
    SnapshotRelationInfo info;
    info.name = r->Str();
    info.arity = r->U64();
    info.dynamic = r->Bool();
    info.live_facts = r->U64();
    out->relations.push_back(std::move(info));
  }
  uint32_t nviews = r->U32();
  if (!r->CanRead(nviews)) return r->Check("summary views");
  out->views.clear();
  out->views.reserve(nviews);
  for (uint32_t i = 0; i < nviews; ++i) {
    SnapshotViewInfo info;
    info.name = r->Str();
    info.prov_mode = r->Str();
    info.messages = r->U64();
    out->views.push_back(std::move(info));
  }
  return r->Check("summary");
}

Status InspectSnapshot(const std::string& path, bool verify,
                       SnapshotHeader* header, SnapshotSummary* summary) {
  std::vector<uint8_t> payload;
  RECNET_RETURN_IF_ERROR(
      ReadSnapshotPayload(path, &payload, header, /*verify_checksum=*/verify));
  Reader r(payload);
  return ReadSummary(&r, summary);
}

}  // namespace persist
}  // namespace recnet
