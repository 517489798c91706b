#include "persist/codec.h"

#include <memory>

namespace recnet {
namespace persist {

namespace {

// The remapped-ref space mirrors the in-memory tagging: a ref is
// (node id << 1) | complement, node id 0 is the single TRUE terminal, and
// internal node ids are table position + 1. So kTrue encodes to 0 and
// kFalse to 1, just like the live constants.
constexpr uint32_t kIdTerminalNode = 0;
constexpr uint32_t kIdBias = 1;

}  // namespace

BddEncoder::BddEncoder(const bdd::Manager* mgr)
    : mgr_(mgr), id_of_(mgr->allocated_nodes(), 0) {
  // Every encoded node is live, so the live count bounds the table: one
  // allocation, and pages past the final size are never touched.
  nodes_.reserve(mgr->live_nodes());
}

uint32_t BddEncoder::Encode(bdd::BddRef root) {
  const uint32_t root_node = root >> 1;
  const uint32_t root_c = root & 1u;
  if (root_node == kIdTerminalNode) return root;  // kTrue -> 0, kFalse -> 1.
  // Nodes interned since the last call may lie past the remap; every node
  // reachable from `root` lies below allocated_nodes().
  if (id_of_.size() < mgr_->allocated_nodes()) {
    id_of_.resize(mgr_->allocated_nodes(), 0);
  }
  if (id_of_[root_node] != 0) return (id_of_[root_node] << 1) | root_c;

  auto mapped = [this](bdd::BddRef n) -> uint32_t {
    const uint32_t node = n >> 1;
    const uint32_t id = node == kIdTerminalNode ? kIdTerminalNode
                                                : id_of_[node];
    RECNET_DCHECK(node == kIdTerminalNode || id != 0);
    return (id << 1) | (n & 1u);
  };

  // Iterative post-order over node indices (both polarities of a ref share
  // one table entry): a node is interned only after both children, so the
  // table is topologically ordered and a decoder never sees a forward
  // reference.
  stack_.clear();
  stack_.emplace_back(root_node, false);
  while (!stack_.empty()) {
    auto [n, expanded] = stack_.back();
    stack_.pop_back();
    if (n == kIdTerminalNode || id_of_[n] != 0) continue;
    const bdd::BddRef ref = n << 1;  // Regular ref for this node.
    if (expanded) {
      nodes_.push_back(EncodedNode{mgr_->var_of(ref),
                                   mapped(mgr_->low_of(ref)),
                                   mapped(mgr_->high_of(ref))});
      id_of_[n] = static_cast<uint32_t>(nodes_.size() - 1) + kIdBias;
    } else {
      stack_.emplace_back(n, true);
      stack_.emplace_back(mgr_->high_of(ref) >> 1, false);
      stack_.emplace_back(mgr_->low_of(ref) >> 1, false);
    }
  }
  return (id_of_[root_node] << 1) | root_c;
}

void BddEncoder::WriteNodeTable(Writer* w) const {
  w->U32(static_cast<uint32_t>(nodes_.size()));
  const ByteSpan table = node_table();
  w->Bytes(table.data, table.size);
}

BddDecoder::~BddDecoder() {
  for (bdd::BddRef ref : index_of_) mgr_->Deref(ref);
}

Status BddDecoder::ReadNodeTable(Reader* r) {
  uint32_t count = r->U32();
  if (!r->CanRead(static_cast<size_t>(count) * 12)) {
    return r->Check("bdd node table");
  }
  index_of_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t var = r->U32();
    uint32_t low = r->U32();
    uint32_t high = r->U32();
    // Children must precede their parent, and the variable must be a real
    // one (the terminal marker would trip the manager's invariants). A
    // child's node id is its ref shifted right by one.
    const bool dangling = (low >> 1) > i || (high >> 1) > i;
    if (dangling || var == ~uint32_t{0}) {
      r->Invalidate();
      break;
    }
    bdd::BddRef lo = Resolve(low, r);
    bdd::BddRef hi = Resolve(high, r);
    // MakeNodeForRestore re-derives the canonical polarity, so an entry
    // whose high edge carries a complement bit (only a corrupted payload
    // holds one) still interns to a canonical tagged ref.
    bdd::BddRef ref = mgr_->MakeNodeForRestore(var, lo, hi);
    mgr_->Ref(ref);
    index_of_.push_back(ref);
  }
  return r->Check("bdd node table");
}

bdd::BddRef BddDecoder::Resolve(uint32_t id, Reader* r) const {
  const uint32_t node = id >> 1;
  const uint32_t c = id & 1u;
  if (node == kIdTerminalNode) return c == 0 ? bdd::kTrue : bdd::kFalse;
  size_t slot = node - kIdBias;
  if (slot >= index_of_.size()) {
    r->Invalidate();
    return bdd::kFalse;
  }
  return index_of_[slot] ^ c;
}

void SnapshotWriter::PutValue(const Value& v) {
  if (v.is_int()) {
    out_->U8(0);
    out_->I64(v.AsInt());
  } else if (v.is_double()) {
    out_->U8(1);
    out_->F64(v.AsDouble());
  } else {
    out_->U8(2);
    out_->Str(v.AsString());
  }
}

void SnapshotWriter::PutTuple(const Tuple& t) {
  out_->U16(static_cast<uint16_t>(t.size()));
  for (size_t i = 0; i < t.size(); ++i) PutValue(t.at(i));
}

void SnapshotWriter::PutProv(const Prov& p) {
  out_->U8(static_cast<uint8_t>(p.mode()));
  switch (p.mode()) {
    case ProvMode::kSet:
      out_->Bool(!p.IsFalse());
      break;
    case ProvMode::kAbsorption:
      out_->U32(bdds_->Encode(p.bdd().index()));
      break;
    case ProvMode::kRelative: {
      const RelSop& rel = p.rel();
      out_->U32(static_cast<uint32_t>(rel.derivations.size()));
      for (const std::vector<bdd::Var>& d : rel.derivations) {
        out_->U32(static_cast<uint32_t>(d.size()));
        for (bdd::Var v : d) out_->U32(v);
      }
      break;
    }
  }
}

void SnapshotWriter::PutStats(const NetworkStats& s) {
  out_->U64(s.messages);
  out_->U64(s.bytes);
  out_->U64(s.local_messages);
  out_->U64(s.insert_messages);
  out_->U64(s.delete_messages);
  out_->U64(s.kill_messages);
  out_->U64(s.prov_bytes);
  out_->U64(s.prov_samples);
  out_->U64(s.batches);
  out_->U64(s.aborted_runs);
  out_->U64(s.dropped_messages);
  out_->U64(s.link_dropped);
  out_->U64(s.link_duplicated);
  out_->U64(s.link_retried);
  out_->U64(s.per_peer_bytes.size());
  for (uint64_t b : s.per_peer_bytes) out_->U64(b);
}

void SnapshotWriter::PutMetrics(const RunMetrics& m) {
  out_->F64(m.per_tuple_prov_bytes);
  out_->F64(m.comm_mb);
  out_->F64(m.state_mb);
  out_->F64(m.wall_seconds);
  out_->F64(m.sim_seconds);
  out_->U64(m.messages);
  out_->U64(m.kill_messages);
  out_->U64(m.batches);
  out_->U64(m.aborted_runs);
  out_->U64(m.dropped_messages);
  out_->U64(m.link_dropped);
  out_->U64(m.link_duplicated);
  out_->U64(m.link_retried);
  out_->U64(m.recoveries);
  out_->Bool(m.converged);
}

Value SnapshotReader::GetValue() {
  switch (in_->U8()) {
    case 0:
      return Value(in_->I64());
    case 1:
      return Value(in_->F64());
    case 2:
      return Value(in_->Str());
    default:
      in_->Invalidate();
      return Value();
  }
}

Tuple SnapshotReader::GetTuple() {
  uint16_t arity = in_->U16();
  if (!in_->CanRead(arity)) return Tuple();
  Tuple::Values values;
  values.reserve(arity);
  for (uint16_t i = 0; i < arity; ++i) values.push_back(GetValue());
  return Tuple(std::move(values));
}

Prov SnapshotReader::GetProv() {
  bdd::Manager* mgr = bdds_->manager();
  switch (in_->U8()) {
    case static_cast<uint8_t>(ProvMode::kSet):
      return in_->Bool() ? Prov::True(ProvMode::kSet, mgr)
                         : Prov::False(ProvMode::kSet, mgr);
    case static_cast<uint8_t>(ProvMode::kAbsorption): {
      bdd::BddRef ref = bdds_->Resolve(in_->U32(), in_);
      return Prov::FromBdd(bdd::Bdd(mgr, ref));
    }
    case static_cast<uint8_t>(ProvMode::kRelative): {
      uint32_t nderiv = in_->U32();
      if (!in_->CanRead(static_cast<size_t>(nderiv) * 4)) return Prov();
      auto rel = std::make_shared<RelSop>();
      rel->derivations.reserve(nderiv);
      for (uint32_t i = 0; i < nderiv; ++i) {
        uint32_t nvars = in_->U32();
        if (!in_->CanRead(static_cast<size_t>(nvars) * 4)) return Prov();
        std::vector<bdd::Var> d;
        d.reserve(nvars);
        for (uint32_t j = 0; j < nvars; ++j) d.push_back(in_->U32());
        rel->derivations.push_back(std::move(d));
      }
      return Prov::FromRel(std::move(rel));
    }
    default:
      in_->Invalidate();
      return Prov();
  }
}

NetworkStats SnapshotReader::GetStats() {
  NetworkStats s;
  s.messages = in_->U64();
  s.bytes = in_->U64();
  s.local_messages = in_->U64();
  s.insert_messages = in_->U64();
  s.delete_messages = in_->U64();
  s.kill_messages = in_->U64();
  s.prov_bytes = in_->U64();
  s.prov_samples = in_->U64();
  s.batches = in_->U64();
  s.aborted_runs = in_->U64();
  s.dropped_messages = in_->U64();
  s.link_dropped = in_->U64();
  s.link_duplicated = in_->U64();
  s.link_retried = in_->U64();
  uint64_t peers = in_->Count(8);
  s.per_peer_bytes.reserve(peers);
  for (uint64_t i = 0; i < peers; ++i) s.per_peer_bytes.push_back(in_->U64());
  return s;
}

RunMetrics SnapshotReader::GetMetrics() {
  RunMetrics m;
  m.per_tuple_prov_bytes = in_->F64();
  m.comm_mb = in_->F64();
  m.state_mb = in_->F64();
  m.wall_seconds = in_->F64();
  m.sim_seconds = in_->F64();
  m.messages = in_->U64();
  m.kill_messages = in_->U64();
  m.batches = in_->U64();
  m.aborted_runs = in_->U64();
  m.dropped_messages = in_->U64();
  m.link_dropped = in_->U64();
  m.link_duplicated = in_->U64();
  m.link_retried = in_->U64();
  m.recoveries = in_->U64();
  m.converged = in_->Bool();
  return m;
}

}  // namespace persist
}  // namespace recnet
