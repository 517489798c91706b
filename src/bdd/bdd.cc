#include "bdd/bdd.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/value.h"

namespace recnet {
namespace bdd {

__thread int Manager::tls_worker_ = 0;

uint64_t Manager::NodeHash(Var var, BddRef low, BddRef high) {
  return Mix64((static_cast<uint64_t>(low) << 32 | high) ^
               static_cast<uint64_t>(var) * 0xda942042e4dd58b5ULL);
}

Manager::Manager(const Options& options)
    : options_(options), gc_threshold_(options.gc_threshold) {
  RECNET_CHECK((options.cache_size & (options.cache_size - 1)) == 0);
  // The terminal is virtual: node 0 serves both constants (TRUE as ref 0,
  // FALSE as its complement, ref 1). It is permanently live, never stored,
  // never refcounted (Ref/Deref early-return), and never collected.
  // live_nodes_ counts it for continuity with the accounting the engine
  // reports.
  live_nodes_.store(1, std::memory_order_relaxed);
  workers_.push_back(std::make_unique<WorkerSlot>());
  worker0_ = workers_.front().get();
  // The unique-table buckets, segment spine, and op caches (several MB)
  // materialize lazily on the first node creation: set-semantics and
  // relative-mode engines construct a Manager per run and never build a
  // BDD node.
}

Manager::~Manager() {
  if (spine_ == nullptr) return;
  for (size_t i = 0; i < kMaxSegments; ++i) {
    delete spine_[i].load(std::memory_order_relaxed);
  }
}

void Manager::EnsureWorkerSlots(size_t n) {
  while (workers_.size() < n) {
    workers_.push_back(std::make_unique<WorkerSlot>());
  }
}

void Manager::set_concurrent(bool enabled) {
  // Toggled only between superstep barriers (no concurrent callers), but
  // the first MakeNode *after* the toggle may come from a worker thread:
  // materialize the lazily-built tables now so no worker races the
  // one-time setup.
  if (enabled && buckets_.empty()) EnsureTables();
  concurrent_ = enabled;
}

void Manager::EnsureTables() {
  // Pre-size the bucket array to the GC threshold: the node store grows to
  // at least that many entries before any collection, so starting smaller
  // only buys repeated rehashes of the whole table.
  size_t buckets = 1 << 12;
  while (buckets < options_.gc_threshold) buckets <<= 1;
  buckets_.assign(buckets, kNilNode);
  spine_ = std::make_unique<std::atomic<Segment*>[]>(kMaxSegments);
  for (size_t i = 0; i < kMaxSegments; ++i) {
    spine_[i].store(nullptr, std::memory_order_relaxed);
  }
}

void Manager::EnsureSegment(size_t seg) {
  RECNET_CHECK_LT(seg, kMaxSegments);
  if (spine_[seg].load(std::memory_order_acquire) != nullptr) return;
  // Double-checked under a dedicated spinlock: segment allocation is rare
  // (once per 2^16 nodes) and may race between stripes.
  while (seg_alloc_lock_.exchange(true, std::memory_order_acquire)) {
  }
  if (spine_[seg].load(std::memory_order_relaxed) == nullptr) {
    Segment* s = new Segment();
    s->nodes = std::make_unique<Node[]>(kSegSize);
    s->refs = std::make_unique<std::atomic<uint32_t>[]>(kSegSize);
    for (size_t i = 0; i < kSegSize; ++i) {
      s->refs[i].store(0, std::memory_order_relaxed);
    }
    spine_[seg].store(s, std::memory_order_release);
    if (seg == 0) {
      seg0_nodes_.store(s->nodes.get(), std::memory_order_release);
      seg0_refs_.store(s->refs.get(), std::memory_order_release);
    }
    segments_allocated_.fetch_add(1, std::memory_order_relaxed);
  }
  seg_alloc_lock_.store(false, std::memory_order_release);
}

// Marks n visited in the worker's current stamped traversal; returns true
// on first visit. Replaces per-traversal unordered_sets: one word-compare
// against a flat array, no allocation after warm-up.
bool Manager::VisitFirst(WorkerSlot& w, NodeIndex n) const {
  if (w.visit_stamp[n] == w.current_stamp) return false;
  w.visit_stamp[n] = w.current_stamp;
  return true;
}

void Manager::BeginTraversal(WorkerSlot& w) const {
  size_t allocated = next_index_.load(std::memory_order_relaxed);
  if (w.visit_stamp.size() < allocated) {
    // Cover the allocated segments exactly, instead of letting resize grow
    // the array geometrically past the store.
    const size_t capacity = std::max(
        allocated,
        segments_allocated_.load(std::memory_order_relaxed) * kSegSize);
    w.visit_stamp.reserve(capacity);
    w.visit_stamp.resize(capacity, 0);
  }
  if (++w.current_stamp == 0) {  // Stamp wrap: reset marks once per 2^32.
    std::fill(w.visit_stamp.begin(), w.visit_stamp.end(), 0);
    w.current_stamp = 1;
  }
  w.traverse_stack.clear();
}

bool Manager::CacheLookup(WorkerSlot& w, uint64_t key, BddRef* out) {
  ++w.cache_lookups;
  if (w.op_cache.empty()) return false;
  const CacheEntry& e = w.op_cache[Mix64(key) & (w.op_cache.size() - 1)];
  if (e.key == key) {
    ++w.cache_hits;
    *out = e.result;
    return true;
  }
  return false;
}

void Manager::CacheStore(WorkerSlot& w, uint64_t key, BddRef result) {
  if (w.op_cache.empty()) w.op_cache.assign(options_.cache_size, CacheEntry{});
  CacheEntry& e = w.op_cache[Mix64(key) & (w.op_cache.size() - 1)];
  e.key = key;
  e.result = result;
}

BddRef Manager::MakeNode(Var var, BddRef low, BddRef high) {
  if (low == high) return low;  // Reduction rule: redundant test.
  // Canonical polarity (regular then-edge): a complemented high cofactor is
  // factored out of the node — (var ? ¬h : ¬l) ≡ ¬(var ? h : l) — so each
  // function/negation pair shares one stored node and ref equality stays a
  // canonical-function test.
  const uint32_t flip = high & 1u;
  low ^= flip;
  high ^= flip;
  ++worker().unique_probes;
  if (buckets_.empty()) EnsureTables();
  uint64_t hash = NodeHash(var, low, high);
  Stripe& stripe = stripes_[hash & kStripeMask];
  // Buckets are a power of two ≥ the stripe count, so bucket ≡ stripe
  // (mod kStripeCount): each bucket is only ever touched under its own
  // stripe's lock, at any bucket-array size.
  const bool locked = concurrent_;
  if (locked) LockStripe(stripe);
  size_t bucket = hash & (buckets_.size() - 1);
  for (NodeIndex n = buckets_[bucket]; n != kNilNode; n = node_at(n).next) {
    const Node& node = node_at(n);
    if (node.var == var && node.low == low && node.high == high) {
      if (locked) UnlockStripe(stripe);
      return (n << 1) | flip;
    }
  }
  if (!locked && table_entries_.load(std::memory_order_relaxed) >=
                     buckets_.size()) {
    // Concurrent mode defers growth to CollectAtBarrier (chains just run
    // longer within the generation); sequential mode grows in place.
    GrowBuckets();
    bucket = hash & (buckets_.size() - 1);
  }
  NodeIndex idx = stripe.free_head;
  if (idx != kNilNode) {
    stripe.free_head = node_at(idx).next;
  } else {
    idx = next_index_.fetch_add(1, std::memory_order_relaxed);
    RECNET_CHECK_LT(idx, kMaxNodes);
    EnsureSegment(idx >> kSegBits);
  }
  node_at(idx) = Node{var, low, high, buckets_[bucket]};
  ref_at(idx).store(0, std::memory_order_relaxed);
  buckets_[bucket] = idx;
  table_entries_.fetch_add(1, std::memory_order_relaxed);
  live_nodes_.fetch_add(1, std::memory_order_relaxed);
  if (locked) UnlockStripe(stripe);
  return (idx << 1) | flip;
}

void Manager::GrowBuckets() {
  std::vector<NodeIndex> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, kNilNode);
  for (NodeIndex head : old) {
    for (NodeIndex n = head; n != kNilNode;) {
      Node& node = node_at(n);
      NodeIndex next = node.next;
      size_t bucket =
          NodeHash(node.var, node.low, node.high) & (buckets_.size() - 1);
      node.next = buckets_[bucket];
      buckets_[bucket] = n;
      n = next;
    }
  }
}

BddRef Manager::MakeVar(Var v) {
  RECNET_CHECK_NE(v, kTerminalVar);
  MaybeGc();
  return MakeNode(v, kFalse, kTrue);
}

BddRef Manager::MakeNodeForRestore(Var var, BddRef low, BddRef high) {
  RECNET_CHECK_NE(var, kTerminalVar);
  RECNET_CHECK_LT(low >> 1, next_index_.load(std::memory_order_relaxed));
  RECNET_CHECK_LT(high >> 1, next_index_.load(std::memory_order_relaxed));
  return MakeNode(var, low, high);
}

BddRef Manager::And(BddRef a, BddRef b) {
  MaybeGc();
  WorkerSlot& w = worker();
  if (!concurrent_) in_operation_ = true;
  BddRef r = ApplyAnd(a, b, w);
  if (!concurrent_) in_operation_ = false;
  return r;
}

BddRef Manager::Or(BddRef a, BddRef b) {
  // De Morgan over complement edges: a ∨ b = ¬(¬a ∧ ¬b). The negations are
  // bit flips, so Or shares the AND recursion *and its cache entries* —
  // a later ¬(a ∨ b) resolves to the identical cached AND result.
  MaybeGc();
  WorkerSlot& w = worker();
  if (!concurrent_) in_operation_ = true;
  BddRef r = Not(ApplyAnd(Not(a), Not(b), w));
  if (!concurrent_) in_operation_ = false;
  return r;
}

BddRef Manager::Diff(BddRef a, BddRef b) {
  // a ∧ ¬b with ¬b a tag flip: one AND pass, nothing materialized.
  MaybeGc();
  WorkerSlot& w = worker();
  if (!concurrent_) in_operation_ = true;
  BddRef r = ApplyAnd(a, Not(b), w);
  if (!concurrent_) in_operation_ = false;
  return r;
}

BddRef Manager::Restrict(BddRef f, Var v, bool value) {
  MaybeGc();
  WorkerSlot& w = worker();
  if (!concurrent_) in_operation_ = true;
  BddRef r = RestrictRec(f, v, value, w);
  if (!concurrent_) in_operation_ = false;
  return r;
}

BddRef Manager::RestrictAllFalse(BddRef f, const std::vector<Var>& vars) {
  // Pin each intermediate result across the next Restrict (which may GC).
  BddRef r = f;
  Ref(r);
  for (Var v : vars) {
    BddRef next = Restrict(r, v, false);
    Ref(next);
    Deref(r);
    r = next;
  }
  Deref(r);
  return r;
}

BddRef Manager::ApplyAnd(BddRef a, BddRef b, WorkerSlot& w) {
  // Terminal cases. a ∧ ¬a is the one complement-edge case a plain-node
  // manager never sees syntactically.
  if (a == kFalse || b == kFalse || a == Not(b)) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  // AND is commutative: normalize operand order for cache locality.
  if (a > b) std::swap(a, b);
  uint64_t key = CacheKey(Op::kAnd, a, b);
  BddRef cached;
  if (CacheLookup(w, key, &cached)) return cached;

  const Node& na = node_at(a >> 1);
  const Node& nb = node_at(b >> 1);
  // The complement bit distributes over cofactors: (¬f)|_{x=c} = ¬(f|_{x=c}).
  const uint32_t ca = a & 1u;
  const uint32_t cb = b & 1u;
  Var top = std::min(na.var, nb.var);
  BddRef a_lo = (na.var == top) ? (na.low ^ ca) : a;
  BddRef a_hi = (na.var == top) ? (na.high ^ ca) : a;
  BddRef b_lo = (nb.var == top) ? (nb.low ^ cb) : b;
  BddRef b_hi = (nb.var == top) ? (nb.high ^ cb) : b;

  BddRef lo = ApplyAnd(a_lo, b_lo, w);
  BddRef hi = ApplyAnd(a_hi, b_hi, w);
  BddRef r = MakeNode(top, lo, hi);
  CacheStore(w, key, r);
  return r;
}

BddRef Manager::RestrictRec(BddRef f, Var v, bool value, WorkerSlot& w) {
  // Factor the polarity out up front: restrict commutes with complement,
  // so the cache is keyed on the regular ref and one entry serves both
  // polarities of f.
  const uint32_t c = f & 1u;
  const BddRef g = f ^ c;
  if (IsTerminal(g)) return f;
  const Node& n = node_at(g >> 1);
  if (n.var > v) return f;  // Ordered: v cannot appear below.
  if (n.var == v) return (value ? n.high : n.low) ^ c;
  uint64_t key =
      CacheKey(Op::kRestrict, g,
               (static_cast<uint64_t>(v) << 1) | (value ? 1u : 0u));
  BddRef cached;
  if (CacheLookup(w, key, &cached)) return cached ^ c;
  BddRef lo = RestrictRec(n.low, v, value, w);
  BddRef hi = RestrictRec(n.high, v, value, w);
  BddRef r = MakeNode(n.var, lo, hi);
  CacheStore(w, key, r);
  return r ^ c;
}

size_t Manager::CountNodes(BddRef f) const {
  NodeIndex root = f >> 1;
  if (root == kTerminalNode) return 0;
  WorkerSlot& w = worker();
  // Wire-size accounting calls this once per shipped copy of an
  // annotation; memoize per root node — counts are polarity-independent,
  // so f and ¬f share the entry (entries die with the next GC, which is
  // when indices can be recycled).
  auto memo = w.count_memo.find(root);
  if (memo != w.count_memo.end()) return memo->second;
  BeginTraversal(w);
  w.traverse_stack.push_back(root);
  size_t count = 0;
  while (!w.traverse_stack.empty()) {
    NodeIndex n = w.traverse_stack.back();
    w.traverse_stack.pop_back();
    if (n == kTerminalNode || !VisitFirst(w, n)) continue;
    ++count;
    const Node& node = node_at(n);
    w.traverse_stack.push_back(node.low >> 1);
    w.traverse_stack.push_back(node.high >> 1);
  }
  w.count_memo.emplace(root, count);
  return count;
}

void Manager::Support(BddRef f, std::vector<Var>* vars) const {
  WorkerSlot& w = worker();
  size_t start = vars->size();
  BeginTraversal(w);
  w.traverse_stack.push_back(f >> 1);
  while (!w.traverse_stack.empty()) {
    NodeIndex n = w.traverse_stack.back();
    w.traverse_stack.pop_back();
    if (n == kTerminalNode || !VisitFirst(w, n)) continue;
    const Node& node = node_at(n);
    vars->push_back(node.var);
    w.traverse_stack.push_back(node.low >> 1);
    w.traverse_stack.push_back(node.high >> 1);
  }
  std::sort(vars->begin() + start, vars->end());
  vars->erase(std::unique(vars->begin() + start, vars->end()), vars->end());
}

bool Manager::DependsOn(BddRef f, Var v) const {
  WorkerSlot& w = worker();
  BeginTraversal(w);
  w.traverse_stack.push_back(f >> 1);
  while (!w.traverse_stack.empty()) {
    NodeIndex n = w.traverse_stack.back();
    w.traverse_stack.pop_back();
    if (n == kTerminalNode || !VisitFirst(w, n)) continue;
    const Node& node = node_at(n);
    if (node.var == v) return true;
    if (node.var > v) continue;  // Ordered: v cannot appear below.
    w.traverse_stack.push_back(node.low >> 1);
    w.traverse_stack.push_back(node.high >> 1);
  }
  return false;
}

bool Manager::AnyWitness(BddRef f,
                         std::vector<std::pair<Var, bool>>* assignment) const {
  assignment->clear();
  if (f == kFalse) return false;
  // Walk with the complement parity folded into the current ref. With
  // complement edges every internal node is non-constant, so any internal
  // child can still reach TRUE and the greedy descent cannot dead-end.
  BddRef r = f;
  while (!IsTerminal(r)) {
    const Node& node = node_at(r >> 1);
    const uint32_t c = r & 1u;
    BddRef hi = node.high ^ c;
    // Prefer the high branch (variable true) when it can reach TRUE; for
    // monotone provenance functions this yields a minimal witness of
    // present base tuples.
    if (hi != kFalse) {
      assignment->emplace_back(node.var, true);
      r = hi;
    } else {
      assignment->emplace_back(node.var, false);
      r = node.low ^ c;
    }
  }
  RECNET_CHECK_EQ(r, kTrue);
  return true;
}

bool Manager::Evaluate(BddRef f,
                       const std::unordered_map<Var, bool>& truth) const {
  BddRef r = f;
  while (!IsTerminal(r)) {
    const Node& node = node_at(r >> 1);
    auto it = truth.find(node.var);
    bool value = (it != truth.end()) && it->second;
    r = (value ? node.high : node.low) ^ (r & 1u);
  }
  return r == kTrue;
}

std::string Manager::ToDot(BddRef f) const {
  std::ostringstream os;
  os << "digraph bdd {\n";
  os << "  f [shape=none,label=\"f\"];\n  f -> n" << (f >> 1)
     << ((f & 1u) != 0 ? " [arrowhead=odot]" : "") << ";\n";
  os << "  n0 [shape=box,label=\"1\"];\n";
  std::unordered_set<NodeIndex> seen;
  std::vector<NodeIndex> stack{f >> 1};
  while (!stack.empty()) {
    NodeIndex n = stack.back();
    stack.pop_back();
    if (n == kTerminalNode || !seen.insert(n).second) continue;
    const Node& node = node_at(n);
    os << "  n" << n << " [label=\"x" << node.var << "\"];\n";
    // Complemented else-edges get the classic dot arrowhead; then-edges are
    // regular by canonicity.
    os << "  n" << n << " -> n" << (node.low >> 1) << " [style=dashed"
       << ((node.low & 1u) != 0 ? ",arrowhead=odot" : "") << "];\n";
    os << "  n" << n << " -> n" << (node.high >> 1) << ";\n";
    stack.push_back(node.low >> 1);
    stack.push_back(node.high >> 1);
  }
  os << "}\n";
  return os.str();
}

void Manager::MaybeGc() {
  if (in_operation_) return;
  // Concurrent mode: never collect from inside an operation. A sibling
  // worker may hold a just-computed ref it has not Ref'd yet (the gap
  // between e.g. And() returning and the Bdd handle construction), which a
  // collection would recycle under it. The engine instead calls
  // CollectAtBarrier() at superstep barriers, where workers are joined and
  // every live node is reachable from a Ref'd root.
  if (concurrent_) return;
  if (live_nodes_.load(std::memory_order_relaxed) < gc_threshold_) return;
  size_t freed = GarbageCollect();
  // If the collection recovered little, grow the threshold so we do not
  // thrash on workloads whose live set is genuinely large.
  if (freed * 4 < live_nodes_.load(std::memory_order_relaxed) + freed) {
    gc_threshold_ *= 2;
  }
}

void Manager::CollectAtBarrier() {
  // Bucket growth deferred by concurrent MakeNode: do it here, where no
  // workers are running.
  while (!buckets_.empty() &&
         table_entries_.load(std::memory_order_relaxed) >= buckets_.size()) {
    GrowBuckets();
  }
  if (live_nodes_.load(std::memory_order_relaxed) < gc_threshold_) return;
  size_t freed = GarbageCollect();
  if (freed * 4 < live_nodes_.load(std::memory_order_relaxed) + freed) {
    gc_threshold_ *= 2;
  }
}

size_t Manager::GarbageCollect() {
  ++gc_runs_;
  size_t allocated = next_index_.load(std::memory_order_relaxed);
  std::vector<bool> marked(allocated, false);
  std::vector<NodeIndex> stack;
  for (NodeIndex i = 1; i < allocated; ++i) {
    if (ref_at(i).load(std::memory_order_relaxed) > 0 && !marked[i]) {
      stack.push_back(i);
      marked[i] = true;
    }
  }
  while (!stack.empty()) {
    NodeIndex n = stack.back();
    stack.pop_back();
    const Node& node = node_at(n);
    for (NodeIndex child : {node.low >> 1, node.high >> 1}) {
      if (child != kTerminalNode && !marked[child]) {
        marked[child] = true;
        stack.push_back(child);
      }
    }
  }
  // Sweep: rebuild the unique table and the per-stripe free lists from the
  // mark bits in one linear pass (every unmarked slot is free, whether it
  // died now or was already on a free list). Free slots are distributed
  // round-robin over stripes so recycling stays lock-local. Pushing in
  // ascending index order means allocation pops each stripe's highest free
  // index first.
  size_t entries_before = table_entries_.load(std::memory_order_relaxed);
  std::fill(buckets_.begin(), buckets_.end(), kNilNode);
  for (Stripe& s : stripes_) s.free_head = kNilNode;
  size_t entries = 0;
  for (NodeIndex i = 1; i < allocated; ++i) {
    if (!marked[i]) {
      Stripe& s = stripes_[i & kStripeMask];
      node_at(i).next = s.free_head;
      s.free_head = i;
      continue;
    }
    Node& node = node_at(i);
    size_t bucket = NodeHash(node.var, node.low, node.high) &
                    (buckets_.size() - 1);
    node.next = buckets_[bucket];
    buckets_[bucket] = i;
    ++entries;
  }
  table_entries_.store(entries, std::memory_order_relaxed);
  size_t freed = entries_before - entries;
  live_nodes_.fetch_sub(freed, std::memory_order_relaxed);
  ClearCaches();
  return freed;
}

void Manager::ClearCaches() {
  // Node indices are recycled after a collection; cached results and
  // memoized counts keyed by index would go stale. Every worker's private
  // caches are cleared together (callers guarantee quiescence).
  for (const std::unique_ptr<WorkerSlot>& w : workers_) {
    std::fill(w->op_cache.begin(), w->op_cache.end(), CacheEntry{});
    w->count_memo.clear();
  }
}

uint64_t Manager::cache_hits() const {
  uint64_t total = 0;
  for (const std::unique_ptr<WorkerSlot>& w : workers_) {
    total += w->cache_hits;
  }
  return total;
}

uint64_t Manager::cache_lookups() const {
  uint64_t total = 0;
  for (const std::unique_ptr<WorkerSlot>& w : workers_) {
    total += w->cache_lookups;
  }
  return total;
}

uint64_t Manager::unique_probes() const {
  uint64_t total = 0;
  for (const std::unique_ptr<WorkerSlot>& w : workers_) {
    total += w->unique_probes;
  }
  return total;
}

uint64_t Manager::stripe_contention() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.contended.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace bdd
}  // namespace recnet
