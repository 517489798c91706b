#ifndef RECNET_BDD_BDD_H_
#define RECNET_BDD_BDD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace recnet {
namespace bdd {

// A reference to a BDD root: a node index shifted left by one, with the
// complement ("negated") bit in the low bit. Node index 0 is the single
// TRUE terminal, so the constant refs are kTrue = 0 and kFalse = ¬kTrue = 1.
// Refs are stable for live nodes across garbage collections.
using BddRef = uint32_t;

// Index of a node inside a Manager (a BddRef with the complement bit
// stripped and shifted out). Kept as a distinct alias because the unique
// table, refcounts, and GC operate on nodes, not refs.
using NodeIndex = uint32_t;

// A Boolean variable. In recnet each base tuple (a `link` or `isTriggered`
// fact) is assigned one variable; absorption provenance annotates every view
// tuple with a Boolean function over these variables (paper Section 4).
using Var = uint32_t;

inline constexpr BddRef kTrue = 0;
inline constexpr BddRef kFalse = 1;

// Reduced Ordered Binary Decision Diagram manager with complement edges
// (the Brace–Rudell–Bryant DAC'90 package design).
//
// This is a from-scratch replacement for the JavaBDD library the paper used:
// hash-consed unique table (so isomorphic subgraphs are shared and Boolean
// absorption `a ∧ (a ∨ b) ≡ a` happens automatically by canonicity),
// direct-mapped memoization caches for the apply operations, and external
// reference counting with mark-and-sweep garbage collection.
//
// Complement edges: every edge (and every external ref) may carry a
// complement bit, meaning "the function rooted here, negated". Canonicity
// is restored by the regular-then-edge rule — a stored node's high (then)
// edge is always regular; MakeNode factors a complemented then-edge out of
// the node and returns a complemented ref instead. Consequences:
//  - Not() is a one-bit XOR: no unique-table probe, no allocation, O(1).
//  - A function and its negation share every node, halving many stores.
//  - One AND recursion serves the whole algebra (Or by De Morgan over
//    complemented refs, Diff(a,b) = a ∧ ¬b by flipping b's bit), so the
//    op cache is polarity-aware by construction: computing ¬(a ∨ b) hits
//    the same cache entry as a ∨ b.
//
// The unique table is intrusive: each node carries the index of the next
// node in its hash bucket, so a MakeNode is one bucket probe with no
// per-entry allocation — the dominant cost of every provenance composition
// in an engine run.
//
// Threading (the concurrent manager):
//  - Node storage is a spine of append-only segments (2^16 nodes each).
//    Interning a node never moves existing nodes, so readers traverse
//    published BDDs without any lock while other workers intern.
//  - The unique table is partitioned into 2^6 lock stripes (stripe =
//    hash & 63, invariant under bucket growth, so every bucket belongs to
//    exactly one stripe). In concurrent mode MakeNode takes only its
//    stripe's spinlock; failed first acquisitions are counted in
//    stripe_contention() for observability.
//  - Ref/Deref — the per-envelope hot path, firing on every Prov handle
//    copy — are a single relaxed fetch_add/fetch_sub on a per-node atomic.
//    No lock, ever.
//  - Each worker thread owns a private direct-mapped op cache, count memo,
//    and traversal scratch (slot chosen by SetThreadWorkerSlot, wired from
//    the router shard id during parallel drains). Caches never contend and
//    are cleared together at barrier GC. Canonicity makes results
//    interleaving-independent: whichever worker interns a node first, every
//    equal Boolean function resolves to the same tagged ref, so semantic
//    outcomes (and wire-size accounting, which is per-BDD structure) do not
//    depend on the schedule — the shard_parity_test suite pins this.
//  - GC stays barrier-only in concurrent mode: set_concurrent(true)
//    suppresses automatic collection (a sibling worker may hold a
//    just-computed ref it has not Ref'd yet), and the engine calls
//    CollectAtBarrier() at superstep barriers where workers are joined.
//    Bucket-array growth is likewise deferred to the barrier; chains
//    simply run longer within a generation.
class Manager {
 public:
  struct Options {
    // GC is considered when the node store exceeds this many nodes; the
    // threshold doubles whenever a collection frees less than 25%.
    size_t gc_threshold = 1 << 17;
    // Size (entries, power of two) of each worker's direct-mapped
    // operation cache.
    size_t cache_size = 1 << 17;
  };

  Manager() : Manager(Options()) {}
  explicit Manager(const Options& options);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // Enters (or leaves) concurrent mode. While concurrent: MakeNode locks
  // its unique-table stripe, refcount updates are atomic RMWs, automatic GC
  // and bucket growth are deferred to CollectAtBarrier(). Must be toggled
  // only while no concurrent callers exist (worker threads are joined at
  // every superstep barrier). Enabling materializes the unique table and
  // segment spine so the first parallel MakeNode never races lazy setup.
  void set_concurrent(bool enabled);
  bool concurrent() const { return concurrent_; }

  // Grows the per-worker cache/scratch slot array to `n` slots (idempotent;
  // never shrinks). Call while quiescent, before workers run.
  void EnsureWorkerSlots(size_t n);
  size_t worker_slots() const { return workers_.size(); }

  // Binds the calling thread to per-worker slot `w` (clamped to the slots
  // that exist). The engine sets this to the router shard id while a shard
  // worker drains; external threads default to slot 0.
  static void SetThreadWorkerSlot(int w) { tls_worker_ = w; }
  static int thread_worker_slot() { return tls_worker_; }

  // --- Core algebra (all results are canonical tagged refs) ----------------

  BddRef False() const { return kFalse; }
  BddRef True() const { return kTrue; }

  // The single-variable function v.
  BddRef MakeVar(Var v);

  BddRef And(BddRef a, BddRef b);
  BddRef Or(BddRef a, BddRef b);
  // Complement-edge negation: flip the tag bit. No unique-table probe, no
  // allocation, no cache traffic — the unique_probes() and
  // allocated_nodes() counters are flat across any number of calls (the
  // micro-ops gate asserts this).
  BddRef Not(BddRef a) const { return a ^ 1u; }
  // a ∧ ¬b; the BDD `restrict`-style difference used when merging deltas
  // (Algorithm 1 line 19 computes deltaPv = newPv ∧ ¬oldPv). With
  // complement edges this is the AND recursion over a complemented b — the
  // negation is never materialized and the cache entry is shared with any
  // other AND touching the same (ref, ¬ref) pair.
  BddRef Diff(BddRef a, BddRef b);

  // f with variable v fixed to `value` (paper: "restrict"; deleting base
  // tuple p zeroes out its variable, Section 4).
  BddRef Restrict(BddRef f, Var v, bool value);

  // f with every variable in `vars` fixed to false.
  BddRef RestrictAllFalse(BddRef f, const std::vector<Var>& vars);

  // --- Inspection ----------------------------------------------------------

  // Both polarities of the terminal node: kTrue and kFalse.
  bool IsTerminal(BddRef n) const { return (n >> 1) == kTerminalNode; }

  // Number of internal (non-terminal) nodes reachable from f. Polarity-
  // independent: f and ¬f share their entire graph.
  size_t CountNodes(BddRef f) const;

  // Estimated wire size of f when shipped inside an update message. Each
  // internal node serializes to (var, low, high) ≈ 10 bytes plus an 8-byte
  // header. This backs the paper's per-tuple provenance overhead metric.
  size_t SerializedSizeBytes(BddRef f) const {
    return 8 + 10 * CountNodes(f);
  }

  // Appends (sorted, deduplicated) the variables f depends on.
  void Support(BddRef f, std::vector<Var>* vars) const;

  // True iff variable v is in the support of f.
  bool DependsOn(BddRef f, Var v) const;

  // If f is satisfiable, fills `assignment` with one satisfying partial
  // assignment (variables on the path to the TRUE terminal) and returns
  // true. Used for "why is this tuple in the view" diagnostics.
  bool AnyWitness(BddRef f,
                  std::vector<std::pair<Var, bool>>* assignment) const;

  // Evaluates f under `truth` (vars absent from the map default to false).
  bool Evaluate(BddRef f,
                const std::unordered_map<Var, bool>& truth) const;

  // Graphviz rendering of f, for debugging and docs. Complemented edges are
  // drawn with a dot arrowhead (the classic complement-edge notation);
  // there is a single terminal box labeled "1".
  std::string ToDot(BddRef f) const;

  // --- Reference counting & GC --------------------------------------------

  // Lock-free on every path: a relaxed atomic RMW in concurrent mode, a
  // plain load/store otherwise. The terminal is permanently live and skips
  // the counter entirely. Both polarities of a ref share one count (the
  // node is what GC keeps alive).
  void Ref(BddRef n) {
    NodeIndex idx = n >> 1;
    if (idx == kTerminalNode) return;
    RECNET_DCHECK(idx < next_index_.load(std::memory_order_relaxed));
    std::atomic<uint32_t>& rc = ref_at(idx);
    if (concurrent_) {
      rc.fetch_add(1, std::memory_order_relaxed);
    } else {
      rc.store(rc.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    }
  }
  void Deref(BddRef n) {
    NodeIndex idx = n >> 1;
    if (idx == kTerminalNode) return;
    RECNET_DCHECK(idx < next_index_.load(std::memory_order_relaxed));
    std::atomic<uint32_t>& rc = ref_at(idx);
    if (concurrent_) {
      rc.fetch_sub(1, std::memory_order_relaxed);
    } else {
      RECNET_DCHECK(rc.load(std::memory_order_relaxed) > 0);
      rc.store(rc.load(std::memory_order_relaxed) - 1,
               std::memory_order_relaxed);
    }
  }

  // Mark-and-sweep over externally referenced roots. Refs of live nodes
  // are preserved. Returns the number of nodes freed. Single-threaded
  // contexts only (in concurrent mode, only at a quiescent barrier).
  size_t GarbageCollect();

  // GC poll for concurrent mode, called by the engine at superstep barriers
  // (no workers running, so no un-Ref'd intermediates exist). Also performs
  // the bucket-array growth that MakeNode defers while concurrent.
  void CollectAtBarrier();

  size_t live_nodes() const {
    return live_nodes_.load(std::memory_order_relaxed);
  }
  size_t allocated_nodes() const {
    return next_index_.load(std::memory_order_relaxed);
  }
  uint64_t gc_runs() const { return gc_runs_; }
  // Aggregated over all worker op caches.
  uint64_t cache_hits() const;
  uint64_t cache_lookups() const;
  // Unique-table probes (MakeNode intern attempts past the trivial
  // reductions), aggregated over workers. Not() never moves this counter.
  uint64_t unique_probes() const;
  // Number of failed first acquisitions of unique-table stripe locks, over
  // all stripes: the direct measure of MakeNode contention.
  uint64_t stripe_contention() const;
  // Allocated node-store segments (each 2^16 node slots).
  size_t store_segments() const {
    return segments_allocated_.load(std::memory_order_relaxed);
  }

  Var var_of(BddRef n) const {
    return IsTerminal(n) ? kTerminalVar : node_at(n >> 1).var;
  }
  // Cofactors of the *function* n refers to: the complement bit distributes
  // over the stored node's edges (cofactor of ¬f is ¬(cofactor of f)).
  BddRef low_of(BddRef n) const {
    return IsTerminal(n) ? n : node_at(n >> 1).low ^ (n & 1u);
  }
  BddRef high_of(BddRef n) const {
    return IsTerminal(n) ? n : node_at(n >> 1).high ^ (n & 1u);
  }

  // Interns one node while decoding a snapshot (children must already be
  // interned; either may be complemented — the canonical polarity is
  // re-derived here, so any decoded table interns to canonical tagged
  // refs). Never triggers GC, so a decoder can hold freshly
  // interned, not-yet-referenced nodes across calls. The caller is
  // expected to Ref (e.g. via a Bdd handle) every returned root it wants
  // to keep.
  BddRef MakeNodeForRestore(Var var, BddRef low, BddRef high);

 private:
  struct Node {
    Var var;
    // Tagged child refs. Canonical polarity: `high` is always regular
    // (complement bit clear); `low` may carry a complement bit.
    BddRef low;
    BddRef high;
    // Intrusive unique-table chain (next node in the same hash bucket),
    // kNilNode-terminated. A free slot is in no chain, so the same field
    // links it into its stripe's free list instead. Only MakeNode (under
    // the stripe lock in concurrent mode), bucket growth and GC touch it.
    NodeIndex next;
  };

  // Node storage: fixed-capacity spine of lazily allocated segments. A
  // segment never moves once published, so concurrent readers index it
  // without synchronization beyond the acquire load of the spine pointer.
  static constexpr size_t kSegBits = 16;
  static constexpr size_t kSegSize = size_t{1} << kSegBits;
  static constexpr size_t kSegMask = kSegSize - 1;
  // Tagged refs (index << 1 | bit) must fit the CacheKey packing bound of
  // 2^30, so node indices stay below 2^29.
  static constexpr size_t kMaxNodes = size_t{1} << 29;
  static constexpr size_t kMaxSegments = kMaxNodes >> kSegBits;

  // Unique-table lock stripes. Stripe choice is hash & kStripeMask —
  // independent of the bucket count, so a bucket's stripe never changes
  // when the table grows. Each stripe also owns a share of the free list,
  // so post-GC recycling needs no extra lock.
  static constexpr size_t kStripeCount = 64;
  static constexpr size_t kStripeMask = kStripeCount - 1;

  struct Segment {
    std::unique_ptr<Node[]> nodes;
    std::unique_ptr<std::atomic<uint32_t>[]> refs;
  };

  struct alignas(64) Stripe {
    std::atomic<bool> locked{false};
    std::atomic<uint64_t> contended{0};
    // Newest free slot (kNilNode when none): a LIFO stack threaded through
    // the free slots' Node::next.
    NodeIndex free_head = kNilNode;
  };

  struct CacheEntry {
    uint64_t key = ~0ULL;
    BddRef result = 0;
  };

  // Per-worker private state: direct-mapped op cache, count memo, and the
  // stamped traversal scratch. Indexed by the thread's worker slot.
  struct WorkerSlot {
    std::vector<CacheEntry> op_cache;
    std::unordered_map<NodeIndex, size_t> count_memo;
    std::vector<uint32_t> visit_stamp;
    uint32_t current_stamp = 0;
    std::vector<NodeIndex> traverse_stack;
    uint64_t cache_hits = 0;
    uint64_t cache_lookups = 0;
    uint64_t unique_probes = 0;
  };

  // With complement edges one AND recursion serves And/Or/Diff (all three
  // are ANDs over possibly-complemented refs), so only two ops key the
  // cache.
  enum class Op : uint8_t { kAnd = 0, kRestrict = 1 };
  static constexpr Var kTerminalVar = ~Var{0};
  // The single terminal: node index 0 represents TRUE (ref 0) and, through
  // its complemented ref 1, FALSE. It is virtual — never stored, never
  // refcounted, never collected — so index 0 doubles as the unique-table
  // nil sentinel.
  static constexpr NodeIndex kTerminalNode = 0;
  static constexpr NodeIndex kNilNode = 0;

  static uint64_t NodeHash(Var var, BddRef low, BddRef high);

  // Segment 0 backs every index below 2^16 — the entire store for all but
  // the largest workloads — so its base pointers are cached flat to keep
  // the recursion's per-node cost at one predictable branch plus one
  // indexed load (the spine's double indirection is the cold path).
  // Relaxed reads suffice: the cache is written (under seg_alloc_lock_)
  // before any index into segment 0 exists, and every cross-thread path
  // that hands over an index carries an acquire/release edge.
  Node& node_at(NodeIndex n) const {
    if (n < kSegSize) return seg0_nodes_.load(std::memory_order_relaxed)[n];
    return spine_[n >> kSegBits].load(std::memory_order_acquire)
        ->nodes[n & kSegMask];
  }
  std::atomic<uint32_t>& ref_at(NodeIndex n) const {
    if (n < kSegSize) return seg0_refs_.load(std::memory_order_relaxed)[n];
    return spine_[n >> kSegBits].load(std::memory_order_acquire)
        ->refs[n & kSegMask];
  }

  WorkerSlot& worker() const {
    size_t w = static_cast<size_t>(tls_worker_);
    if (w == 0) return *worker0_;  // Sequential mode and external callers.
    return *workers_[w < workers_.size() ? w : 0];
  }

  void LockStripe(Stripe& s) {
    if (!s.locked.exchange(true, std::memory_order_acquire)) return;
    s.contended.fetch_add(1, std::memory_order_relaxed);
    do {
      while (s.locked.load(std::memory_order_relaxed)) {
      }
    } while (s.locked.exchange(true, std::memory_order_acquire));
  }
  void UnlockStripe(Stripe& s) {
    s.locked.store(false, std::memory_order_release);
  }

  // Stamped visited-marking for the const traversals (CountNodes, Support,
  // DependsOn), per worker slot: one stamp array reused across calls
  // instead of a fresh unordered_set per call. Operates on node indices
  // (complement bits stripped). Not reentrant; traversals do not nest
  // within a worker.
  void BeginTraversal(WorkerSlot& w) const;
  bool VisitFirst(WorkerSlot& w, NodeIndex n) const;

  // Materializes the unique-table buckets and the segment spine (first node
  // only).
  void EnsureTables();
  void EnsureSegment(size_t seg);
  BddRef MakeNode(Var var, BddRef low, BddRef high);
  void GrowBuckets();
  // The single apply recursion: a ∧ b over tagged refs. Or and Diff are
  // expressed through it by complementing operands/results, which is what
  // makes the op cache polarity-aware.
  BddRef ApplyAnd(BddRef a, BddRef b, WorkerSlot& w);
  BddRef RestrictRec(BddRef f, Var v, bool value, WorkerSlot& w);
  void MaybeGc();
  void ClearCaches();

  // Injective packing (tagged refs stay below 2^30 because node indices
  // stay below 2^29): op in the top bits, a and b in disjoint 30-bit
  // fields. The direct-mapped cache hashes this key with a full 64-bit mix
  // so entries spread across all slots.
  uint64_t CacheKey(Op op, BddRef a, uint64_t b) const {
    RECNET_DCHECK(b < (1ULL << 30));
    RECNET_DCHECK(a < (1U << 30));
    return (static_cast<uint64_t>(op) << 60) |
           (static_cast<uint64_t>(a) << 30) | b;
  }
  bool CacheLookup(WorkerSlot& w, uint64_t key, BddRef* out);
  void CacheStore(WorkerSlot& w, uint64_t key, BddRef result);

  // __thread (not thread_local): constant init is part of the declaration,
  // so every TU compiles direct TLS loads. A plain thread_local member
  // routes cross-TU accesses through the compiler's TLS init wrapper —
  // which misresolves in freshly spawned threads under sanitizers — and a
  // function-local static would pay a __tls_get_addr call per access.
  static __thread int tls_worker_;

  Options options_;
  bool concurrent_ = false;

  // Node store spine (lazily allocated, fixed capacity so the array itself
  // never moves under concurrent readers).
  mutable std::unique_ptr<std::atomic<Segment*>[]> spine_;
  // Flat base pointers of segment 0 (see node_at): written once when the
  // segment allocates, read relaxed on the hot path.
  mutable std::atomic<Node*> seg0_nodes_{nullptr};
  mutable std::atomic<std::atomic<uint32_t>*> seg0_refs_{nullptr};
  std::atomic<size_t> segments_allocated_{0};
  std::atomic<bool> seg_alloc_lock_{false};
  std::atomic<NodeIndex> next_index_{1};

  // Unique-table buckets (power-of-two length): head node index per bucket,
  // chained through Node::next. Grown only while single-threaded.
  std::vector<NodeIndex> buckets_;
  std::array<Stripe, kStripeCount> stripes_;
  std::atomic<size_t> table_entries_{0};
  std::atomic<size_t> live_nodes_{0};

  mutable std::vector<std::unique_ptr<WorkerSlot>> workers_;
  // workers_[0], pre-resolved: slot 0 serves sequential mode and external
  // threads, so the common worker() call skips the vector walk entirely.
  // workers_ only ever appends (EnsureWorkerSlots), so the pointer is
  // stable for the manager's lifetime.
  WorkerSlot* worker0_ = nullptr;

  size_t gc_threshold_ = 0;
  bool in_operation_ = false;  // Guards against GC mid-recursion.
  uint64_t gc_runs_ = 0;
};

// RAII handle to a BDD root. Copying increments the external reference
// count; destruction decrements it, making roots eligible for GC.
class Bdd {
 public:
  Bdd() : mgr_(nullptr), idx_(kFalse) {}
  Bdd(Manager* mgr, BddRef idx) : mgr_(mgr), idx_(idx) {
    if (mgr_ != nullptr) mgr_->Ref(idx_);
  }
  Bdd(const Bdd& o) : mgr_(o.mgr_), idx_(o.idx_) {
    if (mgr_ != nullptr) mgr_->Ref(idx_);
  }
  Bdd(Bdd&& o) noexcept : mgr_(o.mgr_), idx_(o.idx_) { o.mgr_ = nullptr; }
  Bdd& operator=(const Bdd& o) {
    if (this == &o) return *this;
    Bdd tmp(o);
    std::swap(mgr_, tmp.mgr_);
    std::swap(idx_, tmp.idx_);
    return *this;
  }
  Bdd& operator=(Bdd&& o) noexcept {
    std::swap(mgr_, o.mgr_);
    std::swap(idx_, o.idx_);
    return *this;
  }
  ~Bdd() {
    if (mgr_ != nullptr) mgr_->Deref(idx_);
  }

  bool is_null() const { return mgr_ == nullptr; }
  bool IsFalse() const { return idx_ == kFalse; }
  bool IsTrue() const { return idx_ == kTrue; }
  BddRef index() const { return idx_; }
  Manager* manager() const { return mgr_; }

  Bdd And(const Bdd& o) const {
    RECNET_DCHECK(mgr_ == o.mgr_);
    return Bdd(mgr_, mgr_->And(idx_, o.idx_));
  }
  Bdd Or(const Bdd& o) const {
    RECNET_DCHECK(mgr_ == o.mgr_);
    return Bdd(mgr_, mgr_->Or(idx_, o.idx_));
  }
  Bdd Not() const { return Bdd(mgr_, mgr_->Not(idx_)); }
  Bdd Diff(const Bdd& o) const {
    RECNET_DCHECK(mgr_ == o.mgr_);
    return Bdd(mgr_, mgr_->Diff(idx_, o.idx_));
  }
  Bdd Restrict(Var v, bool value) const {
    return Bdd(mgr_, mgr_->Restrict(idx_, v, value));
  }
  Bdd RestrictAllFalse(const std::vector<Var>& vars) const {
    return Bdd(mgr_, mgr_->RestrictAllFalse(idx_, vars));
  }

  size_t CountNodes() const { return mgr_->CountNodes(idx_); }
  size_t SerializedSizeBytes() const {
    return mgr_ == nullptr ? 8 : mgr_->SerializedSizeBytes(idx_);
  }

  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.mgr_ == b.mgr_ && a.idx_ == b.idx_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) { return !(a == b); }

 private:
  Manager* mgr_;
  BddRef idx_;
};

}  // namespace bdd
}  // namespace recnet

#endif  // RECNET_BDD_BDD_H_
