#ifndef RECNET_ENGINE_RUNTIME_REGISTRY_H_
#define RECNET_ENGINE_RUNTIME_REGISTRY_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_table.h"
#include "common/status.h"
#include "common/value.h"
#include "datalog/planner.h"
#include "engine/runtime_base.h"
#include "engine/shortest_path_runtime.h"
#include "topology/sensor_grid.h"

namespace recnet {

class Session;

// Configuration of one compiled program (one view): the shared
// RuntimeOptions plus the deployment parameters a Datalog program cannot
// carry.
struct EngineOptions {
  RuntimeOptions runtime;
  // Initial number of network nodes for the graph-shaped plans (reachable /
  // shortest path). The node-id space is dynamic: facts mentioning unseen
  // node ids grow the topology, so 0 (start empty) is valid; negative is
  // not.
  int num_nodes = 0;
  // Aggregate-selection policy for the shortest-path runtime.
  AggSelPolicy aggsel = AggSelPolicy::kMulti;
  // Sensor deployment for region plans: defines the seed and proximity
  // EDBs. When unset, the deployment is derived from the program's ground
  // seed/near facts; InvalidArgument when neither is present.
  std::optional<SensorField> field;
};

// The uniform runtime interface every query shape is adapted onto: typed
// tuples in, Status / StatusOr out. Implementations wrap one of the
// distributed runtimes (ReachableRuntime, ShortestPathRuntime,
// RegionRuntime) and translate generic relation-name-keyed facts onto its
// native ingestion calls.
//
// View reads are served from materialized per-view caches: the first Scan
// of a view enumerates the runtime's partitions once (ScanView) and caches
// the rows (kept in sorted order); Lookup consults a lazily built flat hash
// index over the cached rows instead of a linear search.
//
// The caches maintain themselves incrementally: base-relation Insert /
// Delete only enqueue updates (view state cannot change before Apply), and
// Apply patches the cached rows and indexes from the run's view deltas —
// the runtime's log of tuples that entered or left the view — instead of
// rebuilding from scratch. Soft-state TTL expiry is an ordinary delete
// here. Dependent (aggregate) view caches re-derive lazily from the patched
// recursive rows, never from a runtime sweep. The only full-rebuild paths
// are aborted runs and adapters that opt out of delta reporting.
class QueryRuntime {
 public:
  virtual ~QueryRuntime() = default;

  // Enqueues an insertion / deletion of `fact` into the named base
  // relation. Updates propagate on the next Apply().
  Status Insert(const std::string& relation, const Tuple& fact);
  Status Delete(const std::string& relation, const Tuple& fact);

  // Runs the distributed dataflow to fixpoint. ResourceExhausted when the
  // message or time budget was exceeded before convergence. Equivalent to
  // PrepareApply + ApplyUpdates + FinishApply; a Session coordinating
  // several co-resident views calls the three phases itself so every view's
  // delta log is armed before the shared queue drains.
  Status Apply();

  // All tuples of the recursive view or of a declared aggregate view, in
  // deterministic (sorted) order. NotFound for unknown view names. Served
  // from the materialized cache after the first call.
  StatusOr<std::vector<Tuple>> Scan(const std::string& view) const;

  // First tuple of `view` whose leading columns equal `key` (the full tuple
  // for the recursive view, the group-by columns for an aggregate view).
  // Adapters may return auxiliary runtime-maintained columns beyond the
  // declared arity (the path runtime's vec / length attributes). The
  // default is a hash-index probe over the cached scan; adapters override
  // to surface native runtime state.
  virtual StatusOr<Tuple> Lookup(const std::string& view,
                                 const Tuple& key) const;

  // Provenance witness for a view tuple: one set of base facts that
  // supports it (absorption provenance only).
  virtual StatusOr<std::vector<Tuple>> Explain(const Tuple& view_tuple) const;

  virtual RunMetrics Metrics() const = 0;
  virtual void ResetMetrics() = 0;
  virtual bool converged() const = 0;
  virtual const RuntimeOptions& options() const = 0;

  // The wrapped distributed runtime, for session-level machinery that works
  // on the common runtime interface (checkpoint/restore walks each view's
  // RuntimeBase state). External factories may return nullptr; such views
  // cannot be checkpointed.
  virtual RuntimeBase* native_runtime() { return nullptr; }
  const RuntimeBase* native_runtime() const {
    return const_cast<QueryRuntime*>(this)->native_runtime();
  }

 protected:
  // --- Implementation interface (wrapped by the caching layer above) -------

  virtual Status InsertFact(const std::string& relation,
                            const Tuple& fact) = 0;
  virtual Status DeleteFact(const std::string& relation,
                            const Tuple& fact) = 0;
  virtual Status ApplyUpdates() = 0;
  // Enumerates `view` from runtime state (the expensive partition sweep the
  // cache amortizes away). Adapters must return rows in sorted order (all
  // runtimes enumerate sorted today); the cache keeps that invariant under
  // incremental patching.
  virtual StatusOr<std::vector<Tuple>> ScanView(
      const std::string& view) const = 0;

  // --- Incremental maintenance interface -----------------------------------

  // Name of the view whose cache the adapter can patch from run deltas
  // (the recursive view); empty disables incremental maintenance.
  virtual std::string IncrementalView() const { return std::string(); }
  // Arms / disarms the wrapped runtime's view-delta log. Called with true
  // right before ApplyUpdates whenever IncrementalView()'s cache is live.
  virtual void BeginViewDeltaLog(bool /*enabled*/) {}
  // Translates the armed run's delta log into exact rows removed from and
  // added to IncrementalView(). Returns false when the adapter cannot say
  // (the caching layer then falls back to full invalidation).
  virtual bool DrainViewDeltas(std::vector<Tuple>* removed,
                               std::vector<Tuple>* added) {
    (void)removed;
    (void)added;
    return false;
  }

  // Currently cached rows of `view` (nullptr when not materialized); lets
  // adapters diff run deltas against what readers have seen.
  const std::vector<Tuple>* CachedRows(const std::string& view) const;

  // Last-write-wins compression of a chronological membership log into
  // disjoint removed/added row sets (relative to the pre-run view).
  static void CompressDeltaLog(std::vector<std::pair<Tuple, bool>> log,
                               std::vector<Tuple>* removed,
                               std::vector<Tuple>* added);

  // For adapters whose native accessors mutate view state outside the
  // wrapped entry points, and for the TTL full-rebuild path.
  void InvalidateViewCaches() const { view_caches_.clear(); }

 private:
  friend class Session;

  // --- Session-coordinated Apply phases ------------------------------------
  //
  // One Apply over a shared substrate drains every co-resident view's
  // messages, so each view's cache maintenance must bracket the drain:
  // PrepareApply (arm the delta log while a cache is live) on every view
  // BEFORE the run, FinishApply (patch or invalidate) on every view after.

  void PrepareApply();
  Status FinishApply(Status run_status);

  struct ViewCache {
    // Sorted, deduplicated view rows (the Scan result).
    std::vector<Tuple> rows;
    // Lookup indexes, built lazily per probed key length: normalized key
    // prefix -> the first matching row in scan order. Patched in place by
    // ApplyRowDelta.
    std::unordered_map<size_t, FlatTable<Tuple, Tuple, TupleHash>> index;
  };

  // Returns the cache entry for `view`, materializing it via ScanView on
  // first use.
  StatusOr<ViewCache*> CacheFor(const std::string& view) const;

  // Patches `cache` (rows + live indexes) with the removed/added rows of
  // one Apply run.
  static void ApplyRowDelta(ViewCache* cache, std::vector<Tuple> removed,
                            std::vector<Tuple> added);

  mutable std::unordered_map<std::string, ViewCache> view_caches_;
  // Set by PrepareApply when the incremental view's cache is live (the
  // delta log is armed); consumed by FinishApply.
  bool patching_ = false;
};

// Evaluates a declared aggregate view over the scanned contents of the
// recursive view (group by group_cols, aggregate value_col). Results are
// sorted by group. Shared by the adapters; a runtime that maintains the
// aggregate distributedly (RegionRuntime) converges to the same answer.
std::vector<Tuple> EvalAggView(const datalog::AggViewSpec& spec,
                               const std::vector<Tuple>& view_tuples);

// Instantiates the runtime registered for `plan.kind` as a co-resident view
// of `session`: the runtime attaches to the session's substrate (shared
// router, BDD manager, node-id space) instead of building its own.
// InvalidArgument when `options` lacks the deployment parameters the plan
// needs.
StatusOr<std::unique_ptr<QueryRuntime>> InstantiateRuntime(
    const datalog::PlanSpec& plan, const EngineOptions& options,
    Session& session);

// Extension point: future query shapes register a factory for their
// PlanKind instead of forking a runtime. Factories receive the owning
// session and must attach their runtime to its substrate. Re-registering a
// kind replaces the builtin factory.
using RuntimeFactory = StatusOr<std::unique_ptr<QueryRuntime>> (*)(
    const datalog::PlanSpec& plan, const EngineOptions& options,
    Session& session);
void RegisterRuntimeFactory(datalog::PlanKind kind, RuntimeFactory factory);

}  // namespace recnet

#endif  // RECNET_ENGINE_RUNTIME_REGISTRY_H_
