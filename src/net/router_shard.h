#ifndef RECNET_NET_ROUTER_SHARD_H_
#define RECNET_NET_ROUTER_SHARD_H_

#include <cstdint>
#include <vector>

#include "operators/update.h"

namespace recnet {

// Traffic accounting for one engine run. These counters back the paper's
// evaluation metrics: communication overhead (bytes of messages exchanged
// between *physical* peers), per-tuple provenance overhead (average
// annotation bytes on shipped insertions), and per-peer traffic (Figure 13
// reports per-node communication as physical peers vary).
//
// On a sharded router each shard keeps its own NetworkStats per namespace
// (charged at Send time by the shard owning the sending node, so workers
// never contend); Router::stats() sums them into the merged per-namespace
// view callers read.
struct NetworkStats {
  uint64_t messages = 0;        // Cross-physical messages.
  uint64_t bytes = 0;           // Cross-physical bytes.
  uint64_t local_messages = 0;  // Same-peer messages (free on the wire).
  uint64_t insert_messages = 0;
  uint64_t delete_messages = 0;
  uint64_t kill_messages = 0;
  uint64_t prov_bytes = 0;    // Annotation bytes on cross-physical inserts.
  uint64_t prov_samples = 0;  // Number of such inserts.
  // Delivery batches (runs of same-(dst, port) messages handed to the
  // handler in one call).
  uint64_t batches = 0;
  // Budget-exhaustion accounting: runs cut off before quiescence, and the
  // messages discarded from the queue when that happened. Non-zero exactly
  // when a figure cell is reported as "did not complete".
  uint64_t aborted_runs = 0;
  uint64_t dropped_messages = 0;
  // Lossy-link accounting (fault-injected runs only): shard-boundary
  // envelopes dropped at a superstep barrier, duplicated on delivery, and
  // successfully re-delivered after a drop. Charged to the sending node's
  // namespace like every other traffic counter.
  uint64_t link_dropped = 0;
  uint64_t link_duplicated = 0;
  uint64_t link_retried = 0;
  std::vector<uint64_t> per_peer_bytes;

  double AvgProvBytesPerTuple() const {
    return prov_samples == 0
               ? 0.0
               : static_cast<double>(prov_bytes) / prov_samples;
  }
  double CommMB() const { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

  void Reset();
  // Element-wise sum (used by the Router facade's merged-stats view).
  void Accumulate(const NetworkStats& o);
};

// A message in flight between two logical nodes.
//
// Ordering metadata: the sharded drain totally orders deliveries with global
// sequence numbers. `key_trig`/`key_sub` are stamped at Send time — the
// sequence number of the delivery that triggered this send (the global
// frontier for external sends) and the send's index within that delivery —
// and the superstep barrier merges all shard mailboxes by this key, which
// reconstructs the exact single-FIFO delivery order for any shard count.
// Once an envelope is merged into a generation, `key_trig` is overwritten
// with the envelope's *own* assigned sequence number (the key has served its
// purpose) and `key_sub` is dead.
struct Envelope {
  Envelope() = default;
  Envelope(LogicalNode s, LogicalNode d, int p, Update&& u)
      : src(s), dst(d), port(p), update(std::move(u)) {}

  LogicalNode src = 0;
  LogicalNode dst = 0;
  int port = 0;  // Which operator input at the destination.
  uint64_t key_trig = 0;
  uint32_t key_sub = 0;
  // Lossy-link mode: how many superstep barriers dropped this envelope so
  // far. A dropped envelope keeps its pre-merge ordering key, so a retry
  // sorts before newer traffic; at FaultPlan::max_drop_attempts it is
  // force-delivered (delivery is eventual). Occupies the padding hole after
  // key_sub, so the struct size is unchanged.
  uint32_t attempts = 0;
  Update update;
};

// One partition of the sharded simulated network. A RouterShard owns
// everything touched while its resident logical nodes (those with
// `node % num_shards == shard_id`) process messages:
//
//   * `queue`    — the shard's slice of the current generation (superstep),
//                  sorted by global delivery sequence number (stored in
//                  Envelope::key_trig after the merge). `head` is the next
//                  undelivered index.
//   * `mailboxes`— one outbox per destination shard, filled by this shard's
//                  handlers (and, between drains, by external senders whose
//                  source node resides here). Entries are appended in send
//                  order, which keeps each mailbox sorted by the envelope
//                  ordering key; the barrier merge relies on that invariant.
//   * `stats`    — per-port-namespace NetworkStats for traffic *sent from*
//                  this shard's nodes.
//
// `cur_trig` / `cur_sub` are the shard's send-ordering context: while the
// shard drains a delivery run, `cur_trig` is the global sequence number of
// the run's first envelope and `cur_sub` counts the sends made since, so
// every send is stamped with a key that totally orders the next generation
// across shards, independent of the shard count.
struct RouterShard {
  std::vector<Envelope> queue;
  size_t head = 0;
  std::vector<std::vector<Envelope>> mailboxes;  // Indexed by dest shard.
  std::vector<NetworkStats> stats;               // Indexed by namespace.
  uint64_t delivered = 0;
  // Deliveries broken down by the receiving port namespace (a delivery run
  // never mixes namespaces). Feeds the per-view budget arbitration of a
  // shared drain: each view is charged for the messages delivered *to* it,
  // not for whatever co-resident views processed.
  std::vector<uint64_t> delivered_by_ns;
  uint64_t cur_trig = 0;
  uint32_t cur_sub = 0;
  // Highest sequence number this shard has delivered (for re-syncing the
  // external send context after a drain).
  uint64_t last_seq = 0;
  // Recycled kill-list buffers scavenged from delivered kill envelopes
  // (the arena behind Update::Kill; see Router::AcquireKillBuffer).
  std::vector<std::vector<bdd::Var>> kill_pool;
  // Lossy-link mode: envelopes bound for THIS shard that a superstep
  // barrier dropped, still carrying their pre-merge ordering keys. They
  // re-enter the next barrier merge (via `retry_scratch`, so a repeat drop
  // cannot append to the buffer being merged) and therefore stay pending
  // until delivered.
  std::vector<Envelope> retry;
  std::vector<Envelope> retry_scratch;

  size_t queued() const { return queue.size() - head; }
  size_t outgoing() const {
    size_t n = 0;
    for (const std::vector<Envelope>& m : mailboxes) n += m.size();
    return n;
  }
};

}  // namespace recnet

#endif  // RECNET_NET_ROUTER_SHARD_H_
