#include "net/router.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "engine/metrics.h"
#include "engine/runtime_base.h"

namespace recnet {
namespace {

Update Ins(Tuple t) {
  bdd::Manager mgr;
  return Update::Insert(std::move(t), Prov::True(ProvMode::kSet, &mgr));
}

// Drains `router` one generation at a time, like the engine's superstep
// loop. Returns false when `max_messages` deliveries did not reach
// quiescence; the undelivered remainder is then discarded with AbortRun
// (the experiment's work budget).
bool DrainWithin(Router& router, uint64_t max_messages) {
  uint64_t done = 0;
  while (router.pending() > 0) {
    if (done >= max_messages) {
      router.AbortRun();
      return false;
    }
    done += router.ProcessGeneration(max_messages - done, /*parallel=*/false)
                .delivered;
  }
  return true;
}

// Installs a handler that visits every envelope of each delivered run.
void OnEach(Router& router, std::function<void(const Envelope&)> fn) {
  router.set_batch_handler([fn](const Envelope* envs, size_t n) {
    for (size_t i = 0; i < n; ++i) fn(envs[i]);
  });
}

void Ignore(Router& router) {
  router.set_batch_handler([](const Envelope*, size_t) {});
}

TEST(RouterTest, FifoDeliveryOrder) {
  Router router(4, 4);
  std::vector<int64_t> seen;
  OnEach(router, [&](const Envelope& env) {
    seen.push_back(env.update.tuple.IntAt(0));
  });
  for (int64_t i = 0; i < 5; ++i) {
    router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({i})));
  }
  EXPECT_TRUE(DrainWithin(router, 100));
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(RouterTest, HandlerMaySendMore) {
  Router router(4, 4);
  int delivered = 0;
  OnEach(router, [&](const Envelope& env) {
    ++delivered;
    if (env.update.tuple.IntAt(0) < 3) {
      router.Send(env.dst, (env.dst + 1) % 4, kPortFix,
                  Ins(Tuple::OfInts({env.update.tuple.IntAt(0) + 1})));
    }
  });
  router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({0})));
  EXPECT_TRUE(DrainWithin(router, 100));
  EXPECT_EQ(delivered, 4);
}

TEST(RouterTest, BudgetExhaustionReturnsFalse) {
  Router router(2, 2);
  OnEach(router, [&](const Envelope& env) {
    // Ping-pong forever.
    router.Send(env.dst, env.src, kPortFix, Ins(Tuple::OfInts({1})));
  });
  router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({1})));
  EXPECT_FALSE(DrainWithin(router, 50));
  EXPECT_GE(router.delivered(), 50u);
}

TEST(RouterTest, BudgetExhaustionDropsQueueAndRecordsAbort) {
  Router router(2, 2);
  OnEach(router, [&](const Envelope& env) {
    router.Send(env.dst, env.src, kPortFix, Ins(Tuple::OfInts({1})));
  });
  router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({1})));
  EXPECT_FALSE(DrainWithin(router, 50));
  // The aborted run is explicit: no stale queue survives that a later run
  // could silently resume from, and the abort is visible in the stats.
  EXPECT_EQ(router.pending(), 0u);
  EXPECT_EQ(router.stats().aborted_runs, 1u);
  EXPECT_GE(router.stats().dropped_messages, 1u);
}

TEST(RouterTest, AbortUnchargesTheDroppedQueue) {
  // Metrics of an aborted run reflect the traffic delivered up to the
  // cutoff: wire charges for messages dropped with the queue are reversed.
  Router router(2, 2);
  Ignore(router);
  for (int64_t i = 0; i < 5; ++i) {
    router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({i})));
  }
  EXPECT_EQ(router.stats().messages, 5u);
  uint64_t bytes_for_five = router.stats().bytes;
  EXPECT_FALSE(DrainWithin(router, 2));
  EXPECT_EQ(router.stats().messages, 2u);
  EXPECT_EQ(router.stats().insert_messages, 2u);
  EXPECT_EQ(router.stats().bytes, bytes_for_five / 5 * 2);
  EXPECT_EQ(router.stats().dropped_messages, 3u);
  EXPECT_EQ(router.stats().aborted_runs, 1u);
}

TEST(RouterTest, BatchRunsNeverMixPortsAndPreserveOrder) {
  // Same destination, alternating ports: runs must split at every port
  // change (handlers hoist per-port operator dispatch, so a mixed run would
  // be delivered to the wrong operator input).
  Router router(4, 4);
  std::vector<std::pair<int, int64_t>> order;  // (port, payload)
  std::vector<size_t> batch_sizes;
  router.set_batch_handler([&](const Envelope* envs, size_t n) {
    batch_sizes.push_back(n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(envs[i].dst, envs[0].dst);
      EXPECT_EQ(envs[i].port, envs[0].port);
      order.emplace_back(envs[i].port, envs[i].update.tuple.IntAt(0));
    }
  });
  router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({0})));
  router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({1})));
  router.Send(0, 1, kPortJoinBuild, Ins(Tuple::OfInts({2})));
  router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({3})));
  router.Send(0, 2, kPortFix, Ins(Tuple::OfInts({4})));
  EXPECT_TRUE(DrainWithin(router, 100));
  EXPECT_EQ(order, (std::vector<std::pair<int, int64_t>>{{kPortFix, 0},
                                                         {kPortFix, 1},
                                                         {kPortJoinBuild, 2},
                                                         {kPortFix, 3},
                                                         {kPortFix, 4}}));
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{2, 1, 1, 1}));
}

// One message as the FIFO model sees it.
struct Msg {
  LogicalNode src;
  LogicalNode dst;
  int port;
  int64_t payload;
  bool operator==(const Msg& o) const {
    return src == o.src && dst == o.dst && port == o.port &&
           payload == o.payload;
  }
};

// The sends a handler makes when `m` is delivered (each from m.dst). A
// reaction may keep state, so every run gets a fresh copy.
using Reaction = std::function<std::vector<Msg>(const Msg&)>;

// The delivery sequence of a single global FIFO queue: pop the oldest
// message, append the sends it causes. The test computes it itself.
std::vector<Msg> FifoOrder(const std::vector<Msg>& initial, Reaction react) {
  std::deque<Msg> queue(initial.begin(), initial.end());
  std::vector<Msg> order;
  while (!queue.empty()) {
    Msg m = queue.front();
    queue.pop_front();
    order.push_back(m);
    for (const Msg& sent : react(m)) queue.push_back(sent);
  }
  return order;
}

// The delivery sequence the router produces for the same workload, with
// the size of every batch it handed to the handler.
std::vector<Msg> RouterOrder(Router& router, const std::vector<Msg>& initial,
                             Reaction react, std::vector<size_t>* batches) {
  std::vector<Msg> seen;
  router.set_batch_handler([&](const Envelope* envs, size_t n) {
    batches->push_back(n);
    for (size_t i = 0; i < n; ++i) {
      // A run never mixes destinations or ports.
      EXPECT_EQ(envs[i].dst, envs[0].dst);
      EXPECT_EQ(envs[i].port, envs[0].port);
      Msg m{envs[i].src, envs[i].dst, envs[i].port,
            envs[i].update.tuple.IntAt(0)};
      seen.push_back(m);
      for (const Msg& sent : react(m)) {
        router.Send(sent.src, sent.dst, sent.port,
                    Ins(Tuple::OfInts({sent.payload})));
      }
    }
  });
  for (const Msg& m : initial) {
    router.Send(m.src, m.dst, m.port, Ins(Tuple::OfInts({m.payload})));
  }
  EXPECT_TRUE(DrainWithin(router, 100000));
  return seen;
}

TEST(RouterTest, PortBatchingDeliversFifoSendOrder) {
  // (dst, port)-batched delivery must be envelope-for-envelope the FIFO
  // send order, including sends a handler makes in the middle of a run.
  std::vector<Msg> initial;
  for (int64_t i = 0; i < 12; ++i) {
    initial.push_back(Msg{0, static_cast<LogicalNode>(i % 3 + 1),
                          i % 2 == 0 ? kPortFix : kPortAgg, i});
  }
  Reaction react = [](const Msg& m) {
    std::vector<Msg> sends;
    if (m.payload == 2) {
      sends.push_back(Msg{m.dst, (m.dst + 1) % 6, kPortKill, 100});
    }
    return sends;
  };
  Router router(6, 3);
  std::vector<size_t> batches;
  std::vector<Msg> seen = RouterOrder(router, initial, react, &batches);
  EXPECT_EQ(seen, FifoOrder(initial, react));
  EXPECT_EQ(router.delivered(), seen.size());
  EXPECT_EQ(router.stats().batches, batches.size());
}

TEST(RouterTest, BatchDeliveryCoalescesSameDestinationRuns) {
  Router router(4, 4);
  std::vector<size_t> batch_sizes;
  std::vector<int64_t> order;
  router.set_batch_handler([&](const Envelope* envs, size_t n) {
    batch_sizes.push_back(n);
    for (size_t i = 0; i < n; ++i) order.push_back(envs[i].update.tuple.IntAt(0));
  });
  // Three to node 1, then two to node 2, then one more to node 1.
  for (int64_t i = 0; i < 3; ++i) {
    router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({i})));
  }
  for (int64_t i = 3; i < 5; ++i) {
    router.Send(0, 2, kPortFix, Ins(Tuple::OfInts({i})));
  }
  router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({5})));
  EXPECT_TRUE(DrainWithin(router, 100));
  // FIFO order is preserved exactly; only the dispatch is coalesced.
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{3, 2, 1}));
  EXPECT_EQ(router.stats().batches, 3u);
}

TEST(RouterTest, SendBatchChargedLikeIndividualSends) {
  Router a(4, 2);
  Router b(4, 2);
  Ignore(a);
  Ignore(b);
  std::vector<Update> batch;
  for (int64_t i = 0; i < 4; ++i) {
    a.Send(0, 1, kPortFix, Ins(Tuple::OfInts({i})));
    batch.push_back(Ins(Tuple::OfInts({i})));
  }
  b.SendBatch(0, 1, kPortFix, std::move(batch));
  EXPECT_EQ(a.stats().messages, b.stats().messages);
  EXPECT_EQ(a.stats().bytes, b.stats().bytes);
  EXPECT_EQ(a.stats().insert_messages, b.stats().insert_messages);
  EXPECT_EQ(a.pending(), b.pending());
  EXPECT_TRUE(DrainWithin(a, 10));
  EXPECT_TRUE(DrainWithin(b, 10));
  EXPECT_EQ(a.delivered(), b.delivered());
}

TEST(RouterTest, LocalMessagesAreFreeOnTheWire) {
  // 4 logical nodes on 2 physical peers: 0,2 -> peer 0; 1,3 -> peer 1.
  Router router(4, 2);
  Ignore(router);
  router.Send(0, 2, kPortFix, Ins(Tuple::OfInts({1, 2})));  // Same peer.
  EXPECT_EQ(router.stats().messages, 0u);
  EXPECT_EQ(router.stats().local_messages, 1u);
  router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({1, 2})));  // Cross peer.
  EXPECT_EQ(router.stats().messages, 1u);
  EXPECT_GT(router.stats().bytes, 0u);
  EXPECT_TRUE(DrainWithin(router, 10));
}

TEST(RouterTest, StatsClassifyMessageTypes) {
  // The manager must outlive the router: delivered envelopes (and the BDD
  // handles inside their annotations) are retained in the router's FIFO
  // storage until the next refill or destruction. The engine guarantees
  // this ordering via Substrate; standalone senders must too.
  bdd::Manager mgr;
  Router router(2, 2);
  Ignore(router);
  router.Send(0, 1, kPortFix,
              Update::Insert(Tuple::OfInts({1}),
                             Prov::BaseVar(ProvMode::kAbsorption, &mgr, 3)));
  router.Send(0, 1, kPortFix, Update::Delete(Tuple::OfInts({1})));
  router.Send(0, 1, kPortKill, Update::Kill({3}));
  const NetworkStats& s = router.stats();
  EXPECT_EQ(s.insert_messages, 1u);
  EXPECT_EQ(s.delete_messages, 1u);
  EXPECT_EQ(s.kill_messages, 1u);
  EXPECT_EQ(s.prov_samples, 1u);
  EXPECT_GT(s.AvgProvBytesPerTuple(), 0.0);
  EXPECT_TRUE(DrainWithin(router, 10));
}

TEST(RouterTest, PerPeerBytesAttributedToSender) {
  Router router(4, 2);
  Ignore(router);
  router.Send(1, 2, kPortFix, Ins(Tuple::OfInts({1})));  // Peer 1 -> 0.
  EXPECT_EQ(router.stats().per_peer_bytes[0], 0u);
  EXPECT_GT(router.stats().per_peer_bytes[1], 0u);
  EXPECT_TRUE(DrainWithin(router, 10));
}

TEST(RouterTest, ResetClearsCounters) {
  Router router(2, 2);
  Ignore(router);
  router.Send(0, 1, kPortFix, Ins(Tuple::OfInts({1})));
  EXPECT_TRUE(DrainWithin(router, 10));
  router.ResetStats();
  EXPECT_EQ(router.stats().messages, 0u);
  EXPECT_EQ(router.stats().bytes, 0u);
}

// A recursive workload: every node forwards each origin it hears of for the
// first time to its successors i+1 (one port) and i+3 (another), like a
// reachability fixpoint. For every shard count the router must deliver the
// sequence a single FIFO queue would, and charge the same traffic.
TEST(RouterTest, BatchedRunDeliversFifoSendOrder) {
  constexpr int kNodes = 8;
  auto flood = [] {
    auto heard = std::make_shared<std::set<std::pair<LogicalNode, int64_t>>>();
    return Reaction([heard](const Msg& m) {
      std::vector<Msg> sends;
      if (!heard->emplace(m.dst, m.payload).second) return sends;
      sends.push_back(Msg{m.dst, (m.dst + 1) % kNodes, kPortFix, m.payload});
      sends.push_back(
          Msg{m.dst, (m.dst + 3) % kNodes, kPortJoinBuild, m.payload});
      return sends;
    });
  };
  // Two origins per node, sent back to back so the first generation holds
  // runs to coalesce.
  std::vector<Msg> initial;
  for (int n = 0; n < kNodes; ++n) {
    initial.push_back(Msg{n, (n + 1) % kNodes, kPortFix, n});
    initial.push_back(Msg{n, (n + 1) % kNodes, kPortFix, n + kNodes});
  }
  const std::vector<Msg> expected = FifoOrder(initial, flood());
  ASSERT_GT(expected.size(), initial.size());
  NetworkStats one_shard;
  for (int shards : {1, 2, 3}) {
    SCOPED_TRACE(shards);
    Router router(kNodes, 3, shards);
    std::vector<size_t> batches;
    EXPECT_EQ(RouterOrder(router, initial, flood(), &batches), expected);
    NetworkStats stats = router.stats();
    EXPECT_EQ(stats.batches, batches.size());
    EXPECT_LT(stats.batches, expected.size());  // Runs were coalesced.
    if (shards == 1) {
      one_shard = stats;
      continue;
    }
    EXPECT_EQ(stats.messages, one_shard.messages);
    EXPECT_EQ(stats.bytes, one_shard.bytes);
    EXPECT_EQ(stats.local_messages, one_shard.local_messages);
    EXPECT_EQ(stats.insert_messages, one_shard.insert_messages);
    EXPECT_EQ(stats.per_peer_bytes, one_shard.per_peer_bytes);
  }
}

TEST(MetricsTest, SimSecondsScalesWithPeers) {
  double few = EstimateSimSeconds(10.0, 1000, 2, 0.001);
  double many = EstimateSimSeconds(10.0, 1000, 10, 0.001);
  EXPECT_GT(few, many);
}

TEST(MetricsTest, ToStringMentionsBudget) {
  RunMetrics m;
  m.converged = false;
  EXPECT_NE(m.ToString().find("budget"), std::string::npos);
}

}  // namespace
}  // namespace recnet
