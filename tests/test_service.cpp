// Tests for the concurrent batch-synthesis service (src/svc/): thread pool
// and executor task-group semantics, cooperative cancellation, the
// canonical-key LRU result cache, portfolio racing, and parity between
// pooled and sequential synthesis.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "sched/list_scheduler.hpp"
#include "svc/service.hpp"
#include "svc/task_group.hpp"
#include "util/cancel.hpp"

namespace fsyn {
namespace {

using namespace std::chrono_literals;

// ---- thread pool ----

TEST(ThreadPool, RunsEveryTask) {
  svc::ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.submit([&done] { done.fetch_add(1); }));
  }
  pool.shutdown();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, RejectPolicyBouncesWhenFull) {
  svc::ThreadPool pool(1, /*queue_capacity=*/1, svc::OverflowPolicy::kReject);
  std::atomic<bool> release{false};
  // Occupy the single worker, then fill the single queue slot.
  ASSERT_TRUE(pool.submit([&release] {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  }));
  // The worker may not have dequeued yet; poll until the blocker runs and
  // one task sits in the queue.
  bool queued = false;
  for (int attempt = 0; attempt < 2000 && !queued; ++attempt) {
    if (pool.queue_depth() == 0) {
      queued = pool.submit([] {});
    } else {
      queued = true;
    }
    if (!queued) std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(queued);
  // Queue full + busy worker: the next submission must bounce.
  EXPECT_FALSE(pool.submit([] {}));
  release.store(true);
  pool.shutdown();
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    svc::ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(1ms);
        done.fetch_add(1);
      });
    }
  }  // destructor = shutdown
  EXPECT_EQ(done.load(), 20);
}

// ---- executor task groups ----

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

TEST(TaskGroup, WaitRunsUnstartedTasksWhileHelpersAreBlocked) {
  // One blocker per executor helper (hardware threads - 1) parks on a latch
  // that only this thread releases, after wait() returned: the group below
  // must complete on this thread alone.
  const int helpers = hardware_threads() - 1;
  std::latch parked(helpers);
  std::latch release(1);
  svc::TaskGroup blockers;
  for (int i = 0; i < helpers; ++i) {
    blockers.run([&] {
      parked.count_down();
      release.wait();
    });
  }
  // Every helper holds a blocker once they have all started; a blocker this
  // thread would run itself would never return, so wait for the helpers.
  parked.wait();

  std::atomic<int> done{0};
  svc::TaskGroup group;
  for (int i = 0; i < 8; ++i) group.run([&done] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 8);

  release.count_down();
  blockers.wait();
}

/// Runs a group of `width` tasks, each of which runs the next level down,
/// `depth` levels deep; returns the number of leaf tasks that ran.
int nested(int depth, int width) {
  if (depth == 0) return 1;
  std::atomic<int> leaves{0};
  svc::TaskGroup group;
  for (int i = 0; i < width; ++i) {
    group.run([&] { leaves.fetch_add(nested(depth - 1, width)); });
  }
  group.wait();
  return leaves.load();
}

TEST(TaskGroup, GroupsNestedDeeperThanTheHelperCountComplete) {
  // Every level waits on the next, so a join that blocked on tasks no
  // helper had started would deadlock once the levels outnumber helpers.
  const int depth = hardware_threads() + 2;
  EXPECT_EQ(nested(depth, 2), 1 << depth);
}

TEST(TaskGroup, WaitRethrowsTheFirstException) {
  std::atomic<int> ran{0};
  svc::TaskGroup group;
  for (int i = 0; i < 6; ++i) {
    group.run([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) throw std::runtime_error("task 3 failed");
    });
  }
  try {
    group.wait();
    ADD_FAILURE() << "wait() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 failed");
  }
  // The other tasks still ran: one failure does not cancel the group.
  EXPECT_EQ(ran.load(), 6);
}

TEST(TaskGroup, TasksCarryTheCallersTraceContext) {
  const obs::TraceContext context = obs::make_trace_context();
  std::vector<obs::TraceContext> seen(4);
  {
    obs::TraceContextScope scope(context);
    svc::TaskGroup group;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      group.run([&seen, i] { seen[i] = obs::current_trace(); });
    }
    group.wait();
  }
  for (const obs::TraceContext& trace : seen) EXPECT_EQ(trace, context);
  EXPECT_FALSE(obs::current_trace().valid());
}

// ---- cancellation primitives ----

TEST(CancelToken, InertTokenNeverFires) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check("inert"));
}

TEST(CancelToken, ExplicitCancelAndDeadline) {
  CancelSource source;
  const CancelToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  source.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check("loop"), CancelledError);

  CancelSource timed;
  timed.set_deadline_after(-1ms);  // already past
  EXPECT_TRUE(timed.token().cancelled());
}

TEST(CancelToken, ChainedSourceSeesParent) {
  CancelSource parent;
  CancelSource child(parent.token());
  EXPECT_FALSE(child.token().cancelled());
  parent.cancel();
  EXPECT_TRUE(child.token().cancelled());
  // And the reverse does not hold: cancelling a child leaves the parent.
  CancelSource other(parent.token());
  EXPECT_TRUE(other.token().cancelled());  // parent already fired
  CancelSource fresh_parent;
  CancelSource fresh_child(fresh_parent.token());
  fresh_child.cancel();
  EXPECT_FALSE(fresh_parent.token().cancelled());
}

// ---- service jobs ----

svc::JobSpec small_job(std::uint64_t seed = 2015) {
  svc::JobSpec spec;
  spec.graph = assay::make_benchmark("pcr");
  spec.name = "pcr";
  spec.asap = true;
  spec.options.grid_size = 10;  // fixed chip: no sweep, fast and focused
  spec.options.heuristic.seed = seed;
  return spec;
}

TEST(BatchService, DeadlineCancelsInsteadOfSolving) {
  svc::BatchService::Config config;
  config.workers = 1;
  svc::BatchService service(config);

  svc::JobSpec spec;
  spec.graph = assay::make_benchmark("exponential_dilution");  // minutes if run fully
  spec.name = "exponential_dilution";
  spec.deadline = std::chrono::milliseconds(1);

  const auto started = std::chrono::steady_clock::now();
  const svc::JobResult result = service.submit(std::move(spec)).get();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

  EXPECT_EQ(result.status, svc::JobStatus::kCancelled);
  EXPECT_EQ(result.result, nullptr);
  EXPECT_FALSE(result.error.empty());
  // Orders of magnitude below a full solve; generous bound for slow CI.
  EXPECT_LT(elapsed, 10.0);
  EXPECT_EQ(service.metrics().jobs_cancelled, 1);
}

TEST(BatchService, CacheHitIsBitIdenticalAndSkipsMappers) {
  svc::BatchService service;

  const svc::JobResult first = service.submit(small_job()).get();
  ASSERT_EQ(first.status, svc::JobStatus::kDone);
  EXPECT_FALSE(first.cache_hit);
  const long mapper_runs = service.metrics().mapper_invocations;
  EXPECT_GE(mapper_runs, 1);

  const svc::JobResult second = service.submit(small_job()).get();
  ASSERT_EQ(second.status, svc::JobStatus::kDone);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.winner, "cache");
  // The cache returns the stored object itself: bit-identical by identity.
  EXPECT_EQ(second.result.get(), first.result.get());
  // And no mapper ran for the hit.
  EXPECT_EQ(service.metrics().mapper_invocations, mapper_runs);
  EXPECT_EQ(service.metrics().cache.hits, 1);

  // A different seed is a different canonical key.
  const svc::JobResult third = service.submit(small_job(99)).get();
  ASSERT_EQ(third.status, svc::JobStatus::kDone);
  EXPECT_FALSE(third.cache_hit);
}

TEST(BatchService, LruEvictionIsCountedAndEvictedKeyMisses) {
  svc::BatchService::Config config;
  config.workers = 1;
  config.cache_capacity = 1;
  svc::BatchService service(config);

  ASSERT_EQ(service.submit(small_job(1)).get().status, svc::JobStatus::kDone);
  ASSERT_EQ(service.submit(small_job(2)).get().status, svc::JobStatus::kDone);  // evicts 1
  EXPECT_EQ(service.metrics().cache.evictions, 1);

  const svc::JobResult again = service.submit(small_job(1)).get();
  ASSERT_EQ(again.status, svc::JobStatus::kDone);
  EXPECT_FALSE(again.cache_hit);  // was evicted, re-solved
}

TEST(BatchService, RejectPolicyReportsRejectedStatus) {
  svc::BatchService::Config config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.overflow = svc::OverflowPolicy::kReject;
  svc::BatchService service(config);

  // Saturate: one running + one queued + overflow.  Deadlines keep the
  // blockers cheap; their own status does not matter here.
  std::vector<std::future<svc::JobResult>> futures;
  int rejected = 0;
  for (int i = 0; i < 8; ++i) {
    svc::JobSpec spec = small_job(static_cast<std::uint64_t>(100 + i));
    spec.deadline = std::chrono::milliseconds(200);
    futures.push_back(service.submit(std::move(spec)));
  }
  for (auto& future : futures) {
    if (future.get().status == svc::JobStatus::kRejected) ++rejected;
  }
  EXPECT_EQ(service.metrics().jobs_rejected, rejected);
  EXPECT_EQ(service.metrics().jobs_submitted, 8);
}

TEST(BatchService, PoolResultsMatchSequentialRun) {
  // The acceptance bar: same seeds => same designs, pool or no pool.
  const assay::SequencingGraph graph = assay::make_benchmark("pcr");
  const sched::Schedule schedule = sched::schedule_asap(graph);
  synth::SynthesisOptions options;
  options.grid_size = 10;
  const synth::SynthesisResult sequential = synth::synthesize(graph, schedule, options);

  svc::BatchService::Config config;
  config.workers = 4;
  svc::BatchService service(config);
  std::vector<std::future<svc::JobResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(service.submit(small_job()));
  for (auto& future : futures) {
    const svc::JobResult result = future.get();
    ASSERT_EQ(result.status, svc::JobStatus::kDone);
    EXPECT_EQ(result.result->vs1_max, sequential.vs1_max);
    EXPECT_EQ(result.result->vs2_max, sequential.vs2_max);
    EXPECT_EQ(result.result->valve_count, sequential.valve_count);
    EXPECT_EQ(result.result->chip_width, sequential.chip_width);
  }
}

TEST(BatchService, PortfolioRaceProducesFeasibleResultAndCancelsLosers) {
  svc::BatchService::Config config;
  config.workers = 1;
  config.portfolio.enabled = true;
  config.portfolio.heuristic_arms = 2;
  svc::BatchService service(config);

  const svc::JobResult result = service.submit(small_job()).get();
  ASSERT_EQ(result.status, svc::JobStatus::kDone);
  ASSERT_NE(result.result, nullptr);
  EXPECT_GT(result.result->vs1_max, 0);
  EXPECT_GT(result.result->valve_count, 0);
  // pcr is small enough for the ILP arm to join: 2 heuristic + 1 ilp.
  const svc::MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.race_arms_started, 3);
  EXPECT_TRUE(result.winner.rfind("heuristic", 0) == 0 || result.winner == "ilp")
      << result.winner;
  // The winner cancelled everyone else exactly once.
  EXPECT_EQ(metrics.race_arms_cancelled, 2);
}

TEST(BatchService, RaceRespectsJobDeadline) {
  svc::BatchService::Config config;
  config.workers = 1;
  config.portfolio.enabled = true;
  svc::BatchService service(config);

  svc::JobSpec spec;
  spec.graph = assay::make_benchmark("exponential_dilution");
  spec.name = "exponential_dilution";
  spec.deadline = std::chrono::milliseconds(1);
  const svc::JobResult result = service.submit(std::move(spec)).get();
  EXPECT_EQ(result.status, svc::JobStatus::kCancelled);
}

// ---- canonical keys ----

TEST(ResultCache, CanonicalKeyIgnoresNamesButSeesStructure) {
  const assay::SequencingGraph pcr = assay::make_benchmark("pcr");
  const sched::Schedule schedule = sched::schedule_asap(pcr);
  const synth::SynthesisOptions options;

  const svc::CacheKey base = svc::canonical_key(pcr, schedule, options);
  EXPECT_EQ(svc::canonical_key(pcr, schedule, options), base);  // deterministic

  std::string text = assay::to_assay_text(pcr);
  text.replace(text.find(pcr.name()), pcr.name().size(), "renamed");
  const assay::SequencingGraph renamed = assay::parse_assay(text);
  ASSERT_EQ(renamed.name(), "renamed");
  EXPECT_EQ(svc::canonical_key(renamed, schedule, options), base);

  const assay::SequencingGraph other = assay::make_benchmark("invitro");
  const sched::Schedule other_schedule = sched::schedule_asap(other);
  EXPECT_NE(svc::canonical_key(other, other_schedule, options), base);
}

/// One table row per field the key hashes: changing that field alone must
/// change the key, and no two rows may collide.  The three cancel tokens
/// never change a result, so they must not change the key.
TEST(ResultCache, CanonicalKeyCoversExactlyTheSettableFields) {
  const assay::SequencingGraph pcr = assay::make_benchmark("pcr");
  const sched::Schedule schedule = sched::schedule_asap(pcr);
  const synth::SynthesisOptions defaults;
  const svc::CacheKey base = svc::canonical_key(pcr, schedule, defaults);

  const synth::Placement start_a = {arch::DeviceInstance{{3, 3}, {0, 0}}};
  const synth::Placement start_b = {arch::DeviceInstance{{3, 3}, {1, 0}}};
  using Edit = void (*)(synth::SynthesisOptions&, const synth::Placement&,
                        const synth::Placement&);
  const std::vector<std::pair<std::string, Edit>> rows = {
      {"mapper", [](auto& o, auto&, auto&) { o.mapper = synth::MapperKind::kIlp; }},
      {"heuristic.seed", [](auto& o, auto&, auto&) { o.heuristic.seed = 4242; }},
      {"heuristic.greedy_retries", [](auto& o, auto&, auto&) { o.heuristic.greedy_retries = 3; }},
      {"heuristic.sa_iterations", [](auto& o, auto&, auto&) { o.heuristic.sa_iterations = 100; }},
      {"heuristic.warm_start a", [](auto& o, auto& a, auto&) { o.heuristic.warm_start = a; }},
      {"heuristic.warm_start b", [](auto& o, auto&, auto& b) { o.heuristic.warm_start = b; }},
      {"ilp.time_limit_seconds", [](auto& o, auto&, auto&) { o.ilp.time_limit_seconds = 5.0; }},
      {"ilp.max_nodes", [](auto& o, auto&, auto&) { o.ilp.max_nodes = 1000; }},
      {"ilp.warm_start a", [](auto& o, auto& a, auto&) { o.ilp.warm_start = a; }},
      {"ilp.warm_start b", [](auto& o, auto&, auto& b) { o.ilp.warm_start = b; }},
      // The async parallel search may tie-break to a different optimal
      // placement, and root cuts change the search trajectory.
      {"ilp.threads", [](auto& o, auto&, auto&) { o.ilp.threads = 4; }},
      {"ilp.cuts", [](auto& o, auto&, auto&) { o.ilp.cuts = false; }},
      {"warm_start_ilp", [](auto& o, auto&, auto&) { o.warm_start_ilp = false; }},
      {"grid_size", [](auto& o, auto&, auto&) { o.grid_size = 12; }},
      {"chip_slack", [](auto& o, auto&, auto&) { o.chip_slack = 0.7; }},
      {"max_chip_growth", [](auto& o, auto&, auto&) { o.max_chip_growth = 3; }},
      {"chip_sweep", [](auto& o, auto&, auto&) { o.chip_sweep = 0; }},
      {"valve_weight", [](auto& o, auto&, auto&) { o.valve_weight = 1.0; }},
      {"routing_retries", [](auto& o, auto&, auto&) { o.routing_retries = 1; }},
      {"allow_storage_overlap", [](auto& o, auto&, auto&) { o.allow_storage_overlap = false; }},
      {"routing_convenient", [](auto& o, auto&, auto&) { o.routing_convenient = false; }},
      {"dead_valves", [](auto& o, auto&, auto&) { o.dead_valves = {Point{1, 1}}; }},
      {"router.congestion_penalty", [](auto& o, auto&, auto&) { o.router.congestion_penalty = 4.0; }},
      {"router.port_of_fluid", [](auto& o, auto&, auto&) { o.router.port_of_fluid = {{"sample", 0}}; }},
  };
  std::vector<std::pair<svc::CacheKey, std::string>> keys;
  for (const auto& [field, edit] : rows) {
    synth::SynthesisOptions options = defaults;
    edit(options, start_a, start_b);
    const svc::CacheKey key = svc::canonical_key(pcr, schedule, options);
    EXPECT_NE(key, base) << field;
    keys.emplace_back(key, field);
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_NE(keys[i - 1].first, keys[i].first) << keys[i - 1].second << " vs " << keys[i].second;
  }

  CancelSource source;
  synth::SynthesisOptions tokens = defaults;
  tokens.cancel = source.token();
  tokens.heuristic.cancel = source.token();
  tokens.ilp.cancel = source.token();
  EXPECT_EQ(svc::canonical_key(pcr, schedule, tokens), base);
}

TEST(ResultCache, ShardedCacheSurvivesConcurrentHammering) {
  svc::ResultCache cache(64);
  EXPECT_GT(cache.shard_count(), 1u);  // capacity 64 -> all 8 shards
  auto payload = std::make_shared<const synth::SynthesisResult>();

  // 4 threads, disjoint-ish key streams: every insert must be retrievable
  // from the same thread right away, and the summed counters must add up.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  std::atomic<int> self_misses{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const svc::CacheKey key =
            0x9e3779b97f4a7c15ULL * static_cast<svc::CacheKey>(t * kOpsPerThread + op + 1);
        cache.insert(key, payload);
        if (cache.lookup(key) == nullptr) self_misses.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Same-thread insert-then-lookup can only miss if a concurrent insert
  // storm evicted the key from its shard between the two calls; with 64
  // slots over 8 shards and 4 writers that is possible but must be rare.
  EXPECT_LT(self_misses.load(), kThreads * kOpsPerThread / 10);
  const svc::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_EQ(stats.capacity, 64u);
}

TEST(ResultCache, CapacityZeroDisablesButCountsMisses) {
  svc::ResultCache cache(0);
  EXPECT_EQ(cache.shard_count(), 0u);
  auto payload = std::make_shared<const synth::SynthesisResult>();
  cache.insert(1, payload);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.lookup(2), nullptr);
  const svc::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ResultCache, TinyCapacityKeepsExactLru) {
  svc::ResultCache cache(1);
  EXPECT_EQ(cache.shard_count(), 1u);
  auto a = std::make_shared<const synth::SynthesisResult>();
  auto b = std::make_shared<const synth::SynthesisResult>();
  cache.insert(10, a);
  EXPECT_EQ(cache.lookup(10), a);
  cache.insert(20, b);  // evicts 10
  EXPECT_EQ(cache.lookup(10), nullptr);
  EXPECT_EQ(cache.lookup(20), b);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(BatchService, ReliabilityJobProducesReportAndReusesSynthesisCache) {
  svc::BatchService::Config config;
  config.workers = 2;
  svc::BatchService service(config);

  const auto make_spec = [] {
    svc::JobSpec spec = small_job();
    spec.kind = svc::JobKind::kReliability;
    spec.reliability.monte_carlo.trials = 300;
    spec.reliability.monte_carlo.seed = 42;
    spec.reliability.inject_top = 1;
    return spec;
  };

  const svc::JobResult first = service.submit(make_spec()).get();
  ASSERT_EQ(first.status, svc::JobStatus::kDone);
  ASSERT_NE(first.result, nullptr);
  ASSERT_NE(first.report, nullptr);
  EXPECT_GT(first.report->healthy.mttf_runs, 0.0);
  EXPECT_EQ(first.report->trials, 300);
  ASSERT_EQ(first.report->rounds.size(), 1u);
  EXPECT_FALSE(first.cache_hit);

  // Same job again: the healthy synthesis comes from the cache, the
  // analysis re-runs and reproduces the same report (fixed seed).
  const svc::JobResult second = service.submit(make_spec()).get();
  ASSERT_EQ(second.status, svc::JobStatus::kDone);
  ASSERT_NE(second.report, nullptr);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.report->healthy.mttf_runs, first.report->healthy.mttf_runs);
  EXPECT_EQ(second.report->to_json(), first.report->to_json());

  const svc::MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.reliability_jobs, 2);
  EXPECT_EQ(metrics.reliability_latency.count, 2u);
  EXPECT_EQ(metrics.cache.hits, 1);
}

TEST(BatchService, OneWorkerReliabilityJobRunsParallelTrialBlocks) {
  // The job's trial blocks are executor tasks started from the service's
  // only worker: they must neither deadlock it nor change the report.
  svc::BatchService::Config config;
  config.workers = 1;
  config.cache_capacity = 0;
  svc::BatchService service(config);

  const auto report_at = [&](int threads) {
    svc::JobSpec spec = small_job();
    spec.kind = svc::JobKind::kReliability;
    spec.reliability.monte_carlo.trials = 3000;
    spec.reliability.monte_carlo.block_size = 64;
    spec.reliability.monte_carlo.seed = 42;
    spec.reliability.monte_carlo.threads = threads;
    const svc::JobResult result = service.submit(std::move(spec)).get();
    EXPECT_EQ(result.status, svc::JobStatus::kDone) << result.error;
    return result.report != nullptr ? result.report->to_json() : std::string();
  };
  const std::string serial = report_at(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(report_at(4), serial);
}

TEST(BatchService, SynthesisJobsCarryNoReport) {
  svc::BatchService service(svc::BatchService::Config{});
  const svc::JobResult result = service.submit(small_job()).get();
  ASSERT_EQ(result.status, svc::JobStatus::kDone);
  EXPECT_EQ(result.report, nullptr);
  EXPECT_EQ(service.metrics().reliability_jobs, 0);
}

// ---- metrics registry ----

/// The `flowsynth_solver_*` and `flowsynth_fleet_*` lines of a Prometheus
/// exposition, HELP/TYPE lines included.
std::string solver_and_fleet_lines(const std::string& prometheus) {
  std::istringstream in(prometheus);
  std::string lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("flowsynth_solver_") != std::string::npos ||
        line.find("flowsynth_fleet_") != std::string::npos) {
      lines += line + '\n';
    }
  }
  return lines;
}

TEST(Metrics, SolverAndFleetSectionsAreByteStable) {
  // Two solver and two fleet records, every counter distinct, pin both
  // serializations byte for byte.  The second solver record has the smaller
  // arena and thread count, so a sum where a max belongs shows.  No job is
  // submitted, so rates, histograms, cache and pool values are all zero.
  svc::MetricsRegistry registry;

  ilp::SolveCounters first;
  first.nodes = 101;
  first.lp_iterations = 2003;
  first.lp.iterations = 2111;
  first.lp.primal_pivots = 1201;
  first.lp.dual_pivots = 702;
  first.lp.bound_flips = 208;
  first.lp.refactorizations = 31;
  first.lp.warm_solves = 95;
  first.lp.cold_solves = 7;
  first.lp.rows_appended = 16;
  first.lp.lu_refactorizations = 29;
  first.lp.eta_pivots = 1150;
  first.lp.eta_nnz = 40213;
  first.lp.lu_fill_nnz = 9100;
  first.lp.lu_basis_nnz = 7000;
  first.lp.devex_resets = 3;
  first.cuts.gomory_generated = 12;
  first.cuts.cover_generated = 5;
  first.cuts.applied = 14;
  first.cuts.retained = 9;
  first.cuts.aged_out = 19;
  first.cuts.rounds = 4;
  first.impact_branch_decisions = 41;
  first.pseudocost_branch_decisions = 58;
  first.arena_bytes = 65536;
  first.threads = 8;
  first.steals = 17;
  first.idle_seconds = 0.25;
  registry.record_solver(first);

  ilp::SolveCounters second;
  second.nodes = 23;
  second.lp_iterations = 411;
  second.lp.iterations = 433;
  second.lp.primal_pivots = 250;
  second.lp.dual_pivots = 150;
  second.lp.bound_flips = 33;
  second.lp.refactorizations = 6;
  second.lp.warm_solves = 20;
  second.lp.cold_solves = 3;
  second.lp.rows_appended = 4;
  second.lp.lu_refactorizations = 5;
  second.lp.eta_pivots = 230;
  second.lp.eta_nnz = 8011;
  second.lp.lu_fill_nnz = 1800;
  second.lp.lu_basis_nnz = 1500;
  second.lp.devex_resets = 1;
  second.cuts.gomory_generated = 2;
  second.cuts.cover_generated = 1;
  second.cuts.applied = 3;
  second.cuts.retained = 2;
  second.cuts.aged_out = 7;
  second.cuts.rounds = 1;
  second.impact_branch_decisions = 8;
  second.pseudocost_branch_decisions = 11;
  second.arena_bytes = 16384;
  second.threads = 3;
  second.steals = 3;
  second.idle_seconds = 0.5;
  registry.record_solver(second);

  svc::FleetStats fleet_a;
  fleet_a.chips = 10;
  fleet_a.assay_runs = 290;
  fleet_a.self_tests = 58;
  fleet_a.faults_occurred = 8;
  fleet_a.faults_detected = 5;
  fleet_a.faults_missed = 3;
  fleet_a.false_positives = 1;
  fleet_a.repairs_attempted = 6;
  fleet_a.repairs_succeeded = 4;
  fleet_a.chips_retired = 2;
  fleet_a.detection_latency_runs = 13;
  fleet_a.runs_available = 270;
  fleet_a.runs_possible = 300;
  registry.fleet_job();
  registry.record_fleet(fleet_a);

  svc::FleetStats fleet_b;
  fleet_b.chips = 3;
  fleet_b.assay_runs = 85;
  fleet_b.self_tests = 17;
  fleet_b.faults_occurred = 11;
  fleet_b.faults_detected = 7;
  fleet_b.faults_missed = 4;
  fleet_b.false_positives = 2;
  fleet_b.repairs_attempted = 9;
  fleet_b.repairs_succeeded = 5;
  fleet_b.chips_retired = 1;
  fleet_b.detection_latency_runs = 21;
  fleet_b.runs_available = 60;
  fleet_b.runs_possible = 90;
  registry.fleet_job();
  registry.record_fleet(fleet_b);

  const svc::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.to_json(), R"({
  "jobs": {
    "submitted": 0,
    "completed": 0,
    "cancelled": 0,
    "failed": 0,
    "rejected": 0,
    "running": 0
  },
  "mapper_invocations": 0,
  "reliability_jobs": 0,
  "fleet": {
    "jobs": 2,
    "chips": 13,
    "assay_runs": 375,
    "self_tests": 75,
    "faults_occurred": 19,
    "faults_detected": 12,
    "faults_missed": 7,
    "false_positives": 3,
    "repairs_attempted": 15,
    "repairs_succeeded": 9,
    "chips_retired": 3,
    "detection_latency_runs": 34,
    "mean_detection_latency_runs": 2.8333,
    "runs_available": 330,
    "runs_possible": 390,
    "availability": 0.846154
  },
  "race": {
    "arms_started": 0,
    "arms_cancelled": 0
  },
  "wall_clock_seconds": {
    "queue": 0.000000,
    "synthesis": 0.000000,
    "total": 0.000000
  },
  "latency_seconds": {
    "queue": {"count":0,"sum":0.000000,"min":0.000000,"p50":0.000000,"p90":0.000000,"p95":0.000000,"p99":0.000000,"max":0.000000},
    "synthesis": {"count":0,"sum":0.000000,"min":0.000000,"p50":0.000000,"p90":0.000000,"p95":0.000000,"p99":0.000000,"max":0.000000},
    "total": {"count":0,"sum":0.000000,"min":0.000000,"p50":0.000000,"p90":0.000000,"p95":0.000000,"p99":0.000000,"max":0.000000},
    "reliability": {"count":0,"sum":0.000000,"min":0.000000,"p50":0.000000,"p90":0.000000,"p95":0.000000,"p99":0.000000,"max":0.000000},
    "fleet": {"count":0,"sum":0.000000,"min":0.000000,"p50":0.000000,"p90":0.000000,"p95":0.000000,"p99":0.000000,"max":0.000000}
  },
  "solver": {
    "nodes": 124,
    "lp_iterations": 2414,
    "primal_pivots": 1451,
    "dual_pivots": 852,
    "refactorizations": 37,
    "warm_solves": 115,
    "cold_solves": 10,
    "warm_start_hit_rate": 0.9200,
    "lu_refactorizations": 34,
    "eta_pivots": 1380,
    "eta_nnz": 48224,
    "fill_in_ratio": 1.2824,
    "devex_resets": 4,
    "gomory_cuts": 14,
    "cover_cuts": 6,
    "cuts_applied": 17,
    "cuts_retained": 11,
    "cut_rounds": 5,
    "impact_branch_decisions": 49,
    "pseudocost_branch_decisions": 69,
    "arena_bytes": 65536,
    "threads": 8,
    "steals": 20,
    "idle_seconds": 0.750000
  },
  "cache": {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "entries": 0,
    "capacity": 0
  },
  "pool": {
    "workers": 0,
    "max_queue_depth": 0
  },
  "rates": {
    "submitted_per_second_1m": 0.000000,
    "submitted_per_second_5m": 0.000000,
    "completed_per_second_1m": 0.000000,
    "completed_per_second_5m": 0.000000
  }
}
)");
  EXPECT_EQ(solver_and_fleet_lines(snapshot.to_prometheus()),
            R"(# HELP flowsynth_fleet_jobs_total Jobs that ran the closed-loop fleet simulator.
# TYPE flowsynth_fleet_jobs_total counter
flowsynth_fleet_jobs_total 2
# HELP flowsynth_fleet_chips_total Virtual chips simulated across fleet jobs.
# TYPE flowsynth_fleet_chips_total counter
flowsynth_fleet_chips_total 13
# HELP flowsynth_fleet_assay_runs_total Assay runs executed across the fleet.
# TYPE flowsynth_fleet_assay_runs_total counter
flowsynth_fleet_assay_runs_total 375
# HELP flowsynth_fleet_self_tests_total Valve-array self-test schedules executed.
# TYPE flowsynth_fleet_self_tests_total counter
flowsynth_fleet_self_tests_total 75
# HELP flowsynth_fleet_faults_total Fleet fault lifecycle events.
# TYPE flowsynth_fleet_faults_total counter
flowsynth_fleet_faults_total{event="occurred"} 19
flowsynth_fleet_faults_total{event="detected"} 12
flowsynth_fleet_faults_total{event="missed"} 7
flowsynth_fleet_faults_total{event="false_positive"} 3
# HELP flowsynth_fleet_repairs_total Degraded re-synthesis repairs by outcome.
# TYPE flowsynth_fleet_repairs_total counter
flowsynth_fleet_repairs_total{outcome="attempted"} 15
flowsynth_fleet_repairs_total{outcome="succeeded"} 9
# HELP flowsynth_fleet_chips_retired_total Chips retired (repair infeasible or repair budget exhausted).
# TYPE flowsynth_fleet_chips_retired_total counter
flowsynth_fleet_chips_retired_total 3
# HELP flowsynth_fleet_detection_latency_runs_total Assay runs between fault onset and diagnosis, summed over detected faults.
# TYPE flowsynth_fleet_detection_latency_runs_total counter
flowsynth_fleet_detection_latency_runs_total 34
# HELP flowsynth_fleet_availability Fraction of chip-runs in service with no active fault.
# TYPE flowsynth_fleet_availability gauge
flowsynth_fleet_availability 0.846153846
# HELP flowsynth_solver_nodes_total Branch-and-bound nodes explored.
# TYPE flowsynth_solver_nodes_total counter
flowsynth_solver_nodes_total 124
# HELP flowsynth_solver_lp_iterations_total Simplex iterations.
# TYPE flowsynth_solver_lp_iterations_total counter
flowsynth_solver_lp_iterations_total 2414
# HELP flowsynth_solver_pivots_total Simplex pivots by phase.
# TYPE flowsynth_solver_pivots_total counter
flowsynth_solver_pivots_total{phase="primal"} 1451
flowsynth_solver_pivots_total{phase="dual"} 852
# HELP flowsynth_solver_solves_total LP solves by warm-start outcome.
# TYPE flowsynth_solver_solves_total counter
flowsynth_solver_solves_total{start="warm"} 115
flowsynth_solver_solves_total{start="cold"} 10
# HELP flowsynth_solver_threads Widest parallel MILP solve seen.
# TYPE flowsynth_solver_threads gauge
flowsynth_solver_threads 8
# HELP flowsynth_solver_steals_total Work-stealing events across MILP solves.
# TYPE flowsynth_solver_steals_total counter
flowsynth_solver_steals_total 20
)");
}

/// A two-mix assay the exact mapper closes quickly on a 6x6 or 7x7 chip.
/// Without a warm start, so the solve runs a tree: a heuristic warm start
/// meets the load bound and would be proved with zero counters.
svc::JobSpec tiny_ilp_job(int grid) {
  svc::JobSpec spec;
  spec.graph = assay::parse_assay(R"(
assay tiny
input  i1
input  i2
input  i3
mix    a volume 8 duration 6 from i1 i2
mix    b volume 8 duration 6 from a i3
)");
  spec.name = "tiny";
  spec.asap = true;
  spec.options.mapper = synth::MapperKind::kIlp;
  spec.options.grid_size = grid;
  spec.options.max_chip_growth = 0;
  spec.options.ilp.time_limit_seconds = 60.0;
  spec.options.warm_start_ilp = false;
  return spec;
}

TEST(Metrics, SolverCountersOfEveryJobReachTheRegistry) {
  svc::BatchService::Config config;
  config.workers = 1;
  svc::BatchService service(config);

  const svc::JobResult first = service.submit(tiny_ilp_job(7)).get();
  ASSERT_EQ(first.status, svc::JobStatus::kDone);
  ASSERT_NE(first.result, nullptr);
  EXPECT_GE(first.result->milp.nodes, 1);
  EXPECT_EQ(service.metrics().solver, first.result->milp);

  // Another grid is another cache key, so the mapper runs again and the
  // registry folds the second solve onto the first.  Grid 6 solves in tens
  // of milliseconds (grid 8 takes seconds, far longer under TSan).
  const svc::JobResult second = service.submit(tiny_ilp_job(6)).get();
  ASSERT_EQ(second.status, svc::JobStatus::kDone);
  ASSERT_FALSE(second.cache_hit);
  const ilp::SolveCounters& a = first.result->milp;
  const ilp::SolveCounters& b = second.result->milp;
  const ilp::SolveCounters folded = service.metrics().solver;
  EXPECT_EQ(folded.nodes, a.nodes + b.nodes);
  EXPECT_EQ(folded.lp_iterations, a.lp_iterations + b.lp_iterations);
  EXPECT_EQ(folded.lp.primal_pivots, a.lp.primal_pivots + b.lp.primal_pivots);
  EXPECT_EQ(folded.lp.cold_solves, a.lp.cold_solves + b.lp.cold_solves);
  EXPECT_EQ(folded.arena_bytes, std::max(a.arena_bytes, b.arena_bytes));
  EXPECT_EQ(folded.threads, std::max(a.threads, b.threads));
  ilp::SolveCounters expected = a;
  expected.accumulate(b);
  EXPECT_EQ(folded, expected);
}

TEST(Metrics, ConcurrentFoldsAreExactAndNeverTorn) {
  // Four writers fold 1000 solver and 1000 fleet records each while a fifth
  // thread snapshots.  Each record is folded whole under one lock, so every
  // snapshot sees whole records and the final totals are exact.
  constexpr int kWriters = 4;
  constexpr int kRecords = 1000;
  svc::MetricsRegistry registry;
  std::atomic<int> writers_left{kWriters};
  std::atomic<long> torn{0};
  std::thread reader([&] {
    while (writers_left.load() > 0) {
      const svc::MetricsSnapshot s = registry.snapshot();
      if (s.solver.lp.primal_pivots != 2 * s.solver.nodes ||
          s.fleet.runs_possible != 3 * s.fleet.chips) {
        torn.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      ilp::SolveCounters counters;
      counters.nodes = 1;
      counters.lp.primal_pivots = 2;
      counters.cuts.applied = 1;
      counters.arena_bytes = 1024 * (w + 1);
      counters.threads = w + 1;
      counters.steals = 1;
      counters.idle_seconds = 0.5;
      svc::FleetStats stats;
      stats.chips = 1;
      stats.faults_detected = 1;
      stats.runs_possible = 3;
      for (int i = 0; i < kRecords; ++i) {
        registry.record_solver(counters);
        registry.record_fleet(stats);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (std::thread& writer : writers) writer.join();
  reader.join();

  const svc::MetricsSnapshot s = registry.snapshot();
  constexpr long kTotal = kWriters * kRecords;
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(s.solver.nodes, kTotal);
  EXPECT_EQ(s.solver.lp.primal_pivots, 2 * kTotal);
  EXPECT_EQ(s.solver.cuts.applied, kTotal);
  EXPECT_EQ(s.solver.steals, kTotal);
  EXPECT_EQ(s.solver.idle_seconds, 0.5 * kTotal);
  EXPECT_EQ(s.solver.arena_bytes, 1024 * kWriters);
  EXPECT_EQ(s.solver.threads, kWriters);
  EXPECT_EQ(s.fleet.chips, kTotal);
  EXPECT_EQ(s.fleet.faults_detected, kTotal);
  EXPECT_EQ(s.fleet.runs_possible, 3 * kTotal);
}

}  // namespace
}  // namespace fsyn
