// Tests for src/rel: closed-form cross-check of the Monte Carlo estimator,
// determinism in the seed at any thread count, cancellation, fault plans,
// degraded re-synthesis (the mapper must avoid injected dead valves, the
// ILP warm-starts from the repaired healthy placement), and the stored
// mapping round trip that feeds `flowsynth reliability --in`.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "assay/benchmarks.hpp"
#include "rel/engine.hpp"
#include "report/result_io.hpp"
#include "sched/list_scheduler.hpp"
#include "svc/task_group.hpp"

namespace fsyn::rel {
namespace {

/// Five valves with hand-picked loads; ids/cells mimic a 4-wide matrix.
std::vector<sim::ValveWear> make_valves() {
  std::vector<sim::ValveWear> valves(5);
  valves[0] = {0, {0, 0}, 40, 0};
  valves[1] = {1, {1, 0}, 44, 0};
  valves[2] = {2, {2, 0}, 46, 2};
  valves[3] = {3, {3, 0}, 0, 4};
  valves[4] = {5, {1, 1}, 0, 6};
  return valves;
}

TEST(LifetimeModel, ShapeOneMatchesSeriesSystemClosedForm) {
  // With Weibull shape 1 every valve's TTF is exponential with mean
  // characteristic/load, so the chip (a series system: first failure kills
  // it) is exponential with rate = sum of load_i / characteristic_i.
  MonteCarloOptions options;
  options.trials = 40000;
  options.seed = 42;
  options.model.pump = {5000.0, 1.0};
  options.model.control = {20000.0, 1.0};

  const std::vector<sim::ValveWear> valves = make_valves();
  double rate = 0.0;
  for (const sim::ValveWear& valve : valves) {
    rate += valve.total() / options.model.params_for(valve.role()).characteristic_actuations;
  }
  const double closed_form = 1.0 / rate;

  const LifetimeEstimate estimate = estimate_lifetime(valves, options);
  EXPECT_NEAR(estimate.mttf_runs, closed_form, 0.05 * closed_form);
  // Median of an exponential is MTTF * ln 2.
  EXPECT_NEAR(estimate.p50_runs, closed_form * std::log(2.0), 0.08 * closed_form);
}

TEST(MonteCarlo, BitIdenticalAcrossThreadCountsAndPools) {
  const std::vector<sim::ValveWear> valves = make_valves();
  MonteCarloOptions options;
  options.trials = 4000;
  options.seed = 2015;
  options.block_size = 64;

  const LifetimeEstimate serial = estimate_lifetime(valves, options);

  // Per-trial seeding + disjoint writes + trial-order reduction make the
  // estimate a pure function of (valves, trials, seed).
  for (const int threads : {2, 4, 16}) {
    options.threads = threads;
    const LifetimeEstimate other = estimate_lifetime(valves, options);
    EXPECT_EQ(serial.mttf_runs, other.mttf_runs) << threads;
    EXPECT_EQ(serial.p10_runs, other.p10_runs) << threads;
    EXPECT_EQ(serial.p50_runs, other.p50_runs) << threads;
    EXPECT_EQ(serial.p90_runs, other.p90_runs) << threads;
    EXPECT_EQ(serial.min_runs, other.min_runs) << threads;
    EXPECT_EQ(serial.max_runs, other.max_runs) << threads;
    ASSERT_EQ(serial.first_failures.size(), other.first_failures.size()) << threads;
    for (std::size_t i = 0; i < serial.first_failures.size(); ++i) {
      EXPECT_EQ(serial.first_failures[i].valve_id, other.first_failures[i].valve_id);
      EXPECT_EQ(serial.first_failures[i].count, other.first_failures[i].count);
    }
  }

  MonteCarloOptions reseeded = options;
  reseeded.seed = 7;
  EXPECT_NE(serial.mttf_runs, estimate_lifetime(valves, reseeded).mttf_runs);
}

TEST(MonteCarlo, FirstFailureHistogramCountsSumToTrials) {
  MonteCarloOptions options;
  options.trials = 1000;
  const LifetimeEstimate estimate = estimate_lifetime(make_valves(), options);
  int total = 0;
  for (const FirstFailure& bar : estimate.first_failures) {
    EXPECT_GT(bar.count, 0);
    total += bar.count;
  }
  EXPECT_EQ(total, options.trials);
  // Histogram is sorted by descending count.
  for (std::size_t i = 1; i < estimate.first_failures.size(); ++i) {
    EXPECT_GE(estimate.first_failures[i - 1].count, estimate.first_failures[i].count);
  }
  // Pump valves dominate: the top attribution must be a pump cell.
  ASSERT_FALSE(estimate.first_failures.empty());
  EXPECT_EQ(estimate.first_failures.front().role, sim::ValveRole::kPump);
}

TEST(MonteCarlo, CancellationThrowsCancelledError) {
  CancelSource source;
  source.cancel();
  MonteCarloOptions options;
  options.trials = 100000;
  options.cancel = source.token();
  EXPECT_THROW(estimate_lifetime(make_valves(), options), CancelledError);
}

TEST(MonteCarlo, MidFlightCancellationStopsPooledRun) {
  CancelSource source;
  MonteCarloOptions options;
  options.trials = 2000000;  // big enough that cancellation lands mid-run
  options.block_size = 128;
  options.threads = 4;
  options.cancel = source.token();
  std::thread canceller([&] { source.cancel(); });
  try {
    (void)estimate_lifetime(make_valves(), options);
    // The cancel may land after the last trial; either outcome is legal.
  } catch (const CancelledError&) {
  }
  canceller.join();
}

TEST(MonteCarloStress, ConcurrentEstimatesShareOnePool) {
  // Twice as many 4-task estimates as the host has threads, each started
  // from an executor task, so their trial blocks nest on a saturated
  // executor (the TSan configuration): every result is the serial one.
  MonteCarloOptions options;
  options.trials = 2000;
  options.block_size = 32;
  const LifetimeEstimate expected = estimate_lifetime(make_valves(), options);

  const int estimates = 2 * std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<double> mttf(static_cast<std::size_t>(estimates), 0.0);
  svc::TaskGroup group;
  for (int i = 0; i < estimates; ++i) {
    group.run([&, i] {
      MonteCarloOptions nested = options;
      nested.threads = 4;
      mttf[static_cast<std::size_t>(i)] = estimate_lifetime(make_valves(), nested).mttf_runs;
    });
  }
  group.wait();
  for (const double value : mttf) EXPECT_EQ(value, expected.mttf_runs);
}

TEST(FaultPlanTest, ParseAndRoundTrip) {
  const FaultPlan plan = FaultPlan::parse("4,5@120:closed;6,5:open;1,2@7");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].valve, (Point{4, 5}));
  EXPECT_EQ(plan.events[0].at_run, 120);
  EXPECT_EQ(plan.events[0].mode, FaultMode::kStuckClosed);
  EXPECT_EQ(plan.events[1].mode, FaultMode::kStuckOpen);
  EXPECT_EQ(plan.events[1].at_run, 0);
  EXPECT_EQ(plan.events[2].valve, (Point{1, 2}));
  EXPECT_EQ(plan.to_text(), "4,5@120:closed;6,5@0:open;1,2@7:closed");
  EXPECT_EQ(FaultPlan::parse(plan.to_text()).to_text(), plan.to_text());

  EXPECT_THROW(FaultPlan::parse(""), Error);
  EXPECT_THROW(FaultPlan::parse("4"), Error);
  EXPECT_THROW(FaultPlan::parse("4,5:ajar"), Error);
}

TEST(FaultPlanTest, TopWearPlanPicksBusiestValves) {
  sim::ActuationLedger ledger;
  ledger.pump = Grid<int>(3, 3, 0);
  ledger.control = Grid<int>(3, 3, 0);
  ledger.pump.at({1, 1}) = 44;
  ledger.pump.at({2, 1}) = 40;
  ledger.control.at({0, 2}) = 6;

  const FaultPlan plan = top_wear_plan(ledger, 2);
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].valve, (Point{1, 1}));
  EXPECT_EQ(plan.events[1].valve, (Point{2, 1}));
  // Expected wear-out run: characteristic life / per-run load.
  EXPECT_EQ(plan.events[0].at_run, static_cast<int>(5000.0 / 44));

  // Asking for more faults than actuated valves clamps gracefully.
  EXPECT_EQ(top_wear_plan(ledger, 10).events.size(), 3u);
}

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new assay::SequencingGraph(assay::make_benchmark("pcr"));
    schedule_ = new sched::Schedule(
        sched::schedule_with_policy(*graph_, sched::make_policy(*graph_, 0)));
    healthy_ = new synth::SynthesisResult(synth::synthesize(*graph_, *schedule_));
  }
  static void TearDownTestSuite() {
    delete healthy_;
    delete schedule_;
    delete graph_;
    healthy_ = nullptr;
    schedule_ = nullptr;
    graph_ = nullptr;
  }
  static assay::SequencingGraph* graph_;
  static sched::Schedule* schedule_;
  static synth::SynthesisResult* healthy_;
};

assay::SequencingGraph* EngineTest::graph_ = nullptr;
sched::Schedule* EngineTest::schedule_ = nullptr;
synth::SynthesisResult* EngineTest::healthy_ = nullptr;

TEST_F(EngineTest, FaultInjectionRemapsAroundDeadValve) {
  // Fail the top-wear valve of the healthy mapping; the degraded
  // re-synthesis must produce a mapping in which that valve carries no
  // load (it is excluded from every footprint and from routing).
  const FaultPlan plan = top_wear_plan(healthy_->ledger_setting1, 1);
  ASSERT_EQ(plan.events.size(), 1u);
  const Point dead = plan.events[0].valve;

  ReliabilityOptions options;
  options.monte_carlo.trials = 300;
  options.faults = plan;
  const ReliabilityReport report = analyze(*graph_, *schedule_, *healthy_, options);

  ASSERT_EQ(report.rounds.size(), 1u);
  const RepairRound& round = report.rounds[0];
  EXPECT_TRUE(round.feasible);
  EXPECT_EQ(round.verdict, "remapped");
  EXPECT_GT(round.vs1_max, 0);
  ASSERT_TRUE(round.lifetime.has_value());
  // The failure attribution of the repaired chip covers every loaded valve,
  // so the dead cell must be absent.
  for (const FirstFailure& bar : round.lifetime->first_failures) {
    EXPECT_FALSE(bar.cell == dead);
  }
  // Repair extends service: expected runs with repair adds the repaired
  // mapping's MTTF on top of the healthy MTTF.
  EXPECT_GT(report.expected_runs_with_repair, report.expected_runs_no_repair);
  EXPECT_NEAR(report.expected_runs_with_repair,
              report.healthy.mttf_runs + round.lifetime->mttf_runs, 1e-9);
}

TEST_F(EngineTest, IlpRepairWarmStartsFromHealthySolution) {
  ReliabilityOptions options;
  options.monte_carlo.trials = 100;
  options.inject_top = 1;
  options.synthesis.mapper = synth::MapperKind::kIlp;
  options.synthesis.ilp.time_limit_seconds = 5.0;
  const ReliabilityReport report = analyze(*graph_, *schedule_, *healthy_, options);

  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_TRUE(report.rounds[0].feasible);
  // The healthy placement minus the device over the dead valve is still
  // repairable on the pcr chip, so the ILP must have started warm.
  EXPECT_TRUE(report.rounds[0].warm_started);
}

TEST_F(EngineTest, DynamicMappingOutlivesStaticBaseline) {
  ReliabilityOptions options;
  options.monte_carlo.trials = 1000;
  options.compare_static = true;
  const ReliabilityReport report = analyze(*graph_, *schedule_, *healthy_, options);

  ASSERT_TRUE(report.static_baseline.has_value());
  EXPECT_GT(report.static_total_valves, 0);
  EXPECT_GT(report.static_max_actuations, 0);
  // The paper's claim as a lifetime statement: spreading actuations across
  // the matrix beats dedicated devices' fixed pump trios.
  EXPECT_GT(report.healthy.mttf_runs, report.static_baseline->mttf_runs);
}

TEST_F(EngineTest, ReportJsonIsBitIdenticalWithoutTiming) {
  ReliabilityOptions options;
  options.monte_carlo.trials = 200;
  options.inject_top = 1;
  options.compare_static = true;
  const std::string a = analyze(*graph_, *schedule_, *healthy_, options).to_json();
  const std::string b = analyze(*graph_, *schedule_, *healthy_, options).to_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"format\": \"flowsynth-reliability-v1\""), std::string::npos);
  EXPECT_EQ(a.find("trials_per_second"), std::string::npos);

  const std::string timed =
      analyze(*graph_, *schedule_, *healthy_, options).to_json(/*include_timing=*/true);
  EXPECT_NE(timed.find("trials_per_second"), std::string::npos);
  EXPECT_NE(timed.find("resynthesis_latency"), std::string::npos);
}

TEST_F(EngineTest, StoredResultRoundTripsThroughJson) {
  report::StoredResult stored;
  stored.assay = "pcr";
  stored.policy_increments = 0;
  stored.asap = false;
  stored.seed = 2015;
  stored.result = *healthy_;
  stored.result.chip_growths = -3;  // the sweep's winner sat below its estimate

  const std::string json = report::stored_result_to_json(stored);
  const report::StoredResult loaded = report::stored_result_from_json(json);
  EXPECT_EQ(loaded.assay, stored.assay);
  EXPECT_EQ(loaded.seed, stored.seed);
  EXPECT_EQ(loaded.result.chip_width, healthy_->chip_width);
  EXPECT_EQ(loaded.result.chip_growths, -3);
  EXPECT_EQ(loaded.result.vs1_max, healthy_->vs1_max);
  EXPECT_EQ(loaded.result.valve_count, healthy_->valve_count);
  ASSERT_EQ(loaded.result.placement.size(), healthy_->placement.size());
  for (std::size_t i = 0; i < loaded.result.placement.size(); ++i) {
    EXPECT_EQ(loaded.result.placement[i].origin, healthy_->placement[i].origin);
  }
  ASSERT_EQ(loaded.result.routing.paths.size(), healthy_->routing.paths.size());

  // Serialize → parse → serialize is a fixed point: the ledgers, metrics
  // and paths survive exactly, so a reliability run over the loaded result
  // equals one over the original.
  EXPECT_EQ(report::stored_result_to_json(loaded), json);

  MonteCarloOptions mc;
  mc.trials = 500;
  EXPECT_EQ(estimate_lifetime(loaded.result.ledger_setting1, mc).mttf_runs,
            estimate_lifetime(healthy_->ledger_setting1, mc).mttf_runs);
}

TEST_F(EngineTest, StoredResultWithLegacySolverKeysStillLoads) {
  // Documents written before the LP engine stopped being echoed carry
  // "basis"/"pricing" in their solver section; they must still load, with
  // every other field intact.
  report::StoredResult stored;
  stored.assay = "pcr";
  stored.policy_increments = 1;
  stored.seed = 7;
  stored.result = *healthy_;
  stored.result.milp.nodes = 12;
  stored.result.milp.lp_iterations = 345;
  stored.result.milp.lp.primal_pivots = 67;
  stored.result.milp.lp.dual_pivots = 89;
  stored.result.milp.cuts.applied = 3;
  stored.result.milp.arena_bytes = 4096;
  const std::string json = report::stored_result_to_json(stored);

  std::string legacy = json;
  const std::size_t solver = legacy.find("\"solver\": {");
  ASSERT_NE(solver, std::string::npos);
  const std::size_t close = legacy.find('}', solver);
  ASSERT_NE(close, std::string::npos);
  legacy.insert(close, ", \"basis\": \"dense\", \"pricing\": \"dantzig\"");

  const report::StoredResult loaded = report::stored_result_from_json(legacy);
  EXPECT_EQ(loaded.assay, stored.assay);
  EXPECT_EQ(loaded.policy_increments, stored.policy_increments);
  EXPECT_EQ(loaded.seed, stored.seed);
  EXPECT_EQ(loaded.result.milp.nodes, 12);
  EXPECT_EQ(loaded.result.milp.lp.dual_pivots, 89);
  EXPECT_EQ(loaded.result.milp.arena_bytes, 4096);
  // Re-serializing gives the current document exactly: nothing but the
  // two legacy keys was dropped.
  EXPECT_EQ(report::stored_result_to_json(loaded), json);
}

/// `healthy` as a stored result whose stored solver counters are all
/// distinct; the counters the document leaves out are set too.
report::StoredResult with_distinct_solver_counters(const synth::SynthesisResult& healthy) {
  report::StoredResult stored;
  stored.assay = "pcr";
  stored.result = healthy;
  ilp::SolveCounters& c = stored.result.milp;
  c.nodes = 101;
  c.lp_iterations = 102;
  c.lp.iterations = 103;
  c.lp.primal_pivots = 104;
  c.lp.dual_pivots = 105;
  c.lp.bound_flips = 106;
  c.lp.refactorizations = 107;
  c.lp.warm_solves = 108;
  c.lp.cold_solves = 109;
  c.lp.lu_refactorizations = 110;
  c.lp.eta_pivots = 111;
  c.lp.eta_nnz = 112;
  c.lp.lu_fill_nnz = 113;
  c.lp.lu_basis_nnz = 114;
  c.lp.devex_resets = 115;
  c.cuts.gomory_generated = 116;
  c.cuts.cover_generated = 117;
  c.cuts.applied = 118;
  c.cuts.retained = 119;
  c.cuts.rounds = 120;
  c.impact_branch_decisions = 121;
  c.pseudocost_branch_decisions = 122;
  c.arena_bytes = 123;
  // Not stored: per-run worker telemetry and two internal counters.
  c.lp.rows_appended = 124;
  c.cuts.aged_out = 125;
  c.threads = 126;
  c.steals = 127;
  c.idle_seconds = 1.5;
  return stored;
}

TEST_F(EngineTest, StoredResultRoundTripsEverySolverCounter) {
  const report::StoredResult stored = with_distinct_solver_counters(*healthy_);
  const report::StoredResult loaded =
      report::stored_result_from_json(report::stored_result_to_json(stored));
  ilp::SolveCounters expected = stored.result.milp;
  expected.lp.rows_appended = 0;
  expected.cuts.aged_out = 0;
  expected.threads = 0;
  expected.steals = 0;
  expected.idle_seconds = 0.0;
  EXPECT_EQ(loaded.result.milp, expected);
}

TEST_F(EngineTest, StoredResultRequiresOnlyTheOriginalSolverKeys) {
  // The first nine solver keys date from the format's first version and are
  // required; the later ones are absent from older documents and load as 0.
  const std::string json =
      report::stored_result_to_json(with_distinct_solver_counters(*healthy_));
  const auto without = [&json](const std::string& entry) {
    std::string edited = json;
    const std::size_t at = edited.find(entry);
    EXPECT_NE(at, std::string::npos) << entry;
    if (at != std::string::npos) edited.erase(at, entry.size());
    return edited;
  };
  EXPECT_THROW(report::stored_result_from_json(without("\"nodes\": 101, ")), Error);
  const report::StoredResult legacy =
      report::stored_result_from_json(without(", \"arena_bytes\": 123"));
  EXPECT_EQ(legacy.result.milp.arena_bytes, 0);
  EXPECT_EQ(legacy.result.milp.pseudocost_branch_decisions, 122);
}

}  // namespace
}  // namespace fsyn::rel
