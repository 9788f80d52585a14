// Tests for src/fleet: walk-pattern self-test structure and wear
// accounting, exhaustive single-fault diagnosis sweeps, the documented
// multi-fault aliasing limitation, degraded-valve early warning, fault-plan
// validation, and the closed loop end to end — injected degradation found
// by the self-test alone (never the oracle), repaired via warm-started
// re-synthesis, with the metrics visible through the service registry and
// bit-identical reports at a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "assay/benchmarks.hpp"
#include "fleet/diagnosis.hpp"
#include "fleet/fleet.hpp"
#include "fleet/test_pattern.hpp"
#include "fleet/virtual_chip.hpp"
#include "rel/fault_plan.hpp"
#include "sched/list_scheduler.hpp"
#include "svc/service.hpp"
#include "synth/synthesis.hpp"

namespace fsyn::fleet {
namespace {

// ----------------------------------------------------------- test patterns

TEST(TestPattern, WalkScheduleCoversEveryCellInFourVectors) {
  const TestSchedule schedule = compile_self_test(5, 4);
  EXPECT_EQ(5, schedule.width);
  EXPECT_EQ(4, schedule.height);
  // Closure rows+cols then opening rows+cols: 2 * (4 + 5) vectors.
  ASSERT_EQ(18u, schedule.vectors.size());

  Grid<int> touched(5, 4, 0);
  for (const TestVector& vector : schedule.vectors) {
    for (const Point& cell : vector.cells) touched.at(cell.x, cell.y) += 1;
  }
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 5; ++x) EXPECT_EQ(4, touched.at(x, y)) << x << "," << y;
  }
}

TEST(TestPattern, ControlProgramReplayMatchesActuationsPerCell) {
  const TestSchedule schedule = compile_self_test(4, 3);
  const Grid<int> wear = schedule.to_control_program().replay(4, 3);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_EQ(schedule.actuations_per_cell(), wear.at(x, y));
    }
  }
}

TEST(TestPattern, ExpectedResponseAllPassAtNominal) {
  const TestSchedule schedule = compile_self_test(3, 3);
  const TestResponse expected = expected_response(schedule, 5.0);
  ASSERT_EQ(schedule.vectors.size(), expected.vectors.size());
  for (const VectorResponse& response : expected.vectors) {
    EXPECT_TRUE(response.pass);
    EXPECT_DOUBLE_EQ(5.0, response.latency_ms);
  }
}

// -------------------------------------------------------------- diagnosis

/// Shared healthy mapping: synthesized once, reused by every chip test.
class DiagnosisTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new assay::SequencingGraph(assay::make_benchmark("pcr"));
    schedule_ = new sched::Schedule(sched::schedule_asap(*graph_));
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

  VirtualChip make_chip() const { return VirtualChip(7, 0, *healthy_, {}); }

  static assay::SequencingGraph* graph_;
  static sched::Schedule* schedule_;
  static synth::SynthesisResult* healthy_;
};

assay::SequencingGraph* DiagnosisTest::graph_ = nullptr;
sched::Schedule* DiagnosisTest::schedule_ = nullptr;
synth::SynthesisResult* DiagnosisTest::healthy_ = nullptr;

TEST_F(DiagnosisTest, ExhaustiveSingleFaultSweepLocalizesExactly) {
  // Every cell of the matrix, in both stuck modes: the self-test response
  // alone must name exactly that valve, unaliased, with the right mode.
  const int width = healthy_->chip_width;
  const int height = healthy_->chip_height;
  const TestSchedule schedule = compile_self_test(width, height);
  const TestResponse expected = expected_response(schedule, 5.0);
  for (const rel::FaultMode mode :
       {rel::FaultMode::kStuckOpen, rel::FaultMode::kStuckClosed}) {
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        VirtualChip chip = make_chip();
        chip.force_fault({x, y}, mode);
        const Diagnosis diagnosis = diagnose(schedule, expected, chip.respond(schedule));
        ASSERT_EQ(1u, diagnosis.stuck.size()) << x << "," << y;
        EXPECT_EQ(Point(x, y), diagnosis.stuck[0].valve);
        EXPECT_EQ(mode, diagnosis.stuck[0].mode);
        EXPECT_FALSE(diagnosis.stuck[0].aliased);
        EXPECT_TRUE(diagnosis.degraded.empty());
      }
    }
  }
}

TEST_F(DiagnosisTest, TwoFaultsSharingALineLocalizeExactly) {
  // Same row: the row vector fails once but two distinct columns fail, so
  // the cross product is exactly the two true cells.
  VirtualChip chip = make_chip();
  chip.force_fault({1, 2}, rel::FaultMode::kStuckOpen);
  chip.force_fault({4, 2}, rel::FaultMode::kStuckOpen);
  const TestSchedule schedule = compile_self_test(chip.width(), chip.height());
  const TestResponse expected = expected_response(schedule, 5.0);
  const Diagnosis diagnosis = diagnose(schedule, expected, chip.respond(schedule));
  ASSERT_EQ(2u, diagnosis.stuck.size());
  std::set<Point> found;
  for (const DiagnosedFault& fault : diagnosis.stuck) {
    EXPECT_FALSE(fault.aliased);
    found.insert(fault.valve);
  }
  EXPECT_EQ((std::set<Point>{{1, 2}, {4, 2}}), found);
}

TEST_F(DiagnosisTest, DiagonalFaultPairAliasesToFourCellSuperset) {
  // The documented walk-pattern limitation: two faults at distinct rows AND
  // distinct columns are indistinguishable from their 4-cell cross product.
  // The candidates are flagged aliased and must include both true faults.
  VirtualChip chip = make_chip();
  chip.force_fault({1, 1}, rel::FaultMode::kStuckClosed);
  chip.force_fault({3, 4}, rel::FaultMode::kStuckClosed);
  const TestSchedule schedule = compile_self_test(chip.width(), chip.height());
  const TestResponse expected = expected_response(schedule, 5.0);
  const Diagnosis diagnosis = diagnose(schedule, expected, chip.respond(schedule));
  ASSERT_EQ(4u, diagnosis.stuck.size());
  std::set<Point> candidates;
  for (const DiagnosedFault& fault : diagnosis.stuck) {
    EXPECT_TRUE(fault.aliased);
    EXPECT_EQ(rel::FaultMode::kStuckClosed, fault.mode);
    candidates.insert(fault.valve);
  }
  EXPECT_EQ((std::set<Point>{{1, 1}, {1, 4}, {3, 1}, {3, 4}}), candidates);
}

TEST_F(DiagnosisTest, DegradedValveRaisesLatencyWarningBeforeSticking) {
  VirtualChip chip = make_chip();
  chip.force_wear_fraction({2, 3}, 0.9);  // past degrade_fraction, below life
  const TestSchedule schedule = compile_self_test(chip.width(), chip.height());
  const TestResponse expected = expected_response(schedule, 5.0);
  const Diagnosis diagnosis = diagnose(schedule, expected, chip.respond(schedule));
  EXPECT_TRUE(diagnosis.stuck.empty());
  ASSERT_EQ(1u, diagnosis.degraded.size());
  EXPECT_EQ(Point(2, 3), diagnosis.degraded[0]);
}

TEST_F(DiagnosisTest, ToFaultPlanCarriesDiagnosedCellsAtRun) {
  VirtualChip chip = make_chip();
  chip.force_fault({0, 5}, rel::FaultMode::kStuckOpen);
  const TestSchedule schedule = compile_self_test(chip.width(), chip.height());
  const TestResponse expected = expected_response(schedule, 5.0);
  const Diagnosis diagnosis = diagnose(schedule, expected, chip.respond(schedule));
  const rel::FaultPlan plan = diagnosis.to_fault_plan(120);
  ASSERT_EQ(1u, plan.events.size());
  EXPECT_EQ(Point(0, 5), plan.events[0].valve);
  EXPECT_EQ(rel::FaultMode::kStuckOpen, plan.events[0].mode);
  EXPECT_EQ(120, plan.events[0].at_run);
  EXPECT_NO_THROW(plan.validate(chip.width(), chip.height()));
}

TEST_F(DiagnosisTest, VirtualChipIsDeterministicInSeedChipAndValve) {
  VirtualChip a(2015, 3, *healthy_, {});
  VirtualChip b(2015, 3, *healthy_, {});
  for (int run = 0; run < 400; ++run) {
    a.advance_run();
    b.advance_run();
  }
  const std::vector<ChipFault> fa = a.faults();
  const std::vector<ChipFault> fb = b.faults();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].valve, fb[i].valve);
    EXPECT_EQ(fa[i].mode, fb[i].mode);
    EXPECT_EQ(fa[i].onset_run, fb[i].onset_run);
  }
}

// ------------------------------------------------------------- fault plans

TEST(FaultPlanValidation, RejectsDuplicateEvents) {
  try {
    rel::FaultPlan::parse("4,5@120:closed;4,5@120:open");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos) << e.what();
  }
  // Same valve at different runs is fine (modes can even change).
  EXPECT_NO_THROW(rel::FaultPlan::parse("4,5@120:closed;4,5@260:open"));
}

TEST(FaultPlanValidation, RejectsNegativeCoordinates) {
  EXPECT_THROW(rel::FaultPlan::parse("-1,5"), Error);
  EXPECT_THROW(rel::FaultPlan::parse("4,-2@7"), Error);
}

TEST(FaultPlanValidation, ValidateNamesOutOfGridValves) {
  const rel::FaultPlan plan = rel::FaultPlan::parse("4,5;9,2");
  EXPECT_NO_THROW(plan.validate(10, 10));
  try {
    plan.validate(9, 9);  // 9,2 is outside a 9x9 matrix
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("9,2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("9x9"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------------------- closed loop

FleetOptions small_fleet_options() {
  FleetOptions options;
  options.chips = 4;
  options.cadence = 5;
  options.horizon = 40;
  options.seed = 2015;
  options.repair_workers = 2;
  options.synthesis.heuristic.seed = 2015;
  return options;
}

TEST(ClosedLoop, DetectsDiagnosesRepairsAndReports) {
  // End-to-end acceptance: chips wear out under the hidden Weibull model,
  // the periodic self-test (not the oracle) finds the stuck valves, and
  // warm-started degraded re-synthesis puts the chips back in service.
  const assay::SequencingGraph graph = assay::make_benchmark("pcr");
  const FleetReport report = run_fleet(graph, small_fleet_options());

  EXPECT_EQ(4, report.chips);
  EXPECT_EQ(160, report.runs_possible);
  EXPECT_GT(report.assay_runs, 0);
  EXPECT_GT(report.self_tests, 0);
  // The default model wears pcr chips out well inside 40 runs.
  EXPECT_GT(report.faults_occurred, 0);
  EXPECT_GT(report.faults_detected, 0);
  EXPECT_GT(report.repairs_attempted, 0);
  EXPECT_GT(report.repairs_succeeded, 0);
  EXPECT_GT(report.repairs_warm_started, 0);
  EXPECT_GT(report.availability(), 0.0);
  EXPECT_LE(report.availability(), 1.0);
  EXPECT_GE(report.mean_detection_latency_runs(), 0.0);
  // Detection can never precede onset, and a detected fault's latency is
  // bounded by the cadence (the next self-test after onset, fresh findings
  // excepted by aliasing).
  for (const FaultRecord& record : report.fault_log) {
    if (record.missed()) continue;
    EXPECT_GE(record.detected_run, record.onset_run);
  }
  EXPECT_EQ(report.faults_occurred, report.faults_detected + report.faults_missed);
  EXPECT_EQ(static_cast<std::size_t>(report.faults_occurred), report.fault_log.size());

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"format\": \"flowsynth-fleet-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_detection_latency_runs\""), std::string::npos);
  EXPECT_NE(json.find("\"availability\""), std::string::npos);
  EXPECT_NE(json.find("\"success_rate\""), std::string::npos);
  // Timing stays out of the default document (bit-identical reruns).
  EXPECT_EQ(json.find("\"timing\""), std::string::npos);
  EXPECT_NE(report.to_json(/*include_timing=*/true).find("\"timing\""),
            std::string::npos);
}

TEST(ClosedLoop, DoubleRunIsBitIdenticalAtFixedSeed) {
  const assay::SequencingGraph graph = assay::make_benchmark("pcr");
  const FleetReport first = run_fleet(graph, small_fleet_options());
  const FleetReport second = run_fleet(graph, small_fleet_options());
  EXPECT_EQ(first.to_json(), second.to_json());

  FleetOptions other = small_fleet_options();
  other.seed = 7;
  EXPECT_NE(first.to_json(), run_fleet(graph, other).to_json());
}

TEST(ClosedLoop, CancellationAbortsTheHorizonLoop) {
  CancelSource source;
  source.cancel();
  FleetOptions options = small_fleet_options();
  options.cancel = source.token();
  const assay::SequencingGraph graph = assay::make_benchmark("pcr");
  EXPECT_THROW(run_fleet(graph, options), CancelledError);
}

TEST(ClosedLoop, FleetJobRunsThroughServiceWithMetrics) {
  // The kFleet service path: the job document is the fleet report, and the
  // registry's fleet counters land in both metrics serializations.
  auto graph =
      std::make_shared<const assay::SequencingGraph>(assay::make_benchmark("pcr"));
  svc::JobSpec spec = make_fleet_job(graph, small_fleet_options());
  EXPECT_EQ(svc::JobKind::kFleet, spec.kind);
  EXPECT_EQ(svc::JobPriority::kBatch, spec.priority);

  svc::BatchService::Config config;
  config.workers = 1;
  svc::BatchService service(config);
  const svc::JobResult result = service.submit(std::move(spec)).get();
  ASSERT_EQ(svc::JobStatus::kDone, result.status);
  EXPECT_EQ("fleet", result.winner);
  ASSERT_NE(nullptr, result.document);
  EXPECT_NE(result.document->find("\"format\": \"flowsynth-fleet-v1\""),
            std::string::npos);

  const svc::MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(1, metrics.fleet_jobs);
  EXPECT_EQ(4, metrics.fleet.chips);
  EXPECT_GT(metrics.fleet.assay_runs, 0);
  EXPECT_GT(metrics.fleet.faults_detected, 0);
  EXPECT_GT(metrics.fleet.repairs_succeeded, 0);
  EXPECT_GT(metrics.fleet.runs_possible, 0);
  // Fleet runs are bit-identical, so a rerun's counters are exactly what
  // the job folded into the registry.
  const FleetReport rerun = run_fleet(*graph, small_fleet_options());
  EXPECT_EQ(metrics.fleet, static_cast<const svc::FleetStats&>(rerun));

  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"availability\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_detection_latency_runs\""), std::string::npos);

  const std::string prometheus = metrics.to_prometheus();
  EXPECT_NE(prometheus.find("flowsynth_fleet_jobs_total"), std::string::npos);
  EXPECT_NE(prometheus.find("flowsynth_fleet_faults_total"), std::string::npos);
  EXPECT_NE(prometheus.find("flowsynth_fleet_availability"), std::string::npos);
  EXPECT_NE(prometheus.find("stage=\"fleet\""), std::string::npos);
}

}  // namespace
}  // namespace fsyn::fleet
