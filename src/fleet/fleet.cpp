#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "obs/trace.hpp"
#include "rel/engine.hpp"
#include "sched/list_scheduler.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace fsyn::fleet {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

const char* to_string(ChipState state) {
  switch (state) {
    case ChipState::kHealthy: return "healthy";
    case ChipState::kDegraded: return "degraded";
    case ChipState::kRepaired: return "repaired";
    case ChipState::kRetired: return "retired";
  }
  return "?";
}

FleetReport run_fleet(const assay::SequencingGraph& graph, const FleetOptions& options) {
  check_input(options.chips > 0, "fleet needs at least one chip");
  check_input(options.cadence > 0, "fleet cadence must be >= 1");
  check_input(options.horizon > 0, "fleet horizon must be >= 1");
  check_input(options.repair_workers > 0, "fleet needs at least one repair worker");
  check_input(options.max_repairs_per_chip >= 0, "max repairs per chip must be >= 0");

  obs::Span span("fleet", "run");
  if (span.active()) {
    span.arg("assay", graph.name());
    span.arg("chips", options.chips);
    span.arg("horizon", options.horizon);
  }
  const Clock::time_point started = Clock::now();

  const sched::Schedule schedule =
      sched::schedule_for(graph, options.asap, options.policy_increments);

  synth::SynthesisOptions base = options.synthesis;
  if (!base.cancel.valid()) base.cancel = options.cancel;
  const synth::SynthesisResult healthy = synth::synthesize(graph, schedule, base);

  const TestSchedule self_test = compile_self_test(healthy.chip_width, healthy.chip_height);
  const Grid<int> test_wear =
      self_test.to_control_program().replay(healthy.chip_width, healthy.chip_height);
  const TestResponse expected =
      expected_response(self_test, options.chip.nominal_response_ms);

  // The private repair service.  Repairs must NOT go through the service
  // running the fleet job itself: a pooled job waiting on work queued
  // behind it deadlocks.  Capacity covers a whole fleet-wide fault wave.
  svc::BatchService::Config repair_config;
  repair_config.workers = options.repair_workers;
  repair_config.queue_capacity =
      std::max<std::size_t>(64, static_cast<std::size_t>(options.chips) * 2);
  svc::BatchService repair_service(repair_config);

  FleetReport report;
  report.assay = graph.name();
  report.policy_increments = options.policy_increments;
  report.asap = options.asap;
  report.chip_width = healthy.chip_width;
  report.chip_height = healthy.chip_height;
  report.seed = options.seed;
  report.chips = options.chips;
  report.cadence = options.cadence;
  report.horizon = options.horizon;
  report.runs_possible =
      static_cast<long>(options.chips) * static_cast<long>(options.horizon);

  struct Runtime {
    ChipState state = ChipState::kHealthy;
    std::vector<Point> dead;  ///< every diagnosed cell, fed to re-synthesis
    std::map<Point, FaultRecord> detected;
    synth::Placement previous;
    int repairs = 0;
  };
  std::vector<VirtualChip> chips;
  chips.reserve(static_cast<std::size_t>(options.chips));
  std::vector<Runtime> runtimes(static_cast<std::size_t>(options.chips));
  for (int c = 0; c < options.chips; ++c) {
    chips.emplace_back(options.seed, c, healthy, options.chip);
    runtimes[static_cast<std::size_t>(c)].previous = healthy.placement;
  }

  obs::LatencyHistogram diagnosis_latency;
  obs::LatencyHistogram repair_latency;

  for (int run = 1; run <= options.horizon; ++run) {
    options.cancel.check("fleet horizon loop");

    for (int c = 0; c < options.chips; ++c) {
      VirtualChip& chip = chips[static_cast<std::size_t>(c)];
      if (runtimes[static_cast<std::size_t>(c)].state == ChipState::kRetired) continue;
      chip.advance_run();
      ++report.assay_runs;
      if (!chip.has_active_fault()) ++report.runs_available;
    }
    if (run % options.cadence != 0) continue;

    // Self-test sweep: diagnose every chip in service, submit all repairs,
    // then collect them in chip-index order — the per-step barrier that
    // keeps the run deterministic regardless of worker interleaving.
    struct PendingRepair {
      int chip = 0;
      std::future<svc::JobResult> future;
    };
    std::vector<PendingRepair> pending;

    for (int c = 0; c < options.chips; ++c) {
      Runtime& runtime = runtimes[static_cast<std::size_t>(c)];
      VirtualChip& chip = chips[static_cast<std::size_t>(c)];
      if (runtime.state == ChipState::kRetired) continue;

      chip.apply_test_wear(test_wear);
      ++report.self_tests;
      const TestResponse observed = chip.respond(self_test);
      const Clock::time_point diag_started = Clock::now();
      const Diagnosis diagnosis = diagnose(self_test, expected, observed, options.diagnosis);
      diagnosis_latency.record(Clock::now() - diag_started);

      if (!diagnosis.degraded.empty()) ++report.degraded_warnings;

      // Only *new* findings act: cells already retired from service by an
      // earlier repair keep failing their test lines forever.
      std::vector<DiagnosedFault> fresh;
      for (const DiagnosedFault& fault : diagnosis.stuck) {
        if (std::find(runtime.dead.begin(), runtime.dead.end(), fault.valve) ==
            runtime.dead.end()) {
          fresh.push_back(fault);
        }
      }
      if (fresh.empty()) continue;

      // Reconcile with the oracle for metrics only (detection latency,
      // false positives); the repair uses just the diagnosed cells.
      const std::vector<ChipFault> oracle = chip.faults();
      for (const DiagnosedFault& fault : fresh) {
        const auto hit =
            std::find_if(oracle.begin(), oracle.end(),
                         [&](const ChipFault& f) { return f.valve == fault.valve; });
        if (hit == oracle.end()) {
          ++report.false_positives;
          continue;
        }
        if (runtime.detected.count(fault.valve) > 0) continue;
        FaultRecord record;
        record.chip = c;
        record.valve = fault.valve;
        record.mode = hit->mode;
        record.onset_run = hit->onset_run;
        record.detected_run = run;
        record.aliased = fault.aliased;
        ++report.faults_detected;
        report.detection_latency_runs += run - hit->onset_run;
        runtime.detected.emplace(fault.valve, record);
      }
      for (const DiagnosedFault& fault : fresh) runtime.dead.push_back(fault.valve);

      runtime.state = ChipState::kDegraded;
      if (runtime.repairs >= options.max_repairs_per_chip) {
        runtime.state = ChipState::kRetired;
        log_info("fleet: chip ", c, " retired at run ", run,
                 " (repair budget exhausted)");
        continue;
      }

      // Live degraded re-synthesis: pin the manufactured matrix, thread the
      // accumulated dead set, and warm-start from the chip's current
      // placement minimally repaired for the degraded problem.
      svc::JobSpec spec;
      spec.kind = svc::JobKind::kSynthesis;
      spec.priority = svc::JobPriority::kBackground;
      spec.name = "repair chip " + std::to_string(c) + " @" + std::to_string(run);
      spec.graph = graph;
      spec.policy_increments = options.policy_increments;
      spec.asap = options.asap;
      rel::RepairSetup setup = rel::prepare_repair(graph, schedule, base, healthy.chip_width,
                                                   runtime.dead, runtime.previous);
      spec.options = std::move(setup.options);
      if (setup.warm_started) ++report.repairs_warm_started;
      ++report.repairs_attempted;
      PendingRepair item;
      item.chip = c;
      item.future = repair_service.submit(std::move(spec));
      pending.push_back(std::move(item));
    }

    for (PendingRepair& item : pending) {
      svc::JobResult result = item.future.get();
      Runtime& runtime = runtimes[static_cast<std::size_t>(item.chip)];
      repair_latency.record_seconds(result.run_seconds);
      if (result.status == svc::JobStatus::kDone) {
        chips[static_cast<std::size_t>(item.chip)].install(*result.result);
        runtime.previous = result.result->placement;
        runtime.state = ChipState::kRepaired;
        ++runtime.repairs;
        ++report.repairs_succeeded;
      } else if (result.status == svc::JobStatus::kCancelled) {
        throw CancelledError(result.error);
      } else {
        runtime.state = ChipState::kRetired;
        log_info("fleet: chip ", item.chip, " retired at run ", run, ": ", result.error);
      }
    }
  }

  // End-of-horizon reconciliation: every stuck cell either made it into the
  // detected map or is a missed fault (censored by the horizon — a longer
  // run might still have caught it at a later self-test).
  for (int c = 0; c < options.chips; ++c) {
    const Runtime& runtime = runtimes[static_cast<std::size_t>(c)];
    for (const ChipFault& fault : chips[static_cast<std::size_t>(c)].faults()) {
      ++report.faults_occurred;
      const auto hit = runtime.detected.find(fault.valve);
      if (hit != runtime.detected.end()) {
        report.fault_log.push_back(hit->second);
      } else {
        FaultRecord record;
        record.chip = c;
        record.valve = fault.valve;
        record.mode = fault.mode;
        record.onset_run = fault.onset_run;
        record.detected_run = -1;
        ++report.faults_missed;
        report.fault_log.push_back(record);
      }
    }
    switch (runtime.state) {
      case ChipState::kHealthy: ++report.chips_healthy; break;
      case ChipState::kDegraded: ++report.chips_degraded; break;
      case ChipState::kRepaired: ++report.chips_repaired; break;
      case ChipState::kRetired: ++report.chips_retired; break;
    }
  }

  report.diagnosis_latency = diagnosis_latency.snapshot();
  report.repair_latency = repair_latency.snapshot();
  report.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  if (span.active()) {
    span.arg("faults_detected", report.faults_detected);
    span.arg("repairs_succeeded", report.repairs_succeeded);
    span.arg("chips_retired", report.chips_retired);
  }
  return report;
}

std::string FleetReport::to_json(bool include_timing) const {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\n";
  os << "  \"format\": \"flowsynth-fleet-v1\",\n";
  os << "  \"assay\": " << json_quote(assay) << ",\n";
  os << "  \"policy_increments\": " << policy_increments << ",\n";
  os << "  \"asap\": " << (asap ? "true" : "false") << ",\n";
  os << "  \"chip\": {\"width\": " << chip_width << ", \"height\": " << chip_height << "},\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"chips\": " << chips << ",\n";
  os << "  \"cadence\": " << cadence << ",\n";
  os << "  \"horizon\": " << horizon << ",\n";
  os << "  \"assay_runs\": " << assay_runs << ",\n";
  os << "  \"self_tests\": " << self_tests << ",\n";
  os << "  \"faults\": {\"occurred\": " << faults_occurred << ", \"detected\": "
     << faults_detected << ", \"missed\": " << faults_missed
     << ", \"false_positives\": " << false_positives << "},\n";
  os << "  \"repairs\": {\"attempted\": " << repairs_attempted << ", \"succeeded\": "
     << repairs_succeeded << ", \"warm_started\": " << repairs_warm_started
     << ", \"success_rate\": "
     << (repairs_attempted > 0
             ? static_cast<double>(repairs_succeeded) /
                   static_cast<double>(repairs_attempted)
             : 0.0)
     << "},\n";
  os << "  \"chips_by_state\": {\"healthy\": " << chips_healthy << ", \"degraded\": "
     << chips_degraded << ", \"repaired\": " << chips_repaired << ", \"retired\": "
     << chips_retired << "},\n";
  os << "  \"degraded_warnings\": " << degraded_warnings << ",\n";
  os << "  \"detection_latency_runs\": " << detection_latency_runs << ",\n";
  os << "  \"mean_detection_latency_runs\": " << mean_detection_latency_runs() << ",\n";
  os << "  \"runs_available\": " << runs_available << ",\n";
  os << "  \"runs_possible\": " << runs_possible << ",\n";
  os << "  \"availability\": " << availability() << ",\n";
  os << "  \"fault_log\": [";
  for (std::size_t i = 0; i < fault_log.size(); ++i) {
    const FaultRecord& record = fault_log[i];
    if (i > 0) os << ',';
    os << "\n    {\"chip\": " << record.chip << ", \"valve\": [" << record.valve.x
       << ", " << record.valve.y << "], \"mode\": \"" << rel::to_string(record.mode)
       << "\", \"onset_run\": " << record.onset_run << ", \"detected_run\": "
       << record.detected_run << ", \"missed\": " << (record.missed() ? "true" : "false")
       << ", \"aliased\": " << (record.aliased ? "true" : "false") << '}';
  }
  if (!fault_log.empty()) os << "\n  ";
  os << "]";
  if (include_timing) {
    os << ",\n  \"timing\": {\"elapsed_seconds\": " << elapsed_seconds
       << ", \"diagnosis_latency\": " << diagnosis_latency.to_json()
       << ", \"repair_latency\": " << repair_latency.to_json() << "}";
  }
  os << "\n}\n";
  return os.str();
}

svc::JobSpec make_fleet_job(std::shared_ptr<const assay::SequencingGraph> graph,
                            const FleetOptions& options) {
  check_input(graph != nullptr, "fleet job needs a sequencing graph");
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kFleet;
  spec.priority = svc::JobPriority::kBatch;
  spec.name = "fleet " + graph->name();
  spec.fleet_runner = [graph, options](const CancelToken& token, svc::FleetStats* stats) {
    FleetOptions run_options = options;
    run_options.cancel = token;
    const FleetReport report = run_fleet(*graph, run_options);
    if (stats != nullptr) *stats = report;
    return report.to_json();
  };
  return spec;
}

}  // namespace fsyn::fleet
