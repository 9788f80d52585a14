// End-to-end synthesis tests: Algorithm 1 on all benchmarks, metric
// relations between the two settings, ablations, ILP mode, determinism and
// the chip-size sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/synthesis.hpp"

namespace fsyn::synth {
namespace {

SynthesisOptions fast_options() {
  SynthesisOptions options;
  options.heuristic.sa_iterations = 4000;
  options.chip_sweep = 1;
  return options;
}

TEST(Synthesis, PcrMatchesPaperShape) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  const SynthesisResult r = synthesize(g, schedule);
  // Paper Table 1 row 1: vs1 45(40), vs2 35(30), #v 71.  Absolute control
  // actuations depend on routing details; the pump parts are exact.
  EXPECT_EQ(r.vs1_pump, 40);
  EXPECT_EQ(r.vs2_pump, 30);
  EXPECT_LE(r.vs1_max, 55);
  EXPECT_LE(r.vs2_max, 45);
  EXPECT_GT(r.valve_count, 40);
  EXPECT_LT(r.valve_count, 110);
}

class SynthesisEveryBenchmark : public ::testing::TestWithParam<const char*> {};

TEST_P(SynthesisEveryBenchmark, ProducesValidMetrics) {
  const auto g = assay::make_benchmark(GetParam());
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 1));
  const SynthesisResult r = synthesize(g, schedule, fast_options());

  EXPECT_GE(r.vs1_max, r.vs1_pump);
  EXPECT_GE(r.vs2_max, r.vs2_pump);
  EXPECT_GE(r.vs1_pump, 40);              // at least one full mixing op
  EXPECT_EQ(r.vs1_pump % 40, 0);          // multiples of p_i in setting 1
  EXPECT_LE(r.vs2_pump, r.vs1_pump);      // rescaling lowers per-valve work
  EXPECT_GT(r.valve_count, 0);
  EXPECT_LE(r.valve_count, r.chip_width * r.chip_height);
  EXPECT_TRUE(r.routing.success);
  EXPECT_EQ(static_cast<int>(r.placement.size()),
            g.count(assay::OpKind::kMix) + g.count(assay::OpKind::kDetect));
}

INSTANTIATE_TEST_SUITE_P(AllCases, SynthesisEveryBenchmark,
                         ::testing::Values("pcr", "mixing_tree", "interpolating_dilution",
                                           "exponential_dilution"),
                         [](const auto& info) { return std::string(info.param); });

TEST(Synthesis, BeatsTraditionalOnEveryBenchmark) {
  // The headline claim: the largest number of valve actuations is reduced
  // versus the optimally-bound traditional design in every tested row.
  struct Spec {
    const char* name;
    int increments;
    int vs_tmax;
  };
  const Spec specs[] = {{"pcr", 0, 160},
                        {"mixing_tree", 0, 280},
                        {"interpolating_dilution", 1, 360},
                        {"exponential_dilution", 3, 320}};
  for (const Spec& spec : specs) {
    const auto g = assay::make_benchmark(spec.name);
    const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, spec.increments));
    const SynthesisResult r = synthesize(g, schedule, fast_options());
    EXPECT_LT(r.vs1_max, spec.vs_tmax) << spec.name;
    EXPECT_LT(r.vs2_max, r.vs1_max + 1) << spec.name;
  }
}

TEST(Synthesis, DeterministicForFixedSeed) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  const SynthesisResult a = synthesize(g, schedule, fast_options());
  const SynthesisResult b = synthesize(g, schedule, fast_options());
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.vs1_max, b.vs1_max);
  EXPECT_EQ(a.valve_count, b.valve_count);
}

TEST(Synthesis, ExplicitGridSizeIsHonored) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  SynthesisOptions options = fast_options();
  options.grid_size = 12;
  options.max_chip_growth = 0;
  const SynthesisResult r = synthesize(g, schedule, options);
  EXPECT_EQ(r.chip_width, 12);
  EXPECT_EQ(r.chip_height, 12);
}

TEST(Synthesis, ThrowsWhenChipCannotFit) {
  const auto g = assay::make_interpolating_dilution();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 1));
  SynthesisOptions options = fast_options();
  options.grid_size = 8;  // far too small for 39 tasks
  options.max_chip_growth = 0;
  options.heuristic.greedy_retries = 1;
  EXPECT_THROW(synthesize(g, schedule, options), Error);
}

TEST(Synthesis, StorageOverlapAblationNeedsMoreArea) {
  // Disabling in-situ storage overlap forces strictly disjoint regions:
  // the smallest feasible chip cannot shrink below the paper configuration.
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  SynthesisOptions with = fast_options();
  SynthesisOptions without = fast_options();
  without.allow_storage_overlap = false;
  const SynthesisResult r_with = synthesize(g, schedule, with);
  const SynthesisResult r_without = synthesize(g, schedule, without);
  EXPECT_GE(r_without.chip_width, r_with.chip_width);
  // Both still beat the traditional 160.
  EXPECT_LT(r_without.vs1_max, 160);
}

TEST(Synthesis, RoutingConvenienceAblationAllowsSpread) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  SynthesisOptions options = fast_options();
  options.routing_convenient = false;
  const SynthesisResult r = synthesize(g, schedule, options);
  EXPECT_TRUE(r.routing.success);
  EXPECT_EQ(r.vs1_pump, 40);
}

TEST(Synthesis, IlpModeOnSmallAssay) {
  // A two-mix assay the exact solver can close quickly; Algorithm 1's
  // refinement loop and warm start go through the ILP path.
  const auto g = assay::parse_assay(R"(
assay tiny
input  i1
input  i2
input  i3
mix    a volume 8 duration 6 from i1 i2
mix    b volume 8 duration 6 from a i3
)");
  const auto schedule = sched::schedule_asap(g);
  SynthesisOptions options;
  options.mapper = MapperKind::kIlp;
  options.grid_size = 7;
  options.max_chip_growth = 0;
  options.ilp.time_limit_seconds = 60.0;
  const SynthesisResult r = synthesize(g, schedule, options);
  EXPECT_EQ(r.vs1_pump, 40);
  EXPECT_TRUE(r.routing.success);
}

/// A default-options synthesis of one benchmark row, traced: the result,
/// the sweep's first size (the sized_for estimate) and the sides of the
/// chip-size attempts that completed and of those that were cancelled, in
/// the order they started.  Cached per row, since these are the sweep's
/// slowest cases.
struct TracedSweep {
  SynthesisResult result;
  int estimate = 0;
  std::vector<int> completed;
  std::vector<int> cancelled;
};

int side_of(const obs::TraceEvent& e) {
  const std::size_t side = e.args.find("\"side\":");
  return side == std::string::npos ? -1 : std::stoi(e.args.substr(side + 7));
}

bool is_attempt(const obs::TraceEvent& e) {
  return std::string_view(e.category) == "synth" && e.name == "attempt";
}

const TracedSweep& traced_sweep(const std::string& name, int increments) {
  static std::map<std::pair<std::string, int>, TracedSweep> cache;
  const auto key = std::make_pair(name, increments);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;

  const auto g = assay::make_benchmark(name);
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, increments));
  const SynthesisOptions options;
  TracedSweep sweep;
  sweep.estimate = arch::Architecture::sized_for(g, schedule, options.chip_slack).width();
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.drain();
  tracer.enable();
  sweep.result = synthesize(g, schedule, options);
  tracer.disable();
  for (const obs::TraceEvent& e : tracer.drain()) {
    if (!is_attempt(e)) continue;
    const bool cancelled = e.args.find("\"cancelled\":true") != std::string::npos;
    (cancelled ? sweep.cancelled : sweep.completed).push_back(side_of(e));
  }
  return cache.emplace(key, std::move(sweep)).first->second;
}

std::vector<int> sorted(std::vector<int> sides) {
  std::sort(sides.begin(), sides.end());
  return sides;
}

/// Attempts one default-options synthesize() call runs at once.
int in_flight_bound() {
  const int hardware = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(hardware, SynthesisOptions{}.chip_sweep + 1);
}

TEST(Synthesis, EachChipSizeIsAttemptedOnce) {
  // Attempts run concurrently, so their order is not defined; the set is.
  // interpolating_dilution, 2 increments: the estimate 12 and 13 fail, 14
  // is the first feasible size, then 15-17.  Every size that failed on the
  // way up stays failed, so nothing is probed below 14 and nothing is
  // cancelled.
  const TracedSweep& interpolating = traced_sweep("interpolating_dilution", 2);
  EXPECT_EQ(interpolating.estimate, 12);
  EXPECT_EQ(sorted(interpolating.completed), (std::vector<int>{12, 13, 14, 15, 16, 17}));
  EXPECT_TRUE(interpolating.cancelled.empty());

  // exponential_dilution, 5 increments: the estimate 20 succeeds, so the
  // sweep probes downward to 9, its first failing size (routing fails
  // there), and tries 21-23.  Probes run ahead of the sweep, so one below 9
  // may have started before 9 failed: it is cancelled then, or has already
  // completed (8 fails in a fraction of 9's time).  Either way fewer such
  // probes run than attempts run at once.
  const TracedSweep& exponential = traced_sweep("exponential_dilution", 5);
  EXPECT_EQ(exponential.estimate, 20);
  std::vector<int> needed;
  std::vector<int> below;
  for (const int side : exponential.completed) (side >= 9 ? needed : below).push_back(side);
  EXPECT_EQ(sorted(needed),
            (std::vector<int>{9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}));
  for (const int side : exponential.cancelled) {
    EXPECT_LT(side, 9);
    below.push_back(side);
  }
  for (const int side : below) EXPECT_GE(side, 8);  // the sweep's smallest size
  EXPECT_LT(static_cast<int>(below.size()), in_flight_bound());
}

TEST(Synthesis, ChipGrowthsIsTheSignedDistanceFromTheEstimate) {
  // One winner above the estimate (15 over 12) and one below it (13 under
  // 20).
  for (const auto& [name, increments] :
       {std::pair{"interpolating_dilution", 2}, std::pair{"exponential_dilution", 3}}) {
    const TracedSweep& sweep = traced_sweep(name, increments);
    EXPECT_EQ(sweep.result.chip_width, sweep.estimate + sweep.result.chip_growths) << name;
    EXPECT_NE(sweep.result.chip_growths, 0) << name;
  }
}

/// Everything a synthesis decides, as text: chip, placement, every routed
/// path and cell, both ledgers and the sweep's counters.
std::string design_text(const SynthesisResult& r) {
  std::ostringstream out;
  out << r.chip_width << "x" << r.chip_height << " growths " << r.chip_growths << " effort "
      << r.mapper_effort << " refinements " << r.refinement_iterations << " vs " << r.vs1_max
      << "/" << r.vs1_pump << "/" << r.vs2_max << "/" << r.vs2_pump << " #v " << r.valve_count
      << "\n";
  for (const arch::DeviceInstance& d : r.placement) {
    out << d.type.width << "x" << d.type.height << "@" << d.origin.x << "," << d.origin.y << " ";
  }
  out << "\nrouting " << r.routing.success << " " << r.routing.total_cells << " "
      << r.routing.rip_ups << "\n";
  for (const route::RoutedPath& path : r.routing.paths) {
    out << static_cast<int>(path.kind) << " " << path.task << " " << path.source_task << " "
        << path.source_input.index << " " << path.label << " t" << path.time << ":";
    for (const Point& cell : path.cells) out << " " << cell.x << "," << cell.y;
    out << "\n";
  }
  for (const sim::ActuationLedger* ledger : {&r.ledger_setting1, &r.ledger_setting2}) {
    for (const Grid<int>* grid : {&ledger->pump, &ledger->control}) {
      for (const int value : *grid) out << value << " ";
      out << "\n";
    }
  }
  return out.str();
}

TEST(Synthesis, ConcurrentSweepIsDeterministic) {
  // exponential_dilution with 3 increments wins below its estimate (13
  // under 20), so its result comes from a speculative probe; mixing_tree
  // with none sweeps upward.
  for (const auto& [name, increments] :
       {std::pair{"exponential_dilution", 3}, std::pair{"mixing_tree", 0}}) {
    const auto g = assay::make_benchmark(name);
    const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, increments));
    const std::string first = design_text(synthesize(g, schedule));
    for (int run = 1; run < 5; ++run) {
      EXPECT_EQ(design_text(synthesize(g, schedule)), first) << name << " run " << run;
    }
  }
}

TEST(Synthesis, DeadlineCancelsTheConcurrentSweep) {
  // The attempts of interpolating_dilution (2 increments) run on several
  // threads; a 50 ms deadline must stop all of them, and synthesize() must
  // join them before it throws.
  const double uncancelled = traced_sweep("interpolating_dilution", 2).result.runtime_seconds;
  const auto g = assay::make_benchmark("interpolating_dilution");
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 2));
  CancelSource source;
  source.set_deadline_after(std::chrono::milliseconds(50));
  SynthesisOptions options;
  options.cancel = source.token();
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW(synthesize(g, schedule, options), CancelledError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  EXPECT_LT(elapsed, 0.5 * uncancelled);
}

TEST(Synthesis, AttemptSpansCarryTheCallersTrace) {
  // Attempts on helper threads parent to the caller's synth/synthesize span
  // and carry its trace id, as attempts on the caller's thread do.
  const auto g = assay::make_benchmark("exponential_dilution");
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 5));
  const obs::TraceContext context = obs::make_trace_context();
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.drain();
  tracer.enable();
  {
    obs::TraceContextScope scope(context);
    synthesize(g, schedule);
  }
  tracer.disable();
  std::vector<obs::TraceEvent> attempts;
  const obs::TraceEvent* sweep = nullptr;
  const std::vector<obs::TraceEvent> events = tracer.drain();
  for (const obs::TraceEvent& e : events) {
    if (is_attempt(e)) attempts.push_back(e);
    if (std::string_view(e.category) == "synth" && e.name == "synthesize") sweep = &e;
  }
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->trace_hi, context.trace_hi);
  EXPECT_EQ(sweep->trace_lo, context.trace_lo);
  ASSERT_GE(attempts.size(), 15u);
  std::set<int> threads;
  for (const obs::TraceEvent& e : attempts) {
    EXPECT_EQ(e.trace_hi, context.trace_hi);
    EXPECT_EQ(e.trace_lo, context.trace_lo);
    EXPECT_EQ(e.parent_span, sweep->span_id);
    threads.insert(e.tid);
  }
  if (in_flight_bound() > 1) {
    EXPECT_GT(threads.size(), 1u);
  }
  EXPECT_NE(sweep->args.find("\"attempts\":" + std::to_string(attempts.size())),
            std::string::npos)
      << sweep->args;
}

TEST(Synthesis, RuntimeIsRecorded) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  const SynthesisResult r = synthesize(g, schedule, fast_options());
  EXPECT_GT(r.runtime_seconds, 0.0);
  EXPECT_LT(r.runtime_seconds, 60.0);
}

}  // namespace
}  // namespace fsyn::synth
