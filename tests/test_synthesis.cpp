// End-to-end synthesis tests: Algorithm 1 on all benchmarks, metric
// relations between the two settings, ablations, ILP mode, determinism and
// the chip-size sweep.
#include <gtest/gtest.h>

#include <map>
#include <string_view>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "obs/trace.hpp"
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
/// the sweep's first size (the sized_for estimate) and the side of every
/// chip-size attempt in the order they ran.  Cached per row, since these
/// are the sweep's slowest cases.
struct TracedSweep {
  SynthesisResult result;
  int estimate = 0;
  std::vector<int> sides;
};

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
    if (std::string_view(e.category) != "synth" || e.name != "attempt") continue;
    const std::size_t side = e.args.find("\"side\":");
    if (side != std::string::npos) sweep.sides.push_back(std::stoi(e.args.substr(side + 7)));
  }
  return cache.emplace(key, std::move(sweep)).first->second;
}

TEST(Synthesis, EachChipSizeIsAttemptedOnce) {
  // interpolating_dilution p2: the estimate 12 and 13 fail, 14 is the first
  // feasible size, then 15-17.  Every size that failed on the way up stays
  // failed, so nothing is probed below 14.
  const TracedSweep& interpolating = traced_sweep("interpolating_dilution", 2);
  EXPECT_EQ(interpolating.estimate, 12);
  EXPECT_EQ(interpolating.sides, (std::vector<int>{12, 13, 14, 15, 16, 17}));

  // exponential_dilution p3: the estimate 20 succeeds, so the sweep probes
  // downward to 9, its first failing size (routing fails there), then tries
  // 21-23.
  const TracedSweep& exponential = traced_sweep("exponential_dilution", 5);
  EXPECT_EQ(exponential.estimate, 20);
  EXPECT_EQ(exponential.sides,
            (std::vector<int>{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 21, 22, 23}));
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

TEST(Synthesis, RuntimeIsRecorded) {
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_with_policy(g, sched::make_policy(g, 0));
  const SynthesisResult r = synthesize(g, schedule, fast_options());
  EXPECT_GT(r.runtime_seconds, 0.0);
  EXPECT_LT(r.runtime_seconds, 60.0);
}

}  // namespace
}  // namespace fsyn::synth
