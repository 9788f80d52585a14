// Tests for the extension modules: valve wear / lifetime estimation,
// contamination wash planning, and JSON export.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "assay/benchmarks.hpp"
#include "assay/parser.hpp"
#include "report/json_export.hpp"
#include "route/contamination.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/wear_model.hpp"
#include "synth/synthesis.hpp"
#include "util/json.hpp"

namespace fsyn {
namespace {

struct Synthesized {
  assay::SequencingGraph graph{"empty"};
  sched::Schedule schedule;
  synth::MappingProblem problem;
  synth::SynthesisResult result;
};

std::unique_ptr<Synthesized> synthesize_pcr() {
  auto out = std::make_unique<Synthesized>();
  out->graph = assay::make_pcr();
  out->schedule = sched::schedule_asap(out->graph);
  out->result = synth::synthesize(out->graph, out->schedule);
  out->problem = synth::MappingProblem::build(
      out->graph, out->schedule,
      arch::Architecture(out->result.chip_width, out->result.chip_height));
  return out;
}

// ------------------------------------------------------------- wear model

TEST(WearModel, DeterministicLifetimeIsEnduranceOverMax) {
  const auto s = synthesize_pcr();
  sim::WearModel model;
  model.endurance_mean = 5000.0;
  const int runs = sim::deterministic_lifetime(s->result.ledger_setting1, model);
  EXPECT_EQ(runs, 5000 / s->result.vs1_max);
}

TEST(WearModel, MonteCarloBracketsDeterministic) {
  const auto s = synthesize_pcr();
  Rng rng(77);
  const sim::LifetimeEstimate estimate =
      sim::monte_carlo_lifetime(s->result.ledger_setting1, rng);
  const int deterministic = sim::deterministic_lifetime(s->result.ledger_setting1);
  EXPECT_GT(estimate.mean_runs, 0.0);
  EXPECT_LE(estimate.p10_runs, estimate.mean_runs);
  EXPECT_LE(estimate.mean_runs, estimate.p90_runs);
  // Variability and min-over-valves pull the MC mean below the
  // deterministic value, but not absurdly so.
  EXPECT_LT(estimate.mean_runs, deterministic * 1.2);
  EXPECT_GT(estimate.mean_runs, deterministic * 0.4);
}

TEST(WearModel, LowerMaxActuationsNeverShortensLifetime) {
  const auto s = synthesize_pcr();
  // Setting 2 has strictly lower per-valve loads than setting 1.
  Rng rng1(5), rng2(5);
  const auto life1 = sim::monte_carlo_lifetime(s->result.ledger_setting1, rng1);
  const auto life2 = sim::monte_carlo_lifetime(s->result.ledger_setting2, rng2);
  EXPECT_GE(life2.mean_runs, life1.mean_runs);
}

TEST(WearModel, ZeroVarianceMatchesDeterministic) {
  const auto s = synthesize_pcr();
  sim::WearModel model;
  model.endurance_stddev = 0.0;
  Rng rng(1);
  const auto estimate = sim::monte_carlo_lifetime(s->result.ledger_setting1, rng, model, 50);
  EXPECT_DOUBLE_EQ(estimate.mean_runs,
                   static_cast<double>(sim::deterministic_lifetime(s->result.ledger_setting1, model)));
}

TEST(WearModel, RejectsBadInput) {
  const auto s = synthesize_pcr();
  Rng rng(1);
  sim::WearModel bad;
  bad.endurance_mean = -1.0;
  EXPECT_THROW(sim::deterministic_lifetime(s->result.ledger_setting1, bad), Error);
  EXPECT_THROW(sim::monte_carlo_lifetime(s->result.ledger_setting1, rng, {}, 0), Error);
}

// ---------------------------------------------------------- contamination

TEST(Contamination, FluidIdsDistinguishProductsAndInputs) {
  const auto s = synthesize_pcr();
  std::set<std::string> fluids;
  for (const auto& path : s->result.routing.paths) {
    fluids.insert(route::path_fluid(s->problem, path));
  }
  // 8 reagents + 6 transferred products + 1 drained product (o7 transfers
  // none, o5/o6 etc. do) => at least 10 distinct fluids.
  EXPECT_GE(fluids.size(), 10u);
}

TEST(Contamination, WashPlanOnlyOnSharedCellsWithDifferentFluids) {
  const auto s = synthesize_pcr();
  const route::WashPlan plan = route::plan_washes(s->problem, s->result.routing);
  for (const route::Wash& wash : plan.washes) {
    EXPECT_NE(wash.incoming_fluid, wash.residue_fluid);
    EXPECT_FALSE(wash.cells.empty());
    ASSERT_GE(wash.before_path, 0);
    // Every washed cell really lies on the contaminated path.
    const auto& path = s->result.routing.paths[static_cast<std::size_t>(wash.before_path)];
    for (const Point& cell : wash.cells) {
      EXPECT_NE(std::find(path.cells.begin(), path.cells.end(), cell), path.cells.end());
    }
  }
}

TEST(Contamination, DisjointPathsNeedNoWash) {
  // A single mix has two fills from different ports and one drain; if the
  // router keeps them disjoint, no washes are needed; if they share cells,
  // each shared cell appears in the plan.  Verify consistency either way.
  auto out = std::make_unique<Synthesized>();
  out->graph = assay::parse_assay(R"(
assay tiny
input i1
input i2
mix a volume 8 duration 6 from i1 i2
)");
  out->schedule = sched::schedule_asap(out->graph);
  out->result = synth::synthesize(out->graph, out->schedule);
  out->problem = synth::MappingProblem::build(
      out->graph, out->schedule,
      arch::Architecture(out->result.chip_width, out->result.chip_height));
  const route::WashPlan plan = route::plan_washes(out->problem, out->result.routing);
  int shared_cells_with_fluid_change = 0;
  const auto& paths = out->result.routing.paths;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      if (route::path_fluid(out->problem, paths[i]) ==
          route::path_fluid(out->problem, paths[j])) {
        continue;
      }
      for (const Point& cell : paths[i].cells) {
        shared_cells_with_fluid_change +=
            std::count(paths[j].cells.begin(), paths[j].cells.end(), cell);
      }
    }
  }
  EXPECT_EQ(plan.total_washed_cells, shared_cells_with_fluid_change);
}

TEST(Contamination, ExtraControlGridMatchesPlan) {
  const auto s = synthesize_pcr();
  const route::WashPlan plan = route::plan_washes(s->problem, s->result.routing);
  const Grid<int> extra = plan.extra_control(s->result.chip_width, s->result.chip_height);
  long sum = 0;
  for (const int v : extra) sum += v;
  EXPECT_EQ(sum, 2L * plan.total_washed_cells);
}

// ------------------------------------------------------------ JSON export

TEST(JsonExport, EscapesSpecialCharacters) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
  EXPECT_EQ(json_quote("a\bb\fc"), "\"a\\bb\\fc\"");
  // What the writers escape, the parser reads back.
  const std::string nasty = std::string("q\"b\\n\n\t\b\f\r\x01\x1f") + "\xc3\xa9";
  EXPECT_EQ(JsonValue::parse(json_quote(nasty)).as_string(), nasty);
}

TEST(JsonExport, DocumentContainsAllSections) {
  const auto s = synthesize_pcr();
  const std::string json = report::to_json(s->problem, s->result);
  for (const char* key : {"\"assay\"", "\"chip\"", "\"ports\"", "\"devices\"", "\"paths\"",
                          "\"actuations_setting1\"", "\"actuations_setting2\"", "\"metrics\"",
                          "\"vs1_max\"", "\"valve_count\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Structural sanity: balanced braces and brackets.
  long braces = 0, brackets = 0;
  for (const char c : json) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // One device entry per task.
  std::size_t ops = 0;
  for (std::size_t pos = json.find("\"op\""); pos != std::string::npos;
       pos = json.find("\"op\"", pos + 1)) {
    ++ops;
  }
  EXPECT_EQ(ops, static_cast<std::size_t>(s->problem.task_count()));
}

TEST(JsonExport, WriteFileAndDimensionMismatch) {
  const auto s = synthesize_pcr();
  const std::string path = ::testing::TempDir() + "/chip.json";
  EXPECT_NO_THROW(report::write_json(path, s->problem, s->result));
  // Mismatched problem must be rejected.
  auto other = synth::MappingProblem::build(s->graph, s->schedule, arch::Architecture(30, 30));
  EXPECT_THROW(report::to_json(other, s->result), LogicError);
}

}  // namespace
}  // namespace fsyn
