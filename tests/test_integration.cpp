// Integration pins: the headline Table-1 reproduction bands, golden Fig. 9
// output, custom port configurations through the full pipeline, and the LP
// dump.  These tests freeze the observable behaviour the documentation
// claims (EXPERIMENTS.md), so regressions in any stage surface here.
#include <gtest/gtest.h>

#include "assay/benchmarks.hpp"
#include "ilp/model.hpp"
#include "report/table1.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/synthesis.hpp"

namespace fsyn {
namespace {

/// The full Table 1 at default options, computed once for every test here.
const std::vector<report::Table1Row>& table1_rows() {
  static const std::vector<report::Table1Row> rows = report::run_full_table();
  return rows;
}

TEST(Integration, Table1AveragesStayInThePaperBand) {
  // Paper: imp_1vs 55.76 %, imp_2vs 72.97 %, imp_v 10.62 %.  Pin this
  // reproduction to generous bands around its documented values so any
  // stage regression (scheduling, mapping, routing, accounting) trips it.
  const auto& rows = table1_rows();
  ASSERT_EQ(rows.size(), 12u);

  // And pin every row's vs_1max(pump), vs_2max(pump) and #v exactly, as
  // bench_table1 prints them at the default seed: the heuristic mapper is
  // deterministic, so a change meant only to make synthesis faster must
  // reproduce them.
  struct Exact {
    int vs1_max, vs1_pump, vs2_max, vs2_pump, valves;
  };
  const Exact exact[12] = {{44, 40, 34, 30, 71},    {46, 40, 32, 30, 74},
                           {44, 40, 34, 30, 74},    {88, 80, 42, 40, 121},
                           {90, 80, 55, 45, 121},   {88, 80, 48, 45, 99},
                           {92, 80, 57, 50, 223},   {86, 80, 50, 50, 225},
                           {86, 80, 56, 50, 225},   {132, 120, 72, 65, 169},
                           {130, 120, 78, 72, 169}, {132, 120, 74, 65, 169}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    SCOPED_TRACE(row.case_name + ' ' + row.policy_label);
    EXPECT_EQ(row.vs1_max, exact[i].vs1_max);
    EXPECT_EQ(row.vs1_pump, exact[i].vs1_pump);
    EXPECT_EQ(row.vs2_max, exact[i].vs2_max);
    EXPECT_EQ(row.vs2_pump, exact[i].vs2_pump);
    EXPECT_EQ(row.our_valves, exact[i].valves);
  }

  double imp1 = 0.0, imp2 = 0.0, impv = 0.0;
  for (const auto& row : rows) {
    EXPECT_GT(row.improvement1(), 0.30) << row.case_name << ' ' << row.policy_label;
    EXPECT_GT(row.improvement2(), 0.55) << row.case_name << ' ' << row.policy_label;
    imp1 += row.improvement1();
    imp2 += row.improvement2();
    impv += row.valve_improvement();
  }
  imp1 /= 12.0;
  imp2 /= 12.0;
  impv /= 12.0;
  EXPECT_GT(imp1, 0.48);
  EXPECT_LT(imp1, 0.68);
  EXPECT_GT(imp2, 0.65);
  EXPECT_LT(imp2, 0.80);
  EXPECT_GT(impv, 0.0);
}

TEST(Integration, Table1VsTmaxColumnIsExact) {
  // The traditional-side columns must match the paper in all 12 rows.
  const auto& rows = table1_rows();
  const int expected[12] = {160, 80, 80, 280, 200, 160, 360, 240, 200, 320, 280, 240};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].vs_tmax, expected[i]) << rows[i].case_name << ' '
                                            << rows[i].policy_label;
  }
}

TEST(Integration, Fig9GanttGoldenOutput) {
  const auto g = assay::make_pcr();
  const std::string chart = sched::render_gantt(sched::schedule_asap(g));
  const std::string expected =
      "    0    5    10   15   20   25    tu\n"
      "o1  ===============               \n"
      "o2  ============                  \n"
      "o3  ===                           \n"
      "o4  ===                           \n"
      "o5                 ...====        \n"
      "o6        ======                  \n"
      "o7                 ..........==== \n";
  EXPECT_EQ(chart, expected);
}

TEST(Integration, CustomPortLayoutFlowsThroughThePipeline) {
  // Ports on the left edge instead of the default right edge; the problem,
  // router and accounting must all honour it.
  const auto g = assay::make_pcr();
  const auto schedule = sched::schedule_asap(g);
  arch::Architecture chip(10, 10);
  chip.set_ports({arch::ChipPort{"inA", Point{0, 9}, true},
                  arch::ChipPort{"inB", Point{0, 4}, true},
                  arch::ChipPort{"waste", Point{0, 0}, false}});
  auto problem = synth::MappingProblem::build(g, schedule, std::move(chip));
  const auto mapping = synth::map_heuristic(problem);
  ASSERT_TRUE(mapping.has_value());
  const auto routing = route::route_all(problem, mapping->placement);
  ASSERT_TRUE(routing.success);
  route::validate_routing(problem, mapping->placement, routing);
  for (const auto& path : routing.paths) {
    if (path.kind == route::TransportKind::kFill) {
      EXPECT_EQ(path.cells.front().x, 0) << path.label;  // left edge
    }
    if (path.kind == route::TransportKind::kDrain) {
      EXPECT_EQ(path.cells.back(), (Point{0, 0})) << path.label;
    }
  }
}

TEST(Integration, LpDumpRoundsTripStructure) {
  ilp::Model m;
  const auto x = m.add_integer(0, 10, "x");
  const auto b = m.add_binary("pick");
  m.add_constraint(2.0 * x + (-5.0) * b, ilp::Relation::kLessEqual, 7.0, "cap");
  m.set_objective(3.0 * x + 1.0 * b, ilp::Sense::kMaximize);
  const std::string lp = m.to_lp_string();
  EXPECT_NE(lp.find("Maximize"), std::string::npos);
  EXPECT_NE(lp.find("cap: 2 x - 5 pick <= 7"), std::string::npos);
  EXPECT_NE(lp.find("0 <= x <= 10"), std::string::npos);
  EXPECT_NE(lp.find("General\n x"), std::string::npos);
  EXPECT_NE(lp.find("Binary\n pick"), std::string::npos);
  EXPECT_NE(lp.find("End"), std::string::npos);
}

}  // namespace
}  // namespace fsyn
