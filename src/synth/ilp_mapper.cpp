#include "synth/ilp_mapper.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::synth {

namespace {

using arch::DeviceInstance;
using ilp::LinearExpr;
using ilp::Model;
using ilp::Relation;
using ilp::Sense;
using ilp::VarId;

struct Candidate {
  DeviceInstance instance;
  VarId var;
};

/// One task's selection variables plus its linked boundary variables.
struct TaskVars {
  std::vector<Candidate> candidates;
  VarId b_le, b_ri, b_do, b_up;
};

}  // namespace

std::optional<IlpMappingOutcome> map_ilp(const MappingProblem& problem,
                                         const IlpMapperOptions& options) {
  obs::Span span("synth", "map_ilp");
  if (span.active()) span.arg("tasks", problem.task_count());
  // Model construction + warm-start assembly as its own sub-span; the
  // solve itself is traced inside solve_milp.
  obs::Span build_span("ilp", "build_model");
  Model model;
  const arch::Architecture& chip = problem.chip();
  const double big_m = chip.width() + chip.height() + 4.0;

  // ---- selection variables (Eq. 1) and boundary links (Fig. 6a) ----
  std::vector<TaskVars> vars(static_cast<std::size_t>(problem.task_count()));
  for (int i = 0; i < problem.task_count(); ++i) {
    const MappingTask& task = problem.task(i);
    TaskVars& tv = vars[static_cast<std::size_t>(i)];

    LinearExpr choose_one;
    LinearExpr le_link, ri_link, do_link, up_link;
    for (const DeviceInstance& instance : problem.candidates(i)) {
      const Point origin = instance.origin;
      const arch::DeviceType type = instance.type;
      const VarId s = model.add_binary("s_" + task.name + "_" + std::to_string(origin.x) +
                                       "_" + std::to_string(origin.y) + "_" +
                                       std::to_string(type.width) + "x" +
                                       std::to_string(type.height));
      tv.candidates.push_back(Candidate{instance, s});
      choose_one.add_term(s, 1.0);
      // Wall coordinates sit one cell outside the footprint (Fig. 6a).
      le_link.add_term(s, origin.x - 1.0);
      ri_link.add_term(s, origin.x + static_cast<double>(type.width));
      do_link.add_term(s, origin.y - 1.0);
      up_link.add_term(s, origin.y + static_cast<double>(type.height));
    }
    model.add_constraint(choose_one, Relation::kEqual, 1.0, "map_" + task.name);

    tv.b_le = model.add_continuous(-1.0, chip.width(), "b_le_" + task.name);
    tv.b_ri = model.add_continuous(0.0, chip.width() + 1.0, "b_ri_" + task.name);
    tv.b_do = model.add_continuous(-1.0, chip.height(), "b_do_" + task.name);
    tv.b_up = model.add_continuous(0.0, chip.height() + 1.0, "b_up_" + task.name);
    le_link.add_term(tv.b_le, -1.0);
    ri_link.add_term(tv.b_ri, -1.0);
    do_link.add_term(tv.b_do, -1.0);
    up_link.add_term(tv.b_up, -1.0);
    model.add_constraint(le_link, Relation::kEqual, 0.0);
    model.add_constraint(ri_link, Relation::kEqual, 0.0);
    model.add_constraint(do_link, Relation::kEqual, 0.0);
    model.add_constraint(up_link, Relation::kEqual, 0.0);
  }

  // ---- per-valve peristaltic load bound (Eq. 2 + 9), objective (10) ----
  // Every mixer puts its p_i on each valve of its pump ring, so no placement
  // has w < max_i p_i.  The bound stays out of the LP (a root LP with w held
  // at it is far slower to settle); it proves a warm start that meets it
  // and bounds a solve that ends unproved.
  int load_bound = 0;
  const VarId w = model.add_continuous(0.0, ilp::kInfinity, "w");
  {
    Grid<std::vector<std::pair<VarId, int>>> contributions(chip.width(), chip.height());
    for (int i = 0; i < problem.task_count(); ++i) {
      const MappingTask& task = problem.task(i);
      if (task.pump_actuations == 0) continue;
      load_bound = std::max(load_bound, task.pump_actuations);
      for (const Candidate& c : vars[static_cast<std::size_t>(i)].candidates) {
        c.instance.footprint().for_each_ring_cell([&](const Point& cell) {
          contributions.at(cell).push_back({c.var, task.pump_actuations});
        });
      }
    }
    contributions.for_each([&](const Point& cell, const auto& terms) {
      if (terms.empty()) return;
      LinearExpr load;
      for (const auto& [var, p] : terms) load.add_term(var, p);
      load.add_term(w, -1.0);
      model.add_constraint(load, Relation::kLessEqual, 0.0,
                           "load_" + std::to_string(cell.x) + "_" + std::to_string(cell.y));
    });
  }

  // ---- pairwise constraints (only conflict partners need any) ----
  struct PairRecord {
    int a, b;
    VarId c1, c2, c3, c4;
    std::optional<VarId> c5;
  };
  std::vector<PairRecord> pair_records;
  for (int a = 0; a < problem.task_count(); ++a) {
    for (const int b : problem.conflict_partners(a)) {
      if (b < a) continue;
      const TaskVars& va = vars[static_cast<std::size_t>(a)];
      const TaskVars& vb = vars[static_cast<std::size_t>(b)];
      const bool related = problem.parent_child(a, b);

      if (related && problem.routing_convenient()) {
        // Eq. 13-16 with strict > turned into >= +1 on integers.
        const double d = problem.routing_distance();
        LinearExpr e13 = 1.0 * va.b_ri + (-1.0) * vb.b_le;
        model.add_constraint(e13, Relation::kGreaterEqual, -d + 1.0);
        LinearExpr e14 = 1.0 * va.b_le + (-1.0) * vb.b_ri;
        model.add_constraint(e14, Relation::kLessEqual, d - 1.0);
        LinearExpr e15 = 1.0 * va.b_up + (-1.0) * vb.b_do;
        model.add_constraint(e15, Relation::kGreaterEqual, -d + 1.0);
        LinearExpr e16 = 1.0 * va.b_do + (-1.0) * vb.b_up;
        model.add_constraint(e16, Relation::kLessEqual, d - 1.0);
      }

      if (!problem.time_overlap(a, b)) continue;

      const bool may_overlap =
          related && problem.allow_storage_overlap() && !problem.storage_overlap_forbidden(a, b);

      // Eq. 4-7: disjunctive separation with big-M.
      const VarId c1 = model.add_binary();
      const VarId c2 = model.add_binary();
      const VarId c3 = model.add_binary();
      const VarId c4 = model.add_binary();
      LinearExpr e4 = 1.0 * va.b_ri + (-1.0) * vb.b_le + (-big_m) * c1;
      model.add_constraint(e4, Relation::kLessEqual, 0.0);
      LinearExpr e5 = 1.0 * va.b_le + (-1.0) * vb.b_ri + big_m * c2;
      model.add_constraint(e5, Relation::kGreaterEqual, 0.0);
      LinearExpr e6 = 1.0 * va.b_up + (-1.0) * vb.b_do + (-big_m) * c3;
      model.add_constraint(e6, Relation::kLessEqual, 0.0);
      LinearExpr e7 = 1.0 * va.b_do + (-1.0) * vb.b_up + big_m * c4;
      model.add_constraint(e7, Relation::kGreaterEqual, 0.0);

      LinearExpr sum = 1.0 * c1 + 1.0 * c2 + 1.0 * c3 + 1.0 * c4;
      PairRecord record{a, b, c1, c2, c3, c4, std::nullopt};
      if (may_overlap) {
        // Eq. 12: c1+c2+c3+c4 = 3 + c5; c5 = 1 permits full overlap.
        const VarId c5 = model.add_binary("c5_" + problem.task(a).name + "_" +
                                          problem.task(b).name);
        sum.add_term(c5, -1.0);
        model.add_constraint(sum, Relation::kEqual, 3.0);
        record.c5 = c5;
      } else {
        // Eq. 8.
        model.add_constraint(sum, Relation::kEqual, 3.0);
      }
      pair_records.push_back(record);
    }
  }

  model.set_objective(1.0 * w, Sense::kMinimize);

  // ---- warm start ----
  ilp::MilpOptions milp_options;
  milp_options.time_limit_seconds = options.time_limit_seconds;
  milp_options.max_nodes = options.max_nodes;
  milp_options.cancel = options.cancel;
  milp_options.threads = options.threads;
  milp_options.cuts = options.cuts;
  if (options.warm_start.has_value()) {
    const Placement& start = *options.warm_start;
    problem.validate_placement(start);
    std::vector<double> point(static_cast<std::size_t>(model.variable_count()), 0.0);
    for (int i = 0; i < problem.task_count(); ++i) {
      const TaskVars& tv = vars[static_cast<std::size_t>(i)];
      const DeviceInstance& chosen = start[static_cast<std::size_t>(i)];
      bool matched = false;
      for (const Candidate& c : tv.candidates) {
        if (c.instance == chosen) {
          point[static_cast<std::size_t>(c.var.index)] = 1.0;
          matched = true;
        }
      }
      require(matched, "warm-start placement uses an unknown candidate");
      const Rect fp = chosen.footprint();
      point[static_cast<std::size_t>(tv.b_le.index)] = fp.left() - 1;
      point[static_cast<std::size_t>(tv.b_ri.index)] = fp.right();
      point[static_cast<std::size_t>(tv.b_do.index)] = fp.bottom() - 1;
      point[static_cast<std::size_t>(tv.b_up.index)] = fp.top();
    }
    point[static_cast<std::size_t>(w.index)] = problem.max_pump_load(start);
    // Set c1..c5 consistently with the warm-start geometry: pick one
    // satisfied separation direction (its c = 0, others 1) or, for an
    // overlapping storage pair, c5 = 1 with all c = 1.
    for (const PairRecord& record : pair_records) {
      const Rect fa = start[static_cast<std::size_t>(record.a)].footprint();
      const Rect fb = start[static_cast<std::size_t>(record.b)].footprint();
      const bool cond1 = fa.right() <= fb.left() - 1;   // a left of b (wall between)
      const bool cond2 = fa.left() - 1 >= fb.right();   // a right of b
      const bool cond3 = fa.top() <= fb.bottom() - 1;   // a below b
      const bool cond4 = fa.bottom() - 1 >= fb.top();   // a above b
      double c1 = 1, c2 = 1, c3 = 1, c4 = 1, c5 = 1;
      if (cond1) {
        c1 = 0; c5 = 0;
      } else if (cond2) {
        c2 = 0; c5 = 0;
      } else if (cond3) {
        c3 = 0; c5 = 0;
      } else if (cond4) {
        c4 = 0; c5 = 0;
      } else {
        require(record.c5.has_value(),
                "warm start overlaps a pair that must be separated");
      }
      point[static_cast<std::size_t>(record.c1.index)] = c1;
      point[static_cast<std::size_t>(record.c2.index)] = c2;
      point[static_cast<std::size_t>(record.c3.index)] = c3;
      point[static_cast<std::size_t>(record.c4.index)] = c4;
      if (record.c5.has_value()) {
        point[static_cast<std::size_t>(record.c5->index)] = c5;
      }
    }
    require(model.is_feasible(point, 1e-5), "warm-start point is infeasible in the ILP");
    milp_options.initial_incumbent = std::move(point);
  }

  if (build_span.active()) {
    build_span.arg("vars", model.variable_count());
    build_span.arg("constraints", model.constraint_count());
    build_span.arg("warm_start", options.warm_start.has_value());
  }
  build_span.finish();

  IlpMappingOutcome outcome;
  if (options.warm_start.has_value() &&
      problem.max_pump_load(*options.warm_start) == load_bound) {
    // The warm start meets the load bound: it is optimal, with no search.
    if (span.active()) span.arg("proved", "load_bound");
    outcome.placement = *options.warm_start;
    outcome.status = ilp::MilpStatus::kOptimal;
    outcome.best_bound = load_bound;
    outcome.max_pump_load = load_bound;
    outcome.max_pump_load_setting2 = problem.max_pump_load_setting2(outcome.placement);
    return outcome;
  }

  const ilp::MilpResult result = ilp::solve_milp(model, milp_options);
  if (result.values.empty()) {
    log_warn("ilp mapper: no incumbent (status ", ilp::to_string(result.status), ")");
    return std::nullopt;
  }

  static_cast<ilp::SolveCounters&>(outcome) = result;
  outcome.status = result.status;
  outcome.best_bound = std::max(result.best_bound, static_cast<double>(load_bound));
  outcome.placement.assign(static_cast<std::size_t>(problem.task_count()),
                           DeviceInstance{arch::DeviceType{2, 2}, Point{0, 0}});
  for (int i = 0; i < problem.task_count(); ++i) {
    const TaskVars& tv = vars[static_cast<std::size_t>(i)];
    bool chosen = false;
    for (const Candidate& c : tv.candidates) {
      if (result.values[static_cast<std::size_t>(c.var.index)] > 0.5) {
        outcome.placement[static_cast<std::size_t>(i)] = c.instance;
        chosen = true;
        break;
      }
    }
    require(chosen, "ILP solution selects no candidate for task " + problem.task(i).name);
  }
  outcome.max_pump_load = problem.max_pump_load(outcome.placement);
  outcome.max_pump_load_setting2 = problem.max_pump_load_setting2(outcome.placement);
  if (outcome.max_pump_load == load_bound) outcome.status = ilp::MilpStatus::kOptimal;
  return outcome;
}

}  // namespace fsyn::synth
