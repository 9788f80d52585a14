#include "sched/ilp_scheduler.hpp"

#include <map>
#include <vector>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::sched {

using assay::OpId;
using assay::OpKind;
using assay::Operation;
using assay::SequencingGraph;
using ilp::LinearExpr;
using ilp::Model;
using ilp::Relation;
using ilp::Sense;
using ilp::VarId;

namespace {

/// Node limit of the search.
constexpr std::int64_t kMaxNodes = 200'000;

/// A mix/detect operation occupies its device for duration + transport
/// (the product must leave before the next operation can enter).
int occupancy(const Operation& op) { return op.duration + assay::kTransportDelay; }

}  // namespace

IlpScheduleResult schedule_optimal(const SequencingGraph& graph, const Policy& policy,
                                   const IlpScheduleOptions& options) {
  obs::Span span("sched", "schedule_optimal");
  if (span.active()) span.arg("ops", graph.size());
  // The list schedule provides the horizon and the warm start.
  const Schedule warm = schedule_with_policy(graph, policy);
  const int horizon = warm.makespan();

  Model model;
  // x[i][t] = 1 iff operation i starts at time t.  Inputs start at 0 and
  // get no variables.
  std::map<int, std::vector<VarId>> start_vars;
  for (const Operation& op : graph.operations()) {
    if (op.kind == OpKind::kInput || op.kind == OpKind::kOutput) continue;
    std::vector<VarId> vars;
    LinearExpr choose_one;
    for (int t = 0; t <= horizon - op.duration; ++t) {
      vars.push_back(model.add_binary("x_" + op.name + "_" + std::to_string(t)));
      choose_one.add_term(vars.back(), 1.0);
    }
    check_input(!vars.empty(), "horizon too small for operation " + op.name);
    model.add_constraint(choose_one, Relation::kEqual, 1.0);
    start_vars[op.id.index] = std::move(vars);
  }

  auto start_expr = [&](OpId id) {
    LinearExpr expr;
    const auto& vars = start_vars.at(id.index);
    for (std::size_t t = 0; t < vars.size(); ++t) {
      expr.add_term(vars[t], static_cast<double>(t));
    }
    return expr;
  };

  // Precedence with transport: start_c >= start_p + duration_p (+delay if
  // the parent occupies a device).
  for (const Operation& op : graph.operations()) {
    if (!start_vars.contains(op.id.index)) continue;
    for (const OpId parent : op.parents) {
      const Operation& producer = graph.op(parent);
      if (producer.kind == OpKind::kInput) continue;  // arrives at fill time
      const int lag = producer.duration + assay::kTransportDelay;
      LinearExpr expr = start_expr(op.id);
      const LinearExpr parent_expr = start_expr(parent);
      for (const auto& term : parent_expr.terms()) expr.add_term(term.var, -term.coeff);
      model.add_constraint(expr, Relation::kGreaterEqual, lag);
    }
  }

  // Capacity: at any time t, ops of volume v running (occupying a mixer)
  // are those with start in (t - occupancy, t].
  std::map<int, std::vector<const Operation*>> by_volume;
  std::vector<const Operation*> detects;
  for (const Operation& op : graph.operations()) {
    if (op.kind == OpKind::kMix) by_volume[op.volume].push_back(&op);
    if (op.kind == OpKind::kDetect) detects.push_back(&op);
  }
  auto add_capacity_rows = [&](const std::vector<const Operation*>& ops, int limit,
                               const std::string& label) {
    if (static_cast<int>(ops.size()) <= limit) return;  // can never exceed
    for (int t = 0; t <= horizon; ++t) {
      LinearExpr running;
      bool any = false;
      for (const Operation* op : ops) {
        const auto& vars = start_vars.at(op->id.index);
        const int occ = occupancy(*op);
        for (int s = std::max(0, t - occ + 1); s <= t && s < static_cast<int>(vars.size());
             ++s) {
          running.add_term(vars[static_cast<std::size_t>(s)], 1.0);
          any = true;
        }
      }
      if (any) {
        model.add_constraint(running, Relation::kLessEqual, limit,
                             label + "@" + std::to_string(t));
      }
    }
  };
  for (const auto& [volume, ops] : by_volume) {
    const auto it = policy.mixers_per_volume.find(volume);
    check_input(it != policy.mixers_per_volume.end(),
                "policy lacks mixers of volume " + std::to_string(volume));
    add_capacity_rows(ops, it->second, "mixer" + std::to_string(volume));
  }
  if (!detects.empty()) add_capacity_rows(detects, policy.detectors, "detector");

  // Makespan bound.
  const VarId makespan = model.add_continuous(0.0, horizon, "makespan");
  for (const Operation& op : graph.operations()) {
    if (!start_vars.contains(op.id.index)) continue;
    LinearExpr expr = start_expr(op.id);
    expr.add_term(makespan, -1.0);
    model.add_constraint(expr, Relation::kLessEqual, -op.duration);
  }
  model.set_objective(1.0 * makespan, Sense::kMinimize);

  // Warm start from the list schedule.
  std::vector<double> incumbent(static_cast<std::size_t>(model.variable_count()), 0.0);
  for (const auto& [op_index, vars] : start_vars) {
    const int start = warm.start_of(OpId{op_index});
    require(start < static_cast<int>(vars.size()), "warm start outside horizon");
    incumbent[static_cast<std::size_t>(vars[static_cast<std::size_t>(start)].index)] = 1.0;
  }
  incumbent[static_cast<std::size_t>(makespan.index)] = horizon;

  ilp::MilpOptions milp_options;
  milp_options.time_limit_seconds = options.time_limit_seconds;
  milp_options.max_nodes = kMaxNodes;
  milp_options.initial_incumbent = std::move(incumbent);
  const ilp::MilpResult solved = ilp::solve_milp(model, milp_options);

  IlpScheduleResult result;
  static_cast<ilp::SolveCounters&>(result) = solved;
  result.status = solved.status;
  result.schedule.graph = &graph;
  result.schedule.transport_delay = assay::kTransportDelay;
  result.schedule.start.assign(static_cast<std::size_t>(graph.size()), 0);
  result.schedule.end.assign(static_cast<std::size_t>(graph.size()), 0);
  require(!solved.values.empty(), "scheduling ILP lost its warm start");
  for (const OpId id : graph.topological_order()) {
    const Operation& op = graph.op(id);
    int start = 0;
    if (const auto it = start_vars.find(op.id.index); it != start_vars.end()) {
      for (std::size_t t = 0; t < it->second.size(); ++t) {
        if (solved.values[static_cast<std::size_t>(it->second[t].index)] > 0.5) {
          start = static_cast<int>(t);
        }
      }
    } else if (op.kind == OpKind::kOutput) {
      // Outputs have no variables: they fire when the product arrives.
      for (const OpId parent : op.parents) {
        start = std::max(start, result.schedule.arrival_from(parent));
      }
    }
    result.schedule.start[static_cast<std::size_t>(op.id.index)] = start;
    result.schedule.end[static_cast<std::size_t>(op.id.index)] = start + op.duration;
  }
  result.schedule.validate();
  if (span.active()) {
    span.arg("makespan", result.schedule.makespan());
    span.arg("nodes", result.nodes);
  }
  return result;
}

}  // namespace fsyn::sched
