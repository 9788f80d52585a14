// Solver micro-benchmark: a fixed family of branch-and-bound-heavy MILPs,
// one machine-readable JSON line per instance (wall clock, nodes, LP pivot
// work) so the perf trajectory of the `fsyn::ilp` core can be tracked in
// BENCH_*.json files and CI artifacts.
//
// The instance families mirror the shapes the synthesis engine produces:
// knapsacks (dense single rows), min-max assignment (the mapper's
// minimize-w pattern), big-M disjunctive non-overlap (Eq. 3-8), and
// time-indexed scheduling (the ILP scheduler's choose-one + capacity rows).
//
// Two committed baselines gate the node and LP-iteration counts (see
// docs/benchmarking.md): bench/results/BENCH_ilp_t0.json for `--threads 0`,
// the default every library caller runs (one reproducible worker on the
// calling thread), and bench/results/BENCH_ilp.json for `--threads 1` (one
// asynchronous work-stealing worker).  `--basis dense` and `--pricing
// dantzig` select the LP engine's reference implementations, which CI runs
// to check that the production sparse LU + devex reach the same objectives.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/model.hpp"
#include "util/rng.hpp"

using namespace fsyn;
using namespace fsyn::ilp;

namespace {

Model knapsack(int n, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  LinearExpr weight, value;
  int total = 0;
  for (int j = 0; j < n; ++j) {
    const int w = rng.next_int(3, 19);
    total += w;
    weight.add_term(m.add_binary(), w);
    value.add_term(VarId{j}, rng.next_int(2, 23));
  }
  m.add_constraint(weight, Relation::kLessEqual, total / 2);
  m.set_objective(value, Sense::kMaximize);
  return m;
}

/// The mapping model's shape: assign items to slots minimizing the maximum
/// slot load (selection binaries, choose-one equalities, load rows <= w).
Model minmax_assign(int items, int slots, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  const VarId w = m.add_continuous(0.0, kInfinity, "w");
  std::vector<std::vector<VarId>> assign(static_cast<std::size_t>(items));
  std::vector<int> load(static_cast<std::size_t>(items));
  for (int i = 0; i < items; ++i) {
    load[static_cast<std::size_t>(i)] = rng.next_int(10, 60);
    LinearExpr choose_one;
    for (int s = 0; s < slots; ++s) {
      assign[static_cast<std::size_t>(i)].push_back(m.add_binary());
      choose_one.add_term(assign[static_cast<std::size_t>(i)].back(), 1.0);
    }
    m.add_constraint(choose_one, Relation::kEqual, 1.0);
  }
  for (int s = 0; s < slots; ++s) {
    LinearExpr total;
    for (int i = 0; i < items; ++i) {
      total.add_term(assign[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)],
                     load[static_cast<std::size_t>(i)]);
    }
    total.add_term(w, -1.0);
    m.add_constraint(total, Relation::kLessEqual, 0.0);
  }
  m.set_objective(1.0 * w, Sense::kMinimize);
  return m;
}

/// k unit-width devices on a line segment with pairwise big-M non-overlap
/// (the paper's Eq. 3-8 disjunction); minimize the weighted rightmost edge.
Model bigm_intervals(int k, int span, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  const double big_m = span + 2.0;
  std::vector<VarId> pos;
  std::vector<int> width(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    width[static_cast<std::size_t>(i)] = rng.next_int(1, 3);
    pos.push_back(m.add_integer(0, span, "p" + std::to_string(i)));
  }
  for (int a = 0; a < k; ++a) {
    for (int b = a + 1; b < k; ++b) {
      const VarId c1 = m.add_binary();
      const VarId c2 = m.add_binary();
      // pos_a + width_a <= pos_b + M c1;  pos_b + width_b <= pos_a + M c2.
      m.add_constraint(1.0 * pos[static_cast<std::size_t>(a)] +
                           (-1.0) * pos[static_cast<std::size_t>(b)] + (-big_m) * c1,
                       Relation::kLessEqual, -width[static_cast<std::size_t>(a)]);
      m.add_constraint(1.0 * pos[static_cast<std::size_t>(b)] +
                           (-1.0) * pos[static_cast<std::size_t>(a)] + (-big_m) * c2,
                       Relation::kLessEqual, -width[static_cast<std::size_t>(b)]);
      m.add_constraint(1.0 * c1 + 1.0 * c2, Relation::kEqual, 1.0);
    }
  }
  LinearExpr obj;
  for (int i = 0; i < k; ++i) obj.add_term(pos[static_cast<std::size_t>(i)], i + 1);
  m.set_objective(obj, Sense::kMinimize);
  return m;
}

/// Time-indexed scheduling: x[i][t] start binaries, precedence chains and a
/// machine-capacity row per time step (the ILP scheduler's structure).
Model time_indexed(int ops, int horizon, int capacity, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  std::vector<std::vector<VarId>> starts(static_cast<std::size_t>(ops));
  std::vector<int> duration(static_cast<std::size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    duration[static_cast<std::size_t>(i)] = rng.next_int(1, 3);
    LinearExpr choose_one;
    for (int t = 0; t + duration[static_cast<std::size_t>(i)] <= horizon; ++t) {
      starts[static_cast<std::size_t>(i)].push_back(m.add_binary());
      choose_one.add_term(starts[static_cast<std::size_t>(i)].back(), 1.0);
    }
    m.add_constraint(choose_one, Relation::kEqual, 1.0);
  }
  auto start_expr = [&](int i) {
    LinearExpr e;
    const auto& vars = starts[static_cast<std::size_t>(i)];
    for (std::size_t t = 0; t < vars.size(); ++t) e.add_term(vars[t], static_cast<double>(t));
    return e;
  };
  // Precedence along a random forest: op i depends on a random earlier op.
  for (int i = 1; i < ops; ++i) {
    const int p = rng.next_int(0, i - 1);
    LinearExpr e = start_expr(i);
    const LinearExpr pe = start_expr(p);
    for (const auto& term : pe.terms()) e.add_term(term.var, -term.coeff);
    m.add_constraint(e, Relation::kGreaterEqual, duration[static_cast<std::size_t>(p)]);
  }
  // Capacity rows.
  for (int t = 0; t < horizon; ++t) {
    LinearExpr running;
    bool any = false;
    for (int i = 0; i < ops; ++i) {
      const auto& vars = starts[static_cast<std::size_t>(i)];
      for (int s = std::max(0, t - duration[static_cast<std::size_t>(i)] + 1);
           s <= t && s < static_cast<int>(vars.size()); ++s) {
        running.add_term(vars[static_cast<std::size_t>(s)], 1.0);
        any = true;
      }
    }
    if (any) m.add_constraint(running, Relation::kLessEqual, capacity);
  }
  // Minimize the weighted sum of start times (drives many B&B nodes).
  LinearExpr obj;
  for (int i = 0; i < ops; ++i) {
    const LinearExpr e = start_expr(i);
    for (const auto& term : e.terms()) obj.add_term(term.var, term.coeff * (1.0 + i % 3));
  }
  m.set_objective(obj, Sense::kMinimize);
  return m;
}

void run(const std::string& name, const Model& model, const MilpOptions& options,
         benchio::BenchWriter& writer) {
  const auto start = std::chrono::steady_clock::now();
  const MilpResult result = solve_milp(model, options);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  // Per-pivot cost: the basis/pricing work one simplex iteration buys.
  const double ms_per_1k_iterations =
      result.lp_iterations > 0 ? wall_ms * 1000.0 / static_cast<double>(result.lp_iterations)
                               : 0.0;

  benchio::JsonObject row;
  row.add("bench", "ilp_solver")
      .add("instance", name)
      .add("vars", model.variable_count())
      .add("rows", model.constraint_count())
      .add("nnz", model.nonzero_count())
      .add("status", to_string(result.status))
      .add("objective", result.objective)
      .add("nodes", static_cast<long long>(result.nodes))
      .add("lp_iterations", static_cast<long long>(result.lp_iterations))
      .add("cuts", static_cast<long long>(result.cuts.gomory_generated +
                                          result.cuts.cover_generated))
      .add("cuts_retained", static_cast<long long>(result.cuts.retained))
      .add("cut_rounds", static_cast<long long>(result.cuts.rounds))
      .add("arena_bytes", static_cast<long long>(result.arena_bytes))
      .add("ms_per_1k_iterations", ms_per_1k_iterations)
      .add("primal_pivots", static_cast<long long>(result.lp.primal_pivots))
      .add("dual_pivots", static_cast<long long>(result.lp.dual_pivots))
      .add("bound_flips", static_cast<long long>(result.lp.bound_flips))
      .add("refactorizations", static_cast<long long>(result.lp.refactorizations))
      .add("warm_solves", static_cast<long long>(result.lp.warm_solves))
      .add("cold_solves", static_cast<long long>(result.lp.cold_solves))
      .add("lu_refactorizations", static_cast<long long>(result.lp.lu_refactorizations))
      .add("eta_pivots", static_cast<long long>(result.lp.eta_pivots))
      .add("fill_in_ratio", result.lp.fill_in_ratio())
      .add("devex_resets", static_cast<long long>(result.lp.devex_resets))
      .add("threads", result.threads)
      .add("steals", static_cast<long long>(result.steals))
      .add("idle_seconds", result.idle_seconds)
      .add("parallel_efficiency", result.parallel_efficiency)
      .add("wall_ms", wall_ms);
  std::cout << row.str() << "\n";
  writer.add_instance(row);
}

}  // namespace

int main(int argc, char** argv) {
  // `--threads N`: 0 (default) runs one worker on the calling thread;
  // N >= 1 runs N asynchronous work-stealing workers.  CI runs several
  // thread counts, both bases and cuts on/off, and diffs objectives (they
  // must agree exactly).
  MilpOptions options;
  options.time_limit_seconds = 60.0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--basis") == 0 && i + 1 < argc) {
      if (!basis_kind_from_string(argv[++i], &options.lp.basis)) {
        std::cerr << "unknown basis '" << argv[i] << "' (dense|sparse)\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--pricing") == 0 && i + 1 < argc) {
      if (!pricing_rule_from_string(argv[++i], &options.lp.pricing)) {
        std::cerr << "unknown pricing '" << argv[i] << "' (dantzig|devex)\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--lp-cuts") == 0 && i + 1 < argc) {
      ++i;
      if (std::strcmp(argv[i], "on") == 0) {
        options.cuts = true;
      } else if (std::strcmp(argv[i], "off") == 0) {
        options.cuts = false;
      } else {
        std::cerr << "unknown --lp-cuts '" << argv[i] << "' (on|off)\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_ilp_solver [--threads N] [--basis dense|sparse]\n"
                << "                        [--pricing dantzig|devex] [--lp-cuts on|off]\n"
                << "                        [--out BENCH.json]\n";
      return 2;
    }
  }

  benchio::BenchWriter writer("ilp");
  writer.config()
      .add("threads", options.threads)
      .add("basis", to_string(options.lp.basis))
      .add("pricing", to_string(options.lp.pricing))
      .add("lp_cuts", options.cuts ? "on" : "off");

  run("knapsack_14", knapsack(14, 11), options, writer);
  run("knapsack_18", knapsack(18, 23), options, writer);
  run("minmax_assign_8x3", minmax_assign(8, 3, 5), options, writer);
  run("minmax_assign_10x4", minmax_assign(10, 4, 7), options, writer);
  run("bigm_intervals_5", bigm_intervals(5, 9, 3), options, writer);
  run("bigm_intervals_6", bigm_intervals(6, 11, 9), options, writer);
  run("time_indexed_8x14", time_indexed(8, 14, 2, 17), options, writer);
  run("time_indexed_10x18", time_indexed(10, 18, 2, 29), options, writer);

  if (!out_path.empty() && !writer.write(out_path)) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  return 0;
}
