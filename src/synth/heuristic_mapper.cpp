#include "synth/heuristic_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <span>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace fsyn::synth {

namespace {

using arch::DeviceInstance;
using arch::DeviceType;

/// Annealing schedule: the temperature decays geometrically from the first
/// to the last move, on the scale of `Cost::scalar`.
constexpr double kInitialTemperature = 40000.0;
constexpr double kFinalTemperature = 10.0;

/// Annealing cost: lexicographic (max load, sum of squared loads) folded
/// into one number.  The squared term is what lets the search walk across
/// plateaus of equal max load toward better-balanced states.
struct Cost {
  long max_load = 0;
  long sum_squares = 0;

  /// The max term dominates any realistic squared-load delta (one mixing
  /// operation shifts sum_squares by ~1e4, max steps by >= 40*1e4), giving
  /// near-lexicographic behaviour while keeping deltas on a scale the
  /// annealing temperature can work with.
  double scalar() const {
    return static_cast<double>(max_load) * 1e4 + static_cast<double>(sum_squares);
  }
};

class Mapper {
 public:
  Mapper(const MappingProblem& problem, const HeuristicOptions& options)
      : problem_(problem), options_(options), rng_(options.seed),
        loads_(problem.chip().width(), problem.chip().height(), 0),
        placed_(static_cast<std::size_t>(problem.task_count()), 0),
        placed_at_(static_cast<std::size_t>(problem.task_count()), 0),
        ban_begin_(1, 0),
        conflict_votes_(static_cast<std::size_t>(problem.task_count()), 0) {
    int grid_size = 0;
    int total_pump = 0;
    for (int i = 0; i < problem.task_count(); ++i) {
      ban_begin_.push_back(ban_begin_.back() + problem.candidates(i).size());
      grid_size = std::max(grid_size, problem.origin_grid_size(i));
      total_pump += problem.task(i).pump_actuations;
    }
    banned_.assign(ban_begin_.back(), 0);
    conflict_map_.assign(static_cast<std::size_t>(grid_size), -1);
    // No cell can carry more than every task's pumping.
    level_count_.assign(static_cast<std::size_t>(total_pump) + 1, 0);
    clear_loads();
  }

  std::optional<MappingOutcome> run() {
    options_.cancel.check("heuristic mapper");
    bool constructed = adopt_warm_start() || construct(0);
    for (int retry = 0; !constructed && retry < options_.greedy_retries; ++retry) {
      options_.cancel.check("heuristic mapper restart loop");
      // Randomized restarts: grow the tie-break noise so successive
      // attempts explore genuinely different layouts.
      noise_ = 400.0 * (retry + 1);
      clear_loads();
      constructed = construct(retry + 1);
    }
    noise_ = 0.0;
    if (!constructed) return std::nullopt;
    {
      obs::Span span("synth", "anneal");
      anneal();
      if (span.active()) {
        span.arg("moves_tried", moves_tried_);
        span.arg("moves_accepted", moves_accepted_);
      }
    }
    problem_.validate_placement(placement_);

    MappingOutcome outcome;
    outcome.placement = placement_;
    outcome.max_pump_load = problem_.max_pump_load(placement_);
    outcome.max_pump_load_setting2 = problem_.max_pump_load_setting2(placement_);
    outcome.moves_tried = moves_tried_;
    outcome.moves_accepted = moves_accepted_;
    return outcome;
  }

 private:
  /// Adopts options_.warm_start as the initial placement when it is sized
  /// for this problem and feasible; annealing refines it from there.
  bool adopt_warm_start() {
    if (!options_.warm_start.has_value()) return false;
    const Placement& warm = *options_.warm_start;
    if (static_cast<int>(warm.size()) != problem_.task_count()) return false;
    try {
      problem_.validate_placement(warm);
    } catch (const std::exception&) {
      return false;
    }
    placement_ = warm;
    std::fill(placed_.begin(), placed_.end(), 1);
    clear_loads();
    for (int i = 0; i < problem_.task_count(); ++i) {
      apply_load(placement_[static_cast<std::size_t>(i)],
                 problem_.task(i).pump_actuations, +1);
    }
    return true;
  }

  /// True when `device` is legal for the task against every other task's
  /// position (all tasks placed, as during annealing).
  bool legal_move(int task_index, const DeviceInstance& device) const {
    const std::span<const int> partners = problem_.conflict_partners(task_index);
    return std::all_of(partners.begin(), partners.end(), [&](int other) {
      return problem_.pair_feasible(task_index, device, other,
                                    placement_[static_cast<std::size_t>(other)]);
    });
  }

  /// Adds (sign +1) or removes (-1) a device's pumping, keeping the cost
  /// terms current: the sum of squared loads exactly, and the max load from
  /// the number of cells at each load level.
  void apply_load(const DeviceInstance& device, int pump_actuations, int sign) {
    if (pump_actuations == 0) return;
    device.footprint().for_each_ring_cell([&](const Point& cell) {
      int& load = loads_.at(cell);
      const long before = load;
      load += sign * pump_actuations;
      sum_squares_ += static_cast<long>(load) * load - before * before;
      --level_count_[static_cast<std::size_t>(before)];
      ++level_count_[static_cast<std::size_t>(load)];
      max_load_ = std::max(max_load_, static_cast<long>(load));
    });
    while (level_count_[static_cast<std::size_t>(max_load_)] == 0) --max_load_;
  }

  void clear_loads() {
    loads_.fill(0);
    std::fill(level_count_.begin(), level_count_.end(), 0);
    level_count_[0] = problem_.chip().width() * problem_.chip().height();
    sum_squares_ = 0;
    max_load_ = 0;
  }

  Cost current_cost() const { return Cost{max_load_, sum_squares_}; }

  /// One greedy pass under a `synth/construct` span: `restart` is 0 for
  /// the deterministic pass and k for the k-th randomized restart.
  bool construct(int restart) {
    obs::Span span("synth", "construct");
    const bool feasible = greedy_construct();
    if (span.active()) {
      span.arg("restart", restart);
      span.arg("feasible", feasible);
    }
    return feasible;
  }

  /// Greedy with backtracking: place tasks in occupancy order, each at the
  /// position that minimizes (resulting max ring load, added squared load,
  /// distance to parents/co-parents).  When a task has no feasible
  /// position, the placed task that blocks the most of its candidates is
  /// ripped up and re-queued (bounded by `backtrack_budget`).
  bool greedy_construct() {
    placement_.assign(static_cast<std::size_t>(problem_.task_count()),
                      DeviceInstance{DeviceType{2, 2}, Point{0, 0}});
    std::fill(placed_.begin(), placed_.end(), 0);

    std::vector<int> order(static_cast<std::size_t>(problem_.task_count()));
    std::iota(order.begin(), order.end(), 0);
    auto occupancy_before = [&](int a, int b) {
      const MappingTask& ta = problem_.task(a);
      const MappingTask& tb = problem_.task(b);
      if (ta.occupancy_begin() != tb.occupancy_begin()) {
        return ta.occupancy_begin() < tb.occupancy_begin();
      }
      return ta.start != tb.start ? ta.start < tb.start : a < b;
    };
    std::sort(order.begin(), order.end(), occupancy_before);

    // Candidates a task may not take again after being ripped up from them
    // — prevents rip-up/re-place cycles within one construction.
    std::fill(banned_.begin(), banned_.end(), 0);
    int backtrack_budget = 40 * problem_.task_count();

    std::deque<int> pending(order.begin(), order.end());
    while (!pending.empty()) {
      options_.cancel.check("greedy construction");
      const int i = pending.front();
      pending.pop_front();
      const auto ti = static_cast<std::size_t>(i);
      const MappingTask& task = problem_.task(i);
      const std::span<const int> partners = problem_.conflict_partners(i);
      const std::span<const DeviceInstance> pool = problem_.candidates(i);
      const char* const banned = banned_.data() + ban_begin_[ti];
      bool found = false;
      double best_score = 0.0;
      std::size_t best = 0;

      // Only placed conflict partners can block a candidate.  Marked from
      // the highest index down, each origin ends up holding the lowest-index
      // partner that blocks it: the first a pair_feasible scan of the
      // partners in order would find, and the one that gets the vote.
      const std::span<int> conflicts(conflict_map_.data(),
                                     static_cast<std::size_t>(problem_.origin_grid_size(i)));
      std::fill(conflicts.begin(), conflicts.end(), -1);
      for (auto other = partners.rbegin(); other != partners.rend(); ++other) {
        const auto o = static_cast<std::size_t>(*other);
        if (placed_[o]) problem_.mark_conflicts(i, *other, placement_[o], conflicts);
        conflict_votes_[o] = 0;
      }
      for (std::size_t c = 0; c < pool.size(); ++c) {
        if (banned[c]) continue;
        const DeviceInstance& candidate = pool[c];
        const int conflict =
            conflicts[static_cast<std::size_t>(problem_.origin_cell(i, candidate))];
        if (conflict >= 0) {
          ++conflict_votes_[static_cast<std::size_t>(conflict)];
          continue;
        }
        long new_max = 0, added_sq = 0;
        candidate.footprint().for_each_ring_cell([&](const Point& cell) {
          const long before = loads_.at(cell);
          const long after = before + task.pump_actuations;
          new_max = std::max(new_max, after);
          added_sq += after * after - before * before;
        });
        // Stay close to placed parents/children (routing convenience) and
        // to co-parents: their common child must later fit within the
        // routing distance of both.
        long gap_score = 0;
        for (const int other : problem_.proximity_partners(i)) {
          const auto o = static_cast<std::size_t>(other);
          if (!placed_[o]) continue;
          const int gap = candidate.footprint().chebyshev_gap(placement_[o].footprint());
          if (problem_.parent_child(i, other)) {
            gap_score += 2 * gap;
          } else {  // co-parents
            gap_score += std::max(0, gap - problem_.routing_distance());
          }
        }
        // Load balance dominates; proximity breaks ties; `noise_` (set on
        // randomized restarts) perturbs choices to escape dead-end layouts.
        const double score = static_cast<double>(new_max) * 1e9 +
                             static_cast<double>(added_sq) * 10.0 +
                             static_cast<double>(gap_score) * 200.0 +
                             (noise_ > 0.0 ? rng_.next_double() * noise_ : 0.0);
        if (!found || score < best_score) {
          found = true;
          best = c;
          best_score = score;
        }
      }
      if (!found) {
        // Backtrack: rip up the placed task blocking the most candidates.
        int victim = -1, victim_votes = 0;
        for (const int other : partners) {
          const int votes = conflict_votes_[static_cast<std::size_t>(other)];
          if (votes > victim_votes) {
            victim = other;
            victim_votes = votes;
          }
        }
        if (victim < 0 || --backtrack_budget < 0) {
          log_info("greedy mapper: no feasible position for task '", task.name, "' on ",
                   problem_.chip().width(), "x", problem_.chip().height(), " chip",
                   victim < 0 ? "" : " (backtrack budget exhausted)");
          return false;
        }
        const auto v = static_cast<std::size_t>(victim);
        apply_load(placement_[v], problem_.task(victim).pump_actuations, -1);
        placed_[v] = 0;
        banned_[ban_begin_[v] + placed_at_[v]] = 1;
        // Retry the stuck task first, then the victim.
        pending.push_front(victim);
        pending.push_front(i);
        continue;
      }
      placement_[ti] = pool[best];
      placed_at_[ti] = best;
      placed_[ti] = 1;
      apply_load(placement_[ti], task.pump_actuations, +1);
    }
    return true;
  }

  /// Simulated annealing over single-task relocations.
  void anneal() {
    if (options_.sa_iterations <= 0 || problem_.task_count() < 2) return;

    Cost cost = current_cost();
    Placement best_placement = placement_;
    Cost best_cost = cost;

    const double decay =
        std::pow(kFinalTemperature / kInitialTemperature, 1.0 / options_.sa_iterations);
    double temperature = kInitialTemperature;

    for (int iter = 0; iter < options_.sa_iterations; ++iter, temperature *= decay) {
      if ((iter & 0xff) == 0) options_.cancel.check("annealing loop");
      const int i = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(problem_.task_count())));
      const MappingTask& task = problem_.task(i);

      // Propose a random admissible instance for task i.
      const std::span<const DeviceInstance> pool = problem_.candidates(i);
      if (pool.empty()) continue;
      const DeviceInstance proposal = pool[rng_.next_below(pool.size())];
      ++moves_tried_;
      if (proposal == placement_[static_cast<std::size_t>(i)]) continue;

      const DeviceInstance old = placement_[static_cast<std::size_t>(i)];
      // Every task is placed and task i is not its own conflict partner,
      // so no tentative assignment is needed.
      if (!legal_move(i, proposal)) continue;

      apply_load(old, task.pump_actuations, -1);
      apply_load(proposal, task.pump_actuations, +1);
      const Cost new_cost = current_cost();
      const double delta = new_cost.scalar() - cost.scalar();
      if (delta <= 0.0 || rng_.next_double() < std::exp(-delta / temperature)) {
        placement_[static_cast<std::size_t>(i)] = proposal;
        cost = new_cost;
        ++moves_accepted_;
        if (cost.scalar() < best_cost.scalar()) {
          best_cost = cost;
          best_placement = placement_;
        }
      } else {
        apply_load(proposal, task.pump_actuations, -1);
        apply_load(old, task.pump_actuations, +1);
      }
    }

    placement_ = best_placement;
    // Rebuild loads for the final placement.
    clear_loads();
    for (int i = 0; i < problem_.task_count(); ++i) {
      apply_load(placement_[static_cast<std::size_t>(i)], problem_.task(i).pump_actuations, +1);
    }
  }

  const MappingProblem& problem_;
  HeuristicOptions options_;
  Rng rng_;
  Grid<int> loads_;
  Placement placement_;
  // The cost terms of loads_ (see apply_load): cells per load value, the
  // largest load with a cell, and the sum of squared loads.
  std::vector<int> level_count_;
  long max_load_ = 0;
  long sum_squares_ = 0;
  // Construction state, reused across greedy restarts: whether each task is
  // placed and at which position of its candidates, the rip-up bans (task
  // i's flags start at ban_begin_[i], one per candidate position), the
  // per-task victim votes, and the conflict map of the task being placed
  // (its origin grid, sized for the largest task's).
  std::vector<char> placed_;
  std::vector<std::size_t> placed_at_;
  std::vector<std::size_t> ban_begin_;
  std::vector<char> banned_;
  std::vector<int> conflict_votes_;
  std::vector<int> conflict_map_;
  double noise_ = 0.0;
  long moves_tried_ = 0;
  long moves_accepted_ = 0;
};

}  // namespace

std::optional<MappingOutcome> map_heuristic(const MappingProblem& problem,
                                            const HeuristicOptions& options) {
  obs::Span span("synth", "map_heuristic");
  if (span.active()) {
    span.arg("tasks", problem.task_count());
    span.arg("seed", options.seed);
  }
  Mapper mapper(problem, options);
  std::optional<MappingOutcome> outcome = mapper.run();
  if (span.active()) {
    span.arg("feasible", outcome.has_value());
    if (outcome.has_value()) {
      span.arg("moves_tried", outcome->moves_tried);
      span.arg("max_pump_load", outcome->max_pump_load);
    }
  }
  return outcome;
}

}  // namespace fsyn::synth
