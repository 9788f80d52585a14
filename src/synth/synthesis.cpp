#include "synth/synthesis.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "svc/task_group.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::synth {

namespace {

/// Bound on Algorithm-1 L4-L9 iterations (storage-overlap forbidding).
constexpr int kMaxRefinementIterations = 16;

/// Checks the free-space rule for every storage-overlapping pair of an ILP
/// placement and forbids the first violating pair (Algorithm 1 L6-L8).
/// Returns true when all overlaps fit.
bool forbid_first_overfull_pair(MappingProblem& problem, const Placement& placement) {
  for (int a = 0; a < problem.task_count(); ++a) {
    for (const int b : problem.conflict_partners(a)) {
      if (b < a || !problem.parent_child(a, b) || !problem.time_overlap(a, b)) continue;
      if (problem.storage_overlap_forbidden(a, b)) continue;
      const arch::DeviceInstance& da = placement[static_cast<std::size_t>(a)];
      const arch::DeviceInstance& db = placement[static_cast<std::size_t>(b)];
      if (!da.footprint().overlaps(db.footprint())) continue;
      const bool a_is_parent = problem.task(a).start <= problem.task(b).start;
      const int parent = a_is_parent ? a : b;
      const int child = a_is_parent ? b : a;
      if (!problem.storage_overlap_fits(parent,
                                        placement[static_cast<std::size_t>(parent)], child,
                                        placement[static_cast<std::size_t>(child)])) {
        problem.forbid_storage_overlap(a, b);
        log_info("synthesis: forbidding storage overlap of '", problem.task(a).name,
                 "' and '", problem.task(b).name, "'");
        return false;
      }
    }
  }
  return true;
}

struct MappingAttempt {
  Placement placement;
  std::int64_t effort = 0;
  int refinements = 0;
  ilp::SolveCounters milp;
  std::optional<SynthesisResult::IlpVerdict> ilp;
};

std::optional<MappingAttempt> run_mapper(MappingProblem& problem,
                                         const SynthesisOptions& options) {
  if (options.mapper == MapperKind::kHeuristic) {
    // The heuristic enforces the free-space rule inside pair_feasible, so
    // no Algorithm-1 refinement loop is needed.
    const auto outcome = map_heuristic(problem, options.heuristic);
    if (!outcome.has_value()) return std::nullopt;
    return MappingAttempt{outcome->placement, outcome->moves_tried, 0, {}, std::nullopt};
  }

  // ILP mode: the model omits the free-space constraints for runtime (as in
  // the paper); iterate mapping + post-check (Algorithm 1 L4-L9).  Solver
  // counters accumulate across the refinement iterations.
  MappingAttempt attempt;
  for (int iteration = 0; iteration < kMaxRefinementIterations; ++iteration) {
    options.cancel.check("refinement loop");
    IlpMapperOptions ilp_options = options.ilp;
    if (options.warm_start_ilp && !ilp_options.warm_start.has_value()) {
      if (const auto warm = map_heuristic(problem, options.heuristic)) {
        ilp_options.warm_start = warm->placement;
      }
    }
    const auto outcome = map_ilp(problem, ilp_options);
    if (!outcome.has_value()) return std::nullopt;
    attempt.milp.accumulate(*outcome);
    if (forbid_first_overfull_pair(problem, outcome->placement)) {
      attempt.placement = outcome->placement;
      attempt.effort = attempt.milp.nodes;
      attempt.refinements = iteration;
      attempt.ilp = SynthesisResult::IlpVerdict{outcome->status, outcome->best_bound};
      return attempt;
    }
  }
  throw Error("dynamic-device mapping did not converge within the refinement budget");
}

}  // namespace

namespace {

/// One full mapping+routing+accounting attempt on a fixed chip size;
/// `growth` is the signed distance from the sweep's first size.
std::optional<SynthesisResult> attempt_on_size(const assay::SequencingGraph& graph,
                                               const sched::Schedule& schedule,
                                               const SynthesisOptions& options, int side,
                                               int growth) {
  arch::Architecture chip(side, side);
  MappingProblem problem = MappingProblem::build(graph, schedule, std::move(chip));
  problem.set_allow_storage_overlap(options.allow_storage_overlap);
  problem.set_routing_convenient(options.routing_convenient);
  problem.set_dead_valves(options.dead_valves);

  // Mapping is oblivious to routability; when routing fails, remapping
  // with a different seed usually unblocks it (different placements leave
  // different corridors free).
  std::optional<MappingAttempt> attempt;
  route::RoutingResult routing;
  SynthesisOptions retry_options = options;
  for (int r = 0; r <= options.routing_retries; ++r) {
    options.cancel.check("mapping/routing attempt");
    retry_options.heuristic.seed = options.heuristic.seed + 7919ULL * static_cast<std::uint64_t>(r);
    {
      obs::Span map_span("synth", "map");
      if (map_span.active()) {
        map_span.arg("side", side);
        map_span.arg("retry", r);
        map_span.arg("mapper", options.mapper == MapperKind::kIlp ? "ilp" : "heuristic");
      }
      attempt = run_mapper(problem, retry_options);
      if (map_span.active() && attempt.has_value() && attempt->ilp.has_value()) {
        map_span.arg("ilp_status", ilp::to_string(attempt->ilp->status));
      }
    }
    if (!attempt.has_value()) {
      log_info("synthesis: mapping failed on ", side, "x", side);
      return std::nullopt;
    }
    problem.validate_placement(attempt->placement);
    routing = route_all(problem, attempt->placement, options.router);
    if (routing.success) break;
    log_info("synthesis: routing failed (", routing.failure, ") on ", side, "x", side,
             r < options.routing_retries ? "; remapping with a new seed" : "");
  }
  if (!routing.success) return std::nullopt;
  route::validate_routing(problem, attempt->placement, routing);

  SynthesisResult result;
  result.chip_width = side;
  result.chip_height = side;
  result.placement = attempt->placement;
  result.routing = routing;
  result.mapper_effort = attempt->effort;
  result.refinement_iterations = attempt->refinements;
  result.chip_growths = growth;
  result.milp = attempt->milp;
  result.ilp = attempt->ilp;

  {
    obs::Span verify_span("sim", "verify");
    result.ledger_setting1 =
        sim::ChipSimulator(problem, result.placement, routing, sim::Setting::kConservative)
            .verify();
    result.ledger_setting2 =
        sim::ChipSimulator(problem, result.placement, routing, sim::Setting::kRescaled)
            .verify();
  }

  result.vs1_max = result.ledger_setting1.max_total();
  result.vs1_pump = result.ledger_setting1.max_pump();
  result.vs2_max = result.ledger_setting2.max_total();
  result.vs2_pump = result.ledger_setting2.max_pump();
  result.valve_count = result.ledger_setting1.actuated_valve_count();
  return result;
}

/// The chip-size attempts of one synthesize() call.  The sweep asks for
/// sizes with take() in the serial loop's order and gets each result, or
/// its exception, exactly where the serial loop met it.  Sizes queued ahead
/// with prefetch() are taken in turn by up to `max_tasks` executor tasks,
/// so at most `max_tasks` + 1 attempts run at once counting the caller,
/// which runs a queued size itself rather than wait for one.  Each attempt
/// has its own cancel token, chained to the caller's, which both mappers
/// poll; a failed probe below the first size cancels the probes below it,
/// which the serial loop never reaches.
class AttemptRunner {
 public:
  AttemptRunner(const assay::SequencingGraph& graph, const sched::Schedule& schedule,
                const SynthesisOptions& options, int first_side, int max_tasks)
      : graph_(graph), schedule_(schedule), options_(options), first_side_(first_side),
        max_tasks_(max_tasks) {}
  ~AttemptRunner() { stop(); }
  AttemptRunner(const AttemptRunner&) = delete;
  AttemptRunner& operator=(const AttemptRunner&) = delete;

  /// Queues `side` to run ahead on an executor task.  No-op without tasks.
  void prefetch(int side) {
    if (max_tasks_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!slots_.try_emplace(side, options_.cancel).second) return;
    queue_.push_back(side);
    // Tasks not running an attempt are about to take a queued size.
    if (tasks_ < max_tasks_ && static_cast<int>(queue_.size()) > tasks_ - busy_tasks_) {
      ++tasks_;
      group_.run([this] { drain(); });
    }
  }

  /// The attempt on `side`: its result, or its exception rethrown.
  std::optional<SynthesisResult> take(int side) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = slots_.try_emplace(side, options_.cancel).first;
    Slot& slot = it->second;
    if (slot.state == State::kQueued) {
      std::erase(queue_, side);
      run(side, slot, lock);
    }
    while (slot.state != State::kDone) {
      // A task has `side`; run the next queued size meanwhile.
      if (queue_.empty()) {
        done_.wait(lock);
        continue;
      }
      const int next = queue_.front();
      queue_.pop_front();
      run(next, slots_.at(next), lock);
    }
    std::optional<SynthesisResult> result = std::move(slot.result);
    const std::exception_ptr error = slot.error;
    slots_.erase(it);
    if (error) std::rethrow_exception(error);
    return result;
  }

  /// Drops the queued sizes, cancels the running ones and waits for every
  /// task.  Attempts read the caller's graph, schedule and options, so this
  /// runs before synthesize() returns or throws.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.clear();
      for (auto& [side, slot] : slots_) {
        if (slot.state == State::kRunning) slot.source.cancel();
      }
    }
    group_.wait();
  }

  /// Attempts started, and those of them that ended cancelled.
  int started() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return started_;
  }
  int cancelled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cancelled_;
  }

 private:
  enum class State { kQueued, kRunning, kDone };

  struct Slot {
    explicit Slot(const CancelToken& parent) : source(parent) {}
    State state = State::kQueued;
    CancelSource source;
    std::optional<SynthesisResult> result;
    std::exception_ptr error;
  };

  /// Runs the attempt on `side` with `lock` released, then publishes it.
  void run(int side, Slot& slot, std::unique_lock<std::mutex>& lock) {
    slot.state = State::kRunning;
    ++started_;
    lock.unlock();
    std::optional<SynthesisResult> result;
    std::exception_ptr error;
    bool cancelled = false;
    try {
      obs::Span span("synth", "attempt");
      if (span.active()) {
        span.arg("side", side);
        span.arg("growth", side - first_side_);
      }
      try {
        SynthesisOptions options = options_;
        options.cancel = slot.source.token();
        options.heuristic.cancel = options.cancel;
        options.ilp.cancel = options.cancel;
        result = attempt_on_size(graph_, schedule_, options, side, side - first_side_);
      } catch (const CancelledError&) {
        if (span.active()) span.arg("cancelled", true);
        throw;
      }
    } catch (const CancelledError&) {
      cancelled = true;
      error = std::current_exception();
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    slot.result = std::move(result);
    slot.error = error;
    slot.state = State::kDone;
    if (cancelled) ++cancelled_;
    // A probe below the first size that fails ends the downward sweep, so
    // the serial loop never reaches the probes below it.
    if (side < first_side_ && (error || !slot.result.has_value())) {
      std::erase_if(queue_, [&](int queued) {
        if (queued >= side) return false;
        slots_.erase(queued);
        return true;
      });
      for (auto& [other, other_slot] : slots_) {
        if (other < side && other_slot.state == State::kRunning) other_slot.source.cancel();
      }
    }
    done_.notify_all();
  }

  /// Body of an executor task: runs queued sizes until none is left.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!queue_.empty()) {
      const int side = queue_.front();
      queue_.pop_front();
      ++busy_tasks_;
      run(side, slots_.at(side), lock);
      --busy_tasks_;
    }
    --tasks_;
  }

  const assay::SequencingGraph& graph_;
  const sched::Schedule& schedule_;
  const SynthesisOptions& options_;
  const int first_side_;
  const int max_tasks_;

  mutable std::mutex mutex_;
  std::condition_variable done_;
  std::map<int, Slot> slots_;  ///< by side; erased once taken
  std::deque<int> queue_;      ///< prefetched sizes not yet started, in order
  int tasks_ = 0;       ///< submitted tasks that have not finished
  int busy_tasks_ = 0;  ///< ... of which running an attempt
  int started_ = 0;
  int cancelled_ = 0;
  svc::TaskGroup group_;  ///< last: its destructor waits for the tasks
};

}  // namespace

SynthesisResult synthesize(const assay::SequencingGraph& graph,
                           const sched::Schedule& schedule,
                           const SynthesisOptions& options) {
  const auto started = std::chrono::steady_clock::now();
  obs::Span span("synth", "synthesize");
  if (span.active()) {
    span.arg("assay", graph.name());
    span.arg("ops", graph.size());
    span.arg("mapper", options.mapper == MapperKind::kIlp ? "ilp" : "heuristic");
  }

  check_input(options.dead_valves.empty() || options.grid_size.has_value(),
              "dead valves require an explicit grid_size (coordinates are tied "
              "to one matrix)");
  const int first_side = options.grid_size.value_or(
      arch::Architecture::sized_for(graph, schedule, options.chip_slack).width());
  // An explicit grid size disables the sweep: the caller wants that chip.
  const int sweep = options.grid_size.has_value() ? 0 : options.chip_sweep;
  // Dead-valve coordinates belong to one manufactured matrix: it cannot grow.
  const int max_growth = options.dead_valves.empty() ? options.max_chip_growth
                                                     : std::min(options.max_chip_growth, 0);

  const auto score = [&](const SynthesisResult& r) {
    return r.vs1_max + options.valve_weight * r.valve_count;
  };
  const auto offer = [&](std::optional<SynthesisResult>& best,
                         std::optional<SynthesisResult> candidate) {
    if (!candidate.has_value()) return;
    if (!best.has_value() || score(*candidate) < score(*best)) best = std::move(candidate);
  };

  // An attempt is a deterministic function of its size, so each size is
  // tried at most once, and sizes the sweep needs can run ahead of it on
  // `sweep` executor tasks (none without a sweep: the serial loop).  Every
  // size up to first_side + sweep is needed whatever the outcome: it is at
  // most the first feasible size or within `sweep` above it.
  AttemptRunner runner(graph, schedule, options, first_side, std::max(sweep, 0));
  for (int side = first_side; side <= first_side + sweep; ++side) runner.prefetch(side);

  // Scan upward from the estimate until the first feasible size.
  std::optional<SynthesisResult> best;
  int feasible_side = -1;
  for (int growth = 0; growth <= max_growth; ++growth) {
    options.cancel.check("chip-size search");
    const int side = first_side + growth;
    auto candidate = runner.take(side);
    if (candidate.has_value()) {
      feasible_side = side;
      offer(best, std::move(candidate));
      break;
    }
    // Needed for the same reason, should a larger size be feasible.
    if (growth < max_growth) runner.prefetch(side + sweep + 1);
  }
  if (!best.has_value()) {
    const int last = first_side + max_growth;
    const std::string chip = std::to_string(last) + "x" + std::to_string(last);
    throw Error(options.dead_valves.empty()
                    ? "synthesis failed: no feasible mapping/routing up to chip size " + chip
                    : "synthesis failed: no feasible mapping/routing on the " + chip +
                          " chip with " + std::to_string(options.dead_valves.size()) +
                          " dead valves (a chip with dead valves cannot grow)");
  }

  if (sweep > 0) {
    // Probe smaller matrices down to the first infeasible size: the
    // estimate is deliberately conservative and the valve-count knee often
    // sits below it.  Only an estimate that succeeded leaves anything to
    // probe: otherwise the size below the first feasible one already
    // failed in the scan above.  Each probe is needed only if every probe
    // above it succeeds, so they run ahead speculatively.
    if (feasible_side == first_side) {
      for (int side = first_side - 1; side >= 8; --side) runner.prefetch(side);
      for (int side = first_side - 1; side >= 8; --side) {
        options.cancel.check("chip-size sweep");
        auto candidate = runner.take(side);
        if (!candidate.has_value()) break;
        offer(best, std::move(candidate));
      }
    }
    // And a few larger ones (more room can still lower the max actuation).
    for (int extra = 1; extra <= sweep; ++extra) {
      options.cancel.check("chip-size sweep");
      offer(best, runner.take(feasible_side + extra));
    }
  }
  runner.stop();
  best->runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  if (span.active()) {
    span.arg("chip", best->chip_width);
    span.arg("vs1_max", best->vs1_max);
    span.arg("valves", best->valve_count);
    span.arg("attempts", runner.started());
    span.arg("cancelled", runner.cancelled());
  }
  return *best;
}

}  // namespace fsyn::synth
