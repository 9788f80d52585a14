#include "rel/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>

#include "obs/trace.hpp"
#include "svc/task_group.hpp"
#include "util/error.hpp"

namespace fsyn::rel {

namespace {

using Clock = std::chrono::steady_clock;

/// Decorrelates per-trial Rng streams: splitmix64 finalizer over a
/// golden-ratio stride from the user seed.  Trial t's stream depends only
/// on (seed, t), never on which worker ran it.
std::uint64_t trial_seed(std::uint64_t seed, int trial) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(trial) + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct TrialArrays {
  std::vector<double> lifetime;   ///< per trial, indexed by trial
  std::vector<int> first_valve;   ///< index into the valve table, per trial
};

/// Runs trials [begin, end) into the disjoint slice of `out`.  Returns
/// false when the token fired (partial results are discarded by the
/// caller's throw).
bool run_block(const std::vector<sim::ValveWear>& valves, const MonteCarloOptions& options,
               int begin, int end, TrialArrays& out) {
  const bool poll_cancel = options.cancel.valid();
  for (int trial = begin; trial < end; ++trial) {
    if (poll_cancel && options.cancel.cancelled()) return false;
    Rng rng(trial_seed(options.seed, trial));
    double chip_runs = std::numeric_limits<double>::infinity();
    int first = -1;
    for (std::size_t v = 0; v < valves.size(); ++v) {
      const double runs = options.model.sample_runs_to_failure(valves[v], rng);
      if (runs < chip_runs) {
        chip_runs = runs;
        first = static_cast<int>(v);
      }
    }
    out.lifetime[static_cast<std::size_t>(trial)] = chip_runs;
    out.first_valve[static_cast<std::size_t>(trial)] = first;
  }
  return true;
}

}  // namespace

LifetimeEstimate estimate_lifetime(const std::vector<sim::ValveWear>& valves,
                                   const MonteCarloOptions& options) {
  check_input(options.trials > 0, "need at least one trial");
  check_input(options.block_size > 0, "block size must be positive");
  check_input(!valves.empty(), "a chip with no implemented valves has no lifetime");
  for (const sim::ValveWear& valve : valves) {
    check_input(valve.total() > 0, "every sampled valve needs a positive per-run load");
  }
  options.cancel.check("monte-carlo lifetime");

  const int trials = options.trials;
  const int block_size = options.block_size;
  const int blocks = (trials + block_size - 1) / block_size;

  obs::Span span("rel", "monte_carlo");
  if (span.active()) {
    span.arg("trials", trials);
    span.arg("valves", valves.size());
    span.arg("blocks", blocks);
    span.arg("threads", options.threads);
  }

  TrialArrays arrays;
  arrays.lifetime.assign(static_cast<std::size_t>(trials), 0.0);
  arrays.first_valve.assign(static_cast<std::size_t>(trials), -1);

  obs::LatencyHistogram block_latency;
  std::atomic<bool> interrupted{false};
  const auto run_one_block = [&](int b) {
    obs::Span block_span("rel", "trial_block");
    const Clock::time_point started = Clock::now();
    const int begin = b * block_size;
    const int end = std::min(trials, begin + block_size);
    if (!run_block(valves, options, begin, end, arrays)) {
      interrupted.store(true, std::memory_order_relaxed);
    }
    block_latency.record(Clock::now() - started);
    if (block_span.active()) block_span.arg("trials", end - begin);
  };

  const Clock::time_point started = Clock::now();
  const int workers = std::min(options.threads, blocks);
  if (workers > 1) {
    std::atomic<int> next_block{0};
    svc::TaskGroup group;
    for (int w = 0; w < workers; ++w) {
      group.run([&] {
        while (true) {
          const int b = next_block.fetch_add(1, std::memory_order_relaxed);
          if (b >= blocks) return;
          run_one_block(b);
        }
      });
    }
    group.wait();
  } else {
    for (int b = 0; b < blocks; ++b) run_one_block(b);
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - started).count();

  if (interrupted.load(std::memory_order_relaxed)) {
    options.cancel.check("monte-carlo lifetime");
    throw CancelledError("cancelled: monte-carlo lifetime");
  }

  // Sequential reduction in trial order, so the estimate is independent of
  // the execution schedule above.
  LifetimeEstimate estimate;
  estimate.trials = trials;
  estimate.valve_count = static_cast<int>(valves.size());
  double sum = 0.0;
  for (const double runs : arrays.lifetime) sum += runs;
  estimate.mttf_runs = sum / trials;

  std::vector<double> sorted = arrays.lifetime;
  std::sort(sorted.begin(), sorted.end());
  const auto quantile = [&](int percent) {
    const std::size_t index = std::min(sorted.size() - 1,
                                       static_cast<std::size_t>(trials) *
                                           static_cast<std::size_t>(percent) / 100);
    return sorted[index];
  };
  estimate.p10_runs = quantile(10);
  estimate.p50_runs = quantile(50);
  estimate.p90_runs = quantile(90);
  estimate.min_runs = sorted.front();
  estimate.max_runs = sorted.back();

  std::vector<int> failures(valves.size(), 0);
  for (const int first : arrays.first_valve) {
    require(first >= 0, "every trial must attribute a first failure");
    ++failures[static_cast<std::size_t>(first)];
  }
  for (std::size_t v = 0; v < valves.size(); ++v) {
    if (failures[v] == 0) continue;
    FirstFailure bar;
    bar.valve_id = valves[v].valve_id;
    bar.cell = valves[v].cell;
    bar.role = valves[v].role();
    bar.per_run_actuations = valves[v].total();
    bar.count = failures[v];
    estimate.first_failures.push_back(bar);
  }
  std::sort(estimate.first_failures.begin(), estimate.first_failures.end(),
            [](const FirstFailure& a, const FirstFailure& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.valve_id < b.valve_id;
            });

  estimate.elapsed_seconds = elapsed;
  estimate.trials_per_second = elapsed > 0.0 ? trials / elapsed : 0.0;
  estimate.block_latency = block_latency.snapshot();
  if (span.active()) {
    span.arg("mttf_runs", estimate.mttf_runs);
    span.arg("interrupted", false);
  }
  return estimate;
}

LifetimeEstimate estimate_lifetime(const sim::ActuationLedger& ledger,
                                   const MonteCarloOptions& options) {
  return estimate_lifetime(sim::valve_wear(ledger), options);
}

}  // namespace fsyn::rel
