#include "ilp/branch_and_bound.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "ilp/presolve.hpp"
#include "obs/trace.hpp"
#include "svc/task_group.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::ilp {

namespace {

using Clock = std::chrono::steady_clock;

/// An LP value within this of an integer counts as integral.
constexpr double kIntegralityTol = 1e-6;
/// Observations in a direction before a variable's own branching
/// statistics are trusted; the global averages stand in below that.
constexpr std::int64_t kBranchReliability = 2;
/// Weight of the impact term in the blended branching estimate (0 = pure
/// per-unit pseudocosts, 1 = pure absolute impact).
constexpr double kImpactWeight = 0.5;

/// One branching decision: the bound box of `var` after the branch.  Nodes
/// share their ancestors' decisions through an immutable linked chain, so a
/// node costs O(1) memory instead of a full bound-box copy.
struct BoundChange {
  int var = -1;
  double lower = 0.0;
  double upper = 0.0;
};

/// Arena for the bound-change chains.  The old representation heap-allocated
/// one reference-counted `Chain` per branching decision (two mallocs per
/// expanded node plus shared_ptr control blocks — the per-node malloc wall);
/// here links live in geometrically-growing blocks indexed by a 32-bit id,
/// retired links recycle through a free list, and ref counts are intrusive.
///
/// Thread safety: allocation and the free list are mutex-guarded, ref
/// counts are atomic, and chain *reads* are lock-free — the block table is a
/// fixed-size array (no reallocation, ever), a block pointer is written once
/// under the allocation mutex before any id in it can be published, and ids
/// travel between workers only through the node-pool mutexes, which gives
/// readers the required happens-before edge.
class ChainArena {
 public:
  static constexpr std::int32_t kNull = -1;

  struct Link {
    BoundChange change;
    std::int32_t parent = kNull;
    std::atomic<std::int32_t> refs{0};
  };

  /// Allocates a link holding `change` whose parent is `parent` (kNull for a
  /// root-level decision).  The new link starts with one reference — the
  /// caller's — and takes a reference on its parent.
  std::int32_t make(const BoundChange& change, std::int32_t parent) {
    std::int32_t id;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!free_.empty()) {
        id = free_.back();
        free_.pop_back();
      } else {
        id = size_++;
        const int b = block_of(id);
        if (blocks_[static_cast<std::size_t>(b)] == nullptr) {
          const std::size_t capacity = static_cast<std::size_t>(kBase) << b;
          blocks_[static_cast<std::size_t>(b)] = std::make_unique<Link[]>(capacity);
          bytes_ += static_cast<std::int64_t>(capacity * sizeof(Link));
        }
      }
    }
    // The id is private to this thread until it is published through a node
    // queue, so the field writes need no lock.
    Link& link = slot(id);
    link.change = change;
    link.parent = parent;
    link.refs.store(1, std::memory_order_relaxed);
    if (parent != kNull) acquire(parent);
    return id;
  }

  void acquire(std::int32_t id) {
    slot(id).refs.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drops one reference; a link whose count reaches zero returns to the
  /// free list and releases its parent in turn (iteratively, so deep chains
  /// cannot overflow the stack).
  void release(std::int32_t id) {
    while (id != kNull) {
      Link& link = slot(id);
      if (link.refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      const std::int32_t parent = link.parent;
      {
        std::lock_guard<std::mutex> lk(mutex_);
        free_.push_back(id);
      }
      id = parent;
    }
  }

  const BoundChange& change(std::int32_t id) const { return slot(id).change; }
  std::int32_t parent(std::int32_t id) const { return slot(id).parent; }

  /// High-water arena footprint (blocks are recycled, never returned).
  std::int64_t bytes() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return bytes_;
  }

 private:
  // Block b holds kBase << b links covering ids [kBase*(2^b - 1),
  // kBase*(2^(b+1) - 1)); 21 blocks span the whole positive int32 range, so
  // the pointer table is a fixed array and readers never race a vector
  // reallocation.
  static constexpr std::int32_t kBase = 1024;
  static constexpr int kMaxBlocks = 21;

  static int block_of(std::int32_t id) {
    return std::bit_width(static_cast<std::uint32_t>(id) / kBase + 1u) - 1;
  }

  const Link& slot(std::int32_t id) const {
    const int b = block_of(id);
    const std::uint32_t first = static_cast<std::uint32_t>(kBase) * ((1u << b) - 1u);
    return blocks_[static_cast<std::size_t>(b)][static_cast<std::uint32_t>(id) - first];
  }
  Link& slot(std::int32_t id) {
    return const_cast<Link&>(static_cast<const ChainArena*>(this)->slot(id));
  }

  mutable std::mutex mutex_;
  std::array<std::unique_ptr<Link[]>, kMaxBlocks> blocks_;
  std::vector<std::int32_t> free_;
  std::int32_t size_ = 0;
  std::int64_t bytes_ = 0;
};

/// An open node is now a flat 40-byte record: the bound-change chain is a
/// 32-bit arena id instead of a shared_ptr, so pushing / popping / stealing
/// nodes moves trivially-copyable values with no ref-count traffic.
struct Node {
  double bound_score = -kInfinity;  ///< parent LP bound, minimize sense
  double branch_dist = 0.0;  ///< LP-value distance moved by the branch
  std::int64_t seq = 0;      ///< creation order; newest-first on ties
  std::int32_t chain = ChainArena::kNull;  ///< bound-change chain head
  std::int32_t depth = 0;
  int branch_var = -1;  ///< branching bookkeeping for pseudocost updates
  bool branch_up = false;
};

struct Box {
  std::vector<double> lower, upper;
};

/// The root bound box: the presolved bounds when presolve tightened any
/// (else the model's), with integer bounds rounded inward so the LP
/// relaxation never explores fractional slivers outside them.
Box root_box(const Model& model, const PresolveResult* reduced) {
  const int n = model.variable_count();
  Box box;
  box.lower.reserve(static_cast<std::size_t>(n));
  box.upper.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variable(VarId{j});
    double lo = reduced ? reduced->lower[static_cast<std::size_t>(j)] : v.lower;
    double hi = reduced ? reduced->upper[static_cast<std::size_t>(j)] : v.upper;
    if (v.type != VarType::kContinuous) {
      lo = std::isfinite(lo) ? std::ceil(lo - 1e-9) : lo;
      hi = std::isfinite(hi) ? std::floor(hi + 1e-9) : hi;
    }
    box.lower.push_back(lo);
    box.upper.push_back(hi);
  }
  return box;
}

// ---------------------------------------------------------------------------
// Tree search.
//
// T workers (MilpOptions::threads, at least one) each own a private
// warm-started LpSolver plus the per-worker materialization scratch (bound
// box, stamps); the calling thread is always worker 0.  Every node goes
// through the same `expand`; two schedules decide which worker expands
// which node and when its side effects reach the shared state.
//
// Asynchronous work stealing (threads >= 1).  Workers 1..T-1 are tasks of
// one svc::TaskGroup on the process-wide executor; ones no helper has
// started when worker 0 finishes run on the caller and find the search
// over.  Open nodes live in a shared pool: a global best-first heap
// (pool_mutex_) plus one small dive stack per worker — a worker pushes the
// nearer child of its last branch onto its own stack (dive locality is what
// makes dual-simplex warm starts cheap) and publishes the other child to
// the global heap.  An idle worker takes from
// its stack, then the global heap, then steals the *oldest* entry of
// another worker's stack (best bound, least disruption to the victim's
// dive).  The incumbent objective is a lock-free atomic so bound pruning
// takes effect across all workers immediately; the incumbent vector itself
// is guarded by a mutex.  Termination uses an `outstanding_` node count:
// children are registered before their parent retires, so the count only
// reaches zero when the tree is exhausted.
//
// Serial (threads = 0).  One worker on the calling thread pops the best
// open node, expands it and applies its side effects — incumbent, children
// (which get their seq numbers here), pseudocost update — before the next
// pop: a plain best-first search in which every node
// branches on statistics that already include its own observation, so
// reruns are bit-identical (unless cut short by the wall-clock limit or
// cancellation).
class BranchAndBound {
 public:
  /// `root` is the bound box every node's branching decisions start from;
  /// `stop` fires at the solve's deadline or on the caller's cancel.
  BranchAndBound(const Model& model, const MilpOptions& options, const Box& root,
                 CancelToken stop)
      : model_(model),
        options_(options),
        stop_token_(std::move(stop)),
        start_(Clock::now()),
        serial_(options.threads == 0),
        root_lower_(root.lower),
        root_upper_(root.upper) {
    const std::size_t n = static_cast<std::size_t>(model.variable_count());
    pc_down_.resize(n);
    pc_up_.resize(n);
    threads_ = std::max(options.threads, 1);
    workers_.reserve(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i) {
      workers_.push_back(std::make_unique<Worker>(model_, options_.lp, i, root_lower_, root_upper_));
      workers_.back()->solver.set_stop(stop_token_);
    }
    last_heartbeat_ = start_;
  }

  MilpResult run() {
    if (options_.initial_incumbent) {
      incumbent_values_ = *options_.initial_incumbent;
      incumbent_score_.store(min_score(model_.objective_value(*incumbent_values_)),
                             std::memory_order_relaxed);
    }
    return serial_ ? run_serial() : run_async();
  }

 private:
  struct Worker {
    Worker(const Model& m, const LpOptions& lp, int idx, const std::vector<double>& root_lower,
           const std::vector<double>& root_upper)
        : index(idx), solver(m, lp), cur_lower(root_lower), cur_upper(root_upper) {
      stamp.assign(root_lower.size(), 0);
    }
    const int index;
    LpSolver solver;  ///< private relaxation engine; warm starts stay local
    std::vector<double> cur_lower, cur_upper;  ///< materialized node box
    std::vector<std::int64_t> stamp;
    std::vector<int> touched;
    std::int64_t epoch = 0;
    MilpWorkerStats stats;
    std::mutex local_mutex;  ///< guards `local` (async schedule; stealable)
    std::vector<Node> local;  ///< private dive stack; back = newest
  };

  /// The bound degradation one branch caused, as `node`'s LP reports it:
  /// `per_unit` feeds the pseudocosts, `gain` the impact estimates.
  struct Observation {
    int var = -1;  ///< branching variable; -1 = nothing observed
    bool up = false;
    double per_unit = 0.0;
    double gain = 0.0;
  };

  /// Observation sums of one branching direction (per variable, or over
  /// all variables).
  struct BranchStats {
    double pc_sum = 0.0;
    double imp_sum = 0.0;
    std::int64_t count = 0;
    void add(const Observation& o) {
      pc_sum += o.per_unit;
      imp_sum += o.gain;
      ++count;
    }
  };

  /// Everything one node expansion produces, computed without touching
  /// shared search state: the LP verdict, the node's pseudocost
  /// observation, branch children in push order (seq unassigned —
  /// numbering is a property of the publish, not the worker), and an
  /// integral candidate point if one was found.  Pruning decisions inside
  /// `expand` use the caller's snapshot of the shared incumbent score.
  struct NodeOutcome {
    Node node;
    LpStatus lp_status = LpStatus::kInfeasible;
    double node_score = kInfinity;
    Observation observation;
    std::optional<std::vector<double>> candidate;
    std::vector<Node> children;
  };

  double min_score(double user_objective) const {
    return model_.objective_sign() * (user_objective - model_.objective_constant());
  }
  double user_value(double score) const {
    return model_.objective_sign() * score + model_.objective_constant();
  }

  static void atomic_min(std::atomic<double>& target, double value) {
    double cur = target.load(std::memory_order_relaxed);
    while (value < cur &&
           !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  static bool worse(const Node& a, const Node& b) {
    if (a.bound_score != b.bound_score) return a.bound_score > b.bound_score;
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.seq < b.seq;
  }

  bool limits_exceeded(std::int64_t processed) const {
    return processed >= options_.max_nodes || stop_token_.cancelled();
  }

  // ---- node expansion (shared by both schedules) ---------------------------

  void materialize(Worker& w, const Node& node) const {
    for (const int v : w.touched) {
      w.cur_lower[static_cast<std::size_t>(v)] = root_lower_[static_cast<std::size_t>(v)];
      w.cur_upper[static_cast<std::size_t>(v)] = root_upper_[static_cast<std::size_t>(v)];
    }
    w.touched.clear();
    ++w.epoch;
    for (std::int32_t id = node.chain; id != ChainArena::kNull; id = arena_.parent(id)) {
      const BoundChange& change = arena_.change(id);
      const int v = change.var;
      if (w.stamp[static_cast<std::size_t>(v)] == w.epoch) continue;
      w.stamp[static_cast<std::size_t>(v)] = w.epoch;
      w.touched.push_back(v);
      w.cur_lower[static_cast<std::size_t>(v)] = change.lower;
      w.cur_upper[static_cast<std::size_t>(v)] = change.upper;
    }
  }

  int most_fractional(const std::vector<double>& values) const {
    int best = -1;
    double best_distance_to_half = 1.0;
    for (int j = 0; j < model_.variable_count(); ++j) {
      if (model_.variable(VarId{j}).type == VarType::kContinuous) continue;
      const double v = values[static_cast<std::size_t>(j)];
      const double frac = std::abs(v - std::round(v));
      if (frac <= kIntegralityTol) continue;
      const double distance_to_half = std::abs(frac - 0.5);
      if (best == -1 || distance_to_half < best_distance_to_half) {
        best = j;
        best_distance_to_half = distance_to_half;
      }
    }
    return best;
  }

  /// Branching score over the fractional variables: the classic pseudocost
  /// product rule, blended with impact estimates (absolute objective
  /// degradation per branch).  A variable's own statistics are trusted only
  /// after `kBranchReliability` observations in that direction; the global
  /// averages stand in below the threshold, and until any observation
  /// exists at all the most-fractional variable is used.
  ///
  /// `own` is the expanding node's observation, which the serial search
  /// records only after the expansion (async callers pass none).  It is
  /// folded in here with the same additions `record` makes, so every node
  /// branches on statistics that already include its own observation.
  int select_branch_var(const std::vector<double>& values, const Observation& own) {
    std::lock_guard<std::mutex> lk(pc_mutex_);
    auto fold = [&own](BranchStats stats, bool up, bool same_var) {
      if (own.var >= 0 && own.up == up && same_var) stats.add(own);
      return stats;
    };
    const BranchStats all_down = fold(pc_total_down_, false, true);
    const BranchStats all_up = fold(pc_total_up_, true, true);
    if (all_down.count + all_up.count == 0) return most_fractional(values);
    const double avg_down =
        all_down.count > 0 ? all_down.pc_sum / static_cast<double>(all_down.count) : 1.0;
    const double avg_up =
        all_up.count > 0 ? all_up.pc_sum / static_cast<double>(all_up.count) : 1.0;
    const double avg_imp_down =
        all_down.count > 0 ? all_down.imp_sum / static_cast<double>(all_down.count) : 1.0;
    const double avg_imp_up =
        all_up.count > 0 ? all_up.imp_sum / static_cast<double>(all_up.count) : 1.0;
    int best = -1;
    double best_score = -1.0;
    double best_distance_to_half = 1.0;
    bool best_reliable = false;
    for (int j = 0; j < model_.variable_count(); ++j) {
      if (model_.variable(VarId{j}).type == VarType::kContinuous) continue;
      const double v = values[static_cast<std::size_t>(j)];
      const double down_frac = v - std::floor(v);
      const double frac = std::min(down_frac, 1.0 - down_frac);
      if (frac <= kIntegralityTol) continue;
      const std::size_t sj = static_cast<std::size_t>(j);
      const BranchStats down = fold(pc_down_[sj], false, j == own.var);
      const BranchStats up = fold(pc_up_[sj], true, j == own.var);
      const bool down_reliable = down.count >= kBranchReliability;
      const bool up_reliable = up.count >= kBranchReliability;
      const double pcd = down_reliable ? down.pc_sum / static_cast<double>(down.count) : avg_down;
      const double pcu = up_reliable ? up.pc_sum / static_cast<double>(up.count) : avg_up;
      const double impd =
          down_reliable ? down.imp_sum / static_cast<double>(down.count) : avg_imp_down;
      const double impu = up_reliable ? up.imp_sum / static_cast<double>(up.count) : avg_imp_up;
      const double est_down = (1.0 - kImpactWeight) * pcd * down_frac + kImpactWeight * impd;
      const double est_up =
          (1.0 - kImpactWeight) * pcu * (1.0 - down_frac) + kImpactWeight * impu;
      const double score = std::max(est_down, 1e-6) * std::max(est_up, 1e-6);
      const double distance_to_half = std::abs(frac - 0.5);
      if (score > best_score ||
          (score == best_score && distance_to_half < best_distance_to_half)) {
        best = j;
        best_score = score;
        best_distance_to_half = distance_to_half;
        best_reliable = down_reliable && up_reliable;
      }
    }
    if (best != -1) {
      if (best_reliable) {
        ++impact_decisions_;
      } else {
        ++pseudocost_decisions_;
      }
    }
    return best;
  }

  /// The observation `node`'s LP bound `node_score` makes about the branch
  /// that created it; none for the root (whose parent bound is unknown).
  static Observation observe(const Node& node, double node_score) {
    const double gain = std::max(node_score - node.bound_score, 0.0);
    if (node.branch_var < 0 || !std::isfinite(gain)) return {};
    return Observation{node.branch_var, node.branch_up,
                       gain / std::max(node.branch_dist, 1e-6), gain};
  }

  void record(const Observation& o) {
    if (o.var < 0) return;
    const std::size_t v = static_cast<std::size_t>(o.var);
    std::lock_guard<std::mutex> lk(pc_mutex_);
    (o.up ? pc_up_ : pc_down_)[v].add(o);
    (o.up ? pc_total_up_ : pc_total_down_).add(o);
  }

  /// Creates the two children of the expanded node around `branch_var` in
  /// push order (nearer child last), using `w`'s materialized box so
  /// ancestor tightenings carry over.
  void emit_children(const Worker& w, NodeOutcome& out, int branch_var,
                     const std::vector<double>& values) {
    const std::size_t v = static_cast<std::size_t>(branch_var);
    const double value = values[v];
    const double floor_v = std::floor(value + kIntegralityTol);

    Node down;
    down.bound_score = out.node_score;
    down.depth = out.node.depth + 1;
    down.branch_var = branch_var;
    down.branch_dist = std::max(value - floor_v, kIntegralityTol);
    down.branch_up = false;
    Node up = down;
    up.branch_dist = std::max(floor_v + 1.0 - value, kIntegralityTol);
    up.branch_up = true;

    const double down_upper = std::min(w.cur_upper[v], floor_v);
    const double up_lower = std::max(w.cur_lower[v], floor_v + 1.0);
    const bool down_valid = w.cur_lower[v] <= down_upper;
    const bool up_valid = up_lower <= w.cur_upper[v];
    const bool down_first = (value - floor_v) <= 0.5;

    auto emit_down = [&] {
      if (!down_valid) return;
      down.chain =
          arena_.make(BoundChange{branch_var, w.cur_lower[v], down_upper}, out.node.chain);
      out.children.push_back(down);
    };
    auto emit_up = [&] {
      if (!up_valid) return;
      up.chain =
          arena_.make(BoundChange{branch_var, up_lower, w.cur_upper[v]}, out.node.chain);
      out.children.push_back(up);
    };
    if (down_first) {
      emit_up();
      emit_down();
    } else {
      emit_down();
      emit_up();
    }
  }

  /// Solves `node`'s LP on `w`'s private solver and derives everything that
  /// follows (children, integral candidate) without mutating shared search
  /// state; `incumbent_score` is the caller's pruning snapshot.
  NodeOutcome expand(Worker& w, Node node, double incumbent_score) {
    NodeOutcome out;
    materialize(w, node);
    const double cutoff = incumbent_score - options_.absolute_gap;  // +inf stays +inf
    const LpResult lp = options_.lp_warm_start
                            ? w.solver.resolve(w.cur_lower, w.cur_upper, cutoff)
                            : w.solver.solve(w.cur_lower, w.cur_upper);
    w.stats.lp_iterations += lp.iterations;
    out.node = std::move(node);
    out.lp_status = lp.status;
    if (lp.status != LpStatus::kOptimal) return out;

    out.node_score = min_score(lp.objective);
    out.observation = observe(out.node, out.node_score);
    if (out.node_score >= incumbent_score - options_.absolute_gap) return out;

    const int branch_var = select_branch_var(lp.values, serial_ ? out.observation : Observation{});
    if (branch_var == -1) {
      std::vector<double> snapped = lp.values;
      for (int j = 0; j < model_.variable_count(); ++j) {
        if (model_.variable(VarId{j}).type == VarType::kContinuous) continue;
        snapped[static_cast<std::size_t>(j)] = std::round(snapped[static_cast<std::size_t>(j)]);
      }
      if (model_.is_feasible(snapped)) out.candidate = std::move(snapped);
      return out;
    }

    // Rounding primal heuristic into the node's box.
    {
      std::vector<double> rounded = lp.values;
      for (int j = 0; j < model_.variable_count(); ++j) {
        if (model_.variable(VarId{j}).type == VarType::kContinuous) continue;
        double v = std::round(rounded[static_cast<std::size_t>(j)]);
        v = std::clamp(v, w.cur_lower[static_cast<std::size_t>(j)],
                       w.cur_upper[static_cast<std::size_t>(j)]);
        rounded[static_cast<std::size_t>(j)] = v;
      }
      if (model_.is_feasible(rounded)) out.candidate = std::move(rounded);
    }
    const double candidate_score =
        out.candidate ? min_score(model_.objective_value(*out.candidate)) : kInfinity;
    if (out.node_score >= std::min(incumbent_score, candidate_score) - options_.absolute_gap) {
      return out;
    }

    emit_children(w, out, branch_var, lp.values);
    return out;
  }

  // ---- shared incumbent ----------------------------------------------------

  bool prunable(double bound_score) const {
    return bound_score >= incumbent_score_.load(std::memory_order_relaxed) - options_.absolute_gap;
  }

  /// Adopts `point` when it beats the incumbent; returns whether it did.
  bool offer_incumbent(std::vector<double> point) {
    const double score = min_score(model_.objective_value(point));
    std::lock_guard<std::mutex> lk(incumbent_mutex_);
    if (score >= incumbent_score_.load(std::memory_order_relaxed)) return false;
    incumbent_values_ = std::move(point);
    incumbent_score_.store(score, std::memory_order_relaxed);
    log_debug("milp: new incumbent ", user_value(score), " after ",
              nodes_.load(std::memory_order_relaxed), " nodes");
    return true;
  }

  /// Side effects of an LP-optimal expansion that both schedules apply
  /// (children aside): root bound or pseudocost observation, and the
  /// incumbent candidate.  Returns whether the incumbent improved.
  bool apply_optimal(NodeOutcome& out) {
    if (out.node.branch_var < 0) {
      root_bound_score_.store(out.node_score, std::memory_order_relaxed);
    }
    record(out.observation);
    return out.candidate.has_value() && offer_incumbent(std::move(*out.candidate));
  }

  // ---- asynchronous work-stealing schedule ---------------------------------

  MilpResult run_async() {
    global_.push_back(Node{});
    outstanding_.store(1, std::memory_order_relaxed);

    svc::TaskGroup helpers;
    for (int i = 1; i < threads_; ++i) {
      Worker* w = workers_[static_cast<std::size_t>(i)].get();
      helpers.run([this, w] { run_worker(*w); });
    }
    run_worker(*workers_[0]);  // the caller always participates as worker 0
    helpers.wait();
    return assemble_result();
  }

  /// A worker that throws stops the others, which would otherwise wait
  /// forever for the node it held.
  void run_worker(Worker& w) {
    try {
      worker_loop(w);
    } catch (...) {
      request_stop();
      throw;
    }
  }

  void worker_loop(Worker& w) {
    obs::Span span("ilp", "bnb worker");
    if (span.active()) span.arg("worker", w.index);
    while (true) {
      if (done_.load(std::memory_order_acquire) || stop_.load(std::memory_order_relaxed)) break;
      if (limits_exceeded(nodes_.load(std::memory_order_relaxed))) {
        limit_hit_.store(true, std::memory_order_relaxed);
        request_stop();
        break;
      }
      std::optional<Node> node = take_node(w);
      if (!node.has_value()) {
        if (outstanding_.load(std::memory_order_acquire) == 0) {
          finish_search();
          break;
        }
        const Clock::time_point idle_start = Clock::now();
        {
          std::unique_lock<std::mutex> lk(pool_mutex_);
          work_cv_.wait_for(lk, std::chrono::microseconds(200), [this] {
            return !global_.empty() || stop_.load(std::memory_order_relaxed) ||
                   done_.load(std::memory_order_relaxed) ||
                   outstanding_.load(std::memory_order_relaxed) == 0;
          });
        }
        w.stats.idle_seconds += std::chrono::duration<double>(Clock::now() - idle_start).count();
        continue;
      }
      if (prunable(node->bound_score)) {
        arena_.release(node->chain);
        retire_node();
        continue;
      }
      const std::int64_t count = nodes_.fetch_add(1, std::memory_order_relaxed) + 1;
      ++w.stats.nodes;
      NodeOutcome out = expand(w, *node, incumbent_score_.load(std::memory_order_relaxed));
      publish_async(w, out);
      arena_.release(out.node.chain);  // children hold their own parent refs
      retire_node();
      if (w.index == 0 && (count & 0x7f) == 0) report_progress(false);
    }
    if (span.active()) {
      span.arg("nodes", w.stats.nodes);
      span.arg("steals", w.stats.steals);
    }
  }

  /// Applies one expansion's side effects to the shared search state.
  /// Children are registered in `outstanding_` *before* the caller retires
  /// the parent, so the count cannot transiently hit zero mid-tree.
  void publish_async(Worker& w, NodeOutcome& out) {
    switch (out.lp_status) {
      case LpStatus::kUnbounded:
        unbounded_.store(true, std::memory_order_relaxed);
        request_stop();
        return;
      case LpStatus::kIterationLimit:
        limit_hit_.store(true, std::memory_order_relaxed);
        atomic_min(pending_bound_, out.node.bound_score);
        request_stop();
        return;
      case LpStatus::kInfeasible:
      case LpStatus::kCutoff:
        return;
      case LpStatus::kOptimal:
        break;
    }
    apply_optimal(out);
    if (out.children.empty()) return;

    for (Node& child : out.children) {
      child.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    outstanding_.fetch_add(static_cast<std::int64_t>(out.children.size()),
                           std::memory_order_acq_rel);
    // The nearer child (push order puts it last) dives on w's own
    // stack; any sibling is published to the global heap.
    Node near = std::move(out.children.back());
    out.children.pop_back();
    if (!out.children.empty()) {
      std::lock_guard<std::mutex> lk(pool_mutex_);
      for (Node& sibling : out.children) {
        global_.push_back(std::move(sibling));
        std::push_heap(global_.begin(), global_.end(), worse);
      }
    }
    {
      std::lock_guard<std::mutex> lk(w.local_mutex);
      w.local.push_back(std::move(near));
    }
    work_cv_.notify_one();
  }

  std::optional<Node> take_node(Worker& w) {
    {
      std::lock_guard<std::mutex> lk(w.local_mutex);
      if (!w.local.empty()) {
        Node node = std::move(w.local.back());
        w.local.pop_back();
        return node;
      }
    }
    {
      std::lock_guard<std::mutex> lk(pool_mutex_);
      if (!global_.empty()) {
        std::pop_heap(global_.begin(), global_.end(), worse);
        Node node = std::move(global_.back());
        global_.pop_back();
        return node;
      }
    }
    for (int k = 1; k < threads_; ++k) {
      Worker& victim = *workers_[static_cast<std::size_t>((w.index + k) % threads_)];
      std::lock_guard<std::mutex> lk(victim.local_mutex);
      if (!victim.local.empty()) {
        // Steal the oldest (shallowest) entry: closest to the global
        // frontier, least disruptive to the victim's dive.
        Node node = std::move(victim.local.front());
        victim.local.erase(victim.local.begin());
        ++w.stats.steals;
        return node;
      }
    }
    return std::nullopt;
  }

  void retire_node() {
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) finish_search();
  }
  void finish_search() {
    done_.store(true, std::memory_order_release);
    work_cv_.notify_all();
  }
  void request_stop() {
    stop_.store(true, std::memory_order_relaxed);
    work_cv_.notify_all();
  }

  // ---- serial schedule -----------------------------------------------------

  MilpResult run_serial() {
    global_.push_back(Node{});  // owned by the calling thread; no locking
    Worker& self = *workers_[0];
    obs::Span span("ilp", "bnb worker");
    if (span.active()) span.arg("worker", 0);
    std::int64_t processed = 0;
    bool stop = false;
    while (!stop) {
      if (limits_exceeded(processed)) {
        limit_hit_.store(true, std::memory_order_relaxed);
        break;
      }
      const double inc = incumbent_score_.load(std::memory_order_relaxed);
      std::optional<Node> node;
      while (!node.has_value() && !global_.empty()) {
        std::pop_heap(global_.begin(), global_.end(), worse);
        Node top = std::move(global_.back());
        global_.pop_back();
        if (top.bound_score >= inc - options_.absolute_gap) {
          arena_.release(top.chain);
        } else {
          node = std::move(top);
        }
      }
      if (!node.has_value()) break;
      nodes_.store(++processed, std::memory_order_relaxed);

      ++self.stats.nodes;
      NodeOutcome out = expand(self, std::move(*node), inc);
      bool improved = false;
      switch (out.lp_status) {
        case LpStatus::kUnbounded:
          unbounded_.store(true, std::memory_order_relaxed);
          stop = true;
          break;
        case LpStatus::kIterationLimit:
          limit_hit_.store(true, std::memory_order_relaxed);
          atomic_min(pending_bound_, out.node.bound_score);
          stop = true;
          break;
        case LpStatus::kInfeasible:
        case LpStatus::kCutoff:
          break;
        case LpStatus::kOptimal:
          improved = apply_optimal(out);
          for (Node& child : out.children) {
            child.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
            global_.push_back(std::move(child));
            std::push_heap(global_.begin(), global_.end(), worse);
          }
          break;
      }
      arena_.release(out.node.chain);
      if (improved || (processed & 0x7f) == 0) report_progress(improved);
    }
    if (span.active()) span.arg("nodes", self.stats.nodes);
    return assemble_result();
  }

  // ---- reporting / result --------------------------------------------------

  /// Emits the B&B progress telemetry: trace counter samples (incumbent,
  /// open nodes and, on the serial schedule, the proven bound; one track
  /// set per thread so concurrent solves do not interleave) plus an INFO
  /// heartbeat.  Rate-limited unless forced; called every 128 nodes, on
  /// each serial expansion that improves the incumbent, and once at the
  /// end, so the cost with tracing and INFO logging off is a branch per
  /// call.  Worker 0 only (the timestamps are unsynchronized).
  void report_progress(bool force) {
    const bool tracing = obs::tracing_enabled();
    const bool logging = log_level() <= LogLevel::kInfo;
    if (!tracing && !logging) return;
    const Clock::time_point now = Clock::now();
    const bool sample =
        tracing && (force || now - last_counter_emit_ >= std::chrono::milliseconds(20));
    const bool heartbeat = logging && now - last_heartbeat_ >= std::chrono::seconds(5);
    if (!sample && !heartbeat) return;
    const double inc = incumbent_score_.load(std::memory_order_relaxed);
    // Between expansions the serial worker owns the open list, so it reports
    // the open nodes and their bound exactly; async workers share only the
    // outstanding (open + in-flight) count.
    const std::int64_t open = serial_ ? static_cast<std::int64_t>(global_.size())
                                      : outstanding_.load(std::memory_order_relaxed);
    const double bound = serial_ ? remaining_bound_score() : kInfinity;
    if (sample) {
      last_counter_emit_ = now;
      obs::Tracer& tracer = obs::Tracer::instance();
      const std::string suffix = " t" + std::to_string(current_thread_id());
      if (std::isfinite(inc)) tracer.counter("ilp", "milp incumbent" + suffix, user_value(inc));
      if (std::isfinite(bound)) tracer.counter("ilp", "milp bound" + suffix, user_value(bound));
      tracer.counter("ilp", "milp open_nodes" + suffix, static_cast<double>(open));
    }
    if (heartbeat) {
      last_heartbeat_ = now;
      log_info("milp[", threads_, "t]: ", nodes_.load(std::memory_order_relaxed),
               " nodes, incumbent ",
               std::isfinite(inc) ? detail::concat(user_value(inc)) : std::string("none"),
               serial_ ? ", bound " + detail::concat(user_value(bound)) : std::string(),
               ", open ", open);
    }
  }

  /// Tightest proven bound over everything still unexplored; only valid
  /// while no other worker runs (the serial search, or after the search).
  double remaining_bound_score() const {
    double bound = pending_bound_.load(std::memory_order_relaxed);
    for (const Node& node : global_) bound = std::min(bound, node.bound_score);
    for (const auto& wp : workers_) {
      for (const Node& node : wp->local) bound = std::min(bound, node.bound_score);
    }
    if (!std::isfinite(bound) && bound > 0.0) {
      bound = root_bound_score_.load(std::memory_order_relaxed);
    }
    return bound;
  }

  MilpResult assemble_result() {
    report_progress(true);
    MilpResult result;
    result.threads = threads_;
    for (int i = 0; i < threads_; ++i) {
      const Worker& w = *workers_[static_cast<std::size_t>(i)];
      result.nodes += w.stats.nodes;
      result.lp_iterations += w.stats.lp_iterations;
      result.steals += w.stats.steals;
      result.idle_seconds += w.stats.idle_seconds;
      result.lp.accumulate(w.solver.stats());
      result.worker_stats.push_back(w.stats);
    }
    result.arena_bytes = arena_.bytes();
    {
      std::lock_guard<std::mutex> lk(pc_mutex_);
      result.impact_branch_decisions = impact_decisions_;
      result.pseudocost_branch_decisions = pseudocost_decisions_;
    }
    const double wall = std::chrono::duration<double>(Clock::now() - start_).count();
    if (wall > 0.0) {
      const double capacity = static_cast<double>(threads_) * wall;
      result.parallel_efficiency =
          std::clamp((capacity - result.idle_seconds) / capacity, 0.0, 1.0);
    }
    const bool limit = limit_hit_.load(std::memory_order_relaxed);
    if (unbounded_.load(std::memory_order_relaxed) && !incumbent_values_.has_value()) {
      result.status = MilpStatus::kUnbounded;
      return result;
    }
    const double bound_score = remaining_bound_score();
    if (incumbent_values_.has_value()) {
      result.values = *incumbent_values_;
      result.objective = model_.objective_value(*incumbent_values_);
      result.status = limit ? MilpStatus::kFeasible : MilpStatus::kOptimal;
      result.best_bound = limit ? user_value(bound_score) : result.objective;
    } else {
      result.status = limit ? MilpStatus::kLimit : MilpStatus::kInfeasible;
      result.best_bound =
          user_value(limit ? bound_score : root_bound_score_.load(std::memory_order_relaxed));
    }
    return result;
  }

  const Model& model_;
  const MilpOptions& options_;
  const CancelToken stop_token_;
  Clock::time_point start_;
  const bool serial_;  ///< one worker on the serial schedule (threads = 0)
  const std::vector<double> root_lower_, root_upper_;
  int threads_ = 1;  ///< workers the solve was given
  std::vector<std::unique_ptr<Worker>> workers_;

  // Shared node pool.  Async schedule: guarded by pool_mutex_.  Serial
  // schedule: owned by the calling thread.
  std::mutex pool_mutex_;
  std::condition_variable work_cv_;
  ChainArena arena_;
  std::vector<Node> global_;
  std::atomic<std::int64_t> outstanding_{0};  ///< open + in-flight nodes; 0 = exhausted
  std::atomic<std::int64_t> seq_{0};
  std::atomic<std::int64_t> nodes_{0};

  std::mutex pc_mutex_;  ///< pseudocost + impact tables
  std::vector<BranchStats> pc_down_, pc_up_;  ///< per variable
  BranchStats pc_total_down_, pc_total_up_;  ///< over all variables
  std::int64_t impact_decisions_ = 0, pseudocost_decisions_ = 0;

  // Incumbent: the score is read lock-free on every pruning decision; the
  // vector itself only under the mutex.
  std::mutex incumbent_mutex_;
  std::optional<std::vector<double>> incumbent_values_;
  std::atomic<double> incumbent_score_{kInfinity};

  std::atomic<double> root_bound_score_{-kInfinity};
  std::atomic<double> pending_bound_{kInfinity};  ///< bound of an interrupted node
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::atomic<bool> limit_hit_{false};
  std::atomic<bool> unbounded_{false};

  Clock::time_point last_counter_emit_{};
  Clock::time_point last_heartbeat_{};
};

/// What the tree search returns when its root LP ends in `root`
/// (kIterationLimit: cap, numerical give-up or stop; or kInfeasible)
/// without an optimum: one node, and the initial incumbent, unproved after
/// a give-up.  Its LP work is the caller's to add.
MilpResult unsolved_root(const Model& model, const MilpOptions& options, LpStatus root) {
  MilpResult result;
  result.nodes = 1;
  result.threads = std::max(options.threads, 1);
  const bool limit = root == LpStatus::kIterationLimit;
  const double no_bound = model.objective_sign() * -kInfinity;
  if (options.initial_incumbent) {
    result.values = *options.initial_incumbent;
    result.objective = model.objective_value(result.values);
    result.status = limit ? MilpStatus::kFeasible : MilpStatus::kOptimal;
    result.best_bound = limit ? no_bound : result.objective;
  } else {
    result.status = limit ? MilpStatus::kLimit : MilpStatus::kInfeasible;
    result.best_bound = no_bound;
  }
  return result;
}

}  // namespace

const char* to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal: return "optimal";
    case MilpStatus::kFeasible: return "feasible";
    case MilpStatus::kInfeasible: return "infeasible";
    case MilpStatus::kUnbounded: return "unbounded";
    case MilpStatus::kLimit: return "limit";
  }
  return "?";
}

MilpResult solve_milp(const Model& model, const MilpOptions& options) {
  check_input(options.threads >= 0 && options.threads <= kMaxMilpThreads,
              "MILP search workers must be 0.." + std::to_string(kMaxMilpThreads));
  require(!options.initial_incumbent || model.is_feasible(*options.initial_incumbent, 1e-5),
          "warm-start incumbent is not feasible");
  obs::Span span("ilp", "solve_milp");
  if (span.active()) {
    span.arg("vars", model.variable_count());
    span.arg("constraints", model.constraint_count());
  }
  // One deadline for the whole solve, from here on, chained to the
  // caller's cancel: the cut loop and the tree poll it between rounds and
  // nodes, and every LP inside its simplex loops.
  CancelSource limits(options.cancel);
  if (options.time_limit_seconds > 0.0) {  // capped: the nanosecond count must not overflow
    limits.set_deadline_after(std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(std::min(options.time_limit_seconds, 1e9))));
  }
  const CancelToken stop = limits.token();
  MilpResult result = [&] {
    // Root cutting-plane loop: tighten the relaxation once under the root
    // bound box, then run the tree search on the model extended by the
    // retained cut rows.  The cuts are satisfied by every integer point of
    // the box, so the search space — and the optimum — are unchanged; only
    // the LP bound gets stronger.  The extension keeps the variable set
    // intact, so the root box still applies verbatim.
    auto search = [&](const PresolveResult* reduced) {
      const Box box = root_box(model, reduced);
      auto run_tree = [&](const Model& m) { return BranchAndBound(m, options, box, stop).run(); };
      if (!options.cuts || !model.has_integer_variables()) return run_tree(model);
      RootCutOutcome rc =
          run_root_cut_loop(model, box.lower, box.upper, options.lp, CutOptions{}, stop);
      MilpResult r;
      if (rc.root_status == LpStatus::kIterationLimit ||
          rc.root_status == LpStatus::kInfeasible) {
        r = unsolved_root(model, options, rc.root_status);
      } else if (rc.cuts.empty()) {
        r = run_tree(model);
      } else {
        Model extended = model;
        for (const Cut& cut : rc.cuts) {
          LinearExpr expr;
          for (std::size_t k = 0; k < cut.cols.size(); ++k) {
            expr.add_term(VarId{cut.cols[k]}, cut.vals[k]);
          }
          extended.add_constraint(std::move(expr), Relation::kLessEqual, cut.rhs, "cut");
        }
        r = run_tree(extended);
      }
      r.cuts = rc.stats;
      r.lp.accumulate(rc.lp);
      r.lp_iterations += rc.lp_iterations;
      return r;
    };
    if (options.presolve) {
      const PresolveResult reduced = presolve(model);
      if (reduced.status == PresolveStatus::kInfeasible) {
        MilpResult infeasible;
        infeasible.status = MilpStatus::kInfeasible;
        return infeasible;
      }
      if (reduced.tightenings > 0) {
        log_debug("milp presolve: ", reduced.tightenings, " bound tightenings, ",
                  reduced.fixed_variables, " variables fixed");
        return search(&reduced);
      }
    }
    return search(nullptr);
  }();
  if (span.active()) {
    span.arg("status", to_string(result.status));
    span.arg("nodes", result.nodes);
    span.arg("lp_iterations", result.lp_iterations);
    if (result.cuts.applied > 0) span.arg("cuts", result.cuts.applied);
    if (result.threads > 0) {
      span.arg("threads", result.threads);
      span.arg("steals", result.steals);
    }
  }
  return result;
}

}  // namespace fsyn::ilp
