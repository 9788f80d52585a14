// served: synthesis jobs through the HTTP front-end, closed loop.
//
// In-process net::JobManager (2 workers, default result cache, no journal)
// behind an HttpServer on an ephemeral loopback port.  4 client threads,
// each with one request in flight, work through a fixed job list: POST
// /v1/jobs -> SSE watch until the job ends -> GET the result.  Every 25th
// job of a client also scrapes /metrics in the Prometheus format, so
// counters are read while jobs write them.
//
// A pass is 200 jobs drawn from the seed, on a fresh server (empty cache):
// in every block of four jobs, two run on a fixed grid (pcr 10, others 12),
// one runs the chip-size sweep and one repeats an earlier job's spec (a
// cache hit once that job finished).  Assays rotate through pcr / invitro /
// protein / mixing_tree in a seeded order; policy and heuristic seed are
// random.  Every pass draws new jobs, so a run samples the mix widely: the
// first pass from kPaperSeed (it gives the quality metrics), later ones
// from the seed.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "assay/benchmarks.hpp"
#include "e2e.hpp"
#include "net/api.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "report/result_io.hpp"
#include "sched/list_scheduler.hpp"
#include "util/json.hpp"

namespace fsyn::e2e {
namespace {

constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr int kScrapeEvery = 25;

struct Job {
  std::string body;  ///< POST /v1/jobs payload; also the cache key
  std::string assay;
  int policy = 0;
};

std::vector<Job> make_jobs(std::uint64_t seed, int pass, int count) {
  static const char* const kAssays[] = {"pcr", "invitro", "protein", "mixing_tree"};
  Rng rng(pass_seed(seed, pass) + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(pass + 1));
  const auto shuffled_assays = [&] {
    std::vector<std::string> deck(std::begin(kAssays), std::end(kAssays));
    for (std::size_t i = deck.size() - 1; i > 0; --i) {
      std::swap(deck[i], deck[rng.next_below(i + 1)]);
    }
    return deck;
  };
  std::vector<std::string> fixed_deck, sweep_deck;
  const auto draw = [&](std::vector<std::string>& deck) {
    if (deck.empty()) deck = shuffled_assays();
    std::string assay = deck.back();
    deck.pop_back();
    return assay;
  };

  std::vector<Job> jobs;
  std::vector<std::size_t> originals;  // indices of non-repeat jobs
  enum Kind { kFixed, kSweep, kRepeat };
  while (static_cast<int>(jobs.size()) < count) {
    Kind block[] = {kFixed, kFixed, kSweep, kRepeat};
    for (int i = 3; i > 0; --i) std::swap(block[i], block[rng.next_below(i + 1)]);
    for (Kind kind : block) {
      if (static_cast<int>(jobs.size()) == count) break;
      if (kind == kRepeat && !originals.empty()) {
        jobs.push_back(jobs[originals[rng.next_below(originals.size())]]);
        continue;
      }
      Job job;
      job.assay = draw(kind == kSweep ? sweep_deck : fixed_deck);
      job.policy = rng.next_int(0, 2);
      job.body = "{\"assay\":\"" + job.assay + "\",\"policy\":" + std::to_string(job.policy) +
                 ",\"seed\":" + std::to_string(rng.next_int(1, 1000000));
      if (kind != kSweep) job.body += ",\"grid\":" + std::string(job.assay == "pcr" ? "10" : "12");
      job.body += "}";
      originals.push_back(jobs.size());
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// One running server (ephemeral port) with its serve() thread.
class Server {
 public:
  Server() {
    net::JobManager::Config config;
    config.service.workers = kWorkers;
    manager_ = std::make_unique<net::JobManager>(std::move(config));
    manager_->recover();
    net::HttpServer::Config server_config;
    server_config.port = 0;
    server_ = std::make_unique<net::HttpServer>(server_config, *manager_,
                                                net::make_api_router(*manager_, {}));
    server_->bind();
    thread_ = std::thread([this] { server_->serve(); });
  }
  ~Server() {
    manager_->cancel_all();
    server_->request_stop();
    thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  net::ApiClient client() const { return net::ApiClient("127.0.0.1", server_->port()); }

 private:
  std::unique_ptr<net::JobManager> manager_;
  std::unique_ptr<net::HttpServer> server_;
  std::thread thread_;
};

/// Starts a server and waits until it answers /healthz.
std::unique_ptr<Server> start_server() {
  auto server = std::make_unique<Server>();
  net::ApiClient client = server->client();
  require(client.get("/healthz").status == 200, "served: /healthz did not answer 200");
  return server;
}

/// What one client saw of one job.
struct JobRecord {
  bool ok = false;
  int submit_status = 0;
  bool cache_hit = false;
  double latency_ms = 0.0;
  double queue_ms = 0.0;  ///< server-side, from the terminal SSE event
  double run_ms = 0.0;
  std::string doc;
  std::string error;
};

struct PassResult {
  std::vector<JobRecord> jobs;
  std::vector<double> scrape_ms;
  int scrape_failures = 0;
  double wall_s = 0.0;
  double cache_hit_frac = 0.0;
};

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

JobRecord run_job(net::ApiClient& client, const Job& job) {
  JobRecord record;
  const Clock::time_point start = Clock::now();
  try {
    std::uint64_t id = 0;
    {
      obs::Span span(kSpanCategory, "net.submit");
      const net::ClientResponse response = client.post("/v1/jobs", job.body);
      record.submit_status = response.status;
      if (response.status != 202) {
        record.error = "POST answered " + std::to_string(response.status);
        return record;
      }
      id = static_cast<std::uint64_t>(JsonValue::parse(response.body).at("id").as_int());
    }
    std::string terminal;
    {
      obs::Span span(kSpanCategory, "net.watch");
      client.watch(id, [&](const std::string& event, std::uint64_t, const std::string& data) {
        if (event == "done" || event == "failed" || event == "cancelled" ||
            event == "rejected") {
          terminal = event;
          const JsonValue status = JsonValue::parse(data);
          if (const JsonValue* v = status.find("cache_hit")) record.cache_hit = v->as_bool();
          if (const JsonValue* v = status.find("queue_seconds")) {
            record.queue_ms = v->as_number() * 1e3;
          }
          if (const JsonValue* v = status.find("run_seconds")) {
            record.run_ms = v->as_number() * 1e3;
          }
        }
        return true;
      });
    }
    if (terminal != "done") {
      record.error = "job ended '" + terminal + "'";
      return record;
    }
    {
      obs::Span span(kSpanCategory, "net.result");
      const net::ClientResponse result =
          client.get("/v1/jobs/" + std::to_string(id) + "/result");
      if (result.status != 200) {
        record.error = "result answered " + std::to_string(result.status);
        return record;
      }
      record.doc = result.body;
    }
    record.ok = true;
  } catch (const std::exception& e) {
    record.error = e.what();
  }
  record.latency_ms = ms_since(start);
  return record;
}

PassResult run_pass(const Server& server, const std::vector<Job>& jobs) {
  PassResult pass;
  pass.jobs.resize(jobs.size());
  std::atomic<std::size_t> next{0};
  std::mutex scrape_mutex;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      net::ApiClient client = server.client();
      int done = 0;
      for (std::size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1)) {
        pass.jobs[i] = run_job(client, jobs[i]);
        if (++done % kScrapeEvery != 0) continue;
        const Clock::time_point t0 = Clock::now();
        bool ok = false;
        try {
          obs::Span span(kSpanCategory, "net.scrape");
          const net::ClientResponse r = client.get("/metrics?format=prometheus");
          ok = r.status == 200 && r.body.find("flowsynth_") != std::string::npos;
        } catch (const std::exception&) {
        }
        const double ms = ms_since(t0);
        std::lock_guard<std::mutex> lock(scrape_mutex);
        pass.scrape_ms.push_back(ms);
        if (!ok) ++pass.scrape_failures;
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  pass.wall_s = seconds_since(start);

  net::ApiClient client = server.client();
  const JsonValue metrics = JsonValue::parse(client.get("/metrics").body);
  const JsonValue& cache = metrics.at("service").at("cache");
  const double hits = cache.at("hits").as_number();
  const double lookups = hits + cache.at("misses").as_number();
  pass.cache_hit_frac = lookups > 0.0 ? hits / lookups : 0.0;
  return pass;
}

/// Checks every job of a pass.  `designs` caches the verified design per
/// job spec across passes (each spec's design is checked once per run).
/// The first pass's designs also go to the quality metrics.
void check_pass(Report& report, const std::vector<Job>& jobs, const PassResult& pass,
                std::map<std::string, std::optional<Design>>& designs, bool first_pass) {
  // Result documents of the jobs that missed the cache, per spec.  A hit
  // must return one of them byte for byte.
  std::map<std::string, std::set<std::string>> miss_docs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (pass.jobs[i].ok && !pass.jobs[i].cache_hit) miss_docs[jobs[i].body].insert(pass.jobs[i].doc);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const JobRecord& record = pass.jobs[i];
    const std::string label = "job " + std::to_string(i) + " " + job.body;
    bool ok = report.expect(record.ok, label + ": " + record.error);
    if (ok && record.cache_hit) {
      ok = report.expect(miss_docs[job.body].count(record.doc) == 1,
                         label + ": cache hit is not byte-identical to its miss");
    }
    if (ok && designs.find(job.body) == designs.end()) {
      std::optional<Design>& design = designs[job.body];
      try {
        const report::StoredResult stored = report::stored_result_from_json(record.doc);
        const assay::SequencingGraph graph = assay::make_benchmark(job.assay);
        const sched::Schedule schedule =
            sched::schedule_with_policy(graph, sched::make_policy(graph, job.policy));
        if (check_design(report, label, graph, schedule, stored.result)) {
          design = design_of(stored.result);
        }
      } catch (const std::exception& e) {
        report.expect(false, label + ": " + e.what());
      }
    }
    ok = ok && designs[job.body].has_value();
    if (ok && first_pass) report.e2e.designs.push_back(*designs[job.body]);
    report.op(ok);
  }
  report.expect(pass.scrape_failures == 0, "a /metrics scrape failed");
}

}  // namespace

void run_served(const RunConfig& config, Report& report) {
  const int count = config.smoke ? 40 : 200;
  // Set-up: the pass's job list and a started server.
  const auto set_up = [&](int pass) {
    return std::make_pair(make_jobs(config.seed, pass, count), start_server());
  };
  std::vector<Job> jobs;
  std::unique_ptr<Server> server;
  SetupClock setup(report.e2e.setup_s, [&] { return set_up(0); });
  std::tie(jobs, server) = setup.first();

  std::map<std::string, std::optional<Design>> designs;
  if (!config.trace) {
    int pass_index = 0;
    run_passes(config.seconds, [&] {
      if (pass_index > 0) std::tie(jobs, server) = set_up(pass_index);
      const PassResult pass = run_pass(*server, jobs);
      server.reset();
      if (pass_index == 0) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          benchio::JsonObject row;
          row.add("workload", "served")
              .add("instance", jobs[i].body)
              .add("cache_hit", pass.jobs[i].cache_hit)
              .add("latency_ms", pass.jobs[i].latency_ms)
              .add("queue_ms", pass.jobs[i].queue_ms)
              .add("run_ms", pass.jobs[i].run_ms);
          report.rows.push_back(row);
        }
      }
      report.e2e.pass_s.push_back(pass.wall_s);
      for (const JobRecord& record : pass.jobs) {
        if (record.ok) report.e2e.op_ms.push_back(record.latency_ms);
      }
      check_pass(report, jobs, pass, designs, pass_index == 0);
      setup.between();
      ++pass_index;
    });
    report.lines.push_back(std::to_string(pass_index) + " pass(es) of " +
                           std::to_string(count) + " jobs, " +
                           std::to_string(designs.size()) + " distinct specs");
    return;
  }

  // Traced: the first pass's jobs, with spans.
  obs::Tracer::instance().enable();
  const PassResult pass = run_pass(*server, jobs);
  obs::Tracer::instance().disable();
  server.reset();
  SpanTotals spans;
  spans.absorb(report.kept_events);
  check_pass(report, jobs, pass, designs, true);

  std::vector<double> queue, run_miss, run_hit;
  int shed = 0;
  for (const JobRecord& record : pass.jobs) {
    if (record.submit_status == 429 || record.submit_status == 503) ++shed;
    if (!record.ok) continue;
    queue.push_back(record.queue_ms);
    (record.cache_hit ? run_hit : run_miss).push_back(record.run_ms);
  }
  auto& layers = report.layers;
  layers["net.submit_ms_p50"] = median(spans.samples_ms["net.submit"]);
  layers["net.result_ms_p50"] = median(spans.samples_ms["net.result"]);
  layers["net.scrape_ms_p50"] = median(spans.samples_ms["net.scrape"]);
  layers["svc.queue_ms_p50"] = median(queue);
  layers["svc.queue_ms_p95"] = quantile(queue, 0.95);
  layers["svc.run_miss_ms_p50"] = median(run_miss);
  layers["svc.run_hit_ms_p50"] = median(run_hit);
  layers["svc.cache_hit_frac"] = pass.cache_hit_frac;
  layers["net.shed"] = shed;
  report.lines.push_back("traced pass " + std::to_string(pass.wall_s) + " s; " +
                         std::to_string(run_hit.size()) + " cache hits, " +
                         std::to_string(run_miss.size()) + " misses");
}

}  // namespace fsyn::e2e
