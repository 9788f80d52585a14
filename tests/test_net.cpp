// Tests for the HTTP front-end: message parsing, routing, admission
// control, the crash-safe journal, wire-spec validation, trace-context
// propagation (traceparent in, trace ids out through SSE / status / the
// journal), Prometheus exposition, and loopback end-to-end flows against a
// real server on an ephemeral port (submit / status / SSE stream / cancel
// / overload / malformed-request fuzz / journal crash recovery).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "assay/benchmarks.hpp"
#include "net/admission.hpp"
#include "net/api.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/job_manager.hpp"
#include "net/journal.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/histogram.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace_context.hpp"
#include "report/result_io.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/synthesis.hpp"
#include "util/json.hpp"

namespace fsyn::net {
namespace {

// ---------------------------------------------------------------- parser

TEST(HttpParser, ParsesSimpleGet) {
  HttpRequestParser parser;
  ASSERT_EQ(ParseStatus::kComplete,
            parser.feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_EQ("GET", parser.request().method);
  EXPECT_EQ("/healthz", parser.request().target);
  EXPECT_TRUE(parser.request().keep_alive);
  ASSERT_NE(nullptr, parser.request().header("host"));  // case-insensitive
}

TEST(HttpParser, IncrementalFeed) {
  HttpRequestParser parser;
  EXPECT_EQ(ParseStatus::kNeedMore, parser.feed("GET / HT"));
  EXPECT_EQ(ParseStatus::kNeedMore, parser.feed("TP/1.1\r\nHost: x\r\n"));
  EXPECT_EQ(ParseStatus::kComplete, parser.feed("\r\n"));
}

TEST(HttpParser, ContentLengthBody) {
  HttpRequestParser parser;
  ASSERT_EQ(ParseStatus::kComplete,
            parser.feed("POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"));
  EXPECT_EQ("hello", parser.request().body);
}

TEST(HttpParser, PipelinedRequests) {
  HttpRequestParser parser;
  ASSERT_EQ(ParseStatus::kComplete,
            parser.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"));
  EXPECT_EQ("/a", parser.request().target);
  parser.reset();
  ASSERT_EQ(ParseStatus::kComplete, parser.advance());
  EXPECT_EQ("/b", parser.request().target);
}

TEST(HttpParser, Http10DefaultsToClose) {
  HttpRequestParser parser;
  ASSERT_EQ(ParseStatus::kComplete, parser.feed("GET / HTTP/1.0\r\n\r\n"));
  EXPECT_FALSE(parser.request().keep_alive);
}

TEST(HttpParser, RejectsOversizedBody) {
  HttpRequestParser parser;
  EXPECT_EQ(ParseStatus::kError,
            parser.feed("POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"));
  EXPECT_EQ(413, parser.error_status());
}

TEST(HttpParser, RejectsOversizedHeaders) {
  HttpRequestParser parser;
  std::string huge = "GET / HTTP/1.1\r\n";
  huge += "X-Pad: " + std::string(32 * 1024, 'a') + "\r\n\r\n";
  EXPECT_EQ(ParseStatus::kError, parser.feed(huge));
  EXPECT_EQ(431, parser.error_status());
}

TEST(HttpParser, RejectsTransferEncodingRequests) {
  HttpRequestParser parser;
  EXPECT_EQ(ParseStatus::kError,
            parser.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
  EXPECT_EQ(501, parser.error_status());
}

TEST(HttpParser, RejectsPostWithoutLength) {
  HttpRequestParser parser;
  EXPECT_EQ(ParseStatus::kError, parser.feed("POST / HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(411, parser.error_status());
}

TEST(HttpParser, RejectsGarbage) {
  HttpRequestParser parser;
  EXPECT_EQ(ParseStatus::kError, parser.feed("\x01\x02 nonsense\r\n\r\n"));
  EXPECT_EQ(400, parser.error_status());
}

TEST(HttpParser, RejectsUnknownVersion) {
  HttpRequestParser parser;
  EXPECT_EQ(ParseStatus::kError, parser.feed("GET / HTTP/2.0\r\n\r\n"));
  EXPECT_EQ(505, parser.error_status());
}

TEST(HttpParser, QueryParamAndPath) {
  HttpRequestParser parser;
  ASSERT_EQ(ParseStatus::kComplete,
            parser.feed("GET /metrics?format=prometheus&empty=&x=1 HTTP/1.1\r\n\r\n"));
  const HttpRequest& request = parser.request();
  EXPECT_EQ("/metrics", request.path());
  EXPECT_EQ("prometheus", request.query_param("format"));
  EXPECT_EQ("1", request.query_param("x"));
  EXPECT_EQ("", request.query_param("empty"));
  EXPECT_EQ("", request.query_param("missing"));
  EXPECT_EQ("", request.query_param("form"));  // no prefix matching
}

TEST(ChunkedDecoder, RoundTripsChunkEncode) {
  const std::string payload = "hello, chunked world";
  std::string encoded = chunk_encode(payload);
  encoded += chunk_encode(" and more");
  encoded += kLastChunk;

  ChunkedDecoder decoder;
  std::string out;
  EXPECT_EQ(ParseStatus::kComplete, decoder.feed(encoded, &out));
  EXPECT_EQ("hello, chunked world and more", out);
}

TEST(ChunkedDecoder, ByteAtATime) {
  std::string encoded = chunk_encode("abc");
  encoded += std::string(kLastChunk);
  ChunkedDecoder decoder;
  std::string out;
  ParseStatus status = ParseStatus::kNeedMore;
  for (const char c : encoded) {
    status = decoder.feed(std::string_view(&c, 1), &out);
    ASSERT_NE(ParseStatus::kError, status);
  }
  EXPECT_EQ(ParseStatus::kComplete, status);
  EXPECT_EQ("abc", out);
}

TEST(ChunkedDecoder, RejectsBadFraming) {
  ChunkedDecoder decoder;
  std::string out;
  EXPECT_EQ(ParseStatus::kError, decoder.feed("zz\r\ndata\r\n", &out));
}

TEST(SseFrame, FormatsEventIdData) {
  EXPECT_EQ("event: done\nid: 7\ndata: {\"x\":1}\n\n", sse_frame("done", 7, "{\"x\":1}"));
  // Multi-line payloads become one data: line per line, per the SSE spec.
  EXPECT_EQ("event: e\nid: 1\ndata: a\ndata: b\n\n", sse_frame("e", 1, "a\nb"));
}

// ---------------------------------------------------------------- router

HttpRequest make_request(std::string method, std::string target) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  return request;
}

TEST(Router, MatchesAndCaptures) {
  Router router;
  router.add("GET", "/v1/jobs/{id}", [](const HttpRequest&, const RouteParams& params) {
    HttpResponse response;
    response.body = *find_param(params, "id");
    return response;
  });
  const HttpResponse response = router.dispatch(make_request("GET", "/v1/jobs/42"));
  EXPECT_EQ(200, response.status);
  EXPECT_EQ("42", response.body);
}

TEST(Router, DistinguishesNotFoundFromMethodNotAllowed) {
  Router router;
  router.add("GET", "/v1/jobs", [](const HttpRequest&, const RouteParams&) {
    return HttpResponse();
  });
  EXPECT_EQ(404, router.dispatch(make_request("GET", "/nope")).status);
  const HttpResponse response = router.dispatch(make_request("DELETE", "/v1/jobs"));
  EXPECT_EQ(405, response.status);
  ASSERT_NE(nullptr, find_header(response.headers, "Allow"));
  EXPECT_EQ("GET", *find_header(response.headers, "Allow"));
}

TEST(Router, HandlerErrorsBecomeResponses) {
  Router router;
  router.add("GET", "/bad", [](const HttpRequest&, const RouteParams&) -> HttpResponse {
    throw Error("bad input");
  });
  router.add("GET", "/boom", [](const HttpRequest&, const RouteParams&) -> HttpResponse {
    throw std::runtime_error("boom");
  });
  EXPECT_EQ(400, router.dispatch(make_request("GET", "/bad")).status);
  EXPECT_EQ(500, router.dispatch(make_request("GET", "/boom")).status);
}

// ------------------------------------------------------------- admission

obs::HistogramSnapshot histogram_of(const std::vector<double>& seconds) {
  obs::LatencyHistogram histogram;
  for (const double s : seconds) {
    histogram.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(s)));
  }
  return histogram.snapshot();
}

TEST(Admission, ColdServerAdmitsOptimistically) {
  AdmissionConfig config;
  const AdmissionDecision decision =
      admit(config, svc::JobPriority::kInteractive, 0, 4, obs::HistogramSnapshot());
  EXPECT_TRUE(decision.accepted);
  EXPECT_DOUBLE_EQ(config.default_service_seconds, decision.estimated_service_seconds);
}

TEST(Admission, ColdServerStillRejectsImpossibleDeadline) {
  AdmissionConfig config;
  config.default_service_seconds = 10.0;
  config.deadline_seconds[0] = 1.0;
  const AdmissionDecision decision =
      admit(config, svc::JobPriority::kInteractive, 0, 4, obs::HistogramSnapshot());
  EXPECT_FALSE(decision.accepted);
  EXPECT_GE(decision.retry_after_seconds, 1);
}

TEST(Admission, WarmHistogramDrivesRejection) {
  AdmissionConfig config;
  config.deadline_seconds[0] = 2.0;
  // p95 ~= 1s; queue of 8 on 2 workers -> 4 waves -> ~5s estimate > 2s.
  const auto latency = histogram_of({1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  const AdmissionDecision rejected =
      admit(config, svc::JobPriority::kInteractive, 8, 2, latency);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_GE(rejected.retry_after_seconds, 1);

  // Same load is fine for the background class (600s deadline).
  EXPECT_TRUE(admit(config, svc::JobPriority::kBackground, 8, 2, latency).accepted);
  // And an empty queue admits the interactive job again.
  EXPECT_TRUE(admit(config, svc::JobPriority::kInteractive, 0, 2, latency).accepted);
}

TEST(Admission, WaitScalesWithDepthOverWorkers) {
  AdmissionConfig config;
  const auto latency = histogram_of({1.0, 1.0, 1.0, 1.0});
  const AdmissionDecision one_lane =
      admit(config, svc::JobPriority::kBackground, 6, 1, latency);
  const AdmissionDecision three_lanes =
      admit(config, svc::JobPriority::kBackground, 6, 3, latency);
  EXPECT_GT(one_lane.estimated_wait_seconds, three_lanes.estimated_wait_seconds);
}

TEST(Admission, NonPositiveDeadlineDisablesShedding) {
  AdmissionConfig config;
  config.deadline_seconds[0] = 0.0;
  const auto latency = histogram_of({100.0, 100.0, 100.0, 100.0});
  EXPECT_TRUE(admit(config, svc::JobPriority::kInteractive, 1000, 1, latency).accepted);
}

// --------------------------------------------------------------- journal

TEST(Journal, ParsesRecordsAndTornFinalLine) {
  const std::string text =
      "{\"event\":\"accepted\",\"id\":1,\"priority\":\"batch\",\"spec\":{\"assay\":\"pcr\"}}\n"
      "{\"event\":\"finished\",\"id\":1,\"status\":\"done\",\"result_doc\":\"{}\"}\n"
      "{\"event\":\"accepted\",\"id\":2,\"priority\":\"inter";  // torn: no newline
  long torn = 0;
  const auto records = JobJournal::parse(text, &torn);
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(1, torn);
  EXPECT_EQ(JournalRecord::Type::kAccepted, records[0].type);
  EXPECT_EQ("{\"assay\":\"pcr\"}", records[0].spec_json);
  EXPECT_EQ(JournalRecord::Type::kFinished, records[1].type);
  EXPECT_EQ("{}", records[1].result_doc);
}

TEST(Journal, SkipsCorruptMiddleLines) {
  const std::string text =
      "not json at all\n"
      "{\"event\":\"accepted\",\"id\":3,\"priority\":\"batch\",\"spec\":{}}\n";
  long torn = 0;
  const auto records = JobJournal::parse(text, &torn);
  ASSERT_EQ(1u, records.size());
  EXPECT_EQ(1, torn);
  EXPECT_EQ(3u, records[0].id);
}

TEST(Journal, AppendAndReplayRoundTrip) {
  const std::string path = testing::TempDir() + "journal_roundtrip.jsonl";
  std::remove(path.c_str());
  {
    JobJournal journal;
    EXPECT_TRUE(journal.open(path).empty());
    journal.append_accepted(7, "interactive", "{\"assay\":\"pcr\"}");
    // Documents with quotes and newlines must survive the escaping.
    journal.append_finished(7, "done", "{\n  \"x\": \"a\\\"b\"\n}", "");
    journal.close();
  }
  JobJournal journal;
  const auto records = journal.open(path);
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(7u, records[0].id);
  EXPECT_EQ("{\"assay\":\"pcr\"}", records[0].spec_json);
  EXPECT_EQ("{\n  \"x\": \"a\\\"b\"\n}", records[1].result_doc);
  EXPECT_EQ(0, journal.stats().torn_lines);
  std::remove(path.c_str());
}

TEST(Journal, TraceparentRoundTripsAndOldRecordsParse) {
  const std::string path = testing::TempDir() + "journal_trace.jsonl";
  std::remove(path.c_str());
  const std::string header = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  {
    JobJournal journal;
    EXPECT_TRUE(journal.open(path).empty());
    journal.append_accepted(1, "interactive", "{\"assay\":\"pcr\"}", header);
    journal.append_accepted(2, "batch", "{\"assay\":\"pcr\"}");  // no trace
    journal.close();
  }
  JobJournal journal;
  const auto records = journal.open(path);
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(header, records[0].traceparent);
  EXPECT_TRUE(records[1].traceparent.empty());
  std::remove(path.c_str());

  // Pre-trace journals (no "trace" key at all) still parse.
  long torn = 0;
  const auto old = JobJournal::parse(
      "{\"event\":\"accepted\",\"id\":9,\"priority\":\"batch\",\"spec\":{}}\n", &torn);
  ASSERT_EQ(1u, old.size());
  EXPECT_EQ(0, torn);
  EXPECT_TRUE(old[0].traceparent.empty());
}

// ------------------------------------------------------------------ wire

TEST(Wire, ParsesFullSpec) {
  const WireSpec wire = parse_wire_spec(
      "{\"kind\":\"synthesis\",\"assay\":\"pcr\",\"policy\":2,\"seed\":99,"
      "\"grid\":12,\"priority\":\"batch\",\"deadline_ms\":5000}");
  EXPECT_EQ(svc::JobKind::kSynthesis, wire.spec.kind);
  EXPECT_EQ("pcr", wire.assay_ref);
  EXPECT_EQ(2, wire.policy_increments);
  EXPECT_EQ(99u, wire.seed);
  EXPECT_EQ(12, *wire.spec.options.grid_size);
  EXPECT_EQ(svc::JobPriority::kBatch, wire.spec.priority);
  ASSERT_TRUE(wire.spec.deadline.has_value());
  EXPECT_EQ(std::chrono::milliseconds(5000), *wire.spec.deadline);
  EXPECT_FALSE(wire.canonical.empty());
}

TEST(Wire, PriorityDefaultsByKind) {
  EXPECT_EQ(svc::JobPriority::kInteractive,
            parse_wire_spec("{\"assay\":\"pcr\"}").spec.priority);
  EXPECT_EQ(svc::JobPriority::kBackground,
            parse_wire_spec("{\"kind\":\"reliability\",\"assay\":\"pcr\"}").spec.priority);
}

TEST(Wire, RejectsUnknownKeys) {
  EXPECT_THROW(parse_wire_spec("{\"assay\":\"pcr\",\"polcy\":2}"), Error);
  EXPECT_THROW(parse_wire_spec("{\"assay\":\"pcr\",\"reliability\":{\"trails\":5}}"),
               Error);
}

TEST(Wire, ParsesFleetSpec) {
  const WireSpec wire = parse_wire_spec(
      "{\"kind\":\"fleet\",\"assay\":\"pcr\",\"seed\":7,"
      "\"fleet\":{\"chips\":3,\"cadence\":4,\"horizon\":12,\"max_repairs\":1}}");
  EXPECT_EQ(svc::JobKind::kFleet, wire.spec.kind);
  EXPECT_EQ(svc::JobPriority::kBatch, wire.spec.priority);  // long batch work
  EXPECT_NE(nullptr, wire.spec.fleet_runner);
  // Typos and nonsense bounds fail loudly, like every other wire field.
  EXPECT_THROW(
      parse_wire_spec("{\"kind\":\"fleet\",\"assay\":\"pcr\",\"fleet\":{\"chps\":3}}"),
      Error);
  EXPECT_THROW(
      parse_wire_spec("{\"kind\":\"fleet\",\"assay\":\"pcr\",\"fleet\":{\"chips\":0}}"),
      Error);
}

TEST(Wire, RejectsOutOfRangeIlpSettings) {
  const auto spec_with = [](const std::string& field) {
    return "{\"assay\":\"pcr\",\"ilp\":true," + field + "}";
  };
  // Worker counts 0..64 and finite, non-negative time limits are accepted.
  EXPECT_EQ(0, parse_wire_spec(spec_with("\"ilp_threads\":0")).spec.options.ilp.threads);
  EXPECT_EQ(64, parse_wire_spec(spec_with("\"ilp_threads\":64")).spec.options.ilp.threads);
  EXPECT_EQ(0.0, parse_wire_spec(spec_with("\"time_limit_seconds\":0"))
                     .spec.options.ilp.time_limit_seconds);
  EXPECT_EQ(2.5, parse_wire_spec(spec_with("\"time_limit_seconds\":2.5"))
                     .spec.options.ilp.time_limit_seconds);
  // Negative, above-64 and beyond-int worker counts are errors, not some
  // other worker count.
  EXPECT_THROW(parse_wire_spec(spec_with("\"ilp_threads\":-3")), Error);
  EXPECT_THROW(parse_wire_spec(spec_with("\"ilp_threads\":65")), Error);
  EXPECT_THROW(parse_wire_spec(spec_with("\"ilp_threads\":4294967297")), Error);
  // A negative or infinite time limit is an error, not "no limit".
  EXPECT_THROW(parse_wire_spec(spec_with("\"time_limit_seconds\":-1")), Error);
  EXPECT_THROW(parse_wire_spec(spec_with("\"time_limit_seconds\":1e999")), Error);
}

TEST(Wire, RequiresExactlyOneSource) {
  EXPECT_THROW(parse_wire_spec("{\"kind\":\"synthesis\"}"), Error);
  EXPECT_THROW(parse_wire_spec("{\"assay\":\"pcr\",\"dsl\":\"assay x {}\"}"), Error);
  EXPECT_THROW(parse_wire_spec("{\"assay\":\"no-such-benchmark\"}"), Error);
}

TEST(Wire, AcceptsInlineDsl) {
  std::string dsl =
      "assay tiny\n"
      "input sample\n"
      "input buffer\n"
      "mix dilute volume 8 duration 6 from sample:1 buffer:3\n"
      "output waste from dilute\n";
  JsonWriter w;
  w.begin_object();
  w.key("dsl").value(dsl);
  w.end_object();
  const WireSpec wire = parse_wire_spec(w.str());
  EXPECT_EQ("(inline)", wire.assay_ref);
  EXPECT_EQ(4, wire.spec.graph.size());
}

// ------------------------------------------------------------ end-to-end

/// Real server on an ephemeral loopback port, serving on its own thread.
class ServerTest : public testing::Test {
 protected:
  void start(JobManager::Config manager_config = {},
             AdmissionConfig admission = AdmissionConfig()) {
    manager_config.service.overflow = svc::OverflowPolicy::kReject;
    if (manager_config.service.workers == 0) manager_config.service.workers = 1;
    manager_ = std::make_unique<JobManager>(std::move(manager_config));
    manager_->recover();
    HttpServer::Config server_config;
    server_config.port = 0;
    server_config.grace_ms = 2000;
    server_ = std::make_unique<HttpServer>(server_config, *manager_,
                                           make_api_router(*manager_, admission));
    server_->bind();
    thread_ = std::thread([this] { server_->serve(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      manager_->cancel_all();
      server_->request_stop();
      thread_.join();
      server_.reset();
      manager_.reset();
    }
  }

  ApiClient client() { return ApiClient("127.0.0.1", server_->port()); }

  /// Sends raw bytes, reads until EOF (or `read_reply` false: just closes).
  std::string raw(const std::string& bytes, bool read_reply = true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server_->port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
    EXPECT_EQ(static_cast<ssize_t>(bytes.size()),
              ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL));
    std::string reply;
    if (read_reply) {
      char buffer[4096];
      ssize_t n;
      while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        reply.append(buffer, static_cast<std::size_t>(n));
      }
    }
    ::close(fd);
    return reply;
  }

  std::uint64_t submit_ok(const std::string& spec) {
    const ClientResponse response = client().post("/v1/jobs", spec);
    EXPECT_EQ(202, response.status) << response.body;
    return static_cast<std::uint64_t>(JsonValue::parse(response.body).at("id").as_int());
  }

  /// Blocks until the job's SSE stream delivers a terminal event.
  std::string watch_terminal(std::uint64_t id) {
    std::string terminal;
    client().watch(id, [&](const std::string& event, std::uint64_t, const std::string&) {
      if (event == "done" || event == "cancelled" || event == "failed" ||
          event == "rejected") {
        terminal = event;
      }
      return true;
    });
    return terminal;
  }

  std::unique_ptr<JobManager> manager_;
  std::unique_ptr<HttpServer> server_;
  std::thread thread_;
};

TEST_F(ServerTest, HealthAndMetrics) {
  start();
  const ClientResponse health = client().get("/healthz");
  EXPECT_EQ(200, health.status);
  EXPECT_EQ("ok", JsonValue::parse(health.body).at("status").as_string());

  const ClientResponse metrics = client().get("/metrics");
  EXPECT_EQ(200, metrics.status);
  const JsonValue doc = JsonValue::parse(metrics.body);
  EXPECT_TRUE(doc.has("service"));
  EXPECT_GE(doc.at("net").at("uptime_seconds").as_number(), 0.0);
}

TEST_F(ServerTest, SubmitStreamsLifecycleAndResultMatchesCliDocument) {
  start();
  const std::uint64_t id =
      submit_ok("{\"assay\":\"pcr\",\"asap\":true,\"grid\":10,\"seed\":2015}");

  std::vector<std::string> events;
  client().watch(id, [&](const std::string& event, std::uint64_t seq, const std::string&) {
    EXPECT_EQ(events.size() + 1, seq);  // gapless, ordered
    events.push_back(event);
    return true;
  });
  ASSERT_FALSE(events.empty());
  EXPECT_EQ("queued", events.front());
  EXPECT_EQ("done", events.back());
  // running must come after queued and before done.
  const auto running = std::find(events.begin(), events.end(), "running");
  ASSERT_NE(events.end(), running);

  const ClientResponse status = client().get("/v1/jobs/" + std::to_string(id));
  EXPECT_EQ(200, status.status);
  EXPECT_EQ("done", JsonValue::parse(status.body).at("state").as_string());

  const ClientResponse result = client().get("/v1/jobs/" + std::to_string(id) + "/result");
  ASSERT_EQ(200, result.status);

  // Reference document, built exactly the way `flowsynth synth pcr --asap
  // --grid 10 --out` builds it.  Synthesis is deterministic; the measured
  // wall-clock runtime is the one field that cannot match, so it is pinned
  // to the server's value before the byte comparison.
  const assay::SequencingGraph graph = assay::make_benchmark("pcr");
  const sched::Schedule schedule = sched::schedule_asap(graph);
  synth::SynthesisOptions options;
  options.grid_size = 10;
  options.heuristic.seed = 2015;
  report::StoredResult stored;
  stored.assay = "pcr";
  stored.asap = true;
  stored.seed = 2015;
  stored.result = synth::synthesize(graph, schedule, options);
  stored.result.runtime_seconds =
      report::stored_result_from_json(result.body).result.runtime_seconds;
  EXPECT_EQ(report::stored_result_to_json(stored), result.body);

  // Resubmitting the identical spec is a cache hit with the same document.
  const std::uint64_t id2 =
      submit_ok("{\"assay\":\"pcr\",\"asap\":true,\"grid\":10,\"seed\":2015}");
  EXPECT_EQ("done", watch_terminal(id2));
  const ClientResponse result2 =
      client().get("/v1/jobs/" + std::to_string(id2) + "/result");
  ASSERT_EQ(200, result2.status);
  EXPECT_EQ(result.body, result2.body);
}

TEST_F(ServerTest, FleetEndpointRunsClosedLoopJob) {
  start();
  // The dedicated route refuses non-fleet bodies.
  EXPECT_EQ(400, client().post("/v1/fleet", "{\"assay\":\"pcr\"}").status);

  const ClientResponse accepted = client().post(
      "/v1/fleet",
      "{\"kind\":\"fleet\",\"assay\":\"pcr\",\"seed\":2015,"
      "\"fleet\":{\"chips\":3,\"cadence\":5,\"horizon\":20}}");
  ASSERT_EQ(202, accepted.status) << accepted.body;
  const auto id =
      static_cast<std::uint64_t>(JsonValue::parse(accepted.body).at("id").as_int());
  EXPECT_EQ("done", watch_terminal(id));

  const ClientResponse result = client().get("/v1/jobs/" + std::to_string(id) + "/result");
  ASSERT_EQ(200, result.status);
  const JsonValue doc = JsonValue::parse(result.body);
  EXPECT_EQ("flowsynth-fleet-v1", doc.at("format").as_string());
  EXPECT_EQ(3, doc.at("chips").as_int());
  EXPECT_GE(doc.at("faults").at("detected").as_int(), 0);
  EXPECT_TRUE(doc.has("availability"));
  EXPECT_TRUE(doc.has("mean_detection_latency_runs"));

  // The fleet counters surface in both metrics flavors.
  const JsonValue metrics = JsonValue::parse(client().get("/metrics").body);
  EXPECT_EQ(1, metrics.at("service").at("fleet").at("jobs").as_int());
  EXPECT_EQ(3, metrics.at("service").at("fleet").at("chips").as_int());
  const ClientResponse prom = client().get("/metrics?format=prometheus");
  EXPECT_NE(prom.body.find("flowsynth_fleet_jobs_total"), std::string::npos);
  EXPECT_NE(prom.body.find("flowsynth_fleet_availability"), std::string::npos);
}

TEST_F(ServerTest, UnknownJobsAnswer404AndUnfinished409) {
  start();
  EXPECT_EQ(404, client().get("/v1/jobs/999").status);
  EXPECT_EQ(404, client().get("/v1/jobs/999/result").status);
  EXPECT_EQ(404, client().del("/v1/jobs/999").status);
  EXPECT_EQ(404, client().get("/v1/jobs/abc").status);
  EXPECT_EQ(404, client().get("/v1/jobs/999/events").status);

  // A long job's result is 409 while it runs.
  const std::uint64_t id = submit_ok(
      "{\"kind\":\"reliability\",\"assay\":\"protein\","
      "\"reliability\":{\"trials\":100000000}}");
  const ClientResponse early = client().get("/v1/jobs/" + std::to_string(id) + "/result");
  EXPECT_EQ(409, early.status);
  EXPECT_EQ(200, client().del("/v1/jobs/" + std::to_string(id)).status);
  EXPECT_EQ("cancelled", watch_terminal(id));
}

TEST_F(ServerTest, CancelRunningJobCooperatively) {
  start();
  const std::uint64_t id = submit_ok(
      "{\"kind\":\"reliability\",\"assay\":\"protein\","
      "\"reliability\":{\"trials\":100000000}}");
  // Give the worker a moment to actually start it, then cancel.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const ClientResponse cancel = client().del("/v1/jobs/" + std::to_string(id));
  EXPECT_EQ(200, cancel.status);
  EXPECT_TRUE(JsonValue::parse(cancel.body).at("cancelled").as_bool());
  EXPECT_EQ("cancelled", watch_terminal(id));

  // Cancelling a terminal job reports cancelled=false.
  const ClientResponse again = client().del("/v1/jobs/" + std::to_string(id));
  EXPECT_EQ(200, again.status);
  EXPECT_FALSE(JsonValue::parse(again.body).at("cancelled").as_bool());

  const JsonValue metrics = JsonValue::parse(client().get("/metrics").body);
  EXPECT_GE(metrics.at("net").at("jobs_cancelled").as_int(), 1);
  EXPECT_GE(metrics.at("net").at("cancel_requests").as_int(), 2);
}

TEST_F(ServerTest, FullQueueAnswers503) {
  JobManager::Config config;
  config.service.workers = 1;
  config.service.queue_capacity = 1;
  start(std::move(config));
  // Blocker occupies the only worker; the next job fills the queue; the
  // third finds it full and is rejected.
  const std::uint64_t blocker = submit_ok(
      "{\"kind\":\"reliability\",\"assay\":\"protein\","
      "\"reliability\":{\"trials\":100000000}}");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t queued = submit_ok("{\"assay\":\"pcr\",\"asap\":true,\"grid\":10}");

  const ClientResponse rejected =
      client().post("/v1/jobs", "{\"assay\":\"pcr\",\"grid\":10}");
  EXPECT_EQ(503, rejected.status) << rejected.body;
  ASSERT_NE(nullptr, find_header(rejected.headers, "Retry-After"));

  EXPECT_EQ(200, client().del("/v1/jobs/" + std::to_string(queued)).status);
  EXPECT_EQ(200, client().del("/v1/jobs/" + std::to_string(blocker)).status);
  EXPECT_EQ("cancelled", watch_terminal(blocker));

  const JsonValue metrics = JsonValue::parse(client().get("/metrics").body);
  EXPECT_GE(metrics.at("net").at("queue_rejected").as_int(), 1);
}

TEST_F(ServerTest, AdmissionControlSheds429WithRetryAfter) {
  AdmissionConfig admission;
  admission.default_service_seconds = 10.0;  // cold estimate >> deadline
  admission.deadline_seconds[0] = 1.0;
  start({}, admission);

  const ClientResponse response =
      client().post("/v1/jobs", "{\"assay\":\"pcr\",\"grid\":10}");
  EXPECT_EQ(429, response.status) << response.body;
  ASSERT_NE(nullptr, find_header(response.headers, "Retry-After"));
  EXPECT_GE(JsonValue::parse(response.body).at("retry_after_seconds").as_int(), 1);

  // The background class has a long deadline and still gets through.
  const ClientResponse ok = client().post(
      "/v1/jobs", "{\"assay\":\"pcr\",\"asap\":true,\"grid\":10,\"priority\":\"background\"}");
  EXPECT_EQ(202, ok.status) << ok.body;
  EXPECT_EQ("done",
            watch_terminal(static_cast<std::uint64_t>(
                JsonValue::parse(ok.body).at("id").as_int())));

  const JsonValue metrics = JsonValue::parse(client().get("/metrics").body);
  EXPECT_GE(metrics.at("net").at("admission_rejected").as_int(), 1);
}

TEST_F(ServerTest, MalformedRequestsNeverCrashTheServer) {
  start();
  // Garbage request line -> 400.
  EXPECT_NE(std::string::npos, raw("\x01garbage\r\n\r\n").find("400"));
  // Unsupported version -> 505.
  EXPECT_NE(std::string::npos, raw("GET / HTTP/3.0\r\n\r\n").find("505"));
  // Declared body larger than the limit -> 413 without buffering it.
  EXPECT_NE(std::string::npos,
            raw("POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").find("413"));
  // Truncated headers, peer hangs up mid-request: no reply expected.
  raw("GET /healthz HTT", /*read_reply=*/false);
  // Bad JSON body -> 400 from the handler.
  EXPECT_EQ(400, client().post("/v1/jobs", "{not json").status);
  // Unknown spec key -> 400.
  EXPECT_EQ(400, client().post("/v1/jobs", "{\"asay\":\"pcr\"}").status);
  // Unknown benchmark -> 400.
  EXPECT_EQ(400, client().post("/v1/jobs", "{\"assay\":\"nope\"}").status);
  // Out-of-range ILP settings -> 400.
  EXPECT_EQ(400, client().post("/v1/jobs", "{\"assay\":\"pcr\",\"ilp_threads\":-3}").status);
  EXPECT_EQ(400,
            client().post("/v1/jobs", "{\"assay\":\"pcr\",\"time_limit_seconds\":-1}").status);

  // After all of that the server still works.
  EXPECT_EQ(200, client().get("/healthz").status);
  const JsonValue metrics = JsonValue::parse(client().get("/metrics").body);
  EXPECT_GE(metrics.at("net").at("bad_requests").as_int(), 3);
}

/// Value of the first sample line starting with `series` (name + labels),
/// or NaN when the series is absent.
double prometheus_value(const std::string& text, const std::string& series) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    if (line.compare(0, series.size(), series) == 0) {
      const std::size_t space = line.rfind(' ');
      if (space != std::string::npos) return std::atof(line.c_str() + space + 1);
    }
    pos = end + 1;
  }
  return std::nan("");
}

TEST_F(ServerTest, MetricsNegotiatesPrometheusAndJson) {
  start();
  // Drive some load first so counters and the 1m rate window are nonzero.
  const std::uint64_t id = submit_ok("{\"assay\":\"pcr\",\"asap\":true,\"grid\":10}");
  EXPECT_EQ("done", watch_terminal(id));

  // Default (no Accept preference): the JSON document, unchanged.
  const ClientResponse json = client().get("/metrics");
  EXPECT_EQ(200, json.status);
  EXPECT_TRUE(JsonValue::parse(json.body).has("service"));

  // ?format=prometheus: text exposition that passes the format lint.
  const ClientResponse prom = client().get("/metrics?format=prometheus");
  EXPECT_EQ(200, prom.status);
  const std::string* content_type = find_header(prom.headers, "Content-Type");
  ASSERT_NE(nullptr, content_type);
  EXPECT_EQ(std::string(obs::kPrometheusContentType), *content_type);
  std::string error;
  EXPECT_TRUE(obs::lint_prometheus(prom.body, &error)) << error;
  EXPECT_GE(prometheus_value(prom.body, "flowsynth_jobs_total{state=\"submitted\"}"),
            1.0);
  EXPECT_GE(prometheus_value(prom.body, "flowsynth_http_requests_total"), 1.0);
  // The interval ring was seeded at construction, so a scrape right after
  // load reports a nonzero 1-minute submission rate.
  EXPECT_GT(prometheus_value(
                prom.body,
                "flowsynth_job_rate_per_second{kind=\"submitted\",window=\"1m\"}"),
            0.0);

  // Accept-header negotiation: text/plain preferred -> Prometheus.
  ApiClient scraper = client();
  scraper.set_header("Accept", "text/plain;version=0.0.4, application/json;q=0.5");
  const ClientResponse negotiated = scraper.get("/metrics");
  EXPECT_EQ(200, negotiated.status);
  EXPECT_TRUE(obs::lint_prometheus(negotiated.body, &error)) << error;
  // ?format=json wins over any Accept header.
  const ClientResponse forced = scraper.get("/metrics?format=json");
  EXPECT_TRUE(JsonValue::parse(forced.body).has("service"));
}

TEST_F(ServerTest, TraceparentPropagatesSubmitToSseToStatus) {
  const std::string journal_path = testing::TempDir() + "trace_e2e_journal.jsonl";
  std::remove(journal_path.c_str());
  JobManager::Config config;
  config.journal_path = journal_path;
  start(std::move(config));

  const std::string trace_id = "0af7651916cd43dd8448eb211c80319c";
  const std::string header = "00-" + trace_id + "-b7ad6b7169203331-01";
  ApiClient traced = client();
  traced.set_header("traceparent", header);

  // Submit: the 202 body and the response header carry the caller's id.
  const ClientResponse accepted =
      traced.post("/v1/jobs", "{\"assay\":\"pcr\",\"asap\":true,\"grid\":10}");
  ASSERT_EQ(202, accepted.status) << accepted.body;
  const JsonValue body = JsonValue::parse(accepted.body);
  EXPECT_EQ(trace_id, body.at("trace_id").as_string());
  const std::string* echoed = find_header(accepted.headers, "traceparent");
  ASSERT_NE(nullptr, echoed);
  obs::TraceContext echoed_context;
  ASSERT_TRUE(obs::parse_traceparent(*echoed, &echoed_context));
  EXPECT_EQ(trace_id, echoed_context.trace_id_hex());

  // SSE: the stream response echoes the id and every event payload carries
  // it — byte-for-byte the id the submit sent.
  const auto id = static_cast<std::uint64_t>(body.at("id").as_int());
  std::vector<Header> stream_headers;
  int frames = 0;
  traced.watch(id, [&](const std::string&, std::uint64_t, const std::string& data) {
    EXPECT_EQ(trace_id, JsonValue::parse(data).at("trace_id").as_string()) << data;
    ++frames;
    return true;
  }, /*after_seq=*/0, &stream_headers);
  EXPECT_GE(frames, 2);  // at least queued + done
  const std::string* stream_echo = find_header(stream_headers, "traceparent");
  ASSERT_NE(nullptr, stream_echo);
  ASSERT_TRUE(obs::parse_traceparent(*stream_echo, &echoed_context));
  EXPECT_EQ(trace_id, echoed_context.trace_id_hex());

  // Status document.
  const ClientResponse status = client().get("/v1/jobs/" + std::to_string(id));
  EXPECT_EQ(trace_id, JsonValue::parse(status.body).at("trace_id").as_string());

  // Kill the first life (TearDown = ungraceful enough: the journal has the
  // accepted record) and replay: the recovered job keeps the same id.
  TearDown();
  JobManager::Config second;
  second.service.workers = 1;
  second.journal_path = journal_path;
  JobManager replayed(second);
  replayed.recover();
  ASSERT_TRUE(replayed.exists(id));
  const JsonValue replayed_status = JsonValue::parse(replayed.status_json(id));
  EXPECT_EQ(trace_id, replayed_status.at("trace_id").as_string());
  std::remove(journal_path.c_str());
}

TEST_F(ServerTest, RequestsWithoutTraceparentGetFreshDistinctIds) {
  start();
  const ClientResponse first = client().get("/healthz");
  const ClientResponse second = client().get("/healthz");
  const std::string* header_1 = find_header(first.headers, "traceparent");
  const std::string* header_2 = find_header(second.headers, "traceparent");
  ASSERT_NE(nullptr, header_1);
  ASSERT_NE(nullptr, header_2);
  obs::TraceContext context_1, context_2;
  ASSERT_TRUE(obs::parse_traceparent(*header_1, &context_1));
  ASSERT_TRUE(obs::parse_traceparent(*header_2, &context_2));
  EXPECT_FALSE(context_1 == context_2);
}

TEST_F(ServerTest, FuzzedTraceparentHeadersNeverCrashAndFailClosed) {
  start();
  const std::string valid = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> pos(0, static_cast<int>(valid.size()) - 1);
  // Printable mutations only: raw control bytes in a header value are the
  // *parser's* 400 to give, which is not what this test is about.
  std::uniform_int_distribution<int> printable(0x20, 0x7e);
  for (int i = 0; i < 200; ++i) {
    std::string mutated = valid;
    for (int m = 0; m <= i % 3; ++m) {
      mutated[static_cast<std::size_t>(pos(rng))] = static_cast<char>(printable(rng));
    }
    ApiClient fuzzer = client();
    fuzzer.set_header("traceparent", mutated);
    const ClientResponse response = fuzzer.get("/healthz");
    ASSERT_EQ(200, response.status) << "died on: " << mutated;
    // Whatever went in, a canonical context comes out: either the caller's
    // (still-valid) ids or a freshly minted pair — never garbage.
    const std::string* echoed = find_header(response.headers, "traceparent");
    ASSERT_NE(nullptr, echoed);
    obs::TraceContext context;
    EXPECT_TRUE(obs::parse_traceparent(*echoed, &context)) << *echoed;
    obs::TraceContext sent;
    if (obs::parse_traceparent(mutated, &sent)) {
      EXPECT_EQ(sent.trace_id_hex(), context.trace_id_hex());
    }
  }
  // The server is still healthy after the fuzz.
  EXPECT_EQ(200, client().get("/healthz").status);
}

TEST(JobManagerRecovery, RequeuedJobsKeepTheirTraceIds) {
  const std::string path = testing::TempDir() + "trace_requeue_journal.jsonl";
  std::remove(path.c_str());
  // A first life that crashed right after accepting job 1 (trace attached)
  // and job 2 (pre-trace record, no "trace" key).
  {
    std::ofstream file(path);
    file << "{\"event\":\"accepted\",\"id\":1,\"priority\":\"batch\","
            "\"trace\":\"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\","
            "\"spec\":{\"assay\":\"pcr\",\"asap\":true,\"grid\":10}}\n";
    file << "{\"event\":\"accepted\",\"id\":2,\"priority\":\"batch\","
            "\"spec\":{\"assay\":\"pcr\",\"asap\":true,\"grid\":10,\"seed\":7}}\n";
  }
  JobManager::Config config;
  config.service.workers = 1;
  config.journal_path = path;
  JobManager manager(config);
  manager.recover();
  for (const std::uint64_t id : {std::uint64_t{1}, std::uint64_t{2}}) {
    ASSERT_TRUE(manager.exists(id));
    while (!manager.is_terminal(id)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  const JsonValue traced = JsonValue::parse(manager.status_json(1));
  EXPECT_EQ("0af7651916cd43dd8448eb211c80319c", traced.at("trace_id").as_string());
  EXPECT_FALSE(JsonValue::parse(manager.status_json(2)).has("trace_id"));
  std::remove(path.c_str());
}

TEST(JobManagerRecovery, ReplaysFinishedAndRequeuesUnfinished) {
  const std::string path = testing::TempDir() + "recovery_journal.jsonl";
  std::remove(path.c_str());

  // First life: run one job to completion, journal a second accepted-only
  // record by hand (as if the crash hit mid-run), plus a torn final line.
  std::string done_doc;
  {
    JobManager::Config config;
    config.service.workers = 1;
    config.journal_path = path;
    JobManager manager(config);
    manager.recover();
    const std::uint64_t id =
        manager.submit(parse_wire_spec("{\"assay\":\"pcr\",\"asap\":true,\"grid\":10}"));
    while (!manager.is_terminal(id)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::string state;
    ASSERT_TRUE(manager.result_doc(id, &done_doc, &state));
    ASSERT_EQ("done", state);
  }
  {
    std::ofstream file(path, std::ios::app);
    file << "{\"event\":\"accepted\",\"id\":2,\"priority\":\"batch\","
            "\"spec\":{\"assay\":\"pcr\",\"grid\":10,\"seed\":7}}\n";
    file << "{\"event\":\"accepted\",\"id\":3,\"priori";  // torn
  }

  // Second life: job 1 restored done (byte-identical), job 2 re-enqueued
  // and run, torn line dropped, and new ids continue past the replayed max.
  JobManager::Config config;
  config.service.workers = 1;
  config.journal_path = path;
  JobManager manager(config);
  manager.recover();

  std::string doc;
  std::string state;
  ASSERT_TRUE(manager.result_doc(1, &doc, &state));
  EXPECT_EQ("done", state);
  EXPECT_EQ(done_doc, doc);

  ASSERT_TRUE(manager.exists(2));
  while (!manager.is_terminal(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ("done", manager.state_of(2));

  EXPECT_EQ(1, manager.counters().replayed_done.load());
  EXPECT_EQ(1, manager.counters().replayed_requeued.load());
  EXPECT_EQ(1, manager.journal().stats().torn_lines);
  EXPECT_FALSE(manager.exists(3));  // torn accept was never acknowledged

  const std::uint64_t next = manager.submit(
      parse_wire_spec("{\"assay\":\"pcr\",\"asap\":true,\"grid\":10}"));
  EXPECT_GE(next, 3u);  // no id reuse after replay
  while (!manager.is_terminal(next)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::remove(path.c_str());
}

TEST(JsonDump, PreservesWireCanonicalForm) {
  const std::string text = "{\"a\":1,\"b\":[true,null,\"x\\ny\"],\"c\":{\"d\":2.5}}";
  EXPECT_EQ(text, JsonValue::parse(text).dump());
}

}  // namespace
}  // namespace fsyn::net
