#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fsyn::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool terminal_event(const std::string& name) {
  return name == "done" || name == "cancelled" || name == "failed" ||
         name == "rejected";
}

}  // namespace

HttpServer::HttpServer(Config config, JobManager& manager, Router router)
    : config_(std::move(config)), manager_(manager), router_(std::move(router)) {
  int fds[2];
  require(::pipe(fds) == 0, "pipe() failed");
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);
}

HttpServer::~HttpServer() {
  manager_.set_event_listener(nullptr);
  for (auto& [fd, connection] : connections_) ::close(fd);
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void HttpServer::bind() {
  require(listen_fd_ < 0, "bind() called twice");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  check_input(listen_fd_ >= 0, std::string("socket() failed: ") + std::strerror(errno));

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  check_input(::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) == 1,
              "bad bind address '" + config_.bind_address + "'");

  check_input(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
              "cannot bind " + config_.bind_address + ":" +
                  std::to_string(config_.port) + ": " + std::strerror(errno));
  check_input(::listen(listen_fd_, config_.backlog) == 0,
              std::string("listen() failed: ") + std::strerror(errno));
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
}

void HttpServer::request_stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void HttpServer::request_flight_dump() {
  // Only the flag + pipe write happen here — the handler may run in signal
  // context, where opening files or taking the recorder locks is unsafe.
  flight_dump_requested_.store(true, std::memory_order_relaxed);
  const char byte = 'f';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void HttpServer::wake() {
  const char byte = 'e';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void HttpServer::serve() {
  require(listen_fd_ >= 0, "serve() before bind()");
  manager_.set_event_listener([this] { wake(); });

  bool stopping = false;
  bool cancelled_rest = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  for (;;) {
    if (flight_dump_requested_.exchange(false, std::memory_order_relaxed) &&
        !config_.flight_dump_path.empty()) {
      try {
        obs::FlightRecorder::instance().dump_json_file(config_.flight_dump_path);
        log_info("flight recorder dumped to ", config_.flight_dump_path);
      } catch (const std::exception& e) {
        log_error("flight recorder dump failed: ", e.what());
      }
    }
    if (!stopping && stop_requested_.load(std::memory_order_relaxed)) {
      stopping = true;
      drain_deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(config_.grace_ms);
      ::close(listen_fd_);
      listen_fd_ = -1;
      log_info("shutdown: listener closed, cancelling queued jobs, draining ",
               manager_.active_jobs(), " active job(s)");
      manager_.cancel_queued();
    }

    if (stopping) {
      const auto now = std::chrono::steady_clock::now();
      if (!cancelled_rest && now >= drain_deadline) {
        cancelled_rest = true;
        log_info("shutdown: grace expired, cancelling remaining jobs");
        manager_.cancel_all();
      }
      const bool flushed = [&] {
        for (const auto& [fd, connection] : connections_) {
          if (connection.wants_write()) return false;
          if (connection.sse_active && !connection.sse_done) return false;
        }
        return true;
      }();
      const bool drained = manager_.active_jobs() == 0;
      // Leave once the work is gone and every watcher saw its terminal
      // frame — or once the doubled grace has passed; never hang forever.
      if ((drained && flushed) ||
          now >= drain_deadline + std::chrono::milliseconds(config_.grace_ms)) {
        break;
      }
    }

    std::vector<pollfd> fds;
    std::vector<int> fd_owner;  // connection fd per pollfd entry; -1 = special
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fd_owner.push_back(-1);
    if (listen_fd_ >= 0 &&
        connections_.size() < static_cast<std::size_t>(config_.max_connections)) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_owner.push_back(-2);
    }
    for (const auto& [fd, connection] : connections_) {
      short events = POLLIN;
      if (connection.wants_write()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      fd_owner.push_back(fd);
    }

    const int timeout_ms = stopping ? 50 : 1000;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      log_error("poll() failed: ", std::strerror(errno));
      break;
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fd_owner[i] == -1) {
        // Drain the self-pipe; the actual work (SSE pumping, stop flag)
        // happens below / next iteration.
        char buffer[256];
        while (::read(wake_read_fd_, buffer, sizeof(buffer)) > 0) {
        }
        continue;
      }
      if (fd_owner[i] == -2) {
        accept_ready();
        continue;
      }
      const auto it = connections_.find(fd_owner[i]);
      if (it == connections_.end()) continue;
      Connection& connection = it->second;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          !connection.wants_write()) {
        close_connection(connection.fd);
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) {
        if (!write_ready(connection)) continue;  // connection closed
      }
      if ((fds[i].revents & POLLIN) != 0) {
        read_ready(connection);
      }
    }

    // Push any new job events to their SSE watchers.  Cheap when nothing
    // changed: one map walk over (usually few) streaming connections.
    for (auto& [fd, connection] : connections_) {
      if (!connection.sse_active || connection.sse_done) continue;
      pump_sse(connection);
      // write_ready erased it (and `fd` with it), so the walk ends here;
      // the next poll round serves the rest.
      if (connection.wants_write() && !write_ready(connection)) break;
    }
  }

  manager_.set_event_listener(nullptr);
  for (auto& [fd, connection] : connections_) ::close(fd);
  connections_.clear();
  manager_.flush_journal();
  log_info("shutdown: drained, journal flushed");
}

void HttpServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      log_error("accept() failed: ", std::strerror(errno));
      return;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.emplace(fd, Connection(config_.limits));
    connections_.at(fd).fd = fd;
    if (connections_.size() >= static_cast<std::size_t>(config_.max_connections)) {
      return;  // stop accepting; the listener drops out of the poll set
    }
  }
}

void HttpServer::read_ready(Connection& connection) {
  char buffer[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(connection.fd, buffer, sizeof(buffer), 0);
    if (n == 0) {
      close_connection(connection.fd);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(connection.fd);
      return;
    }
    if (connection.sse_active || connection.close_after_flush) {
      continue;  // discard input on finished/streaming connections
    }
    ParseStatus status = connection.parser.feed(std::string_view(buffer, n));
    // A single read may complete several pipelined requests.
    while (status == ParseStatus::kComplete) {
      manager_.counters().http_requests.fetch_add(1, std::memory_order_relaxed);
      const HttpRequest request = connection.parser.request();
      connection.parser.reset();
      handle_request(connection, request);
      if (connection.sse_active || connection.close_after_flush) break;
      status = connection.parser.advance();
    }
    if (status == ParseStatus::kError) {
      manager_.counters().bad_requests.fetch_add(1, std::memory_order_relaxed);
      HttpResponse response;
      response.status = connection.parser.error_status();
      response.body = "{\"error\":\"" + connection.parser.error_reason() + "\"}";
      connection.outbox += serialize_response(response, /*keep_alive=*/false);
      connection.close_after_flush = true;
    }
  }
  if (connection.wants_write()) write_ready(connection);
}

void HttpServer::handle_request(Connection& connection, const HttpRequest& request) {
  // Trace context enters (or is born) here: a valid `traceparent` header is
  // adopted, anything else — absent, malformed, all-zero — gets a freshly
  // minted id.  The scope makes it ambient for the whole dispatch, so the
  // submit handler stamps it into the job and every span below inherits it.
  obs::TraceContext context;
  if (const std::string* traceparent = request.header("traceparent")) {
    obs::parse_traceparent(*traceparent, &context);
  }
  if (!context.valid()) context = obs::make_trace_context();
  obs::TraceContextScope trace_scope(context);
  obs::Span http_span("net", "http " + request.method + " " + request.path());

  HttpResponse response = router_.dispatch(request);
  if (http_span.active()) {
    http_span.arg("method", request.method);
    http_span.arg("target", request.target);
    http_span.arg("status", response.sse ? 200 : response.status);
  }
  if (response.sse) {
    start_sse(connection, request, response.sse_job);
    return;
  }
  // Echo the trace back so a client without its own tracer can still quote
  // the id (the parent field is our server-side span).
  response.headers.push_back({"traceparent", obs::current_trace().traceparent()});
  const bool keep_alive =
      request.keep_alive && !stop_requested_.load(std::memory_order_relaxed);
  connection.outbox += serialize_response(response, keep_alive);
  if (!keep_alive) connection.close_after_flush = true;
}

void HttpServer::start_sse(Connection& connection, const HttpRequest& request,
                           std::uint64_t job_id) {
  connection.sse_active = true;
  connection.sse_job = job_id;
  connection.sse_last_seq = 0;
  if (const std::string* last = request.header("Last-Event-ID")) {
    char* end = nullptr;
    const unsigned long long seq = std::strtoull(last->c_str(), &end, 10);
    if (end != nullptr && *end == '\0') connection.sse_last_seq = seq;
  }
  HttpResponse headers;
  headers.sse = true;
  // start_sse always runs inside handle_request's trace scope.
  if (obs::current_trace().valid()) {
    headers.headers.push_back({"traceparent", obs::current_trace().traceparent()});
  }
  connection.outbox += serialize_response(headers, /*keep_alive=*/true);
  pump_sse(connection);
}

void HttpServer::pump_sse(Connection& connection) {
  const std::vector<JobEvent> events =
      manager_.events_since(connection.sse_job, connection.sse_last_seq);
  for (const JobEvent& event : events) {
    connection.outbox += chunk_encode(sse_frame(event.name, event.seq, event.data));
    connection.sse_last_seq = event.seq;
    if (terminal_event(event.name)) {
      connection.outbox += kLastChunk;
      connection.sse_done = true;
      connection.close_after_flush = true;
      break;
    }
  }
}

bool HttpServer::write_ready(Connection& connection) {
  while (connection.wants_write()) {
    const char* data = connection.outbox.data() + connection.out_offset;
    const std::size_t left = connection.outbox.size() - connection.out_offset;
    const ssize_t n = ::send(connection.fd, data, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      close_connection(connection.fd);
      return false;
    }
    connection.out_offset += static_cast<std::size_t>(n);
  }
  connection.outbox.clear();
  connection.out_offset = 0;
  if (connection.close_after_flush) {
    close_connection(connection.fd);
    return false;
  }
  return true;
}

void HttpServer::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::close(fd);
  connections_.erase(it);
}

}  // namespace fsyn::net
