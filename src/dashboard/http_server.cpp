#include "dashboard/http_server.hpp"

#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <utility>

#include "common/string_utils.hpp"
#include "net/connection.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::dash {

namespace {

struct HttpTelemetry {
  telemetry::Counter& requests =
      telemetry::registry().counter("stampede_http_requests_total");
  telemetry::Counter& errors =
      telemetry::registry().counter("stampede_http_errors_total");
  telemetry::Counter& rejected_slow = telemetry::registry().counter(
      telemetry::labeled("stampede_http_rejected_total", "reason", "timeout"));
  telemetry::Counter& rejected_oversize = telemetry::registry().counter(
      telemetry::labeled("stampede_http_rejected_total", "reason",
                         "oversize"));
  telemetry::Histogram& latency = telemetry::registry().histogram(
      "stampede_http_request_latency_seconds");
  telemetry::Gauge& connections =
      telemetry::registry().gauge("stampede_http_connections_active");
};

HttpTelemetry& http_telemetry() {
  static HttpTelemetry instance;
  return instance;
}

std::string status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 408:
      return "Request Timeout";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    default:
      return "Unknown";
  }
}

std::string render_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

}  // namespace

struct HttpResponder::State {
  std::shared_ptr<HttpServer::AsyncGate> gate;
  std::shared_ptr<HttpServer::Pending> pending;
  std::atomic<bool> done{false};
};

void HttpResponder::respond(HttpResponse response) const {
  const auto state = state_;
  if (!state || state->done.exchange(true)) return;
  const std::lock_guard<std::mutex> lock{state->gate->mu};
  HttpServer* server = state->gate->server;
  if (server == nullptr) return;  // Server stopped; drop silently.
  server->loop_.defer(
      [server, state, response = std::move(response)]() mutable {
        const auto& pending = state->pending;
        if (pending->responded || pending->conn->closed()) return;
        if (response.status >= 400) http_telemetry().errors.inc();
        server->respond(pending, response);
      });
}

HttpServer::HttpServer(int port, HttpServerOptions options)
    : options_(options),
      listen_fd_(
          common::listen_tcp("127.0.0.1", port, /*backlog=*/64, &port_)),
      accept_(loop_, listen_fd_.get(),
              [this](common::SocketFd client) { attach(std::move(client)); }) {
  gate_->server = this;
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(const std::string& pattern, HttpHandler handler) {
  Route r;
  for (const auto seg : common::split_nonempty(pattern, '/')) {
    r.segments.emplace_back(seg);
  }
  r.handler = std::move(handler);
  routes_.push_back(std::move(r));
}

void HttpServer::route_async(const std::string& pattern,
                             AsyncHttpHandler handler) {
  Route r;
  for (const auto seg : common::split_nonempty(pattern, '/')) {
    r.segments.emplace_back(seg);
  }
  r.async = std::move(handler);
  routes_.push_back(std::move(r));
}

void HttpServer::start() {
  if (running_.exchange(true)) return;
  loop_.start();
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  {
    // Outstanding HttpResponders become no-ops from here on.
    const std::lock_guard<std::mutex> lock{gate_->mu};
    gate_->server = nullptr;
  }
  // Drop everything on the loop thread (watch/timer state lives there),
  // then stop the loop.
  std::promise<void> drained;
  loop_.defer([this, &drained] {
    accept_.stop();
    auto snapshot = conns_;
    for (const auto& [_, pending] : snapshot) pending->conn->close();
    drained.set_value();
  });
  drained.get_future().wait();
  loop_.stop();
  listen_fd_.reset();
}

void HttpServer::attach(common::SocketFd client) {
  auto pending = std::make_shared<Pending>();
  net::Connection::Options copts;
  copts.read_chunk = 4096;
  pending->conn = std::make_shared<net::Connection>(
      loop_, std::move(client), copts);
  conns_[pending->conn.get()] = pending;
  http_telemetry().connections.set(
      static_cast<std::int64_t>(conns_.size()));
  pending->conn->start(
      [this, pending](std::string_view data) {
        return on_data(pending, data);
      },
      [this, pending] {
        if (pending->deadline != 0) {
          loop_.cancel(pending->deadline);
          pending->deadline = 0;
        }
        conns_.erase(pending->conn.get());
        http_telemetry().connections.set(
            static_cast<std::int64_t>(conns_.size()));
      });
  // The slowloris guard: a connection that has not produced a full
  // header block when this fires gets 408 and the door.
  pending->deadline = loop_.schedule(
      std::chrono::milliseconds(options_.read_timeout_ms),
      [this, pending] {
        pending->deadline = 0;
        if (pending->responded || pending->conn->closed()) return;
        auto& tele = http_telemetry();
        tele.rejected_slow.inc();
        tele.errors.inc();
        respond(pending,
                HttpResponse{408, "text/plain", "request timeout"});
      });
}

std::size_t HttpServer::on_data(const std::shared_ptr<Pending>& pending,
                                std::string_view data) {
  if (pending->responded || pending->async_in_flight) {
    return data.size();  // Draining until close / response.
  }
  auto& tele = http_telemetry();
  if (data.size() > options_.max_request_bytes) {
    tele.rejected_oversize.inc();
    tele.errors.inc();
    respond(pending, HttpResponse{431, "text/plain", "request too large"});
    return data.size();
  }
  // We only support GET (no body): a request is complete at the end of
  // its header block. Anything less stays buffered in the connection.
  const auto header_end = data.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return 0;

  const double serve_start = telemetry::trace_now();
  tele.requests.inc();
  const auto line_end = data.find("\r\n");
  const auto parts =
      common::split_nonempty(data.substr(0, line_end), ' ');
  HttpResponse response;
  if (parts.size() < 2) {
    response = HttpResponse{400, "text/plain", "bad request"};
  } else {
    HttpRequest request;
    request.method = std::string{parts[0]};
    std::string_view target = parts[1];
    const auto qpos = target.find('?');
    if (qpos != std::string_view::npos) {
      request.query = std::string{target.substr(qpos + 1)};
      target = target.substr(0, qpos);
    }
    request.path = std::string{target};
    if (request.method != "GET") {
      response = HttpResponse{400, "text/plain", "only GET is supported"};
    } else {
      std::vector<std::string> params;
      const Route* route = match_route(request.path, &params);
      if (route == nullptr) {
        response = HttpResponse::not_found("no route for " + request.path);
      } else {
        request.params = std::move(params);
        if (route->async) {
          // The request is complete — the slowloris guard has done its
          // job; a long-poll may now park as long as it likes.
          if (pending->deadline != 0) {
            loop_.cancel(pending->deadline);
            pending->deadline = 0;
          }
          pending->async_in_flight = true;
          HttpResponder responder;
          responder.state_ = std::make_shared<HttpResponder::State>();
          responder.state_->gate = gate_;
          responder.state_->pending = pending;
          try {
            route->async(request, responder);
          } catch (const std::exception& e) {
            responder.respond(HttpResponse{500, "text/plain", e.what()});
          }
          return data.size();
        }
        try {
          response = route->handler(request);
        } catch (const std::exception& e) {
          response = HttpResponse{500, "text/plain", e.what()};
        }
      }
    }
  }
  if (response.status >= 400) tele.errors.inc();
  respond(pending, response);
  if (serve_start > 0.0) {
    tele.latency.observe(telemetry::now() - serve_start);
  }
  return data.size();
}

void HttpServer::respond(const std::shared_ptr<Pending>& pending,
                         const HttpResponse& response) {
  pending->responded = true;
  if (pending->deadline != 0) {
    loop_.cancel(pending->deadline);
    pending->deadline = 0;
  }
  (void)pending->conn->send(render_response(response));
  pending->conn->close_after_flush();
}

const HttpServer::Route* HttpServer::match_route(
    const std::string& path, std::vector<std::string>* params) const {
  const auto segments = common::split_nonempty(path, '/');
  for (const auto& route : routes_) {
    if (route.segments.size() != segments.size()) continue;
    std::vector<std::string> captured;
    bool match = true;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const std::string& pat = route.segments[i];
      if (pat.size() >= 2 && pat.front() == '{' && pat.back() == '}') {
        captured.emplace_back(segments[i]);
      } else if (pat != segments[i]) {
        match = false;
        break;
      }
    }
    if (match) {
      *params = std::move(captured);
      return &route;
    }
  }
  return nullptr;
}

std::string http_get(int port, const std::string& path, int* status_out) {
  auto fd = common::connect_tcp("127.0.0.1", port);
  if (!fd.valid()) throw std::runtime_error("http_get: connect() failed");
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (!common::send_all(fd.get(), request.data(), request.size())) {
    throw std::runtime_error("http_get: send() failed");
  }
  std::string raw;
  char buf[4096];
  while (true) {
    std::size_t received = 0;
    const auto status =
        common::recv_some(fd.get(), buf, sizeof(buf), 10000, &received);
    if (status != common::RecvStatus::kData) break;
    raw.append(buf, received);
  }
  const auto header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    throw std::runtime_error("http_get: malformed response");
  }
  if (status_out != nullptr) {
    *status_out = std::atoi(raw.c_str() + 9);  // After "HTTP/1.1 ".
  }
  return raw.substr(header_end + 4);
}

}  // namespace stampede::dash
