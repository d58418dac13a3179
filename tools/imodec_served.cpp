// imodec_served — synthesis-as-a-service daemon (DESIGN.md §14, §15).
//
// A long-lived process wrapping a serve::Server: a bounded admission queue
// feeding a pool of worker threads, each with its own warm serve::Engine
// (SynthesisSession: thread pool, recycled BDD managers, result cache).
// Requests are line-delimited JSON on stdin (default, served serially) or on
// a Unix stream socket (--socket, concurrent connections), responses are one
// line of JSON each, flushed immediately. Request/response schema v2
// (control verbs, `overloaded` + `retry_after_ms`): src/map/serve.hpp and
// README "Serving"; both directions validate against
// tools/check_request_json.py.
//
// Resilience (DESIGN.md §15):
//   - admission control: a full queue sheds with typed `overloaded`
//     responses instead of stalling the socket; request lines longer than
//     --max-line-bytes get a typed `usage` error and the connection lives;
//   - deadline propagation: queue wait is charged against the request's
//     timeout_ms; requests already dead at dequeue are rejected typed;
//   - graceful drain: SIGTERM/SIGINT (or the `drain` control verb) stops
//     accepting, finishes in-flight work, answers queued requests with
//     `overloaded`, closes connections, exits 0;
//   - crash containment: fatal signals dump the flight-recorder ring and a
//     final {"imodec_crash":...} line to stderr, then re-raise so the exit
//     status names the signal; --supervise forks the serving process and
//     restarts it on crashes with exponential backoff and crash-loop
//     detection, emitting {"imodec_supervisor":...} records on stderr.
//
// Usage:
//   imodec_served [options]                 # serve stdin -> stdout
//   imodec_served --socket /tmp/imodec.sock # concurrent socket service
//   imodec_served --socket /tmp/imodec.sock --supervise --pidfile /tmp/i.pid
//
// Options (the daemon's base config; requests override per field):
//   -k <n>               LUT input count (default 5)
//   --threads <n>        per-engine execution width (0 = hardware concurrency)
//   --single             single-output decomposition baseline
//   --strict             strict codes
//   --no-collapse        skip collapsing; restructure instead
//   --verify-mode <off|sim|exact|auto>
//   --max-p <n>          global class cap
//   --bound <n>          bound-set size b
//   --seed <n>           bound-set sampling seed
//   --timeout-ms <n>     per-request wall-clock deadline (0 = none)
//   --node-budget <n>    live BDD-node budget (0 = none)
//   --on-exhaustion <fail|degrade>
//   --result-cache       enable the exact-keyed result cache
//   --cache-entries <n>  result-cache LRU capacity (default 4096)
//   --max-requests <n>   drain after n completed requests (0 = no limit)
// Serving options:
//   --workers <n>        concurrent synthesis lanes / warm engines (default 1)
//   --queue <n>          admission queue capacity (default 16)
//   --retry-after-ms <n> backoff hint in `overloaded` responses (default 50)
//   --max-line-bytes <n> request line cap (default 1048576)
//   --max-connections <n> concurrent socket connections (default 64)
//   --supervise          run under the restart supervisor (needs --socket)
//   --pidfile <path>     write the serving process pid (rewritten on restart)
//   --restart-base-ms / --restart-max-ms / --restart-stable-ms /
//   --restart-give-up    supervisor RestartPolicy knobs (serve.hpp; the
//                        chaos soak shrinks them to kill workers quickly)
//
// Exit codes: 0 on clean shutdown (EOF / request limit / drain), 2 on usage
// errors; a crashed un-supervised worker dies by its signal. The supervisor
// exits 0 after a clean worker drain, 1 when it gives up on a crash loop.
// Per-request failures never exit — they travel back as typed error
// responses (map/errors.hpp).

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "map/errors.hpp"
#include "map/serve.hpp"
#include "obs/flight.hpp"
#include "util/signals.hpp"

#ifndef _WIN32
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace imodec;

namespace {

struct DaemonOptions {
  SynthesisConfig cfg;
  serve::ServerOptions server;
  serve::RestartPolicy::Options restart;
  std::string socket_path;
  std::string pidfile;
  std::uint64_t max_requests = 0;
  std::size_t max_line_bytes = 1 << 20;
  std::size_t max_connections = 64;
  bool supervise = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-k n] [--threads n] [--single] [--strict] "
               "[--no-collapse] [--verify-mode m] [--max-p n] [--bound n] "
               "[--seed n] [--timeout-ms n] [--node-budget n] "
               "[--on-exhaustion fail|degrade] [--result-cache] "
               "[--cache-entries n] [--max-requests n] "
               "[--socket path] [--workers n] [--queue n] "
               "[--retry-after-ms n] [--max-line-bytes n] "
               "[--max-connections n] [--supervise] [--pidfile path] "
               "[--restart-base-ms n] [--restart-max-ms n] "
               "[--restart-stable-ms n] [--restart-give-up n]\n",
               argv0);
  return exit_code(ErrorCode::usage);
}

/// Completed-request counter shared with the crash handler (fprintf-free
/// reads from the signal path).
std::atomic<std::uint64_t> g_completed{0};

/// Last-gasp fatal-signal callback: flight ring + one structured final line,
/// write(2)-only, then the caller re-raises (util::install_fatal_handler).
void crash_last_gasp(int signo) {
  obs::flight_dump_fd(2);
  char buf[192];
  const int len = std::snprintf(
      buf, sizeof(buf),
      "{\"imodec_crash\":{\"signal\":%d,\"signal_name\":\"%s\","
      "\"completed_requests\":%llu}}\n",
      signo, util::signal_name(signo),
      static_cast<unsigned long long>(
          g_completed.load(std::memory_order_relaxed)));
  if (len > 0) {
    std::size_t off = 0;
    while (off < static_cast<std::size_t>(len)) {
      const ssize_t w = ::write(2, buf + off, len - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
  }
}

/// Typed response for an oversized request line (the id is unknowable — the
/// line was never buffered whole).
std::string oversized_response(std::size_t cap) {
  obs::Json resp = obs::Json::object();
  resp["schema_version"] = serve::kWireSchemaVersion;
  resp["id"] = "";
  resp["ok"] = false;
  resp["code"] = to_string(ErrorCode::usage);
  obs::Json err = obs::Json::object();
  err["code"] = to_string(ErrorCode::usage);
  err["message"] = "request line exceeds " + std::to_string(cap) + " bytes";
  resp["error"] = std::move(err);
  return resp.dump(-1);
}

enum class LineRead { ok, oversized, eof };

/// Bounded getline: reads into `line` up to `cap` bytes. On overflow the
/// rest of the line is *discarded as it streams* (never buffered), the
/// stream stays usable, and the caller answers with a typed usage error.
LineRead read_bounded_line(std::istream& in, std::string& line,
                           std::size_t cap) {
  line.clear();
  int ch;
  while ((ch = in.get()) != std::char_traits<char>::eof()) {
    if (ch == '\n') return LineRead::ok;
    if (line.size() >= cap) {
      while ((ch = in.get()) != std::char_traits<char>::eof() && ch != '\n') {
      }
      return LineRead::oversized;
    }
    line.push_back(static_cast<char>(ch));
  }
  return line.empty() ? LineRead::eof : LineRead::ok;
}

/// stdin/stdout service: serial (one outstanding request), in request
/// order. Exits on EOF, drain signal, `drain` verb, or the request limit.
int serve_stdio(serve::Server& server, const DaemonOptions& opt) {
  std::string line;
  for (;;) {
    if (util::drain_requested() || server.draining()) break;
    if (opt.max_requests &&
        g_completed.load(std::memory_order_relaxed) >= opt.max_requests)
      break;
    const LineRead r =
        read_bounded_line(std::cin, line, opt.max_line_bytes);
    if (r == LineRead::eof) break;
    if (r == LineRead::oversized) {
      std::cout << oversized_response(opt.max_line_bytes) << '\n'
                << std::flush;
      g_completed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (line.empty()) continue;  // blank lines are keep-alive no-ops
    std::cout << server.handle(line) << '\n' << std::flush;
    g_completed.fetch_add(1, std::memory_order_relaxed);
  }
  server.drain();
  return 0;
}

#ifndef _WIN32

/// Create, bind and listen on a Unix stream socket. -1 on failure.
int make_listener(const std::string& path, int backlog) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("imodec_served: socket");
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "imodec_served: socket path too long\n");
    ::close(listener);
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, backlog) < 0) {
    std::perror("imodec_served: bind/listen");
    ::close(listener);
    return -1;
  }
  return listener;
}

/// One client connection: reads bounded lines, serves each synchronously
/// (one outstanding request per connection; concurrency comes from multiple
/// connections competing for the admission queue), writes one response line
/// per request. Survives oversized lines; exits on peer close / shutdown().
class Connection {
 public:
  Connection(int fd, serve::Server& server, const DaemonOptions& opt)
      : fd_(fd), server_(server), opt_(opt) {}

  void run() {
    serve_requests();
    finished_.store(true, std::memory_order_release);
  }

  /// Half-close from the drain path: wakes the blocked read().
  void shut() { ::shutdown(fd_, SHUT_RDWR); }

  /// True once run() returned — the fd is safe to close and join.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  int fd() const { return fd_; }

 private:
  void serve_requests() {
    std::string buf;
    char chunk[4096];
    bool discarding = false;  // past-cap line being streamed to the bin
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos;
      while ((pos = buf.find('\n')) != std::string::npos) {
        std::string line = buf.substr(0, pos);
        buf.erase(0, pos + 1);
        if (discarding) {
          // Tail of an oversized line; the error already went out.
          discarding = false;
          continue;
        }
        if (line.empty()) continue;
        if (line.size() > opt_.max_line_bytes) {
          write_line(oversized_response(opt_.max_line_bytes));
          g_completed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        write_line(server_.handle(line));
        g_completed.fetch_add(1, std::memory_order_relaxed);
      }
      if (buf.size() > opt_.max_line_bytes) {
        // No newline yet and already past the cap: answer now, drop the
        // buffered prefix, and stream the rest of the line to nowhere.
        write_line(oversized_response(opt_.max_line_bytes));
        g_completed.fetch_add(1, std::memory_order_relaxed);
        buf.clear();
        discarding = true;
      }
    }
  }

  void write_line(const std::string& text) {
    const std::string out = text + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t w = ::write(fd_, out.data() + off, out.size() - off);
      if (w <= 0) return;
      off += static_cast<std::size_t>(w);
    }
  }

  int fd_;
  serve::Server& server_;
  const DaemonOptions& opt_;
  std::atomic<bool> finished_{false};
};

/// Concurrent Unix-socket service over a pre-made listener. Accept loop
/// polls {listener, drain self-pipe}; each connection gets a thread; drain
/// (signal, verb, or request limit) stops accepting, lets the Server finish
/// in-flight work, then closes every connection. Returns the exit code.
int serve_socket(serve::Server& server, int listener,
                 const DaemonOptions& opt) {
  struct Conn {
    std::unique_ptr<Connection> c;
    std::thread t;
  };
  std::list<Conn> conns;
  std::mutex conns_mu;
  std::atomic<std::size_t> open_conns{0};

  std::fprintf(stderr, "imodec_served: listening on %s (workers=%u queue=%zu)\n",
               opt.socket_path.c_str(), server.workers(),
               opt.server.queue_capacity);

  const auto reap_finished = [&] {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->c->finished()) {
        it->t.join();
        ::close(it->c->fd());
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  };

  for (;;) {
    if (util::drain_requested() || server.draining()) break;
    if (opt.max_requests &&
        g_completed.load(std::memory_order_relaxed) >= opt.max_requests)
      break;

    pollfd fds[2];
    fds[0].fd = listener;
    fds[0].events = POLLIN;
    fds[1].fd = util::drain_fd();
    fds[1].events = POLLIN;
    const int nfds = fds[1].fd >= 0 ? 2 : 1;
    // Finite timeout: the drain verb and the request limit are flag checks,
    // not poll events.
    const int pr = ::poll(fds, nfds, 200);
    if (pr < 0) {
      if (errno == EINTR) continue;  // signal; loop re-checks the flags
      std::perror("imodec_served: poll");
      break;
    }
    reap_finished();
    if (pr == 0 || !(fds[0].revents & POLLIN)) continue;

    const int conn_fd = ::accept(listener, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (open_conns.load(std::memory_order_relaxed) >= opt.max_connections) {
      // Connection-level shed: one typed line, then close. The client can
      // back off and reconnect exactly as for a queue shed.
      obs::Json resp = obs::Json::object();
      resp["schema_version"] = serve::kWireSchemaVersion;
      resp["id"] = "";
      resp["ok"] = false;
      resp["code"] = to_string(ErrorCode::overloaded);
      obs::Json err = obs::Json::object();
      err["code"] = to_string(ErrorCode::overloaded);
      err["message"] = "connection limit reached";
      err["retry_after_ms"] = opt.server.retry_after_ms;
      resp["error"] = std::move(err);
      const std::string line = resp.dump(-1) + "\n";
      [[maybe_unused]] const auto w =
          ::write(conn_fd, line.data(), line.size());
      ::close(conn_fd);
      continue;
    }

    auto connection = std::make_unique<Connection>(conn_fd, server, opt);
    Connection* raw = connection.get();
    open_conns.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu);
    conns.push_back(Conn{std::move(connection), std::thread([raw, &open_conns] {
                           raw->run();
                           open_conns.fetch_sub(1, std::memory_order_relaxed);
                         })});
  }

  // Drain: stop accepting first, then let in-flight work finish (queued
  // requests are answered `overloaded` inside Server::drain), and only then
  // hang up on the clients — every admitted request gets its response
  // before its connection goes away.
  ::close(listener);
  ::unlink(opt.socket_path.c_str());
  server.drain();
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (Conn& conn : conns) conn.c->shut();
  }
  for (;;) {
    std::unique_lock<std::mutex> lock(conns_mu);
    if (conns.empty()) break;
    Conn conn = std::move(conns.front());
    conns.pop_front();
    lock.unlock();
    if (conn.t.joinable()) conn.t.join();
    ::close(conn.c->fd());
  }
  std::fprintf(stderr, "imodec_served: drained cleanly\n");
  return 0;
}

/// Write `pid` to the pidfile (best effort; the chaos harness reads it).
void write_pidfile(const std::string& path, pid_t pid) {
  if (path.empty()) return;
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%d\n", static_cast<int>(pid));
    std::fclose(f);
  }
}

/// Supervisor-side globals for the forwarding signal handler.
std::atomic<pid_t> g_worker_pid{0};
std::atomic<bool> g_super_drain{false};

void supervisor_forward_signal(int signo) {
  g_super_drain.store(true, std::memory_order_relaxed);
  const pid_t pid = g_worker_pid.load(std::memory_order_relaxed);
  if (pid > 0) ::kill(pid, signo);
}

void supervisor_record(const char* event, std::uint64_t restarts, int sig,
                       int code, std::uint64_t uptime_ms,
                       std::uint64_t backoff_ms) {
  obs::Json rec = obs::Json::object();
  obs::Json body = obs::Json::object();
  body["event"] = event;
  body["restarts"] = restarts;
  if (sig) {
    body["signal"] = sig;
    body["signal_name"] = util::signal_name(sig);
  }
  if (code >= 0) body["exit_code"] = code;
  body["uptime_ms"] = uptime_ms;
  if (backoff_ms) body["backoff_ms"] = backoff_ms;
  rec["imodec_supervisor"] = std::move(body);
  std::fprintf(stderr, "%s\n", rec.dump(-1).c_str());
  std::fflush(stderr);
}

/// Restart-on-crash supervisor: forks the serving worker (which inherits
/// the already-bound listener, so client connects queue in the kernel
/// backlog across restarts), restarts crashed workers per RestartPolicy,
/// exits 0 when a worker drains cleanly and 1 on a crash loop.
int run_supervisor(const DaemonOptions& opt, int listener,
                   int (*worker_main)(const DaemonOptions&, int)) {
  serve::RestartPolicy policy(opt.restart);
  std::uint64_t restarts = 0;

  struct sigaction sa{};
  sa.sa_handler = supervisor_forward_signal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("imodec_served: fork");
      return 1;
    }
    if (pid == 0) {
      // Worker: fresh drain handling of its own; the supervisor's
      // dispositions are replaced inside worker_main.
      const int rc = worker_main(opt, listener);
      std::_Exit(rc);
    }
    g_worker_pid.store(pid, std::memory_order_relaxed);
    write_pidfile(opt.pidfile, pid);
    if (g_super_drain.load(std::memory_order_relaxed))
      ::kill(pid, SIGTERM);  // signal raced the fork: drain the new worker

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        std::perror("imodec_served: waitpid");
        return 1;
      }
      // Interrupted by the forwarded signal; keep waiting for the drain.
    }
    g_worker_pid.store(0, std::memory_order_relaxed);
    const std::uint64_t uptime_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      supervisor_record("exit", restarts, 0, 0, uptime_ms, 0);
      if (!opt.pidfile.empty()) ::unlink(opt.pidfile.c_str());
      return 0;
    }
    const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    const serve::RestartPolicy::Decision d = policy.on_crash(uptime_ms);
    if (d.give_up || g_super_drain.load(std::memory_order_relaxed)) {
      supervisor_record(d.give_up ? "give_up" : "exit", restarts, sig, code,
                        uptime_ms, 0);
      if (!opt.pidfile.empty()) ::unlink(opt.pidfile.c_str());
      return d.give_up ? 1 : 0;
    }
    ++restarts;
    supervisor_record("restart", restarts, sig, code, uptime_ms,
                      d.backoff_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(d.backoff_ms));
  }
}

#endif  // !_WIN32

/// The serving process proper (run directly, or as the supervisor's forked
/// worker): installs drain + crash handlers, builds the Server, serves.
int worker_main(const DaemonOptions& opt, int listener) {
  util::install_drain_handler();
  util::install_fatal_handler(&crash_last_gasp);
#ifndef _WIN32
  write_pidfile(opt.pidfile, ::getpid());
#endif

  serve::Server server(opt.cfg, opt.server);
#ifndef _WIN32
  if (listener >= 0) return serve_socket(server, listener, opt);
#else
  (void)listener;
#endif
  return serve_stdio(server, opt);
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions opt;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-k" && i + 1 < argc) {
        opt.cfg.k = static_cast<unsigned>(std::stoul(argv[++i]));
      } else if (arg == "--threads" && i + 1 < argc) {
        opt.cfg.threads = static_cast<unsigned>(std::stoul(argv[++i]));
      } else if (arg == "--max-p" && i + 1 < argc) {
        opt.cfg.max_p = static_cast<std::uint32_t>(std::stoul(argv[++i]));
      } else if (arg == "--bound" && i + 1 < argc) {
        opt.cfg.bound_size = static_cast<unsigned>(std::stoul(argv[++i]));
      } else if (arg == "--seed" && i + 1 < argc) {
        opt.cfg.seed = std::stoull(argv[++i]);
      } else if (arg == "--timeout-ms" && i + 1 < argc) {
        opt.cfg.timeout_ms = std::stoull(argv[++i]);
      } else if (arg == "--node-budget" && i + 1 < argc) {
        opt.cfg.node_budget = static_cast<std::size_t>(std::stoull(argv[++i]));
      } else if (arg == "--on-exhaustion" && i + 1 < argc) {
        const auto policy = parse_on_exhaustion(argv[++i]);
        if (!policy) return usage(argv[0]);
        opt.cfg.on_exhaustion = *policy;
      } else if (arg == "--verify-mode" && i + 1 < argc) {
        const auto mode = parse_verify_mode(argv[++i]);
        if (!mode) return usage(argv[0]);
        opt.cfg.verify = *mode;
      } else if (arg == "--single") {
        opt.cfg.multi_output = false;
      } else if (arg == "--strict") {
        opt.cfg.strict = true;
      } else if (arg == "--no-collapse") {
        opt.cfg.collapse = false;
      } else if (arg == "--result-cache") {
        opt.cfg.result_cache = true;
      } else if (arg == "--cache-entries" && i + 1 < argc) {
        opt.cfg.result_cache_entries =
            static_cast<std::size_t>(std::stoull(argv[++i]));
      } else if (arg == "--max-requests" && i + 1 < argc) {
        opt.max_requests = std::stoull(argv[++i]);
      } else if (arg == "--socket" && i + 1 < argc) {
        opt.socket_path = argv[++i];
      } else if (arg == "--workers" && i + 1 < argc) {
        opt.server.workers = static_cast<unsigned>(std::stoul(argv[++i]));
      } else if (arg == "--queue" && i + 1 < argc) {
        opt.server.queue_capacity =
            static_cast<std::size_t>(std::stoull(argv[++i]));
      } else if (arg == "--retry-after-ms" && i + 1 < argc) {
        opt.server.retry_after_ms = std::stoull(argv[++i]);
      } else if (arg == "--max-line-bytes" && i + 1 < argc) {
        opt.max_line_bytes = static_cast<std::size_t>(std::stoull(argv[++i]));
      } else if (arg == "--max-connections" && i + 1 < argc) {
        opt.max_connections = static_cast<std::size_t>(std::stoull(argv[++i]));
      } else if (arg == "--supervise") {
        opt.supervise = true;
      } else if (arg == "--restart-base-ms" && i + 1 < argc) {
        opt.restart.base_backoff_ms = std::stoull(argv[++i]);
      } else if (arg == "--restart-max-ms" && i + 1 < argc) {
        opt.restart.max_backoff_ms = std::stoull(argv[++i]);
      } else if (arg == "--restart-stable-ms" && i + 1 < argc) {
        opt.restart.stable_uptime_ms = std::stoull(argv[++i]);
      } else if (arg == "--restart-give-up" && i + 1 < argc) {
        opt.restart.give_up_after =
            static_cast<unsigned>(std::stoul(argv[++i]));
      } else if (arg == "--pidfile" && i + 1 < argc) {
        opt.pidfile = argv[++i];
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "imodec_served: malformed numeric argument\n");
    return usage(argv[0]);
  }

  if (opt.server.workers == 0) opt.server.workers = 1;
  if (opt.max_line_bytes < 64) opt.max_line_bytes = 64;
  if (const auto diags = opt.cfg.validate(); !diags.empty()) {
    for (const auto& d : diags)
      std::fprintf(stderr, "imodec_served: invalid configuration: %s\n",
                   d.c_str());
    return exit_code(ErrorCode::usage);
  }

#ifndef _WIN32
  if (!opt.socket_path.empty()) {
    const int listener = make_listener(opt.socket_path, 16);
    if (listener < 0) return 1;
    if (opt.supervise) return run_supervisor(opt, listener, &worker_main);
    return worker_main(opt, listener);
  }
  if (opt.supervise) {
    std::fprintf(stderr, "imodec_served: --supervise requires --socket\n");
    return exit_code(ErrorCode::usage);
  }
#else
  if (!opt.socket_path.empty() || opt.supervise) {
    std::fprintf(stderr,
                 "imodec_served: --socket/--supervise unsupported on this "
                 "OS\n");
    return exit_code(ErrorCode::usage);
  }
#endif
  return worker_main(opt, -1);
}
