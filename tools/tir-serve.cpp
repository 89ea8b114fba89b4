// tir-serve — persistent replay-as-a-service daemon.
//
// Usage:
//   tir-serve [--stdin] [--socket PATH] [--workers N] [--queue N]
//             [--cache-bytes B] [--memo N] [--base DIR]
//
// Protocol: newline-delimited JSON, one request per line, one response
// line per request, in completion order: a memo hit overtakes a replay
// still running, so match responses to requests by id.
// A request is a JSON object whose "id" is echoed back and whose remaining
// string/number/boolean fields are exactly the sweep-list vocabulary
// (name=, platform=, traces= or merged=, deployment=, eager=,
// collectives=, efficiency=, fault=, perturb=, seed=; mc= is refused)
// plus replica=R to pick one Monte-Carlo replica of a perturbed scenario.
// Any other field answers badrequest naming it:
//
//   {"id":"r1","platform":"cluster:hosts=8","traces":"ti","deployment":"block"}
//   {"id":"r2","platform":"cluster:hosts=8","traces":"ti","deployment":"block",
//    "perturb":"hostnoise:0.05","replica":3}
//   {"cmd":"stats"}
//
// Control lines: {"cmd":"stats"} prints a stats snapshot, {"cmd":"quit"}
// drains and exits. Responses:
//
//   {"id":"r1","status":"ok","name":"...","sim_time":...,"coverage":...,
//    "actions_replayed":...,"processes":...,"trace":"<digest>",
//    "cache":{"trace":"hit","memo":"miss"},"queue_s":...,"decode_s":...,
//    "solve_s":...}
//
// status is one of ok | deadlock | failed | badrequest | overloaded.
// Repeats of a scenario already answered hit the result memo and return
// the stored report bit-for-bit without re-simulation; a repeat of a
// scenario still replaying joins that replay; repeats of a trace directory
// under any spelling share one decode through the trace cache, which keys
// decodes by file identity (a re-encoded copy decodes again, then hits the
// memo: reports are keyed by content). --workers sets the replay worker
// threads (0 = one per core); --queue bounds the requests accepted and not
// yet answered, being built or replaying, beyond which requests are
// answered "overloaded". Memo hits, bad and shed requests are answered on
// the thread that reads the request line, before it reads the next one; a
// replay, and every request that joins it, is answered by a worker.
//
// --stdin (default when no --socket) serves the stdin/stdout pipe and
// exits at EOF. --socket PATH listens on a unix stream socket and serves
// connections one at a time — scenario throughput comes from the
// service's replay workers, not connection concurrency — until
// {"cmd":"quit"}.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>

#include "serve/json.hpp"
#include "serve/scenario_build.hpp"
#include "serve/service.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define TIR_HAVE_UNIX_SOCKETS 1
#else
#define TIR_HAVE_UNIX_SOCKETS 0
#endif

using namespace tir;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--stdin] [--socket PATH] [--workers N] "
               "[--queue N] [--cache-bytes B] [--memo N] "
               "[--base DIR]\n"
               "newline-delimited JSON protocol; see the header of "
               "tools/tir-serve.cpp\n",
               argv0);
  std::exit(2);
}

/// Serves one request line; returns false when the line asks to quit.
/// Output lines are serialised by `out_mu` because a replayed request is
/// answered on a service worker thread, while every other response (memo
/// hits, bad, shed and unparseable requests) is written on this thread.
bool serve_line(serve::ReplayService& service, const std::string& line,
                std::FILE* out, std::mutex& out_mu) {
  const auto emit = [out, &out_mu](const std::string& rendered) {
    std::lock_guard<std::mutex> lock(out_mu);
    std::fputs(rendered.c_str(), out);
    std::fputc('\n', out);
    std::fflush(out);
  };

  serve::Request request;
  try {
    const serve::JsonValue v = serve::parse_json(line);
    if (const auto* cmd = v.find("cmd");
        cmd != nullptr && cmd->type == serve::JsonValue::Type::string) {
      if (cmd->string == "quit") return false;
      if (cmd->string == "stats") {
        service.drain();
        emit(serve::render_stats(service.stats()));
        return true;
      }
      emit("{\"status\":\"badrequest\",\"error\":\"unknown cmd '" +
           str::json_escape(cmd->string) + "'\"}");
      return true;
    }
    request = serve::parse_request_line(line);
  } catch (const std::exception& e) {
    serve::Response response;
    response.status = serve::Response::Status::badrequest;
    response.error = e.what();
    emit(serve::render_response(response));
    return true;
  }

  service.submit(std::move(request), [emit](serve::Response response) {
    emit(serve::render_response(response));
  });
  return true;
}

int serve_stdin(serve::ReplayService& service) {
  std::mutex out_mu;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (!serve_line(service, line, stdout, out_mu)) break;
  }
  service.drain();
  return 0;
}

#if TIR_HAVE_UNIX_SOCKETS
int serve_socket(serve::ReplayService& service, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("tir-serve: socket");
    return 2;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "tir-serve: socket path too long\n");
    ::close(listener);
    return 2;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 8) != 0) {
    std::perror("tir-serve: bind/listen");
    ::close(listener);
    return 2;
  }
  std::fprintf(stderr, "tir-serve: listening on %s\n", path.c_str());

  bool quit = false;
  while (!quit) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::perror("tir-serve: accept");
      break;
    }
    std::FILE* stream = ::fdopen(fd, "r+");
    if (stream == nullptr) {
      ::close(fd);
      continue;
    }
    std::mutex out_mu;
    std::string line;
    int c;
    while ((c = std::fgetc(stream)) != EOF) {
      if (c != '\n') {
        line += static_cast<char>(c);
        continue;
      }
      if (!line.empty() && !serve_line(service, line, stream, out_mu)) {
        quit = true;
        break;
      }
      line.clear();
    }
    if (!quit && !line.empty()) quit = !serve_line(service, line, stream, out_mu);
    service.drain();  // flush in-flight responses before the stream closes
    std::fclose(stream);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  serve::ServiceOptions options;
  std::string socket_path;
  bool use_stdin = false;

  for (int i = 1; i < argc; ++i) try {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--workers") {
      options.workers = serve::parse_int("--workers", next());
      if (options.workers < 0) usage(argv[0]);
    } else if (arg == "--queue") {
      options.queue_limit = serve::parse_u64("--queue", next());
    } else if (arg == "--cache-bytes") {
      options.trace_cache.byte_budget =
          serve::parse_u64("--cache-bytes", next());
    } else if (arg == "--memo") {
      options.memo.capacity = serve::parse_u64("--memo", next());
    } else if (arg == "--base") {
      options.base_dir = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
    }
  } catch (const Error& e) {  // a malformed flag value
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (use_stdin && !socket_path.empty()) {
    std::fprintf(stderr, "--stdin and --socket are exclusive\n");
    usage(argv[0]);
  }

  try {
    serve::ReplayService service(options);
    if (!socket_path.empty()) {
#if TIR_HAVE_UNIX_SOCKETS
      return serve_socket(service, socket_path);
#else
      std::fprintf(stderr, "tir-serve: sockets unavailable on this platform\n");
      return 2;
#endif
    }
    return serve_stdin(service);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
