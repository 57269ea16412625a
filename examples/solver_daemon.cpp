// Persistent multi-tenant solver daemon CLI (docs/DAEMON.md).
//
// Runs a daemon::Daemon over stdin/stdout (the default: one request
// line in, one record line out, exit on EOF or a shutdown op) or over
// a Unix-domain socket, where connections are served sequentially and
// hot state — open sessions, tenant weights, accrued vruntime — stays
// resident across connections:
//
//   $ ./examples/solver_daemon < requests.jsonl
//   $ ./examples/solver_daemon --socket /tmp/nat.sock &
//     ... clients connect, stream JSONL requests, read records ...
//
// Flags:
//   --socket PATH             serve connections on a Unix socket
//                             instead of stdin/stdout
//   --threads N               solver pool width; 0 = hardware (default)
//   --fifo                    arrival-order dispatch (fairness baseline)
//   --default-deadline-ms N   deadline for requests without one; 0 =
//                             none (default)
//   --solver NAME             solver for "solve" requests (default auto)
//   --max-queue-depth N       default per-tenant admission cap (256)
//   --max-in-flight N         default per-tenant concurrency cap (1)
//   --summary                 print daemon totals to stderr at exit
//
// The process exits 0 as long as the daemon machinery worked; bad
// request lines become structured error records, not crashes.
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "daemon/daemon.hpp"
#include "lp/backend.hpp"
#include "util/fd_streambuf.hpp"

namespace {

using nat::util::FdStreambuf;

void usage() {
  std::cerr << "usage: solver_daemon [--socket PATH] [--threads N] [--fifo]\n"
            << "         [--default-deadline-ms N] [--solver NAME]\n"
            << "         [--max-queue-depth N] [--max-in-flight N]\n"
            << "         [--robust] [--summary]\n";
}

/// Sequential accept loop: each connection is one serve() call; the
/// daemon's state persists between them. A shutdown op ends both the
/// connection and the accept loop.
int serve_socket(nat::daemon::Daemon& daemon, const std::string& path) {
  // A client that disconnects mid-record must surface as a write error,
  // not a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "solver_daemon: socket(): " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "solver_daemon: socket path too long: " << path << "\n";
    ::close(listen_fd);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 8) != 0) {
    std::cerr << "solver_daemon: bind/listen on " << path << ": "
              << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return 1;
  }
  std::cerr << "solver_daemon: listening on " << path << "\n";
  while (!daemon.draining()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::cerr << "solver_daemon: accept(): " << std::strerror(errno) << "\n";
      break;
    }
    FdStreambuf buf(fd);
    std::istream in(&buf);
    std::ostream out(&buf);
    daemon.serve(in, out);
    out.flush();
    ::close(fd);
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A stale NAT_LP_BACKEND would fail every solve; refuse it before
  // reading any input.
  try {
    nat::lp::default_backend();
  } catch (const std::exception& e) {
    std::cerr << "solver_daemon: " << e.what() << '\n';
    return 2;
  }

  nat::daemon::DaemonOptions options;
  std::string socket_path;
  bool summary = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--fifo") {
      options.fifo = true;
    } else if (arg == "--default-deadline-ms" && i + 1 < argc) {
      options.default_deadline_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--solver" && i + 1 < argc) {
      options.batch.solver = argv[++i];
    } else if (arg == "--robust") {
      options.batch.robust = true;
    } else if (arg == "--max-queue-depth" && i + 1 < argc) {
      options.tenant_defaults.max_queue_depth =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--max-in-flight" && i + 1 < argc) {
      options.tenant_defaults.max_in_flight =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "solver_daemon: unexpected argument \"" << arg << "\"\n";
      usage();
      return 2;
    }
  }

  nat::daemon::Daemon daemon(options);
  const int rc = socket_path.empty() ? daemon.serve(std::cin, std::cout)
                                     : serve_socket(daemon, socket_path);
  if (summary) {
    const nat::daemon::DaemonStats s = daemon.stats();
    std::cerr << "daemon: " << s.submitted << " submitted, " << s.admitted
              << " admitted, " << s.rejected << " rejected, " << s.solved
              << " solved, " << s.errors << " errors, " << s.timeouts
              << " timeouts, " << s.tenants.size() << " tenants\n";
  }
  return rc;
}
