#include "api/serve.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>

#include "api/schema.h"

namespace k2::api {

namespace {

util::Json ok_reply() {
  util::Json j;
  j.set("ok", true);
  return j;
}

util::Json error_reply(const std::string& msg) {
  util::Json j;
  j.set("ok", false);
  j.set("error", msg);
  return j;
}

util::Json validation_reply(const ValidationError& e) {
  util::Json j;
  j.set("ok", false);
  j.set("error", "invalid request");
  util::Json diags{util::Json::Array{}};
  for (const Diagnostic& d : e.diagnostics()) {
    util::Json dj;
    dj.set("path", d.path);
    dj.set("message", d.message);
    diags.push_back(std::move(dj));
  }
  j.set("diagnostics", std::move(diags));
  return j;
}

// Shared status shape for the status/wait/cancel replies. `events` is the
// total emitted (== last_seq); both O(1), no event-ring copy.
util::Json status_reply(const JobHandle& job) {
  util::Json j = ok_reply();
  j.set("job", job.id());
  j.set("state", to_string(job.state()));
  uint64_t last = job.last_seq();
  j.set("events", last);
  j.set("last_seq", last);
  j.set("events_dropped", job.events_dropped());
  return j;
}

// Admission rejection (OverloadError): a typed reply clients can
// distinguish from validation failures — error_kind "overloaded" plus the
// bound that fired — so load generators count rejections instead of
// mis-filing them as errors.
util::Json overload_reply(const OverloadError& e) {
  util::Json j = error_reply(e.what());
  j.set("error_kind", "overloaded");
  j.set("rejected", true);
  j.set("limit", e.limit_name());
  j.set("current", e.current());
  j.set("max", e.limit());
  return j;
}

util::Json solver_json(const verify::AsyncSolverDispatcher::Stats& ds,
                       int workers) {
  util::Json solver;
  solver.set("workers", int64_t(workers));
  solver.set("submitted", ds.submitted);
  solver.set("completed", ds.completed);
  solver.set("abandoned", ds.abandoned);
  solver.set("timeouts", ds.timeouts);
  solver.set("queue_depth", ds.queue_depth);
  solver.set("queue_peak", ds.queue_peak);
  return solver;
}

util::Json cache_json(const verify::EqCache::Stats& cs, uint64_t pending) {
  util::Json cache;
  cache.set("hits", cs.hits);
  cache.set("misses", cs.misses);
  cache.set("insertions", cs.insertions);
  cache.set("collisions", cs.collisions);
  cache.set("pending_joins", cs.pending_joins);
  cache.set("pending_abandons", cs.pending_abandons);
  cache.set("disk_hits", cs.disk_hits);
  cache.set("disk_loaded", cs.disk_loaded);
  cache.set("disk_writes", cs.disk_writes);
  cache.set("pending", pending);
  return cache;
}

}  // namespace

std::string ServeLoop::handle(const std::string& line, bool* stop) {
  util::Json req;
  try {
    req = util::Json::parse(line);
  } catch (const std::exception& e) {
    return error_reply(std::string("malformed JSON: ") + e.what()).dump();
  }

  try {
    if (!req.is_object() || !req.get("op") || !req.at("op").is_string())
      return error_reply("expected an object with a string 'op'").dump();
    const std::string& op = req.at("op").as_string();

    if (op == "hello") {
      util::Json j = ok_reply();
      j.set("protocol", kServeProtocol);
      j.set("request_schema", kCompileSchema);
      j.set("event_schema", kEventSchema);
      util::Json ops{util::Json::Array{}};
      // docs:serve-ops-begin (scripts/check_docs.py: every op listed here
      // must have a row in docs/API.md's serve-op table)
      for (const char* o : {"hello", "submit", "status", "events", "result",
                            "wait", "cancel", "stats", "metrics", "shutdown"})
        ops.push_back(o);
      // docs:serve-ops-end
      j.set("ops", std::move(ops));
      return j.dump();
    }
    if (op == "stats" || op == "metrics") {
      // Both ops read ONE ServiceMetrics snapshot, so every number in the
      // reply describes the same instant (no torn totals: state counts sum
      // to jobs submitted, and cache/pending_eq match). `stats` keeps its
      // original compact shape for existing clients; `metrics` adds the
      // full state breakdown, event-ring health, admission counters and
      // configured limits.
      ServiceMetrics m = service_.metrics();
      util::Json j = ok_reply();
      util::Json jobs;
      if (op == "metrics") {
        jobs.set("submitted", m.submitted);
        jobs.set("rejected", m.rejected);
        jobs.set("queued", m.queued);
        jobs.set("running", m.running);
        jobs.set("done", m.done);
        jobs.set("failed", m.failed);
        jobs.set("cancelled", m.cancelled);
      } else {
        jobs.set("total", m.submitted);
      }
      jobs.set("active", m.queued + m.running);
      j.set("jobs", std::move(jobs));
      if (op == "metrics") {
        util::Json events;
        events.set("backlog", m.event_backlog);
        events.set("dropped", m.events_dropped);
        j.set("events", std::move(events));
        util::Json limits;
        limits.set("max_queued_jobs", uint64_t(service_.options().max_queued_jobs));
        limits.set("max_active_jobs", uint64_t(service_.options().max_active_jobs));
        limits.set("max_events_per_job",
                   uint64_t(service_.options().max_events_per_job));
        limits.set("threads", int64_t(service_.options().threads));
        limits.set("solver_workers", int64_t(service_.options().solver_workers));
        limits.set("tick_every", service_.options().tick_every);
        j.set("limits", std::move(limits));
      }
      j.set("solver", solver_json(m.solver, service_.options().solver_workers));
      j.set("cache", cache_json(m.cache, m.pending_eq));
      j.set("jit_bailouts", m.jit_bailouts);
      j.set("safety_solver_calls", m.safety_solver_calls);
      // Workload provenance: finished jobs per traffic scenario
      // ("name@fingerprint" -> count). Empty until a job completes.
      util::Json scenarios;
      for (const auto& [key, count] : m.scenario_jobs)
        scenarios.set(key, count);
      if (m.scenario_jobs.empty()) scenarios = util::Json(util::Json::Object{});
      j.set("scenarios", std::move(scenarios));
      if (const verify::CacheStore* st = service_.store()) {
        verify::CacheStore::Stats ss = st->stats();
        util::Json store;
        store.set("dir", st->dir());
        store.set("records", uint64_t(st->records().size()));
        store.set("loaded", ss.loaded);
        store.set("dropped", ss.dropped);
        store.set("appended", ss.appended);
        store.set("reset_shards", ss.reset_shards);
        j.set("store", std::move(store));
      }
      if (verify::RemoteSolverBackend* rb = service_.remote_backend()) {
        verify::RemoteSolverBackend::Stats rs = rb->stats();
        util::Json remote;
        remote.set("live_endpoints", int64_t(rb->live_endpoints()));
        remote.set("remote_solved", rs.remote_solved);
        remote.set("remote_failed", rs.remote_failed);
        remote.set("local_fallbacks", rs.local_fallbacks);
        remote.set("portfolio_races", rs.portfolio_races);
        j.set("remote", std::move(remote));
      }
      return j.dump();
    }
    if (op == "shutdown") {
      *stop = true;
      service_.shutdown(/*cancel_running=*/true);
      util::Json j = ok_reply();
      j.set("protocol", kServeProtocol);
      j.set("shutdown", true);
      // The no-leaked-verdicts invariant: shutdown() drained the solver
      // queue, so every job cache holds zero in-flight verdicts.
      j.set("pending_eq", uint64_t(service_.pending_eq_queries()));
      return j.dump();
    }
    if (op == "submit") {
      const util::Json* r = req.get("request");
      if (!r) return error_reply("submit needs a 'request' object").dump();
      CompileRequest creq = CompileRequest::from_json(*r);  // ValidationError
      JobHandle job = service_.submit(std::move(creq));
      util::Json j = ok_reply();
      j.set("job", job.id());
      j.set("state", to_string(job.state()));
      return j.dump();
    }

    // Everything below addresses an existing job.
    const util::Json* jid = req.get("job");
    if (!jid || !jid->is_string())
      return error_reply("op '" + op + "' needs a string 'job'").dump();
    JobHandle job = service_.find(jid->as_string());
    if (!job.valid())
      return error_reply("unknown job '" + jid->as_string() + "'").dump();

    if (op == "status") return status_reply(job).dump();
    if (op == "wait") {
      job.wait();
      return status_reply(job).dump();
    }
    if (op == "cancel") {
      bool accepted = job.cancel();
      util::Json j = status_reply(job);
      j.set("cancel_accepted", accepted);
      return j.dump();
    }
    if (op == "events") {
      uint64_t after = 0;
      if (const util::Json* a = req.get("after")) after = a->as_uint();
      util::Json j = ok_reply();
      j.set("job", job.id());
      util::Json evs{util::Json::Array{}};
      for (const Event& e : job.poll(after)) evs.push_back(event_to_json(e));
      j.set("events", std::move(evs));
      return j.dump();
    }
    if (op == "result") {
      if (!job.terminal())
        return error_reply("job '" + job.id() + "' is still " +
                           to_string(job.state()))
            .dump();
      util::Json j = ok_reply();
      j.set("result", job.response().to_json());
      return j.dump();
    }
    return error_reply("unknown op '" + op + "'").dump();
  } catch (const OverloadError& e) {
    return overload_reply(e).dump();
  } catch (const ValidationError& e) {
    return validation_reply(e).dump();
  } catch (const std::exception& e) {
    return error_reply(e.what()).dump();
  }
}

size_t ServeLoop::run(std::istream& in, std::ostream& out) {
  size_t handled = 0;
  std::string line;
  bool stop = false;
  while (!stop && std::getline(in, line)) {
    if (line.empty()) continue;
    out << handle(line, &stop) << "\n";
    out.flush();
    handled++;
  }
  return handled;
}

// Writes the whole reply, retrying EINTR and short writes; MSG_NOSIGNAL so
// a client that disconnected mid-reply surfaces as EPIPE instead of a
// process-killing SIGPIPE. Returns false when the client is gone.
static bool write_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t w = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += size_t(w);
  }
  return true;
}

int serve_lines_on_unix_socket(const std::string& path,
                               const LineHandler& handler) {
  int listener = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) return errno;

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    close(listener);
    return ENAMETOOLONG;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  unlink(path.c_str());  // replace a stale socket file
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listener, 4) < 0) {
    int err = errno;
    close(listener);
    return err;
  }

  // One client at a time: every connection pumps lines through the one
  // handler; a handler that sets *stop ends serving entirely.
  bool stop = false;
  while (!stop) {
    int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      close(listener);
      return err;
    }
    char chunk[4096];
    std::string pending;
    bool client_gone = false;
    ssize_t n;
    while (!stop && !client_gone &&
           (n = read(fd, chunk, sizeof chunk)) > 0) {
      pending.append(chunk, size_t(n));
      size_t pos;
      while (!stop && !client_gone &&
             (pos = pending.find('\n')) != std::string::npos) {
        std::string line = pending.substr(0, pos);
        pending.erase(0, pos + 1);
        if (line.empty()) continue;
        if (!write_all(fd, handler(line, &stop) + "\n"))
          client_gone = true;  // drop this client, keep serving
      }
    }
    // A final request without a trailing newline still counts (matching
    // the stdio path's getline semantics).
    if (!stop && !client_gone && !pending.empty())
      write_all(fd, handler(pending, &stop) + "\n");
    close(fd);
  }
  close(listener);
  return 0;
}

int serve_unix_socket(CompilerService& service, const std::string& path) {
  ServeLoop loop(service);
  return serve_lines_on_unix_socket(
      path,
      [&loop](const std::string& line, bool* stop) {
        return loop.handle(line, stop);
      });
}

}  // namespace k2::api
