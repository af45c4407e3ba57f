// A miniature interactive shell over the public API — the quickest way to
// poke at the system. Reads commands from stdin (or pipe a script in):
//
//   create table emp (Name STRING, Salary INT64)
//   insert emp 'Laura' 6
//   insert emp 'Bruce' 15
//   create snapshot low on emp where Salary < 10
//   refresh low
//   show low
//   update emp p0.s0 'Laura' 12
//   delete emp p0.s1
//   refresh low
//   stats
//   \metrics            (system-wide metrics, Prometheus text; add `json`)
//   \cachestats         (epoch delta cache: hit/fill/eviction and page
//                        rescanned/reused counters — start with
//                        --delta-cache to enable the cache)
//   \trace              (phase timeline of the last refresh)
//   \flightrec out.json (dump the flight recorder as a Chrome trace —
//                        open in Perfetto / chrome://tracing)
//   \loglevel debug     (structured logging to stderr; `off` to silence)
//   \checkpoint         (fuzzy checkpoint of a file-backed base site)
//   \recover            (stats of the restart recovery that opened --data=)
//   \serve 127.0.0.1:0  (serve this shell's snapshots to remote clients;
//                        `\serve stop` shuts the server down)
//   \connect unix:/tmp/s.sock low
//                       (attach to a snapshot on a remote shell; `refresh
//                        low` and `show low` then work against the replica)
//   quit
//
// Try piping a script in:
//   printf "create table t (N STRING, S INT64)\ninsert t 'a' 1\nquit\n" |
//       ./build/examples/snapdiff_shell

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "net/refresh_server.h"
#include "net/remote_site.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "snapshot/snapshot_manager.h"

using namespace snapdiff;

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool in_string = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\'') {
        out.push_back("'" + cur);  // marker prefix: string literal
        cur.clear();
        in_string = false;
      } else {
        cur.push_back(c);
      }
      continue;
    }
    if (c == '\'') {
      in_string = true;
    } else if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
               c == ')' || c == ',') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

Result<TypeId> ParseType(const std::string& t) {
  if (t == "STRING") return TypeId::kString;
  if (t == "INT64") return TypeId::kInt64;
  if (t == "DOUBLE") return TypeId::kDouble;
  if (t == "BOOL") return TypeId::kBool;
  return Status::InvalidArgument("unknown type " + t +
                                 " (STRING|INT64|DOUBLE|BOOL)");
}

Result<Address> ParseAddr(const std::string& s) {
  // pX.sY
  if (s.size() < 4 || s[0] != 'p') {
    return Status::InvalidArgument("address must look like p0.s3");
  }
  const size_t dot = s.find(".s");
  if (dot == std::string::npos) {
    return Status::InvalidArgument("address must look like p0.s3");
  }
  return Address::FromPageSlot(
      static_cast<PageId>(std::stoul(s.substr(1, dot - 1))),
      static_cast<SlotId>(std::stoul(s.substr(dot + 2))));
}

Result<int64_t> ParseInt(const std::string& s) {
  try {
    size_t used = 0;
    const int64_t v = std::stoll(s, &used);
    if (used != s.size()) {
      return Status::InvalidArgument("not an integer: " + s);
    }
    return v;
  } catch (const std::exception&) {
    return Status::InvalidArgument("not an integer: " + s);
  }
}

Result<Value> ParseValueFor(const Column& col, const std::string& token) {
  const bool is_string_literal = !token.empty() && token[0] == '\'';
  switch (col.type) {
    case TypeId::kString:
      return Value::String(is_string_literal ? token.substr(1) : token);
    case TypeId::kInt64:
      return Value::Int64(std::stoll(token));
    case TypeId::kDouble:
      return Value::Double(std::stod(token));
    case TypeId::kBool:
      return Value::Bool(token == "true" || token == "TRUE");
    default:
      return Status::NotSupported("type not supported in shell");
  }
}

Result<Tuple> ParseRow(const Schema& user_schema,
                       const std::vector<std::string>& tokens,
                       size_t first) {
  std::vector<Value> values;
  for (size_t i = 0; i < user_schema.column_count(); ++i) {
    if (first + i >= tokens.size()) {
      return Status::InvalidArgument("expected " +
                                     std::to_string(
                                         user_schema.column_count()) +
                                     " values");
    }
    ASSIGN_OR_RETURN(Value v, ParseValueFor(user_schema.column(i),
                                            tokens[first + i]));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

class Shell {
 public:
  explicit Shell(SnapshotSystemOptions options = {}) : sys_(options) {}

  /// Executes one command line; returns false on `quit`.
  bool Execute(const std::string& line) {
    if (line.empty() || line[0] == '#') return true;
    std::vector<std::string> tok = Tokenize(line);
    if (tok.empty()) return true;
    if (tok[0] == "quit" || tok[0] == "exit") return false;
    Status st = Dispatch(line, tok);
    if (!st.ok()) std::printf("error: %s\n", st.ToString().c_str());
    return true;
  }

 private:
  Status Dispatch(const std::string& line,
                  const std::vector<std::string>& tok) {
    if (tok[0] == "create" && tok.size() >= 3 && tok[1] == "table") {
      return CreateTable(tok);
    }
    if (tok[0] == "create" && tok.size() >= 3 && tok[1] == "snapshot") {
      return CreateSnap(line, tok);
    }
    if (tok[0] == "insert") return Insert(tok);
    if (tok[0] == "update") return Update(tok);
    if (tok[0] == "delete") return Delete(tok);
    if (tok[0] == "refresh") return Refresh(tok);
    if (tok[0] == "show") return Show(tok);
    if (tok[0] == "stats") return Stats();
    if (tok[0] == "\\metrics") return Metrics(tok);
    if (tok[0] == "\\cachestats") return CacheStats();
    if (tok[0] == "\\trace") return Trace();
    if (tok[0] == "\\flightrec") return FlightRec(tok);
    if (tok[0] == "\\loglevel") return SetLogLevel(tok);
    if (tok[0] == "\\checkpoint") return Checkpoint();
    if (tok[0] == "\\recover") return RecoveryInfo();
    if (tok[0] == "\\serve") return Serve(tok);
    if (tok[0] == "\\connect") return ConnectRemote(tok);
    return Status::InvalidArgument("unknown command: " + tok[0]);
  }

  /// While \serve is live, server threads execute refreshes against sys_
  /// concurrently with shell commands; local mutations and refreshes must
  /// serialize on the serve mutex. Costs nothing when not serving.
  std::unique_lock<std::mutex> ServeGuard() {
    return server_ != nullptr
               ? std::unique_lock<std::mutex>(sys_.serve_mutex())
               : std::unique_lock<std::mutex>();
  }

  Status CreateTable(const std::vector<std::string>& tok) {
    // create table <name> ( Col TYPE [, ...] )
    if (tok.size() < 5 || (tok.size() - 3) % 2 != 0) {
      return Status::InvalidArgument(
          "usage: create table <name> (Col TYPE, ...)");
    }
    std::vector<Column> cols;
    for (size_t i = 3; i + 1 < tok.size(); i += 2) {
      ASSIGN_OR_RETURN(TypeId type, ParseType(tok[i + 1]));
      cols.push_back({tok[i], type, /*nullable=*/true});
    }
    RETURN_IF_ERROR(sys_.CreateBaseTable(tok[2], Schema(cols)).status());
    std::printf("table %s created (%zu columns)\n", tok[2].c_str(),
                cols.size());
    return Status::OK();
  }

  Status CreateSnap(const std::string& line,
                    const std::vector<std::string>& tok) {
    // create snapshot <name> on <table> where <predicate...>
    if (tok.size() < 7 || tok[3] != "on" || tok[5] != "where") {
      return Status::InvalidArgument(
          "usage: create snapshot <name> on <table> where <predicate>");
    }
    const size_t where = line.find(" where ");
    RETURN_IF_ERROR(
        sys_.CreateSnapshot(tok[2], tok[4], line.substr(where + 7))
            .status());
    std::printf("snapshot %s created over %s\n", tok[2].c_str(),
                tok[4].c_str());
    return Status::OK();
  }

  Status Insert(const std::vector<std::string>& tok) {
    if (tok.size() < 2) return Status::InvalidArgument("usage: insert <table> <values...>");
    ASSIGN_OR_RETURN(BaseTable * table, sys_.GetBaseTable(tok[1]));
    ASSIGN_OR_RETURN(Tuple row, ParseRow(table->user_schema(), tok, 2));
    const auto guard = ServeGuard();
    ASSIGN_OR_RETURN(Address addr, table->Insert(row));
    std::printf("inserted at %s\n", addr.ToString().c_str());
    return Status::OK();
  }

  Status Update(const std::vector<std::string>& tok) {
    if (tok.size() < 3) {
      return Status::InvalidArgument("usage: update <table> <addr> <values...>");
    }
    ASSIGN_OR_RETURN(BaseTable * table, sys_.GetBaseTable(tok[1]));
    ASSIGN_OR_RETURN(Address addr, ParseAddr(tok[2]));
    ASSIGN_OR_RETURN(Tuple row, ParseRow(table->user_schema(), tok, 3));
    const auto guard = ServeGuard();
    RETURN_IF_ERROR(table->Update(addr, row));
    std::printf("updated %s\n", addr.ToString().c_str());
    return Status::OK();
  }

  Status Delete(const std::vector<std::string>& tok) {
    if (tok.size() != 3) {
      return Status::InvalidArgument("usage: delete <table> <addr>");
    }
    ASSIGN_OR_RETURN(BaseTable * table, sys_.GetBaseTable(tok[1]));
    ASSIGN_OR_RETURN(Address addr, ParseAddr(tok[2]));
    const auto guard = ServeGuard();
    RETURN_IF_ERROR(table->Delete(addr));
    std::printf("deleted %s\n", addr.ToString().c_str());
    return Status::OK();
  }

  Status Refresh(const std::vector<std::string>& tok) {
    if (tok.size() != 2 && tok.size() != 3) {
      return Status::InvalidArgument(
          "usage: refresh <snapshot> [max_retries]");
    }
    // Snapshots attached with \connect refresh over the wire; the rest of
    // the refresh path is unchanged.
    if (auto it = remotes_.find(tok[1]); it != remotes_.end()) {
      ASSIGN_OR_RETURN(RemoteRefreshReport report, it->second->Refresh());
      std::printf("refreshed %s over %s: %s\n", tok[1].c_str(),
                  it->second->snapshot_name().c_str(),
                  report.stats.ToString().c_str());
      std::printf(
          "  session %llu: %llu applied, %llu reconnects, %llu resumes, "
          "%llu duplicates dropped\n",
          static_cast<unsigned long long>(report.session_id),
          static_cast<unsigned long long>(report.messages_applied),
          static_cast<unsigned long long>(report.reconnects),
          static_cast<unsigned long long>(report.resumes),
          static_cast<unsigned long long>(report.duplicates_dropped));
      return Status::OK();
    }
    RefreshRequest req;
    req.snapshot = tok[1];
    if (tok.size() == 3) {
      ASSIGN_OR_RETURN(int64_t retries, ParseInt(tok[2]));
      if (retries < 0) {
        return Status::InvalidArgument("max_retries must be >= 0");
      }
      req.retry.max_retries = static_cast<uint64_t>(retries);
    }
    const auto guard = ServeGuard();
    ASSIGN_OR_RETURN(RefreshReport report, sys_.Refresh(req));
    std::printf("refreshed %s: %s\n", tok[1].c_str(),
                report.stats.ToString().c_str());
    if (report.attempts > 1) {
      std::printf(
          "  session %llu: %llu attempts, %llu resumed, %llu messages "
          "suppressed, %llu backoff ticks\n",
          static_cast<unsigned long long>(report.session_id),
          static_cast<unsigned long long>(report.attempts),
          static_cast<unsigned long long>(report.resumes),
          static_cast<unsigned long long>(report.suppressed_messages),
          static_cast<unsigned long long>(report.backoff_ticks));
    }
    return Status::OK();
  }

  Status Show(const std::vector<std::string>& tok) {
    if (tok.size() != 2) return Status::InvalidArgument("usage: show <snapshot|table>");
    if (auto it = remotes_.find(tok[1]); it != remotes_.end()) {
      SnapshotTable* replica = it->second->table();
      ASSIGN_OR_RETURN(auto contents, replica->Contents());
      std::printf("%s (remote replica, SnapTime %lld, %zu rows)\n",
                  tok[1].c_str(),
                  static_cast<long long>(replica->snap_time()),
                  contents.size());
      for (const auto& [addr, row] : contents) {
        std::printf("  %-10s %s\n", addr.ToString().c_str(),
                    row.ToString(replica->value_schema()).c_str());
      }
      return Status::OK();
    }
    auto snap = sys_.GetSnapshot(tok[1]);
    if (snap.ok()) {
      ASSIGN_OR_RETURN(auto contents, (*snap)->Contents());
      std::printf("%s (SnapTime %lld, %zu rows)\n", tok[1].c_str(),
                  static_cast<long long>((*snap)->snap_time()),
                  contents.size());
      for (const auto& [addr, row] : contents) {
        std::printf("  %-10s %s\n", addr.ToString().c_str(),
                    row.ToString((*snap)->value_schema()).c_str());
      }
      return Status::OK();
    }
    ASSIGN_OR_RETURN(BaseTable * table, sys_.GetBaseTable(tok[1]));
    std::printf("%s (%llu rows)\n", tok[1].c_str(),
                static_cast<unsigned long long>(table->live_rows()));
    return table->ScanAnnotated(
        [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
          ASSIGN_OR_RETURN(Tuple user, row.user.Materialize());
          std::printf("  %-10s %s\n", addr.ToString().c_str(),
                      user.ToString(table->user_schema()).c_str());
          return Status::OK();
        });
  }

  Status Stats() {
    const ChannelStats& s = sys_.data_channel()->stats();
    std::printf(
        "channel: %llu msgs (%llu entry / %llu delete / %llu control), "
        "%llu frames, %llu wire bytes\n",
        static_cast<unsigned long long>(s.messages),
        static_cast<unsigned long long>(s.entry_messages),
        static_cast<unsigned long long>(s.delete_messages),
        static_cast<unsigned long long>(s.control_messages),
        static_cast<unsigned long long>(s.frames),
        static_cast<unsigned long long>(s.wire_bytes));
    return Status::OK();
  }

  Status Metrics(const std::vector<std::string>& tok) {
    // \metrics [json] — dump the process-wide registry.
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    const bool json = tok.size() > 1 && tok[1] == "json";
    std::fputs((json ? reg.ExportJson() : reg.ExportPrometheus()).c_str(),
               stdout);
    if (!json) {
      // Quantile summaries ride along as comments so the Prometheus text
      // above stays format-clean for scrapers.
      const obs::MetricsSnapshot snap = reg.Snapshot();
      for (const auto& [name, h] : snap.histograms) {
        if (h.count == 0) continue;
        std::printf("# quantiles %s: p50=%.1f p95=%.1f p99=%.1f (n=%llu)\n",
                    name.c_str(), h.Quantile(0.50), h.Quantile(0.95),
                    h.Quantile(0.99),
                    static_cast<unsigned long long>(h.count));
      }
    }
    return Status::OK();
  }

  Status CacheStats() {
    // \cachestats — dump the epoch delta cache's counters and resident
    // class images. Only live when the shell started with --delta-cache.
    DeltaCache* cache = sys_.delta_cache();
    if (cache == nullptr) {
      std::printf(
          "delta cache disabled (start with --delta-cache "
          "[--delta-cache-bytes=N])\n");
      return Status::OK();
    }
    std::fputs(cache->DebugString().c_str(), stdout);
    return Status::OK();
  }

  Status FlightRec(const std::vector<std::string>& tok) {
    // \flightrec <file> — drain the flight recorder into a Chrome trace.
    if (tok.size() != 2) {
      return Status::InvalidArgument("usage: \\flightrec <file>");
    }
#ifdef SNAPDIFF_FLIGHT_RECORDER_ENABLED
    obs::FlightRecorder& rec = obs::FlightRecorder::Global();
    RETURN_IF_ERROR(rec.WriteChromeTrace(tok[1]));
    uint64_t events = 0;
    uint64_t dropped = 0;
    for (const auto& track : rec.Drain()) {
      events += track.events.size();
      dropped += track.dropped_events;
    }
    std::printf(
        "flight recorder: %llu events (%llu dropped) -> %s "
        "(open in Perfetto or chrome://tracing)\n",
        static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(dropped), tok[1].c_str());
    return Status::OK();
#else
    return Status::NotSupported(
        "flight recorder compiled out (SNAPDIFF_FLIGHT_RECORDER=OFF)");
#endif
  }

  Status Trace() {
    const obs::Tracer& tracer = sys_.tracer();
    if (tracer.spans().empty()) {
      std::printf("no refresh traced yet\n");
      return Status::OK();
    }
    std::fputs(tracer.Report().c_str(), stdout);
    return Status::OK();
  }

  Status Checkpoint() {
    const auto guard = ServeGuard();
    RETURN_IF_ERROR(sys_.CheckpointBaseSite());
    if (LogManager* wal = sys_.wal()) {
      std::printf("checkpointed; WAL retains %zu records (%zu bytes)\n",
                  wal->retained_records(), wal->retained_bytes());
    } else {
      std::printf("checkpointed\n");
    }
    return Status::OK();
  }

  Status RecoveryInfo() {
    // Recovery runs automatically when a --data= file is reopened; this
    // reports what that run did.
    const auto& recovery = sys_.last_recovery();
    if (!recovery.has_value()) {
      std::printf("no restart recovery ran (fresh or memory-backed site)\n");
      return Status::OK();
    }
    std::printf(
        "restart recovery: %llu records scanned, %llu replayed, %llu "
        "skipped, %llu page images, %llu winners, %llu losers rolled back\n",
        static_cast<unsigned long long>(recovery->records_scanned),
        static_cast<unsigned long long>(recovery->records_replayed),
        static_cast<unsigned long long>(recovery->records_skipped),
        static_cast<unsigned long long>(recovery->page_images_applied),
        static_cast<unsigned long long>(recovery->winner_txns),
        static_cast<unsigned long long>(recovery->losers_rolled_back));
    if (recovery->found_checkpoint) {
      std::printf(
          "  checkpoint at lsn %llu: oracle_next %lld, redo from lsn %llu, "
          "%zu snapshot(s)\n",
          static_cast<unsigned long long>(recovery->checkpoint_lsn),
          static_cast<long long>(recovery->checkpoint.oracle_next),
          static_cast<unsigned long long>(
              recovery->checkpoint.redo_start_lsn),
          recovery->checkpoint.snapshots.size());
    }
    return Status::OK();
  }

  Status SetLogLevel(const std::vector<std::string>& tok) {
    if (tok.size() != 2) {
      return Status::InvalidArgument(
          "usage: \\loglevel trace|debug|info|warn|error|off");
    }
    ASSIGN_OR_RETURN(obs::LogLevel level, obs::ParseLogLevel(tok[1]));
    obs::Logger::Global().SetLevel(level);
    std::printf("log level set to %s\n",
                std::string(obs::LogLevelName(level)).c_str());
    return Status::OK();
  }

  Status Serve(const std::vector<std::string>& tok) {
    // \serve <addr> — stand up a refresh server over this shell's system.
    // \serve stop — shut it down.
    if (tok.size() != 2) {
      return Status::InvalidArgument(
          "usage: \\serve <host:port|unix:/path>  (or \\serve stop)");
    }
    if (tok[1] == "stop") {
      if (server_ == nullptr) return Status::InvalidArgument("not serving");
      const ServerStats stats = server_->stats();
      server_->Stop();
      server_.reset();
      std::printf(
          "server stopped: %llu connections, %llu sessions served, "
          "%llu resumes\n",
          static_cast<unsigned long long>(stats.connections_accepted),
          static_cast<unsigned long long>(stats.sessions_served),
          static_cast<unsigned long long>(stats.resumes));
      return Status::OK();
    }
    if (server_ != nullptr) {
      return Status::InvalidArgument("already serving at " +
                                     server_->bound_addr());
    }
    ServerOptions options;
    options.listen_addr = tok[1];
    auto server = std::make_unique<RefreshServer>(&sys_, options);
    RETURN_IF_ERROR(server->Start());
    server_ = std::move(server);
    std::printf("serving at %s\n", server_->bound_addr().c_str());
    return Status::OK();
  }

  Status ConnectRemote(const std::vector<std::string>& tok) {
    // \connect <addr> <snapshot> — attach a local replica of a snapshot
    // served by a remote shell; refresh/show then accept its name.
    if (tok.size() != 3) {
      return Status::InvalidArgument("usage: \\connect <addr> <snapshot>");
    }
    if (remotes_.count(tok[2]) != 0 || sys_.GetSnapshot(tok[2]).ok()) {
      return Status::InvalidArgument("name already in use: " + tok[2]);
    }
    ASSIGN_OR_RETURN(auto site, RemoteSnapshotSite::Connect(tok[1], tok[2]));
    std::printf("attached %s from %s (snapshot id %llu)\n", tok[2].c_str(),
                tok[1].c_str(),
                static_cast<unsigned long long>(site->snapshot_id()));
    remotes_.emplace(tok[2], std::move(site));
    return Status::OK();
  }

  SnapshotSystem sys_;
  std::unique_ptr<RefreshServer> server_;
  /// Remote replicas attached with \connect, by local snapshot name.
  std::map<std::string, std::unique_ptr<RemoteSnapshotSite>> remotes_;
};

}  // namespace

int main(int argc, char** argv) {
  snapdiff::SnapshotSystemOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--refresh-workers=", 0) == 0) {
      options.refresh_workers = std::strtoull(arg.c_str() + 18, nullptr, 10);
    } else if (arg.rfind("--refresh-batch=", 0) == 0) {
      options.refresh_batch_size = std::strtoull(arg.c_str() + 16, nullptr, 10);
    } else if (arg.rfind("--data=", 0) == 0) {
      options.base_data_path = arg.substr(7);
    } else if (arg == "--delta-cache") {
      options.delta_cache_enabled = true;
    } else if (arg.rfind("--delta-cache-bytes=", 0) == 0) {
      options.delta_cache_enabled = true;
      options.delta_cache_bytes = std::strtoull(arg.c_str() + 20, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--refresh-workers=N] [--refresh-batch=N] "
                   "[--data=FILE] [--delta-cache] [--delta-cache-bytes=N]\n",
                   argv[0]);
      return 1;
    }
  }
  std::printf("snapdiff shell — 'quit' to exit\n");
  Shell shell(options);
  std::string line;
  while (true) {
    std::printf("> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!shell.Execute(line)) break;
  }
  return 0;
}
