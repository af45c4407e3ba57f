#ifndef SNAPDIFF_SNAPSHOT_SNAPSHOT_MANAGER_H_
#define SNAPDIFF_SNAPSHOT_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "net/channel.h"
#include "net/encoding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snapshot/asap.h"
#include "snapshot/base_table.h"
#include "snapshot/delta_cache.h"
#include "snapshot/differential_refresh.h"
#include "snapshot/join_refresh.h"
#include "snapshot/refresh_types.h"
#include "snapshot/session_applier.h"
#include "snapshot/snapshot_table.h"
#include "storage/disk_manager.h"
#include "txn/timestamp_oracle.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"
#include "wal/wal_file.h"

namespace snapdiff {

struct SnapshotSystemOptions {
  size_t base_pool_pages = 4096;
  size_t snap_pool_pages = 4096;
  ChannelOptions channel;
  /// Attach a recovery log to the base site (required by kLogBased).
  bool enable_wal = true;
  /// Non-empty: back the base site with this file instead of memory. If
  /// the file already holds a checkpointed site (see CheckpointBaseSite),
  /// its catalog, tables, and timestamp oracle are restored on
  /// construction; snapshots are *not* persisted (they live at the remote
  /// snapshot site) and are re-created by the application.
  std::string base_data_path;
  /// Scan partitions processed concurrently during full/differential
  /// refresh (see RefreshExecution::workers). 1 (or 0) keeps the paper's
  /// single-threaded pipeline; > 1 lazily spins up a shared ThreadPool of
  /// this size, owned by the system for its lifetime.
  size_t refresh_workers = 1;
  /// Entries coalesced per ENTRY_BATCH wire message during refresh
  /// transmission (see RefreshExecution::batch_size). <= 1 disables
  /// batching.
  size_t refresh_batch_size = 1;
  /// Enable the epoch delta cache (snapshot/delta_cache.h): a differential
  /// refresh whose class image is still current is served straight from
  /// memory — zero base-table reads — instead of rescanning; scans re-fill
  /// the image as a side effect. Off by default: the cache trades memory
  /// for scans and only pays off with several subscribers per base table.
  bool delta_cache_enabled = false;
  /// Byte budget for cached class images (0 = unbounded). Past the budget
  /// the least-recently-used class is evicted; evicted classes fall back
  /// to the rescan path (metered) and are re-filled by it.
  size_t delta_cache_bytes = 64ull << 20;
  /// Compact wire encoding on refresh streams (net/encoding.h): data
  /// messages travel delta-encoded against the shared row shadow, batches
  /// columnar. Off by default — the canonical, byte-identical stream is the
  /// reference mode and the only mode old peers speak.
  bool wire_encoding = false;
  /// LZ block compression on encoded frames (no effect unless
  /// wire_encoding is on).
  bool wire_compression = false;
};

/// Per-snapshot creation options.
struct SnapshotOptions {
  RefreshMethod method = RefreshMethod::kDifferential;
  /// Projected user columns; empty means all user columns of the source.
  std::vector<std::string> projection;
  /// kAsap only: buffer (true) or reject (false) changes while partitioned.
  bool asap_buffer_on_partition = true;
  /// kDifferential only: send payload-free anchor messages for unchanged
  /// qualified entries that are transmitted solely to cover a gap (the
  /// paper's invited message-traffic improvement).
  bool anchor_optimization = false;
  /// Which snapshot site hosts this snapshot (see AddSnapshotSite). The
  /// default site always exists.
  std::string site = "main";
};

/// The top-level facade: one *base site* and one *snapshot site* joined by
/// a metered channel — the distributed-database deployment the paper
/// targets, collapsed into a single process so every message is observable.
///
/// Usage:
///   SnapshotSystem sys;
///   BaseTable* emp = *sys.CreateBaseTable("emp", schema);
///   ... load emp ...
///   sys.CreateSnapshot("emp_low_paid", "emp", "Salary < 10", {});
///   RefreshStats st = sys.Refresh(RefreshRequest::For("emp_low_paid"))->stats;
///
/// Snapshots can be defined over base tables or over other snapshots
/// (their storage is itself an annotated table), each with its own
/// restriction, projection, method, and SnapTime.
class SnapshotSystem {
 public:
  explicit SnapshotSystem(SnapshotSystemOptions options = {});

  SnapshotSystem(const SnapshotSystem&) = delete;
  SnapshotSystem& operator=(const SnapshotSystem&) = delete;

  /// --- base site ---

  Result<BaseTable*> CreateBaseTable(
      const std::string& name, Schema user_schema,
      AnnotationMode mode = AnnotationMode::kLazy,
      PlacementPolicy policy = PlacementPolicy::kFirstFit);

  Result<BaseTable*> GetBaseTable(const std::string& name);

  /// Durably records the base site (catalog metadata + timestamp oracle +
  /// every dirty page). Only meaningful with a file-backed base site; a
  /// memory-backed site returns FailedPrecondition-style InvalidArgument.
  Status CheckpointBaseSite();

  /// --- snapshots ---

  /// Defines a snapshot of `source_name` (a base table or another
  /// snapshot). Parses and binds `restriction_text` immediately (the
  /// compile-at-CREATE analogue). Creating the first differential snapshot
  /// on an unannotated table adds the funny columns automatically, as in
  /// R*. The snapshot starts empty; the first Refresh populates it.
  Result<SnapshotTable*> CreateSnapshot(const std::string& snapshot_name,
                                        const std::string& source_name,
                                        const std::string& restriction_text,
                                        SnapshotOptions options = {});

  /// Defines a *general* snapshot over a two-table equi-join
  /// (`left.join_left_column = right.join_right_column`), restricted and
  /// projected over the combined row. General snapshots always refresh by
  /// full re-evaluation — "when the snapshot is derived from several
  /// tables, the snapshot query must, in general, be re-evaluated".
  /// `projection` empty means all combined columns.
  Result<SnapshotTable*> CreateJoinSnapshot(
      const std::string& snapshot_name, const std::string& left_table,
      const std::string& right_table, const std::string& join_left_column,
      const std::string& join_right_column,
      const std::string& restriction_text,
      std::vector<std::string> projection = {});

  Status DropSnapshot(const std::string& snapshot_name);

  Result<SnapshotTable*> GetSnapshot(const std::string& snapshot_name);

  /// Adds another snapshot site — "local snapshots at several sites can be
  /// periodically refreshed from remote base tables". Each site has its
  /// own storage, catalog, and (independently partitionable) channel from
  /// the base site. The site "main" exists from construction.
  Status AddSnapshotSite(const std::string& site_name);

  std::vector<std::string> SnapshotSiteNames() const;

  /// Brings the snapshot to the current base state. THE refresh entry
  /// point: honors per-call method/execution overrides, injects the
  /// requested fault on the site link for the duration of the call, and
  /// retries per `request.retry` — re-demanding the refresh with capped
  /// exponential backoff (simulated ticks, see Channel::AdvanceTime) and,
  /// when possible, resuming the interrupted session so only the unapplied
  /// suffix is retransmitted (RESUME_REFRESH negotiation on the demand
  /// link).
  ///
  /// The snapshot site is a client of the serve API below, exactly like a
  /// RemoteSnapshotSite: each attempt is a demand, one ServeRefresh into
  /// the site's link, the site's SessionApplier, and AcknowledgeServe once
  /// the END applied.
  Result<RefreshReport> Refresh(const RefreshRequest& request);

  /// --- serving remote snapshot sites (see net/refresh_server.h) ---
  ///
  /// The serve API is the base-site half of a refresh demanded over a real
  /// transport instead of the in-process site link: one transmission
  /// attempt streamed into an arbitrary MessageSink (a SocketTransport, a
  /// recording sink, a plain Channel), with the apply half living at the
  /// remote client. Serve calls no longer serialize on one global mutex:
  /// refresh execution admits *per base table* (two refreshes of different
  /// tables stream concurrently; two of the same table queue, since they
  /// would race on fix-up writes and delta-cache fills). Writers never wait
  /// at all — each refresh reads a copy-on-write scan epoch
  /// (BaseTable::OpenEpoch) instead of locking the table. serve_mutex()
  /// still guards the session and snapshot registries themselves.

  /// What a remote client needs to attach to a snapshot.
  struct SnapshotWireInfo {
    SnapshotId id = 0;
    Schema value_schema;
    RefreshMethod method = RefreshMethod::kDifferential;
  };
  Result<SnapshotWireInfo> DescribeSnapshot(const std::string& name);

  /// Schema resolver for wire codecs: the projected value schema of a
  /// snapshot by wire id, nullptr when unknown. Snapshot definition
  /// precedes serving (same registry discipline as the serve path), so
  /// server connections may call this concurrently with serves.
  const Schema* ResolveValueSchema(SnapshotId id) const;

  /// Aggregated wire-codec encoder counters across all snapshot sites
  /// (all-zero when wire_encoding is off). memo_hits counts encoded-body
  /// reuse on the shared encode-once-serve-many memo.
  WireCodecStats WireEncoderStats() const;

  struct ServeRequest {
    /// The serve a REFRESH_REQUEST / RESUME_REFRESH demand asks for, to
    /// stream through `encoder` (null: canonical wire).
    static ServeRequest FromDemand(const Message& demand,
                                   WireEncoder* encoder);

    SnapshotId snapshot_id = 0;
    /// The client's SnapTime (kNullTimestamp before its first refresh).
    Timestamp client_snap_time = kNullTimestamp;
    /// Non-zero: RESUME of an interrupted serve session. If the session is
    /// no longer live (superseded or abandoned) the serve silently falls
    /// back to a fresh session — the client adopts the new session id from
    /// the arriving stream.
    uint64_t resume_session_id = 0;
    /// The client's durably applied prefix; messages with
    /// seq <= resume_after_seq are suppressed (resume path only).
    uint64_t resume_after_seq = 0;
    /// Server-side execution overrides (default: system options).
    std::optional<size_t> workers;
    std::optional<size_t> batch_size;
    /// Compact-wire serve (negotiated socket connections): the
    /// per-connection encoder the stream must pass through, and the
    /// client's committed codec generation carried by the demand message.
    /// Null encoder = canonical wire.
    WireEncoder* encoder = nullptr;
    uint64_t client_codec_gen = 0;
  };
  struct ServeOutcome {
    uint64_t session_id = 0;   // 0 for sessionless (join) serves
    uint64_t last_seq = 0;     // sequence number of the final message
    uint64_t suppressed = 0;   // prefix messages elided on a resume
    bool resumed = false;
    RefreshStats stats;
  };

  /// One transmission attempt into `wire`. On success the session stays
  /// live — its staged outcome uncommitted, its scan epoch pinned — until
  /// AcknowledgeServe (the client's SESSION_ACK) commits and releases, or a
  /// later serve supersedes it. On Unavailable (the transport died
  /// mid-stream) the session likewise stays live so the client can RESUME
  /// against the same frozen epoch cut — that is what makes
  /// suppress-by-sequence sound over a real network, and the epoch (not a
  /// table lock) is what keeps the re-run byte-identical while writers
  /// keep mutating the live table.
  Result<ServeOutcome> ServeRefresh(const ServeRequest& request,
                                    MessageSink* wire);

  /// Commits the staged outcome of a served session (ideal shadow, log
  /// position) and releases its scan epoch. NotFound if
  /// the session is no longer live (already superseded); that is harmless
  /// — the superseding serve restaged from the uncommitted state.
  Status AcknowledgeServe(SnapshotId snapshot_id, uint64_t session_id);

  /// Guards the session and snapshot registries on the serve path. Exposed
  /// so an embedding process (the shell's \serve) can mutate the system
  /// safely while a server thread pool is serving from it. Local calls
  /// (Refresh, base-table writes) do NOT take this mutex themselves —
  /// single-threaded embedders pay nothing; concurrent embedders hold it
  /// around local catalog/snapshot mutations. Refresh *execution* is no
  /// longer under this mutex; it serializes per base table (see the serve
  /// API comment above).
  std::mutex& serve_mutex() { return serve_mu_; }

  /// High-water mark of concurrently executing refreshes (local + served)
  /// since construction — the observable proof that per-table admission
  /// actually overlaps refreshes of different tables. Also mirrored to the
  /// "snapshot.refreshes_concurrent" gauge.
  uint64_t refreshes_concurrent_high_water() const {
    return admission_high_water_.load(std::memory_order_acquire);
  }

  /// Refreshes several distinct *differential* snapshots of one base table
  /// at one site in one combined scan, amortizing the sequential read and
  /// the fix-up writes over the group: Refresh's client loop with N members
  /// and one attempt, each member streaming its own serve session from one
  /// scan epoch. Returns per-snapshot meters; message counts are attributed
  /// per snapshot on the receive side (frame accounting is whole-burst and
  /// reported under every member).
  Result<std::map<std::string, RefreshStats>> RefreshGroup(
      const std::vector<std::string>& snapshot_names);

  /// Delivers any pending channel messages (ASAP streams) to their
  /// snapshots.
  Status DrainChannel();

  /// Simulates a network partition between the base site and the default
  /// snapshot site.
  void SetPartitioned(bool partitioned);

  /// Partitions/heals the link to one named snapshot site.
  Status SetSitePartitioned(const std::string& site_name, bool partitioned);

  /// Re-sends changes an ASAP snapshot buffered during a partition.
  Status FlushAsapBuffers();

  /// Recomputes what the snapshot *should* contain from the current base
  /// state: restrict ∘ project, keyed by base address. (Verification.)
  Result<std::map<Address, Tuple>> ExpectedContents(
      const std::string& snapshot_name);

  /// ASAP meters for a kAsap snapshot.
  Result<const AsapPropagator::Stats*> AsapStats(
      const std::string& snapshot_name);

  /// The default site's base → snapshot channel (meters, injection).
  Channel* data_channel();
  /// Trace of the most recent Refresh or RefreshGroup ("refresh-group"):
  /// one phase timeline with wall-clock and the counters each moved.
  const obs::Tracer& tracer() const { return tracer_; }
  /// A named site's channel.
  Result<Channel*> site_channel(const std::string& site_name);
  Channel* request_channel() { return &request_channel_; }
  /// The epoch delta cache (null unless delta_cache_enabled).
  DeltaCache* delta_cache() { return delta_cache_.get(); }
  LogManager* wal() { return wal_.get(); }
  TimestampOracle* base_oracle() { return &base_oracle_; }
  Catalog* base_catalog() { return &base_catalog_; }

  /// --- durability & crash simulation (file-backed base sites) ---

  /// The durable WAL behind the base site (null when memory-backed or
  /// enable_wal is false).
  WalFile* wal_file() { return wal_file_.get(); }
  DiskManager* base_disk() { return base_disk_.get(); }
  /// Installs a crash-injection plan on the base site's data file (torn
  /// page writes, dropped fsyncs, kill-after-N-writes). InvalidArgument
  /// when the base site is memory-backed.
  Status ArmBaseDiskFault(DiskFaultPlan plan);
  /// True once any injected fault has fired; every further base-site I/O
  /// fails and the process under test should be torn down and reopened.
  bool crashed() const;
  /// Stats of the restart recovery that built this system (set only when a
  /// file-backed site was reopened with the WAL enabled).
  const std::optional<RecoveryStats>& last_recovery() const {
    return last_recovery_;
  }
  /// The newest durable checkpoint's payload, when the reopen found one.
  /// CreateSnapshot consults it to restore per-snapshot refresh positions
  /// (snapshots are re-created by the application in creation order).
  const std::optional<CheckpointPayload>& restored_checkpoint() const {
    return restored_checkpoint_;
  }

  std::vector<std::string> SnapshotNames() const;

 private:
  /// One remote snapshot site: its own storage, catalog, clock, and link.
  struct SnapshotSite {
    SnapshotSite(size_t pool_pages, const ChannelOptions& channel_options)
        : pool(&disk, pool_pages),
          catalog(&pool),
          channel(channel_options) {}

    MemoryDiskManager disk;
    BufferPool pool;
    Catalog catalog;
    TimestampOracle oracle;
    Channel channel;  // base → this site
    /// Compact-wire codec pair for this site's in-process link (created
    /// when wire_encoding is on): the encoder feeds the base side's
    /// RefreshSessions, the decoder restores canonical messages at the
    /// admission point.
    std::unique_ptr<WireEncoder> encoder;
    std::unique_ptr<WireDecoder> decoder;
    /// Admits everything arriving on `channel`, decoding through `decoder`.
    SessionApplier applier;
  };

  struct SnapshotEntry {
    SnapshotDescriptor descriptor;
    std::unique_ptr<SnapshotTable> table;
    BaseTable* source = nullptr;
    std::unique_ptr<AsapPropagator> asap;
    /// Non-null for general (join) snapshots; overrides `method`.
    std::unique_ptr<JoinDescriptor> join;
    SnapshotSite* site = nullptr;
  };

  Result<SnapshotEntry*> GetEntry(const std::string& name);
  Result<BaseTable*> ResolveSource(const std::string& name);
  Result<SnapshotSite*> GetSite(const std::string& name);

  /// Receives every pending message of one site's link into its applier.
  /// Messages applied for an `attributed` snapshot are metered into its
  /// stats as they travelled (encoded, when the wire codec is on);
  /// messages of dropped snapshots are discarded.
  Status DeliverPending(SnapshotSite* site,
                        const std::map<SnapshotId, RefreshStats*>& attributed);

  /// The in-process client loop behind Refresh (one member) and
  /// RefreshGroup (N members of one table and site): demand, serve, apply,
  /// retry a lone member per `request.retry`, acknowledge. One report per
  /// member.
  Result<std::vector<RefreshReport>> RunRefresh(
      const std::vector<SnapshotEntry*>& members,
      const RefreshRequest& request, const std::string& trace_name);

  /// ServeRefresh over N demands for the in-process client: the table
  /// admits once and fresh sessions share one scan epoch. `local` carries
  /// the call's method override and epoch hook, and only the local client
  /// may re-stamp an ASAP snapshot. Fills `outcomes` on failure too (their
  /// session ids name what to resume); stats and `suppressed` accumulate.
  Status ServeRefresh(const std::vector<ServeRequest>& requests,
                      MessageSink* wire, const RefreshRequest* local,
                      obs::Tracer* tracer,
                      std::vector<ServeOutcome>* outcomes);

  /// One transmission attempt of `method` for the non-join `entry` — or a
  /// differential group of its table — each member stamped by its session
  /// (GroupRefreshMember::sink) into `wire`. Per-method state advances are
  /// staged on the descriptor, not committed. `exec.epoch` is the cut the
  /// executors scan; the same epoch across attempts is what makes retries
  /// re-transmit the byte-identical stream while writers mutate.
  Status RunRefreshAttempt(SnapshotEntry* entry, RefreshMethod method,
                           std::vector<GroupRefreshMember>* members,
                           MessageSink* wire, obs::Tracer* tracer,
                           const RefreshExecution& exec);

  /// Restores base tables recorded in a checkpointed data file, then
  /// replays the WAL tail (redo + loser undo) on top of them.
  Status RestoreBaseSite();

  /// Durably saves the catalog metadata on a file-backed site (no-op for
  /// memory-backed ones). Called on every catalog mutation — table creation
  /// and annotation-column addition — so restart recovery can resolve every
  /// table id the WAL mentions.
  Status PersistCatalogIfDurable();

  /// Execution knobs for the refresh executors, derived from options_ with
  /// per-request overrides applied. First call resolving workers > 1
  /// constructs the shared pool.
  RefreshExecution MakeRefreshExecution(std::optional<size_t> workers,
                                        std::optional<size_t> batch_size);

  SnapshotSystemOptions options_;

  // Base site. `base_disk_` may be memory- or file-backed.
  std::unique_ptr<DiskManager> base_disk_;
  BufferPool base_pool_;
  Catalog base_catalog_;
  TimestampOracle base_oracle_;
  std::unique_ptr<LogManager> wal_;
  std::unordered_map<std::string, std::unique_ptr<BaseTable>> base_tables_;

  // Durability plumbing (file-backed base sites only).
  std::unique_ptr<WalFile> wal_file_;          // durable sink behind wal_
  std::shared_ptr<CrashSwitch> crash_switch_;  // shared data-file/WAL kill
  std::optional<RecoveryStats> last_recovery_;
  std::optional<CheckpointPayload> restored_checkpoint_;

  // Shared refresh worker pool; constructed on first parallel refresh.
  std::unique_ptr<ThreadPool> refresh_pool_;

  // Epoch delta cache (enabled by options). One per system: class images
  // are keyed by base-table id, so every site's refreshes share it.
  std::unique_ptr<DeltaCache> delta_cache_;
  /// Encode-once-serve-many memo shared by every site's encoder, so a
  /// group refresh fanning one scan to N same-class subscribers encodes
  /// each message once (wire_encoding only).
  std::shared_ptr<WireEncodeMemo> wire_memo_;

  // Snapshot sites (at least "main"); node-based map keeps sites stable.
  std::map<std::string, std::unique_ptr<SnapshotSite>> sites_;

  // Demand link (snapshot → base), shared by all sites.
  Channel request_channel_;

  // Per-refresh phase timeline; rewritten by every Refresh/RefreshGroup.
  obs::Tracer tracer_;
  obs::Counter* metric_refreshes_;
  obs::Counter* metric_refresh_retries_;
  obs::Counter* metric_refresh_resumes_;
  obs::Histogram* metric_refresh_duration_;
  obs::Gauge* metric_snapshot_count_;

  std::map<std::string, SnapshotEntry> snapshots_;
  std::unordered_map<SnapshotId, SnapshotEntry*> snapshots_by_id_;
  SnapshotId next_snapshot_id_ = 1;
  // Wire-level session ids. Atomic: with per-table admission, serve
  // threads for different tables mint them concurrently.
  std::atomic<uint64_t> next_session_id_{1};

  /// One live served refresh session: the scan epoch keeping the cut
  /// frozen between the stream and the client's ack (or resume), and the
  /// request parameters a byte-identical re-run needs. Writers mutate the
  /// live table freely the whole time; the epoch alone pins the pages a
  /// RESUME re-reads.
  struct ServeSession {
    uint64_t session_id = 0;
    RefreshMethod method = RefreshMethod::kDifferential;
    Timestamp request_time = kNullTimestamp;
    std::shared_ptr<TableEpoch> epoch;
  };
  /// Releases the snapshot's live session — only if it is `session_id`,
  /// when non-zero — with its epoch, and discards its staged outcome.
  /// Caller holds serve_mu_.
  void EvictServeSession(SnapshotId snapshot_id, uint64_t session_id = 0);

  /// --- per-table refresh admission ---
  ///
  /// At most one refresh executes against any one base table at a time:
  /// scan epochs make *writers* concurrent with a refresh, but two
  /// refreshes of the same table would race on fix-up writes, staged
  /// descriptor outcomes, and delta-cache fills. Blocks until the table is
  /// free; different tables admit independently. Lock order: admission
  /// BEFORE serve_mu_ is never taken (admission is only acquired while
  /// serve_mu_ is NOT held), so the short serve_mu_ critical sections can
  /// never deadlock against a queued admission.
  class AdmissionGuard {
   public:
    AdmissionGuard(SnapshotSystem* sys, std::vector<TableId> tables)
        : sys_(sys), tables_(std::move(tables)) {}
    AdmissionGuard(const AdmissionGuard&) = delete;
    AdmissionGuard& operator=(const AdmissionGuard&) = delete;
    ~AdmissionGuard() { sys_->ReleaseAdmission(tables_); }

   private:
    SnapshotSystem* sys_;
    std::vector<TableId> tables_;
  };
  /// Admits a refresh over `tables` (sorted + deduped internally so
  /// multi-table joins admit in a deadlock-free global order), updating the
  /// concurrency high-water mark.
  AdmissionGuard AdmitRefresh(std::vector<TableId> tables);
  void ReleaseAdmission(const std::vector<TableId>& tables);

  std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  std::set<TableId> admitted_tables_;
  uint64_t admitted_refreshes_ = 0;  // guarded by admission_mu_
  std::atomic<uint64_t> admission_high_water_{0};
  obs::Gauge* metric_refreshes_concurrent_;

  std::mutex serve_mu_;
  /// At most one live session per snapshot: a fresh serve supersedes.
  std::map<SnapshotId, ServeSession> serve_sessions_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_SNAPSHOT_MANAGER_H_
