#include "snapshot/snapshot_manager.h"

#include <algorithm>

#include "catalog/catalog_persistence.h"
#include "common/cleanup.h"
#include "common/logging.h"
#include "obs/log.h"
#include "expr/parser.h"
#include "snapshot/differential_refresh.h"
#include "snapshot/full_refresh.h"
#include "snapshot/ideal_refresh.h"
#include "snapshot/log_refresh.h"

namespace snapdiff {

namespace {

// Reserved pages of a file-backed base site. The catalog superblock is
// dual-slot: saves ping-pong between the two pages so a torn write never
// damages the live generation.
constexpr PageId kOraclePage = 0;
constexpr PageId kCatalogSuperblock = 1;
constexpr PageId kCatalogSuperblockAlt = 2;

std::unique_ptr<DiskManager> MakeBaseDisk(
    const SnapshotSystemOptions& options) {
  if (options.base_data_path.empty()) {
    return std::make_unique<MemoryDiskManager>();
  }
  auto disk = FileDiskManager::Open(options.base_data_path);
  SNAPDIFF_CHECK(disk.ok()) << "cannot open base data file "
                            << options.base_data_path << ": "
                            << disk.status().ToString();
  return std::move(*disk);
}

/// The base site's demand link and the per-site data links get distinct
/// metric prefixes so a data link's counters reconcile exactly with
/// RefreshStats::traffic (request traffic would otherwise pollute them).
ChannelOptions WithMetricsPrefix(ChannelOptions options, const char* prefix) {
  options.metrics_prefix = prefix;
  return options;
}

/// Every projected column must exist in `schema`, and none twice.
Status CheckProjection(const Schema& schema,
                       const std::vector<std::string>& projection) {
  std::set<std::string> seen;
  for (const std::string& col : projection) {
    RETURN_IF_ERROR(schema.IndexOf(col).status());
    if (!seen.insert(col).second) {
      return Status::InvalidArgument("duplicate projected column: " + col);
    }
  }
  return Status::OK();
}

}  // namespace

SnapshotSystem::SnapshotSystem(SnapshotSystemOptions options)
    : options_(options),
      base_disk_(MakeBaseDisk(options)),
      base_pool_(base_disk_.get(), options.base_pool_pages),
      base_catalog_(&base_pool_),
      request_channel_(
          WithMetricsPrefix(options.channel, "net.channel.request")) {
  if (options_.wire_encoding) wire_memo_ = std::make_shared<WireEncodeMemo>();
  SNAPDIFF_CHECK(AddSnapshotSite("main").ok());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metric_refreshes_ = reg.GetCounter("snapshot.refresh.count");
  metric_refresh_retries_ = reg.GetCounter("snapshot.refresh.retries");
  metric_refresh_resumes_ = reg.GetCounter("snapshot.refresh.resumes");
  metric_refresh_duration_ = reg.GetHistogram(
      "snapshot.refresh.duration_us", obs::DefaultLatencyBucketsUs());
  metric_snapshot_count_ = reg.GetGauge("snapshot.count");
  metric_refreshes_concurrent_ = reg.GetGauge("snapshot.refreshes_concurrent");
  if (options_.delta_cache_enabled) {
    delta_cache_ = std::make_unique<DeltaCache>(options_.delta_cache_bytes);
  }
  if (options_.enable_wal) wal_ = std::make_unique<LogManager>();
  if (!options_.base_data_path.empty()) {
    crash_switch_ = std::make_shared<CrashSwitch>();
    if (auto* file_disk = dynamic_cast<FileDiskManager*>(base_disk_.get())) {
      // An empty plan binds the crash switch without arming any fault.
      file_disk->Arm(DiskFaultPlan{}, crash_switch_);
    }
    if (wal_ != nullptr) {
      auto wal_file = WalFile::Open(options_.base_data_path + ".wal");
      SNAPDIFF_CHECK(wal_file.ok())
          << "cannot open WAL " << options_.base_data_path
          << ".wal: " << wal_file.status().ToString();
      wal_file_ = std::move(*wal_file);
      wal_file_->BindCrashSwitch(crash_switch_);
    }
    if (base_disk_->page_count() == 0) {
      // Fresh file: reserve the oracle page and both catalog superblock
      // slots.
      SNAPDIFF_CHECK(base_disk_->AllocatePage().ok());
      SNAPDIFF_CHECK(base_disk_->AllocatePage().ok());
      SNAPDIFF_CHECK(base_disk_->AllocatePage().ok());
      if (wal_ != nullptr) {
        // A fresh data file invalidates whatever WAL a previous incarnation
        // left at this path: discard its records and truncate the file so
        // LSNs restart at 1 alongside the empty site.
        wal_file_->TakeRecoveredRecords();
        SNAPDIFF_CHECK(wal_file_->Rewrite({}).ok());
        wal_->AttachSink(wal_file_.get());
      }
    } else {
      // RestoreBaseSite attaches the sink itself, after handing the WAL
      // file's recovered records to the log manager.
      Status restored = RestoreBaseSite();
      SNAPDIFF_CHECK(restored.ok())
          << "base data file failed restart recovery: " << restored.ToString();
    }
    if (wal_ != nullptr) {
      // WAL-before-data: capture a full image of every dirty page and make
      // it durable before the (possibly torn) write reaches the data file.
      // Installed after restore so recovery's own page traffic is not
      // re-logged.
      base_pool_.SetPreFlushHook([this](PageId page, const char* data) {
        wal_->LogPageImage(page, std::string(data, Page::kPageSize));
        return wal_->Sync();
      });
    }
  }
}

RefreshExecution SnapshotSystem::MakeRefreshExecution(
    std::optional<size_t> workers, std::optional<size_t> batch_size) {
  RefreshExecution exec;
  exec.workers = workers.value_or(options_.refresh_workers);
  if (exec.workers == 0) exec.workers = 1;
  exec.batch_size = batch_size.value_or(options_.refresh_batch_size);
  if (exec.batch_size == 0) exec.batch_size = 1;
  if (exec.workers > 1) {
    if (refresh_pool_ == nullptr) {
      refresh_pool_ = std::make_unique<ThreadPool>(exec.workers);
    }
    exec.pool = refresh_pool_.get();
  }
  exec.delta_cache = delta_cache_.get();
  return exec;
}

SnapshotSystem::AdmissionGuard SnapshotSystem::AdmitRefresh(
    std::vector<TableId> tables) {
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  std::unique_lock<std::mutex> lock(admission_mu_);
  // All-or-nothing admission over the sorted set: a joint wait cannot
  // deadlock against another admission because no waiter holds any table
  // while waiting.
  admission_cv_.wait(lock, [&] {
    for (TableId t : tables) {
      if (admitted_tables_.contains(t)) return false;
    }
    return true;
  });
  admitted_tables_.insert(tables.begin(), tables.end());
  ++admitted_refreshes_;
  uint64_t hw = admission_high_water_.load(std::memory_order_relaxed);
  while (admitted_refreshes_ > hw &&
         !admission_high_water_.compare_exchange_weak(
             hw, admitted_refreshes_, std::memory_order_acq_rel)) {
  }
  metric_refreshes_concurrent_->Set(
      static_cast<int64_t>(admitted_refreshes_));
  return AdmissionGuard(this, std::move(tables));
}

void SnapshotSystem::ReleaseAdmission(const std::vector<TableId>& tables) {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    for (TableId t : tables) admitted_tables_.erase(t);
    --admitted_refreshes_;
    metric_refreshes_concurrent_->Set(
        static_cast<int64_t>(admitted_refreshes_));
  }
  admission_cv_.notify_all();
}

Status SnapshotSystem::RestoreBaseSite() {
  const bool has_wal = wal_ != nullptr && wal_file_ != nullptr;
  Status loaded = LoadCatalog(&base_catalog_, base_disk_.get(),
                              kCatalogSuperblock, kCatalogSuperblockAlt);
  if (loaded.IsNotFound()) {
    // A logged site may crash before its first catalog save; the WAL tail
    // then mentions no tables and replays onto an empty site. Without a WAL
    // the file must hold a checkpointed catalog.
    if (!has_wal) return loaded;
  } else if (!loaded.ok()) {
    return loaded;
  }
  Result<TimestampOracle> recovered =
      TimestampOracle::Recover(base_disk_.get(), kOraclePage);
  if (recovered.ok()) {
    base_oracle_ = *recovered;
  } else if (!has_wal) {
    // Without a WAL the checkpointed oracle is the only timestamp source.
    return recovered.status();
  }
  for (const std::string& name : base_catalog_.TableNames()) {
    ASSIGN_OR_RETURN(TableInfo * info, base_catalog_.GetTable(name));
    const AnnotationMode mode = info->schema.HasAnnotations()
                                    ? AnnotationMode::kLazy
                                    : AnnotationMode::kNone;
    base_tables_[name] =
        std::make_unique<BaseTable>(info, mode, &base_oracle_, wal_.get());
  }
  if (has_wal) {
    RETURN_IF_ERROR(wal_->RestoreFrom(wal_file_->TakeRecoveredRecords()));
    // The sink must be live before recovery: it appends and syncs kAbort
    // records for the losers it rolls back.
    wal_->AttachSink(wal_file_.get());
    RecoveryManager recovery(wal_.get(), &base_catalog_);
    ASSIGN_OR_RETURN(RecoveryStats stats, recovery.Recover());
    base_oracle_.AdvanceTo(stats.max_timestamp + 1);
    for (auto& [name, table] : base_tables_) {
      table->set_next_txn(std::max(table->next_txn(), stats.max_txn + 1));
    }
    if (stats.found_checkpoint) restored_checkpoint_ = stats.checkpoint;
    last_recovery_ = std::move(stats);
  }
  return Status::OK();
}

Status SnapshotSystem::CheckpointBaseSite() {
  if (options_.base_data_path.empty()) {
    return Status::InvalidArgument(
        "base site is memory-backed; nothing durable to checkpoint");
  }
  RETURN_IF_ERROR(base_pool_.FlushDirty());
  RETURN_IF_ERROR(SaveCatalog(&base_catalog_, base_disk_.get(),
                              kCatalogSuperblock, kCatalogSuperblockAlt));
  RETURN_IF_ERROR(base_oracle_.Checkpoint(base_disk_.get(), kOraclePage));
  RETURN_IF_ERROR(base_disk_->Sync());
  // Checkpoints are not concurrent with mutations, so once the flush and
  // disk sync succeed every record logged so far — the flush's own page
  // images included — has durable page effects: redo may skip the lot.
  const Lsn redo_start = wal_ != nullptr ? wal_->LastLsn() : 0;
  if (wal_ != nullptr && wal_->sink() != nullptr) {
    CheckpointPayload payload;
    payload.oracle_next = base_oracle_.PeekNext();
    payload.redo_start_lsn = redo_start;
    // Compaction is additionally bounded by the log positions the log-based
    // refresh alternative still needs.
    Lsn keep_after = redo_start;
    for (const auto& [name, entry] : snapshots_) {
      CheckpointPayload::SnapshotState s;
      s.snapshot_id = entry.descriptor.id;
      s.snap_time =
          entry.table != nullptr ? entry.table->snap_time() : kNullTimestamp;
      s.last_refresh_lsn = entry.descriptor.last_refresh_lsn;
      payload.snapshots.push_back(s);
      if (entry.descriptor.method == RefreshMethod::kLogBased) {
        keep_after = std::min(keep_after, entry.descriptor.last_refresh_lsn);
      }
    }
    std::string bytes;
    payload.SerializeTo(&bytes);
    wal_->LogCheckpoint(std::move(bytes));
    RETURN_IF_ERROR(wal_->Sync());
    RETURN_IF_ERROR(wal_file_->Rewrite(wal_->Scan(keep_after)));
  }
  return Status::OK();
}

Status SnapshotSystem::PersistCatalogIfDurable() {
  if (options_.base_data_path.empty()) return Status::OK();
  RETURN_IF_ERROR(SaveCatalog(&base_catalog_, base_disk_.get(),
                              kCatalogSuperblock, kCatalogSuperblockAlt));
  return base_disk_->Sync();
}

Status SnapshotSystem::ArmBaseDiskFault(DiskFaultPlan plan) {
  auto* file_disk = dynamic_cast<FileDiskManager*>(base_disk_.get());
  if (file_disk == nullptr) {
    return Status::InvalidArgument(
        "base site is memory-backed; no disk faults to arm");
  }
  file_disk->Arm(std::move(plan), crash_switch_);
  return Status::OK();
}

bool SnapshotSystem::crashed() const {
  return crash_switch_ != nullptr && crash_switch_->dead.load();
}

Result<BaseTable*> SnapshotSystem::CreateBaseTable(const std::string& name,
                                                   Schema user_schema,
                                                   AnnotationMode mode,
                                                   PlacementPolicy policy) {
  if (base_tables_.contains(name)) {
    return Status::AlreadyExists("base table " + name + " already exists");
  }
  Schema stored = std::move(user_schema);
  if (mode != AnnotationMode::kNone) {
    ASSIGN_OR_RETURN(stored, stored.WithAnnotations());
  }
  ASSIGN_OR_RETURN(TableInfo * info,
                   base_catalog_.CreateTable(name, std::move(stored), policy));
  auto table = std::make_unique<BaseTable>(info, mode, &base_oracle_,
                                           wal_.get());
  BaseTable* ptr = table.get();
  base_tables_[name] = std::move(table);
  // The WAL logs by table id, so the id→schema mapping must be durable
  // before any logged mutation can reference it.
  RETURN_IF_ERROR(PersistCatalogIfDurable());
  return ptr;
}

Result<BaseTable*> SnapshotSystem::GetBaseTable(const std::string& name) {
  auto it = base_tables_.find(name);
  if (it == base_tables_.end()) {
    return Status::NotFound("no base table named " + name);
  }
  return it->second.get();
}

Status SnapshotSystem::AddSnapshotSite(const std::string& site_name) {
  if (sites_.contains(site_name)) {
    return Status::AlreadyExists("site " + site_name + " already exists");
  }
  std::unique_ptr<SnapshotSite>& site = sites_[site_name];
  site = std::make_unique<SnapshotSite>(
      options_.snap_pool_pages,
      WithMetricsPrefix(options_.channel, "net.channel.data"));
  if (!options_.wire_encoding) return Status::OK();
  // The site link's codec pair. The resolver closes over the registry:
  // snapshots may be created and dropped after the site exists, and a
  // dropped snapshot simply resolves to no schema (rows ride opaque, which
  // is always sound).
  WireCodecOptions codec;
  codec.compression = options_.wire_compression;
  WireSchemaResolver resolver = [this](SnapshotId id) -> const Schema* {
    return ResolveValueSchema(id);
  };
  site->encoder = std::make_unique<WireEncoder>(codec, resolver, wire_memo_);
  site->decoder = std::make_unique<WireDecoder>(codec, resolver);
  site->applier = SessionApplier(site->decoder.get());
  return Status::OK();
}

WireCodecStats SnapshotSystem::WireEncoderStats() const {
  WireCodecStats total;
  for (const auto& [name, site] : sites_) {
    if (site->encoder != nullptr) total += site->encoder->stats();
  }
  // The memo is shared across sites; per-encoder stats each report the
  // shared total, so take it once instead of summing.
  total.memo_hits = wire_memo_ != nullptr ? wire_memo_->hits() : 0;
  return total;
}

const Schema* SnapshotSystem::ResolveValueSchema(SnapshotId id) const {
  auto it = snapshots_by_id_.find(id);
  if (it == snapshots_by_id_.end()) return nullptr;
  return &it->second->table->value_schema();
}

std::vector<std::string> SnapshotSystem::SnapshotSiteNames() const {
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, site] : sites_) names.push_back(name);
  return names;
}

Result<SnapshotSystem::SnapshotSite*> SnapshotSystem::GetSite(
    const std::string& name) {
  auto it = sites_.find(name);
  if (it == sites_.end()) {
    return Status::NotFound("no snapshot site named " + name);
  }
  return it->second.get();
}

void SnapshotSystem::SetPartitioned(bool partitioned) {
  sites_.at("main")->channel.SetPartitioned(partitioned);
}

Status SnapshotSystem::SetSitePartitioned(const std::string& site_name,
                                          bool partitioned) {
  ASSIGN_OR_RETURN(SnapshotSite * site, GetSite(site_name));
  site->channel.SetPartitioned(partitioned);
  return Status::OK();
}

Channel* SnapshotSystem::data_channel() {
  return &sites_.at("main")->channel;
}

Result<Channel*> SnapshotSystem::site_channel(const std::string& site_name) {
  ASSIGN_OR_RETURN(SnapshotSite * site, GetSite(site_name));
  return &site->channel;
}

Result<BaseTable*> SnapshotSystem::ResolveSource(const std::string& name) {
  auto base = GetBaseTable(name);
  if (base.ok()) return base;
  // A snapshot's storage can source a cascaded snapshot.
  auto snap = snapshots_.find(name);
  if (snap != snapshots_.end()) return snap->second.table->storage();
  return Status::NotFound("no base table or snapshot named " + name);
}

Result<SnapshotTable*> SnapshotSystem::CreateSnapshot(
    const std::string& snapshot_name, const std::string& source_name,
    const std::string& restriction_text, SnapshotOptions options) {
  if (snapshots_.contains(snapshot_name)) {
    return Status::AlreadyExists("snapshot " + snapshot_name +
                                 " already exists");
  }
  ASSIGN_OR_RETURN(BaseTable * source, ResolveSource(source_name));

  // Compile the restriction now (CREATE SNAPSHOT-time binding).
  ASSIGN_OR_RETURN(ExprPtr restriction, ParsePredicate(restriction_text));
  RETURN_IF_ERROR(ValidateAgainstSchema(*restriction, source->user_schema()));

  if (options.method == RefreshMethod::kDifferential &&
      source->mode() == AnnotationMode::kNone) {
    // R*: "the extra fields are added automatically to the base table when
    // the first snapshot using differential refresh is created".
    RETURN_IF_ERROR(base_catalog_.AddAnnotationColumns(source->info()));
    RETURN_IF_ERROR(source->SetMode(AnnotationMode::kLazy));
    RETURN_IF_ERROR(PersistCatalogIfDurable());
  }
  if (options.method == RefreshMethod::kLogBased && wal_ == nullptr) {
    return Status::InvalidArgument("log-based refresh requires the WAL");
  }

  std::vector<std::string> projection = options.projection;
  if (projection.empty()) {
    projection = source->UserColumnNames();
    // Cascaded snapshots: the source's own $BASEADDR$ bookkeeping column is
    // not user data at the next level.
    std::erase(projection, std::string(SnapshotTable::kBaseAddrColumn));
  }
  RETURN_IF_ERROR(CheckProjection(source->user_schema(), projection));
  ASSIGN_OR_RETURN(Schema value_schema,
                   source->user_schema().Project(projection));

  ASSIGN_OR_RETURN(SnapshotSite * site, GetSite(options.site));
  ASSIGN_OR_RETURN(auto table,
                   SnapshotTable::Create(&site->catalog, snapshot_name,
                                         std::move(value_schema),
                                         &site->oracle));

  SnapshotEntry entry;
  entry.site = site;
  entry.descriptor.id = next_snapshot_id_++;
  entry.descriptor.name = snapshot_name;
  entry.descriptor.method = options.method;
  entry.descriptor.restriction = std::move(restriction);
  entry.descriptor.restriction_text = restriction_text;
  entry.descriptor.projection = std::move(projection);
  entry.descriptor.anchor_optimization = options.anchor_optimization;
  // First refresh replays the log (or transmits in full). Checkpointed
  // per-snapshot positions (see restored_checkpoint()) are deliberately NOT
  // spliced into a re-created descriptor: the snapshot site is volatile in
  // this collapsed process, so the re-created snapshot starts empty and a
  // differential continuation would leave it incomplete.
  entry.descriptor.last_refresh_lsn = 0;
  entry.table = std::move(table);
  entry.source = source;

  auto [it, inserted] = snapshots_.emplace(snapshot_name, std::move(entry));
  SNAPDIFF_CHECK(inserted);
  snapshots_by_id_[it->second.descriptor.id] = &it->second;
  if (options.method == RefreshMethod::kAsap) {
    // Constructed only after the entry has its final home: the propagator
    // keeps a pointer to the descriptor.
    it->second.asap = std::make_unique<AsapPropagator>(
        &it->second.descriptor, source, &it->second.site->channel,
        options.asap_buffer_on_partition);
    source->AddObserver(it->second.asap.get());
  }
  metric_snapshot_count_->Set(static_cast<int64_t>(snapshots_.size()));
  SNAPDIFF_LOG(Info) << "snapshot created"
                     << obs::kv("name", snapshot_name)
                     << obs::kv("source", source_name)
                     << obs::kv("method",
                                RefreshMethodToString(options.method));
  return it->second.table.get();
}

Result<SnapshotTable*> SnapshotSystem::CreateJoinSnapshot(
    const std::string& snapshot_name, const std::string& left_table,
    const std::string& right_table, const std::string& join_left_column,
    const std::string& join_right_column,
    const std::string& restriction_text,
    std::vector<std::string> projection) {
  if (snapshots_.contains(snapshot_name)) {
    return Status::AlreadyExists("snapshot " + snapshot_name +
                                 " already exists");
  }
  ASSIGN_OR_RETURN(BaseTable * left, ResolveSource(left_table));
  ASSIGN_OR_RETURN(BaseTable * right, ResolveSource(right_table));
  if (left == right) {
    return Status::NotSupported("self-joins are not supported");
  }
  ASSIGN_OR_RETURN(Schema combined,
                   BuildJoinSchema(left, right, join_left_column,
                                   join_right_column));
  ASSIGN_OR_RETURN(ExprPtr restriction, ParsePredicate(restriction_text));
  RETURN_IF_ERROR(ValidateAgainstSchema(*restriction, combined));

  if (projection.empty()) {
    for (const Column& c : combined.columns()) projection.push_back(c.name);
  }
  RETURN_IF_ERROR(CheckProjection(combined, projection));
  ASSIGN_OR_RETURN(Schema value_schema, combined.Project(projection));
  ASSIGN_OR_RETURN(SnapshotSite * site, GetSite("main"));
  ASSIGN_OR_RETURN(auto table,
                   SnapshotTable::Create(&site->catalog, snapshot_name,
                                         std::move(value_schema),
                                         &site->oracle));

  SnapshotEntry entry;
  entry.site = site;
  entry.descriptor.id = next_snapshot_id_++;
  entry.descriptor.name = snapshot_name;
  entry.descriptor.method = RefreshMethod::kFull;  // re-evaluation only
  entry.descriptor.restriction = restriction;
  entry.descriptor.restriction_text = restriction_text;
  entry.descriptor.projection = projection;
  entry.table = std::move(table);
  entry.source = left;  // admission anchor; refreshes admit both inputs

  auto join = std::make_unique<JoinDescriptor>();
  join->id = entry.descriptor.id;
  join->name = snapshot_name;
  join->left = left;
  join->right = right;
  join->join_left_column = join_left_column;
  join->join_right_column = join_right_column;
  join->restriction = std::move(restriction);
  join->restriction_text = restriction_text;
  join->projection = std::move(projection);
  join->combined_schema = std::move(combined);
  entry.join = std::move(join);

  auto [it, inserted] = snapshots_.emplace(snapshot_name, std::move(entry));
  SNAPDIFF_CHECK(inserted);
  snapshots_by_id_[it->second.descriptor.id] = &it->second;
  metric_snapshot_count_->Set(static_cast<int64_t>(snapshots_.size()));
  return it->second.table.get();
}

Status SnapshotSystem::DropSnapshot(const std::string& snapshot_name) {
  auto it = snapshots_.find(snapshot_name);
  if (it == snapshots_.end()) {
    return Status::NotFound("no snapshot named " + snapshot_name);
  }
  if (it->second.asap != nullptr) {
    it->second.source->RemoveObserver(it->second.asap.get());
  }
  // A live served session of this snapshot loses its meaning (and must
  // not keep its scan epoch pinned).
  EvictServeSession(it->second.descriptor.id);
  it->second.site->applier.Retire(it->second.descriptor.id);
  snapshots_by_id_.erase(it->second.descriptor.id);
  RETURN_IF_ERROR(it->second.site->catalog.DropTable(snapshot_name));
  snapshots_.erase(it);
  metric_snapshot_count_->Set(static_cast<int64_t>(snapshots_.size()));
  return Status::OK();
}

Result<SnapshotSystem::SnapshotEntry*> SnapshotSystem::GetEntry(
    const std::string& name) {
  auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    return Status::NotFound("no snapshot named " + name);
  }
  return &it->second;
}

Result<SnapshotTable*> SnapshotSystem::GetSnapshot(
    const std::string& snapshot_name) {
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(snapshot_name));
  return entry->table.get();
}

Status SnapshotSystem::DeliverPending(
    SnapshotSite* site, const std::map<SnapshotId, RefreshStats*>& attributed) {
  const SessionApplier::ApplyFn apply = [&](const Message& msg,
                                            const Message& raw) -> Status {
    const SnapshotEntry* entry = snapshots_by_id_.at(msg.snapshot_id);
    auto it = attributed.find(msg.snapshot_id);
    RefreshStats* stats = it == attributed.end() ? nullptr : it->second;
    if (stats != nullptr) {
      CountMessage(raw, raw.SerializedSize(), &stats->traffic);
    }
    return entry->table->ApplyMessage(msg, stats);
  };
  while (site->channel.HasPending()) {
    ASSIGN_OR_RETURN(Message msg, site->channel.Receive());
    // Messages of a dropped snapshot are discarded, undecoded.
    if (!snapshots_by_id_.contains(msg.snapshot_id)) continue;
    RETURN_IF_ERROR(site->applier.Admit(msg, apply));
  }
  return Status::OK();
}

Status SnapshotSystem::DrainChannel() {
  for (auto& [name, site] : sites_) {
    RETURN_IF_ERROR(DeliverPending(site.get(), {}));
  }
  return Status::OK();
}

Status SnapshotSystem::RunRefreshAttempt(
    SnapshotEntry* entry, RefreshMethod method,
    std::vector<GroupRefreshMember>* members, MessageSink* wire,
    obs::Tracer* tracer, const RefreshExecution& exec) {
  SnapshotDescriptor* desc = &entry->descriptor;
  BaseTable* base = entry->source;
  RefreshStats* stats = members->front().stats;
  switch (method) {
    case RefreshMethod::kFull: {
      RETURN_IF_ERROR(
          ExecuteFullRefresh(base, desc, wire, stats, tracer, exec));
      if (desc->method == RefreshMethod::kLogBased && base->wal() != nullptr) {
        // A full override of a log-based snapshot subsumes the backlog,
        // exactly like the executor's own truncation fallback.
        desc->pending_refresh_lsn = base->wal()->LastLsn();
      }
      return Status::OK();
    }
    case RefreshMethod::kDifferential:
      // One combined scan serves every member.
      return ExecuteGroupDifferentialRefresh(base, members, wire, tracer,
                                             exec);
    case RefreshMethod::kIdeal:
      return ExecuteIdealRefresh(base, desc, wire, stats, tracer, exec);
    case RefreshMethod::kLogBased:
      return ExecuteLogBasedRefresh(base, desc, wire, stats, tracer, exec);
    case RefreshMethod::kAsap: {
      // The SnapTime the client's demand carried decides.
      if (members->front().snap_time == kNullTimestamp) {
        // First refresh initializes the replica with a full copy of the
        // epoch's cut; changes made before the snapshot existed were never
        // streamed. Buffered changes may postdate the cut, so the local
        // client paused propagation and flushes them after the copy
        // (idempotent for the pre-cut ones).
        return ExecuteFullRefresh(base, desc, wire, stats, tracer, exec);
      }
      // Thereafter changes are already streamed; flush any partition
      // backlog and stamp the snapshot with a fresh base time. The flush
      // re-sends buffered (session-less) propagation messages; only the
      // END rides the session.
      if (entry->asap != nullptr) {
        RETURN_IF_ERROR(entry->asap->FlushBuffered());
      }
      return members->front().sink->Send(MakeEndOfRefresh(
          desc->id, Address::Null(), base->oracle()->Next()));
    }
  }
  return Status::Internal("bad refresh method");
}

Result<RefreshReport> SnapshotSystem::Refresh(const RefreshRequest& request) {
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(request.snapshot));
  // Per-call method override: a snapshot refreshes by its own method or by
  // full re-transmission (always safe; switching between incremental
  // methods would desynchronize their per-method base-site state).
  const RefreshMethod own = entry->descriptor.method;
  if (request.method.has_value() && *request.method != own &&
      (entry->join != nullptr || *request.method != RefreshMethod::kFull)) {
    return Status::InvalidArgument(
        "refresh method override for " + request.snapshot + " must be " +
        std::string(RefreshMethodToString(own)) +
        (entry->join != nullptr ? "" : " or full"));
  }
  ASSIGN_OR_RETURN(std::vector<RefreshReport> reports,
                   RunRefresh({entry}, request, "refresh " + request.snapshot));
  return std::move(reports.front());
}

Result<std::map<std::string, RefreshStats>> SnapshotSystem::RefreshGroup(
    const std::vector<std::string>& snapshot_names) {
  if (snapshot_names.empty()) {
    return Status::InvalidArgument("empty refresh group");
  }
  std::vector<SnapshotEntry*> members;
  for (const std::string& name : snapshot_names) {
    ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(name));
    if (entry->descriptor.method != RefreshMethod::kDifferential) {
      return Status::InvalidArgument(
          "group refresh supports only differential snapshots; " + name +
          " is " +
          std::string(RefreshMethodToString(entry->descriptor.method)));
    }
    // A snapshot has one live session, so a repeated member would
    // supersede its own stream mid-burst.
    if (std::find(members.begin(), members.end(), entry) != members.end()) {
      return Status::InvalidArgument("group names " + name + " twice");
    }
    if (!members.empty() && (members.front()->source != entry->source ||
                             members.front()->site != entry->site)) {
      return Status::InvalidArgument(
          "group members must share one base table and one snapshot site "
          "(one scan, one transmission burst, one link)");
    }
    members.push_back(entry);
  }
  ASSIGN_OR_RETURN(std::vector<RefreshReport> reports,
                   RunRefresh(members, RefreshRequest{}, "refresh-group"));
  std::map<std::string, RefreshStats> results;
  for (size_t i = 0; i < members.size(); ++i) {
    results[members[i]->descriptor.name] = std::move(reports[i].stats);
  }
  return results;
}

Result<std::vector<RefreshReport>> SnapshotSystem::RunRefresh(
    const std::vector<SnapshotEntry*>& members, const RefreshRequest& request,
    const std::string& trace_name) {
  const SnapshotEntry& lead = *members.front();
  SnapshotSite* site = lead.site;
  Channel* channel = &site->channel;
  const RefreshMethod method = request.method.value_or(lead.descriptor.method);

  tracer_.Begin(trace_name);
  // Ends the trace on error returns without clobbering the explicit End().
  Cleanup end_trace([this] {
    if (tracer_.active()) tracer_.End();
  });

  // Deliver anything still in flight — ASAP streams, and the applied
  // prefix of an interrupted earlier session — before measuring.
  {
    obs::Tracer::Span drain_span(&tracer_, "drain");
    RETURN_IF_ERROR(DrainChannel());
  }
  // This call demands fresh sessions, superseding any earlier ones; their
  // prefixes were just delivered, so the checkpoint state can go.
  for (const SnapshotEntry* m : members) site->applier.Retire(m->descriptor.id);

  // A scripted per-request fault window: armed before the first attempt,
  // healed (at the latest) when the call returns.
  const bool faulted = request.fault.has_value() && !request.fault->empty();
  if (faulted) channel->Arm(*request.fault);
  Cleanup heal([&] {
    if (faulted) channel->Heal();
  });

  // ASAP delivery order vs. the cut: changes propagated after the epoch
  // opens must not land at the site before the copy's (older) image of the
  // same row. Pause propagation into the buffer across the stream and
  // flush once the call ends; re-sent pre-cut changes are idempotent. A
  // failed flush (still-partitioned link) keeps them buffered.
  AsapPropagator* paused =
      method == RefreshMethod::kAsap ? lead.asap.get() : nullptr;
  if (paused != nullptr) paused->PauseToBuffer();
  Cleanup flush([paused] {
    if (paused != nullptr) (void)paused->ResumeAndFlush();
  });

  // A call that fails abandons its sessions (the next call demands afresh):
  // release their scan epoch and staged outcomes now, not at the next
  // serve. A no-op once AcknowledgeServe retired them.
  std::vector<ServeOutcome> served(members.size());
  std::map<SnapshotId, RefreshStats*> attributed;
  for (size_t i = 0; i < members.size(); ++i) {
    attributed[members[i]->descriptor.id] = &served[i].stats;
  }
  Cleanup abandon([&] {
    std::lock_guard<std::mutex> guard(serve_mu_);
    for (size_t i = 0; i < members.size(); ++i) {
      if (served[i].session_id == 0) continue;
      EvictServeSession(members[i]->descriptor.id, served[i].session_id);
    }
  });

  // The demands cross the request link (snapshot → base) and are served
  // exactly as a remote site's would be.
  const auto demand = [&]() -> Result<std::vector<ServeRequest>> {
    std::vector<ServeRequest> serves;
    for (const SnapshotEntry* m : members) {
      RETURN_IF_ERROR(request_channel_.Send(
          site->applier.Demand(m->descriptor.id, m->table->snap_time(),
                               m->descriptor.restriction_text)));
      ASSIGN_OR_RETURN(Message received, request_channel_.Receive());
      serves.push_back(ServeRequest::FromDemand(received, site->encoder.get()));
      serves.back().workers = request.workers;
      serves.back().batch_size = request.batch_size;
    }
    return serves;
  };
  obs::Tracer::Span request_span(&tracer_, "request");
  ASSIGN_OR_RETURN(std::vector<ServeRequest> serves, demand());
  request_span.Close();

  RefreshReport report;
  const ChannelStats before = channel->stats();
  const std::string execute_label =
      members.size() > 1    ? "execute group-differential"
      : lead.join != nullptr ? "execute join-full"
                             : std::string("execute ").append(
                                   RefreshMethodToString(method));
  for (;;) {
    obs::Tracer::Span exec_span(&tracer_, execute_label);
    Status exec = ServeRefresh(serves, channel, &request, &tracer_, &served);
    exec_span.Close();
    if (served.front().resumed) {
      ++report.resumes;
      metric_refresh_resumes_->Inc();
    }
    if (!exec.ok() && !exec.IsUnavailable()) return exec;

    // Snapshot site: apply whatever arrived. After a mid-stream failure
    // that is the resume checkpoint.
    obs::Tracer::Span apply_span(&tracer_, "apply");
    const uint64_t applied = site->applier.counters().applied;
    RETURN_IF_ERROR(DeliverPending(site, attributed));
    apply_span.Note("messages", site->applier.counters().applied - applied);
    apply_span.Close();
    // A member is refreshed only if its stream's END actually applied —
    // with lossy delivery, executor success alone proves nothing.
    std::string incomplete;
    for (size_t i = 0; i < members.size(); ++i) {
      const uint64_t session = served[i].session_id;
      if (site->applier.Complete(members[i]->descriptor.id, session)) continue;
      incomplete += " " + members[i]->descriptor.name + "#" +
                    std::to_string(session);
    }
    if (incomplete.empty()) break;
    const Status failure =
        !exec.ok() ? exec
                   : Status::Unavailable("refresh incomplete, messages lost "
                                         "in transit:" + incomplete);
    // Only a lone member retries: a group makes one attempt, and a member
    // that lost messages keeps its old SnapTime until the next refresh.
    if (members.size() > 1 || report.retries >= request.retry.max_retries) {
      return failure;
    }

    // --- retry: RESUME_REFRESH negotiation. The site's demand names its
    // applied prefix and the base re-runs the session with that prefix
    // suppressed; without resume the retry demands a fresh session.
    ++report.retries;
    ++report.attempts;
    metric_refresh_retries_->Inc();
    obs::Tracer::Span retry_span(&tracer_, "retry");
    if (!request.retry.resume) site->applier.Retire(lead.descriptor.id);
    ASSIGN_OR_RETURN(serves, demand());
    // Capped exponential backoff in simulated ticks; advancing the link's
    // clock is also what fires FaultPlan::WithHealAfter.
    const uint64_t backoff = request.retry.BackoffTicks(report.retries);
    report.backoff_ticks += backoff;
    if (backoff > 0) channel->AdvanceTime(backoff);
    retry_span.Note("attempt", report.attempts);
    retry_span.Note("backoff_ticks", backoff);
    retry_span.Note("resume_after_seq", serves.front().resume_after_seq);
    retry_span.Close();
    SNAPDIFF_LOG(Warn) << "refresh retrying"
                       << obs::kv("snapshot", lead.descriptor.name)
                       << obs::kv("session", served.front().session_id)
                       << obs::kv("attempt", report.attempts)
                       << obs::kv("resume_after_seq",
                                  serves.front().resume_after_seq)
                       << obs::kv("backoff_ticks", backoff)
                       << obs::kv("reason", failure.ToString());
  }

  const ChannelStats burst = channel->stats() - before;
  tracer_.End();
  metric_refresh_duration_->Observe(
      static_cast<double>(tracer_.duration_us()));
  report.trace_id = tracer_.name();
  std::vector<RefreshReport> reports(members.size(), report);
  for (size_t i = 0; i < members.size(); ++i) {
    const SnapshotEntry& m = *members[i];
    // A lone member owns the link's whole burst. Group members split its
    // messages by snapshot (attributed at apply) and share its frames and
    // wire bytes, so their attributions sum to the burst.
    RefreshStats& stats = served[i].stats;
    if (members.size() == 1) stats.traffic = burst;
    stats.traffic.frames = burst.frames;
    stats.traffic.wire_bytes = burst.wire_bytes;
    // The site applied the session's END: acknowledge it, which commits the
    // staged outcome, and let the encoder's folds commit with it.
    site->applier.Retire(m.descriptor.id);
    if (served[i].session_id != 0 &&
        AcknowledgeServe(m.descriptor.id, served[i].session_id).ok() &&
        site->encoder != nullptr) {
      site->encoder->CommitStream(m.descriptor.id, served[i].session_id);
    }
    metric_refreshes_->Inc();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    reg.GetCounter("snapshot." + m.descriptor.name + ".refreshes")->Inc();
    reg.GetGauge("snapshot." + m.descriptor.name + ".staleness")
        ->Set(static_cast<int64_t>(base_oracle_.Current()) -
              static_cast<int64_t>(m.table->snap_time()));
    SNAPDIFF_LOG(Info) << "refresh complete"
                       << obs::kv("snapshot", m.descriptor.name)
                       << obs::kv("method",
                                  RefreshMethodToString(m.descriptor.method))
                       << obs::kv("messages", stats.traffic.messages)
                       << obs::kv("wire_bytes", burst.wire_bytes)
                       << obs::kv("duration_us", tracer_.duration_us());
    reports[i].session_id = served[i].session_id;
    reports[i].suppressed_messages = served[i].suppressed;
    reports[i].stats = std::move(stats);
  }
  return reports;
}

Result<SnapshotSystem::SnapshotWireInfo> SnapshotSystem::DescribeSnapshot(
    const std::string& name) {
  std::lock_guard<std::mutex> guard(serve_mu_);
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(name));
  SnapshotWireInfo info;
  info.id = entry->descriptor.id;
  info.value_schema = entry->table->value_schema();
  info.method = entry->descriptor.method;  // kFull for joins
  return info;
}

void SnapshotSystem::EvictServeSession(SnapshotId snapshot_id,
                                       uint64_t session_id) {
  auto it = serve_sessions_.find(snapshot_id);
  if (it == serve_sessions_.end() ||
      (session_id != 0 && it->second.session_id != session_id)) {
    return;
  }
  auto by_id = snapshots_by_id_.find(snapshot_id);
  if (by_id != snapshots_by_id_.end()) {
    by_id->second->descriptor.pending_ideal_shadow.reset();
    by_id->second->descriptor.pending_refresh_lsn.reset();
  }
  serve_sessions_.erase(it);
}

SnapshotSystem::ServeRequest SnapshotSystem::ServeRequest::FromDemand(
    const Message& demand, WireEncoder* encoder) {
  ServeRequest request;
  request.snapshot_id = demand.snapshot_id;
  request.client_snap_time = demand.timestamp;
  if (demand.type == MessageType::kResumeRefresh) {
    request.resume_session_id = demand.session_id;
    request.resume_after_seq = demand.seq;
  }
  request.encoder = encoder;
  // A codec-speaking client reports its committed generation in the
  // demand's otherwise-unused base_addr (Null = legacy demand).
  request.client_codec_gen =
      demand.base_addr.IsNull() ? 0 : demand.base_addr.raw();
  return request;
}

Result<SnapshotSystem::ServeOutcome> SnapshotSystem::ServeRefresh(
    const ServeRequest& request, MessageSink* wire) {
  std::vector<ServeOutcome> outcome(1);
  RETURN_IF_ERROR(ServeRefresh({request}, wire, /*local=*/nullptr,
                               /*tracer=*/nullptr, &outcome));
  return std::move(outcome.front());
}

Status SnapshotSystem::ServeRefresh(const std::vector<ServeRequest>& requests,
                                    MessageSink* wire,
                                    const RefreshRequest* local,
                                    obs::Tracer* tracer,
                                    std::vector<ServeOutcome>* outcomes) {
  std::vector<SnapshotEntry*> entries;
  {
    // Registry lookup only; execution is NOT under serve_mu_, so server
    // threads refreshing different tables stream concurrently.
    std::lock_guard<std::mutex> guard(serve_mu_);
    for (const ServeRequest& request : requests) {
      auto by_id = snapshots_by_id_.find(request.snapshot_id);
      if (by_id == snapshots_by_id_.end()) {
        return Status::NotFound("no snapshot with wire id " +
                                std::to_string(request.snapshot_id));
      }
      entries.push_back(by_id->second);
    }
  }
  SnapshotEntry* lead = entries.front();
  if (lead->join != nullptr) {
    // Sessionless join serve: a full re-evaluation admitted over both
    // inputs — there is no resumable stream to keep frozen.
    AdmissionGuard admission = AdmitRefresh(
        {lead->join->left->info()->id, lead->join->right->info()->id});
    return ExecuteJoinFullRefresh(lead->join.get(), wire,
                                  &outcomes->front().stats, tracer);
  }

  // Admission is held only while this attempt streams — not until the ack.
  // The session's epoch is what keeps a later RESUME byte-identical, so
  // other snapshots of this table refresh freely between a stream and its
  // ack. Group members share the table, so it admits once.
  AdmissionGuard admission = AdmitRefresh({lead->source->info()->id});

  // The sessions this attempt streams: each member's own, so session
  // identity and sequence stamping stay intact on a shared wire.
  std::vector<ServeSession> live;
  std::vector<RefreshSession> sessions;
  sessions.reserve(entries.size());
  std::vector<GroupRefreshMember> members;
  std::shared_ptr<TableEpoch> epoch;  // one cut for every fresh session
  {
    std::lock_guard<std::mutex> guard(serve_mu_);
    for (size_t i = 0; i < entries.size(); ++i) {
      const ServeRequest& request = requests[i];
      const SnapshotDescriptor& desc = entries[i]->descriptor;
      auto it = serve_sessions_.find(desc.id);
      uint64_t resume_after = 0;
      if (request.resume_session_id != 0 && it != serve_sessions_.end() &&
          it->second.session_id == request.resume_session_id) {
        // RESUME of a live session: its scan epoch still pins the cut, so
        // the deterministic re-run emits the byte-identical stream (writers
        // mutated the live table freely in between) and suppress-by-
        // sequence names exactly the applied prefix.
        live.push_back(it->second);
        resume_after = request.resume_after_seq;
      } else {
        // Fresh session, superseding any dangling session for this
        // snapshot: its staged outcome must not survive into this one.
        EvictServeSession(desc.id);
        const RefreshMethod method = local != nullptr
                                         ? local->method.value_or(desc.method)
                                         : desc.method;
        if (local == nullptr && method == RefreshMethod::kAsap &&
            request.client_snap_time != kNullTimestamp) {
          return Status::InvalidArgument(
              "ASAP propagation is in-process only; a remote site receives "
              "the initial full copy and must re-attach for a fresh copy");
        }
        if (epoch == nullptr) epoch = lead->source->OpenEpoch();
        live.push_back(ServeSession{next_session_id_++, method,
                                    request.client_snap_time, epoch});
        serve_sessions_[desc.id] = live.back();
      }
      if (request.encoder != nullptr) {
        // The demand carried the client decoder's committed generation; a
        // mismatch resets the shadow and the stream opens with a reset
        // flag. Syncing on RESUME too is what makes reconnects work: the
        // new connection's encoder starts at generation 0 with an empty
        // shadow while the client decoder is at G — adopting G (and
        // re-deriving the in-session shadow by replaying the suppressed
        // prefix) realigns them. When generations already match the sync
        // is a no-op.
        request.encoder->SyncGeneration(desc.id, request.client_codec_gen);
        request.encoder->BeginStream(desc.id, live.back().session_id,
                                     resume_after > 0);
      }
      sessions.emplace_back(wire, live.back().session_id, resume_after,
                            request.encoder);
      members.push_back({&entries[i]->descriptor, live.back().request_time,
                         &(*outcomes)[i].stats, &sessions.back()});
    }
  }
  if (epoch != nullptr && local != nullptr && local->on_epoch_open) {
    local->on_epoch_open();
  }

  RefreshExecution execution = MakeRefreshExecution(
      requests.front().workers, requests.front().batch_size);
  execution.epoch = live.front().epoch;
  // Only a lone member's stream resumes, so only it may elide the payloads
  // of suppressed messages.
  if (sessions.size() == 1) execution.session = &sessions.front();
  Status exec = RunRefreshAttempt(lead, live.front().method, &members, wire,
                                  tracer, execution);
  // Unavailable = the transport died mid-stream: the sessions (and their
  // epoch) stay live for the client's RESUME. A real executor failure
  // evicts them: they cannot be resumed soundly.
  const bool failed = !exec.ok() && !exec.IsUnavailable();
  std::lock_guard<std::mutex> guard(serve_mu_);
  for (size_t i = 0; i < entries.size(); ++i) {
    ServeOutcome& outcome = (*outcomes)[i];
    outcome.session_id = sessions[i].session_id();
    outcome.resumed = sessions[i].resumed();
    outcome.last_seq = sessions[i].last_seq();
    outcome.suppressed += sessions[i].suppressed();
    if (failed) EvictServeSession(members[i].desc->id, outcome.session_id);
  }
  return exec;
}

Status SnapshotSystem::AcknowledgeServe(SnapshotId snapshot_id,
                                        uint64_t session_id) {
  std::lock_guard<std::mutex> guard(serve_mu_);
  auto it = serve_sessions_.find(snapshot_id);
  if (it == serve_sessions_.end() || it->second.session_id != session_id) {
    return Status::NotFound("serve session " + std::to_string(session_id) +
                            " is no longer live");
  }
  // Commit the staged per-method state (see SnapshotDescriptor); the
  // eviction then releases the session and clears what was staged.
  auto by_id = snapshots_by_id_.find(snapshot_id);
  if (by_id != snapshots_by_id_.end()) {
    SnapshotDescriptor& desc = by_id->second->descriptor;
    if (desc.pending_ideal_shadow.has_value()) {
      desc.ideal_shadow = std::move(*desc.pending_ideal_shadow);
    }
    if (desc.pending_refresh_lsn.has_value()) {
      desc.last_refresh_lsn = *desc.pending_refresh_lsn;
    }
  }
  EvictServeSession(snapshot_id, session_id);
  return Status::OK();
}

Status SnapshotSystem::FlushAsapBuffers() {
  for (auto& [name, entry] : snapshots_) {
    if (entry.asap != nullptr) {
      RETURN_IF_ERROR(entry.asap->FlushBuffered());
    }
  }
  return DrainChannel();
}

Result<std::map<Address, Tuple>> SnapshotSystem::ExpectedContents(
    const std::string& snapshot_name) {
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(snapshot_name));
  if (entry->join != nullptr) {
    return ExpectedJoinContents(entry->join.get());
  }
  const SnapshotDescriptor& desc = entry->descriptor;
  BaseTable* base = entry->source;
  ASSIGN_OR_RETURN(BoundExpression restriction,
                   desc.restriction->Bind(base->user_schema()));
  std::map<Address, Tuple> out;
  RETURN_IF_ERROR(base->ScanAnnotated(
      [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
        ASSIGN_OR_RETURN(bool qualified, restriction.Qualifies(row.user));
        if (!qualified) return Status::OK();
        ASSIGN_OR_RETURN(Tuple user, row.user.Materialize());
        ASSIGN_OR_RETURN(Tuple projected,
                         user.Project(base->user_schema(), desc.projection));
        out.emplace(addr, std::move(projected));
        return Status::OK();
      }));
  return out;
}

Result<const AsapPropagator::Stats*> SnapshotSystem::AsapStats(
    const std::string& snapshot_name) {
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(snapshot_name));
  if (entry->asap == nullptr) {
    return Status::InvalidArgument(snapshot_name + " is not an ASAP snapshot");
  }
  return &entry->asap->stats();
}

std::vector<std::string> SnapshotSystem::SnapshotNames() const {
  std::vector<std::string> names;
  names.reserve(snapshots_.size());
  for (const auto& [name, entry] : snapshots_) names.push_back(name);
  return names;
}

}  // namespace snapdiff
