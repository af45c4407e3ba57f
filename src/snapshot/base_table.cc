#include "snapshot/base_table.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "snapshot/secondary_index.h"

namespace snapdiff {

std::string_view AnnotationModeToString(AnnotationMode mode) {
  switch (mode) {
    case AnnotationMode::kNone:
      return "none";
    case AnnotationMode::kEager:
      return "eager";
    case AnnotationMode::kLazy:
      return "lazy";
  }
  return "unknown";
}

BaseTable::BaseTable(TableInfo* info, AnnotationMode mode,
                     TimestampOracle* oracle, LogManager* wal)
    : info_(info), mode_(mode), oracle_(oracle), wal_(wal) {
  if (mode != AnnotationMode::kNone) {
    SNAPDIFF_CHECK(info_->schema.HasAnnotations())
        << "annotated mode requires funny columns in schema";
  }
  BindLayout();
}

void BaseTable::BindLayout() {
  const Schema& stored = info_->schema;
  std::vector<Column> user_cols(
      stored.columns().begin(),
      stored.columns().begin() + stored.UserColumnCount());
  user_schema_ = Schema(std::move(user_cols));
  annotated_ = stored.HasAnnotations();
  if (annotated_) {
    // Schema::WithAnnotations appends $TIMESTAMP$ right after $PREVADDR$,
    // both fixed-width, so one slot walk reads the pair.
    prev_index_ = stored.PrevAddrIndex();
    SNAPDIFF_CHECK(stored.TimestampIndex() == prev_index_ + 1)
        << "annotation columns not adjacent";
  }
}

Status BaseTable::SetMode(AnnotationMode mode) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  info_->heap->Tick();  // conservative: mode changes alter scan semantics
  if (mode != AnnotationMode::kNone && !info_->schema.HasAnnotations()) {
    return Status::InvalidArgument(
        "annotation columns missing; call Catalog::AddAnnotationColumns "
        "first");
  }
  mode_ = mode;
  // The schema may have grown (Catalog::AddAnnotationColumns): rebind.
  BindLayout();
  return Status::OK();
}

std::vector<std::string> BaseTable::UserColumnNames() const {
  std::vector<std::string> names;
  names.reserve(user_schema_.column_count());
  for (const Column& c : user_schema_.columns()) names.push_back(c.name);
  return names;
}

Tuple BaseTable::MakeStored(const Tuple& user_row, Address prev,
                            Timestamp ts) const {
  if (!annotated_) return user_row;
  std::vector<Value> values = user_row.values();
  values.push_back(Value::Addr(prev));
  values.push_back(Value::Ts(ts));
  return Tuple(std::move(values));
}

BaseTable::AnnotatedRow BaseTable::SplitStored(const Tuple& stored) const {
  AnnotatedRow row;
  const size_t user_n = user_schema_.column_count();
  std::vector<Value> user(stored.values().begin(),
                          stored.values().begin() + user_n);
  row.user = Tuple(std::move(user));
  if (annotated_) {
    row.prev_addr = stored.value(prev_index_).as_address();
    row.timestamp = stored.value(prev_index_ + 1).as_timestamp();
  } else {
    row.prev_addr = Address::Null();
    row.timestamp = kNullTimestamp;
  }
  return row;
}

TxnId BaseTable::BeginAutocommit() {
  if (wal_ == nullptr) return 0;
  const TxnId txn = next_txn_++;
  wal_->LogBegin(txn);
  active_txn_ = txn;
  return txn;
}

Status BaseTable::CommitAutocommit(TxnId txn, LogRecordType logical_type,
                                   Address addr, std::string before,
                                   std::string after) {
  if (wal_ == nullptr) return Status::OK();
  switch (logical_type) {
    case LogRecordType::kInsert:
      wal_->LogInsert(txn, info_->id, addr, std::move(after));
      break;
    case LogRecordType::kUpdate:
      wal_->LogUpdate(txn, info_->id, addr, std::move(before),
                      std::move(after));
      break;
    case LogRecordType::kDelete:
      wal_->LogDelete(txn, info_->id, addr, std::move(before));
      break;
    default:
      return Status::Internal("bad autocommit record type");
  }
  wal_->LogCommit(txn);
  active_txn_ = 0;
  // Durable before the op is acknowledged: a crash after this point replays
  // the bracket as a winner, before it rolls the bracket back as a loser.
  return wal_->Sync();
}

Result<std::string> BaseTable::RawBytes(Address addr) {
  ASSIGN_OR_RETURN(TableHeap::TupleRef ref, info_->heap->GetView(addr));
  return std::string(ref.bytes);
}

Result<Address> BaseTable::Insert(const Tuple& user_row) {
  if (user_row.size() != user_schema_.column_count()) {
    return Status::InvalidArgument("row arity does not match user schema");
  }
  std::lock_guard<std::mutex> lock(mutate_mu_);
  // Lazy (and none): annotations are NULL — "insert operations will set the
  // PrevAddr and TimeStamp fields to NULL".
  Tuple stored = MakeStored(user_row, Address::Null(), kNullTimestamp);
  const TxnId txn = BeginAutocommit();
  const size_t pages_before = info_->heap->pages().size();
  ASSIGN_OR_RETURN(Address addr, InsertRow(info_, stored));
  if (wal_ != nullptr) {
    if (info_->heap->pages().size() > pages_before) {
      wal_->LogAllocPage(txn, info_->id, info_->heap->pages().back());
    }
    ASSIGN_OR_RETURN(std::string after_raw, RawBytes(addr));
    const Lsn lsn =
        wal_->LogPageInsert(txn, info_->id, addr, std::move(after_raw));
    RETURN_IF_ERROR(info_->heap->StampPageLsn(addr.page(), lsn));
  }

  if (mode_ == AnnotationMode::kEager) {
    // Repair the chain around the new entry.
    ++maintenance_stats_.successor_searches;
    ASSIGN_OR_RETURN(Address succ, info_->heap->NextLiveAfter(addr));
    Address my_prev;
    if (succ.IsReal()) {
      ++maintenance_stats_.extra_entry_reads;
      // Only the successor's annotations are needed — read them through a
      // pinned view instead of copying and materializing the whole row.
      Timestamp succ_ts = kNullTimestamp;
      {
        ASSIGN_OR_RETURN(TableHeap::TupleRef ref, info_->heap->GetView(succ));
        ASSIGN_OR_RETURN(AnnotatedView succ_row, SplitStoredView(ref.bytes));
        my_prev = succ_row.prev_addr;
        succ_ts = succ_row.timestamp;
      }
      if (my_prev.IsNull()) {
        // Successor predates annotation maintenance; derive from position.
        ++maintenance_stats_.successor_searches;
        ASSIGN_OR_RETURN(my_prev, info_->heap->PrevLiveBefore(addr));
      }
      // "the PrevAddr in the next entry must be set to the address of the
      // new entry" — its TimeStamp is NOT touched.
      ++maintenance_stats_.extra_entry_writes;
      RETURN_IF_ERROR(WriteAnnotationsLocked(succ, addr, succ_ts));
    } else {
      ++maintenance_stats_.successor_searches;
      ASSIGN_OR_RETURN(my_prev, info_->heap->PrevLiveBefore(addr));
    }
    RETURN_IF_ERROR(WriteAnnotationsLocked(addr, my_prev, oracle_->Next()));
  }

  ASSIGN_OR_RETURN(std::string after_bytes, user_row.Serialize(user_schema_));
  RETURN_IF_ERROR(CommitAutocommit(txn, LogRecordType::kInsert, addr, "",
                                   std::move(after_bytes)));
  for (TableObserver* obs : observers_) obs->OnInsert(addr, user_row);
  return addr;
}

Status BaseTable::Update(Address addr, const Tuple& user_row) {
  if (user_row.size() != user_schema_.column_count()) {
    return Status::InvalidArgument("row arity does not match user schema");
  }
  std::lock_guard<std::mutex> lock(mutate_mu_);
  ASSIGN_OR_RETURN(Tuple old_stored, ReadRow(info_, addr));
  AnnotatedRow old_row = SplitStored(old_stored);
  std::string before_raw;
  if (wal_ != nullptr) {
    ASSIGN_OR_RETURN(before_raw, RawBytes(addr));
  }

  const Timestamp new_ts = mode_ == AnnotationMode::kEager
                               ? oracle_->Next()
                               : kNullTimestamp;
  const TxnId txn = BeginAutocommit();
  // "Update operations will simply set the TimeStamp field to NULL" (lazy);
  // PrevAddr is preserved in both modes.
  Tuple stored = MakeStored(user_row, old_row.prev_addr, new_ts);
  RETURN_IF_ERROR(UpdateRow(info_, addr, stored));

  if (wal_ != nullptr) {
    ASSIGN_OR_RETURN(std::string after_raw, RawBytes(addr));
    const Lsn lsn = wal_->LogPageUpdate(txn, info_->id, addr,
                                        std::move(before_raw),
                                        std::move(after_raw));
    RETURN_IF_ERROR(info_->heap->StampPageLsn(addr.page(), lsn));
    ASSIGN_OR_RETURN(std::string before_bytes,
                     old_row.user.Serialize(user_schema_));
    ASSIGN_OR_RETURN(std::string after_bytes,
                     user_row.Serialize(user_schema_));
    RETURN_IF_ERROR(CommitAutocommit(txn, LogRecordType::kUpdate, addr,
                                     std::move(before_bytes),
                                     std::move(after_bytes)));
  }
  for (TableObserver* obs : observers_) {
    obs->OnUpdate(addr, old_row.user, user_row);
  }
  return Status::OK();
}

Status BaseTable::Delete(Address addr) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  ASSIGN_OR_RETURN(Tuple old_stored, ReadRow(info_, addr));
  AnnotatedRow old_row = SplitStored(old_stored);
  std::string before_raw;
  if (wal_ != nullptr) {
    ASSIGN_OR_RETURN(before_raw, RawBytes(addr));
  }

  const TxnId txn = BeginAutocommit();
  RETURN_IF_ERROR(DeleteRow(info_, addr));
  if (wal_ != nullptr) {
    const Lsn lsn =
        wal_->LogPageDelete(txn, info_->id, addr, std::move(before_raw));
    RETURN_IF_ERROR(info_->heap->StampPageLsn(addr.page(), lsn));
  }

  if (mode_ == AnnotationMode::kEager) {
    // "the PrevAddr and TimeStamp fields of the succeeding base table entry
    // must be updated with the PrevAddr from the deleted entry and the
    // current time". Tail deletions need no successor update; the refresh's
    // closing message covers them.
    ++maintenance_stats_.successor_searches;
    ASSIGN_OR_RETURN(Address succ, info_->heap->NextLiveAfter(addr));
    if (succ.IsReal()) {
      ++maintenance_stats_.extra_entry_writes;
      RETURN_IF_ERROR(WriteAnnotationsLocked(succ, old_row.prev_addr,
                                       oracle_->Next()));
    }
  }

  if (wal_ != nullptr) {
    ASSIGN_OR_RETURN(std::string before_bytes,
                     old_row.user.Serialize(user_schema_));
    RETURN_IF_ERROR(CommitAutocommit(txn, LogRecordType::kDelete, addr,
                                     std::move(before_bytes), ""));
  }
  for (TableObserver* obs : observers_) obs->OnDelete(addr, old_row.user);
  return Status::OK();
}

Result<Tuple> BaseTable::ReadUserRow(Address addr) {
  ASSIGN_OR_RETURN(Tuple stored, ReadRow(info_, addr));
  return SplitStored(stored).user;
}

Result<BaseTable::AnnotatedRow> BaseTable::ReadAnnotated(Address addr) {
  ASSIGN_OR_RETURN(Tuple stored, ReadRow(info_, addr));
  return SplitStored(stored);
}

BaseTable::RowSplitter BaseTable::Splitter() const {
  RowSplitter split(&info_->schema, &user_schema_);
  split.annotated_ = annotated_;
  split.prev_index_ = prev_index_;
  return split;
}

Result<BaseTable::AnnotatedView> BaseTable::RowSplitter::operator()(
    std::string_view bytes) const {
  AnnotatedView row;
  row.raw = bytes;
  row.prev_addr = Address::Null();
  row.timestamp = kNullTimestamp;
  if (!annotated_) {
    ASSIGN_OR_RETURN(row.user, TupleView::Parse(*user_, bytes));
    return row;
  }
  ASSIGN_OR_RETURN(TupleView stored, TupleView::Parse(*stored_, bytes));
  row.user = stored.WithSchema(*user_);
  const size_t ts_index = prev_index_ + 1;
  // A row written before the annotation columns were added stores
  // neither: both read as NULL.
  if (ts_index >= stored.stored_field_count()) return row;
  ASSIGN_OR_RETURN(std::string_view slots, stored.SlotsFrom(prev_index_));
  uint64_t prev = 0;
  uint64_t ts = 0;
  RETURN_IF_ERROR(GetFixed64(&slots, &prev));
  RETURN_IF_ERROR(GetFixed64(&slots, &ts));
  // A NULL bit decodes to the sentinels, as Field() + as_address() /
  // as_timestamp() would.
  if (!stored.IsNull(prev_index_)) row.prev_addr = Address::FromRaw(prev);
  if (!stored.IsNull(ts_index)) row.timestamp = static_cast<Timestamp>(ts);
  return row;
}

std::vector<BaseTable::ScanPartition> BaseTable::Partition(
    size_t max_partitions) const {
  std::vector<ScanPartition> parts;
  const size_t pages = info_->heap->pages().size();
  if (pages == 0 || max_partitions == 0) return parts;
  const size_t n = std::min(max_partitions, pages);
  parts.reserve(n);
  // Distribute pages as evenly as possible; the first (pages % n) runs get
  // one extra page.
  const size_t base = pages / n;
  const size_t extra = pages % n;
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t count = base + (i < extra ? 1 : 0);
    parts.push_back({next, count});
    next += count;
  }
  return parts;
}

namespace {

/// Little-endian store matching PutFixed64's wire byte order.
void StoreFixed64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Overwrites the fixed-8-byte slot of field `idx` and its null bit
/// inside a serialized tuple, byte-identical to what Tuple::Serialize
/// would have produced (NULL slots are zeroed).
Status PatchFixed64Field(const TupleView& stored, char* row_data, size_t idx,
                         bool null, uint64_t raw) {
  ASSIGN_OR_RETURN(std::string_view slot, stored.FieldSlot(idx));
  char* slot_data = row_data + (slot.data() - stored.bytes().data());
  StoreFixed64(slot_data, null ? 0 : raw);
  char& bitmap_byte = row_data[2 + idx / 8];
  const char bit = static_cast<char>(1 << (idx % 8));
  if (null) {
    bitmap_byte |= bit;
  } else {
    bitmap_byte &= static_cast<char>(~bit);
  }
  return Status::OK();
}

}  // namespace

Status BaseTable::WriteAnnotations(Address addr, Address prev_addr,
                                   Timestamp ts) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  return WriteAnnotationsLocked(addr, prev_addr, ts);
}

Status BaseTable::WriteAnnotationsIf(Address addr, Address expect_prev,
                                     Timestamp expect_ts,
                                     std::string_view expect_bytes,
                                     Address prev_addr, Timestamp ts,
                                     bool* applied) {
  *applied = false;
  std::lock_guard<std::mutex> lock(mutate_mu_);
  // Re-read the live row under the mutation lock: if any writer touched it
  // since the refresh's epoch cut, the stored values no longer match what
  // the scan saw and the fix-up must be dropped (the writer either NULLed
  // the timestamp — lazy — or repaired the chain itself — eager; both
  // re-converge on the next refresh). NULL-timestamp expectations also
  // compare the full stored image: (NULL, NULL) and (prev, NULL) are
  // reproducible by a post-cut reinsert/update, so only byte identity
  // proves the row is still the one the scan saw.
  {
    auto view = info_->heap->GetView(addr);
    if (!view.ok()) return Status::OK();  // row deleted since the cut
    ASSIGN_OR_RETURN(AnnotatedView row, SplitStoredView(view.value().bytes));
    if (row.prev_addr != expect_prev || row.timestamp != expect_ts) {
      return Status::OK();
    }
    if (!expect_bytes.empty() && view.value().bytes != expect_bytes) {
      return Status::OK();
    }
  }
  RETURN_IF_ERROR(WriteAnnotationsLocked(addr, prev_addr, ts));
  *applied = true;
  return Status::OK();
}

std::shared_ptr<TableEpoch> BaseTable::OpenEpoch() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  std::shared_ptr<TableEpoch> epoch = info_->heap->OpenEpoch();
  epoch->cut_tick = info_->heap->clock();
  epoch->cut_lsn = wal_ != nullptr ? wal_->LastLsn() : kInvalidLsn;
  return epoch;
}

std::vector<BaseTable::ScanPartition> BaseTable::PartitionEpoch(
    const TableEpoch& epoch, size_t max_partitions) const {
  std::vector<ScanPartition> parts;
  const size_t pages = epoch.page_count();
  if (pages == 0 || max_partitions == 0) return parts;
  const size_t n = std::min(max_partitions, pages);
  parts.reserve(n);
  const size_t base = pages / n;
  const size_t extra = pages % n;
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t count = base + (i < extra ? 1 : 0);
    parts.push_back({next, count});
    next += count;
  }
  return parts;
}

Status BaseTable::WriteAnnotationsLocked(Address addr, Address prev_addr,
                                         Timestamp ts) {
  if (!annotated_) {
    return Status::InvalidArgument("table has no annotation columns");
  }
  const size_t prev_idx = prev_index_;
  const size_t ts_idx = prev_index_ + 1;
  bool patchable = false;
  std::string before_raw;
  {
    ASSIGN_OR_RETURN(TableHeap::TupleRef ref, info_->heap->GetView(addr));
    ASSIGN_OR_RETURN(TupleView stored,
                     TupleView::Parse(info_->schema, ref.bytes));
    patchable = stored.stored_field_count() == info_->schema.column_count();
    if (wal_ != nullptr) before_raw.assign(ref.bytes.data(), ref.bytes.size());
  }
  if (patchable) {
    // Annotation slots exist and NULL-ness never changes a slot's width,
    // so the funny fields are rewritten directly in the pinned frame —
    // the paper's in-place fix-up of a packed page, with no row copy.
    ASSIGN_OR_RETURN(TableHeap::MutableTupleRef ref,
                     info_->heap->GetMutable(addr));
    ASSIGN_OR_RETURN(
        TupleView stored,
        TupleView::Parse(info_->schema,
                         std::string_view(ref.data, ref.size)));
    RETURN_IF_ERROR(PatchFixed64Field(stored, ref.data, prev_idx,
                                      prev_addr.IsNull(), prev_addr.raw()));
    RETURN_IF_ERROR(PatchFixed64Field(
        stored, ref.data, ts_idx, ts == kNullTimestamp,
        static_cast<uint64_t>(ts)));
  } else {
    // The row predates the annotation columns (narrower than the schema):
    // its annotation slots don't physically exist, so grow it by
    // re-serializing at full width.
    ASSIGN_OR_RETURN(Tuple stored, ReadRow(info_, addr));
    stored.Set(prev_idx, Value::Addr(prev_addr));
    stored.Set(ts_idx, Value::Ts(ts));
    RETURN_IF_ERROR(UpdateRow(info_, addr, stored));
  }
  if (wal_ != nullptr) {
    // Inside a mutator's bracket the fix-up shares that transaction so it
    // commits (or rolls back) atomically with the triggering op; a bare
    // call gets its own durable bracket.
    ASSIGN_OR_RETURN(std::string after_raw, RawBytes(addr));
    const bool standalone = active_txn_ == 0;
    const TxnId txn = standalone ? next_txn_++ : active_txn_;
    if (standalone) wal_->LogBegin(txn);
    const Lsn lsn = wal_->LogPageUpdate(txn, info_->id, addr,
                                        std::move(before_raw),
                                        std::move(after_raw));
    RETURN_IF_ERROR(info_->heap->StampPageLsn(addr.page(), lsn));
    if (standalone) {
      wal_->LogCommit(txn);
      RETURN_IF_ERROR(wal_->Sync());
    }
  }
  return Status::OK();
}

// Out of line: ~unique_ptr<SecondaryIndex> needs the complete type.
BaseTable::~BaseTable() = default;

Result<SecondaryIndex*> BaseTable::CreateSecondaryIndex(
    const std::string& column) {
  if (FindSecondaryIndex(column) != nullptr) {
    return Status::AlreadyExists("index on " + column + " already exists");
  }
  ASSIGN_OR_RETURN(auto index, SecondaryIndex::Build(this, column));
  SecondaryIndex* ptr = index.get();
  indexes_.push_back(std::move(index));
  AddObserver(ptr);
  return ptr;
}

SecondaryIndex* BaseTable::FindSecondaryIndex(
    const std::string& column) const {
  for (const auto& index : indexes_) {
    if (index->column() == column) return index.get();
  }
  return nullptr;
}

Status BaseTable::DropSecondaryIndex(const std::string& column) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if ((*it)->column() == column) {
      RemoveObserver(it->get());
      indexes_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no index on " + column);
}

Status ValidateAnnotationChain(BaseTable* table) {
  if (!table->stored_schema().HasAnnotations()) {
    return Status::InvalidArgument("table has no annotation columns");
  }
  Address expected_prev = Address::Origin();
  Status scan = table->ScanAnnotated(
      [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
        if (row.prev_addr.IsNull()) {
          return Status::Internal("NULL PrevAddr at " + addr.ToString());
        }
        if (row.timestamp == kNullTimestamp) {
          return Status::Internal("NULL TimeStamp at " + addr.ToString());
        }
        if (row.prev_addr != expected_prev) {
          return Status::Internal(
              "broken chain at " + addr.ToString() + ": PrevAddr " +
              row.prev_addr.ToString() + ", expected " +
              expected_prev.ToString());
        }
        expected_prev = addr;
        return Status::OK();
      });
  return scan;
}

void BaseTable::AddObserver(TableObserver* observer) {
  observers_.push_back(observer);
}

void BaseTable::RemoveObserver(TableObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

}  // namespace snapdiff
