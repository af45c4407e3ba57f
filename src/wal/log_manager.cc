#include "wal/log_manager.h"

#include <unordered_set>

#include "obs/flight_recorder.h"
#include "obs/log.h"

namespace snapdiff {

LogManager::LogManager() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metric_records_ = reg.GetCounter("wal.records");
  metric_bytes_ = reg.GetCounter("wal.bytes");
  metric_culls_ = reg.GetCounter("wal.culls");
  metric_cull_records_scanned_ = reg.GetCounter("wal.cull.records_scanned");
  metric_truncations_ = reg.GetCounter("wal.truncations");
}

Lsn LogManager::Append(LogRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.lsn = base_lsn_ + records_.size() + 1;
  records_.push_back(std::move(record));
  metric_records_->Inc();
  metric_bytes_->Inc(records_.back().SerializedSize());
  SNAPDIFF_FR_INSTANT("wal.append", records_.back().SerializedSize());
  if (sink_ != nullptr) sink_->Append(records_.back());
  return records_.back().lsn;
}

Status LogManager::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ == nullptr) return Status::OK();
  return sink_->Sync();
}

Status LogManager::RestoreFrom(std::vector<LogRecord> records) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!records_.empty() || base_lsn_ != 0) {
    return Status::InvalidArgument("RestoreFrom on a non-empty log");
  }
  if (records.empty()) return Status::OK();
  base_lsn_ = records.front().lsn - 1;
  Lsn expect = records.front().lsn;
  for (const LogRecord& rec : records) {
    if (rec.lsn != expect++) {
      return Status::Corruption("non-contiguous LSNs in recovered log");
    }
  }
  records_.assign(std::make_move_iterator(records.begin()),
                  std::make_move_iterator(records.end()));
  return Status::OK();
}

Lsn LogManager::LogBegin(TxnId txn) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kBegin;
  return Append(std::move(rec));
}

Lsn LogManager::LogCommit(TxnId txn) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kCommit;
  return Append(std::move(rec));
}

Lsn LogManager::LogAbort(TxnId txn) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kAbort;
  return Append(std::move(rec));
}

Lsn LogManager::LogInsert(TxnId txn, TableId table, Address addr,
                          std::string after) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kInsert;
  rec.table_id = table;
  rec.addr = addr;
  rec.after = std::move(after);
  return Append(std::move(rec));
}

Lsn LogManager::LogUpdate(TxnId txn, TableId table, Address addr,
                          std::string before, std::string after) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kUpdate;
  rec.table_id = table;
  rec.addr = addr;
  rec.before = std::move(before);
  rec.after = std::move(after);
  return Append(std::move(rec));
}

Lsn LogManager::LogDelete(TxnId txn, TableId table, Address addr,
                          std::string before) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kDelete;
  rec.table_id = table;
  rec.addr = addr;
  rec.before = std::move(before);
  return Append(std::move(rec));
}

Lsn LogManager::LogPageInsert(TxnId txn, TableId table, Address addr,
                              std::string after) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kPageInsert;
  rec.table_id = table;
  rec.addr = addr;
  rec.after = std::move(after);
  return Append(std::move(rec));
}

Lsn LogManager::LogPageUpdate(TxnId txn, TableId table, Address addr,
                              std::string before, std::string after) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kPageUpdate;
  rec.table_id = table;
  rec.addr = addr;
  rec.before = std::move(before);
  rec.after = std::move(after);
  return Append(std::move(rec));
}

Lsn LogManager::LogPageDelete(TxnId txn, TableId table, Address addr,
                              std::string before) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kPageDelete;
  rec.table_id = table;
  rec.addr = addr;
  rec.before = std::move(before);
  return Append(std::move(rec));
}

Lsn LogManager::LogAllocPage(TxnId txn, TableId table, PageId page) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = LogRecordType::kAllocPage;
  rec.table_id = table;
  rec.addr = Address::FromPageSlot(page, 0);
  return Append(std::move(rec));
}

Lsn LogManager::LogPageImage(PageId page, std::string image) {
  LogRecord rec;
  rec.type = LogRecordType::kPageImage;
  rec.addr = Address::FromPageSlot(page, 0);
  rec.after = std::move(image);
  return Append(std::move(rec));
}

Lsn LogManager::LogCheckpoint(std::string payload) {
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  rec.after = std::move(payload);
  return Append(std::move(rec));
}

Result<const LogRecord*> LogManager::Get(Lsn lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (lsn == kInvalidLsn || lsn > base_lsn_ + records_.size()) {
    return Status::NotFound("no record with lsn " + std::to_string(lsn));
  }
  if (lsn <= base_lsn_) {
    return Status::NotFound("lsn " + std::to_string(lsn) + " truncated");
  }
  return &records_[lsn - base_lsn_ - 1];
}

std::vector<const LogRecord*> LogManager::Scan(Lsn from_lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const LogRecord*> out;
  const size_t start = from_lsn > base_lsn_ ? from_lsn - base_lsn_ : 0;
  for (size_t i = start; i < records_.size(); ++i) {
    out.push_back(&records_[i]);
  }
  return out;
}

Result<std::map<Address, NetChange>> LogManager::CollectCommittedChanges(
    TableId table, Lsn from_lsn, CullStats* stats, Lsn end_lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (from_lsn < base_lsn_) {
    return Status::OutOfRange(
        "log truncated past requested start lsn " + std::to_string(from_lsn) +
        "; full refresh required");
  }
  const size_t local_from = from_lsn - base_lsn_;
  // The cut: records with lsn > end_lsn are invisible to this cull (they
  // committed after the caller's epoch opened).
  const size_t local_end =
      end_lsn == kInvalidLsn
          ? records_.size()
          : std::min<size_t>(records_.size(),
                             end_lsn > base_lsn_ ? end_lsn - base_lsn_ : 0);
  metric_culls_->Inc();
  // Pass 1: find transactions committed within or after the interval (but
  // at or before the cut). A transaction's changes count once its commit
  // record exists anywhere in the retained, visible log.
  std::unordered_set<TxnId> committed;
  for (size_t i = 0; i < local_end; ++i) {
    if (records_[i].type == LogRecordType::kCommit) {
      committed.insert(records_[i].txn_id);
    }
  }

  // Pass 2: fold data records of committed transactions, in LSN order.
  std::map<Address, NetChange> net;
  for (size_t i = local_from; i < local_end; ++i) {
    const LogRecord& rec = records_[i];
    if (stats != nullptr) {
      ++stats->records_scanned;
      stats->bytes_scanned += rec.SerializedSize();
    }
    metric_cull_records_scanned_->Inc();
    if (!rec.IsDataRecord() || rec.table_id != table) continue;
    if (!committed.contains(rec.txn_id)) continue;
    if (stats != nullptr) ++stats->relevant_records;

    auto it = net.find(rec.addr);
    if (it == net.end()) {
      NetChange change;
      change.addr = rec.addr;
      switch (rec.type) {
        case LogRecordType::kInsert:
          change.kind = NetChange::Kind::kInsert;
          change.after = rec.after;
          break;
        case LogRecordType::kUpdate:
          change.kind = NetChange::Kind::kUpdate;
          change.before = rec.before;
          change.after = rec.after;
          break;
        case LogRecordType::kDelete:
          change.kind = NetChange::Kind::kDelete;
          change.before = rec.before;
          break;
        default:
          break;
      }
      net.emplace(rec.addr, std::move(change));
      continue;
    }
    NetChange& change = it->second;
    switch (rec.type) {
      case LogRecordType::kInsert:
        // Slot reuse: a delete followed by an insert at the same address.
        if (change.kind == NetChange::Kind::kDelete) {
          // Net effect is an update of the old image to the new one.
          change.kind = NetChange::Kind::kUpdate;
          change.after = rec.after;
        } else {
          change.kind = NetChange::Kind::kInsert;
          change.after = rec.after;
        }
        break;
      case LogRecordType::kUpdate:
        change.after = rec.after;
        break;
      case LogRecordType::kDelete:
        if (change.kind == NetChange::Kind::kInsert) {
          // Inserted and deleted inside the interval: no net effect.
          net.erase(it);
        } else {
          change.kind = NetChange::Kind::kDelete;
          change.after.clear();
        }
        break;
      default:
        break;
    }
  }
  return net;
}

void LogManager::Truncate(Lsn up_to) {
  std::lock_guard<std::mutex> lock(mu_);
  if (up_to <= base_lsn_) return;
  metric_truncations_->Inc();
  SNAPDIFF_LOG(Debug) << "wal truncate" << obs::kv("up_to", up_to);
  const size_t drop = std::min<size_t>(up_to - base_lsn_, records_.size());
  records_.erase(records_.begin(), records_.begin() + drop);
  base_lsn_ += drop;
}

size_t LogManager::retained_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const LogRecord& rec : records_) bytes += rec.SerializedSize();
  return bytes;
}

}  // namespace snapdiff
