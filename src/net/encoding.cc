#include "net/encoding.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/coding.h"
#include "common/lz.h"

namespace snapdiff {

namespace {

// Header flags of a kEncoded payload.
constexpr uint8_t kFlagStreamStart = 1;
constexpr uint8_t kFlagStreamReset = 2;
constexpr uint8_t kFlagCompressed = 4;

// Per-entry flags.
constexpr uint8_t kEntryPrevNull = 1;   // prev_addr is the NULL sentinel
constexpr uint8_t kEntryDelta = 2;      // changed fields vs the row shadow
constexpr uint8_t kEntryEmpty = 4;      // payload-free anchor entry
constexpr uint8_t kEntryOpaque = 8;     // raw payload (schema mismatch)

// Decode hard limits: network bytes can claim anything.
constexpr uint64_t kMaxEntriesPerMessage = 1u << 20;
constexpr size_t kMaxBodyBytes = 1u << 26;

bool IsEncodableType(MessageType t) {
  switch (t) {
    case MessageType::kClear:
    case MessageType::kEntry:
    case MessageType::kUpsert:
    case MessageType::kDelete:
    case MessageType::kDeleteRange:
    case MessageType::kEntryBatch:
      return true;
    default:
      return false;
  }
}

/// A canonical tuple payload split into its parts: the verbatim null
/// bitmap and the verbatim per-field slot bytes (strings keep their length
/// prefix), so reassembly is byte-exact by construction. Slicing succeeds
/// only for payloads in fully canonical form — exact schema width, exact
/// consumption, NULL slots zeroed — anything else rides as an opaque row.
struct SlicedTuple {
  uint16_t field_count = 0;
  std::string bitmap;
  std::vector<std::string> slots;

  bool IsNull(size_t i) const {
    return (static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1;
  }
  void SetNull(size_t i, bool null) {
    if (null) {
      bitmap[i / 8] |= static_cast<char>(1 << (i % 8));
    } else {
      bitmap[i / 8] &= static_cast<char>(~(1 << (i % 8)));
    }
  }
};

std::string CanonicalNullSlot(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return std::string(1, '\0');
    case TypeId::kString: {
      std::string s;
      PutFixed32(&s, 0);
      return s;
    }
    default:
      return std::string(8, '\0');
  }
}

bool SliceTuple(std::string_view payload, const Schema& schema,
                SlicedTuple* out) {
  std::string_view in = payload;
  uint16_t stored = 0;
  if (!GetFixed16(&in, &stored).ok()) return false;
  if (stored != schema.column_count()) return false;
  const size_t bitmap_len = (stored + 7) / 8;
  if (in.size() < bitmap_len) return false;
  out->field_count = stored;
  out->bitmap.assign(in.data(), bitmap_len);
  in.remove_prefix(bitmap_len);
  out->slots.clear();
  out->slots.reserve(stored);
  for (size_t i = 0; i < stored; ++i) {
    size_t slot_len = 0;
    switch (schema.column(i).type) {
      case TypeId::kBool:
        slot_len = 1;
        break;
      case TypeId::kString: {
        uint32_t len = 0;
        std::string_view peek = in;
        if (!GetFixed32(&peek, &len).ok() || peek.size() < len) return false;
        slot_len = 4 + len;
        break;
      }
      default:
        slot_len = 8;
        break;
    }
    if (in.size() < slot_len) return false;
    out->slots.emplace_back(in.substr(0, slot_len));
    in.remove_prefix(slot_len);
    if (out->IsNull(i) &&
        out->slots.back() != CanonicalNullSlot(schema.column(i).type)) {
      return false;
    }
  }
  return in.empty();
}

void UnsliceTuple(const SlicedTuple& sliced, std::string* out) {
  out->clear();
  PutFixed16(out, sliced.field_count);
  out->append(sliced.bitmap);
  for (const std::string& slot : sliced.slots) out->append(slot);
}

uint64_t SlotAsUint64(const std::string& slot) {
  uint64_t v = 0;
  std::memcpy(&v, slot.data(), 8);
  return v;
}

std::string Uint64Slot(uint64_t v) {
  std::string s;
  PutFixed64(&s, v);
  return s;
}

/// Changed-field value coding shared by the delta row form.
void PutFieldValue(std::string* dst, TypeId type, const std::string& slot) {
  switch (type) {
    case TypeId::kBool:
      dst->push_back(slot[0]);
      break;
    case TypeId::kDouble:
      dst->append(slot);
      break;
    case TypeId::kString:
      PutVarint64(dst, slot.size() - 4);
      dst->append(slot.data() + 4, slot.size() - 4);
      break;
    default:  // int64 / timestamp / address: zigzag-varint the slot value
      PutZigzagVarint(dst, static_cast<int64_t>(SlotAsUint64(slot)));
      break;
  }
}

Status GetFieldValue(std::string_view* in, TypeId type, std::string* slot) {
  switch (type) {
    case TypeId::kBool: {
      if (in->empty()) return Status::Corruption("wire: bool underflow");
      slot->assign(1, in->front());
      in->remove_prefix(1);
      return Status::OK();
    }
    case TypeId::kDouble: {
      if (in->size() < 8) return Status::Corruption("wire: double underflow");
      slot->assign(in->data(), 8);
      in->remove_prefix(8);
      return Status::OK();
    }
    case TypeId::kString: {
      uint64_t len = 0;
      RETURN_IF_ERROR(GetVarint64(in, &len));
      if (len > in->size()) return Status::Corruption("wire: string overrun");
      slot->clear();
      PutFixed32(slot, static_cast<uint32_t>(len));
      slot->append(in->data(), len);
      in->remove_prefix(len);
      return Status::OK();
    }
    default: {
      int64_t v = 0;
      RETURN_IF_ERROR(GetZigzagVarint(in, &v));
      *slot = Uint64Slot(static_cast<uint64_t>(v));
      return Status::OK();
    }
  }
}

/// Column-major coding of the full (non-delta, non-opaque) rows of one
/// message: per column a null bitmap, then zigzag-varint delta chains for
/// the integer family, a value bitmap for bools, raw fixed64 for doubles,
/// and optionally dictionary-coded strings.
void EncodeColumnar(const std::vector<const SlicedTuple*>& rows,
                    const Schema& schema, std::string* out) {
  const size_t m = rows.size();
  const size_t bitmap_len = (m + 7) / 8;
  for (size_t c = 0; c < schema.column_count(); ++c) {
    std::string nulls(bitmap_len, '\0');
    for (size_t r = 0; r < m; ++r) {
      if (rows[r]->IsNull(c)) nulls[r / 8] |= static_cast<char>(1 << (r % 8));
    }
    out->append(nulls);
    switch (schema.column(c).type) {
      case TypeId::kBool: {
        std::string bits(bitmap_len, '\0');
        for (size_t r = 0; r < m; ++r) {
          if (!rows[r]->IsNull(c) && rows[r]->slots[c][0] != 0) {
            bits[r / 8] |= static_cast<char>(1 << (r % 8));
          }
        }
        out->append(bits);
        break;
      }
      case TypeId::kDouble: {
        for (size_t r = 0; r < m; ++r) {
          if (!rows[r]->IsNull(c)) out->append(rows[r]->slots[c]);
        }
        break;
      }
      case TypeId::kString: {
        std::vector<std::string_view> contents;
        contents.reserve(m);
        for (size_t r = 0; r < m; ++r) {
          if (rows[r]->IsNull(c)) continue;
          const std::string& slot = rows[r]->slots[c];
          contents.emplace_back(slot.data() + 4, slot.size() - 4);
        }
        std::unordered_map<std::string_view, uint64_t> dict;
        std::vector<std::string_view> dict_order;
        for (std::string_view s : contents) {
          if (dict.emplace(s, dict.size()).second) dict_order.push_back(s);
        }
        const bool use_dict =
            contents.size() >= 4 && dict.size() * 2 <= contents.size();
        out->push_back(use_dict ? 1 : 0);
        if (use_dict) {
          PutVarint64(out, dict_order.size());
          for (std::string_view s : dict_order) {
            PutVarint64(out, s.size());
            out->append(s.data(), s.size());
          }
          for (std::string_view s : contents) PutVarint64(out, dict.at(s));
        } else {
          for (std::string_view s : contents) {
            PutVarint64(out, s.size());
            out->append(s.data(), s.size());
          }
        }
        break;
      }
      default: {  // int64 / timestamp / address
        int64_t prev = 0;
        for (size_t r = 0; r < m; ++r) {
          if (rows[r]->IsNull(c)) continue;
          const int64_t v =
              static_cast<int64_t>(SlotAsUint64(rows[r]->slots[c]));
          PutZigzagVarint(out, v - prev);
          prev = v;
        }
        break;
      }
    }
  }
}

Status DecodeColumnar(std::string_view* in, size_t m, const Schema& schema,
                      std::vector<SlicedTuple>* rows) {
  const size_t f = schema.column_count();
  const size_t bitmap_len = (m + 7) / 8;
  rows->assign(m, SlicedTuple{});
  for (SlicedTuple& row : *rows) {
    row.field_count = static_cast<uint16_t>(f);
    row.bitmap.assign((f + 7) / 8, '\0');
    row.slots.resize(f);
  }
  for (size_t c = 0; c < f; ++c) {
    if (in->size() < bitmap_len) {
      return Status::Corruption("wire: column bitmap underflow");
    }
    std::string_view nulls = in->substr(0, bitmap_len);
    in->remove_prefix(bitmap_len);
    auto is_null = [&](size_t r) {
      return (static_cast<uint8_t>(nulls[r / 8]) >> (r % 8)) & 1;
    };
    const TypeId type = schema.column(c).type;
    for (size_t r = 0; r < m; ++r) {
      if (is_null(r)) {
        (*rows)[r].SetNull(c, true);
        (*rows)[r].slots[c] = CanonicalNullSlot(type);
      }
    }
    switch (type) {
      case TypeId::kBool: {
        if (in->size() < bitmap_len) {
          return Status::Corruption("wire: bool column underflow");
        }
        std::string_view bits = in->substr(0, bitmap_len);
        in->remove_prefix(bitmap_len);
        for (size_t r = 0; r < m; ++r) {
          if (is_null(r)) continue;
          const bool set = (static_cast<uint8_t>(bits[r / 8]) >> (r % 8)) & 1;
          (*rows)[r].slots[c].assign(1, set ? 1 : 0);
        }
        break;
      }
      case TypeId::kDouble: {
        for (size_t r = 0; r < m; ++r) {
          if (is_null(r)) continue;
          if (in->size() < 8) {
            return Status::Corruption("wire: double column underflow");
          }
          (*rows)[r].slots[c].assign(in->data(), 8);
          in->remove_prefix(8);
        }
        break;
      }
      case TypeId::kString: {
        if (in->empty()) {
          return Status::Corruption("wire: string column underflow");
        }
        const bool use_dict = in->front() != 0;
        in->remove_prefix(1);
        std::vector<std::string> dict;
        if (use_dict) {
          uint64_t dsize = 0;
          RETURN_IF_ERROR(GetVarint64(in, &dsize));
          if (dsize > kMaxEntriesPerMessage) {
            return Status::Corruption("wire: dictionary too large");
          }
          dict.reserve(dsize);
          for (uint64_t i = 0; i < dsize; ++i) {
            uint64_t len = 0;
            RETURN_IF_ERROR(GetVarint64(in, &len));
            if (len > in->size()) {
              return Status::Corruption("wire: dictionary overrun");
            }
            dict.emplace_back(in->substr(0, len));
            in->remove_prefix(len);
          }
        }
        for (size_t r = 0; r < m; ++r) {
          if (is_null(r)) continue;
          std::string& slot = (*rows)[r].slots[c];
          slot.clear();
          if (use_dict) {
            uint64_t idx = 0;
            RETURN_IF_ERROR(GetVarint64(in, &idx));
            if (idx >= dict.size()) {
              return Status::Corruption("wire: dictionary index out of range");
            }
            PutFixed32(&slot, static_cast<uint32_t>(dict[idx].size()));
            slot.append(dict[idx]);
          } else {
            uint64_t len = 0;
            RETURN_IF_ERROR(GetVarint64(in, &len));
            if (len > in->size()) {
              return Status::Corruption("wire: string column overrun");
            }
            PutFixed32(&slot, static_cast<uint32_t>(len));
            slot.append(in->substr(0, len));
            in->remove_prefix(len);
          }
        }
        break;
      }
      default: {
        int64_t prev = 0;
        for (size_t r = 0; r < m; ++r) {
          if (is_null(r)) continue;
          int64_t delta = 0;
          RETURN_IF_ERROR(GetZigzagVarint(in, &delta));
          prev += delta;
          (*rows)[r].slots[c] = Uint64Slot(static_cast<uint64_t>(prev));
        }
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace

namespace wire_internal {

void Rollback(StreamState* s) {
  for (auto it = s->undo.rbegin(); it != s->undo.rend(); ++it) {
    if (it->restore_all.has_value()) {
      s->rows = std::move(*it->restore_all);
    } else if (it->prior.has_value()) {
      s->rows[it->addr] = std::move(*it->prior);
    } else {
      s->rows.erase(it->addr);
    }
  }
  s->undo.clear();
}

namespace {

void FoldUpsert(StreamState* s, uint64_t addr, const std::string& payload) {
  if (payload.empty()) return;  // anchor: the row is unchanged in place
  StreamState::UndoOp op;
  op.addr = addr;
  auto it = s->rows.find(addr);
  if (it != s->rows.end()) op.prior = it->second;
  s->undo.push_back(std::move(op));
  s->rows[addr] = payload;
}

void FoldDelete(StreamState* s, uint64_t addr) {
  auto it = s->rows.find(addr);
  if (it == s->rows.end()) return;
  StreamState::UndoOp op;
  op.addr = addr;
  op.prior = std::move(it->second);
  s->undo.push_back(std::move(op));
  s->rows.erase(it);
}

}  // namespace

/// Folds one canonical data message into the shadow. Encoder and decoder
/// call this with byte-identical messages in the same order — that
/// symmetry IS the delta-coding contract.
void FoldCanonical(StreamState* s, const Message& msg,
                   const std::vector<Message>* batch_entries) {
  switch (msg.type) {
    case MessageType::kEntry:
    case MessageType::kUpsert:
      FoldUpsert(s, msg.base_addr.raw(), msg.payload);
      break;
    case MessageType::kEntryBatch:
      if (batch_entries != nullptr) {
        for (const Message& e : *batch_entries) {
          FoldUpsert(s, e.base_addr.raw(), e.payload);
        }
      }
      break;
    case MessageType::kDelete:
      FoldDelete(s, msg.base_addr.raw());
      break;
    case MessageType::kDeleteRange: {
      const uint64_t lo = msg.base_addr.raw();
      const uint64_t hi = msg.prev_addr.raw();
      for (auto it = s->rows.lower_bound(lo);
           it != s->rows.end() && it->first <= hi;) {
        StreamState::UndoOp op;
        op.addr = it->first;
        op.prior = std::move(it->second);
        s->undo.push_back(std::move(op));
        it = s->rows.erase(it);
      }
      break;
    }
    case MessageType::kClear: {
      StreamState::UndoOp op;
      op.restore_all = std::move(s->rows);
      s->undo.push_back(std::move(op));
      s->rows.clear();
      break;
    }
    default:
      break;
  }
}

}  // namespace wire_internal

using wire_internal::FoldCanonical;
using wire_internal::Rollback;
using wire_internal::StreamState;

// ---------------------------------------------------------------------------
// WireEncodeMemo

bool WireEncodeMemo::Lookup(std::string_view key, CachedBody* out) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : ring_) {
    if (e.key == key) {
      *out = e.body;
      ++hits_;
      return true;
    }
  }
  return false;
}

void WireEncodeMemo::Insert(std::string key, CachedBody body) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < kRingSize) {
    ring_.push_back(Entry{std::move(key), std::move(body)});
    return;
  }
  ring_[next_] = Entry{std::move(key), std::move(body)};
  next_ = (next_ + 1) % kRingSize;
}

uint64_t WireEncodeMemo::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

// ---------------------------------------------------------------------------
// WireEncoder

WireEncoder::WireEncoder(WireCodecOptions options, WireSchemaResolver resolver,
                         std::shared_ptr<WireEncodeMemo> memo)
    : options_(options),
      resolver_(std::move(resolver)),
      memo_(memo != nullptr ? std::move(memo)
                            : std::make_shared<WireEncodeMemo>()) {}

void WireEncoder::SyncGeneration(SnapshotId snapshot_id, uint64_t peer_gen) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamState& s = streams_[snapshot_id];
  if (s.gen == peer_gen) return;
  // The peer committed differently than we did (lost ack, restart on either
  // end). Adopt its generation over an empty shadow and tell it to empty
  // too: one full-payload round re-establishes the shared dictionary.
  s.rows.clear();
  s.undo.clear();
  s.gen = peer_gen;
  s.open_session = 0;
  s.dirty = false;
  s.pending_reset = true;
  ++stats_.stream_resets;
}

void WireEncoder::BeginStream(SnapshotId snapshot_id, uint64_t session_id,
                              bool resumed) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamState& s = streams_[snapshot_id];
  Rollback(&s);
  s.open_session = session_id;
  s.dirty = false;
  if (!resumed) s.pending_start = true;
}

void WireEncoder::CommitStream(SnapshotId snapshot_id, uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(snapshot_id);
  if (it == streams_.end()) return;
  StreamState& s = it->second;
  if (s.open_session != session_id || session_id == 0) return;
  s.undo.clear();
  if (s.dirty) ++s.gen;
  s.dirty = false;
  s.open_session = 0;
  s.pending_start = false;
  s.pending_reset = false;
}

uint64_t WireEncoder::generation(SnapshotId snapshot_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(snapshot_id);
  return it == streams_.end() ? 0 : it->second.gen;
}

WireCodecStats WireEncoder::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WireCodecStats out = stats_;
  if (memo_ != nullptr) out.memo_hits = memo_->hits();
  return out;
}

Result<Message> WireEncoder::Encode(Message msg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!IsEncodableType(msg.type)) return msg;
  auto sit = streams_.find(msg.snapshot_id);
  if (sit == streams_.end() || sit->second.open_session == 0) return msg;
  StreamState& s = sit->second;

  const Schema* schema =
      resolver_ != nullptr ? resolver_(msg.snapshot_id) : nullptr;

  // Collect the entries to encode (none for wrapped control messages).
  std::vector<Message> entries;
  uint8_t sub_type = 0;
  const bool is_batch = msg.type == MessageType::kEntryBatch;
  if (msg.type == MessageType::kEntry || msg.type == MessageType::kUpsert) {
    entries.push_back(msg);
  } else if (is_batch) {
    ASSIGN_OR_RETURN(entries, UnpackEntryBatch(msg));
    sub_type = static_cast<uint8_t>(msg.payload[0]);
  }

  // Memo key: everything the body is a function of — the canonical message
  // content, the shadow rows it consults, and the schema shape.
  std::string key;
  key.push_back(static_cast<char>(msg.type));
  PutFixed64(&key, msg.base_addr.raw());
  PutFixed64(&key, msg.prev_addr.raw());
  PutLengthPrefixed(&key, msg.payload);
  for (const Message& e : entries) {
    auto rit = s.rows.find(e.base_addr.raw());
    if (rit == s.rows.end()) {
      key.push_back(0);
    } else {
      key.push_back(1);
      PutLengthPrefixed(&key, rit->second);
    }
  }
  if (schema != nullptr) {
    PutVarint64(&key, schema->column_count());
    for (const Column& col : schema->columns()) {
      key.push_back(static_cast<char>(col.type));
    }
  } else {
    key.push_back(static_cast<char>(0xff));
  }

  WireEncodeMemo::CachedBody cached;
  const bool memo_hit = memo_ != nullptr && memo_->Lookup(key, &cached);
  if (!memo_hit) {
    std::string body;
    if (entries.empty()) {
      // Wrapped control message (CLEAR / DELETE / DELETE_RANGE): all
      // information lives in the preserved outer header.
      body = msg.payload;
    } else {
      if (is_batch) body.push_back(static_cast<char>(sub_type));
      // Plan each row: delta vs shadow, columnar, or opaque.
      std::vector<uint8_t> flags(entries.size(), 0);
      std::vector<SlicedTuple> sliced(entries.size());
      std::vector<SlicedTuple> base_sliced(entries.size());
      std::vector<const std::string*> bases(entries.size(), nullptr);
      for (size_t i = 0; i < entries.size(); ++i) {
        const Message& e = entries[i];
        if (e.prev_addr.IsNull()) flags[i] |= kEntryPrevNull;
        if (e.payload.empty()) {
          flags[i] |= kEntryEmpty;
          continue;
        }
        auto rit = s.rows.find(e.base_addr.raw());
        if (rit != s.rows.end()) bases[i] = &rit->second;
        if (bases[i] != nullptr && *bases[i] == e.payload) {
          flags[i] |= kEntryDelta;  // nchanged = 0: previous version verbatim
          continue;
        }
        const bool self_ok =
            schema != nullptr && SliceTuple(e.payload, *schema, &sliced[i]);
        if (self_ok && bases[i] != nullptr &&
            SliceTuple(*bases[i], *schema, &base_sliced[i])) {
          flags[i] |= kEntryDelta;
        } else if (!self_ok) {
          flags[i] |= kEntryOpaque;
        }
        // else: columnar (no flag bit)
      }
      for (uint8_t f : flags) body.push_back(static_cast<char>(f));
      if (is_batch) {
        uint64_t prev_addr = 0;
        for (const Message& e : entries) {
          PutZigzagVarint(&body, static_cast<int64_t>(e.base_addr.raw()) -
                                     static_cast<int64_t>(prev_addr));
          prev_addr = e.base_addr.raw();
        }
        for (const Message& e : entries) {
          if (e.prev_addr.IsNull()) continue;
          PutZigzagVarint(&body, static_cast<int64_t>(e.base_addr.raw()) -
                                     static_cast<int64_t>(e.prev_addr.raw()));
        }
      }
      // Delta rows.
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!(flags[i] & kEntryDelta)) continue;
        if (bases[i] != nullptr && *bases[i] == entries[i].payload) {
          PutVarint64(&body, 0);
          continue;
        }
        std::vector<size_t> changed;
        for (size_t c = 0; c < schema->column_count(); ++c) {
          if (sliced[i].IsNull(c) != base_sliced[i].IsNull(c) ||
              sliced[i].slots[c] != base_sliced[i].slots[c]) {
            changed.push_back(c);
          }
        }
        PutVarint64(&body, changed.size());
        for (size_t c : changed) {
          PutVarint64(&body, c);
          body.push_back(sliced[i].IsNull(c) ? 1 : 0);
          if (!sliced[i].IsNull(c)) {
            PutFieldValue(&body, schema->column(c).type, sliced[i].slots[c]);
          }
        }
        ++stats_.delta_rows;
      }
      // Opaque rows.
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!(flags[i] & kEntryOpaque)) continue;
        PutVarint64(&body, entries[i].payload.size());
        body.append(entries[i].payload);
        ++stats_.opaque_rows;
      }
      // Columnar rows.
      std::vector<const SlicedTuple*> columnar;
      for (size_t i = 0; i < entries.size(); ++i) {
        if (flags[i] & (kEntryDelta | kEntryEmpty | kEntryOpaque)) continue;
        columnar.push_back(&sliced[i]);
      }
      if (!columnar.empty()) {
        EncodeColumnar(columnar, *schema, &body);
        stats_.columnar_rows += columnar.size();
      }
    }
    cached.compressed = false;
    if (options_.compression && body.size() >= 64) {
      std::string block;
      LzCompress(body, &block);
      std::string packed;
      PutVarint64(&packed, body.size());
      packed.append(block);
      if (packed.size() < body.size()) {
        body = std::move(packed);
        cached.compressed = true;
        ++stats_.compressed_blocks;
      }
    }
    cached.body = std::move(body);
    if (memo_ != nullptr) memo_->Insert(std::move(key), cached);
  }

  uint8_t header_flags = 0;
  if (s.pending_start) {
    header_flags |= kFlagStreamStart;
    s.pending_start = false;
  }
  if (s.pending_reset) header_flags |= kFlagStreamReset;
  if (cached.compressed) header_flags |= kFlagCompressed;

  Message out = msg;
  out.type = MessageType::kEncoded;
  out.payload.clear();
  out.payload.push_back(static_cast<char>(msg.type));
  out.payload.push_back(static_cast<char>(header_flags));
  PutVarint64(&out.payload, s.gen);
  PutVarint64(&out.payload, entries.size());
  out.payload.append(cached.body);

  FoldCanonical(&s, msg, &entries);
  s.dirty = true;
  ++stats_.encoded_messages;
  stats_.bytes_in += msg.payload.size();
  stats_.bytes_out += out.payload.size();
  return out;
}

// ---------------------------------------------------------------------------
// WireDecoder

WireDecoder::WireDecoder(WireCodecOptions options, WireSchemaResolver resolver)
    : options_(options), resolver_(std::move(resolver)) {}

uint64_t WireDecoder::generation(SnapshotId snapshot_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(snapshot_id);
  return it == streams_.end() ? 0 : it->second.gen;
}

WireCodecStats WireDecoder::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<Message> WireDecoder::Admit(Message msg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (msg.type != MessageType::kEncoded) {
    // Canonical traffic passes through; the only stream bookkeeping it can
    // carry is the END that commits an open encoded session.
    if (msg.type == MessageType::kEndOfRefresh && msg.session_id != 0) {
      auto it = streams_.find(msg.snapshot_id);
      if (it != streams_.end() &&
          it->second.open_session == msg.session_id) {
        StreamState& s = it->second;
        s.undo.clear();
        if (s.dirty) ++s.gen;
        s.dirty = false;
        s.open_session = 0;
      }
    }
    return msg;
  }

  if (msg.session_id == 0) {
    return Status::Corruption("wire: encoded message without a session");
  }
  std::string_view in = msg.payload;
  if (in.size() < 2) return Status::Corruption("wire: encoded header underflow");
  const uint8_t inner_raw = static_cast<uint8_t>(in[0]);
  const uint8_t header_flags = static_cast<uint8_t>(in[1]);
  in.remove_prefix(2);
  if (!IsEncodableType(static_cast<MessageType>(inner_raw))) {
    return Status::Corruption("wire: bad inner message type");
  }
  const MessageType inner = static_cast<MessageType>(inner_raw);
  uint64_t stream_gen = 0;
  uint64_t count = 0;
  RETURN_IF_ERROR(GetVarint64(&in, &stream_gen));
  RETURN_IF_ERROR(GetVarint64(&in, &count));
  if (count > kMaxEntriesPerMessage) {
    return Status::Corruption("wire: entry count too large");
  }

  StreamState& s = streams_[msg.snapshot_id];
  if (msg.session_id != s.open_session) {
    // A new stream supersedes whatever was in flight: drop its
    // uncommitted folds before admitting the newcomer.
    Rollback(&s);
    s.open_session = msg.session_id;
    s.dirty = false;
    // The encoder keeps flagging a reset until some stream commits it, so
    // later messages of this same stream may still carry the flag; it only
    // acts at the transition (acting again would wipe in-session folds).
    if (header_flags & kFlagStreamReset) {
      s.rows.clear();
      s.gen = stream_gen;
      ++stats_.stream_resets;
    }
  }
  if (stream_gen != s.gen) {
    return Status::Corruption("wire: stream generation mismatch");
  }

  std::string decompressed;
  if (header_flags & kFlagCompressed) {
    uint64_t raw_size = 0;
    RETURN_IF_ERROR(GetVarint64(&in, &raw_size));
    if (raw_size > kMaxBodyBytes) {
      return Status::Corruption("wire: compressed body too large");
    }
    RETURN_IF_ERROR(LzDecompress(in, raw_size, &decompressed));
    if (decompressed.size() != raw_size) {
      return Status::Corruption("wire: compressed body size mismatch");
    }
    in = decompressed;
  }

  Message out = msg;
  out.type = inner;
  out.payload.clear();

  std::vector<Message> entries;
  if (count == 0) {
    // Wrapped control message: the body is the canonical payload verbatim.
    out.payload.assign(in);
    in = std::string_view();
  } else {
    const Schema* schema =
        resolver_ != nullptr ? resolver_(msg.snapshot_id) : nullptr;
    const bool is_batch = inner == MessageType::kEntryBatch;
    if (!is_batch && count != 1) {
      return Status::Corruption("wire: singleton message with entry count");
    }
    uint8_t sub_type = 0;
    if (is_batch) {
      if (in.empty()) return Status::Corruption("wire: batch body underflow");
      sub_type = static_cast<uint8_t>(in[0]);
      if (sub_type != static_cast<uint8_t>(MessageType::kEntry) &&
          sub_type != static_cast<uint8_t>(MessageType::kUpsert)) {
        return Status::Corruption("wire: bad batch sub-type");
      }
      in.remove_prefix(1);
    }
    if (in.size() < count) {
      return Status::Corruption("wire: entry flags underflow");
    }
    std::vector<uint8_t> flags(count);
    for (uint64_t i = 0; i < count; ++i) {
      flags[i] = static_cast<uint8_t>(in[i]);
    }
    in.remove_prefix(count);

    entries.assign(count, Message{});
    for (uint64_t i = 0; i < count; ++i) {
      entries[i].type = is_batch ? static_cast<MessageType>(sub_type) : inner;
      entries[i].snapshot_id = msg.snapshot_id;
    }
    if (is_batch) {
      uint64_t prev_addr = 0;
      for (uint64_t i = 0; i < count; ++i) {
        int64_t delta = 0;
        RETURN_IF_ERROR(GetZigzagVarint(&in, &delta));
        const uint64_t addr = prev_addr + static_cast<uint64_t>(delta);
        entries[i].base_addr = Address::FromRaw(addr);
        prev_addr = addr;
      }
      for (uint64_t i = 0; i < count; ++i) {
        if (flags[i] & kEntryPrevNull) {
          entries[i].prev_addr = Address::Null();
          continue;
        }
        int64_t delta = 0;
        RETURN_IF_ERROR(GetZigzagVarint(&in, &delta));
        entries[i].prev_addr = Address::FromRaw(entries[i].base_addr.raw() -
                                                static_cast<uint64_t>(delta));
      }
    } else {
      entries[0].base_addr = msg.base_addr;
      entries[0].prev_addr = msg.prev_addr;
    }

    // Delta rows.
    for (uint64_t i = 0; i < count; ++i) {
      if (!(flags[i] & kEntryDelta)) continue;
      auto rit = s.rows.find(entries[i].base_addr.raw());
      if (rit == s.rows.end()) {
        return Status::Corruption("wire: delta references unknown row");
      }
      uint64_t nchanged = 0;
      RETURN_IF_ERROR(GetVarint64(&in, &nchanged));
      if (nchanged == 0) {
        entries[i].payload = rit->second;
        continue;
      }
      if (schema == nullptr) {
        return Status::Corruption("wire: delta row without a schema");
      }
      SlicedTuple base;
      if (!SliceTuple(rit->second, *schema, &base)) {
        return Status::Corruption("wire: delta base does not slice");
      }
      if (nchanged > schema->column_count()) {
        return Status::Corruption("wire: delta changes more fields than exist");
      }
      for (uint64_t k = 0; k < nchanged; ++k) {
        uint64_t field = 0;
        RETURN_IF_ERROR(GetVarint64(&in, &field));
        if (field >= schema->column_count()) {
          return Status::Corruption("wire: delta field index out of range");
        }
        if (in.empty()) return Status::Corruption("wire: delta null underflow");
        const bool null = in.front() != 0;
        in.remove_prefix(1);
        base.SetNull(field, null);
        if (null) {
          base.slots[field] = CanonicalNullSlot(schema->column(field).type);
        } else {
          RETURN_IF_ERROR(GetFieldValue(&in, schema->column(field).type,
                                        &base.slots[field]));
        }
      }
      UnsliceTuple(base, &entries[i].payload);
      ++stats_.delta_rows;
    }
    // Opaque rows.
    for (uint64_t i = 0; i < count; ++i) {
      if (!(flags[i] & kEntryOpaque)) continue;
      uint64_t len = 0;
      RETURN_IF_ERROR(GetVarint64(&in, &len));
      if (len > in.size()) {
        return Status::Corruption("wire: opaque row overrun");
      }
      entries[i].payload.assign(in.substr(0, len));
      in.remove_prefix(len);
      ++stats_.opaque_rows;
    }
    // Columnar rows.
    std::vector<uint64_t> columnar_idx;
    for (uint64_t i = 0; i < count; ++i) {
      if (flags[i] & (kEntryDelta | kEntryEmpty | kEntryOpaque)) continue;
      columnar_idx.push_back(i);
    }
    if (!columnar_idx.empty()) {
      if (schema == nullptr) {
        return Status::Corruption("wire: columnar rows without a schema");
      }
      std::vector<SlicedTuple> rows;
      RETURN_IF_ERROR(DecodeColumnar(&in, columnar_idx.size(), *schema, &rows));
      for (size_t k = 0; k < columnar_idx.size(); ++k) {
        UnsliceTuple(rows[k], &entries[columnar_idx[k]].payload);
      }
      stats_.columnar_rows += columnar_idx.size();
    }

    if (is_batch) {
      ASSIGN_OR_RETURN(Message rebuilt, MakeEntryBatch(entries));
      out.payload = std::move(rebuilt.payload);
    } else {
      out.payload = std::move(entries[0].payload);
    }
  }
  if (!in.empty()) {
    return Status::Corruption("wire: trailing bytes in encoded body");
  }

  FoldCanonical(&s, out, &entries);
  s.dirty = true;
  ++stats_.encoded_messages;
  stats_.bytes_in += msg.payload.size();
  stats_.bytes_out += out.payload.size();
  return out;
}

// ---------------------------------------------------------------------------

WireCodecStats& operator+=(WireCodecStats& a, const WireCodecStats& b) {
  a.encoded_messages += b.encoded_messages;
  a.delta_rows += b.delta_rows;
  a.columnar_rows += b.columnar_rows;
  a.opaque_rows += b.opaque_rows;
  a.compressed_blocks += b.compressed_blocks;
  a.memo_hits += b.memo_hits;
  a.bytes_in += b.bytes_in;
  a.bytes_out += b.bytes_out;
  a.stream_resets += b.stream_resets;
  return a;
}

uint64_t WireCaps(bool encoding, bool compression) {
  return (encoding ? kWireCapEncoding : 0) |
         (compression ? kWireCapCompression : 0);
}

uint64_t NegotiateWireCaps(uint64_t offered, uint64_t accepted) {
  const uint64_t caps = offered & accepted;
  return (caps & kWireCapEncoding) != 0 ? caps : 0;
}

Result<uint64_t> EncodedEntryCount(const Message& msg) {
  if (msg.type != MessageType::kEncoded) {
    return Status::InvalidArgument("not an ENCODED message");
  }
  std::string_view in = msg.payload;
  if (in.size() < 2) return Status::Corruption("wire: encoded header underflow");
  in.remove_prefix(2);
  uint64_t gen = 0;
  uint64_t count = 0;
  RETURN_IF_ERROR(GetVarint64(&in, &gen));
  RETURN_IF_ERROR(GetVarint64(&in, &count));
  return count;
}

Result<MessageType> EncodedInnerType(const Message& msg) {
  if (msg.type != MessageType::kEncoded) {
    return Status::InvalidArgument("not an ENCODED message");
  }
  if (msg.payload.empty()) {
    return Status::Corruption("wire: encoded header underflow");
  }
  const uint8_t inner = static_cast<uint8_t>(msg.payload[0]);
  if (!IsEncodableType(static_cast<MessageType>(inner))) {
    return Status::Corruption("wire: bad inner message type");
  }
  return static_cast<MessageType>(inner);
}

}  // namespace snapdiff
