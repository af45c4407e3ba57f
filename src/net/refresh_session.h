#ifndef SNAPDIFF_NET_REFRESH_SESSION_H_
#define SNAPDIFF_NET_REFRESH_SESSION_H_

#include <cstdint>

#include "net/encoding.h"
#include "net/message.h"

namespace snapdiff {

/// The base-site half of one resumable refresh session: a MessageSink that
/// stamps every outgoing message with the session id and a 1-based,
/// monotonically increasing sequence number before handing it to the
/// channel.
///
/// On a resumed attempt (`resume_after_seq > 0`) the already-applied prefix
/// is *suppressed*: the executor re-runs its deterministic scan, every
/// message still consumes a sequence number, but messages with
/// seq <= resume_after_seq are neither metered nor delivered — only the
/// unapplied suffix touches the wire. Correctness rests on the executors
/// being deterministic over the session's scan epoch: a re-run emits the
/// byte-identical stream, so seq k names the same message in every attempt.
///
/// Executors that know the next message will be suppressed may skip
/// building its payload entirely (NextSuppressed); the suppressed message's
/// content never matters, only its sequence number.
///
/// With a WireEncoder attached (negotiated compact wire mode) every data
/// message is encoded *before* the suppression check: a resumed attempt
/// must replay the suppressed prefix through the encoder so its row shadow
/// reaches the exact state the peer's decoder holds. For the same reason
/// payload elision is disabled in encoded mode — the encoder needs the
/// real payloads (NextSuppressed reports false).
class RefreshSession : public MessageSink {
 public:
  RefreshSession(MessageSink* wire, uint64_t session_id,
                 uint64_t resume_after_seq, WireEncoder* encoder = nullptr)
      : wire_(wire),
        session_id_(session_id),
        resume_after_(resume_after_seq),
        encoder_(encoder) {}

  Status Send(const Message& msg) override {
    const uint64_t seq = ++next_seq_;
    Message stamped = msg;
    if (encoder_ != nullptr) {
      ASSIGN_OR_RETURN(stamped, encoder_->Encode(std::move(stamped)));
    }
    if (seq <= resume_after_) {
      ++suppressed_;
      return Status::OK();
    }
    stamped.session_id = session_id_;
    stamped.seq = seq;
    return wire_->Send(stamped);
  }

  /// True when the next message sent through this session is certain to be
  /// suppressed (fast-forward hint for payload elision).
  bool NextSuppressed() const {
    return encoder_ == nullptr && next_seq_ + 1 <= resume_after_;
  }

  uint64_t session_id() const { return session_id_; }
  /// Sequence number of the last message sent (0 before the first send).
  uint64_t last_seq() const { return next_seq_; }
  uint64_t suppressed() const { return suppressed_; }
  bool resumed() const { return resume_after_ > 0; }

 private:
  MessageSink* wire_;
  uint64_t session_id_;
  uint64_t resume_after_;
  WireEncoder* encoder_;
  uint64_t next_seq_ = 0;
  uint64_t suppressed_ = 0;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_NET_REFRESH_SESSION_H_
