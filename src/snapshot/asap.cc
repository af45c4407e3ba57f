#include "snapshot/asap.h"

#include "common/logging.h"
#include "obs/log.h"

namespace snapdiff {

namespace {

BoundExpression BindOrDie(const Expression& restriction,
                          const Schema& schema) {
  auto bound = restriction.Bind(schema);
  SNAPDIFF_CHECK(bound.ok()) << bound.status().ToString();
  return std::move(bound).value();
}

}  // namespace

AsapPropagator::AsapPropagator(SnapshotDescriptor* desc, BaseTable* base,
                               Channel* channel, bool buffer_on_partition)
    : desc_(desc),
      base_(base),
      channel_(channel),
      buffer_on_partition_(buffer_on_partition),
      restriction_(BindOrDie(*desc->restriction, base->user_schema())) {
  auto projected = base->user_schema().Project(desc->projection);
  SNAPDIFF_CHECK(projected.ok()) << projected.status().ToString();
  projected_schema_ = std::move(projected).value();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metric_propagated_ = reg.GetCounter("snapshot.asap.propagated");
  metric_buffered_ = reg.GetCounter("snapshot.asap.buffered");
  metric_rejected_ = reg.GetCounter("snapshot.asap.rejected");
  metric_buffer_depth_ = reg.GetGauge("snapshot.asap.buffer_depth");
}

Result<bool> AsapPropagator::Qualifies(const Tuple& user_row) const {
  return restriction_.Qualifies(user_row);
}

void AsapPropagator::Propagate(Message msg) {
  std::lock_guard<std::mutex> lock(mu_);
  Status sent = Status::Unavailable("propagation paused for initial copy");
  if (!paused_) sent = channel_->Send(msg);
  if (sent.ok()) {
    ++stats_.propagated;
    metric_propagated_->Inc();
    return;
  }
  if (paused_ || buffer_on_partition_) {
    buffer_.push_back(std::move(msg));
    ++stats_.buffered;
    metric_buffered_->Inc();
    metric_buffer_depth_->Set(static_cast<int64_t>(buffer_.size()));
    stats_.buffered_high_water =
        std::max<uint64_t>(stats_.buffered_high_water, buffer_.size());
  } else {
    ++stats_.rejected;
    metric_rejected_->Inc();
    SNAPDIFF_LOG(Warn) << "asap change rejected while partitioned"
                       << obs::kv("snapshot", desc_->name);
  }
}

Status AsapPropagator::FlushBuffered() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!buffer_.empty()) {
    RETURN_IF_ERROR(channel_->Send(buffer_.front()));
    ++stats_.propagated;
    metric_propagated_->Inc();
    buffer_.pop_front();
    metric_buffer_depth_->Set(static_cast<int64_t>(buffer_.size()));
  }
  return Status::OK();
}

void AsapPropagator::OnInsert(Address addr, const Tuple& after) {
  auto q = Qualifies(after);
  if (!q.ok()) return;
  if (!*q) return;
  auto projected = after.Project(base_->user_schema(), desc_->projection);
  if (!projected.ok()) return;
  auto payload = projected->Serialize(projected_schema_);
  if (!payload.ok()) return;
  Propagate(MakeUpsert(desc_->id, addr, std::move(*payload)));
}

void AsapPropagator::OnUpdate(Address addr, const Tuple& before,
                              const Tuple& after) {
  auto before_q = Qualifies(before);
  auto after_q = Qualifies(after);
  if (!before_q.ok() || !after_q.ok()) return;
  if (*after_q) {
    auto projected = after.Project(base_->user_schema(), desc_->projection);
    if (!projected.ok()) return;
    auto payload = projected->Serialize(projected_schema_);
    if (!payload.ok()) return;
    Propagate(MakeUpsert(desc_->id, addr, std::move(*payload)));
  } else if (*before_q) {
    Propagate(MakeDeleteMsg(desc_->id, addr));
  }
}

void AsapPropagator::OnDelete(Address addr, const Tuple& before) {
  auto q = Qualifies(before);
  if (!q.ok() || !*q) return;
  Propagate(MakeDeleteMsg(desc_->id, addr));
}

}  // namespace snapdiff
