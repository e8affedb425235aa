#include "mobility/manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/metrics.h"

namespace imrm::mobility {

void MobilityManager::bind_metrics(obs::Registry& registry) {
  handoff_counter_ = &registry.counter("mobility.handoffs");
}

void MobilityManager::bind_latency_metrics(obs::Registry& registry) {
  handoff_wall_us_ = &registry.histogram(
      "mobility.handoff_wall_us", obs::HistogramSpec::log2(0.01, 1e5, 4));
}

void MobilityManager::reserve(std::size_t portables) {
  portables_.reserve(portables);
  bucket_reserve_ = portables;
  if (residents_by_cell_.size() < map_->size()) residents_by_cell_.resize(map_->size());
}

void MobilityManager::index_insert(PortableId id, CellId cell) {
  if (cell.value() >= residents_by_cell_.size()) {
    residents_by_cell_.resize(cell.value() + 1);
  }
  auto& bucket = residents_by_cell_[cell.value()];
  if (bucket.capacity() == 0) bucket.reserve(bucket_reserve_);
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), id), id);
}

void MobilityManager::index_remove(PortableId id, CellId cell) {
  auto& bucket = residents_by_cell_[cell.value()];
  const auto it = std::lower_bound(bucket.begin(), bucket.end(), id);
  assert(it != bucket.end() && *it == id);
  bucket.erase(it);
}

PortableId MobilityManager::add_portable(CellId start) {
  const PortableId id{static_cast<PortableId::underlying>(portables_.size())};
  Portable p;
  p.id = id;
  p.current_cell = start;
  p.entered_cell = simulator_->now();
  portables_.push_back(p);
  index_insert(id, start);
  ++revision_;
  last_changed_ = id;
  return id;
}

void MobilityManager::move(PortableId id, CellId to) {
  Portable& p = portable(id);
  assert(map_->cell(p.current_cell).is_neighbor(to) &&
         "handoffs only occur between neighboring cells");

  HandoffEvent event;
  event.portable = id;
  event.from = p.current_cell;
  event.to = to;
  event.prev_of_from = p.previous_cell;
  event.time = simulator_->now();

  index_remove(id, p.current_cell);
  index_insert(id, to);
  p.previous_cell = p.current_cell;
  p.current_cell = to;
  p.entered_cell = simulator_->now();
  ++revision_;
  last_changed_ = id;

  if (handoff_counter_) handoff_counter_->add();
  if (obs::Tracer* tracer = simulator_->tracer(); tracer && tracer->enabled()) {
    if (trace_handoff_name_ == obs::kInvalidName) {
      trace_handoff_name_ = tracer->intern("handoff", "mobility");
    }
    tracer->instant(event.time, trace_handoff_name_, std::uint32_t(id.value()),
                    double(to.value()));
  }

  if (handoff_wall_us_) {
    const auto wall_start = std::chrono::steady_clock::now();
    for (const HandoffListener& listener : listeners_) listener(event);
    const auto wall_end = std::chrono::steady_clock::now();
    handoff_wall_us_->record(
        std::chrono::duration<double, std::micro>(wall_end - wall_start).count());
  } else {
    for (const HandoffListener& listener : listeners_) listener(event);
  }
}

void MobilityManager::save_state(sim::CheckpointWriter& w) const {
  w.u64(portables_.size());
  for (const Portable& p : portables_) {
    w.u32(p.id.value());
    w.u32(p.current_cell.value());
    w.u32(p.previous_cell.value());
    w.time(p.entered_cell);
    w.boolean(p.home_office.has_value());
    w.u32(p.home_office ? p.home_office->value() : CellId::invalid().value());
  }
}

void MobilityManager::restore_state(sim::CheckpointReader& r) {
  ++revision_;
  last_changed_ = PortableId::invalid();
  portables_.clear();
  portables_.resize(std::size_t(r.u64()));
  residents_by_cell_.clear();
  for (Portable& p : portables_) {
    p.id = PortableId{r.u32()};
    p.current_cell = CellId{r.u32()};
    p.previous_cell = CellId{r.u32()};
    p.entered_cell = r.time();
    const bool has_home = r.boolean();
    const CellId home{r.u32()};
    p.home_office = has_home ? std::optional<CellId>(home) : std::nullopt;
    index_insert(p.id, p.current_cell);
  }
}

}  // namespace imrm::mobility
