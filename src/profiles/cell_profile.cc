#include "profiles/cell_profile.h"

#include <algorithm>
#include <cassert>

namespace imrm::profiles {

void CellProfile::count_add(Counts& counts, CellId next) {
  const auto it = std::lower_bound(
      counts.begin(), counts.end(), next,
      [](const auto& entry, CellId id) { return entry.first < id; });
  if (it != counts.end() && it->first == next) {
    ++it->second;
  } else {
    counts.insert(it, {next, 1});
  }
}

void CellProfile::count_remove(Counts& counts, CellId next) {
  const auto it = std::lower_bound(
      counts.begin(), counts.end(), next,
      [](const auto& entry, CellId id) { return entry.first < id; });
  assert(it != counts.end() && it->first == next);
  if (--it->second == 0) counts.erase(it);
}

const CellProfile::Prev* CellProfile::find(CellId previous) const {
  const auto it = std::lower_bound(
      by_previous_.begin(), by_previous_.end(), previous,
      [](const Prev& p, CellId id) { return p.previous < id; });
  return it != by_previous_.end() && it->previous == previous ? &*it : nullptr;
}

CellProfile::Prev& CellProfile::find_or_insert(CellId previous) {
  auto it = std::lower_bound(
      by_previous_.begin(), by_previous_.end(), previous,
      [](const Prev& p, CellId id) { return p.previous < id; });
  if (it == by_previous_.end() || it->previous != previous) {
    it = by_previous_.insert(it, Prev{previous, HistoryWindow(window_), {}});
  }
  return *it;
}

void CellProfile::record(CellId previous, CellId next) {
  Prev& prev = find_or_insert(previous);
  // Same tally order as the vector-window version: add the newcomer to both
  // count sets first, then retire whatever the ring evicted.
  count_add(prev.counts, next);
  count_add(aggregate_counts_, next);
  ++total_;
  if (const std::optional<CellId> evicted = prev.window.push(next)) {
    count_remove(prev.counts, *evicted);
    count_remove(aggregate_counts_, *evicted);
    --total_;
  }
}

namespace {

void shares_from_counts(const std::vector<std::pair<CellId, std::uint32_t>>& counts,
                        std::size_t total, std::vector<CellProfile::NeighborShare>& out) {
  out.clear();
  if (total == 0) return;
  for (const auto& [cell, count] : counts) {
    out.push_back({cell, double(count) / double(total)});
  }
}

}  // namespace

void CellProfile::distribution(CellId previous, std::vector<NeighborShare>& out) const {
  const Prev* prev = find(previous);
  if (prev == nullptr) {
    out.clear();
    return;
  }
  shares_from_counts(prev->counts, prev->window.size(), out);
}

std::vector<CellProfile::NeighborShare> CellProfile::distribution(CellId previous) const {
  std::vector<NeighborShare> out;
  distribution(previous, out);
  return out;
}

void CellProfile::aggregate_distribution(std::vector<NeighborShare>& out) const {
  shares_from_counts(aggregate_counts_, total_, out);
}

std::vector<CellProfile::NeighborShare> CellProfile::aggregate_distribution() const {
  std::vector<NeighborShare> out;
  aggregate_distribution(out);
  return out;
}

std::optional<CellId> CellProfile::predict(CellId previous) const {
  const Prev* prev = find(previous);
  if (prev == nullptr || prev->window.empty()) return std::nullopt;
  // First maximum in ascending neighbor order (strict-less comparison), as
  // std::max_element over the distribution produced before the migration.
  const auto best = std::max_element(
      prev->counts.begin(), prev->counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

std::optional<CellId> CellProfile::predict_aggregate() const {
  if (total_ == 0 || aggregate_counts_.empty()) return std::nullopt;
  // Shares are count / total_, so the first maximum count is the first
  // maximum share.
  const auto best = std::max_element(
      aggregate_counts_.begin(), aggregate_counts_.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

std::size_t CellProfile::observations(CellId previous) const {
  const Prev* prev = find(previous);
  return prev == nullptr ? 0 : prev->window.size();
}

std::size_t CellProfile::memory_bytes() const {
  std::size_t total = by_previous_.capacity() * sizeof(Prev) +
                      aggregate_counts_.capacity() * sizeof(Counts::value_type);
  for (const Prev& prev : by_previous_) {
    total += prev.window.memory_bytes() +
             prev.counts.capacity() * sizeof(Counts::value_type);
  }
  return total;
}

void CellProfile::save_state(sim::CheckpointWriter& w) const {
  w.u32(id_.value());
  w.u64(window_);
  w.u64(by_previous_.size());
  for (const Prev& prev : by_previous_) {
    w.u32(prev.previous.value());
    w.u64(prev.window.size());
    for (std::size_t i = 0; i < prev.window.size(); ++i) {
      w.u32(prev.window[i].value());
    }
  }
}

CellProfile CellProfile::restore_state(sim::CheckpointReader& r) {
  const CellId id{r.u32()};
  CellProfile profile(id, std::size_t(r.u64()));
  for (std::uint64_t states = r.u64(); states-- > 0;) {
    const CellId previous{r.u32()};
    for (std::uint64_t n = r.u64(); n-- > 0;) {
      profile.record(previous, CellId{r.u32()});
    }
  }
  return profile;
}

}  // namespace imrm::profiles
