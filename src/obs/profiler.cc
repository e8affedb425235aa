#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <string>

#include "obs/json.h"

namespace imrm::obs {

PhaseId Profiler::intern(std::string_view name) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].name == name) return PhaseId(i);
  }
  phases_.push_back(Phase{std::string(name), 0, 0, 0, 0, 0});
  return PhaseId(phases_.size() - 1);
}

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot snap;
  snap.phases.reserve(phases_.size());
  for (const Phase& p : phases_) {
    if (p.calls == 0) continue;
    snap.phases.push_back({p.name, p.calls, p.total_ns, p.self_ns, p.min_ns, p.max_ns});
  }
  std::sort(snap.phases.begin(), snap.phases.end(),
            [](const PhaseSample& a, const PhaseSample& b) { return a.name < b.name; });
  return snap;
}

void ProfileSnapshot::merge(const ProfileSnapshot& other) {
  for (const PhaseSample& theirs : other.phases) {
    const auto it = std::lower_bound(
        phases.begin(), phases.end(), theirs.name,
        [](const PhaseSample& s, const std::string& n) { return s.name < n; });
    if (it != phases.end() && it->name == theirs.name) {
      if (it->calls == 0) {
        it->min_ns = theirs.min_ns;
        it->max_ns = theirs.max_ns;
      } else if (theirs.calls > 0) {
        it->min_ns = std::min(it->min_ns, theirs.min_ns);
        it->max_ns = std::max(it->max_ns, theirs.max_ns);
      }
      it->calls += theirs.calls;
      it->total_ns += theirs.total_ns;
      it->self_ns += theirs.self_ns;
    } else {
      phases.insert(it, theirs);
    }
  }
  if (shards.empty()) {
    shards = other.shards;
    barriers = other.barriers;
    windows = other.windows;
    boundary_messages = other.boundary_messages;
    boundary_bytes = other.boundary_bytes;
    profiled_wall_ns = other.profiled_wall_ns;
    window_ns = other.window_ns;
    messages_per_barrier = other.messages_per_barrier;
    batch_windows = other.batch_windows;
  }
}

namespace {

void write_histogram_json(std::ostream& os, const HistogramSample& h) {
  os << "{\"count\":";
  json::write_number(os, h.count);
  os << ",\"sum\":";
  json::write_number(os, h.sum);
  os << ",\"min\":";
  json::write_number(os, h.min);
  os << ",\"max\":";
  json::write_number(os, h.max);
  os << ",\"p50\":";
  json::write_number(os, h.percentile(0.50));
  os << ",\"p90\":";
  json::write_number(os, h.percentile(0.90));
  os << ",\"p99\":";
  json::write_number(os, h.percentile(0.99));
  os << '}';
}

/// Pretty ns for the human table: pick the unit that keeps 3 significant
/// digits readable.
std::string fmt_ns(double ns) {
  const char* unit = "ns";
  double v = ns;
  if (v >= 1e9) {
    v /= 1e9;
    unit = "s";
  } else if (v >= 1e6) {
    v /= 1e6;
    unit = "ms";
  } else if (v >= 1e3) {
    v /= 1e3;
    unit = "us";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), v >= 100 ? "%.0f%s" : "%.2f%s", v, unit);
  return buf;
}

}  // namespace

void ProfileSnapshot::write_json(std::ostream& os) const {
  os << "{\"clock\":\"steady\",\"phases\":{";
  json::Separator sep;
  for (const PhaseSample& p : phases) {
    sep.write(os);
    json::write_string(os, p.name);
    os << ":{\"calls\":";
    json::write_number(os, p.calls);
    os << ",\"total_ns\":";
    json::write_number(os, p.total_ns);
    os << ",\"self_ns\":";
    json::write_number(os, p.self_ns);
    os << ",\"min_ns\":";
    json::write_number(os, p.min_ns);
    os << ",\"max_ns\":";
    json::write_number(os, p.max_ns);
    os << '}';
  }
  os << '}';
  if (!shards.empty()) {
    os << ",\"barriers\":";
    json::write_number(os, barriers);
    os << ",\"windows\":";
    json::write_number(os, windows);
    os << ",\"profiled_wall_ns\":";
    json::write_number(os, profiled_wall_ns);
    os << ",\"boundary_messages\":";
    json::write_number(os, boundary_messages);
    os << ",\"boundary_bytes\":";
    json::write_number(os, boundary_bytes);
    os << ",\"shards\":[";
    sep = {};
    for (const ShardLaneSample& lane : shards) {
      sep.write(os);
      const double span =
          double(lane.busy_ns) + double(lane.barrier_wait_ns) + double(lane.idle_ns);
      os << "{\"busy_ns\":";
      json::write_number(os, lane.busy_ns);
      os << ",\"barrier_wait_ns\":";
      json::write_number(os, lane.barrier_wait_ns);
      os << ",\"idle_ns\":";
      json::write_number(os, lane.idle_ns);
      os << ",\"busy_frac\":";
      json::write_number(os, span > 0 ? double(lane.busy_ns) / span : 0.0);
      os << ",\"barrier_wait_frac\":";
      json::write_number(os, span > 0 ? double(lane.barrier_wait_ns) / span : 0.0);
      os << ",\"idle_frac\":";
      json::write_number(os, span > 0 ? double(lane.idle_ns) / span : 0.0);
      os << ",\"straggler_windows\":";
      json::write_number(os, lane.straggler_windows);
      os << ",\"domains\":[";
      json::write_number(os, lane.domain_begin);
      os << ',';
      json::write_number(os, lane.domain_end);
      os << "],\"rows_delivered\":";
      json::write_number(os, lane.rows_delivered);
      os << ",\"busiest_domain\":";
      json::write_number(os, lane.busiest_domain);
      os << ",\"busiest_domain_rows\":";
      json::write_number(os, lane.busiest_domain_rows);
      os << '}';
    }
    os << "],\"window_ns\":";
    write_histogram_json(os, window_ns);
    os << ",\"messages_per_barrier\":";
    write_histogram_json(os, messages_per_barrier);
    os << ",\"batch_windows\":";
    write_histogram_json(os, batch_windows);
  }
  os << '}';
}

void ProfileSnapshot::write_table(std::ostream& os) const {
  os << "profile (wall clock, steady):\n";
  std::vector<const PhaseSample*> ranked;
  ranked.reserve(phases.size());
  for (const PhaseSample& p : phases) ranked.push_back(&p);
  std::sort(ranked.begin(), ranked.end(), [](const PhaseSample* a, const PhaseSample* b) {
    return a->total_ns != b->total_ns ? a->total_ns > b->total_ns : a->name < b->name;
  });
  if (!ranked.empty()) {
    os << "  " << std::left << std::setw(32) << "phase" << std::right << std::setw(10)
       << "calls" << std::setw(10) << "total" << std::setw(10) << "self" << std::setw(10)
       << "mean" << std::setw(10) << "max" << '\n';
    for (const PhaseSample* p : ranked) {
      os << "  " << std::left << std::setw(32) << p->name << std::right << std::setw(10)
         << p->calls << std::setw(10) << fmt_ns(double(p->total_ns)) << std::setw(10)
         << fmt_ns(double(p->self_ns)) << std::setw(10)
         << fmt_ns(p->calls ? double(p->total_ns) / double(p->calls) : 0.0)
         << std::setw(10) << fmt_ns(double(p->max_ns)) << '\n';
    }
  }
  if (!shards.empty()) {
    os << "  sharded execution: " << windows << " windows over " << barriers
       << " dispatches, " << boundary_messages << " boundary messages ("
       << boundary_bytes << " envelope bytes)\n";
    os << "  " << std::left << std::setw(8) << "shard" << std::right << std::setw(10)
       << "busy" << std::setw(10) << "barrier" << std::setw(10) << "idle" << std::setw(8)
       << "busy%" << std::setw(11) << "straggler" << std::setw(14) << "domains"
       << std::setw(12) << "rows" << std::setw(20) << "busiest (rows)\n";
    for (std::size_t w = 0; w < shards.size(); ++w) {
      const ShardLaneSample& lane = shards[w];
      const double span =
          double(lane.busy_ns) + double(lane.barrier_wait_ns) + double(lane.idle_ns);
      char pct[16];
      std::snprintf(pct, sizeof(pct), "%.1f",
                    span > 0 ? 100.0 * double(lane.busy_ns) / span : 0.0);
      os << "  " << std::left << std::setw(8) << w << std::right << std::setw(10)
         << fmt_ns(double(lane.busy_ns)) << std::setw(10)
         << fmt_ns(double(lane.barrier_wait_ns)) << std::setw(10)
         << fmt_ns(double(lane.idle_ns)) << std::setw(8) << pct << std::setw(11)
         << lane.straggler_windows << std::setw(14)
         << ('[' + std::to_string(lane.domain_begin) + ',' +
             std::to_string(lane.domain_end) + ')')
         << std::setw(12) << lane.rows_delivered << std::setw(20)
         << (std::to_string(lane.busiest_domain) + " (" +
             std::to_string(lane.busiest_domain_rows) + ')')
         << '\n';
    }
    if (window_ns.count > 0) {
      os << "  window wall: p50=" << fmt_ns(window_ns.percentile(0.5))
         << " p99=" << fmt_ns(window_ns.percentile(0.99))
         << "  messages/exchange: p50=" << messages_per_barrier.percentile(0.5)
         << " p99=" << messages_per_barrier.percentile(0.99) << '\n';
    }
    if (batch_windows.count > 0) {
      os << "  windows/dispatch: p50=" << batch_windows.percentile(0.5)
         << " p99=" << batch_windows.percentile(0.99) << '\n';
    }
  }
}

}  // namespace imrm::obs
